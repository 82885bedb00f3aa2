#!/usr/bin/env bash
# CI gate for the serving daemon: pre-train a tiny model, export it as
# an artifact, start `turl serve` in the background, hammer it with
# concurrent parity-checked requests via `turl client`, assert the
# /metrics.json snapshot is sane, validate the Prometheus /metrics
# exposition (per-stage histograms live, build info present), then
# SIGTERM the daemon and require a clean drain (no dropped in-flight
# requests, exit code 0), a --trace-out JSONL that `turl report` can
# digest, and a second --no-trace daemon whose responses stay
# bit-identical to the same local forward (tracing on/off parity).
#
# Usage: scripts/ci_serve_smoke.sh [path-to-turl-binary]
set -euo pipefail

TURL="${1:-./target/release/turl}"
WORK="$(mktemp -d)"
ADDR="127.0.0.1:7641"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

ARGS=(--entities 120 --tables 60 --seed 11)

echo "== pretrain + export =="
"$TURL" pretrain "${ARGS[@]}" --epochs 1 --out "$WORK/model-f32.artifact"
"$TURL" export "${ARGS[@]}" --artifact "$WORK/model-f32.artifact" \
  --out "$WORK/model.artifact" --dtype int8

echo "== start daemon =="
"$TURL" serve "${ARGS[@]}" --artifact "$WORK/model.artifact" \
  --addr "$ADDR" --workers 2 --conns 4 --max-batch 4 --max-wait-us 2000 \
  --trace-out "$WORK/traces.jsonl" \
  > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 600); do
  grep -q 'listening on' "$WORK/serve.log" && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve.log"; exit 1; }
  sleep 0.1
done
grep -q 'listening on' "$WORK/serve.log" || { cat "$WORK/serve.log"; exit 1; }

echo "== concurrent parity-checked load =="
"$TURL" client "${ARGS[@]}" --addr "$ADDR" --requests 32 --concurrency 4 \
  --check-parity --artifact "$WORK/model.artifact" | tee "$WORK/client.log"
grep -q 'bit-identical to the local forward' "$WORK/client.log"
grep -q 'connection reuse:' "$WORK/client.log"

echo "== /metrics.json sanity =="
METRICS="$(curl -sf "http://$ADDR/metrics.json")" \
  || METRICS="$(python3 - "$ADDR" <<'EOF'
import sys, urllib.request
print(urllib.request.urlopen(f"http://{sys.argv[1]}/metrics.json").read().decode())
EOF
)"
METRICS="$METRICS" python3 <<'EOF'
import json, os
m = json.loads(os.environ["METRICS"])
assert m["requests"] >= 32, "expected >=32 requests, saw %s" % m["requests"]
assert m["server_errors"] == 0, "server errors: %s" % m["server_errors"]
assert m["rejected_overload"] == 0, "unexpected overload rejects"
assert m["batches"] >= 1 and m["batch_occupancy"] >= 1.0, "no forwards recorded"
assert m["plan_cache_size"] >= 1, "no compiled plan resident"
assert m["traces_sampled"] >= 32, "tracing is on, every task request must be sampled"
print("metrics ok: %d requests, occupancy %.2f, hit rate %.2f, %d traces"
      % (m["requests"], m["batch_occupancy"], m["cache_hit_rate"], m["traces_sampled"]))
EOF

echo "== /metrics is valid Prometheus exposition =="
PROM="$(curl -sf "http://$ADDR/metrics")" \
  || PROM="$(python3 - "$ADDR" <<'EOF'
import sys, urllib.request
print(urllib.request.urlopen(f"http://{sys.argv[1]}/metrics").read().decode())
EOF
)"
PROM="$PROM" python3 <<'EOF'
import os, re
text = os.environ["PROM"]
name_re = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*$')
line_re = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$')
samples = {}
types = {}
for i, line in enumerate(text.splitlines(), 1):
    if not line.strip():
        continue
    if line.startswith("#"):
        parts = line.split()
        if len(parts) >= 4 and parts[1] == "TYPE":
            assert name_re.match(parts[2]), f"line {i}: bad family name {parts[2]}"
            assert parts[3] in ("counter", "gauge", "histogram", "summary", "untyped"), \
                f"line {i}: bad type {parts[3]}"
            types[parts[2]] = parts[3]
        continue
    m = line_re.match(line)
    assert m, f"line {i}: not a valid exposition sample: {line!r}"
    samples[m.group(1) + (m.group(2) or "")] = m.group(3)
assert types.get("serve_latency_us") == "histogram", "serve_latency_us family missing"
assert types.get("serve_stage_us") == "histogram", "serve_stage_us family missing"
for stage in ("decode", "queue_wait", "batch_assemble", "forward", "encode", "write"):
    key = 'serve_stage_us_count{stage="%s"}' % stage
    assert key in samples, f"missing per-stage histogram: {key}"
    assert float(samples[key]) >= 1, f"stage {stage} has no observations"
assert 'serve_latency_us_count{endpoint="encode"}' in samples, \
    "missing per-endpoint latency histogram"
build = [k for k in samples if k.startswith("turl_build_info{")]
assert build and 'version="' in build[0] and 'dtype="int8"' in build[0], \
    f"bad turl_build_info: {build}"
assert any(k.startswith("serve_uptime_seconds") for k in samples), "missing uptime gauge"
assert any(k.startswith("serve_queue_depth_max") for k in samples), "missing watermark gauge"
print("prometheus ok: %d samples, %d families, stages live, %s"
      % (len(samples), len(types), build[0]))
EOF

echo "== malformed request stays typed =="
python3 - "$ADDR" <<'EOF'
import sys, urllib.request, urllib.error, json
req = urllib.request.Request(f"http://{sys.argv[1]}/v1/encode",
                             data=b"{not json", method="POST")
try:
    urllib.request.urlopen(req)
    sys.exit("malformed body was accepted")
except urllib.error.HTTPError as e:
    assert e.code == 400, f"expected 400, got {e.code}"
    body = json.load(e)
    assert body["error"]["code"] == "bad_request", body
    print("typed 400 ok:", body["error"]["code"])
EOF

echo "== SIGTERM drains and exits cleanly =="
kill -TERM "$SERVE_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "FAIL: daemon still running 10s after SIGTERM"
  exit 1
fi
wait "$SERVE_PID" && RC=0 || RC=$?
SERVE_PID=""
[ "$RC" -eq 0 ] || { echo "FAIL: daemon exited with $RC"; cat "$WORK/serve.log"; exit 1; }
grep -q 'shutting down' "$WORK/serve.log"

echo "== --trace-out JSONL digests under turl report =="
[ -s "$WORK/traces.jsonl" ] || { echo "FAIL: no traces written"; exit 1; }
"$TURL" report "$WORK/traces.jsonl" | tee "$WORK/report.log"
grep -q 'request traces' "$WORK/report.log"
grep -q 'queue-wait vs compute' "$WORK/report.log"
grep -q 'slowest requests' "$WORK/report.log"

echo "== tracing off: responses stay bit-identical =="
ADDR2="127.0.0.1:7642"
"$TURL" serve "${ARGS[@]}" --artifact "$WORK/model.artifact" \
  --addr "$ADDR2" --workers 2 --conns 4 --max-batch 4 --max-wait-us 2000 \
  --no-trace > "$WORK/serve2.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 600); do
  grep -q 'listening on' "$WORK/serve2.log" && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve2.log"; exit 1; }
  sleep 0.1
done
# Both daemons loaded the same artifact; --check-parity pins each one's
# responses to the same local compiled forward, so passing here proves
# traced and untraced responses are bit-identical.
"$TURL" client "${ARGS[@]}" --addr "$ADDR2" --requests 16 --concurrency 4 \
  --check-parity --artifact "$WORK/model.artifact" | tee "$WORK/client2.log"
grep -q 'bit-identical to the local forward' "$WORK/client2.log"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: --no-trace daemon exited dirty"; exit 1; }
SERVE_PID=""

echo "PASS: serve smoke — concurrent parity, sane metrics, valid Prometheus, live stage histograms, typed 4xx, clean SIGTERM drain, trace JSONL reportable, tracing on/off parity"
