//! Smoke tests for the `turl` CLI binary: every subcommand runs end-to-end
//! on a miniature world and produces the expected artifacts.

use std::process::Command;

// The CLI lives in a separate crate; invoke it through cargo instead of
// CARGO_BIN_EXE (which only works for bins of the same package).
fn run_turl(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO"))
        .args(["run", "-q", "-p", "turl-cli", "--"])
        .args(args)
        .output()
        .expect("cargo run turl-cli");
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

#[test]
fn cli_world_and_corpus_and_pipeline_roundtrip() {
    let (ok, text) = run_turl(&["world", "--entities", "300", "--seed", "3"]);
    assert!(ok, "world failed: {text}");
    assert!(text.contains("relations"), "{text}");

    let dir = std::env::temp_dir().join("turl_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");
    let (ok, text) = run_turl(&[
        "corpus",
        "--entities",
        "300",
        "--tables",
        "80",
        "--seed",
        "3",
        "--out",
        corpus.to_str().unwrap(),
    ]);
    assert!(ok, "corpus failed: {text}");
    assert!(corpus.exists());

    let model = dir.join("model.artifact");
    let (ok, text) = run_turl(&[
        "pretrain",
        "--entities",
        "300",
        "--tables",
        "80",
        "--epochs",
        "1",
        "--seed",
        "3",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(ok, "pretrain failed: {text}");
    assert!(model.exists());

    // crash-safe checkpointing: a run interrupted after 1 epoch and
    // resumed to 2 total epochs matches an uninterrupted 2-epoch run
    // bit-for-bit (the `final loss ... bits 0x...` line is the witness)
    let ckdir = dir.join("ckpts");
    std::fs::remove_dir_all(&ckdir).ok();
    let common = ["--entities", "300", "--tables", "80", "--seed", "3"];
    let bits_of = |text: &str| {
        text.lines()
            .find_map(|l| l.split("bits ").nth(1))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no `bits` line in: {text}"))
    };
    let (ok, reference) = run_turl(
        &[&["pretrain", "--epochs", "2", "--out", model.to_str().unwrap()], &common[..]].concat(),
    );
    assert!(ok, "reference pretrain failed: {reference}");
    let (ok, text) = run_turl(
        &[
            &[
                "pretrain",
                "--epochs",
                "1",
                "--checkpoint-dir",
                ckdir.to_str().unwrap(),
                "--checkpoint-every",
                "5",
                "--out",
                model.to_str().unwrap(),
            ],
            &common[..],
        ]
        .concat(),
    );
    assert!(ok, "interrupted pretrain failed: {text}");
    let (ok, text) = run_turl(
        &[
            &[
                "pretrain",
                "--epochs",
                "2",
                "--checkpoint-dir",
                ckdir.to_str().unwrap(),
                "--resume",
                "--out",
                model.to_str().unwrap(),
            ],
            &common[..],
        ]
        .concat(),
    );
    assert!(ok, "resumed pretrain failed: {text}");
    assert!(text.contains("resumed from"), "{text}");
    assert_eq!(bits_of(&reference), bits_of(&text), "resume diverged from reference");
    std::fs::remove_dir_all(&ckdir).ok();

    // probe can reuse the weights without re-training
    let probe = |entities: &'static str, weights: &std::path::Path| {
        run_turl(&[
            "probe",
            "--entities",
            entities,
            "--tables",
            "80",
            "--seed",
            "3",
            "--artifact",
            weights.to_str().unwrap(),
        ])
    };
    let (ok, text) = probe("300", &model);
    assert!(ok, "probe failed: {text}");
    assert!(text.contains("accuracy") && !text.contains("pre-training"), "{text}");

    // weights that do not fit the model are refused at load, naming the
    // parameter and both shapes, before any forward runs
    let (ok, text) = probe("200", &model);
    assert!(!ok, "a store for 300 entities bound into a 200-entity model: {text}");
    assert!(text.contains("does not fit the model"), "{text}");
    assert!(text.contains("turl.") && text.contains("needs shape"), "{text}");
    assert!(!text.contains("accuracy"), "{text}");

    // and so are a pre-artifact JSON weights dump and a missing file
    let legacy = dir.join("model.json");
    std::fs::write(&legacy, r#"{"params":[["turl.word_emb.weight",{"shape":[1],"data":[0]}]]}"#)
        .unwrap();
    let (ok, text) = probe("300", &legacy);
    assert!(!ok && text.contains("header invalid"), "{text}");
    let (ok, text) = probe("300", &dir.join("no-such.artifact"));
    assert!(!ok && text.contains("I/O error"), "{text}");

    std::fs::remove_file(&corpus).ok();
    std::fs::remove_file(&model).ok();
    std::fs::remove_file(&legacy).ok();
}

#[test]
fn cli_metrics_out_and_report_roundtrip() {
    let dir = std::env::temp_dir().join("turl_cli_smoke_obs");
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("run.jsonl");
    let model = dir.join("model.artifact");
    let (ok, text) = run_turl(&[
        "pretrain",
        "--entities",
        "200",
        "--tables",
        "40",
        "--epochs",
        "1",
        "--seed",
        "5",
        "--metrics-out",
        jsonl.to_str().unwrap(),
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(ok, "instrumented pretrain failed: {text}");
    assert!(text.contains("final loss"), "{text}");
    assert!(jsonl.exists(), "no metrics file written");

    let (ok, text) = run_turl(&["report", jsonl.to_str().unwrap()]);
    assert!(ok, "report failed: {text}");
    assert!(text.contains("step-time breakdown"), "{text}");
    assert!(text.contains("mask-selection ratios"), "{text}");

    // a stream of valid-looking garbage must be rejected, not rendered
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"ev\":\"step\"}\n").unwrap();
    let (ok, text) = run_turl(&["report", bad.to_str().unwrap()]);
    assert!(!ok, "report accepted a schema-invalid stream: {text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_audit_holds_on_a_generated_world() {
    let (ok, text) = run_turl(&["audit", "--entities", "200", "--tables", "30", "--seed", "7"]);
    assert!(ok, "audit failed: {text}");
    assert!(text.contains("audit: all invariants hold"), "{text}");
}

#[test]
fn cli_rejects_bad_arguments() {
    let (ok, text) = run_turl(&["world", "--entities", "many"]);
    assert!(!ok);
    assert!(text.contains("integer"), "{text}");
    let (ok, _) = run_turl(&["no-such-command"]);
    assert!(!ok);
}
