//! Seeded load shapes: the endpoint mix, the Zipf sampler of the
//! cache-hit workload, the open-loop arrival schedule, and the record
//! kept for every operation sent.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// The seven task endpoints with their share of the request mix, in
/// twentieths: `/v1/encode` answers ~170 KB of JSON and the rest ~1 KB,
/// so both response regimes are present in every serve workload.
pub const MIX: [(&str, usize); 7] = [
    ("/v1/encode", 2),
    ("/v1/entity_linking", 3),
    ("/v1/cell_filling", 3),
    ("/v1/row_population", 3),
    ("/v1/column_type", 3),
    ("/v1/relation_extraction", 3),
    ("/v1/schema_augmentation", 3),
];

/// Endpoint (index into [`MIX`]) for each of `n` request indices: every
/// block of 20 consecutive requests holds the exact mix, in an order
/// shuffled from `rng`. Exact proportions keep the share of expensive
/// `/v1/encode` responses identical across seeds; only the order moves.
pub fn mix_blocks(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let block: Vec<usize> =
        MIX.iter().enumerate().flat_map(|(e, &(_, share))| vec![e; share]).collect();
    let mut out = Vec::with_capacity(n + block.len());
    while out.len() < n {
        let mut b = block.clone();
        b.shuffle(rng);
        out.extend(b);
    }
    out.truncate(n);
    out
}

/// Endpoint for each entry of a pool whose entries are requested with
/// the given `weights`: walking the pool in order, each entry takes the
/// endpoint whose share of the weight assigned so far lags its [`MIX`]
/// target the most. The cache-hit workload fixes one endpoint per pool
/// entry (the encode cache keys on the masked input, so the same table
/// under another endpoint would miss); this keeps the mix *by request*
/// on target although a Zipf head entry alone draws ~18 % of requests.
pub fn mix_by_weight(weights: &[f64]) -> Vec<usize> {
    let mut assigned = [0.0f64; MIX.len()];
    let mut total = 0.0;
    weights
        .iter()
        .map(|&w| {
            total += w;
            let lag = |e: usize| MIX[e].1 as f64 / 20.0 * total - assigned[e];
            let e = (0..MIX.len())
                .max_by(|&a, &b| lag(a).total_cmp(&lag(b)).then(b.cmp(&a)))
                .expect("MIX is non-empty");
            assigned[e] += w;
            e
        })
        .collect()
}

/// Zipf(`s`) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n ≥ 1` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        let weights = Self::weights(n, s);
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// Unnormalised rank weights.
    pub fn weights(n: usize, s: f64) -> Vec<f64> {
        (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect()
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One open-loop phase: a fixed arrival rate held for a duration.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Arrivals per second.
    pub rate: f64,
    /// Phase length in seconds.
    pub seconds: f64,
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time in nanoseconds from the start of the schedule.
    pub due_ns: u64,
    /// Index of the phase it belongs to.
    pub phase: usize,
}

/// Seeded Poisson arrivals phase by phase. Each phase holds exactly
/// `round(rate × seconds)` arrivals at sorted uniform times — a Poisson
/// process conditioned on its count — so the offered load is the same
/// for every seed and only the burst pattern moves.
pub fn poisson_schedule(rng: &mut StdRng, phases: &[Phase]) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut start = 0.0f64;
    for (phase, p) in phases.iter().enumerate() {
        let n = (p.rate * p.seconds).round() as usize;
        let mut times: Vec<f64> = (0..n).map(|_| start + rng.gen::<f64>() * p.seconds).collect();
        times.sort_by(f64::total_cmp);
        out.extend(times.into_iter().map(|t| Arrival { due_ns: (t * 1e9) as u64, phase }));
        start += p.seconds;
    }
    out
}

/// What happened to one operation. Times are nanoseconds from the start
/// of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// Request index (position in the workload's request sequence).
    pub index: usize,
    /// Open-loop phase, `0` for closed loops.
    pub phase: usize,
    /// When the operation was due. A closed loop has no schedule: its
    /// operations are due when sent.
    pub due_ns: u64,
    /// When a sender became free to take it.
    pub free_ns: u64,
    /// When the client started sending it.
    pub sent_ns: u64,
    /// When the reply was fully read.
    pub done_ns: u64,
    /// Answered 200 (a transport error or any other status is a failure).
    pub ok: bool,
    /// Sent during a time slice in which the benchmark recorded spans.
    pub traced: bool,
}

impl OpRecord {
    /// Latency a user waiting since the due time saw: a stalled sender
    /// charges its stall to the requests queued behind it instead of
    /// omitting it.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How long after its due time it was sent: the wait for a free
    /// connection (the daemon serves as many as it has acceptors) plus
    /// the generator's own overshoot.
    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// The generator's own share of the lateness: how long after both
    /// the due time and a free sender existed the request was sent. A
    /// large value means the generator was starved, not the daemon slow.
    pub fn overshoot_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns.max(self.free_ns)) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mix_blocks_hold_the_exact_mix_and_follow_the_seed() {
        let a = mix_blocks(&mut StdRng::seed_from_u64(3), 200);
        let b = mix_blocks(&mut StdRng::seed_from_u64(3), 200);
        let c = mix_blocks(&mut StdRng::seed_from_u64(4), 200);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for (e, &(_, share)) in MIX.iter().enumerate() {
            assert_eq!(a.iter().filter(|&&x| x == e).count(), share * 10);
        }
    }

    #[test]
    fn mix_by_weight_tracks_the_target_under_zipf_weights() {
        let w = Zipf::weights(128, 1.0);
        let total: f64 = w.iter().sum();
        let eps = mix_by_weight(&w);
        for (e, &(path, share)) in MIX.iter().enumerate() {
            let got: f64 = eps.iter().zip(&w).filter(|(&x, _)| x == e).map(|(_, w)| w).sum();
            let want = share as f64 / 20.0;
            // The head entry alone is 18 % of the mass, so its endpoint
            // overshoots its 15 % target; every share stays within 4 points.
            assert!((got / total - want).abs() < 0.04, "{path}: {} vs {want}", got / total);
        }
    }

    #[test]
    fn zipf_is_deterministic_and_head_heavy() {
        let z = Zipf::new(128, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..4000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(9);
        assert_eq!(a, draw(9));
        assert_ne!(a, draw(10));
        assert!(a.iter().all(|&k| k < 128));
        let head = a.iter().filter(|&&k| k == 0).count() as f64 / a.len() as f64;
        // 1 / H_128 = 0.184
        assert!((head - 0.184).abs() < 0.03, "head share {head}");
    }

    #[test]
    fn schedule_is_seeded_sorted_and_has_the_exact_count_per_phase() {
        let phases = [Phase { rate: 10.0, seconds: 8.0 }, Phase { rate: 20.0, seconds: 8.0 }];
        let a = poisson_schedule(&mut StdRng::seed_from_u64(1), &phases);
        assert_eq!(a, poisson_schedule(&mut StdRng::seed_from_u64(1), &phases));
        assert_ne!(a, poisson_schedule(&mut StdRng::seed_from_u64(2), &phases));
        assert_eq!(a.iter().filter(|x| x.phase == 0).count(), 80);
        assert_eq!(a.iter().filter(|x| x.phase == 1).count(), 160);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| (x.phase == 0) == (x.due_ns < 8_000_000_000)));
        assert!(a.last().expect("non-empty").due_ns < 16_000_000_000);
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        let op = OpRecord {
            index: 0,
            phase: 1,
            due_ns: 1_000_000,
            free_ns: 30_500_000,
            sent_ns: 31_000_000,
            done_ns: 71_000_000,
            ok: true,
            traced: false,
        };
        assert_eq!(op.late_ms(), 30.0);
        assert_eq!(op.overshoot_ms(), 0.5); // the sender was busy until 30.5 ms
        assert_eq!(op.latency_ms(), 70.0); // 40 ms of service + 30 ms stalled behind others
    }
}
