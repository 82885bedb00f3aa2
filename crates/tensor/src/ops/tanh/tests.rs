//! The `tanh` lane against glibc 2.36's `tanhf`: a golden table that holds
//! on every host, and — where `f32::tanh` *is* glibc's `tanhf` — a strided
//! sweep and an exhaustive `#[ignore]`d proof over all 2³² inputs. This
//! file is the one place in `crates/*/src` allowed to call libm's `tanh`:
//! it is the oracle (`scripts/lint_libm_tanh.sh`).

use super::*;

/// `(input bits, output bits)` of glibc 2.36's `tanhf`, recorded on
/// x86-64 Debian 12; each line names the branch the input takes (`k` is
/// `expm1f`'s reduction exponent for the argument `±2|x|`).
const GOLDEN: [(u32, u32); 44] = [
    (0x0000_0000, 0x0000_0000), // +0
    (0x8000_0000, 0x8000_0000), // -0
    (0x0000_0001, 0x0000_0001), // subnormal
    (0x8000_0001, 0x8000_0001), // subnormal
    (0x007f_ffff, 0x007f_ffff), // subnormal
    (0x8040_0000, 0x8040_0000), // subnormal
    (0x0080_0000, 0x0080_0000), // |x| < 2^-55
    (0x23ff_ffff, 0x23ff_ffff), // |x| < 2^-55
    (0xa380_0000, 0xa380_0000), // |x| < 2^-55
    (0x2400_0000, 0x2400_0000), // expm1 argument below 2^-25
    (0xa400_0001, 0xa400_0001), // expm1 argument below 2^-25
    (0x327f_ffff, 0x327f_ffff), // expm1 argument below 2^-25
    (0x3280_0000, 0x3280_0000), // k = 0
    (0x3d80_0000, 0x3d7f_aacd), // k = 0
    (0xbe00_0000, 0xbdfe_acca), // k = 0
    (0x3e31_7218, 0x3e2f_b0cd), // k = 0, argument exactly ln2/2
    (0x3e31_7219, 0x3e2f_b0cd), // k = -1
    (0x3e80_0000, 0x3e7a_cbf5), // k = -1
    (0xbf00_0000, 0xbeec_9a9f), // k = -1
    (0x3f05_1591, 0x3ef4_86f8), // k = -1, argument just inside 1.5 ln2
    (0x3f05_1592, 0x3ef4_86f8), // k = -2
    (0x3f40_0000, 0x3f22_991f), // k = -2
    (0xbf7f_ffff, 0xbf42_f7d5), // k = -3
    (0x3f80_0000, 0x3f42_f7d6), // k = 3, |x| = 1
    (0xbf80_0001, 0xbf42_f7d6), // k = 3
    (0x4000_0000, 0x3f76_ca83), // k = 6
    (0x40a0_0000, 0x3f7f_fa0d), // k = 14
    (0xc0e0_0000, 0xbf7f_ffe4), // k = 20
    (0x40f8_0000, 0x3f7f_fffa), // k = 22
    (0x40ff_0000, 0x3f7f_fffc), // k = 23
    (0x4100_0000, 0x3f7f_fffc), // k = 23
    (0xc180_0000, 0xbf80_0000), // k = 46
    (0x4190_0000, 0x3f80_0000), // k = 52
    (0x419c_0000, 0x3f80_0000), // k = 56
    (0x41a0_0000, 0x3f80_0000), // k = 58
    (0xc1af_ffff, 0xbf80_0000), // k = 63
    (0x41b0_0000, 0x3f80_0000), // |x| = 22
    (0xc2c8_0000, 0xbf80_0000), // |x| > 22
    (0x7f7f_ffff, 0x3f80_0000), // f32::MAX
    (0x7f80_0000, 0x3f80_0000), // +inf
    (0xff80_0000, 0xbf80_0000), // -inf
    (0x7fc0_0000, 0x7fc0_0000), // NaN
    (0x7f80_0001, 0x7fc0_0001), // signalling NaN, quieted
    (0xffc1_2345, 0xffc1_2345), // negative NaN
];

/// Every body the running CPU has, portable first.
fn bodies() -> impl Iterator<Item = Body> {
    Body::ALL.into_iter().filter(|b| b.available())
}

/// `lane` over `xs` as compiled for `body`.
fn on(body: Body, lane: Lane, xs: &[f32]) -> Vec<f32> {
    let mut out = vec![f32::NAN; xs.len()];
    run_body(body, Pass { lane, src: Some(xs), out: &mut out });
    out
}

/// Equal bits, or — a NaN's payload not being part of the contract — NaN
/// on both sides.
fn same(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

#[test]
fn golden_table_holds_under_every_body() {
    let xs: Vec<f32> = GOLDEN.iter().map(|&(x, _)| f32::from_bits(x)).collect();
    for body in bodies() {
        for (&(x, want), got) in GOLDEN.iter().zip(on(body, Lane::Tanh, &xs)) {
            assert!(
                same(got, f32::from_bits(want)),
                "{}: tanh({x:#010x}) = {:#010x}, glibc gives {want:#010x}",
                body.name(),
                got.to_bits()
            );
        }
    }
    let mut out = vec![0.0; xs.len()];
    tanh_into(&xs, &mut out);
    assert!(GOLDEN.iter().zip(&out).all(|(&(_, want), &y)| same(y, f32::from_bits(want))));
}

/// `f32::tanh` is glibc's `tanhf` only on a glibc host; Miri perturbs it.
#[cfg(all(target_os = "linux", target_env = "gnu", not(miri)))]
mod against_libm {
    use super::*;

    /// Whether this host's `tanhf` is the one the port follows: it must
    /// reproduce the golden table. A glibc whose `tanhf` is a different
    /// function (a later release may ship a correctly rounded one) is no
    /// oracle for this port, and the comparisons below say so and stop.
    fn libm_is_the_ported_tanhf() -> bool {
        let same_fn =
            GOLDEN.iter().all(|&(x, y)| same(f32::from_bits(x).tanh(), f32::from_bits(y)));
        if !same_fn {
            turl_obs::warn(
                "skipped: this host's tanhf is not glibc 2.36's (the golden table differs)",
            );
        }
        same_fn
    }

    fn libm_gelu_tanh(x: f32) -> f32 {
        (GELU_C * (x + 0.044715 * x * x * x)).tanh()
    }

    /// The bit patterns `xs` through the `tanh` lane under every body,
    /// against `f32::tanh`.
    fn sweep(xs: impl Iterator<Item = u32> + Clone) {
        let xs: Vec<f32> = xs.map(f32::from_bits).collect();
        for body in bodies() {
            let got = on(body, Lane::Tanh, &xs);
            for (&x, y) in xs.iter().zip(got) {
                let want = x.tanh();
                assert!(
                    same(y, want),
                    "{}: tanh({:#010x}) = {:#010x}, libm gives {:#010x}",
                    body.name(),
                    x.to_bits(),
                    y.to_bits(),
                    want.to_bits()
                );
            }
        }
    }

    #[test]
    fn strided_sweep_matches_libm_and_gelu_matches_through_it() {
        if !libm_is_the_ported_tanhf() {
            return;
        }
        // A stride of 4 093 (prime, just under 2^12) visits ~2^20 patterns
        // with every low-bit residue, all exponents and both signs.
        let xs = (0..=u32::MAX).step_by(4093);
        sweep(xs.clone());
        // The GELU lanes are the `tanh` lane of GELU's argument, so they
        // follow; checked anyway, scalar and slice alike.
        let xs: Vec<f32> = xs.map(f32::from_bits).collect();
        for body in bodies() {
            let t = on(body, Lane::GeluTanh, &xs);
            let y = on(body, Lane::Gelu, &xs);
            for ((&x, t), y) in xs.iter().zip(t).zip(y) {
                let want = libm_gelu_tanh(x);
                assert!(same(t, want) && same(gelu_tanh(x), want), "gelu_tanh({x:e})");
                let want = 0.5 * x * (1.0 + want);
                assert!(same(y, want) && same(gelu_fwd(x), want), "gelu({x:e})");
            }
        }
    }

    /// All 2^32 inputs under every body the CPU has (~2 min in release on
    /// two cores): `cargo test --release -p turl-tensor -- --ignored`.
    #[test]
    #[ignore = "exhaustive: every f32 bit pattern"]
    fn every_input_matches_libm_under_every_body() {
        if !libm_is_the_ported_tanhf() {
            return;
        }
        const CHUNK: u64 = 1 << 20;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let chunks = (1u64 << 32) / CHUNK;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    for c in (t..chunks).step_by(threads as usize) {
                        sweep((c * CHUNK..(c + 1) * CHUNK).map(|b| b as u32));
                    }
                });
            }
        });
    }
}
