//! The kernel library's `tanh`, and the tanh-approximated GELU built on it.
//!
//! One lane function, `tanh_lane`, is a branch-free port of fdlibm's
//! single-precision `tanhf` and the `expm1f` it calls, as glibc 2.36 ships
//! them (`sysdeps/ieee754/flt-32/s_tanhf.c`, `s_expm1f.c`): the same
//! constants and the same IEEE operations in the same order, except that
//! every range branch is computed and each lane selects its own, and the
//! two divisions of `tanhf`'s two branches are one division of a selected
//! numerator. No `mul_add`, no libm call, nothing a compiler may
//! reassociate — so a loop over it vectorizes, and the elementwise pass
//! ([`tanh_into`], [`gelu_tanh_into`], [`gelu`]) is compiled once per
//! [`Body`] and dispatched through [`Body::widest`] exactly like the block
//! kernel.
//!
//! What it equals, and how that is known (DESIGN §5f): for every one of
//! the 2³² `f32` inputs and under every body, the bits glibc 2.36's
//! `tanhf` returns (a NaN input gives a NaN). The `#[ignore]`d exhaustive
//! test proves it against libm, which `f32`'s `tanh` calls, on a glibc
//! host; a golden table of `(input bits, output bits)` recorded there, one
//! or more per branch, pins it on every host. The scalar [`gelu_tanh`]
//! and [`gelu_fwd`] are the same lane functions, so scalar and slice agree
//! by construction, and a model's bits no longer depend on the host's libm
//! through its `tanh`.

use super::{run_body, Body, Compiled};

/// `sqrt(2/pi)`, the constant of the tanh-approximated GELU.
const GELU_C: f32 = 0.797_884_6;

// fdlibm `expm1f`'s constants (`s_expm1f.c`), by their bit patterns.
/// `ln 2`'s leading bits, 6.9313812256e-01: `k · LN2_HI` is exact for
/// every `k` the reduction produces.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// `ln 2 - LN2_HI`, 9.0580006145e-06.
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// `1 / ln 2`, 1.4426950216e+00.
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// The scaled rational coefficients of `expm1` on `[-ln2/2, ln2/2]`:
/// -3.3333335072e-02, 1.5873016091e-03, -7.9365076090e-05,
/// 4.0082177293e-06, -2.0109921195e-07.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// `tanhf`'s `tiny`: `1 - TINY` is its `|x| ≥ 22` result, which rounds to 1.
const TINY: f32 = 1.0e-30;
/// 1.5 · 2^23: adding it to an `f32` of magnitude below 2^22 rounds that
/// to an integer held in the low mantissa bits.
const ROUND: f32 = 12_582_912.0;

/// `expm1(x)` for the arguments [`tanh_lane`] passes it: `(-2, -2⁻⁵⁴]`
/// and `[2, 44)`, or garbage its caller does not select. fdlibm's
/// `expm1f` restricted to that domain: its overflow, non-finite and
/// `x < -27 ln 2` filters and its `k = 1` tail are unreachable from there
/// and not ported, and a `k = ±1` reduction can only be `k = -1`
/// (positive arguments are at least 2).
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    // Argument reduction: x = k·ln2 + r, r = hi - lo, |r| ≤ ln2/2, and c
    // the rounding error of forming r. C's `k = invln2*x ± 0.5` truncates
    // toward zero and `t = k` converts back; an `as` cast would saturate
    // and does not vectorize. So: round to nearest by adding and
    // subtracting ROUND, step back toward zero where that rounded away,
    // and read k off the mantissa of `tn + ROUND` — exact for
    // |v| < 2^22, which every argument tanh passes is (|v| < 64).
    let v = INVLN2 * x + if x.is_sign_negative() { -0.5 } else { 0.5 };
    let nearest = (v + ROUND) - ROUND;
    let tn = if nearest.abs() > v.abs() { nearest - 1.0f32.copysign(v) } else { nearest };
    let kn = ((tn + ROUND).to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let near = hx < 0x3f85_1592; // |x| < 1.5 ln2, so x < 0 here: k = -1
    let k = if near { -1 } else { kn };
    let hi = if near { x + LN2_HI } else { x - tn * LN2_HI };
    let lo = if near { -LN2_LO } else { tn * LN2_LO };
    let reduced = hi - lo;
    let c = (hi - reduced) - lo;
    // |x| ≤ ln2/2: no reduction (k = 0, where c is not read).
    let reduce = hx > 0x3eb1_7218;
    let k = if reduce { k } else { 0 };
    let r = if reduce { reduced } else { x };

    // expm1(r) by fdlibm's rational approximation.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let y_k0 = r - (r * e - hxs);
    let e = (r * (e - c) - c) - hxs;
    let y_km1 = 0.5 * (r - e) - 0.5;

    // The rest scale by 2^k: add k to the exponent field. `p` is 2^-k.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23));
    let p = f32::from_bits((0x7f_i32.wrapping_sub(k) as u32) << 23);
    let y_far = scale(1.0 - (e - r)) - 1.0; // k ≤ -2 or k > 56
    let y_mid = scale((1.0 - p) - (e - r)); // 2 ≤ k < 23: 1 - p is exact
    let y_high = scale((r - (e + p)) + 1.0); // 23 ≤ k ≤ 56

    let y = if k < 23 { y_mid } else { y_high };
    let y = if k <= -2 || k > 56 { y_far } else { y };
    let y = if k == -1 { y_km1 } else { y };
    let y = if k == 0 { y_k0 } else { y };
    // |x| < 2^-25: x itself.
    if hx < 0x3300_0000 {
        x
    } else {
        y
    }
}

/// `tanh(x)`, with the bits of glibc 2.36's `tanhf` (module docs).
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    // |x| ≥ 1: 1 - 2 / (expm1(2|x|) + 2); below: -t / (t + 2) with
    // t = expm1(-2|x|). One expm1 and one division serve both. The
    // argument's sign and the numerator are blended under a mask, not
    // selected: LLVM threads selects on one condition into two copies of
    // everything between them — two expm1s and four divisions per lane.
    let small = ((ix.wrapping_sub(0x3f80_0000) as i32) >> 31) as u32; // all ones iff |x| < 1
    let t = expm1_lane(f32::from_bits((2.0 * ax).to_bits() | (small & 0x8000_0000)));
    let num = f32::from_bits(((-t).to_bits() & small) | (2.0f32.to_bits() & !small));
    let q = num / (t + 2.0);
    let z = if small == 0 { 1.0 - q } else { q };
    // |x| ≥ 22, ±inf included.
    let z = if ix >= 0x41b0_0000 { 1.0 - TINY } else { z };
    let z = if x.is_sign_negative() { -z } else { z };
    // |x| < 2^-55, ±0 and subnormals included.
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    // NaN: quieted, as fdlibm's `1/x + 1` quiets it.
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

/// The `tanh` inside the tanh-approximated GELU.
#[inline(always)]
fn gelu_tanh_lane(x: f32) -> f32 {
    tanh_lane(GELU_C * (x + 0.044715 * x * x * x))
}

/// Tanh-approximated GELU.
#[inline(always)]
fn gelu_lane(x: f32) -> f32 {
    0.5 * x * (1.0 + gelu_tanh_lane(x))
}

/// The `tanh` inside [`gelu_fwd`], which [`gelu_grad`] needs again.
pub fn gelu_tanh(x: f32) -> f32 {
    gelu_tanh_lane(x)
}

/// Tanh-approximated GELU, the scalar form of every GELU kernel (one lane
/// function keeps them bit-exact).
pub fn gelu_fwd(x: f32) -> f32 {
    gelu_lane(x)
}

/// Derivative of [`gelu_fwd`] at `x`, given `t = gelu_tanh(x)` from the
/// forward pass.
pub fn gelu_grad(x: f32, t: f32) -> f32 {
    let dinner = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

/// What a [`Pass`] computes per element.
#[derive(Clone, Copy, Debug)]
pub(super) enum Lane {
    /// [`tanh_into`].
    Tanh,
    /// [`gelu_tanh`].
    GeluTanh,
    /// [`gelu_fwd`].
    Gelu,
}

/// One elementwise pass: `out[i] = lane(src[i])`, or in place,
/// `out[i] = lane(out[i])`, without a `src`.
pub(super) struct Pass<'a> {
    pub(super) lane: Lane,
    pub(super) src: Option<&'a [f32]>,
    pub(super) out: &'a mut [f32],
}

impl Compiled for Pass<'_> {
    #[inline(always)]
    fn run(self, _body: Body) {
        // One loop per (lane, src) pair, so the match stays outside it.
        macro_rules! each {
            ($f:ident) => {
                match self.src {
                    Some(src) => {
                        for (o, &v) in self.out.iter_mut().zip(src) {
                            *o = $f(v);
                        }
                    }
                    None => {
                        for o in self.out.iter_mut() {
                            *o = $f(*o);
                        }
                    }
                }
            };
        }
        match self.lane {
            Lane::Tanh => each!(tanh_lane),
            Lane::GeluTanh => each!(gelu_tanh_lane),
            Lane::Gelu => each!(gelu_lane),
        }
    }
}

/// Run a [`Pass`] through the widest body this CPU supports.
pub(super) fn pass(lane: Lane, src: Option<&[f32]>, out: &mut [f32]) {
    if let Some(src) = src {
        assert_eq!(src.len(), out.len(), "{lane:?} out size");
    }
    run_body(Body::widest(), Pass { lane, src, out });
}

/// Elementwise `out = tanh(x)` into a caller-provided slice.
pub fn tanh_into(x: &[f32], out: &mut [f32]) {
    let _t = profiled!("tanh");
    pass(Lane::Tanh, Some(x), out);
}

/// Elementwise `t = gelu_tanh(x)`: the tape's GELU forward, which keeps
/// `t` for [`gelu_grad`].
pub fn gelu_tanh_into(x: &[f32], t: &mut [f32]) {
    let _t = profiled!("gelu");
    pass(Lane::GeluTanh, Some(x), t);
}

/// GELU in place, `x = gelu_fwd(x)`, for fused callers. Untimed: each
/// caller times itself under its own name (`fused.bias_gelu`).
pub fn gelu(x: &mut [f32]) {
    pass(Lane::Gelu, None, x);
}

#[cfg(test)]
mod tests;
