//! Parallel-vs-serial kernel equivalence.
//!
//! The block kernel in `ops` is *split-invariant*: each output element
//! is owned by exactly one tile of one task and accumulated in
//! ascending-k order no matter whether the dispatcher divides column
//! panels (`m < n`) or row tiles among workers. These tests pin that
//! guarantee down — every kernel must produce **bit-identical** results
//! to a naive reference at every pool width, across degenerate and
//! non-tile-divisible shapes.

use std::sync::{Mutex, MutexGuard};
use turl_tensor::{ops, pool, Tensor};

/// Pool width is process-global; serialize tests that sweep it.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic pseudo-random fill (no RNG dependency needed here).
fn fill(shape: Vec<usize>, salt: u32) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt.wrapping_mul(97));
            (h % 2000) as f32 / 1000.0 - 1.0
        })
        .collect();
    Tensor::from_vec(shape, data)
}

fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a.data()[i * k + kk].mul_add(b.data()[kk * n + j], acc);
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(vec![m, n], out)
}

fn naive_matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    // a: [m, k], b: [n, k] -> [m, n]
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[0];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a.data()[i * k + kk].mul_add(b.data()[j * k + kk], acc);
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(vec![m, n], out)
}

fn naive_matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    // a: [k, m], b: [k, n] -> [m, n]
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a.data()[kk * m + i].mul_add(b.data()[kk * n + j], acc);
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(vec![m, n], out)
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data().iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i} differs ({g} vs {w})");
    }
}

/// `(m, k, n)` shapes chosen to stress the splitter and the tiling: 1x1,
/// single row, single column, tall-skinny, short-wide, exactly-one-tile,
/// shapes not divisible by any tile size or thread count, and the paper
/// encoder's own shapes (§4.3: d=312, FFN 1200, head width 26) at table
/// lengths 28–31 — the last one the `tn` weight-gradient shape.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 7, 1),
    (1, 1, 9),
    (3, 257, 2),
    (257, 3, 5),
    (5, 3, 257),
    (64, 64, 64),
    (65, 130, 67),
    (33, 100, 129),
    (28, 312, 312),
    (30, 312, 1200),
    (29, 1200, 312),
    (31, 312, 26),
    (312, 30, 1200),
];

/// [`SHAPES`] plus a sweep in which every row remainder (`m mod 4`) meets
/// every column remainder (`n mod 16`: full panels, the half-width panel
/// and 0–7 single columns) on both sides of the dispatcher's `m < n`
/// rule, with `k` large enough that every one of them fans out.
fn shapes() -> Vec<(usize, usize, usize)> {
    let mut all = SHAPES.to_vec();
    for rm in 0..4 {
        for rn in 0..16 {
            all.push((4 + rm, 300, 32 + rn)); // m < n: column-panel split
            all.push((48 + rm, 45, 16 + rn)); // m >= n: row-tile split
        }
    }
    all
}

/// Row counts at every edge of the block kernel's tile heights: one and
/// around each full tile (4, 6 and 12 rows) and a few of them stacked
/// (23–25, 63–65), the paper's table lengths (28, 31), and the two-table
/// stacked group (63) whose remainder runs a shorter tile.
const TILE_EDGE_MS: [usize; 16] = [1, 5, 6, 7, 8, 11, 12, 13, 23, 24, 25, 28, 31, 63, 64, 65];

/// Shapes for the two orientations of `matmul_nt`: every `m` crosses a
/// wide `n` (`m < n`: `Cᵀ = B · Aᵀ` over the panel padded to a multiple of
/// 8 — exact, one short and one over), a narrow `n < 8` (`m ≥ n` or the
/// tiny path) and `k = 1`; the training backward's own `dA = g · Wᵀ`
/// shapes come last, a table's and a stacked group's (`m` past the
/// 32-row chunk of the `m < n` orientation).
fn nt_shapes() -> Vec<(usize, usize, usize)> {
    let mut all = Vec::new();
    for m in TILE_EDGE_MS {
        all.extend([(m, 90, 200), (m, 37, 5), (m, 1, 70), (m, 1, 3), (m, 50, m)]);
    }
    all.extend([(28, 1200, 312), (31, 312, 1200), (64, 50, 31), (63, 1200, 312), (63, 312, 1200)]);
    all
}

const WIDTHS: &[usize] = &[1, 2, 3, 4, 7];

#[test]
fn matmul_matches_naive_at_every_width() {
    let _g = lock();
    let saved = pool::n_threads();
    for (m, k, n) in shapes() {
        let a = fill(vec![m, k], 1);
        let b = fill(vec![k, n], 2);
        let want = naive_matmul(&a, &b);
        for &w in WIDTHS {
            pool::set_threads(w);
            assert_bits_eq(&ops::matmul(&a, &b), &want, &format!("matmul {m}x{k}x{n} @{w}t"));
        }
    }
    pool::set_threads(saved);
}

#[test]
fn matmul_nt_matches_naive_at_every_width() {
    let _g = lock();
    let saved = pool::n_threads();
    for (m, k, n) in shapes().into_iter().chain(nt_shapes()) {
        let a = fill(vec![m, k], 3);
        let b = fill(vec![n, k], 4);
        let want = naive_matmul_nt(&a, &b);
        for &w in WIDTHS {
            pool::set_threads(w);
            assert_bits_eq(&ops::matmul_nt(&a, &b), &want, &format!("matmul_nt {m}x{k}x{n} @{w}t"));
        }
    }
    pool::set_threads(saved);
}

/// `(m, k, n)` for [`TILE_EDGE_MS`] against a wide `n` (every fringe
/// panel of the widest cascade, the column split) and a narrow one (the
/// row split once `m ≥ n`).
fn tile_edge_shapes() -> Vec<(usize, usize, usize)> {
    TILE_EDGE_MS.into_iter().flat_map(|m| [(m, 45, 64 + 32 + 16 + 8 + 3), (m, 37, 19)]).collect()
}

#[test]
fn tile_edges_match_naive_at_every_width() {
    // Every tile height and its remainder through each product that runs
    // the block kernel: the dense forward, the batched one (three
    // elements, each checked against its own naive product) and the int8.
    let _g = lock();
    let saved = pool::n_threads();
    for (m, k, n) in tile_edge_shapes() {
        let a = fill(vec![m, k], 21);
        let b = fill(vec![k, n], 22);
        let want = naive_matmul(&a, &b);
        let qb = fill(vec![k, n], 23).quantize_i8();
        let want_q8 = naive_matmul(&a, &qb.dequantize());
        let blocks = qb.quantized().expect("quantize_i8 yields quantized storage");
        let bs = 3;
        let (ba, bb) = (fill(vec![bs, m, k], 24), fill(vec![bs, k, n], 25));
        let slice = |t: &Tensor, i: usize, rows: usize, cols: usize| {
            let len = rows * cols;
            Tensor::from_vec(vec![rows, cols], t.data()[i * len..(i + 1) * len].to_vec())
        };
        let want_bmm: Vec<f32> = (0..bs)
            .flat_map(|i| naive_matmul(&slice(&ba, i, m, k), &slice(&bb, i, k, n)).data().to_vec())
            .collect();
        let want_bmm = Tensor::from_vec(vec![bs, m, n], want_bmm);
        for &w in WIDTHS {
            pool::set_threads(w);
            let ctx = format!("{m}x{k}x{n} @{w}t");
            assert_bits_eq(&ops::matmul(&a, &b), &want, &format!("matmul {ctx}"));
            assert_bits_eq(&ops::bmm(&ba, &bb), &want_bmm, &format!("bmm {bs}x{ctx}"));
            let mut out = vec![f32::NAN; m * n];
            ops::matmul_q8_into(a.data(), blocks, &mut out, m, k, n);
            let got = Tensor::from_vec(vec![m, n], out);
            assert_bits_eq(&got, &want_q8, &format!("matmul_q8 {ctx}"));
        }
    }
    pool::set_threads(saved);
}

#[test]
fn matmul_tn_matches_naive_at_every_width() {
    let _g = lock();
    let saved = pool::n_threads();
    for (m, k, n) in shapes().into_iter().chain(tile_edge_shapes()) {
        let a = fill(vec![k, m], 5);
        let b = fill(vec![k, n], 6);
        let want = naive_matmul_tn(&a, &b);
        for &w in WIDTHS {
            pool::set_threads(w);
            assert_bits_eq(&ops::matmul_tn(&a, &b), &want, &format!("matmul_tn {m}x{k}x{n} @{w}t"));
        }
    }
    pool::set_threads(saved);
}

/// [`fill`] with signed zeros, subnormals and the smallest normal spliced
/// in at every fifth element.
fn spiked(shape: Vec<usize>, salt: u32) -> Tensor {
    let specials = [0.0, -0.0, 1e-40, -1e-40, f32::MIN_POSITIVE, -f32::MIN_POSITIVE];
    let mut t = fill(shape, salt);
    for (i, v) in t.data_mut().iter_mut().enumerate().filter(|(i, _)| i % 5 == 0) {
        *v = specials[(i / 5 + salt as usize) % specials.len()];
    }
    t
}

#[test]
fn matmul_tn_acc_matches_ordered_tn_then_add_at_every_width() {
    // The weight-gradient reduce: `out += Σ AᵢᵀBᵢ` in one call must have
    // the bits of the naive `tn` loop per part followed by `add_assign` in
    // part order. `(m, n)` from the `nt` shape set plus the paper's FFN weights;
    // 1–4 parts of unequal `k` (one of them a single row); the output
    // seeded with spiked values and with all `-0.0`.
    let _g = lock();
    let saved = pool::n_threads();
    let ks = [31usize, 1, 28, 17];
    let mut dims: Vec<(usize, usize)> = nt_shapes().into_iter().map(|(m, _, n)| (m, n)).collect();
    dims.extend([(312, 1200), (1200, 312)]);
    dims.sort_unstable();
    dims.dedup();
    for (m, n) in dims {
        let operands: Vec<(Tensor, Tensor)> = ks
            .iter()
            .enumerate()
            .map(|(i, &k)| (spiked(vec![k, m], 20 + i as u32), spiked(vec![k, n], 30 + i as u32)))
            .collect();
        for n_parts in 0..=ks.len() {
            let parts: Vec<(&[f32], &[f32])> =
                operands[..n_parts].iter().map(|(a, b)| (a.data(), b.data())).collect();
            for seed in [spiked(vec![m, n], 40), Tensor::full(vec![m, n], -0.0)] {
                pool::set_threads(1);
                let mut want = seed.clone();
                for (a, b) in &operands[..n_parts] {
                    want.add_assign(&naive_matmul_tn(a, b));
                }
                if n_parts == 0 {
                    assert_bits_eq(&want, &seed, "no parts leave the output untouched");
                }
                for &w in WIDTHS {
                    pool::set_threads(w);
                    let mut got = seed.clone();
                    ops::matmul_tn_acc_into(got.data_mut(), m, n, &parts);
                    assert_bits_eq(&got, &want, &format!("tn_acc {m}x{n}, {n_parts} parts @{w}t"));
                }
            }
        }
    }
    pool::set_threads(saved);
}

#[test]
fn batched_kernels_match_per_slice_serial_at_every_width() {
    let _g = lock();
    let saved = pool::n_threads();
    // batch sizes around and above typical head counts, incl. bs > width
    // and bs = 1 (no parallelism available).
    for &(bs, m, k, n) in
        &[(1usize, 1usize, 1usize, 1usize), (3, 5, 4, 6), (8, 17, 9, 11), (5, 31, 2, 3)]
    {
        let a = fill(vec![bs, m, k], 7);
        let b_nn = fill(vec![bs, k, n], 8);
        let b_nt = fill(vec![bs, n, k], 9);
        let a_tn = fill(vec![bs, k, m], 10);
        // reference: run each batch slice through the (already verified)
        // 2-D kernels serially at width 1
        pool::set_threads(1);
        let slice = |t: &Tensor, i: usize, rows: usize, cols: usize| {
            let start = i * rows * cols;
            Tensor::from_vec(vec![rows, cols], t.data()[start..start + rows * cols].to_vec())
        };
        let mut want_nn = Vec::new();
        let mut want_nt = Vec::new();
        let mut want_tn = Vec::new();
        for i in 0..bs {
            want_nn
                .extend_from_slice(ops::matmul(&slice(&a, i, m, k), &slice(&b_nn, i, k, n)).data());
            want_nt.extend_from_slice(
                ops::matmul_nt(&slice(&a, i, m, k), &slice(&b_nt, i, n, k)).data(),
            );
            want_tn.extend_from_slice(
                ops::matmul_tn(&slice(&a_tn, i, k, m), &slice(&b_nn, i, k, n)).data(),
            );
        }
        let want_nn = Tensor::from_vec(vec![bs, m, n], want_nn);
        let want_nt = Tensor::from_vec(vec![bs, m, n], want_nt);
        let want_tn = Tensor::from_vec(vec![bs, m, n], want_tn);
        for &w in WIDTHS {
            pool::set_threads(w);
            let ctx = format!("bmm {bs}x{m}x{k}x{n} @{w}t");
            assert_bits_eq(&ops::bmm(&a, &b_nn), &want_nn, &ctx);
            assert_bits_eq(&ops::bmm_nt(&a, &b_nt), &want_nt, &ctx);
            assert_bits_eq(&ops::bmm_tn(&a_tn, &b_nn), &want_tn, &ctx);
        }
    }
    pool::set_threads(saved);
}

#[test]
fn matmul_q8_matches_naive_over_dequantized_at_every_width() {
    let _g = lock();
    let saved = pool::n_threads();
    for (m, k, n) in shapes() {
        let a = fill(vec![m, k], 13);
        let qb = fill(vec![k, n], 14).quantize_i8();
        let want = naive_matmul(&a, &qb.dequantize());
        let blocks = qb.quantized().expect("quantize_i8 yields quantized storage");
        for &w in WIDTHS {
            pool::set_threads(w);
            let mut out = vec![f32::NAN; m * n];
            ops::matmul_q8_into(a.data(), blocks, &mut out, m, k, n);
            let got = Tensor::from_vec(vec![m, n], out);
            assert_bits_eq(&got, &want, &format!("matmul_q8 {m}x{k}x{n} @{w}t"));
        }
    }
    pool::set_threads(saved);
}

#[test]
fn bias_gelu_parallel_matches_serial_at_every_width() {
    let _g = lock();
    let saved = pool::n_threads();
    // below and above the fan-out threshold; fewer rows than workers; the
    // paper FFN activation at 28 rows
    for &(rows, d) in &[(1usize, 1usize), (3, 5), (2, 600), (5, 257), (28, 1200)] {
        let x = fill(vec![rows, d], 15);
        let bias = fill(vec![d], 16);
        let want: Vec<f32> =
            (0..rows * d).map(|i| ops::gelu_fwd(x.data()[i] + bias.data()[i % d])).collect();
        let want = Tensor::from_vec(vec![rows, d], want);
        for &w in WIDTHS {
            pool::set_threads(w);
            let mut got = x.clone();
            ops::bias_gelu_inplace(got.data_mut(), bias.data());
            assert_bits_eq(&got, &want, &format!("bias_gelu {rows}x{d} @{w}t"));
        }
    }
    pool::set_threads(saved);
}

#[test]
fn width_larger_than_rows_is_safe() {
    let _g = lock();
    let saved = pool::n_threads();
    pool::set_threads(16);
    let a = fill(vec![2, 300], 11);
    let b = fill(vec![300, 2], 12);
    assert_bits_eq(&ops::matmul(&a, &b), &naive_matmul(&a, &b), "2 rows @16t");
    pool::set_threads(saved);
}
