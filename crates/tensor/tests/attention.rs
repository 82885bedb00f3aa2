//! `Graph::attention`, the one tape node a layer's multi-head attention
//! records, against the op chain it stands for: per table a row slice
//! (when several tables are stacked), the head split (reshape, permute),
//! `bmm_nt`, `scale`, the additive visibility mask, `softmax_last`, the
//! dropout multiply, `bmm`, the merge (permute, reshape), and the row
//! concatenation of the tables. The forward output and the gradients of
//! q, k and v must have the chain's bits, whatever the heads, the table
//! sizes, the mask or the dropout.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use turl_tensor::{normal_init, AttentionTable, Graph, Tensor, Var};

/// One table of a case: its rows, whether it has a mask (with
/// `masked_row` fully masked), and whether dropout draws a keep-mask.
#[derive(Clone, Copy)]
struct Table {
    n: usize,
    mask: bool,
    masked_row: Option<usize>,
    dropout: bool,
}

fn table(n: usize, mask: bool, dropout: bool) -> Table {
    Table { n, mask, masked_row: None, dropout }
}

/// The inputs of a case, drawn from `seed`: stacked q, k, v, the upstream
/// gradient (with some `-0.0` and `+0.0` entries), and per table its mask
/// and keep-mask.
struct Inputs {
    qkv: [Tensor; 3],
    upstream: Tensor,
    masks: Vec<Option<Tensor>>,
    keeps: Vec<Option<Tensor>>,
}

fn inputs(tables: &[Table], d: usize, heads: usize, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: usize = tables.iter().map(|t| t.n).sum();
    let qkv = [0, 1, 2].map(|_| normal_init(&mut rng, vec![rows, d], 0.0, 1.0));
    let mut upstream = normal_init(&mut rng, vec![rows, d], 0.0, 1.0);
    for (i, x) in upstream.data_mut().iter_mut().enumerate() {
        match i % 11 {
            3 => *x = -0.0,
            7 => *x = 0.0,
            _ => {}
        }
    }
    let masks = (tables.iter())
        .map(|t| {
            t.mask.then(|| {
                let n = t.n;
                let mut m = Tensor::zeros(vec![n, n]);
                for i in 0..n {
                    for j in 0..n {
                        let hidden = i != j && rng.gen::<f32>() < 0.4;
                        if hidden || t.masked_row == Some(i) {
                            m.data_mut()[i * n + j] = -1e9;
                        }
                    }
                }
                m
            })
        })
        .collect();
    let keeps = (tables.iter())
        .map(|t| {
            t.dropout.then(|| {
                let len = heads * t.n * t.n;
                let keep = (0..len).map(|_| if rng.gen::<f32>() < 0.9 { 1.0 / 0.9 } else { 0.0 });
                Tensor::from_vec(vec![heads, t.n, t.n], keep.collect())
            })
        })
        .collect();
    Inputs { qkv, upstream, masks, keeps }
}

/// `(output, [dq, dk, dv])` of one tape over `x`, its loss `Σ out ⊙
/// upstream` (so the gradient reaching the attention output is exactly
/// `upstream`), the attention recorded by `attend`.
fn run(
    x: &Inputs,
    attend: impl FnOnce(&mut Graph, [Var; 3], &[Option<Var>]) -> Var,
) -> (Tensor, [Tensor; 3]) {
    let mut g = Graph::new();
    let qkv = x.qkv.clone().map(|t| g.leaf(t, true));
    let masks: Vec<Option<Var>> =
        x.masks.iter().map(|m| m.as_ref().map(|m| g.constant(m.clone()))).collect();
    let out = attend(&mut g, qkv, &masks);
    let w = g.constant(x.upstream.clone());
    let weighted = g.mul(out, w);
    let loss = g.sum_all(weighted);
    let value = g.value(out).clone();
    g.backward(loss);
    (value, qkv.map(|v| g.grad(v).expect("q, k, v get a gradient").clone()))
}

/// The unfused chain: what the tape recorded per table before the fused
/// node.
fn chain(x: &Inputs, tables: &[Table], heads: usize, scale: f32) -> (Tensor, [Tensor; 3]) {
    run(x, |g, [q, k, v], masks| {
        let d = x.qkv[0].shape()[1];
        let dh = d / heads;
        let mut start = 0;
        let mut flats = Vec::new();
        for (s, t) in tables.iter().enumerate() {
            let n = t.n;
            let rows: Vec<usize> = (start..start + n).collect();
            start += n;
            let split = |g: &mut Graph, x: Var| {
                let x = if tables.len() > 1 { g.index_select0(x, &rows) } else { x };
                let r = g.reshape(x, vec![n, heads, dh]);
                g.permute(r, &[1, 0, 2])
            };
            let (qh, kh, vh) = (split(g, q), split(g, k), split(g, v));
            let scores = g.bmm_nt(qh, kh);
            let scaled = g.scale(scores, scale);
            let logits = match masks[s] {
                Some(m) => g.add(scaled, m),
                None => scaled,
            };
            let mut probs = g.softmax_last(logits);
            if let Some(keep) = &x.keeps[s] {
                let keep = g.constant(keep.clone());
                probs = g.mul(probs, keep);
            }
            let ctx = g.bmm(probs, vh);
            let merged = g.permute(ctx, &[1, 0, 2]);
            flats.push(g.reshape(merged, vec![n, d]));
        }
        if flats.len() > 1 {
            g.concat_rows(&flats)
        } else {
            flats[0]
        }
    })
}

/// The fused node over the same inputs.
fn fused(x: &Inputs, tables: &[Table], heads: usize, scale: f32) -> (Tensor, [Tensor; 3]) {
    run(x, |g, qkv, masks| {
        let mut start = 0;
        let stack = (tables.iter().zip(masks).zip(&x.keeps))
            .map(|((t, &mask), keep)| {
                start += t.n;
                AttentionTable { rows: start - t.n..start, mask, keep: keep.clone() }
            })
            .collect();
        g.attention(qkv, heads, scale, stack)
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// The fused node and the chain agree bit for bit on `tables`.
fn assert_same_bits(tables: &[Table], d: usize, heads: usize, seed: u64) {
    let x = inputs(tables, d, heads, seed);
    let scale = 1.0f32 / ((d / heads) as f32).sqrt();
    let (want, want_grads) = chain(&x, tables, heads, scale);
    let (got, got_grads) = fused(&x, tables, heads, scale);
    let sizes: Vec<usize> = tables.iter().map(|t| t.n).collect();
    assert_eq!(bits(&got), bits(&want), "forward, tables {sizes:?}, {heads} heads");
    for (name, (got, want)) in ["dq", "dk", "dv"].iter().zip(got_grads.iter().zip(&want_grads)) {
        assert_eq!(bits(got), bits(want), "{name}, tables {sizes:?}, {heads} heads");
    }
}

#[test]
fn one_head() {
    assert_same_bits(&[table(9, true, true)], 12, 1, 1);
}

#[test]
fn a_one_row_table() {
    assert_same_bits(&[table(1, true, true)], 12, 3, 2);
    assert_same_bits(
        &[table(5, true, false), table(1, true, true), table(3, false, true)],
        12,
        3,
        3,
    );
}

#[test]
fn a_fully_masked_row_degrades_to_uniform() {
    let masked = Table { masked_row: Some(2), ..table(7, true, false) };
    assert_same_bits(&[masked], 12, 2, 4);
    assert_same_bits(&[table(4, true, true), Table { dropout: true, ..masked }], 12, 2, 5);
    // The row's weights are the uniform 1/n: every logit is the penalty
    // plus scores far below its spacing.
    let x = inputs(&[masked], 12, 2, 4);
    let mut g = Graph::new();
    let qkv = x.qkv.clone().map(|t| g.constant(t));
    let mask = Some(g.constant(x.masks[0].clone().expect("masked")));
    let stack = vec![AttentionTable { rows: 0..7, mask, keep: None }];
    let out = g.attention(qkv, 2, 0.5, stack);
    let v = &x.qkv[2];
    for c in 0..12 {
        let mean = (0..7).map(|j| v.at2(j, c)).sum::<f32>() / 7.0;
        assert!((g.value(out).at2(2, c) - mean).abs() < 1e-5, "column {c}");
    }
}

#[test]
fn without_a_mask() {
    assert_same_bits(&[table(8, false, false)], 12, 4, 6);
    assert_same_bits(&[table(8, false, true), table(3, false, false)], 12, 4, 7);
}

#[test]
fn dropout_on_and_off() {
    for dropout in [false, true] {
        assert_same_bits(&[table(11, true, dropout)], 16, 4, 8);
        assert_same_bits(&[table(6, true, dropout), table(10, true, dropout)], 16, 4, 9);
    }
}

#[test]
fn one_to_four_stacked_tables_of_unequal_rows() {
    let sizes = [13, 5, 21, 8];
    for count in 1..=4 {
        let tables: Vec<Table> =
            sizes[..count].iter().enumerate().map(|(i, &n)| table(n, i != 2, i % 2 == 0)).collect();
        assert_same_bits(&tables, 24, 3, 10 + count as u64);
    }
}

#[test]
fn the_paper_shape() {
    // d = 312 in 12 heads of 26: a head is not a whole number of SIMD
    // lanes, so the strided reads and the windowed writes run the block
    // kernel's fringe columns, and 46 rows its remainder tiles.
    assert_same_bits(&[table(28, true, true), table(46, true, true)], 312, 12, 12);
}
