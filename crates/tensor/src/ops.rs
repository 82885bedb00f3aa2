//! Matrix-multiplication and fused forward-plan kernels.
//!
//! Three 2-D matmul layouts are provided so that autograd backward passes
//! never materialize transposed operands:
//!
//! * [`matmul`]    — `C = A · B`
//! * [`matmul_nt`] — `C = A · Bᵀ` (the smaller operand is transposed into a
//!   scratch panel, then the product runs through the same block kernel as
//!   `matmul`: as `A · (Bᵀ)` when `m ≥ n`, as `Cᵀ = B · Aᵀ` when `m < n`)
//! * [`matmul_tn`] — `C = Aᵀ · B` (the same block kernel reading `A`
//!   k-major, so both operand loads are contiguous and `C` is written once)
//!
//! plus [`matmul_tn_acc_into`] — `C += A₀ᵀ · B₀ + A₁ᵀ · B₁ + …` in place,
//! the layout of a weight gradient summed over a batch's tables.
//!
//! All of them — and [`matmul_q8_into`], whose `B` is dequantized in
//! register — run one block kernel (`block`) over a rows × columns
//! rectangle of the output. It is register-tiled: an `R × W` accumulator
//! block (`R` ≤ `MR` rows, so the `m mod 4` remainder runs at vector
//! rate too) lives in registers across the whole `k` loop, and column
//! panels are walked outermost so a `B` panel is fetched from beyond L1
//! once and reused by every row tile. On x86-64 the same source body is
//! compiled three times — for the baseline, with AVX2 and with AVX-512F
//! enabled — and the widest the CPU has is picked at run time
//! ([`kernel_body`] names it). The panel width `W` belongs to the pair
//! (compiled body, product), each chosen by measurement (DESIGN §5f):
//! 16 columns everywhere except the f32 products under AVX-512, which run
//! 4 × 64 tiles; the int8 product keeps 16 there (a 32-wide fragment's
//! `i8 → f32` convert costs more than the wider multiply saves). What
//! depends on `W` follows the product's own width: the fringe cascade
//! (`W`, `W/2`, … down to 8 columns, then single columns) and the unit a
//! column split is cut in.
//!
//! The numeric contract (DESIGN §5f), named by [`NUMERICS`]: every
//! product element is one accumulator that starts at `+0.0` and takes one
//! fused multiply-add per step, `acc = a.mul_add(b, acc)` with a single
//! rounding, in ascending `k`; SIMD lanes run across `n`, never across
//! `k`. (The accumulating kernel adds each such product to the output
//! element, one plain f32 add per part, in part order.) Results are
//! therefore bit-identical to the naive triple loop written with
//! `mul_add` for every tile shape, every [`crate::pool`] split (column
//! panels when `m < n`, row tiles otherwise) and all three compiled
//! bodies — the invariant the parallel-vs-serial equivalence tests pin
//! down. AVX2 and AVX-512F bodies issue `vfmadd`; the portable body's
//! `mul_add` is native `fmla` on aarch64 but, compiled for x86-64's
//! baseline, a call to the runtime's correctly rounded `fmaf` per step
//! (same bits, tens of times slower; only a CPU without AVX2 and FMA runs
//! it).
//!
//! The batched variants ([`bmm`], [`bmm_nt`], [`bmm_tn`]) parallelize over
//! the batch (attention-head) dimension instead, so multi-head attention
//! scales with the number of heads.
//!
//! The second half of this module is the kernel library of both
//! executors: allocation-free `*_into` kernels writing into a caller-
//! provided slice (an arena span for `turl-exec`, a fresh `Tensor` buffer
//! for the autograd tape), plus the fused kernels — [`fused_layer_norm`],
//! [`fused_mask_softmax`], [`bias_gelu_inplace`] — that collapse an op
//! chain into one pass. Each op has one loop, here; the fused kernels are
//! reassociation-free, so fused and unfused chains agree bit for bit.
//!
//! Every `tanh` — the tape's `tanh` and GELU, the fused GELU epilogue —
//! runs one elementwise pass ([`tanh_into`], [`gelu_tanh_into`],
//! [`gelu`]) over a branch-free port of glibc's `tanhf`, compiled per
//! body like the block kernel and bit-identical to `tanhf` on all 2³²
//! inputs (the `tanh` submodule).

use crate::dtype::{QuantBlocks, QBLOCK, QBLOCK_SHIFT};
use crate::pool;
use crate::tensor::Tensor;
use std::array::from_fn;
use std::marker::PhantomData;
use std::ops::Range;

/// Time one kernel invocation under a lazily registered op slot.
/// Expands to an RAII guard binding; costs one atomic load when
/// metrics are disabled (no `--metrics-out`).
macro_rules! profiled {
    ($name:literal) => {{
        static ID: std::sync::OnceLock<Option<turl_obs::OpId>> = std::sync::OnceLock::new();
        turl_obs::op_timer(*ID.get_or_init(|| turl_obs::register_op($name)))
    }};
}

mod tanh;
pub use tanh::{gelu, gelu_fwd, gelu_grad, gelu_tanh, gelu_tanh_into, tanh_into};

/// Rows per full register tile of the block kernel, under every body and
/// product. Measured, not assumed (DESIGN §5f): with eight rows per step
/// LLVM stops holding the tile in registers — 8×32 and 8×16 under AVX-512
/// run at ~2 GMAC/s, a seventeenth of the 4-row rate, 8×16 under AVX2 at
/// 0.6× — so a taller tile needs `Lhs::steps` restructured first.
const MR: usize = 4;
/// The narrowest multi-column panel: every body's fringe cascade halves
/// the panel width down to this, and only what is left runs one column at
/// a time.
const MIN_PANEL: usize = 8;
/// Minimum volume, in multiply-adds, before a kernel fans out to the pool.
const PAR_MIN_VOLUME: usize = 32 * 1024;
/// What one GELU of the `tanh` pass costs in block-kernel multiply-adds,
/// to weigh [`bias_gelu_inplace`] against [`PAR_MIN_VOLUME`]. Measured
/// (DESIGN §5f), one thread: 2.09 ns per GELU against 0.0415 ns per MAC
/// under AVX-512 (50); AVX2 and portable cost ~95 of their own MACs, so
/// there the fan-out comes later than break-even, never earlier.
const TANH_MACS: usize = 50;
/// Below this `m * n` output volume, `matmul_nt` keeps the row-dot-product
/// path: a transpose panel would cost more than it saves.
const NT_TRANSPOSE_MIN_OUT: usize = 64;
/// The swapped `nt` orientation pads `m` to whole [`MIN_PANEL`]-wide column
/// panels of the block kernel, so none of `A`'s rows runs as a single
/// column under any body.
const NT_PAD: usize = MIN_PANEL;

/// `C[m,n] = A[m,k] · B[k,n]`.
///
/// Dispatches on the rhs dtype: a block-quantized `B` runs through
/// [`matmul_q8_into`] (dequant-in-register), which is bit-identical to
/// the f32 kernel over `B.dequantize()`. A quantized lhs is dequantized
/// up front (activations are never quantized in practice; this keeps the
/// op total).
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let _t = profiled!("matmul");
    assert_eq!(a.rank(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.rank(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dims: {:?} x {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros(vec![m, n]);
    let a_dense = a.as_f32().is_none().then(|| a.dequantize());
    let a_slice = a_dense.as_ref().map_or_else(|| a.data(), |t| t.data());
    match b.quantized() {
        Some(q) => matmul_q8_into(a_slice, q, out.data_mut(), m, k, n),
        None => gemm_dense::<RowMajor>(a_slice, b.data(), out.data_mut(), m, k, n),
    }
    out
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ`.
///
/// Large problems transpose the operand with fewer rows into a scratch
/// panel and run the block kernel of `matmul` (see [`matmul_nt_into`]);
/// tiny ones keep the direct row-dot-product path. All accumulate each
/// output element in ascending-`k` order, so the paths are bit-identical
/// to each other and to `matmul(a, bᵀ)`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let _t = profiled!("matmul_nt");
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, k2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_nt inner dims: {:?} x {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros(vec![m, n]);
    // The nt layout has no blocked fast path (a quantized B's row-aligned
    // blocks run along k here); dequantize up front — bit-identical to
    // matmul_nt over B.dequantize() by construction.
    let a_dense = a.as_f32().is_none().then(|| a.dequantize());
    let a_slice = a_dense.as_ref().map_or_else(|| a.data(), |t| t.data());
    let b_dense = b.as_f32().is_none().then(|| b.dequantize());
    let b_slice = b_dense.as_ref().map_or_else(|| b.data(), |t| t.data());
    let mut scratch = Tensor::zeros(vec![matmul_nt_scratch_len(m, k, n)]);
    gemm_nt(a_slice, b_slice, out.data_mut(), scratch.data_mut(), m, k, n);
    out
}

/// `C[m,n] = A[k,m]ᵀ · B[k,n]`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let _t = profiled!("matmul_tn");
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_tn inner dims: {:?} x {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros(vec![m, n]);
    gemm_dense::<KMajor>(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// Batched `C[b,m,n] = A[b,m,k] · B[b,k,n]`.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    let _t = profiled!("bmm");
    assert_eq!(a.rank(), 3, "bmm lhs must be 3-D");
    assert_eq!(b.rank(), 3, "bmm rhs must be 3-D");
    let (bs, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let (bs2, k2, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
    assert_eq!(bs, bs2, "bmm batch dims differ");
    assert_eq!(k, k2, "bmm inner dims: {:?} x {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros(vec![bs, m, n]);
    par_batch::<RowMajor>(a.data(), b.data(), out.data_mut(), bs, m, k, n);
    out
}

/// Batched `C[b,m,n] = A[b,m,k] · B[b,n,k]ᵀ`.
///
/// Every batch element's `B` is pre-transposed into one shared scratch
/// buffer, after which the batch runs through the plain `bmm` kernel —
/// same ascending-`k` order, so bit-identical to the direct dot-product
/// formulation at any thread count.
pub fn bmm_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let _t = profiled!("bmm_nt");
    assert_eq!(a.rank(), 3);
    assert_eq!(b.rank(), 3);
    let (bs, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let (bs2, n, k2) = (b.shape()[0], b.shape()[1], b.shape()[2]);
    assert_eq!(bs, bs2, "bmm_nt batch dims differ");
    assert_eq!(k, k2, "bmm_nt inner dims: {:?} x {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros(vec![bs, m, n]);
    let scratch_len = if bs * m * n < NT_TRANSPOSE_MIN_OUT { 0 } else { bs * k * n };
    let mut scratch = Tensor::zeros(vec![scratch_len]);
    par_batch_nt(a.data(), b.data(), out.data_mut(), scratch.data_mut(), bs, m, k, n);
    out
}

/// Batched `C[b,m,n] = A[b,k,m]ᵀ · B[b,k,n]`.
pub fn bmm_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let _t = profiled!("bmm_tn");
    assert_eq!(a.rank(), 3);
    assert_eq!(b.rank(), 3);
    let (bs, k, m) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let (bs2, k2, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
    assert_eq!(bs, bs2, "bmm_tn batch dims differ");
    assert_eq!(k, k2, "bmm_tn inner dims: {:?} x {:?}", a.shape(), b.shape());
    let mut out = Tensor::zeros(vec![bs, m, n]);
    par_batch::<KMajor>(a.data(), b.data(), out.data_mut(), bs, m, k, n);
    out
}

// ---------------------------------------------------------------------
// Operands and output of the block kernel
// ---------------------------------------------------------------------

/// How the block kernel reads `A[i, kk]` of an `m × k` left operand.
trait Lhs<'a>: Copy + Sync {
    /// View `a` (`m * k` elements in this layout) as the left operand.
    fn new(a: &'a [f32], m: usize, k: usize) -> Self;
    /// `[A[i0, kk], …, A[i0 + R - 1, kk]]` for `kk` ascending over `0..k`.
    fn steps<const R: usize>(self, i0: usize) -> impl Iterator<Item = [f32; R]>;
}

/// `A` stored `[m, k]` row-major (`matmul`, `matmul_nt`, `matmul_q8`).
#[derive(Clone, Copy)]
struct RowMajor<'a> {
    a: &'a [f32],
    k: usize,
}

impl<'a> Lhs<'a> for RowMajor<'a> {
    fn new(a: &'a [f32], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "matmul lhs size");
        Self { a, k }
    }
    #[inline(always)]
    fn steps<const R: usize>(self, i0: usize) -> impl Iterator<Item = [f32; R]> {
        let rows: [&[f32]; R] = from_fn(|r| &self.a[(i0 + r) * self.k..][..self.k]);
        (0..self.k).map(move |kk| from_fn(|r| rows[r][kk]))
    }
}

/// `A` stored `[k, m]` (`matmul_tn`): the `R` values of one step are
/// adjacent in memory.
#[derive(Clone, Copy)]
struct KMajor<'a> {
    a: &'a [f32],
    m: usize,
}

impl<'a> Lhs<'a> for KMajor<'a> {
    fn new(a: &'a [f32], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "matmul_tn lhs size");
        Self { a, m }
    }
    #[inline(always)]
    fn steps<const R: usize>(self, i0: usize) -> impl Iterator<Item = [f32; R]> {
        self.a.chunks_exact(self.m).map(move |row| {
            let vals = &row[i0..i0 + R];
            from_fn(|r| vals[r])
        })
    }
}

/// How the block kernel obtains the `W`-wide fragment `B[kk, j0..j0 + W]`
/// of a `k × n` right operand.
trait Rhs: Copy + Sync {
    /// Columns per full register tile of a product over this operand when
    /// `body` runs it — measured per body (DESIGN §5f), a power of two
    /// between [`MIN_PANEL`] and 64.
    fn nr(body: Body) -> usize;
    /// The fragments at column `j0` for `kk` ascending over `0..k`.
    fn steps<const W: usize>(self, j0: usize) -> impl Iterator<Item = [f32; W]>;
}

/// Dense `B` stored `[k, n]` row-major.
#[derive(Clone, Copy)]
struct F32<'a> {
    b: &'a [f32],
    n: usize,
}

impl<'a> F32<'a> {
    fn new(b: &'a [f32], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "matmul rhs size");
        Self { b, n }
    }
}

impl Rhs for F32<'_> {
    /// 4×16 at 8 lanes: two vectors per tile row, one whole cache line of
    /// `B` per `k` step. 4×64 at 16 lanes: four vectors per row, sixteen
    /// independent fused multiply-adds per step against 4×32's eight,
    /// 17–25 % faster on the forward shapes (DESIGN §5f).
    #[inline(always)]
    fn nr(body: Body) -> usize {
        match body {
            Body::Avx512 => 64,
            Body::Avx2 | Body::Portable => 16,
        }
    }
    #[inline(always)]
    fn steps<const W: usize>(self, j0: usize) -> impl Iterator<Item = [f32; W]> {
        self.b.chunks_exact(self.n).map(move |row| {
            let vals = &row[j0..j0 + W];
            from_fn(|c| vals[c])
        })
    }
}

/// Block-quantized `B`, dequantized in register: `q as f32 * scale` right
/// before the multiply, which is exactly `dequantize()`'s value. The
/// kernel's fragments start at a multiple of their width `W`, and every
/// `W` this operand's panel width lets the cascade reach divides `QBLOCK`
/// (asserted; the wider panels of other products are compiled here too,
/// but never run), so a fragment never straddles two quant blocks — one
/// scale per step.
impl Rhs for &QuantBlocks {
    /// 16 under every body: the widening `i8 → f32` convert of a 32-wide
    /// fragment costs far more than the wider multiply saves (4×32 ran
    /// 4.6× slower than 4×16 under AVX-512, 3× under AVX2), while one
    /// 16-lane vector per row is 1.2× faster than AVX2's two.
    #[inline(always)]
    fn nr(_body: Body) -> usize {
        16
    }
    #[inline(always)]
    fn steps<const W: usize>(self, j0: usize) -> impl Iterator<Item = [f32; W]> {
        assert!(QBLOCK.is_multiple_of(W), "a {W}-wide fragment straddles quant blocks");
        let blk = j0 >> QBLOCK_SHIFT;
        let scales = self.scales().chunks_exact(self.blocks_per_row());
        self.quants().chunks_exact(self.cols()).zip(scales).map(move |(row, srow)| {
            let (vals, scale) = (&row[j0..j0 + W], srow[blk]);
            from_fn(|c| vals[c] as f32 * scale)
        })
    }
}

/// The output matrix as the block kernel sees it: a raw base pointer and
/// the row stride `n`, copied into every pool task of one call.
///
/// Disjointness, stated once for every `unsafe` below: a call partitions
/// `out[m,n]` into rectangles (one per task: a row range × a column
/// range) and each rectangle into register tiles, and a tile touches
/// exactly its own `R × W` cells: it writes them through
/// [`OutPtr::store`], and an accumulating tile ([`Accumulate`]) first
/// reads those same cells through [`OutPtr::load`] — nothing else is
/// ever read through the pointer. No two tiles share a cell, so
/// concurrent tasks never touch the same memory even when a column split
/// interleaves their cells inside one row, and no `&mut [f32]` over the
/// output is usable meanwhile: the `'a` borrow keeps the caller's slice
/// frozen until the last copy of the `OutPtr` is gone, which is after
/// `parallel_for` has joined.
#[derive(Clone, Copy)]
struct OutPtr<'a> {
    base: *mut f32,
    len: usize,
    n: usize,
    _out: PhantomData<&'a mut [f32]>,
}

// SAFETY: the pointee is plain `f32` memory that outlives `'a`, and tasks
// sharing an `OutPtr` read and write disjoint cells (type docs).
unsafe impl Send for OutPtr<'_> {}
unsafe impl Sync for OutPtr<'_> {}

impl<'a> OutPtr<'a> {
    fn new(out: &'a mut [f32], m: usize, n: usize) -> Self {
        assert_eq!(out.len(), m * n, "matmul out size");
        Self { base: out.as_mut_ptr(), len: out.len(), n, _out: PhantomData }
    }

    /// The `i`-th `[m, n]` matrix of a batched output.
    fn batch(self, i: usize, m: usize) -> Self {
        let (start, len) = (i * m * self.n, m * self.n);
        assert!(start + len <= self.len, "bmm out size");
        Self { base: self.base.wrapping_add(start), len, ..self }
    }

    /// Write `vals` to `out[i, j..j + W]` (bounds-checked).
    ///
    /// # Safety
    /// No other task or tile may access those cells (type docs).
    #[inline(always)]
    unsafe fn store<const W: usize>(self, i: usize, j: usize, vals: [f32; W]) {
        assert!(j + W <= self.n && (i + 1) * self.n <= self.len, "tile outside the output");
        // SAFETY: in bounds by the assert, `f32`-aligned, and exclusively
        // this tile's cells by the caller's contract.
        unsafe { self.base.add(i * self.n + j).cast::<[f32; W]>().write(vals) }
    }

    /// Read `out[i, j..j + W]` (bounds-checked).
    ///
    /// # Safety
    /// No other task or tile may access those cells (type docs).
    #[inline(always)]
    unsafe fn load<const W: usize>(self, i: usize, j: usize) -> [f32; W] {
        assert!(j + W <= self.n && (i + 1) * self.n <= self.len, "tile outside the output");
        // SAFETY: in bounds by the assert, `f32`-aligned, initialised (the
        // pointer came from a `&mut [f32]`), and exclusively this tile's
        // cells by the caller's contract.
        unsafe { self.base.add(i * self.n + j).cast::<[f32; W]>().read() }
    }
}

// ---------------------------------------------------------------------
// The block kernel
// ---------------------------------------------------------------------

/// What one register tile of the block kernel holds when it is stored:
/// a plain product `A · B`, or the output's own cells plus a sum of
/// products ([`Accumulate`]).
trait Product: Copy + Sync {
    /// Columns per full register tile under `body` (see [`Rhs::nr`]).
    fn nr(body: Body) -> usize;
    /// The `R × W` values of `out` at `(i0, j0)`.
    fn tile<const R: usize, const W: usize>(
        self,
        out: OutPtr,
        i0: usize,
        j0: usize,
    ) -> [[f32; W]; R];
}

/// `A · B`: the accumulators start at `+0.0`, stay in registers across the
/// whole `k` loop and take one fused multiply-add per step, lanes running
/// across columns.
impl<'a, A: Lhs<'a>, B: Rhs> Product for (A, B) {
    #[inline(always)]
    fn nr(body: Body) -> usize {
        B::nr(body)
    }
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(
        self,
        _out: OutPtr,
        i0: usize,
        j0: usize,
    ) -> [[f32; W]; R] {
        let mut acc = [[0.0f32; W]; R];
        for (av, bv) in self.0.steps::<R>(i0).zip(self.1.steps::<W>(j0)) {
            for r in 0..R {
                for c in 0..W {
                    acc[r][c] = av[r].mul_add(bv[c], acc[r][c]);
                }
            }
        }
        acc
    }
}

/// `out + A₀ · B₀ + A₁ · B₁ + …`, added left to right: the tile starts
/// from the output's own cells and adds each part's product — itself one
/// accumulator from `+0.0` in ascending `k`, exactly the `(A, B)` tile —
/// in slice order. Per element that is the arithmetic of computing every
/// `Aᵢ · Bᵢ` into a tensor of its own and adding those tensors to `out`
/// one after the other; only the tensors never exist.
#[derive(Clone, Copy)]
struct Accumulate<'p, A, B>(&'p [(A, B)]);

impl<'a, A: Lhs<'a>, B: Rhs> Product for Accumulate<'_, A, B> {
    #[inline(always)]
    fn nr(body: Body) -> usize {
        B::nr(body)
    }
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(
        self,
        out: OutPtr,
        i0: usize,
        j0: usize,
    ) -> [[f32; W]; R] {
        // SAFETY: the cells belong to this tile alone (`OutPtr` docs).
        let mut acc: [[f32; W]; R] = from_fn(|r| unsafe { out.load(i0 + r, j0) });
        for &part in self.0 {
            let t = part.tile::<R, W>(out, i0, j0);
            for r in 0..R {
                for c in 0..W {
                    acc[r][c] += t[r][c];
                }
            }
        }
        acc
    }
}

/// One `R × W` register tile of `out` at `(i0, j0)`, computed and stored.
#[inline(always)]
fn tile<const R: usize, const W: usize, P: Product>(p: P, out: OutPtr, i0: usize, j0: usize) {
    for (r, vals) in p.tile::<R, W>(out, i0, j0).into_iter().enumerate() {
        // SAFETY: the cells belong to this tile alone (`OutPtr` docs).
        unsafe { out.store(i0 + r, j0, vals) };
    }
}

/// All row tiles of one `W`-wide column panel: full `MR`-row tiles, then
/// the `rows mod MR` remainder as one shorter tile at the same vector rate.
#[inline(always)]
fn panel<const W: usize, P: Product>(p: P, out: OutPtr, rows: &Range<usize>, j0: usize) {
    let mut i0 = rows.start;
    while i0 + MR <= rows.end {
        tile::<MR, W, P>(p, out, i0, j0);
        i0 += MR;
    }
    match rows.end - i0 {
        3 => tile::<3, W, P>(p, out, i0, j0),
        2 => tile::<2, W, P>(p, out, i0, j0),
        1 => tile::<1, W, P>(p, out, i0, j0),
        _ => {}
    }
}

/// One compilation of a [`Compiled`] kernel ([`block`], the `tanh`
/// pass): the vector width its loops are lowered to, and with it the
/// register tile each product runs ([`Rhs::nr`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Body {
    /// 16 lanes per vector (`avx512f`).
    Avx512,
    /// 8 lanes per vector (`avx2` with `fma`).
    Avx2,
    /// The target's baseline (SSE2 on x86-64): the only body elsewhere.
    Portable,
}

impl Body {
    /// Every body, narrowest vectors first.
    const ALL: [Body; 3] = [Body::Portable, Body::Avx2, Body::Avx512];

    /// Whether the running CPU can execute this body.
    fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => std::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => {
                std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
            }
            Body::Portable => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest body the running CPU can execute: the one every kernel
    /// call runs.
    fn widest() -> Body {
        Body::ALL.into_iter().rev().find(|b| b.available()).unwrap_or(Body::Portable)
    }

    const fn name(self) -> &'static str {
        match self {
            Body::Avx512 => "avx512f",
            Body::Avx2 => "avx2",
            Body::Portable => "portable",
        }
    }
}

/// The name of the kernels' numeric contract (module docs): one fused
/// multiply-add per product step. Anything that keeps numbers these
/// kernels produced across builds, such as the experiment harness's
/// weight cache, keys them by it; a change of the arithmetic changes it.
pub const NUMERICS: &str = "fma1";

/// The names [`kernel_body`] can return, narrowest vectors first.
pub const KERNEL_BODIES: [&str; 3] =
    [Body::ALL[0].name(), Body::ALL[1].name(), Body::ALL[2].name()];

/// Which compilation of the block kernel and the `tanh` pass this process
/// runs every matmul and every `tanh` through. All of them produce the
/// same bits; the name says what speed to expect, so a measurement is
/// comparable only with one that names the same body.
pub fn kernel_body() -> &'static str {
    Body::widest().name()
}

/// The block kernel: the `rows × cols` rectangle of `out` under product
/// `p`, where `cols.start` is a multiple of `P::nr(body)`. Column panels
/// are outermost, so a `B` panel is fetched once and reused from L1 by
/// every row tile. The `cols mod nr` fringe halves the panel width down to
/// [`MIN_PANEL`], one panel per width that fits; only what is left (fewer
/// than `MIN_PANEL` columns) runs one column at a time. `body` names the
/// compilation this call is inlined into: a constant there, so the widths
/// above `nr` fold away.
#[inline(always)]
fn block<P: Product>(body: Body, p: P, out: OutPtr, rows: Range<usize>, cols: Range<usize>) {
    let nr = P::nr(body);
    assert!(cols.start.is_multiple_of(nr), "column range off the panel grid");
    let mut j0 = cols.start;
    macro_rules! panels {
        ($w:literal) => {
            if $w <= nr {
                while j0 + $w <= cols.end {
                    panel::<$w, P>(p, out, &rows, j0);
                    j0 += $w;
                }
            }
        };
    }
    panels!(64);
    panels!(32);
    panels!(16);
    panels!(8); // MIN_PANEL
    for j in j0..cols.end {
        panel::<1, P>(p, out, &rows, j);
    }
}

/// A kernel with one source compiled once per [`Body`]: `run` is
/// `#[inline(always)]`, so each body's wrapper below holds its own copy,
/// lowered at that body's vector width.
trait Compiled {
    /// Run as compiled for `body` (a constant wherever this is inlined).
    fn run(self, body: Body);
}

/// The `rows × cols` rectangle of `out` under product `p`: one call of
/// [`block`].
struct Block<'a, P> {
    p: P,
    out: OutPtr<'a>,
    rows: Range<usize>,
    cols: Range<usize>,
}

impl<P: Product> Compiled for Block<'_, P> {
    #[inline(always)]
    fn run(self, body: Body) {
        block(body, self.p, self.out, self.rows, self.cols);
    }
}

/// `k` compiled with AVX2 and FMA enabled (8 lanes per vector instead of
/// SSE2's 4). The body is the same source: each `mul_add` it writes
/// becomes one `vfmadd`, the one rounding the portable body's `mul_add`
/// also gives, and nothing else fuses (Rust emits no `contract` flag), so
/// the compilations are bit-identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn on_avx2<K: Compiled>(k: K) {
    k.run(Body::Avx2);
}

/// `k` compiled with AVX-512F enabled (16 lanes per vector). The feature
/// implies `fma`: each `mul_add` the source writes is one `vfmadd`, and
/// since Rust emits no `contract` flag LLVM fuses nothing else at any
/// width (DESIGN §5f).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn on_avx512<K: Compiled>(k: K) {
    k.run(Body::Avx512);
}

/// Run `k` as compiled for `body`, which the running CPU must have.
fn run_body<K: Compiled>(body: Body, k: K) {
    assert!(body.available(), "the {} body needs a CPU feature this one lacks", body.name());
    match body {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available` just saw AVX-512F on the running CPU.
        Body::Avx512 => unsafe { on_avx512(k) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available` just saw AVX2 and FMA on the running CPU.
        Body::Avx2 => unsafe { on_avx2(k) },
        _ => k.run(Body::Portable),
    }
}

/// Run [`block`] through the widest body this CPU supports.
fn run_block<P: Product>(p: P, out: OutPtr, rows: Range<usize>, cols: Range<usize>) {
    run_body(Body::widest(), Block { p, out, rows, cols });
}

/// Whether a kernel of `volume` multiply-adds should fan out: enough work,
/// a pool wider than one thread, and not already inside a pool task
/// (where `parallel_for` would run the split inline anyway).
fn fans_out(volume: usize) -> bool {
    volume >= PAR_MIN_VOLUME && pool::n_threads() > 1 && !pool::in_task()
}

/// `0..extent` cut into at most `ways` near-equal ranges that each start on
/// a multiple of `unit`.
fn aligned_ranges(extent: usize, unit: usize, ways: usize) -> Vec<Range<usize>> {
    pool::split_ranges_for(extent.div_ceil(unit), ways)
        .into_iter()
        .map(|(lo, hi)| lo * unit..(hi * unit).min(extent))
        .collect()
}

/// The one dispatcher behind every matmul entry point: `out[m,n]` under
/// product `p`, whose inner dimension (summed over its parts) is `k`.
///
/// One block unless the call [`fans_out`]. Otherwise the
/// output is split `T` ways along the axis that makes each thread read
/// the fewest operand bytes: column panels when `m < n` (every thread
/// reads all of `A` and `1/T` of `B`: `m·k + k·n/T` elements), `MR`-
/// aligned row ranges otherwise (`m·k/T + k·n`). Either way each element
/// is computed by exactly one tile in the same order, so the split never
/// shows in the result.
fn gemm<P: Product>(p: P, out: OutPtr, m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    if !fans_out(m * k * n) {
        return run_block(p, out, 0..m, 0..n);
    }
    let (by_cols, unit, extent) =
        if m < n { (true, P::nr(Body::widest()), n) } else { (false, MR, m) };
    let spans = aligned_ranges(extent, unit, pool::n_threads());
    pool::parallel_for(spans.len(), |t| {
        let span = spans[t].clone();
        if by_cols {
            run_block(p, out, 0..m, span);
        } else {
            run_block(p, out, span, 0..n);
        }
    });
}

/// [`gemm`] over plain slices: `a` in layout `A`, `b` dense `[k, n]`.
fn gemm_dense<'a, A: Lhs<'a>>(
    a: &'a [f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm((A::new(a, m, k), F32::new(b, k, n)), OutPtr::new(out, m, n), m, k, n);
}

/// Scratch elements [`matmul_nt_into`] needs for
/// `out[m,n] = a[m,k] · b[n,k]ᵀ`: nothing for a tiny output, the
/// `[k, m₈]` panel of `Aᵀ` plus the `[n, m₈]` product when `m < n`
/// (`m₈` is `m` rounded up to a multiple of 8), the `[k, n]` panel of
/// `Bᵀ` otherwise.
pub fn matmul_nt_scratch_len(m: usize, k: usize, n: usize) -> usize {
    if m * n < NT_TRANSPOSE_MIN_OUT {
        0
    } else if m < n {
        (k + n) * m.next_multiple_of(NT_PAD)
    } else {
        k * n
    }
}

/// `out[m,n] = a[m,k] · b[n,k]ᵀ` through [`gemm`], transposing whichever
/// operand has fewer rows; tiny outputs keep the row-dot-product path.
///
/// With `m < n` the product runs as `Cᵀ = B · Aᵀ`: `a` goes into a
/// `[k, m₈]` panel whose pad columns are zero, the block kernel streams
/// `b`'s rows contiguously with its lanes across `a`'s rows, and the
/// small `[n, m₈]` result is transposed back (pad columns dropped).
/// Element `(i, j)` is still one accumulator fusing `b[j,kk] · a[i,kk]`
/// into it for ascending `kk` — the same exact products (a fused
/// multiply-add's operands commute) in the same order as `A · (Bᵀ)`.
fn gemm_nt(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(scratch.len(), matmul_nt_scratch_len(m, k, n), "matmul_nt scratch size");
    if m * n < NT_TRANSPOSE_MIN_OUT {
        matmul_nt_rows(a, b, out, m, k, n);
    } else if m < n {
        let mp = m.next_multiple_of(NT_PAD);
        let (at, ct) = scratch.split_at_mut(k * mp);
        transpose_strided(a, at, m, k, k, mp);
        at.chunks_exact_mut(mp).for_each(|row| row[m..].fill(0.0));
        gemm_dense::<RowMajor>(b, at, ct, n, k, mp);
        transpose_strided(ct, out, n, m, mp, n);
    } else {
        transpose_into(b, scratch, n, k);
        gemm_dense::<RowMajor>(a, scratch, out, m, k, n);
    }
}

/// Dispatch a batched matmul across the batch dimension (one task per
/// batch element, e.g. one attention head each); `A` names the layout of
/// each `m × k` left operand, every right operand is dense `[k, n]`.
/// Each element goes through [`gemm`], which runs it serially when
/// the batch already occupies the pool.
fn par_batch<'a, A: Lhs<'a>>(
    a: &'a [f32],
    b: &[f32],
    out: &mut [f32],
    bs: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let out = OutPtr::new(out, bs * m, n);
    let run = |i: usize| {
        let a_i = A::new(&a[i * m * k..(i + 1) * m * k], m, k);
        let b_i = F32::new(&b[i * k * n..(i + 1) * k * n], k, n);
        gemm((a_i, b_i), out.batch(i, m), m, k, n);
    };
    if bs > 1 && fans_out(bs * m * k * n) {
        pool::parallel_for(bs, run);
    } else {
        (0..bs).for_each(run);
    }
}

/// Batched [`gemm_nt`] with a `[bs, k, n]` scratch: every batch element's
/// `b` is transposed up front, then the batch runs as a plain `bmm`.
#[allow(clippy::too_many_arguments)]
fn par_batch_nt(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut [f32],
    bs: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if bs * m * n < NT_TRANSPOSE_MIN_OUT {
        for i in 0..bs {
            let (a_i, b_i) = (&a[i * m * k..(i + 1) * m * k], &b[i * n * k..(i + 1) * n * k]);
            matmul_nt_rows(a_i, b_i, &mut out[i * m * n..(i + 1) * m * n], m, k, n);
        }
        return;
    }
    assert_eq!(scratch.len(), bs * k * n, "bmm_nt scratch size");
    for i in 0..bs {
        transpose_into(
            &b[i * n * k..(i + 1) * n * k],
            &mut scratch[i * k * n..(i + 1) * k * n],
            n,
            k,
        );
    }
    par_batch::<RowMajor>(a, scratch, out, bs, m, k, n);
}

/// Row-dot-product kernel, unrolled 4-wide across output columns. Kept
/// as the small-problem path of `matmul_nt`, where a transpose panel
/// would dominate the cost; each accumulator still takes one `mul_add`
/// per step in ascending-`k` order (bit-identical to the panel path).
/// Compiled per body like the block kernel, so its `mul_add` is one
/// instruction wherever the CPU has FMA.
fn matmul_nt_rows(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    run_body(Body::widest(), NtRows { a, b, out, m, k, n });
}

/// `out[m,n] = a[m,k] · b[n,k]ᵀ`, one dot product per output element:
/// [`matmul_nt_rows`] as a [`Compiled`] kernel.
struct NtRows<'a> {
    a: &'a [f32],
    b: &'a [f32],
    out: &'a mut [f32],
    m: usize,
    k: usize,
    n: usize,
}

impl Compiled for NtRows<'_> {
    #[inline(always)]
    fn run(self, _body: Body) {
        let NtRows { a, b, out, m, k, n } = self;
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = 0usize;
            while j + 4 <= n {
                let b0 = &b[j * k..(j + 1) * k];
                let b1 = &b[(j + 1) * k..(j + 2) * k];
                let b2 = &b[(j + 2) * k..(j + 3) * k];
                let b3 = &b[(j + 3) * k..(j + 4) * k];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for (kk, &av) in arow.iter().enumerate() {
                    s0 = av.mul_add(b0[kk], s0);
                    s1 = av.mul_add(b1[kk], s1);
                    s2 = av.mul_add(b2[kk], s2);
                    s3 = av.mul_add(b3[kk], s3);
                }
                orow[j] = s0;
                orow[j + 1] = s1;
                orow[j + 2] = s2;
                orow[j + 3] = s3;
                j += 4;
            }
            while j < n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (x, y) in arow.iter().zip(brow.iter()) {
                    acc = x.mul_add(*y, acc);
                }
                orow[j] = acc;
                j += 1;
            }
        }
    }
}

/// Blocked `[rows, cols] → [cols, rows]` transpose: `dst[c * rows + r] =
/// src[r * cols + c]`. `dst` must hold exactly `rows * cols` elements.
pub fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "transpose src size");
    assert_eq!(dst.len(), rows * cols, "transpose dst size");
    transpose_strided(src, dst, rows, cols, cols, rows);
}

/// Transpose the `rows × cols` corner of a matrix with row stride
/// `src_stride` into one with row stride `dst_stride`, leaving the rest of
/// `dst` alone: `dst[c * dst_stride + r] = src[r * src_stride + c]`. Small
/// square blocks keep both streams cache-resident.
fn transpose_strided(
    src: &[f32],
    dst: &mut [f32],
    rows: usize,
    cols: usize,
    src_stride: usize,
    dst_stride: usize,
) {
    const TB: usize = 32;
    let mut r0 = 0usize;
    while r0 < rows {
        let r1 = (r0 + TB).min(rows);
        let mut c0 = 0usize;
        while c0 < cols {
            let c1 = (c0 + TB).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * dst_stride + r] = src[r * src_stride + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

// ---------------------------------------------------------------------
// Allocation-free kernels
//
// Each kernel below writes into a caller-provided slice instead of
// allocating a Tensor: `turl-exec` hands in spans of its pre-sized arena,
// `Tensor` methods and `Graph` ops the buffer of the tensor they return.
// The matmul entry points run the dispatcher of the Tensor-level ops.
// ---------------------------------------------------------------------

/// `out[m,n] = a[m,k] · b[k,n]` into a caller-provided slice.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = profiled!("exec.matmul");
    assert_eq!(a.len(), m * k, "matmul_into lhs size");
    assert_eq!(b.len(), k * n, "matmul_into rhs size");
    assert_eq!(out.len(), m * n, "matmul_into out size");
    gemm_dense::<RowMajor>(a, b, out, m, k, n);
}

/// `out[m,n] = a[m,k] · b[n,k]ᵀ` into a caller-provided slice, using a
/// caller-provided scratch of [`matmul_nt_scratch_len`] elements for the
/// transpose (the executor plans scratch into the arena so the steady
/// state never allocates). Its contents on entry do not matter.
#[allow(clippy::too_many_arguments)]
pub fn matmul_nt_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let _t = profiled!("exec.matmul_nt");
    assert_eq!(a.len(), m * k, "matmul_nt_into lhs size");
    assert_eq!(b.len(), n * k, "matmul_nt_into rhs size");
    assert_eq!(out.len(), m * n, "matmul_nt_into out size");
    gemm_nt(a, b, out, scratch, m, k, n);
}

/// `out[m,n] += Σᵢ aᵢ[kᵢ,m]ᵀ · bᵢ[kᵢ,n]` in place, the parts added in slice
/// order: `out` ends as `((out + A₀ᵀB₀) + A₁ᵀB₁) + …`, every `AᵢᵀBᵢ` one
/// accumulator from `+0.0` in ascending `k` — bit for bit what
/// [`matmul_tn`] per part followed by [`Tensor::add_assign`] in the same
/// order gives, with every element of `out` read and written once. This
/// is how a weight gradient `Σ_tables Xᵀ · dY` reaches its store without
/// one `[m, n]` tensor per table; the parts may differ in `kᵢ` (a part's
/// `kᵢ` is `aᵢ.len() / m`), and an empty `parts` leaves `out` untouched.
pub fn matmul_tn_acc_into(out: &mut [f32], m: usize, n: usize, parts: &[(&[f32], &[f32])]) {
    let _t = profiled!("matmul_tn_acc");
    assert_eq!(out.len(), m * n, "matmul_tn_acc_into out size");
    if m == 0 || n == 0 || parts.is_empty() {
        return;
    }
    let mut k_total = 0usize;
    let operands: Vec<(KMajor, F32)> = parts
        .iter()
        .map(|&(a, b)| {
            let k = a.len() / m;
            k_total += k;
            (KMajor::new(a, m, k), F32::new(b, k, n))
        })
        .collect();
    gemm(Accumulate(&operands), OutPtr::new(out, m, n), m, k_total, n);
}

/// Batched `out[b,m,n] = a[b,m,k] · b[b,k,n]` into a caller-provided slice.
#[allow(clippy::too_many_arguments)]
pub fn bmm_into(a: &[f32], b: &[f32], out: &mut [f32], bs: usize, m: usize, k: usize, n: usize) {
    let _t = profiled!("exec.bmm");
    assert_eq!(a.len(), bs * m * k, "bmm_into lhs size");
    assert_eq!(b.len(), bs * k * n, "bmm_into rhs size");
    assert_eq!(out.len(), bs * m * n, "bmm_into out size");
    par_batch::<RowMajor>(a, b, out, bs, m, k, n);
}

/// Batched `out[b,m,n] = a[b,m,k] · b[b,n,k]ᵀ` with caller-provided
/// `[bs, k, n]` transpose scratch.
#[allow(clippy::too_many_arguments)]
pub fn bmm_nt_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    scratch: &mut [f32],
    bs: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let _t = profiled!("exec.bmm_nt");
    assert_eq!(a.len(), bs * m * k, "bmm_nt_into lhs size");
    assert_eq!(b.len(), bs * n * k, "bmm_nt_into rhs size");
    assert_eq!(out.len(), bs * m * n, "bmm_nt_into out size");
    par_batch_nt(a, b, out, scratch, bs, m, k, n);
}

/// Gather rows of `table` (row length `row_len`) into `out`, in index
/// order. An index past the last row panics.
pub fn gather_rows_into(table: &[f32], row_len: usize, indices: &[usize], out: &mut [f32]) {
    let _t = profiled!("exec.gather");
    assert_eq!(out.len(), indices.len() * row_len, "gather out size");
    for (r, &i) in indices.iter().enumerate() {
        let src = &table[i * row_len..(i + 1) * row_len];
        out[r * row_len..(r + 1) * row_len].copy_from_slice(src);
    }
}

// ---------------------------------------------------------------------
// Block-quantized (int8) executor kernels
//
// The inference path stores large weight matrices as [`QuantBlocks`]
// (row-aligned 32-wide blocks, one f32 scale per block). The matmul
// below is the block kernel over the `&QuantBlocks` right operand, which
// dequantizes *in register* — each int8 value becomes `q as f32 * scale`
// right before the fused multiply-add. The contract, pinned by tests:
// `matmul_q8(a, qb)` is bit-identical to `matmul(a, dequantize(qb))` at
// every thread count and tile shape.
// ---------------------------------------------------------------------

/// `out[m,n] = a[m,k] · dequantize(b)[k,n]` where `b` is block-quantized
/// with `k` rows and `n` columns. Bit-identical to [`matmul_into`] over
/// the dequantized operand; reads 1 byte of `b` per MAC instead of 4.
pub fn matmul_q8_into(a: &[f32], b: &QuantBlocks, out: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = profiled!("exec.matmul_q8");
    assert_eq!(a.len(), m * k, "matmul_q8_into lhs size");
    assert_eq!((b.rows(), b.cols()), (k, n), "matmul_q8_into rhs layout");
    assert_eq!(out.len(), m * n, "matmul_q8_into out size");
    gemm((RowMajor::new(a, m, k), b), OutPtr::new(out, m, n), m, k, n);
}

/// Gather rows of a block-quantized `table` into dense `f32` `out`, in
/// index order. Blocks are row-aligned, so each gathered row
/// reconstructs independently and the result equals gathering from the
/// fully dequantized table.
pub fn gather_rows_q8_into(table: &QuantBlocks, indices: &[usize], out: &mut [f32]) {
    let _t = profiled!("exec.gather_q8");
    let row_len = table.cols();
    assert_eq!(out.len(), indices.len() * row_len, "gather_q8 out size");
    for (r, &i) in indices.iter().enumerate() {
        table.dequantize_row_into(i, &mut out[r * row_len..(r + 1) * row_len]);
    }
}

/// Elementwise `out = a + b`, where `b` either matches `a`'s length or is
/// cycled over it (trailing-axis broadcast, e.g. a `[d]` bias over
/// `[n, d]`, or an `[n, n]` mask over `[h, n, n]`): one f32 add per
/// element, as NumPy broadcasting pairs them.
pub fn add_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    let _t = profiled!("exec.add");
    assert_eq!(a.len(), out.len(), "add_into out size");
    if a.len() == b.len() {
        for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
            *o = x + y;
        }
    } else {
        assert!(!b.is_empty() && a.len().is_multiple_of(b.len()), "add_into broadcast size");
        for (ochunk, achunk) in out.chunks_mut(b.len()).zip(a.chunks(b.len())) {
            for ((o, &x), &y) in ochunk.iter_mut().zip(achunk.iter()).zip(b.iter()) {
                *o = x + y;
            }
        }
    }
}

/// In-place bias epilogue: `x[i, j] += bias[j]` for `x: [rows, d]`.
/// Applied after a matmul has fully accumulated, this reproduces the
/// unfused `matmul → add(bias)` pair bit-exactly (the bias is added once,
/// after the ascending-`k` sum, exactly as a broadcast add would).
pub fn bias_add_inplace(x: &mut [f32], bias: &[f32]) {
    let _t = profiled!("fused.bias_add");
    assert!(!bias.is_empty() && x.len().is_multiple_of(bias.len()), "bias size must divide x");
    for row in x.chunks_mut(bias.len()) {
        for (o, &b) in row.iter_mut().zip(bias.iter()) {
            *o += b;
        }
    }
}

/// Fused bias + GELU epilogue: `x[i, j] = gelu(x[i, j] + bias[j])`, a row
/// at a time while the row is in L1. Per element this is the same two
/// arithmetic steps as the unfused `add(bias)` followed by `gelu` (both
/// elementwise), hence bit-exact — also across the pool, which large
/// inputs fan their rows out over.
pub fn bias_gelu_inplace(x: &mut [f32], bias: &[f32]) {
    let _t = profiled!("fused.bias_gelu");
    assert!(!bias.is_empty() && x.len().is_multiple_of(bias.len()), "bias size must divide x");
    let gelu_rows = |rows: &mut [f32]| {
        for row in rows.chunks_mut(bias.len()) {
            for (o, &b) in row.iter_mut().zip(bias.iter()) {
                *o += b;
            }
            gelu(row);
        }
    };
    if !fans_out(x.len() * TANH_MACS) {
        return gelu_rows(x);
    }
    // Whole rows per task, so every chunk starts at bias column 0.
    let rows_per_task = (x.len() / bias.len()).div_ceil(pool::n_threads());
    let mut chunks: Vec<&mut [f32]> = x.chunks_mut(rows_per_task * bias.len()).collect();
    pool::parallel_for_each_mut(&mut chunks, |_, chunk| gelu_rows(chunk));
}

/// Elementwise GELU into a caller-provided slice.
pub fn gelu_into(x: &[f32], out: &mut [f32]) {
    let _t = profiled!("exec.gelu");
    tanh::pass(tanh::Lane::Gelu, Some(x), out);
}

/// Elementwise `out = x * c` into a caller-provided slice.
pub fn scale_into(x: &[f32], c: f32, out: &mut [f32]) {
    let _t = profiled!("exec.scale");
    assert_eq!(x.len(), out.len(), "scale_into out size");
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = v * c;
    }
}

/// Stabilized softmax of one row, in place: row max by
/// `fold(NEG_INFINITY, max)`, in-order `exp`/sum, then normalise unless
/// the sum is not positive (the row then keeps its `exp` values).
pub fn softmax_row_inplace(row: &mut [f32]) {
    let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - mx).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Fused scale + additive mask + stabilized softmax over rows of length
/// `row_len`, in one pass per row. When `mask` is shorter than `x` it is
/// cycled (an `[n, n]` visibility mask broadcast over `[h, n, n]` logits).
///
/// Equivalence contract: per element this performs `x * scale` (one f32
/// multiply), `+ mask` (one f32 add), then [`softmax_row_inplace`]. No
/// reassociation anywhere, so the fused kernel is bit-exact against the
/// unfused `scale → add(mask) → softmax` chain (fully-masked rows
/// included).
pub fn fused_mask_softmax(
    x: &[f32],
    scale: f32,
    mask: Option<&[f32]>,
    out: &mut [f32],
    row_len: usize,
) {
    let _t = profiled!("fused.mask_softmax");
    assert_eq!(x.len(), out.len(), "fused_mask_softmax out size");
    assert!(row_len > 0 && x.len().is_multiple_of(row_len), "row length must divide x");
    if let Some(m) = mask {
        assert!(
            !m.is_empty() && x.len().is_multiple_of(m.len()) && m.len() % row_len == 0,
            "mask size"
        );
    }
    for (r, (orow, xrow)) in out.chunks_mut(row_len).zip(x.chunks(row_len)).enumerate() {
        match mask {
            Some(m) => {
                let mrow_start = (r * row_len) % m.len();
                let mrow = &m[mrow_start..mrow_start + row_len];
                for ((o, &v), &mv) in orow.iter_mut().zip(xrow.iter()).zip(mrow.iter()) {
                    *o = v * scale + mv;
                }
            }
            None => {
                for (o, &v) in orow.iter_mut().zip(xrow.iter()) {
                    *o = v * scale;
                }
            }
        }
        softmax_row_inplace(orow);
    }
}

/// Layer norm over rows of length `d` with affine `gamma`/`beta`: mean,
/// variance, normalize, scale and shift in one kernel call. The two
/// reductions run in ascending element order and the normalize pass is
/// elementwise — no reassociation.
pub fn fused_layer_norm(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
    let _t = profiled!("fused.layer_norm");
    let d = gamma.len();
    assert_eq!(beta.len(), d, "gamma/beta size");
    assert!(d > 0 && x.len().is_multiple_of(d), "row length must divide x");
    assert_eq!(x.len(), out.len(), "fused_layer_norm out size");
    for (orow, xrow) in out.chunks_mut(d).zip(x.chunks(d)) {
        let mean = xrow.iter().sum::<f32>() / d as f32;
        let var = xrow.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for (j, (o, &v)) in orow.iter_mut().zip(xrow.iter()).enumerate() {
            *o = (v - mean) * inv * gamma[j] + beta[j];
        }
    }
}

/// Strided gather copy: `out[i] = src[offset(i)]` where `offset` walks
/// `out_shape` (rank ≥ 1) in row-major order reading through
/// `read_strides` — an axis permutation, or the executor's one-copy form
/// of a `reshape → permute` (or `permute → reshape`) chain.
pub fn copy_strided_into(
    src: &[f32],
    out: &mut [f32],
    out_shape: &[usize],
    read_strides: &[usize],
) {
    let _t = profiled!("exec.copy");
    assert_eq!(out_shape.len(), read_strides.len(), "shape/stride rank");
    let n: usize = out_shape.iter().product();
    assert_eq!(out.len(), n, "copy_strided out size");
    if n == 0 {
        return;
    }
    // Fast path: innermost axis contiguous → row memcpys.
    let rank = out_shape.len();
    let w = out_shape[rank - 1];
    if read_strides[rank - 1] == 1 && w > 0 {
        let mut idx = vec![0usize; rank];
        let mut off = 0usize;
        for orow in out.chunks_mut(w) {
            orow.copy_from_slice(&src[off..off + w]);
            // advance all but the innermost axis
            for d in (0..rank - 1).rev() {
                idx[d] += 1;
                off += read_strides[d];
                if idx[d] < out_shape[d] {
                    break;
                }
                idx[d] = 0;
                off -= read_strides[d] * out_shape[d];
            }
        }
        return;
    }
    let mut idx = vec![0usize; rank];
    let mut off = 0usize;
    for o in out.iter_mut() {
        *o = src[off];
        for d in (0..rank).rev() {
            idx[d] += 1;
            off += read_strides[d];
            if idx[d] < out_shape[d] {
                break;
            }
            idx[d] = 0;
            off -= read_strides[d] * out_shape[d];
        }
    }
}

/// Row concatenation: the `parts` laid end to end fill `out` exactly.
pub fn concat_rows_into<'a>(parts: impl IntoIterator<Item = &'a [f32]>, out: &mut [f32]) {
    let mut off = 0usize;
    for p in parts {
        out[off..off + p.len()].copy_from_slice(p);
        off += p.len();
    }
    assert_eq!(off, out.len(), "concat_rows out size");
}

/// Column concatenation of `(part, cols)` pairs, each part `[rows, cols]`
/// row-major, into `out: [rows, Σ cols]`.
pub fn concat_cols_into<'a>(
    parts: impl IntoIterator<Item = (&'a [f32], usize)>,
    rows: usize,
    out: &mut [f32],
) {
    let total = out.len().checked_div(rows).unwrap_or(0);
    let mut col = 0usize;
    for (p, cols) in parts {
        assert_eq!(p.len(), rows * cols, "concat_cols part size");
        for r in 0..rows {
            out[r * total + col..][..cols].copy_from_slice(&p[r * cols..(r + 1) * cols]);
        }
        col += cols;
    }
    assert_eq!(col * rows, out.len(), "concat_cols out size");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), data.to_vec())
    }

    /// Reference triple loop: ascending-k accumulation, no tiling.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(vec![m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for kk in 0..k {
                    s = a.data()[i * k + kk].mul_add(b.data()[kk * n + j], s);
                }
                out.data_mut()[i * n + j] = s;
            }
        }
        out
    }

    fn pseudo(shape: &[usize], seed: u32) -> Tensor {
        let n: usize = shape.iter().product();
        let mut s = seed;
        let data = (0..n)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                ((s >> 8) as f32 / (1 << 24) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(shape.to_vec(), data)
    }

    #[test]
    fn matmul_small() {
        let a = t(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[3, 2], &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[2, 2], &[1., 2., 3., 4.]);
        let i = t(&[2, 2], &[1., 0., 0., 1.]);
        assert_eq!(matmul(&a, &i), a);
    }

    #[test]
    fn register_tiling_is_bit_identical_to_naive() {
        // Cover full tiles, row remainders, and column remainders.
        for (m, k, n) in [(1, 7, 1), (3, 5, 9), (8, 16, 24), (13, 31, 17), (21, 64, 40)] {
            let a = pseudo(&[m, k], (m * 31 + n) as u32);
            let b = pseudo(&[k, n], (k * 17 + m) as u32);
            let fast = matmul(&a, &b);
            let slow = naive_matmul(&a, &b);
            for (x, y) in fast.data().iter().zip(slow.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "tiled kernel diverged from naive");
            }
        }
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = t(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[4, 3], &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let c1 = matmul_nt(&a, &b);
        let c2 = matmul(&a, &b.transpose2());
        assert_eq!(c1, c2);
    }

    #[test]
    fn nt_panel_path_matches_dot_path() {
        // Above the transpose threshold `m < n` runs as `Cᵀ = B · Aᵀ` over
        // a zero-padded panel (`m` short of, at and past a multiple of 8)
        // and `m ≥ n` as `A · (Bᵀ)`; both must agree bit for bit with the
        // row-dot-product kernel kept below it.
        for (m, k, n) in [(9, 33, 21), (8, 5, 9), (31, 40, 64), (21, 33, 9), (9, 1, 9)] {
            let (a, b) = (spiked(&[m, k], 5), spiked(&[n, k], 6));
            let mut dot = vec![0.0f32; m * n];
            matmul_nt_rows(a.data(), b.data(), &mut dot, m, k, n);
            assert_same_bits(matmul_nt(&a, &b).data(), &dot, &format!("nt {m}x{k}x{n}"));
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let a = t(&[3, 2], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[3, 4], &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let c1 = matmul_tn(&a, &b);
        let c2 = matmul(&a.transpose2(), &b);
        assert_eq!(c1, c2);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = t(&[2, 2, 3], &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let b = t(&[2, 3, 2], &(0..12).map(|x| (x as f32) * 0.5).collect::<Vec<_>>());
        let c = bmm(&a, &b);
        for i in 0..2 {
            let ai = t(&[2, 3], &a.data()[i * 6..(i + 1) * 6]);
            let bi = t(&[3, 2], &b.data()[i * 6..(i + 1) * 6]);
            let ci = matmul(&ai, &bi);
            assert_eq!(&c.data()[i * 4..(i + 1) * 4], ci.data());
        }
    }

    #[test]
    fn bmm_nt_and_tn_consistent() {
        let a = t(&[2, 2, 3], &(0..12).map(|x| x as f32 * 0.1).collect::<Vec<_>>());
        let b = t(&[2, 4, 3], &(0..24).map(|x| x as f32 * 0.2).collect::<Vec<_>>());
        let c = bmm_nt(&a, &b); // [2,2,4]
        assert_eq!(c.shape(), &[2, 2, 4]);
        // bmm_tn: aT (per batch [3,2]) x [3,4]
        let a2 = t(&[2, 3, 2], &(0..12).map(|x| x as f32 * 0.1).collect::<Vec<_>>());
        let b2 = t(&[2, 3, 4], &(0..24).map(|x| x as f32 * 0.2).collect::<Vec<_>>());
        let c2 = bmm_tn(&a2, &b2);
        assert_eq!(c2.shape(), &[2, 2, 4]);
    }

    #[test]
    fn bmm_nt_matches_per_batch_nt() {
        let a = pseudo(&[3, 5, 7], 11);
        let b = pseudo(&[3, 6, 7], 12);
        let c = bmm_nt(&a, &b); // [3,5,6]; panel path (90 >= 64)
        for i in 0..3 {
            let ai = t(&[5, 7], &a.data()[i * 35..(i + 1) * 35]);
            let bi = t(&[6, 7], &b.data()[i * 42..(i + 1) * 42]);
            let ci = matmul_nt(&ai, &bi);
            assert_eq!(&c.data()[i * 30..(i + 1) * 30], ci.data(), "batch {i}");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let x = pseudo(&[37, 19], 3);
        let mut once = vec![0.0f32; 37 * 19];
        let mut twice = vec![0.0f32; 37 * 19];
        transpose_into(x.data(), &mut once, 37, 19);
        transpose_into(&once, &mut twice, 19, 37);
        assert_eq!(x.data(), &twice[..]);
    }

    #[test]
    fn into_variants_match_tensor_ops() {
        let a = pseudo(&[6, 10], 21);
        let b = pseudo(&[10, 12], 22);
        let mut out = vec![0.0f32; 72];
        matmul_into(a.data(), b.data(), &mut out, 6, 10, 12);
        assert_eq!(&out[..], matmul(&a, &b).data());

        let bt = pseudo(&[12, 10], 23);
        // Stale scratch contents must not show (the arena reuses spans).
        let mut scratch = vec![f32::NAN; matmul_nt_scratch_len(6, 10, 12)];
        matmul_nt_into(a.data(), bt.data(), &mut out, &mut scratch, 6, 10, 12);
        assert_eq!(&out[..], matmul_nt(&a, &bt).data());

        let a3 = pseudo(&[2, 6, 10], 24);
        let b3 = pseudo(&[2, 10, 12], 25);
        let mut out3 = vec![0.0f32; 144];
        bmm_into(a3.data(), b3.data(), &mut out3, 2, 6, 10, 12);
        assert_eq!(&out3[..], bmm(&a3, &b3).data());

        let b3t = pseudo(&[2, 12, 10], 26);
        let mut scratch3 = vec![0.0f32; 240];
        bmm_nt_into(a3.data(), b3t.data(), &mut out3, &mut scratch3, 2, 6, 10, 12);
        assert_eq!(&out3[..], bmm_nt(&a3, &b3t).data());
    }

    /// `pseudo` with signed zeros, subnormals and the smallest normal
    /// spliced in at every fifth element.
    fn spiked(shape: &[usize], seed: u32) -> Tensor {
        let specials = [0.0, -0.0, 1e-40, -1e-40, f32::MIN_POSITIVE, -f32::MIN_POSITIVE];
        let mut t = pseudo(shape, seed);
        for (i, v) in t.data_mut().iter_mut().enumerate().filter(|(i, _)| i % 5 == 0) {
            *v = specials[(i / 5 + seed as usize) % specials.len()];
        }
        t
    }

    /// Bitwise equality, except that a NaN only has to be a NaN.
    fn assert_same_bits(got: &[f32], want: &[f32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            let ok = if w.is_nan() { g.is_nan() } else { g.to_bits() == w.to_bits() };
            assert!(ok, "{ctx}: element {i}: got {g:e}, want {w:e}");
        }
    }

    /// The unfused chain, one element at a time: scale, add the cycled
    /// mask, then a stabilized softmax per row.
    fn naive_mask_softmax(x: &[f32], scale: f32, mask: Option<&[f32]>, w: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; x.len()];
        for i in 0..x.len() {
            out[i] = x[i] * scale;
            if let Some(m) = mask {
                out[i] += m[i % m.len()];
            }
        }
        for r in 0..x.len() / w {
            let mut mx = f32::NEG_INFINITY;
            for j in 0..w {
                mx = mx.max(out[r * w + j]);
            }
            let mut sum = 0.0f32;
            for j in 0..w {
                out[r * w + j] = (out[r * w + j] - mx).exp();
                sum += out[r * w + j];
            }
            for j in 0..w {
                if sum > 0.0 {
                    out[r * w + j] /= sum;
                }
            }
        }
        out
    }

    #[test]
    fn fused_mask_softmax_matches_unfused_chain() {
        let x = spiked(&[2, 4, 4], 31); // [heads, n, n]
        let mut mask = vec![0.0f32; 16];
        mask[1] = -1e9;
        mask[7] = -1e9;
        for v in &mut mask[8..12] {
            *v = -1e9; // fully-masked row: uniform weights
        }
        for v in &mut mask[12..16] {
            *v = f32::NEG_INFINITY; // all -inf: NaN, left unnormalised
        }
        let scale = 1.0 / (5.0f32).sqrt();
        for (mask, ctx) in [(Some(&mask[..]), "masked"), (None, "unmasked")] {
            let mut fused = vec![0.0f32; 32];
            fused_mask_softmax(x.data(), scale, mask, &mut fused, 4);
            assert_same_bits(&fused, &naive_mask_softmax(x.data(), scale, mask, 4), ctx);
        }
        let mut fused = vec![0.0f32; 32];
        fused_mask_softmax(x.data(), scale, Some(&mask), &mut fused, 4);
        assert!(fused[8..12].iter().all(|&p| p == 0.25), "{:?}", &fused[8..12]);
        assert!(fused[12..16].iter().all(|p| p.is_nan()), "{:?}", &fused[12..16]);
        // The row kernel on its own, and zero rows.
        let mut rows = x.data().to_vec();
        rows.chunks_mut(4).for_each(softmax_row_inplace);
        assert_same_bits(&rows, &naive_mask_softmax(x.data(), 1.0, None, 4), "row kernel");
        fused_mask_softmax(&[], scale, Some(&mask), &mut [], 4);
    }

    #[test]
    fn fused_layer_norm_matches_rowwise_reference() {
        // Signed zeros and subnormals among the inputs; the last row is
        // constant (zero variance, so `eps` alone keeps `inv` finite).
        let mut x = spiked(&[5, 8], 41);
        x.row_mut(4).fill(0.75);
        let gamma = pseudo(&[8], 42);
        let beta = pseudo(&[8], 43);
        let eps = 1e-5f32;
        let mut fused = vec![0.0f32; 40];
        fused_layer_norm(x.data(), gamma.data(), beta.data(), eps, &mut fused);
        for r in 0..5 {
            let row = &x.data()[r * 8..(r + 1) * 8];
            let mean = row.iter().sum::<f32>() / 8.0;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            let inv = 1.0 / (var + eps).sqrt();
            for j in 0..8 {
                let want = (row[j] - mean) * inv * gamma.data()[j] + beta.data()[j];
                assert_eq!(fused[r * 8 + j].to_bits(), want.to_bits());
            }
        }
        assert_eq!(&fused[32..], beta.data(), "a constant row normalises to beta");
        fused_layer_norm(&[], gamma.data(), beta.data(), eps, &mut []); // zero rows
    }

    #[test]
    fn bias_gelu_matches_two_step() {
        let x = pseudo(&[3, 6], 51);
        let bias = pseudo(&[6], 52);
        let mut fused = x.data().to_vec();
        bias_gelu_inplace(&mut fused, bias.data());
        for r in 0..3 {
            for j in 0..6 {
                let want = gelu_fwd(x.data()[r * 6 + j] + bias.data()[j]);
                assert_eq!(fused[r * 6 + j].to_bits(), want.to_bits());
            }
        }
    }

    /// Axis permutation of a rank-3 tensor, one element at a time:
    /// `out[i0, i1, i2] = src[..]` with `src` axis `axes[d]` indexed by `i_d`.
    fn naive_permute3(src: &[f32], shape: [usize; 3], axes: [usize; 3]) -> Vec<f32> {
        let strides = [shape[1] * shape[2], shape[2], 1];
        let out_shape = axes.map(|a| shape[a]);
        let mut out = Vec::new();
        for i0 in 0..out_shape[0] {
            for i1 in 0..out_shape[1] {
                for i2 in 0..out_shape[2] {
                    out.push(
                        src[i0 * strides[axes[0]] + i1 * strides[axes[1]] + i2 * strides[axes[2]]],
                    );
                }
            }
        }
        out
    }

    #[test]
    fn copy_strided_reproduces_permute() {
        // [1, 0, 2] keeps the innermost axis (row memcpys); the others move
        // it (the element path). A zero-length axis copies nothing.
        for shape in [[3, 4, 5], [1, 7, 2], [2, 0, 3]] {
            let x = spiked(&shape, 61);
            let strides = [shape[1] * shape[2], shape[2], 1];
            for axes in [[0, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1], [2, 0, 1], [1, 2, 0]] {
                let mut out = vec![f32::NAN; x.len()];
                copy_strided_into(
                    x.data(),
                    &mut out,
                    &axes.map(|a| shape[a]),
                    &axes.map(|a| strides[a]),
                );
                let ctx = format!("{shape:?} by {axes:?}");
                assert_same_bits(&out, &naive_permute3(x.data(), shape, axes), &ctx);
            }
        }
        // Rank 2: a transpose.
        let x = pseudo(&[3, 2], 62);
        let mut out = vec![0.0f32; 6];
        copy_strided_into(x.data(), &mut out, &[2, 3], &[1, 2]);
        let d = x.data();
        assert_eq!(out, [d[0], d[2], d[4], d[1], d[3], d[5]]);
    }

    #[test]
    fn concat_kernels_match_elementwise_reference() {
        // Column concat, a zero-width part included.
        let (a, b, c) = (spiked(&[3, 2], 63), spiked(&[3, 0], 64), spiked(&[3, 4], 65));
        let parts = [(a.data(), 2usize), (b.data(), 0), (c.data(), 4)];
        let mut out = vec![f32::NAN; 18];
        concat_cols_into(parts, 3, &mut out);
        let mut want = Vec::new();
        for r in 0..3 {
            for (p, cols) in parts {
                for j in 0..cols {
                    want.push(p[r * cols + j]);
                }
            }
        }
        assert_same_bits(&out, &want, "concat_cols");
        concat_cols_into([(&[][..], 2), (&[][..], 3)], 0, &mut []); // zero rows

        // Row concat, an empty part included.
        let mut out = vec![f32::NAN; 18];
        concat_rows_into([a.data(), b.data(), c.data()], &mut out);
        let want: Vec<f32> = a.data().iter().chain(c.data()).copied().collect();
        assert_same_bits(&out, &want, "concat_rows");
        concat_rows_into([], &mut []);
    }

    #[test]
    fn add_into_broadcast_matches_broadcast_zip() {
        // A `[d]` bias over `[n, d]`, an `[n, n]` mask cycled over
        // `[h, n, n]`, and equal shapes; signed zeros must keep their sign
        // rule (`-0.0 + -0.0 = -0.0`, anything else `+0.0`).
        for (a_shape, b_shape) in
            [(&[4, 6][..], &[6][..]), (&[3, 4, 4], &[4, 4]), (&[5, 2], &[5, 2])]
        {
            let (a, b) = (spiked(a_shape, 71), spiked(b_shape, 72));
            let mut out = vec![f32::NAN; a.len()];
            add_into(a.data(), b.data(), &mut out);
            let want: Vec<f32> =
                (0..a.len()).map(|i| a.data()[i] + b.data()[i % b.len()]).collect();
            assert_same_bits(&out, &want, &format!("{a_shape:?} + {b_shape:?}"));
        }
        let mut out = [f32::NAN; 4];
        add_into(&[-0.0, -0.0, 0.0, 1e-40], &[-0.0, 0.0], &mut out);
        assert_eq!(out.map(f32::to_bits), [-0.0f32, 0.0, 0.0, 1e-40].map(f32::to_bits));
        add_into(&[], &[1.0], &mut []); // zero rows
    }

    #[test]
    fn gather_rows_matches_index_select() {
        let table = spiked(&[7, 5], 81);
        for idx in [&[3usize, 0, 6, 3][..], &[]] {
            let mut out = vec![f32::NAN; idx.len() * 5];
            gather_rows_into(table.data(), 5, idx, &mut out);
            let mut want = Vec::new();
            for &i in idx {
                for j in 0..5 {
                    want.push(table.data()[i * 5 + j]);
                }
            }
            assert_same_bits(&out, &want, &format!("rows {idx:?}"));
        }
        gather_rows_into(&[], 5, &[], &mut []); // a table with zero rows
    }

    #[test]
    fn q8_matmul_bit_identical_to_f32_over_dequantized() {
        // Cover full tiles, row remainders, column remainders, and the
        // parallel split (last case exceeds PAR_MIN_VOLUME).
        for (m, k, n) in [(1, 7, 1), (3, 5, 9), (8, 32, 40), (13, 31, 17), (24, 64, 48)] {
            let a = pseudo(&[m, k], (m * 13 + n) as u32);
            let b = pseudo(&[k, n], (k * 7 + m) as u32);
            let qb = b.quantize_i8();
            let q = qb.quantized().expect("quantized storage");
            let mut fast = vec![0.0f32; m * n];
            matmul_q8_into(a.data(), q, &mut fast, m, k, n);
            let reference = matmul(&a, &qb.dequantize());
            for (x, y) in fast.iter().zip(reference.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "q8 kernel diverged at {m}x{k}x{n}");
            }
        }
    }

    /// Run every compilation of the block kernel this CPU has on the same
    /// product, each over its own copy of `seed`, and require them to
    /// agree bit for bit (portable first; under Miri it is the only one).
    fn assert_bodies_agree<P: Product>(p: P, seed: &[f32], m: usize, n: usize, ctx: &str) {
        let run = |body, out: &mut [f32], cols| {
            run_body(body, Block { p, out: OutPtr::new(out, m, n), rows: 0..m, cols });
        };
        let mut portable = seed.to_vec();
        run(Body::Portable, &mut portable, 0..n);
        for body in Body::ALL.into_iter().skip(1).filter(|b| b.available()) {
            let mut got = seed.to_vec();
            run(body, &mut got, 0..n);
            assert_same_bits(&got, &portable, &format!("{} vs portable, {ctx}", body.name()));
            // The same body over a column split at every pool width: each
            // range starts on the body's own panel boundary, as `gemm`
            // cuts it, and no cell may depend on where the cut fell.
            for ways in [2, 3, 4] {
                let mut split = seed.to_vec();
                for cols in aligned_ranges(n, P::nr(body), ways) {
                    run(body, &mut split, cols);
                }
                let ctx = format!("{} split {ways} ways vs portable, {ctx}", body.name());
                assert_same_bits(&split, &portable, &ctx);
            }
        }
    }

    #[test]
    fn every_detected_body_is_bit_identical_to_the_portable_body() {
        // Signed zeros, subnormals, infinities and NaN among ordinary
        // values. A NaN's payload follows operand order, which the
        // compiler may commute, so NaN outputs only have to be NaN in both.
        let specials = [
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let spiked = |shape: &[usize], seed: u32| {
            let mut t = pseudo(shape, seed);
            for (i, v) in t.data_mut().iter_mut().enumerate().filter(|(i, _)| i % 5 == 0) {
                *v = specials[(i / 5 + seed as usize) % specials.len()];
            }
            t
        };
        // Every fringe of the widest cascade (`n mod 64`: nothing, single
        // columns only, an 8-panel with and without single columns, a
        // 16-panel, 16 + 8, 16 + 8 + singles, a 32-panel alone, with
        // singles and with 16 + 8 + singles) against every tile height
        // (`m mod 4`), `k = 0` included; two full 64-panels, so a 64-wide
        // split has a unit for each of up to three ranges, and four or
        // more quant blocks per row, so a misaligned fragment would read
        // a neighbour's scale. Miri interprets two of the shapes.
        let fringes = [0, 1, 7, 8, 9, 16, 24, 31, 32, 33, 63];
        let all = fringes.map(|f| [4, 5, 6, 7].map(|m| (m, 128 + f)));
        let shapes = if cfg!(miri) { &[(5, 73), (7, 95)][..] } else { all.as_flattened() };
        for (case, &(m, n)) in shapes.iter().enumerate() {
            let k = [9, 33, 5, 0][case % 4];
            let (a, at) = (spiked(&[m, k], 7), spiked(&[k, m], 8));
            let b = spiked(&[k, n], 9);
            // Quantization needs finite input: zeros and a subnormal only.
            let qb = pseudo(&[k, n], 10).map(|v| if v.abs() < 0.1 { v * 0.0 } else { v });
            let qb = qb.quantize_i8();
            let q = qb.quantized().expect("quantized storage");
            let (lhs, rhs) = (RowMajor::new(a.data(), m, k), F32::new(b.data(), k, n));
            let nan = vec![f32::NAN; m * n];
            assert_bodies_agree((lhs, rhs), &nan, m, n, &format!("f32 {m}x{k}x{n}"));
            assert_bodies_agree((lhs, q), &nan, m, n, &format!("q8 {m}x{k}x{n}"));
            let lhs_t = KMajor::new(at.data(), m, k);
            assert_bodies_agree((lhs_t, rhs), &nan, m, n, &format!("tn {m}x{k}x{n}"));
            // The accumulating tile: a spiked output plus two unequal parts.
            let (at2, b2) = (spiked(&[3, m], 11), spiked(&[3, n], 12));
            let parts = [(lhs_t, rhs), (KMajor::new(at2.data(), m, 3), F32::new(b2.data(), 3, n))];
            let seed = spiked(&[m, n], 13);
            let ctx = format!("tn_acc {m}x({k}+3)x{n}");
            assert_bodies_agree(Accumulate(&parts), seed.data(), m, n, &ctx);
            // The row-dot-product path of `matmul_nt`, `b` read as `[n, k]`.
            let bt = spiked(&[n, k], 15);
            let dot = |body| {
                let mut out = vec![f32::NAN; m * n];
                run_body(body, NtRows { a: a.data(), b: bt.data(), out: &mut out, m, k, n });
                out
            };
            let portable = dot(Body::Portable);
            for body in Body::ALL.into_iter().filter(|b| b.available()) {
                let ctx = format!("{} vs portable, nt rows {m}x{k}x{n}", body.name());
                assert_same_bits(&dot(body), &portable, &ctx);
            }
        }
        // The `tanh` pass, every lane, out of place and in place, at every
        // vector remainder: magnitudes from 2^-60 to 2^6 reach every
        // branch of the lane function, among the same specials.
        let len = if cfg!(miri) { 37 } else { 4099 };
        let mut xs = spiked(&[len], 14);
        for (i, v) in xs.data_mut().iter_mut().enumerate() {
            *v *= 2f32.powi((i % 67) as i32 - 60);
        }
        for lane in [tanh::Lane::Tanh, tanh::Lane::GeluTanh, tanh::Lane::Gelu] {
            for n in [0, 1, 15, 17, 33, len] {
                let src = &xs.data()[..n];
                let run = |body, src: Option<&[f32]>, out: &mut [f32]| {
                    run_body(body, tanh::Pass { lane, src, out });
                };
                let mut portable = vec![f32::NAN; n];
                run(Body::Portable, Some(src), &mut portable);
                for body in Body::ALL.into_iter().filter(|b| b.available()) {
                    let mut got = vec![f32::NAN; n];
                    run(body, Some(src), &mut got);
                    let ctx = format!("{} vs portable, {lane:?} over {n}", body.name());
                    assert_same_bits(&got, &portable, &ctx);
                    let mut in_place = src.to_vec();
                    run(body, None, &mut in_place);
                    assert_same_bits(&in_place, &portable, &format!("{ctx}, in place"));
                }
            }
        }
    }

    #[test]
    fn tn_acc_adds_each_part_like_matmul_tn_then_add_assign() {
        // Row and column remainders, unequal `k` (1 and 0 included), and
        // an output seeded with signed zeros and subnormals.
        for (m, n, ks) in
            [(5, 19, &[3usize, 1, 7][..]), (4, 16, &[2]), (9, 3, &[0, 4]), (1, 1, &[1])]
        {
            let seed = spiked(&[m, n], 3);
            let operands: Vec<(Tensor, Tensor)> = ks
                .iter()
                .enumerate()
                .map(|(i, &k)| (spiked(&[k, m], 20 + i as u32), spiked(&[k, n], 30 + i as u32)))
                .collect();
            let mut want = seed.clone();
            for (a, b) in &operands {
                want.add_assign(&matmul_tn(a, b));
            }
            let mut got = seed.clone();
            let parts: Vec<(&[f32], &[f32])> =
                operands.iter().map(|(a, b)| (a.data(), b.data())).collect();
            matmul_tn_acc_into(got.data_mut(), m, n, &parts);
            assert_same_bits(got.data(), want.data(), &format!("tn_acc {m}x{ks:?}x{n}"));
            // No parts: not even a `-0.0` of the output moves.
            let mut untouched = seed.clone();
            matmul_tn_acc_into(untouched.data_mut(), m, n, &[]);
            assert_same_bits(untouched.data(), seed.data(), "no parts");
        }
        matmul_tn_acc_into(&mut [], 0, 4, &[(&[], &[0.0; 8])]); // zero rows
    }

    #[test]
    fn tensor_matmul_dispatches_on_quantized_rhs() {
        let a = pseudo(&[5, 12], 91);
        let b = pseudo(&[12, 20], 92);
        let qb = b.quantize_i8();
        let via_dispatch = matmul(&a, &qb);
        let via_dequant = matmul(&a, &qb.dequantize());
        assert_eq!(via_dispatch, via_dequant);
    }

    #[test]
    fn tensor_matmul_nt_dequantizes_quantized_operands() {
        let a = pseudo(&[5, 12], 93);
        let b = pseudo(&[9, 12], 94);
        let qb = b.quantize_i8();
        assert_eq!(matmul_nt(&a, &qb), matmul_nt(&a, &qb.dequantize()));
    }

    #[test]
    fn gather_q8_matches_dequantized_index_select() {
        let table = pseudo(&[7, 37], 95); // cols span two blocks, with remainder
        let qt = table.quantize_i8();
        let q = qt.quantized().expect("quantized storage");
        for idx in [&[6usize, 0, 3, 6][..], &[]] {
            let mut out = vec![f32::NAN; idx.len() * 37];
            gather_rows_q8_into(q, idx, &mut out);
            // Element at a time from the raw blocks: `q as f32 * scale`.
            let mut want = Vec::new();
            for &i in idx {
                for j in 0..37 {
                    let scale = q.scales()[i * q.blocks_per_row() + j / QBLOCK];
                    want.push(q.quants()[i * 37 + j] as f32 * scale);
                }
            }
            assert_same_bits(&out, &want, &format!("rows {idx:?}"));
        }
    }
}
