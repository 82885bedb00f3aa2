//! The `DType` / `Storage` layer under [`Tensor`](crate::Tensor).
//!
//! A tensor's backing buffer is a [`Storage`]: either dense little-endian
//! `f32` on the heap (the only representation the autograd/training path
//! ever sees), or [`QuantBlocks`] — symmetric int8 block quantization with
//! one `f32` scale per [`QBLOCK`]-element block, the inference-only weight
//! format behind `turl export` artifacts.
//!
//! # Quantization scheme
//!
//! Values are quantized **per row**: every logical row of a tensor (the
//! leading axis; rank-1 tensors are one row) starts a fresh block
//! sequence, so a row can be dequantized without touching its neighbours
//! and gather/matmul kernels never cross a row boundary inside a block.
//! For each block of up to [`QBLOCK`] consecutive elements:
//!
//! ```text
//! amax  = max |x| over the block          (0.0 for all-zero blocks)
//! scale = amax / 127                      (clamped up to f32::MIN_POSITIVE
//!                                          when the quotient would be
//!                                          subnormal or zero with amax > 0)
//! q     = clamp(round(x / scale), -127, 127) as i8
//! x̂     = q as f32 * scale
//! ```
//!
//! The representable range is symmetric (`-128` is never produced), the
//! dequantized magnitude never exceeds the block's `amax`, and the
//! per-element reconstruction error is bounded by
//!
//! ```text
//! |x - x̂| ≤ scale / 2       (+ two f32 roundings, ≤ ~1e-5 · scale)
//! ```
//!
//! with exact reconstruction for all-zero blocks (including `-0.0`, which
//! dequantizes to `+0.0`). Subnormal blocks fall into the
//! `f32::MIN_POSITIVE` clamp and keep the same bound. The
//! `quant_properties` test suite drives adversarial distributions
//! (subnormals, `-0.0`, constant blocks) against this bound.

use crate::shape::num_elements;

/// Elements per quantization block. A power of two so kernels can locate
/// a block with a shift, and a multiple of the matmul microkernel's
/// column tile (`NR = 8`) so an aligned 8-wide panel never straddles two
/// blocks (one scale load per panel per `k` step).
pub const QBLOCK: usize = 32;

/// `log2(QBLOCK)`: block index of column `c` is `c >> QBLOCK_SHIFT`.
pub const QBLOCK_SHIFT: u32 = 5;

/// Element type of a tensor's backing storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// Dense 32-bit floats — the training representation.
    F32,
    /// Symmetric int8, block-quantized with per-block `f32` scales
    /// ([`QBLOCK`] elements per block) — inference-only weights.
    I8Block,
}

impl DType {
    /// Stable wire/display name (`f32` / `i8b32`).
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::I8Block => "i8b32",
        }
    }

    /// Parse a wire/display name produced by [`DType::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(DType::F32),
            "i8b32" => Some(DType::I8Block),
            _ => None,
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Block-quantized int8 values with per-block `f32` scales.
///
/// Layout is row-major and row-aligned: `quants` holds `rows * cols`
/// int8 values, `scales` holds `rows * blocks_per_row` floats where
/// `blocks_per_row = ceil(cols / QBLOCK)`. The scale of element
/// `(r, c)` is `scales[r * blocks_per_row + (c >> QBLOCK_SHIFT)]`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantBlocks {
    rows: usize,
    cols: usize,
    scales: Vec<f32>,
    quants: Vec<i8>,
}

/// Scale for a block whose max-magnitude element is `amax`.
fn block_scale(amax: f32) -> f32 {
    if amax == 0.0 {
        return 0.0;
    }
    let s = amax / 127.0;
    // A subnormal (or underflowed-to-zero) quotient would make 1/s blow
    // up; clamping to the smallest normal keeps q ≤ 127 (amax is below
    // 127 * MIN_POSITIVE in this branch) and the error ≤ scale / 2.
    if s.is_normal() {
        s
    } else {
        f32::MIN_POSITIVE
    }
}

impl QuantBlocks {
    /// Quantize a dense row-major `[rows, cols]` buffer.
    ///
    /// # Panics
    /// Panics if `src.len() != rows * cols` or any value is non-finite.
    pub fn quantize(rows: usize, cols: usize, src: &[f32]) -> Self {
        assert_eq!(src.len(), rows * cols, "quantize: src length != rows * cols");
        let bpr = cols.div_ceil(QBLOCK);
        let mut scales = Vec::with_capacity(rows * bpr);
        let mut quants = Vec::with_capacity(rows * cols);
        for row in src.chunks(cols.max(1)).take(rows) {
            for block in row.chunks(QBLOCK) {
                let mut amax = 0.0f32;
                for &x in block {
                    assert!(x.is_finite(), "quantize: non-finite value {x}");
                    amax = amax.max(x.abs());
                }
                let scale = block_scale(amax);
                scales.push(scale);
                if scale == 0.0 {
                    quants.extend(std::iter::repeat_n(0i8, block.len()));
                } else {
                    for &x in block {
                        let q = (x / scale).round().clamp(-127.0, 127.0);
                        quants.push(q as i8);
                    }
                }
            }
        }
        Self { rows, cols, scales, quants }
    }

    /// Rebuild from stored parts (the artifact loader's entry point).
    /// Returns a description of the mismatch when lengths disagree.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        scales: Vec<f32>,
        quants: Vec<i8>,
    ) -> Result<Self, String> {
        let bpr = cols.div_ceil(QBLOCK);
        if scales.len() != rows * bpr {
            return Err(format!(
                "quantized [{rows}, {cols}]: expected {} scales, got {}",
                rows * bpr,
                scales.len()
            ));
        }
        if quants.len() != rows * cols {
            return Err(format!(
                "quantized [{rows}, {cols}]: expected {} quants, got {}",
                rows * cols,
                quants.len()
            ));
        }
        if let Some(s) = scales.iter().find(|s| !s.is_finite() || **s < 0.0) {
            return Err(format!("quantized [{rows}, {cols}]: invalid scale {s}"));
        }
        Ok(Self { rows, cols, scales, quants })
    }

    /// Number of logical rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Elements per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total logical element count.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scale blocks per row (`ceil(cols / QBLOCK)`).
    pub fn blocks_per_row(&self) -> usize {
        self.cols.div_ceil(QBLOCK)
    }

    /// The per-block scales, row-major.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The int8 values, row-major (`rows * cols`).
    pub fn quants(&self) -> &[i8] {
        &self.quants
    }

    /// Largest block scale — `[-127·s, 127·s]` bounds every dequantized
    /// value, which the audit range analysis uses as the quantized
    /// parameter interval.
    pub fn max_scale(&self) -> f32 {
        self.scales.iter().copied().fold(0.0, f32::max)
    }

    /// Bytes this storage occupies (quants + scales).
    pub fn byte_len(&self) -> usize {
        self.quants.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Dequantized value of element `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        let s = self.scales[r * self.blocks_per_row() + (c >> QBLOCK_SHIFT)];
        self.quants[r * self.cols + c] as f32 * s
    }

    /// Dequantize row `r` into `out` (`out.len() == cols`).
    pub fn dequantize_row_into(&self, r: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "dequantize_row_into: out length != cols");
        let bpr = self.blocks_per_row();
        let qrow = &self.quants[r * self.cols..(r + 1) * self.cols];
        let srow = &self.scales[r * bpr..r * bpr + bpr];
        for (b, (qs, os)) in qrow.chunks(QBLOCK).zip(out.chunks_mut(QBLOCK)).enumerate() {
            let s = srow[b];
            for (o, &q) in os.iter_mut().zip(qs.iter()) {
                *o = q as f32 * s;
            }
        }
    }

    /// Dequantize everything into `out` (`out.len() == len()`).
    fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "dequantize_into: out length != len");
        for (r, orow) in out.chunks_mut(self.cols.max(1)).take(self.rows).enumerate() {
            self.dequantize_row_into(r, orow);
        }
    }

    /// Dequantize into a fresh buffer.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len()];
        self.dequantize_into(&mut out);
        out
    }
}

/// A tensor's backing bytes. Heap-owned today; the layout of each variant
/// is flat and offset-addressable so a future loader can bind the same
/// representation over mapped artifact bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Storage {
    /// Dense row-major `f32` — everything autograd/training touches.
    F32(Vec<f32>),
    /// Block-quantized int8 weights (inference only).
    I8Block(QuantBlocks),
}

impl Storage {
    /// Element type of this storage.
    pub fn dtype(&self) -> DType {
        match self {
            Storage::F32(_) => DType::F32,
            Storage::I8Block(_) => DType::I8Block,
        }
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        match self {
            Storage::F32(d) => d.len(),
            Storage::I8Block(q) => q.len(),
        }
    }

    /// True when the storage holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes occupied by the backing buffers.
    pub fn byte_len(&self) -> usize {
        match self {
            Storage::F32(d) => d.len() * std::mem::size_of::<f32>(),
            Storage::I8Block(q) => q.byte_len(),
        }
    }
}

/// Row/col split used when quantizing a tensor of `shape`: the leading
/// axis indexes rows (rank-1 tensors are a single row), so embedding
/// tables and weight matrices quantize row-aligned.
pub fn quant_rows_cols(shape: &[usize]) -> (usize, usize) {
    if shape.len() < 2 {
        (1, num_elements(shape))
    } else {
        (shape[0], shape[1..].iter().product())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_within_half_scale() {
        let vals: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.37).collect();
        let q = QuantBlocks::quantize(1, vals.len(), &vals);
        let deq = q.dequantize();
        for (b, block) in vals.chunks(QBLOCK).enumerate() {
            let s = q.scales()[b];
            for (i, (&x, &y)) in block.iter().zip(&deq[b * QBLOCK..]).enumerate() {
                let err = (x - y).abs();
                assert!(err <= 0.5 * s * (1.0 + 1e-4), "block {b} elem {i}: err {err} scale {s}");
            }
        }
    }

    #[test]
    fn zero_and_negzero_blocks_are_exact() {
        let vals = vec![0.0f32, -0.0, 0.0, -0.0];
        let q = QuantBlocks::quantize(1, 4, &vals);
        assert_eq!(q.scales(), &[0.0]);
        assert!(q.dequantize().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn subnormal_blocks_keep_the_bound() {
        let tiny = f32::MIN_POSITIVE / 8.0; // subnormal
        let vals = vec![tiny, -tiny, tiny / 2.0, 0.0];
        let q = QuantBlocks::quantize(1, 4, &vals);
        let s = q.scales()[0];
        assert!(s > 0.0 && s.is_normal());
        for (&x, &y) in vals.iter().zip(q.dequantize().iter()) {
            assert!((x - y).abs() <= 0.5 * s * (1.0 + 1e-4));
        }
    }

    #[test]
    fn dequantized_magnitude_never_exceeds_block_amax() {
        let vals: Vec<f32> = (0..64).map(|i| ((i * 37) % 13) as f32 - 6.0).collect();
        let q = QuantBlocks::quantize(2, 32, &vals);
        for (row, chunk) in vals.chunks(32).enumerate() {
            let amax = chunk.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            let mut out = vec![0.0; 32];
            q.dequantize_row_into(row, &mut out);
            assert!(out.iter().all(|x| x.abs() <= amax));
        }
    }

    #[test]
    fn row_alignment_isolates_rows() {
        // 2 rows of 3 cols: blocks never straddle the row boundary.
        let vals = vec![100.0f32, 100.0, 100.0, 0.001, 0.001, 0.001];
        let q = QuantBlocks::quantize(2, 3, &vals);
        assert_eq!(q.scales().len(), 2);
        let deq = q.dequantize();
        // The small row keeps its own (small) scale: good precision.
        assert!((deq[3] - 0.001).abs() <= 0.5 * q.scales()[1]);
        assert!(q.scales()[1] < 1e-4);
    }

    #[test]
    fn from_parts_validates_lengths() {
        assert!(QuantBlocks::from_parts(1, 4, vec![1.0], vec![0; 4]).is_ok());
        assert!(QuantBlocks::from_parts(1, 4, vec![], vec![0; 4]).is_err());
        assert!(QuantBlocks::from_parts(1, 4, vec![1.0], vec![0; 3]).is_err());
        assert!(QuantBlocks::from_parts(1, 4, vec![f32::NAN], vec![0; 4]).is_err());
    }

    #[test]
    fn dtype_names_roundtrip() {
        for d in [DType::F32, DType::I8Block] {
            assert_eq!(DType::parse(d.name()), Some(d));
        }
        assert_eq!(DType::parse("f64"), None);
    }
}
