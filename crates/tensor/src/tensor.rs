//! The dense row-major tensor over a typed [`Storage`].
//!
//! A tensor has no wire format of its own: the one on-disk encoding is
//! `turl_nn`'s artifact codec, built on the typed accessors below.

use crate::dtype::{quant_rows_cols, DType, QuantBlocks, Storage};
use crate::ops;
use crate::shape::{
    broadcast_shape, broadcast_strides, cycles_over, num_elements, strides_for, ShapeError,
};

/// A dense, row-major, heap-allocated tensor of arbitrary rank.
///
/// The backing buffer is a [`Storage`]: plain `f32` (the only
/// representation autograd and training ever produce — every method
/// below keeps its exact pre-storage-split semantics there) or
/// block-quantized int8 weights for the inference path. The `f32`
/// accessors ([`data`](Tensor::data), [`data_mut`](Tensor::data_mut),
/// [`into_data`](Tensor::into_data)) are *typed*: they panic on
/// quantized storage instead of silently dequantizing, so a quantized
/// tensor can never leak into a training-path kernel. Inference kernels
/// branch on [`dtype`](Tensor::dtype) and read quantized weights through
/// [`quantized`](Tensor::quantized).
///
/// All operations allocate fresh output tensors; in-place variants are
/// provided where they matter for hot loops (gradient accumulation,
/// optimizer updates). Softmax, permute, row gather and concatenation
/// fill theirs with the [`crate::ops`] kernel the plan executor calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    storage: Storage,
}

impl Tensor {
    /// Build a tensor from a shape and backing data (length must match).
    ///
    /// # Panics
    /// Panics if `data.len() != product(shape)`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        assert_eq!(
            num_elements(&shape),
            data.len(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self { shape, storage: Storage::F32(data) }
    }

    /// A tensor holding a copy of `data` (length must match).
    ///
    /// # Panics
    /// Panics if `data.len() != product(shape)`.
    pub fn from_slice(shape: Vec<usize>, data: &[f32]) -> Self {
        Self::from_vec(shape, data.to_vec())
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: Vec<usize>) -> Self {
        Self::full(shape, 0.0)
    }

    /// A tensor filled with ones.
    pub fn ones(shape: Vec<usize>) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with a constant value.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let n = num_elements(&shape);
        Self { shape, storage: Storage::F32(vec![value; n]) }
    }

    /// A rank-0-like scalar represented as shape `[1]`.
    pub fn scalar(value: f32) -> Self {
        Self { shape: vec![1], storage: Storage::F32(vec![value]) }
    }

    /// Wrap block-quantized storage (shape must match the block layout of
    /// [`quant_rows_cols`]).
    ///
    /// # Panics
    /// Panics if `blocks` does not hold `product(shape)` elements split
    /// as `quant_rows_cols(shape)`.
    pub fn from_quantized(shape: Vec<usize>, blocks: QuantBlocks) -> Self {
        let (rows, cols) = quant_rows_cols(&shape);
        assert_eq!(
            (blocks.rows(), blocks.cols()),
            (rows, cols),
            "quantized block layout does not match shape {shape:?}"
        );
        Self { shape, storage: Storage::I8Block(blocks) }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// Element type of the backing storage.
    pub fn dtype(&self) -> DType {
        self.storage.dtype()
    }

    /// Bytes occupied by the backing storage.
    pub fn byte_len(&self) -> usize {
        self.storage.byte_len()
    }

    /// The dense `f32` buffer, panicking on quantized storage — see the
    /// type-level docs for the accessor discipline.
    #[track_caller]
    fn f32s(&self) -> &Vec<f32> {
        match &self.storage {
            Storage::F32(d) => d,
            Storage::I8Block(_) => panic!(
                "f32 accessor on a {} tensor {:?}; use dequantize()/quantized()",
                self.dtype(),
                self.shape
            ),
        }
    }

    #[track_caller]
    fn f32s_mut(&mut self) -> &mut Vec<f32> {
        match &mut self.storage {
            Storage::F32(d) => d,
            Storage::I8Block(_) => panic!(
                "mutable f32 accessor on a quantized tensor {:?}; quantized storage is immutable",
                self.shape
            ),
        }
    }

    /// Read-only view of the backing buffer (row-major).
    ///
    /// # Panics
    /// Panics on quantized storage; use [`as_f32`](Tensor::as_f32) /
    /// [`quantized`](Tensor::quantized) to branch on dtype instead.
    #[track_caller]
    pub fn data(&self) -> &[f32] {
        self.f32s()
    }

    /// Mutable view of the backing buffer (row-major).
    ///
    /// # Panics
    /// Panics on quantized storage (it is immutable by construction).
    #[track_caller]
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.f32s_mut()
    }

    /// Consume the tensor, returning its backing buffer.
    ///
    /// # Panics
    /// Panics on quantized storage.
    #[track_caller]
    pub fn into_data(self) -> Vec<f32> {
        match self.storage {
            Storage::F32(d) => d,
            Storage::I8Block(_) => {
                panic!("into_data on a quantized tensor {:?}; use dequantize()", self.shape)
            }
        }
    }

    /// Non-panicking dense view: `Some` only for `f32` storage.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match &self.storage {
            Storage::F32(d) => Some(d),
            Storage::I8Block(_) => None,
        }
    }

    /// The quantized blocks: `Some` only for `I8Block` storage.
    pub fn quantized(&self) -> Option<&QuantBlocks> {
        match &self.storage {
            Storage::F32(_) => None,
            Storage::I8Block(q) => Some(q),
        }
    }

    /// Block-quantize into an int8 tensor of the same shape (rows along
    /// the leading axis; see [`QuantBlocks`]). `f32` input required.
    pub fn quantize_i8(&self) -> Tensor {
        let (rows, cols) = quant_rows_cols(&self.shape);
        let blocks = QuantBlocks::quantize(rows, cols, self.f32s());
        Tensor { shape: self.shape.clone(), storage: Storage::I8Block(blocks) }
    }

    /// Dense `f32` copy of this tensor (identity for `f32` storage).
    pub fn dequantize(&self) -> Tensor {
        match &self.storage {
            Storage::F32(_) => self.clone(),
            Storage::I8Block(q) => Tensor::from_vec(self.shape.clone(), q.dequantize()),
        }
    }

    /// Extract the single element of a scalar-like tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        let data = self.f32s();
        assert_eq!(data.len(), 1, "item() on tensor with shape {:?}", self.shape);
        data[0]
    }

    /// Element at a 2-D index.
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.f32s()[i * self.shape[1] + j]
    }

    /// Set element at a 2-D index.
    pub fn set2(&mut self, i: usize, j: usize, v: f32) {
        debug_assert_eq!(self.rank(), 2);
        let idx = i * self.shape[1] + j;
        self.f32s_mut()[idx] = v;
    }

    /// Row `i` of a 2-D tensor as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert_eq!(self.rank(), 2);
        let w = self.shape[1];
        &self.f32s()[i * w..(i + 1) * w]
    }

    /// Mutable row `i` of a 2-D tensor.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert_eq!(self.rank(), 2);
        let w = self.shape[1];
        &mut self.f32s_mut()[i * w..(i + 1) * w]
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(&self, shape: Vec<usize>) -> Result<Tensor, ShapeError> {
        if num_elements(&shape) != self.len() {
            return Err(ShapeError::new(format!(
                "cannot reshape {:?} ({} elems) to {:?}",
                self.shape,
                self.len(),
                shape
            )));
        }
        Ok(Tensor::from_slice(shape, self.f32s()))
    }

    /// Apply a function elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.f32s().iter().map(|&x| f(x)).collect();
        Tensor { shape: self.shape.clone(), storage: Storage::F32(data) }
    }

    /// Apply a function elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.f32s_mut() {
            *x = f(*x);
        }
    }

    /// `self += other` (shapes must match exactly).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        let src = other.f32s();
        for (a, b) in self.f32s_mut().iter_mut().zip(src.iter()) {
            *a += b;
        }
    }

    /// `self += alpha * other` (shapes must match exactly).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        let src = other.f32s();
        for (a, b) in self.f32s_mut().iter_mut().zip(src.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiply every element by a scalar, in place.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for x in self.f32s_mut() {
            *x *= alpha;
        }
    }

    /// Fill with zeros, keeping the allocation.
    pub fn zero_(&mut self) {
        self.f32s_mut().iter_mut().for_each(|x| *x = 0.0);
    }

    /// Elementwise binary op with NumPy broadcasting.
    ///
    /// Equal shapes and row broadcasts (`[.., d] ∘ [d]`: a bias, a scalar,
    /// a mask over heads — `cycles_over`) pair whole slices; every other
    /// shape walks a multi-index. Which path runs never shows: each output
    /// element is `f` of the same two inputs either way.
    pub fn broadcast_zip(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, ShapeError> {
        let (sdata, odata) = (self.f32s(), other.f32s());
        if self.shape == other.shape {
            let data = sdata.iter().zip(odata.iter()).map(|(&a, &b)| f(a, b)).collect();
            return Ok(Tensor { shape: self.shape.clone(), storage: Storage::F32(data) });
        }
        if cycles_over(&other.shape, &self.shape) {
            let data = zip_cycled(sdata, odata, &f);
            return Ok(Tensor { shape: self.shape.clone(), storage: Storage::F32(data) });
        }
        if cycles_over(&self.shape, &other.shape) {
            let data = zip_cycled(odata, sdata, |b, a| f(a, b));
            return Ok(Tensor { shape: other.shape.clone(), storage: Storage::F32(data) });
        }
        let out_shape = broadcast_shape(&self.shape, &other.shape)?;
        let sa = broadcast_strides(&self.shape, &out_shape);
        let sb = broadcast_strides(&other.shape, &out_shape);
        let n = num_elements(&out_shape);
        let mut data = Vec::with_capacity(n);
        let mut idx = vec![0usize; out_shape.len()];
        let mut off_a = 0usize;
        let mut off_b = 0usize;
        for _ in 0..n {
            data.push(f(sdata[off_a], odata[off_b]));
            // advance multi-index (row-major)
            for d in (0..out_shape.len()).rev() {
                idx[d] += 1;
                off_a += sa[d];
                off_b += sb[d];
                if idx[d] < out_shape[d] {
                    break;
                }
                idx[d] = 0;
                off_a -= sa[d] * out_shape[d];
                off_b -= sb[d] * out_shape[d];
            }
        }
        Ok(Tensor { shape: out_shape, storage: Storage::F32(data) })
    }

    /// Sum a gradient tensor down to `target` shape (undoes broadcasting).
    ///
    /// Undoing a row broadcast (`[.., d] → [d]`, `cycles_over`) adds whole
    /// rows in ascending row order — the order the general multi-index
    /// walk reaches each target element in, so the paths agree bit for bit.
    pub fn reduce_to_shape(&self, target: &[usize]) -> Tensor {
        if self.shape == target {
            return self.clone();
        }
        let sdata = self.f32s();
        let mut reduced = Tensor::zeros(target.to_vec());
        let out = reduced.f32s_mut();
        if cycles_over(target, &self.shape) {
            for row in sdata.chunks(out.len()) {
                for (o, &x) in out.iter_mut().zip(row.iter()) {
                    *o += x;
                }
            }
            return reduced;
        }
        let st = broadcast_strides(target, &self.shape);
        let mut idx = vec![0usize; self.shape.len()];
        let mut off_t = 0usize;
        for &x in sdata.iter() {
            out[off_t] += x;
            for d in (0..self.shape.len()).rev() {
                idx[d] += 1;
                off_t += st[d];
                if idx[d] < self.shape[d] {
                    break;
                }
                idx[d] = 0;
                off_t -= st[d] * self.shape[d];
            }
        }
        reduced
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.f32s().iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.f32s().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.f32s().iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// L2 norm of the whole tensor.
    pub fn norm(&self) -> f32 {
        self.f32s().iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True if every element is finite (quantized tensors always are:
    /// their scales are validated finite and int8 values are bounded).
    pub fn all_finite(&self) -> bool {
        match &self.storage {
            Storage::F32(d) => d.iter().all(|x| x.is_finite()),
            Storage::I8Block(_) => true,
        }
    }

    /// Permute axes (generic rank). `axes` must be a permutation of `0..rank`.
    pub fn permute(&self, axes: &[usize]) -> Tensor {
        assert_eq!(axes.len(), self.rank(), "permute axes rank mismatch");
        let mut seen = vec![false; axes.len()];
        for &a in axes {
            assert!(a < axes.len() && !seen[a], "invalid permutation {axes:?}");
            seen[a] = true;
        }
        let old_strides = strides_for(&self.shape);
        let new_shape: Vec<usize> = axes.iter().map(|&a| self.shape[a]).collect();
        let read_strides: Vec<usize> = axes.iter().map(|&a| old_strides[a]).collect();
        let mut out = Tensor::zeros(new_shape.clone());
        ops::copy_strided_into(self.f32s(), out.f32s_mut(), &new_shape, &read_strides);
        out
    }

    /// Transpose of a 2-D tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        self.permute(&[1, 0])
    }

    /// Select rows of a 2-D tensor (gather along axis 0). Quantized
    /// tables dequantize the gathered rows (the block layout is
    /// row-aligned, so a row's reconstruction is independent of which
    /// other rows are selected); the result is always dense `f32`. An
    /// index past the last row panics.
    pub fn index_select0(&self, indices: &[usize]) -> Tensor {
        assert!(self.rank() >= 1);
        let row_len: usize = self.shape[1..].iter().product();
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(&self.shape[1..]);
        let mut out = Tensor::zeros(shape);
        match &self.storage {
            Storage::F32(sdata) => ops::gather_rows_into(sdata, row_len, indices, out.f32s_mut()),
            Storage::I8Block(q) => ops::gather_rows_q8_into(q, indices, out.f32s_mut()),
        }
        out
    }

    /// Concatenate 2-D tensors along the last axis.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let rows = parts[0].shape[0];
        for p in parts {
            assert_eq!(p.rank(), 2);
            assert_eq!(p.shape[0], rows, "concat_cols row mismatch");
        }
        let total: usize = parts.iter().map(|p| p.shape[1]).sum();
        let mut out = Tensor::zeros(vec![rows, total]);
        ops::concat_cols_into(parts.iter().map(|p| (p.data(), p.shape[1])), rows, out.f32s_mut());
        out
    }

    /// Stack 1-D tensors of equal length into a 2-D tensor (one per row).
    pub fn stack_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let w = parts[0].len();
        for p in parts {
            assert_eq!(p.len(), w, "stack_rows length mismatch");
        }
        let mut out = Tensor::zeros(vec![parts.len(), w]);
        ops::concat_rows_into(parts.iter().map(|p| p.data()), out.f32s_mut());
        out
    }

    /// Softmax along the last axis, numerically stabilized.
    pub fn softmax_last(&self) -> Tensor {
        let mut out = self.clone();
        let w = *self.shape.last().expect("softmax on rank-0 tensor");
        for row in out.f32s_mut().chunks_mut(w) {
            ops::softmax_row_inplace(row);
        }
        out
    }
}

/// `f(big[i], small[i % small.len()])` for every `i`, a whole `small`-long
/// row at a time (`small` non-empty).
fn zip_cycled(big: &[f32], small: &[f32], f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    let mut data = Vec::with_capacity(big.len());
    for row in big.chunks(small.len()) {
        data.extend(row.iter().zip(small.iter()).map(|(&x, &y)| f(x, y)));
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.row(0), &[1., 2., 3.]);
        assert_eq!(t.dtype(), DType::F32);
        assert_eq!(t.byte_len(), 24);
    }

    #[test]
    #[should_panic]
    fn bad_length_panics() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn broadcast_add_bias() {
        let x = Tensor::from_vec(vec![2, 3], vec![0., 0., 0., 1., 1., 1.]);
        let b = Tensor::from_vec(vec![3], vec![10., 20., 30.]);
        let y = x.broadcast_zip(&b, |a, b| a + b).unwrap();
        assert_eq!(y.data(), &[10., 20., 30., 11., 21., 31.]);
    }

    #[test]
    fn broadcast_3d_mask() {
        // [2,2,2] + [2,2] broadcasts the mask over the leading (head) dim.
        let s = Tensor::from_vec(vec![2, 2, 2], vec![1.; 8]);
        let m = Tensor::from_vec(vec![2, 2], vec![0., -1., -1., 0.]);
        let y = s.broadcast_zip(&m, |a, b| a + b).unwrap();
        assert_eq!(y.data(), &[1., 0., 0., 1., 1., 0., 0., 1.]);
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_dims() {
        let g = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = g.reduce_to_shape(&[3]);
        assert_eq!(r.data(), &[5., 7., 9.]);
        let r0 = g.reduce_to_shape(&[2, 1]);
        assert_eq!(r0.data(), &[6., 15.]);
    }

    /// `broadcast_zip` one output element at a time: its multi-index,
    /// then each operand's offset with broadcast axes pinned to 0.
    fn naive_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let shape = broadcast_shape(a.shape(), b.shape()).unwrap();
        let offset = |t: &Tensor, i: usize| {
            let (mut rem, mut off, mut stride) = (i, 0, 1);
            for d in (0..shape.len()).rev() {
                let (coord, lead) = (rem % shape[d], shape.len() - t.rank());
                rem /= shape[d];
                if d >= lead {
                    let extent = t.shape()[d - lead];
                    off += if extent == 1 { 0 } else { coord * stride };
                    stride *= extent;
                }
            }
            off
        };
        let n = num_elements(&shape);
        let data = (0..n).map(|i| f(a.data()[offset(a, i)], b.data()[offset(b, i)])).collect();
        Tensor::from_vec(shape, data)
    }

    /// Bitwise equality, except that a NaN only has to be a NaN (which
    /// operand's payload an add keeps is the compiler's choice).
    fn assert_same_bits(got: &Tensor, want: &Tensor, ctx: &str) {
        assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            let ok = if w.is_nan() { g.is_nan() } else { g.to_bits() == w.to_bits() };
            assert!(ok, "{ctx}: element {i}: got {g:e}, want {w:e}");
        }
    }

    #[test]
    fn row_broadcast_fast_paths_match_the_multi_index_walk() {
        // Signed zeros (`-0.0 + -0.0` keeps its sign, `0.0 + -0.0` does
        // not), a subnormal, an infinity and NaN among ordinary values.
        let specials = [0.0, -0.0, 1e-40, f32::INFINITY, f32::NAN, -0.0];
        let spiked = |shape: &[usize], seed: usize| {
            let n = num_elements(shape);
            let data = (0..n)
                .map(|i| match (i + seed) % 4 {
                    0 => specials[(i / 4 + seed) % specials.len()],
                    _ => ((i * 37 + seed * 11) % 17) as f32 * 0.25 - 2.0,
                })
                .collect();
            Tensor::from_vec(shape.to_vec(), data)
        };
        // A bias, a scalar (rank 1 and rank 0), leading 1s, rank 3 under a
        // vector and under a matrix — all row broadcasts; then a column,
        // a gained axis and a middle axis, which the walk still serves.
        let cases: [(&[usize], &[usize]); 10] = [
            (&[4, 6], &[6]),
            (&[4, 6], &[1]),
            (&[4, 6], &[]),
            (&[4, 6], &[1, 6]),
            (&[2, 3, 5], &[1, 1, 5]),
            (&[2, 3, 5], &[5]),
            (&[3, 4, 4], &[4, 4]),
            (&[4, 6], &[4, 1]),
            (&[4, 6], &[1, 1, 6]),
            (&[2, 4, 6], &[2, 1, 6]),
        ];
        for (big, small) in cases {
            let (a, b) = (spiked(big, 1), spiked(small, 2));
            let ctx = format!("{big:?} with {small:?}");
            for (x, y) in [(&a, &b), (&b, &a)] {
                let add = x.broadcast_zip(y, |p, q| p + q).unwrap();
                assert_same_bits(&add, &naive_zip(x, y, |p, q| p + q), &format!("{ctx}: add"));
                let sub = x.broadcast_zip(y, |p, q| p - q).unwrap();
                assert_same_bits(&sub, &naive_zip(x, y, |p, q| p - q), &format!("{ctx}: sub"));
            }
            // Undoing the broadcast: every element of the gradient added
            // to its target cell in row-major order, from `+0.0`.
            let g = spiked(&broadcast_shape(big, small).unwrap(), 3);
            let mut want = Tensor::zeros(small.to_vec());
            let strides = broadcast_strides(small, g.shape());
            for i in 0..g.len() {
                let (mut rem, mut off) = (i, 0);
                for d in (0..g.rank()).rev() {
                    off += rem % g.shape()[d] * strides[d];
                    rem /= g.shape()[d];
                }
                want.data_mut()[off] += g.data()[i];
            }
            assert_same_bits(&g.reduce_to_shape(small), &want, &format!("{ctx}: reduce"));
        }
        // Zero rows: nothing to pair, nothing to sum.
        let (none, bias) = (Tensor::zeros(vec![0, 3]), spiked(&[3], 4));
        assert_eq!(none.broadcast_zip(&bias, |p, q| p + q).unwrap().shape(), &[0, 3]);
        assert_eq!(none.reduce_to_shape(&[3]).data(), &[0.0; 3]);
    }

    #[test]
    fn permute_roundtrip() {
        let t = Tensor::from_vec(vec![2, 3, 4], (0..24).map(|x| x as f32).collect());
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        let back = p.permute(&[1, 2, 0]);
        assert_eq!(back, t);
    }

    #[test]
    fn transpose2_matches_manual() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let tt = t.transpose2();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.data(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn index_select_gathers_rows() {
        let t = Tensor::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let s = t.index_select0(&[2, 0, 2]);
        assert_eq!(s.shape(), &[3, 2]);
        assert_eq!(s.data(), &[5., 6., 1., 2., 5., 6.]);
    }

    #[test]
    fn concat_cols_works() {
        let a = Tensor::from_vec(vec![2, 1], vec![1., 2.]);
        let b = Tensor::from_vec(vec![2, 2], vec![3., 4., 5., 6.]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[1., 3., 4., 2., 5., 6.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., -1., 0., 1.]);
        let s = t.softmax_last();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_neg_inf_mask() {
        let t = Tensor::from_vec(vec![1, 3], vec![0., f32::NEG_INFINITY, 0.]);
        let s = t.softmax_last();
        assert!((s.data()[0] - 0.5).abs() < 1e-6);
        assert_eq!(s.data()[1], 0.0);
    }

    #[test]
    fn argmax_and_norm() {
        let t = Tensor::from_vec(vec![4], vec![0., 3., -5., 1.]);
        assert_eq!(t.argmax(), 1);
        assert!((t.norm() - (35.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn quantize_roundtrip_through_tensor() {
        let t = Tensor::from_vec(vec![4, 8], (0..32).map(|i| (i as f32 - 16.0) * 0.5).collect());
        let q = t.quantize_i8();
        assert_eq!(q.dtype(), DType::I8Block);
        assert_eq!(q.shape(), t.shape());
        assert_eq!(q.len(), t.len());
        assert!(q.byte_len() < t.byte_len());
        let d = q.dequantize();
        assert_eq!(d.dtype(), DType::F32);
        for (a, b) in t.data().iter().zip(d.data().iter()) {
            assert!((a - b).abs() <= 0.1, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "f32 accessor")]
    fn dense_accessor_panics_on_quantized() {
        let t = Tensor::ones(vec![2, 4]).quantize_i8();
        let _ = t.data();
    }

    #[test]
    fn quantized_index_select_matches_dequantized() {
        let t = Tensor::from_vec(vec![5, 6], (0..30).map(|i| (i as f32).sin()).collect());
        let q = t.quantize_i8();
        let a = q.index_select0(&[4, 0, 2]);
        let b = q.dequantize().index_select0(&[4, 0, 2]);
        assert_eq!(a, b);
    }
}
