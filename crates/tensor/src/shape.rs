//! Shape and broadcasting utilities.

use std::fmt;

/// Error raised when tensor shapes are incompatible for an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    message: String,
}

impl ShapeError {
    /// Create a new shape error with a human-readable message.
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape error: {}", self.message)
    }
}

impl std::error::Error for ShapeError {}

/// Total number of elements implied by a shape.
pub fn num_elements(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Row-major strides for a shape.
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0usize; shape.len()];
    let mut acc = 1usize;
    for (stride, &dim) in strides.iter_mut().rev().zip(shape.iter().rev()) {
        *stride = acc;
        acc *= dim;
    }
    strides
}

/// NumPy-style broadcast of two shapes.
///
/// Shorter shapes are virtually left-padded with 1s; each dimension pair must
/// be equal or one of them must be 1.
pub fn broadcast_shape(a: &[usize], b: &[usize]) -> Result<Vec<usize>, ShapeError> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = if i < rank - a.len() { 1 } else { a[i - (rank - a.len())] };
        let db = if i < rank - b.len() { 1 } else { b[i - (rank - b.len())] };
        out[i] = match (da, db) {
            (x, y) if x == y => x,
            (1, y) => y,
            (x, 1) => x,
            _ => {
                return Err(ShapeError::new(format!(
                    "cannot broadcast shapes {a:?} and {b:?} (dim {i}: {da} vs {db})"
                )))
            }
        };
    }
    Ok(out)
}

/// Strides for reading a tensor of shape `shape` as if it had the (broadcast)
/// shape `target`: broadcast dimensions get stride 0.
pub fn broadcast_strides(shape: &[usize], target: &[usize]) -> Vec<usize> {
    let base = strides_for(shape);
    let offset = target.len() - shape.len();
    let mut out = vec![0usize; target.len()];
    for i in 0..shape.len() {
        out[i + offset] = if shape[i] == 1 && target[i + offset] != 1 { 0 } else { base[i] };
    }
    out
}

/// Whether broadcasting `small` against `big` only cycles `small`'s
/// elements over `big`'s: `small` has no more axes than `big` and, leading
/// 1s aside, exactly `big`'s trailing ones — a `[d]` bias or `[1, d]` row
/// over `[n, d]`, an `[n, n]` mask over `[h, n, n]`, a scalar over
/// anything. The broadcast then has `big`'s shape and its element `i` pairs
/// `big[i]` with `small[i % small.len()]`. An empty `small` never cycles.
pub fn cycles_over(small: &[usize], big: &[usize]) -> bool {
    let tail = &small[small.iter().take_while(|&&d| d == 1).count()..];
    small.len() <= big.len() && big.ends_with(tail) && num_elements(small) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_over_is_a_trailing_axes_match() {
        for (small, big) in [
            (&[6][..], &[4, 6][..]),
            (&[1, 6], &[4, 6]),
            (&[1], &[4, 6]),
            (&[], &[4, 6]),
            (&[1, 1], &[4, 6]),
            (&[4, 4], &[3, 4, 4]),
            (&[3], &[0, 3]),
        ] {
            assert!(cycles_over(small, big), "{small:?} over {big:?}");
        }
        for (small, big) in [
            (&[4, 1][..], &[4, 6][..]), // a column, not a row
            (&[1, 1, 6], &[4, 6]),      // the result gains an axis
            (&[4, 6], &[6]),            // the other way round
            (&[2, 1, 6], &[2, 4, 6]),   // a broadcast axis in the middle
            (&[0], &[3, 0]),
        ] {
            assert!(!cycles_over(small, big), "{small:?} over {big:?}");
        }
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn num_elements_product() {
        assert_eq!(num_elements(&[2, 3, 4]), 24);
        assert_eq!(num_elements(&[]), 1);
        assert_eq!(num_elements(&[0, 7]), 0);
    }

    #[test]
    fn broadcast_equal_shapes() {
        assert_eq!(broadcast_shape(&[2, 3], &[2, 3]).unwrap(), vec![2, 3]);
    }

    #[test]
    fn broadcast_pads_left() {
        assert_eq!(broadcast_shape(&[4, 2, 3], &[2, 3]).unwrap(), vec![4, 2, 3]);
        assert_eq!(broadcast_shape(&[3], &[2, 3]).unwrap(), vec![2, 3]);
    }

    #[test]
    fn broadcast_ones_expand() {
        assert_eq!(broadcast_shape(&[2, 1, 3], &[1, 5, 3]).unwrap(), vec![2, 5, 3]);
    }

    #[test]
    fn broadcast_incompatible_is_error() {
        assert!(broadcast_shape(&[2, 3], &[4, 3]).is_err());
        assert!(broadcast_shape(&[2], &[3]).is_err());
    }

    #[test]
    fn broadcast_strides_zero_on_expanded_dims() {
        assert_eq!(broadcast_strides(&[1, 3], &[2, 2, 3]), vec![0, 0, 1]);
        assert_eq!(broadcast_strides(&[2, 3], &[2, 3]), vec![3, 1]);
    }
}
