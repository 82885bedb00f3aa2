//! The one on-disk tensor encoding: a model artifact's payload and a
//! trainer checkpoint's tensor section are sequences of these records,
//! and nothing else in the workspace writes a tensor to a file.
//!
//! ```text
//! u16            name_len
//! name_len×u8    name (UTF-8)
//! u8             dtype tag        0 = f32, 1 = i8b32
//! u8             rank
//! rank×u32       dims
//! …zero pad to the next 64-byte boundary (relative to buffer start)…
//! f32 data:      len×f32          row-major
//! i8b32 data:    u32 rows, u32 cols,
//!                rows·⌈cols/32⌉×f32  per-block scales,
//!                rows·cols×i8        quantized values
//! ```
//!
//! Little-endian throughout. A non-finite f32 is refused in both
//! directions ([`SerializeError::NonFinite`]). Decoding trusts no length
//! it reads: each is checked against the bytes present before anything
//! is sliced or allocated, and a short buffer is a typed error.

use turl_tensor::{QuantBlocks, Tensor};

use crate::serialize::SerializeError;

/// Alignment (bytes, relative to buffer start) of a record's data.
pub(crate) const ALIGN: usize = 64;

const DTYPE_TAG_F32: u8 = 0;
const DTYPE_TAG_I8B32: u8 = 1;

pub(crate) fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append one tensor record to `buf`.
pub(crate) fn encode_tensor(
    buf: &mut Vec<u8>,
    name: &str,
    t: &Tensor,
) -> Result<(), SerializeError> {
    let name_len = u16::try_from(name.len()).map_err(|_| {
        SerializeError::InvalidState(format!("parameter name too long ({} bytes)", name.len()))
    })?;
    let rank = u8::try_from(t.shape().len()).map_err(|_| {
        SerializeError::InvalidState(format!("`{name}`: rank {} exceeds 255", t.shape().len()))
    })?;
    buf.extend_from_slice(&name_len.to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
    buf.push(if t.quantized().is_some() { DTYPE_TAG_I8B32 } else { DTYPE_TAG_F32 });
    buf.push(rank);
    for &d in t.shape() {
        let d = u32::try_from(d).map_err(|_| {
            SerializeError::InvalidState(format!("`{name}`: dim {d} overflows u32"))
        })?;
        push_u32(buf, d);
    }
    buf.resize(buf.len().next_multiple_of(ALIGN), 0);
    match t.quantized() {
        None => {
            buf.reserve(4 * t.len());
            for &x in t.data() {
                if !x.is_finite() {
                    return Err(SerializeError::NonFinite { param: name.to_string() });
                }
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        Some(q) => {
            push_u32(buf, q.rows() as u32);
            push_u32(buf, q.cols() as u32);
            for &s in q.scales() {
                buf.extend_from_slice(&s.to_le_bytes());
            }
            // i8 → u8 is a pure reinterpretation; two's complement
            // round-trips exactly through `as`.
            buf.extend(q.quants().iter().map(|&v| v as u8));
        }
    }
    Ok(())
}

/// Bounds-checked cursor over an encoded buffer.
pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SerializeError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            SerializeError::InvalidState(format!(
                "payload ends inside {what} (offset {})",
                self.pos
            ))
        })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, SerializeError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u16(&mut self, what: &str) -> Result<u16, SerializeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, SerializeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>, SerializeError> {
        let bytes = self.take(n.saturating_mul(4), what)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    pub(crate) fn align(&mut self) -> Result<(), SerializeError> {
        let target = self.pos.next_multiple_of(ALIGN);
        if target > self.buf.len() {
            return Err(SerializeError::InvalidState(
                "payload ends inside alignment padding".to_string(),
            ));
        }
        self.pos = target;
        Ok(())
    }

    /// Require that the last record ended exactly at the end of the buffer.
    pub(crate) fn finish(&self) -> Result<(), SerializeError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(SerializeError::InvalidState(format!(
                "{n} trailing bytes after the last tensor"
            ))),
        }
    }
}

/// Read one tensor record and its name.
pub(crate) fn decode_tensor(r: &mut Reader<'_>) -> Result<(String, Tensor), SerializeError> {
    let name_len = r.u16("tensor name length")? as usize;
    let name = std::str::from_utf8(r.take(name_len, "tensor name")?)
        .map_err(|_| SerializeError::InvalidState("tensor name is not UTF-8".to_string()))?
        .to_string();
    let tag = r.u8("dtype tag")?;
    let rank = r.u8("tensor rank")? as usize;
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(r.u32("tensor dim")? as usize);
    }
    let len = shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d)).ok_or_else(|| {
        SerializeError::InvalidState(format!("`{name}`: shape {shape:?} overflows"))
    })?;
    r.align()?;
    match tag {
        DTYPE_TAG_F32 => {
            let data = r.f32s(len, "f32 tensor data")?;
            if data.iter().any(|x| !x.is_finite()) {
                return Err(SerializeError::NonFinite { param: name });
            }
            Ok((name, Tensor::from_vec(shape, data)))
        }
        DTYPE_TAG_I8B32 => {
            let rows = r.u32("quant rows")? as usize;
            let cols = r.u32("quant cols")? as usize;
            if rows.checked_mul(cols) != Some(len) {
                return Err(SerializeError::InvalidState(format!(
                    "`{name}`: quantized layout {rows}×{cols} disagrees with shape {shape:?}"
                )));
            }
            let bpr = cols.div_ceil(turl_tensor::QBLOCK);
            let scales = r.f32s(rows * bpr, "quant scales")?;
            let quants: Vec<i8> =
                r.take(rows * cols, "quant values")?.iter().map(|&b| b as i8).collect();
            let blocks = QuantBlocks::from_parts(rows, cols, scales, quants)
                .map_err(|e| SerializeError::InvalidState(format!("`{name}`: {e}")))?;
            Ok((name, Tensor::from_quantized(shape, blocks)))
        }
        other => Err(SerializeError::InvalidState(format!("`{name}`: unknown dtype tag {other}"))),
    }
}
