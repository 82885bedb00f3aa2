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
//! …zero pad to the next 64-byte boundary (relative to payload start)…
//! f32 data:      len×f32          row-major
//! i8b32 data:    u32 rows, u32 cols,
//!                rows·⌈cols/32⌉×f32  per-block scales,
//!                rows·cols×i8        quantized values
//! ```
//!
//! Little-endian throughout. Records stream: [`Sink`] writes them
//! straight to the file, hashing and counting offsets as it goes, and
//! [`Source`] reads them back into each tensor's final storage, so
//! neither side ever holds the payload. [`record_len`] gives a record's
//! size from its shape alone, which is how a frame header states its
//! payload length before the payload is written. A non-finite f32 is
//! refused in both directions ([`SerializeError::NonFinite`]). Decoding
//! trusts no length it reads: each is checked against the payload bytes
//! left before anything is read or allocated, and a short payload is a
//! typed error.

use std::io::{Read, Write};
use turl_tensor::{QuantBlocks, Tensor, QBLOCK};

use crate::serialize::{fnv1a64, SerializeError, FNV_OFFSET};

/// Alignment (bytes, relative to payload start) of a record's data.
pub(crate) const ALIGN: usize = 64;

const DTYPE_TAG_F32: u8 = 0;
const DTYPE_TAG_I8B32: u8 = 1;

/// Bytes converted per chunk on either side: what bounds the memory of a
/// record in flight beyond its own tensor.
const CHUNK: usize = 64 * 1024;

/// How a record's data is stored: dense, or block-quantized as
/// `rows × cols`.
#[derive(Clone, Copy)]
pub(crate) enum Layout {
    F32,
    I8 { rows: usize, cols: usize },
}

impl Layout {
    /// How `t` is stored as it is.
    pub(crate) fn of(t: &Tensor) -> Self {
        t.quantized().map_or(Layout::F32, |q| Layout::I8 { rows: q.rows(), cols: q.cols() })
    }
}

/// Bytes of the record of a tensor named `name` of `shape` stored as
/// `layout`, starting `start` bytes into the payload (the pad before its
/// data depends on where it starts).
pub(crate) fn record_len(start: u64, name: &str, shape: &[usize], layout: Layout) -> u64 {
    let head = start + (2 + name.len() + 2 + 4 * shape.len()) as u64;
    let data = match layout {
        Layout::F32 => 4 * shape.iter().product::<usize>(),
        Layout::I8 { rows, cols } => 8 + 4 * rows * cols.div_ceil(QBLOCK) + rows * cols,
    };
    head.next_multiple_of(ALIGN as u64) + data as u64 - start
}

/// Where a payload is written: every byte goes to `out`, is hashed
/// (FNV-1a 64, the frame checksum) and counted, so a record's pad is
/// relative to the payload start whatever precedes it in the file.
pub(crate) struct Sink<W: Write> {
    out: W,
    pub(crate) pos: u64,
    pub(crate) hash: u64,
}

impl<W: Write> Sink<W> {
    pub(crate) fn new(out: W) -> Self {
        Self { out, pos: 0, hash: FNV_OFFSET }
    }

    pub(crate) fn put(&mut self, bytes: &[u8]) -> Result<(), SerializeError> {
        self.hash = fnv1a64(self.hash, bytes);
        self.pos += bytes.len() as u64;
        self.out.write_all(bytes)?;
        Ok(())
    }

    pub(crate) fn put_u32(&mut self, v: u32) -> Result<(), SerializeError> {
        self.put(&v.to_le_bytes())
    }

    /// `n` little-endian items of `N` bytes, made by `item(i)` a chunk at
    /// a time.
    fn put_items<const N: usize>(
        &mut self,
        n: usize,
        mut item: impl FnMut(usize) -> Result<[u8; N], SerializeError>,
    ) -> Result<(), SerializeError> {
        let mut chunk = Vec::with_capacity(CHUNK.min(N * n));
        for start in (0..n).step_by(CHUNK / N) {
            chunk.clear();
            for i in start..n.min(start + CHUNK / N) {
                chunk.extend_from_slice(&item(i)?);
            }
            self.put(&chunk)?;
        }
        Ok(())
    }

    /// The name, dtype tag, shape and pad of a record.
    fn head(&mut self, name: &str, tag: u8, shape: &[usize]) -> Result<(), SerializeError> {
        let name_len = u16::try_from(name.len()).map_err(|_| {
            SerializeError::InvalidState(format!("parameter name too long ({} bytes)", name.len()))
        })?;
        let rank = u8::try_from(shape.len()).map_err(|_| {
            SerializeError::InvalidState(format!("`{name}`: rank {} exceeds 255", shape.len()))
        })?;
        self.put(&name_len.to_le_bytes())?;
        self.put(name.as_bytes())?;
        self.put(&[tag, rank])?;
        for &d in shape {
            let d = u32::try_from(d).map_err(|_| {
                SerializeError::InvalidState(format!("`{name}`: dim {d} overflows u32"))
            })?;
            self.put_u32(d)?;
        }
        let pad = self.pos.next_multiple_of(ALIGN as u64) - self.pos;
        self.put(&[0; ALIGN][..pad as usize])
    }

    /// Write one tensor record.
    pub(crate) fn tensor(&mut self, name: &str, t: &Tensor) -> Result<(), SerializeError> {
        match t.quantized() {
            None => {
                self.head(name, DTYPE_TAG_F32, t.shape())?;
                let data = t.data();
                self.put_items(data.len(), |i| {
                    let x = data[i];
                    if !x.is_finite() {
                        return Err(SerializeError::NonFinite { param: name.to_string() });
                    }
                    Ok(x.to_le_bytes())
                })
            }
            Some(q) => {
                self.head(name, DTYPE_TAG_I8B32, t.shape())?;
                self.put_u32(q.rows() as u32)?;
                self.put_u32(q.cols() as u32)?;
                self.put_items(q.scales().len(), |i| Ok(q.scales()[i].to_le_bytes()))?;
                // i8 → u8 is a pure reinterpretation; two's complement
                // round-trips exactly through `as`.
                self.put_items(q.quants().len(), |i| Ok([q.quants()[i] as u8]))
            }
        }
    }

    /// Write the record of an all-zero f32 tensor of `shape` without
    /// allocating one: what optimizer state that was never allocated
    /// holds.
    pub(crate) fn zeros(&mut self, name: &str, shape: &[usize]) -> Result<(), SerializeError> {
        self.head(name, DTYPE_TAG_F32, shape)?;
        self.put_items(shape.iter().product(), |_| Ok([0; 4]))
    }

    pub(crate) fn into_inner(self) -> W {
        self.out
    }
}

/// Bounds-checked cursor over a payload of `len` bytes read from `inp`.
pub(crate) struct Source<R: Read> {
    inp: R,
    pub(crate) pos: u64,
    len: u64,
}

impl<R: Read> Source<R> {
    pub(crate) fn new(inp: R, len: u64) -> Self {
        Self { inp, pos: 0, len }
    }

    /// Claim the next `n` bytes, failing if the payload ends first.
    fn claim(&mut self, n: usize, what: &str) -> Result<(), SerializeError> {
        match self.pos.checked_add(n as u64).filter(|&end| end <= self.len) {
            Some(end) => {
                self.pos = end;
                Ok(())
            }
            None => Err(SerializeError::InvalidState(format!(
                "payload ends inside {what} (offset {})",
                self.pos
            ))),
        }
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<Vec<u8>, SerializeError> {
        self.claim(n, what)?;
        let mut out = vec![0; n];
        self.inp.read_exact(&mut out)?;
        Ok(out)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], SerializeError> {
        self.claim(N, what)?;
        let mut out = [0; N];
        self.inp.read_exact(&mut out)?;
        Ok(out)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, SerializeError> {
        Ok(self.array::<1>(what)?[0])
    }

    pub(crate) fn u16(&mut self, what: &str) -> Result<u16, SerializeError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, SerializeError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// `n` items of `size` bytes each, decoded by `item` a chunk at a time
    /// into one vector of the final length.
    fn items<T>(
        &mut self,
        n: usize,
        size: usize,
        what: &str,
        item: impl Fn(&[u8]) -> T,
    ) -> Result<Vec<T>, SerializeError> {
        self.claim(n.saturating_mul(size), what)?;
        let mut out = Vec::with_capacity(n);
        let mut chunk = vec![0; CHUNK.min(n * size)];
        while out.len() < n {
            let bytes = &mut chunk[..size * (n - out.len()).min(CHUNK / size)];
            self.inp.read_exact(bytes)?;
            out.extend(bytes.chunks_exact(size).map(&item));
        }
        Ok(out)
    }

    pub(crate) fn align(&mut self) -> Result<(), SerializeError> {
        let pad = (self.pos.next_multiple_of(ALIGN as u64) - self.pos) as usize;
        self.claim(pad, "alignment padding")?;
        self.inp.read_exact(&mut [0; ALIGN][..pad])?;
        Ok(())
    }

    /// Require that the last record ended exactly at the end of the payload.
    pub(crate) fn finish(&self) -> Result<(), SerializeError> {
        match self.len - self.pos {
            0 => Ok(()),
            n => Err(SerializeError::InvalidState(format!(
                "{n} trailing bytes after the last tensor"
            ))),
        }
    }

    /// Read one tensor record and its name.
    pub(crate) fn tensor(&mut self) -> Result<(String, Tensor), SerializeError> {
        let name_len = self.u16("tensor name length")? as usize;
        let name = String::from_utf8(self.take(name_len, "tensor name")?)
            .map_err(|_| SerializeError::InvalidState("tensor name is not UTF-8".to_string()))?;
        let tag = self.u8("dtype tag")?;
        let rank = self.u8("tensor rank")? as usize;
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(self.u32("tensor dim")? as usize);
        }
        let len = shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d)).ok_or_else(|| {
            SerializeError::InvalidState(format!("`{name}`: shape {shape:?} overflows"))
        })?;
        self.align()?;
        let f32_of = |c: &[u8]| f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        match tag {
            DTYPE_TAG_F32 => {
                let data = self.items(len, 4, "f32 tensor data", f32_of)?;
                if data.iter().any(|x| !x.is_finite()) {
                    return Err(SerializeError::NonFinite { param: name });
                }
                Ok((name, Tensor::from_vec(shape, data)))
            }
            DTYPE_TAG_I8B32 => {
                let rows = self.u32("quant rows")? as usize;
                let cols = self.u32("quant cols")? as usize;
                if rows.checked_mul(cols) != Some(len) {
                    return Err(SerializeError::InvalidState(format!(
                        "`{name}`: quantized layout {rows}×{cols} disagrees with shape {shape:?}"
                    )));
                }
                let scales = self.items(rows * cols.div_ceil(QBLOCK), 4, "quant scales", f32_of)?;
                let quants = self.items(len, 1, "quant values", |c| c[0] as i8)?;
                let blocks = QuantBlocks::from_parts(rows, cols, scales, quants)
                    .map_err(|e| SerializeError::InvalidState(format!("`{name}`: {e}")))?;
                Ok((name, Tensor::from_quantized(shape, blocks)))
            }
            other => {
                Err(SerializeError::InvalidState(format!("`{name}`: unknown dtype tag {other}")))
            }
        }
    }
}
