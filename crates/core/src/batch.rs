//! Cross-request micro-batching: several encoded tables through one
//! compiled forward, every member's rows **bit-exact** with its solo
//! encode.
//!
//! A batch is a pre-training group without heads:
//! `turl_audit::lower_group_plan` stacks the members as row segments,
//! runs each row-wise op (the encoder's linears, layer norms, GELU and
//! residual adds) once over all their rows, and runs what mixes rows —
//! the embedding layer, attention — per member. Member `s` is one
//! contiguous row range of the `[Σn, d]` output. A row-wise kernel
//! computes each output element as the same FMA chain whatever the row
//! count, and attention only ever sees one member's rows, so the range
//! holds the bits of that member's solo encode, masked or not.

use crate::input::EncodedInput;
use turl_exec::ExecError;
use turl_tensor::Tensor;

/// The tables one compiled forward runs: a single input, or the members
/// of a [`TableBatch`] stacked as row segments. `From<&EncodedInput>`
/// lets a single-table call site pass its input as it is.
#[derive(Debug, Clone, Copy)]
pub enum Tables<'a> {
    /// One table.
    One(&'a EncodedInput),
    /// Several tables, stacked in order.
    Stacked(&'a [&'a EncodedInput]),
}

impl<'a> From<&'a EncodedInput> for Tables<'a> {
    fn from(input: &'a EncodedInput) -> Self {
        Tables::One(input)
    }
}

impl<'a> Tables<'a> {
    /// The member tables, in row order.
    pub(crate) fn members(&self) -> &[&'a EncodedInput] {
        match self {
            Tables::One(input) => std::slice::from_ref(input),
            Tables::Stacked(inputs) => inputs,
        }
    }
}

/// Several encoded tables coalesced into one forward-sized input.
pub struct TableBatch<'a> {
    members: Vec<&'a EncodedInput>,
    /// Member `s`'s rows of the batched encode: `starts[s]..starts[s + 1]`.
    starts: Vec<usize>,
}

impl<'a> TableBatch<'a> {
    /// Coalesce `inputs` into one batch, in order. Only an empty list is
    /// refused, as a typed [`ExecError::Binding`]; a member the forward
    /// cannot run (an empty table) fails the batched encode instead.
    pub fn build(inputs: &[&'a EncodedInput]) -> Result<Self, ExecError> {
        if inputs.is_empty() {
            return Err(ExecError::Binding("cannot batch zero inputs".into()));
        }
        let mut starts = vec![0];
        for input in inputs {
            starts.push(starts[starts.len() - 1] + input.seq_len());
        }
        Ok(Self { members: inputs.to_vec(), starts })
    }

    /// The members, for one compiled forward.
    pub fn input(&self) -> Tables<'_> {
        Tables::Stacked(&self.members)
    }

    /// Number of member tables.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the batch holds no members (never, post-`build`).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Copy member `item`'s rows out of the batched encode `h` —
    /// bit-identical to a solo encode of that member.
    ///
    /// # Panics
    /// Panics when `h` is not this batch's `[Σn, d]` encode.
    pub fn extract(&self, item: usize, h: &Tensor) -> Tensor {
        let total = self.starts[self.members.len()];
        assert!(
            h.shape().len() == 2 && h.shape()[0] == total,
            "a batch of {total} rows cannot extract from {:?}",
            h.shape()
        );
        let d = h.shape()[1];
        let (start, end) = (self.starts[item], self.starts[item + 1]);
        Tensor::from_slice(vec![end - start, d], &h.data()[start * d..end * d])
    }
}
