//! Buffer-liveness analysis and arena planning over a lowered IR.
//!
//! Every computed tensor in an [`Ir`] is live from the op that defines it
//! (first def) to the last op that reads it (last use). Two tensors whose
//! live ranges do not overlap can share one buffer; [`plan_arena`]
//! exploits that with a greedy best-fit assignment and reports the result
//! as an [`ArenaPlan`]: how many distinct slots a single pre-allocated
//! arena needs, their sizes, and the reuse factor — the honest peak-memory
//! number (`peak_bytes`) that `peak_elements` alone obscured.
//!
//! Source nodes (parameters, constants, the mask) are excluded: they are
//! owned by the parameter store, not the per-step arena. This is exactly
//! the artifact a fused forward-plan executor consumes to run one forward
//! pass in a fixed allocation.

use crate::ir::{Ir, TensorId};

/// Bytes per element of the runtime's only dtype.
const BYTES_PER_ELEM: usize = 4; // f32

/// One buffer in the planned arena and the tensors that time-share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaSlot {
    /// Slot capacity in bytes (the largest tenant rounds it up).
    pub bytes: usize,
    /// Tensors assigned to this slot, in definition order (their live
    /// ranges are pairwise disjoint by construction).
    pub tenants: Vec<TensorId>,
}

/// A complete arena assignment for one forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaPlan {
    /// Planned buffers; one allocation each, reused across tenants.
    pub slots: Vec<ArenaSlot>,
    /// Total arena size: the sum of slot capacities. This is the peak
    /// intermediate memory of the pass, in bytes.
    pub peak_bytes: usize,
    /// Sum of every computed tensor's size — what a no-reuse executor
    /// (one fresh allocation per op, all held to the end) would need.
    pub total_bytes: usize,
    /// `total_bytes / peak_bytes`: how many times over the arena is
    /// reused. Greater than 1 whenever any lifetime ends early.
    pub reuse_factor: f64,
}

/// Live range of one computed tensor, in IR tape indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRange {
    /// The tensor.
    pub id: TensorId,
    /// Index of the defining op.
    pub first_def: usize,
    /// Index of the last reader. Tensors nothing reads are outputs and
    /// stay live to the end of the tape (`ir.len()`).
    pub last_use: usize,
}

/// Compute first-def/last-use for every computed (non-source) tensor.
pub fn live_ranges(ir: &Ir) -> Vec<LiveRange> {
    // last reader per tape position; sources are excluded below.
    let mut last_use = vec![0usize; ir.len()];
    for (i, node) in ir.nodes().iter().enumerate() {
        for inp in &node.inputs {
            last_use[inp.index()] = i;
        }
    }
    ir.op_ids()
        .map(|id| {
            let i = id.index();
            LiveRange {
                id,
                first_def: i,
                // Unread tensors are pass outputs: conservatively live to
                // the end so the arena never recycles a result the caller
                // still holds.
                last_use: if last_use[i] == 0 { ir.len() } else { last_use[i] },
            }
        })
        .collect()
}

/// A buffer request for the generic planner: `bytes` of storage live
/// over `[first_def, last_use]` (tape indices, inclusive on both ends
/// for conflict purposes — two requests may share a slot only when one's
/// `last_use` lies strictly before the other's `first_def`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaRequest {
    /// Storage needed, in bytes. Zero-byte requests get no slot.
    pub bytes: usize,
    /// Tape index at which the buffer is written.
    pub first_def: usize,
    /// Tape index of the last read (or the end of the tape for outputs).
    pub last_use: usize,
}

/// Concrete arena layout: a byte offset per request into one flat
/// allocation of `peak_bytes`. Produced by [`plan_layout`]; consumed by
/// the forward-plan executor, which carves its single arena buffer at
/// these offsets instead of allocating per op.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaLayout {
    /// Byte offset of each request in input order; `None` for zero-byte
    /// requests (they need no storage).
    pub offsets: Vec<Option<usize>>,
    /// Slot index of each request in input order (parallel to `offsets`).
    pub slot_of: Vec<Option<usize>>,
    /// Capacity of each slot in bytes, in slot order.
    pub slot_bytes: Vec<usize>,
    /// Total arena size — the sum of slot capacities.
    pub peak_bytes: usize,
    /// Sum of all request sizes (the no-reuse baseline).
    pub total_bytes: usize,
    /// `total_bytes / peak_bytes`; 1.0 for an empty plan.
    pub reuse_factor: f64,
}

/// Greedy best-fit slot assignment over explicit buffer requests.
///
/// Requests must arrive in definition order (nondecreasing `first_def`).
/// Each is placed in the smallest already-free slot that fits — a slot is
/// free once its current tenant's `last_use` lies strictly before the new
/// request's `first_def` — or a new slot is opened sized to the request.
/// Slots never grow, so every slot's byte range `[offset, offset+bytes)`
/// is fixed and two requests alias only if they share a slot, which the
/// placement rule forbids for overlapping lifetimes. That disjointness is
/// the executor's aliasing guarantee.
pub fn plan_layout(requests: &[ArenaRequest]) -> ArenaLayout {
    struct Slot {
        bytes: usize,
        free_at: usize, // last_use of current tenant
    }
    let mut slots: Vec<Slot> = Vec::new();
    let mut slot_of: Vec<Option<usize>> = Vec::with_capacity(requests.len());
    let mut total_bytes = 0usize;

    for req in requests {
        if req.bytes == 0 {
            slot_of.push(None);
            continue;
        }
        total_bytes += req.bytes;
        // Best fit: among free slots large enough, take the smallest; a
        // smallest-too-small slot is never grown (growing would invalidate
        // the peak accounting of its earlier tenants' neighbors).
        let best = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.free_at < req.first_def && s.bytes >= req.bytes)
            .min_by_key(|(_, s)| s.bytes)
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                slots[i].free_at = req.last_use;
                slot_of.push(Some(i));
            }
            None => {
                slots.push(Slot { bytes: req.bytes, free_at: req.last_use });
                slot_of.push(Some(slots.len() - 1));
            }
        }
    }

    // Slot offsets are the prefix sums of the (final, fixed) slot sizes.
    let slot_bytes: Vec<usize> = slots.iter().map(|s| s.bytes).collect();
    let mut slot_offset = Vec::with_capacity(slot_bytes.len());
    let mut acc = 0usize;
    for &b in &slot_bytes {
        slot_offset.push(acc);
        acc += b;
    }
    let peak_bytes = acc;
    let offsets = slot_of.iter().map(|s| s.map(|i| slot_offset[i])).collect();
    ArenaLayout {
        offsets,
        slot_of,
        slot_bytes,
        peak_bytes,
        total_bytes,
        reuse_factor: if peak_bytes == 0 { 1.0 } else { total_bytes as f64 / peak_bytes as f64 },
    }
}

/// Greedy best-fit arena assignment over the IR's live ranges.
///
/// Tensors are visited in definition order (tape order). Each is placed
/// in the smallest already-free slot that fits it — a slot is free once
/// its current tenant's last use lies strictly before the new tensor's
/// def — or a new slot is opened. Zero-element tensors need no storage
/// and are skipped. The placement itself is delegated to [`plan_layout`],
/// which the forward-plan executor also uses for its step schedule.
pub fn plan_arena(ir: &Ir) -> ArenaPlan {
    let ranges = live_ranges(ir);
    let requests: Vec<ArenaRequest> = ranges
        .iter()
        .map(|r| ArenaRequest {
            bytes: ir.node_at(r.id.index()).elements() * BYTES_PER_ELEM,
            first_def: r.first_def,
            last_use: r.last_use,
        })
        .collect();
    let layout = plan_layout(&requests);

    let mut slots: Vec<ArenaSlot> =
        layout.slot_bytes.iter().map(|&bytes| ArenaSlot { bytes, tenants: Vec::new() }).collect();
    for (range, slot) in ranges.iter().zip(layout.slot_of.iter()) {
        if let Some(i) = *slot {
            slots[i].tenants.push(range.id);
        }
    }
    ArenaPlan {
        slots,
        peak_bytes: layout.peak_bytes,
        total_bytes: layout.total_bytes,
        reuse_factor: layout.reuse_factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrBuilder, OpKind, SourceKind};
    use crate::plan::PlanNumerics;

    /// A straight a → b → c → d chain: each tensor dies as soon as its
    /// single consumer is defined, so two slots suffice for any length.
    fn chain_ir() -> Ir {
        let mut b = IrBuilder::new();
        let src = b.source(SourceKind::Table, vec![4, 8], "t");
        let a = b.gather(src, &[0, 1], "a").unwrap(); // [2, 8]
        let g1 = b.op(OpKind::Gelu, &[a], "g1").unwrap(); // reads a
        let g2 = b.op(OpKind::Gelu, &[g1], "g2").unwrap(); // reads g1; a is dead
        b.op(OpKind::Gelu, &[g2], "g3").unwrap(); // reads g2; g1 dead
        b.finish(PlanNumerics::default())
    }

    #[test]
    fn chain_reuses_buffers() {
        let plan = plan_arena(&chain_ir());
        // 4 same-sized tensors, but at most 2 live at once (producer +
        // consumer), so the arena needs exactly 2 slots.
        assert_eq!(plan.slots.len(), 2);
        assert_eq!(plan.peak_bytes, 2 * 2 * 8 * 4);
        assert_eq!(plan.total_bytes, 4 * 2 * 8 * 4);
        assert!((plan.reuse_factor - 2.0).abs() < 1e-9);
    }

    #[test]
    fn outputs_stay_live_to_the_end() {
        let ranges = live_ranges(&chain_ir());
        let last = ranges.last().unwrap();
        assert_eq!(last.last_use, chain_ir().len(), "unread tensor is an output");
        // Interior tensors die at their single reader.
        assert_eq!(ranges[0].last_use, ranges[1].first_def);
    }

    #[test]
    fn overlapping_lifetimes_get_distinct_slots() {
        let mut b = IrBuilder::new();
        let src = b.source(SourceKind::Table, vec![4, 4], "t");
        let a = b.gather(src, &[0], "a").unwrap();
        let x = b.op(OpKind::Gelu, &[a], "x").unwrap();
        let y = b.op(OpKind::Gelu, &[a], "y").unwrap(); // a still live here
        b.op(OpKind::Add, &[x, y], "z").unwrap(); // x and y live simultaneously
        let plan = plan_arena(&b.finish(PlanNumerics::default()));
        // a, x, y all overlap pairwise at some point: ≥ 3 slots.
        assert!(plan.slots.len() >= 3, "{} slots", plan.slots.len());
    }

    #[test]
    fn zero_sized_tensors_need_no_slot() {
        let mut b = IrBuilder::new();
        let src = b.source(SourceKind::Table, vec![4, 4], "t");
        b.gather(src, &[], "empty").unwrap(); // [0, 4]
        let plan = plan_arena(&b.finish(PlanNumerics::default()));
        assert!(plan.slots.is_empty());
        assert_eq!(plan.peak_bytes, 0);
        assert_eq!(plan.reuse_factor, 1.0);
    }

    #[test]
    fn layout_offsets_of_overlapping_requests_are_disjoint() {
        // x and y overlap (both live at step 3); z can reuse either.
        let reqs = [
            ArenaRequest { bytes: 64, first_def: 1, last_use: 3 },
            ArenaRequest { bytes: 32, first_def: 2, last_use: 3 },
            ArenaRequest { bytes: 16, first_def: 4, last_use: 5 },
            ArenaRequest { bytes: 0, first_def: 4, last_use: 5 },
        ];
        let layout = plan_layout(&reqs);
        let a = layout.offsets[0].unwrap();
        let b = layout.offsets[1].unwrap();
        assert!(a + 64 <= b || b + 32 <= a, "overlapping lifetimes must not alias");
        // z fits in the freed 32 B slot (best fit), not the 64 B one.
        assert_eq!(layout.slot_of[2], layout.slot_of[1]);
        assert_eq!(layout.offsets[3], None, "zero-byte request gets no slot");
        assert_eq!(layout.peak_bytes, 96);
        assert_eq!(layout.total_bytes, 112);
    }

    #[test]
    fn plan_arena_matches_layout_accounting() {
        let ir = chain_ir();
        let plan = plan_arena(&ir);
        let ranges = live_ranges(&ir);
        let reqs: Vec<ArenaRequest> = ranges
            .iter()
            .map(|r| ArenaRequest {
                bytes: ir.node_at(r.id.index()).elements() * BYTES_PER_ELEM,
                first_def: r.first_def,
                last_use: r.last_use,
            })
            .collect();
        let layout = plan_layout(&reqs);
        assert_eq!(plan.peak_bytes, layout.peak_bytes);
        assert_eq!(plan.total_bytes, layout.total_bytes);
        assert_eq!(plan.slots.len(), layout.slot_bytes.len());
    }

    #[test]
    fn best_fit_prefers_the_smallest_free_slot() {
        let mut b = IrBuilder::new();
        let src = b.source(SourceKind::Table, vec![64, 8], "t");
        // s (64 B) dies at gs, m (128 B, a new slot) at gm; gs and gm are
        // outputs.
        let s = b.gather(src, &[0; 2], "s").unwrap();
        let _gs = b.op(OpKind::Gelu, &[s], "gs").unwrap();
        let m = b.gather(src, &[0; 4], "m").unwrap();
        let _gm = b.op(OpKind::Gelu, &[m], "gm").unwrap();
        // Defined after both the 64 B and the 128 B slot are free: best
        // fit must place it in the 64 B slot, not the larger one.
        b.gather(src, &[0; 2], "t_last").unwrap();
        let plan = plan_arena(&b.finish(PlanNumerics::default()));
        let reused_small = plan
            .slots
            .iter()
            .find(|slot| slot.bytes == 2 * 8 * 4 && slot.tenants.len() == 2)
            .expect("the 64 B slot is reused by the last tensor");
        assert_eq!(reused_small.tenants.len(), 2);
        assert!(plan.reuse_factor > 1.0);
    }
}
