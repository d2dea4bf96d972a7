//! Compact task identities threaded through the deques.
//!
//! A [`TaskId`] packs `(program, worker, sequence)` into one `u64` so a
//! queued task can carry its identity through push / pop / steal /
//! steal-half batch transfers at zero marginal cost: the id travels
//! inside the queued element itself, so none of the deque operations
//! need to know it exists. `dws-rt` stamps one onto every spawned job
//! and the trace/analyzer layers use it to reconstruct per-task
//! lifecycles (spawn → enqueue → batch moves → remote execution).
//!
//! Layout (most significant first):
//!
//! ```text
//! | prog: 8 bits | worker: 16 bits | seq: 40 bits |
//! ```
//!
//! A spawner packs its `(prog, worker)` half once into an [`IdPrefix`]
//! and mints every id from it with one AND and one OR. The sequence
//! wraps modulo 2⁴⁰ (about 30 hours at 10 M spawns/s per worker) instead
//! of overflowing its field, so an id is unique among the last 2⁴⁰
//! spawns of its spawner, far longer than any trace ring holds.
//!
//! Worker index [`TaskId::EXTERNAL_WORKER`] (`0xFFFF`) is reserved for
//! tasks injected from outside the pool (root submissions through the
//! injector), and the all-ones bit pattern is reserved as
//! [`TaskId::NONE`], the "not yet stamped" sentinel.

/// A packed `(program, worker, sequence)` task identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u64);

const SEQ_BITS: u32 = 40;
const WORKER_BITS: u32 = 16;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
const WORKER_MASK: u64 = (1 << WORKER_BITS) - 1;

impl TaskId {
    /// The "no identity" sentinel (all bits set). Jobs start out as
    /// `NONE` and are stamped at their first enqueue.
    pub const NONE: TaskId = TaskId(u64::MAX);

    /// Worker index reserved for tasks injected from outside the pool.
    pub const EXTERNAL_WORKER: usize = WORKER_MASK as usize;

    /// Packs an identity. Panics if a component exceeds its field width
    /// or the result would collide with [`TaskId::NONE`].
    #[inline]
    pub fn new(prog: usize, worker: usize, seq: u64) -> TaskId {
        let prefix = IdPrefix::new(prog, worker);
        assert!(seq <= SEQ_MASK, "sequence {seq} exceeds 40 bits");
        let packed = prefix.bits | seq;
        assert_ne!(packed, u64::MAX, "identity collides with TaskId::NONE");
        TaskId(packed)
    }

    /// The raw packed value (what goes into trace events and JSON).
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its packed value (e.g. parsed back out of a
    /// trace file).
    pub fn from_u64(raw: u64) -> TaskId {
        TaskId(raw)
    }

    /// Is this the "not yet stamped" sentinel?
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u64::MAX
    }

    /// Program id (8 bits).
    pub fn prog(self) -> usize {
        (self.0 >> (WORKER_BITS + SEQ_BITS)) as usize
    }

    /// Spawning worker index (16 bits); [`TaskId::EXTERNAL_WORKER`]
    /// means the task entered through the injector.
    pub fn worker(self) -> usize {
        ((self.0 >> SEQ_BITS) & WORKER_MASK) as usize
    }

    /// Was the task spawned from outside the pool?
    pub fn is_external(self) -> bool {
        self.worker() == Self::EXTERNAL_WORKER
    }

    /// Per-worker spawn sequence number (40 bits; counts up per spawner
    /// and wraps to 0 after 2⁴⁰ − 1).
    pub fn seq(self) -> u64 {
        self.0 & SEQ_MASK
    }
}

/// One spawner's `(program, worker)` half of a [`TaskId`], packed once
/// so that minting on the per-push path is one AND and one OR, with no
/// check left to fail.
#[derive(Debug, Clone, Copy)]
pub struct IdPrefix {
    bits: u64,
    seq_mask: u64,
}

impl IdPrefix {
    /// Packs the spawner half. Panics if a component exceeds its field
    /// width.
    pub fn new(prog: usize, worker: usize) -> IdPrefix {
        assert!(prog < 256, "program id {prog} exceeds 8 bits");
        assert!(worker <= TaskId::EXTERNAL_WORKER, "worker id {worker} exceeds 16 bits");
        let bits = ((prog as u64) << (WORKER_BITS + SEQ_BITS)) | ((worker as u64) << SEQ_BITS);
        // The all-ones spawner (prog 255's external lane) wraps one bit
        // early, so its sequence never reaches the `NONE` pattern.
        let seq_mask = if bits | SEQ_MASK == u64::MAX { SEQ_MASK >> 1 } else { SEQ_MASK };
        IdPrefix { bits, seq_mask }
    }

    /// The id for spawn number `seq`, wrapped into the sequence field.
    /// Never [`TaskId::NONE`].
    #[inline]
    pub fn mint(self, seq: u64) -> TaskId {
        TaskId(self.bits | (seq & self.seq_mask))
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            write!(f, "t[none]")
        } else if self.is_external() {
            write!(f, "t{}.ext.{}", self.prog(), self.seq())
        } else {
            write!(f, "t{}.{}.{}", self.prog(), self.worker(), self.seq())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips() {
        let id = TaskId::new(3, 11, 123_456_789);
        assert_eq!(id.prog(), 3);
        assert_eq!(id.worker(), 11);
        assert_eq!(id.seq(), 123_456_789);
        assert_eq!(TaskId::from_u64(id.as_u64()), id);
        assert!(!id.is_none());
        assert!(!id.is_external());
    }

    #[test]
    fn field_extremes_survive() {
        let id = TaskId::new(255, TaskId::EXTERNAL_WORKER, SEQ_MASK - 1);
        assert_eq!(id.prog(), 255);
        assert!(id.is_external());
        assert_eq!(id.seq(), SEQ_MASK - 1);
    }

    #[test]
    fn ids_are_ordered_by_sequence_within_a_spawner() {
        let a = TaskId::new(1, 2, 10);
        let b = TaskId::new(1, 2, 11);
        assert!(a < b);
    }

    #[test]
    fn none_is_distinct_from_every_packable_id() {
        assert!(TaskId::NONE.is_none());
        let id = TaskId::new(0, 0, 0);
        assert_ne!(id, TaskId::NONE);
    }

    #[test]
    #[should_panic(expected = "collides with TaskId::NONE")]
    fn the_all_ones_pattern_is_rejected() {
        let _ = TaskId::new(255, TaskId::EXTERNAL_WORKER, SEQ_MASK);
    }

    #[test]
    #[should_panic(expected = "exceeds 8 bits")]
    fn oversized_prog_rejected() {
        let _ = TaskId::new(256, 0, 0);
    }

    #[test]
    fn minting_wraps_the_sequence_without_leaving_the_spawner() {
        // Even fields, so a carry out of the sequence would show.
        let p = IdPrefix::new(6, 2);
        assert_eq!(p.mint(42), TaskId::new(6, 2, 42));
        let fields = |id: TaskId| (id.prog(), id.worker(), id.seq());
        assert_eq!(fields(p.mint(SEQ_MASK)), (6, 2, SEQ_MASK));
        assert_eq!(fields(p.mint(SEQ_MASK + 1)), (6, 2, 0));
        assert_eq!(fields(p.mint(u64::MAX)), (6, 2, SEQ_MASK));
    }

    #[test]
    fn the_all_ones_spawner_never_mints_none() {
        let p = IdPrefix::new(255, TaskId::EXTERNAL_WORKER);
        for seq in [0, SEQ_MASK >> 1, SEQ_MASK - 1, SEQ_MASK, SEQ_MASK + 1, u64::MAX] {
            let id = p.mint(seq);
            assert!(!id.is_none(), "seq {seq} minted NONE");
            assert_eq!((id.prog(), id.worker()), (255, TaskId::EXTERNAL_WORKER));
        }
        assert_eq!(p.mint(SEQ_MASK).seq(), SEQ_MASK >> 1);
        assert_eq!(p.mint((SEQ_MASK >> 1) + 1).seq(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TaskId::new(1, 2, 3).to_string(), "t1.2.3");
        assert_eq!(TaskId::new(0, TaskId::EXTERNAL_WORKER, 9).to_string(), "t0.ext.9");
        assert_eq!(TaskId::NONE.to_string(), "t[none]");
    }
}
