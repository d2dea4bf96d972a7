//! Fixed-capacity MPSC submission ring for external requests.
//!
//! The serving path needs a queue that external clients — possibly in
//! *other processes* — can push requests into while the owning program's
//! coordinator drains them into its [`crate::Injector`]. The structure
//! therefore has to work over a raw shared-memory region (no pointers,
//! no allocation after setup) and stay lock-free on both sides:
//!
//! * **Submit (many producers).** Bounded Vyukov-style sequence ring:
//!   each slot carries a sequence word; a producer claims a slot with one
//!   CAS on `tail`, writes the request payload, then publishes it by
//!   storing `claim + 1` into the slot's sequence with `Release`. A full
//!   ring rejects the request immediately (open-loop clients must never
//!   block the submitting thread) and counts the drop.
//! * **Drain (the owner).** The consumer pops published slots in FIFO
//!   order, recycling each slot's sequence one lap ahead. The pop loop is
//!   MPMC-safe, so a mis-configured second drainer degrades throughput
//!   instead of corrupting the ring.
//! * **Fencing (crash tolerance).** The ring carries an epoch word that
//!   mirrors the owner's lease epoch in the shared allocation table.
//!   Every submit presents the epoch it registered against; after the
//!   owner dies and its lease is recycled, stale clients' epochs no
//!   longer match and their submissions are refused ([`SubmitError::Fenced`])
//!   instead of landing in the successor's queue. During a
//!   [`SubmitRing::reset`] the epoch is parked at [`EPOCH_FENCED`] so
//!   *every* producer is locked out while the sequences re-initialize.
//! * **Crash recovery (abandoned reservations).** A client that dies
//!   *between* its tail-CAS claim and its sequence publish leaves a slot
//!   whose sequence never ages — exactly what the head sees once every
//!   earlier request drains, which in a plain Vyukov ring wedges the
//!   consumer forever. The consumer detects the signature (sequence still
//!   at the claim value while `tail` has moved past it) and, once the
//!   same position has stayed stuck for [`ABANDON_AFTER`] of monotonic
//!   time, *abandons* the reservation: the slot's sequence is CAS'd
//!   to a tombstone both sides skip from then on, the head moves past it,
//!   and the loss is counted in [`SubmitRing::abandoned`]. The tombstone
//!   is permanent (the ring gives up one slot per abandonment) because
//!   recycling it would let the dead client's buffered payload writes
//!   land in a *successor's* request; the publish is a CAS precisely so a
//!   slow-but-alive client that loses this race gets a typed
//!   [`SubmitError::Abandoned`] instead of silently corrupting the queue.
//!
//! The memory layout is `#[repr(C)]` and position-independent
//! (header + slot array, all `u64` words), so the same code runs over a
//! heap allocation (in-process co-runs, property tests) and over a
//! region carved out of the `ShmTable` mapping (cross-process serving).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Epoch value that refuses every submission (used while a ring is being
/// reset between lease generations, and as the initial state of a ring
/// whose owner has not registered yet).
pub const EPOCH_FENCED: u64 = u64::MAX;

/// How long the head may stay stuck on the same claimed-but-unpublished
/// slot before the consumer abandons the reservation. Measured in
/// monotonic time from the first stalled poll, never in polls: a spinning
/// drainer polls millions of times a second, and a live producer merely
/// preempted between claim and publish must not be declared dead for it.
/// Deliberately no shorter than the runtime's lease-timeout floor (30 ms,
/// asserted in `dws-rt`) — the ring is never quicker to presume a client
/// dead than the lease machinery is — and several scheduler quanta above
/// it; a wedged ring still self-heals in well under a second. A client
/// that does stall this long loses the race with a typed
/// [`SubmitError::Abandoned`] rather than a corrupted slot.
pub const ABANDON_AFTER: Duration = Duration::from_millis(100);

/// The consumer's stall clock: monotonic nanoseconds since this process
/// first asked. Local to the consuming process — the stamp it leaves in
/// the header is only ever compared against the same clock (a successor
/// owner starts from [`SubmitRing::reset`], which zeroes it).
fn stall_clock_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Tombstone sequence for a slot whose reservation was abandoned. Larger
/// than any reachable position (positions are monotone claim counts), so
/// producers and the consumer both recognize and skip it forever.
const SEQ_ABANDONED: u64 = u64::MAX;

/// One external request: an opaque client-chosen identity, the submit
/// timestamp (µs, in whatever clock the serving deployment shares — the
/// in-process harness uses the trace epoch), and the nominal service
/// demand in µs (what the server-side handler uses to size the work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Client-assigned request identity.
    pub req_id: u64,
    /// Submission timestamp, µs.
    pub submit_us: u64,
    /// Nominal service demand, µs.
    pub demand_us: u64,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The ring is full; the request was dropped (and counted).
    Full,
    /// The presented epoch does not match the ring's current epoch: the
    /// owner's lease was recycled (or the ring is mid-reset) and this
    /// client must re-register before submitting again.
    Fenced,
    /// The consumer abandoned this client's slot reservation while the
    /// client stalled between claim and publish (it was presumed dead).
    /// The request was *not* delivered; a live client should resubmit.
    Abandoned,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => f.write_str("submission ring full"),
            SubmitError::Fenced => f.write_str("stale epoch: client fenced"),
            SubmitError::Abandoned => f.write_str("reservation abandoned: client presumed dead"),
        }
    }
}

/// Ring header: one cache line of `u64` words at the start of the region.
#[repr(C)]
struct Header {
    /// Current lease epoch; [`EPOCH_FENCED`] refuses everything.
    epoch: AtomicU64,
    /// Producer cursor (monotone claim counter).
    tail: AtomicU64,
    /// Consumer cursor.
    head: AtomicU64,
    /// Requests dropped because the ring was full.
    dropped: AtomicU64,
    /// Requests refused because the client's epoch was stale.
    fenced: AtomicU64,
    /// Reservations abandoned (client died between claim and publish).
    abandoned: AtomicU64,
    /// Consumer-side stall tracking: position + 1 of the claimed slot the
    /// head is currently stuck behind (0 = none). Occupies what used to be
    /// header padding, so pre-existing zeroed regions stay compatible.
    stall_pos: AtomicU64,
    /// [`stall_clock_ns`] reading of the first poll that found the head
    /// stuck on `stall_pos` (the word that used to count stalled polls).
    stall_since: AtomicU64,
}

/// One slot: a Vyukov sequence word plus the fixed-size request payload.
/// Payload words are atomics only so the compiler cannot invent torn
/// accesses over shared memory — each is written by exactly one producer
/// (the slot claimant) before the `seq` publish, and read by the consumer
/// only after observing the publish.
#[repr(C)]
struct Slot {
    seq: AtomicU64,
    req_id: AtomicU64,
    submit_us: AtomicU64,
    demand_us: AtomicU64,
}

const HEADER_BYTES: usize = std::mem::size_of::<Header>();
const SLOT_BYTES: usize = std::mem::size_of::<Slot>();

/// A fixed-capacity MPSC submission ring over a raw memory region.
///
/// Constructed either over its own heap allocation
/// ([`SubmitRing::with_capacity`]) or over caller-provided shared memory
/// ([`SubmitRing::from_raw`]).
pub struct SubmitRing {
    hdr: *const Header,
    slots: *const Slot,
    capacity: usize,
    /// Keeps the heap-backed storage alive; `None` for raw regions whose
    /// lifetime the caller guarantees (e.g. an `mmap` held elsewhere).
    _own: Option<Box<[u64]>>,
}

// SAFETY: every word behind the pointers is an atomic accessed with the
// protocol above; the struct itself is never mutated after construction.
unsafe impl Send for SubmitRing {}
unsafe impl Sync for SubmitRing {}

impl std::fmt::Debug for SubmitRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitRing")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("epoch", &self.epoch())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl SubmitRing {
    /// Bytes a ring of `capacity` slots occupies (header + slot array).
    pub const fn bytes_for(capacity: usize) -> usize {
        HEADER_BYTES + capacity * SLOT_BYTES
    }

    /// Creates a heap-backed ring, initialized empty at epoch 0.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 2, "a submission ring needs at least two slots");
        let words = Self::bytes_for(capacity) / 8;
        let mem: Box<[u64]> = vec![0u64; words].into_boxed_slice();
        let base = mem.as_ptr() as *mut u8;
        // SAFETY: the allocation is `words * 8` bytes, 8-aligned, zeroed,
        // and owned by the struct we are about to return.
        let ring = unsafe { Self::from_raw(base, capacity) };
        let ring = SubmitRing { _own: Some(mem), ..ring };
        ring.reset(0);
        ring
    }

    /// Views a ring over a caller-owned region of at least
    /// [`SubmitRing::bytes_for`]`(capacity)` bytes.
    ///
    /// Does **not** initialize the region: a creator must call
    /// [`SubmitRing::reset`] once before first use; openers of an
    /// already-initialized shared region must not.
    ///
    /// # Safety
    /// `base` must be 8-aligned, point to at least `bytes_for(capacity)`
    /// readable+writable bytes, and outlive the returned ring. All
    /// concurrent accessors of the region must go through this type.
    pub unsafe fn from_raw(base: *mut u8, capacity: usize) -> Self {
        assert!(capacity >= 2, "a submission ring needs at least two slots");
        assert!((base as usize).is_multiple_of(8), "submission ring region must be 8-aligned");
        SubmitRing {
            hdr: base as *const Header,
            // SAFETY: caller guarantees the region covers the slot array.
            slots: unsafe { base.add(HEADER_BYTES) } as *const Slot,
            capacity,
            _own: None,
        }
    }

    #[inline]
    fn hdr(&self) -> &Header {
        // SAFETY: construction guarantees a live, aligned header.
        unsafe { &*self.hdr }
    }

    #[inline]
    fn slot(&self, i: usize) -> &Slot {
        debug_assert!(i < self.capacity);
        // SAFETY: construction guarantees `capacity` live slots.
        unsafe { &*self.slots.add(i) }
    }

    /// Re-initializes the ring for a new lease generation: fences all
    /// producers, clears the cursors and slot sequences, then opens at
    /// `epoch`. Drop/fence counters are preserved (they are monotone
    /// telemetry, not per-generation state).
    ///
    /// Must only be called by the (single) owner while no *current-epoch*
    /// producer exists — i.e. before the new epoch has been published to
    /// any client. Producers still racing on the previous epoch are shut
    /// out by the [`EPOCH_FENCED`] store before the sequences are touched;
    /// a submit already past its epoch check may clobber one slot, which
    /// at worst surfaces as one dropped or spurious stale request, never a
    /// protocol violation.
    pub fn reset(&self, epoch: u64) {
        let h = self.hdr();
        h.epoch.store(EPOCH_FENCED, Ordering::SeqCst);
        h.tail.store(0, Ordering::SeqCst);
        h.head.store(0, Ordering::SeqCst);
        h.stall_pos.store(0, Ordering::SeqCst);
        h.stall_since.store(0, Ordering::SeqCst);
        // Tombstoned slots are revived: a new generation starts with the
        // full capacity (the dead claimant's epoch is fenced out above).
        for i in 0..self.capacity {
            self.slot(i).seq.store(i as u64, Ordering::SeqCst);
        }
        h.epoch.store(epoch, Ordering::SeqCst);
    }

    /// The ring's current epoch.
    pub fn epoch(&self) -> u64 {
        self.hdr().epoch.load(Ordering::Acquire)
    }

    /// Publishes a new epoch without clearing the ring (used when the
    /// same owner refreshes its lease in place).
    pub fn set_epoch(&self, epoch: u64) {
        self.hdr().epoch.store(epoch, Ordering::Release);
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently queued (racy snapshot).
    pub fn len(&self) -> usize {
        let h = self.hdr();
        let tail = h.tail.load(Ordering::Acquire);
        let head = h.head.load(Ordering::Acquire);
        tail.saturating_sub(head).min(self.capacity as u64) as usize
    }

    /// Is the ring empty right now (racy snapshot)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests dropped on a full ring so far.
    pub fn dropped(&self) -> u64 {
        self.hdr().dropped.load(Ordering::Relaxed)
    }

    /// Requests refused for a stale epoch so far.
    pub fn fenced(&self) -> u64 {
        self.hdr().fenced.load(Ordering::Relaxed)
    }

    /// Slot reservations abandoned so far (client died — or stalled past
    /// the patience window — between its claim and its publish). Each
    /// abandonment permanently tombstones one slot.
    pub fn abandoned(&self) -> u64 {
        self.hdr().abandoned.load(Ordering::Relaxed)
    }

    /// Submits one request under the client's registered `epoch`.
    ///
    /// Never blocks: a full ring or a stale epoch refuses immediately
    /// (open-loop clients account the drop and move on).
    pub fn submit(&self, req: Request, epoch: u64) -> Result<(), SubmitError> {
        let h = self.hdr();
        if h.epoch.load(Ordering::Acquire) != epoch {
            h.fenced.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Fenced);
        }
        let cap = self.capacity as u64;
        let mut pos = h.tail.load(Ordering::Relaxed);
        let mut skipped = 0u64;
        loop {
            let slot = self.slot((pos % cap) as usize);
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                match h.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        slot.req_id.store(req.req_id, Ordering::Relaxed);
                        slot.submit_us.store(req.submit_us, Ordering::Relaxed);
                        slot.demand_us.store(req.demand_us, Ordering::Relaxed);
                        // Publish: consumers read the payload only after
                        // acquiring this transition. A CAS rather than a
                        // plain store so the consumer's abandonment of a
                        // stalled reservation and a late publish race
                        // resolve atomically — exactly one side wins.
                        return match slot.seq.compare_exchange(
                            pos,
                            pos + 1,
                            Ordering::Release,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => Ok(()),
                            Err(_) => Err(SubmitError::Abandoned),
                        };
                    }
                    Err(cur) => pos = cur,
                }
            } else if seq == SEQ_ABANDONED {
                // Tombstoned slot (a dead client's abandoned reservation):
                // consume the position so the lap moves past it, then keep
                // looking for a live slot. If a whole lap is tombstones the
                // ring has no usable slots left — report Full rather than
                // spinning forever.
                skipped += 1;
                if skipped > cap {
                    h.dropped.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Full);
                }
                if h.tail.compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                    == Ok(pos)
                {
                    pos += 1;
                } else {
                    pos = h.tail.load(Ordering::Relaxed);
                }
            } else if seq < pos {
                // The slot still holds a request from one lap ago: full.
                h.dropped.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Full);
            } else {
                // Another producer claimed `pos`; chase the tail.
                pos = h.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Chaos/test hook: claims a slot exactly like [`SubmitRing::submit`]
    /// but "dies" before publishing — the sequence is never advanced, so
    /// the ring is left in the state a client killed between reserve and
    /// publish leaves behind. Returns `Ok(())` once a slot has been
    /// claimed (the doomed reservation), or the same refusals as
    /// `submit`. The consumer recovers via abandonment; see the module
    /// docs.
    pub fn reserve_abandon(&self, epoch: u64) -> Result<(), SubmitError> {
        let h = self.hdr();
        if h.epoch.load(Ordering::Acquire) != epoch {
            h.fenced.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Fenced);
        }
        let cap = self.capacity as u64;
        let mut pos = h.tail.load(Ordering::Relaxed);
        let mut skipped = 0u64;
        loop {
            let slot = self.slot((pos % cap) as usize);
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                match h.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Ok(()), // claimed; "die" here
                    Err(cur) => pos = cur,
                }
            } else if seq == SEQ_ABANDONED {
                skipped += 1;
                if skipped > cap {
                    h.dropped.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Full);
                }
                if h.tail.compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                    == Ok(pos)
                {
                    pos += 1;
                } else {
                    pos = h.tail.load(Ordering::Relaxed);
                }
            } else if seq < pos {
                h.dropped.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Full);
            } else {
                pos = h.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the oldest published request, if any.
    ///
    /// Never blocks on a producer mid-publish: an unpublished head slot
    /// reads as empty. If the *same* claimed-but-unpublished slot stays
    /// stuck at the head for [`ABANDON_AFTER`], the claimant is presumed
    /// dead (killed between reserve and publish) and the reservation is
    /// abandoned — the slot is
    /// tombstoned, counted in [`SubmitRing::abandoned`], and the head
    /// moves on, un-wedging the ring.
    pub fn pop(&self) -> Option<Request> {
        let h = self.hdr();
        let cap = self.capacity as u64;
        let mut pos = h.head.load(Ordering::Relaxed);
        loop {
            let slot = self.slot((pos % cap) as usize);
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos + 1 {
                match h.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let req = Request {
                            req_id: slot.req_id.load(Ordering::Relaxed),
                            submit_us: slot.submit_us.load(Ordering::Relaxed),
                            demand_us: slot.demand_us.load(Ordering::Relaxed),
                        };
                        // Recycle the slot one lap ahead for producers.
                        slot.seq.store(pos + cap, Ordering::Release);
                        if h.stall_pos.load(Ordering::Relaxed) != 0 {
                            h.stall_pos.store(0, Ordering::Relaxed);
                        }
                        return Some(req);
                    }
                    Err(cur) => pos = cur,
                }
            } else if seq == SEQ_ABANDONED {
                // Tombstone at the head (dead slot from an earlier
                // abandonment): step over it, no new loss to count. Only
                // while the position was actually claimed (`tail` past it)
                // — otherwise the head would run ahead of the tail chasing
                // the same dead slots lap after lap.
                if h.tail.load(Ordering::Acquire) > pos {
                    let _ =
                        h.head.compare_exchange(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed);
                    pos = h.head.load(Ordering::Relaxed);
                } else {
                    return None;
                }
            } else if seq <= pos {
                // Nothing published at the head. `seq == pos` with the
                // tail already past `pos` is the abandoned-reservation
                // signature: the position was claimed (tail only advances
                // over a claim) yet its sequence never aged. Tolerate it
                // for a patience window, then tombstone the slot.
                if seq == pos && h.tail.load(Ordering::Acquire) > pos {
                    // Stamp read before the clock, so `now` is never
                    // behind it even with a second drainer racing us.
                    let since = h.stall_since.load(Ordering::Relaxed);
                    let now = stall_clock_ns();
                    if h.stall_pos.load(Ordering::Relaxed) != pos + 1 {
                        // First stalled poll at this position: open the
                        // patience window.
                        h.stall_pos.store(pos + 1, Ordering::Relaxed);
                        h.stall_since.store(now, Ordering::Relaxed);
                    } else if now.saturating_sub(since) >= ABANDON_AFTER.as_nanos() as u64 {
                        h.stall_pos.store(0, Ordering::Relaxed);
                        if slot
                            .seq
                            .compare_exchange(
                                pos,
                                SEQ_ABANDONED,
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                        {
                            // We won against any late publish: the
                            // claimant's request is lost for good.
                            h.abandoned.fetch_add(1, Ordering::Relaxed);
                            let _ = h.head.compare_exchange(
                                pos,
                                pos + 1,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            );
                        }
                        // Either way the slot is now decided (tombstone
                        // or published); re-examine it.
                        pos = h.head.load(Ordering::Relaxed);
                        continue;
                    }
                } else if h.stall_pos.load(Ordering::Relaxed) != 0 {
                    // Genuinely empty (or a fresh head): any stall track
                    // belongs to a position we have moved past.
                    h.stall_pos.store(0, Ordering::Relaxed);
                }
                return None;
            } else {
                pos = h.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Drains up to `limit` requests in FIFO order into `f`, returning
    /// how many were delivered.
    pub fn drain(&self, limit: usize, f: &mut dyn FnMut(Request)) -> usize {
        let mut n = 0;
        while n < limit {
            match self.pop() {
                Some(req) => {
                    f(req);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> Request {
        Request { req_id: id, submit_us: 10 * id, demand_us: 100 + id }
    }

    /// Polls `pop` until `done` holds, collecting what it yields; fails if
    /// the ring stays wedged far past the patience window.
    fn poll_until(r: &SubmitRing, mut done: impl FnMut(&[u64]) -> bool) -> Vec<u64> {
        let t0 = Instant::now();
        let mut got = Vec::new();
        while !done(&got) {
            got.extend(r.pop().map(|q| q.req_id));
            assert!(t0.elapsed() < 50 * ABANDON_AFTER, "ring stayed wedged");
        }
        got
    }

    #[test]
    fn fifo_submit_and_drain() {
        let r = SubmitRing::with_capacity(8);
        for i in 0..5 {
            r.submit(req(i), 0).unwrap();
        }
        assert_eq!(r.len(), 5);
        let mut got = Vec::new();
        assert_eq!(r.drain(16, &mut |q| got.push(q.req_id)), 5);
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(r.is_empty());
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn full_ring_rejects_and_counts() {
        let r = SubmitRing::with_capacity(2);
        r.submit(req(0), 0).unwrap();
        r.submit(req(1), 0).unwrap();
        assert_eq!(r.submit(req(2), 0), Err(SubmitError::Full));
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.pop().unwrap().req_id, 0);
        r.submit(req(3), 0).unwrap();
        let mut ids = Vec::new();
        r.drain(8, &mut |q| ids.push(q.req_id));
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn wrap_around_many_laps() {
        let r = SubmitRing::with_capacity(3);
        for lap in 0u64..100 {
            r.submit(req(lap), 0).unwrap();
            assert_eq!(r.pop().unwrap().req_id, lap);
        }
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn stale_epoch_is_fenced() {
        let r = SubmitRing::with_capacity(4);
        r.set_epoch(7);
        assert_eq!(r.submit(req(0), 6), Err(SubmitError::Fenced));
        assert_eq!(r.fenced(), 1);
        r.submit(req(1), 7).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn reset_clears_queue_and_reopens_at_new_epoch() {
        let r = SubmitRing::with_capacity(4);
        r.submit(req(0), 0).unwrap();
        r.submit(req(1), 0).unwrap();
        r.reset(5);
        assert!(r.is_empty());
        assert_eq!(r.epoch(), 5);
        assert_eq!(r.submit(req(2), 0), Err(SubmitError::Fenced));
        r.submit(req(3), 5).unwrap();
        assert_eq!(r.pop().unwrap().req_id, 3);
    }

    #[test]
    fn payload_round_trips_exactly() {
        let r = SubmitRing::with_capacity(2);
        let q = Request { req_id: u64::MAX - 1, submit_us: 123_456_789, demand_us: 42 };
        r.submit(q, 0).unwrap();
        assert_eq!(r.pop(), Some(q));
    }

    #[test]
    fn raw_region_ring_works_like_heap_ring() {
        let words = SubmitRing::bytes_for(4) / 8;
        let mem: Box<[u64]> = vec![0u64; words].into_boxed_slice();
        let base = mem.as_ptr() as *mut u8;
        // SAFETY: region sized by bytes_for, 8-aligned, outlives the ring.
        let r = unsafe { SubmitRing::from_raw(base, 4) };
        r.reset(3);
        r.submit(req(9), 3).unwrap();
        assert_eq!(r.pop().unwrap().req_id, 9);
        drop(mem);
    }

    #[test]
    fn abandoned_reservation_unwedges_ring() {
        let r = SubmitRing::with_capacity(8);
        r.submit(req(0), 0).unwrap();
        // A client dies between its tail-CAS claim and its publish.
        r.reserve_abandon(0).unwrap();
        r.submit(req(2), 0).unwrap();

        // Requests ahead of the dead slot drain normally.
        assert_eq!(r.pop().unwrap().req_id, 0);

        // The head now sits on the claimed-but-unpublished slot. The
        // consumer tolerates it for ABANDON_AFTER...
        let t0 = Instant::now();
        let recovered = poll_until(&r, |got| !got.is_empty());
        // ...then tombstones it and delivers the request behind it.
        assert_eq!(recovered, vec![2]);
        assert!(t0.elapsed() >= ABANDON_AFTER, "abandoned inside the patience window");
        assert_eq!(r.abandoned(), 1);
        assert_eq!(r.pop(), None);

        // The ring keeps working around the permanent tombstone: run
        // several laps and re-prove FIFO conservation.
        for lap in 10u64..40 {
            r.submit(req(lap), 0).unwrap();
            assert_eq!(r.pop().unwrap().req_id, lap);
        }
        assert_eq!(r.abandoned(), 1);
        assert_eq!(r.dropped(), 0);
    }

    /// The patience window is time, not polls: a spinning consumer burns
    /// thousands of empty polls on a stalled slot (the old 8-poll budget
    /// lasted under a microsecond) without declaring its claimant dead.
    #[test]
    fn stalled_slot_not_abandoned_before_patience_window() {
        let r = SubmitRing::with_capacity(4);
        r.reserve_abandon(0).unwrap();
        let t0 = Instant::now();
        let mut polls = 0u64;
        loop {
            let popped = r.pop();
            let abandoned = r.abandoned();
            // The window opened no earlier than `t0`, so a poll that
            // returned while it is still open cannot have tombstoned.
            if t0.elapsed() >= ABANDON_AFTER {
                break;
            }
            assert_eq!((popped, abandoned), (None, 0), "abandoned after {polls} polls");
            polls += 1;
        }
        assert!(polls > 8, "only {polls} polls fit in the window");
        poll_until(&r, |_| r.abandoned() == 1);
    }

    #[test]
    fn fully_tombstoned_ring_reports_full_and_reset_revives_it() {
        let r = SubmitRing::with_capacity(2);
        // Kill a client mid-publish in every slot.
        for k in 0..2u64 {
            r.reserve_abandon(0).unwrap();
            assert!(poll_until(&r, |_| r.abandoned() == k + 1).is_empty());
        }
        assert_eq!(r.abandoned(), 2);
        // No usable slots remain: submit sheds instead of spinning.
        assert_eq!(r.submit(req(9), 0), Err(SubmitError::Full));
        assert!(r.dropped() >= 1);
        assert_eq!(r.pop(), None);

        // A new lease generation revives the tombstoned capacity.
        r.reset(1);
        r.submit(req(7), 1).unwrap();
        assert_eq!(r.pop().unwrap().req_id, 7);
        assert_eq!(r.abandoned(), 2, "abandon counter is monotone telemetry");
    }

    #[test]
    fn abandonment_with_queue_behind_it_preserves_fifo() {
        let r = SubmitRing::with_capacity(8);
        r.reserve_abandon(0).unwrap();
        for i in 1..=5 {
            r.submit(req(i), 0).unwrap();
        }
        let got = poll_until(&r, |got| got.len() == 5);
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        assert_eq!(r.abandoned(), 1);
    }

    #[test]
    fn concurrent_submitters_conserve_requests() {
        use std::sync::atomic::{AtomicBool, AtomicU8};
        use std::sync::Arc;

        let ring = Arc::new(SubmitRing::with_capacity(64));
        let producers = 4;
        let per = 2_000u64;
        let seen: Arc<Vec<AtomicU8>> =
            Arc::new((0..producers as u64 * per).map(|_| AtomicU8::new(0)).collect());
        let done = Arc::new(AtomicBool::new(false));

        let drainer = {
            let ring = Arc::clone(&ring);
            let seen = Arc::clone(&seen);
            let done = Arc::clone(&done);
            std::thread::spawn(move || loop {
                let n = ring.drain(16, &mut |q| {
                    seen[q.req_id as usize].fetch_add(1, Ordering::Relaxed);
                });
                if n == 0 {
                    if done.load(Ordering::Acquire) && ring.is_empty() {
                        break;
                    }
                    std::hint::spin_loop();
                }
            })
        };
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..per {
                        let id = p as u64 * per + i;
                        // Retry on Full (ring momentarily full) and on
                        // Abandoned (this thread was preempted between
                        // claim and publish long enough for the spinning
                        // drainer to presume it dead — the documented
                        // client response is to resubmit): this test wants
                        // conservation of every request.
                        while matches!(
                            ring.submit(req(id), 0),
                            Err(SubmitError::Full | SubmitError::Abandoned)
                        ) {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer thread panicked");
        }
        done.store(true, Ordering::Release);
        drainer.join().expect("drainer thread panicked");
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "request {i} delivered wrong number of times");
        }
    }
}
