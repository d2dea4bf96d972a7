//! Structured event tracing for the real runtime.
//!
//! Mirrors the simulator's `SchedEvent` vocabulary on real threads: every
//! scheduling-relevant transition (sleep/wake, core acquire/reclaim/
//! release, steal outcomes, coordinator decisions, task boundaries) is
//! recorded as a timestamped [`RtEvent`] into a lock-free bounded
//! [`EventRing`], one per worker plus one shared lane for the coordinator.
//!
//! Design constraints, in order:
//!
//! 1. **Never block the hot path.** Recording is one `fetch_add` plus one
//!    slot write; a full ring counts the event in `dropped` and moves on.
//! 2. **Zero cost when disabled.** With `TraceConfig::enabled == false`
//!    no rings are allocated and [`RtTrace::record`] is a single branch
//!    on an immutable bool (no timestamp is taken).
//! 3. **Shared clock.** All timestamps are microseconds since a
//!    process-wide epoch ([`trace_epoch`]), so co-running runtimes in one
//!    process produce directly comparable (and Chrome-trace mergeable)
//!    timelines.
//!
//! The event stream is also *checkable*: [`ReplayChecker`] replays
//! Acquire/Reclaim/Release events against the allocation-table protocol
//! (at most one owner per core, releases only by the owner, reclaims only
//! of home cores) — the same invariants `dws-sim`'s property tests
//! enforce, now verified on a live run.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use serde::{Deserialize, Serialize};

pub use dws_core::policy::CoordCase;

/// One scheduling event on the real runtime (the `dws-sim::SchedEvent`
/// vocabulary, with real-thread additions: steal outcomes and task
/// boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RtEvent {
    /// Worker went to sleep; `evicted` when its core was reclaimed out
    /// from under it (§4.2) rather than hitting `T_SLEEP` failures.
    Sleep {
        /// Worker index.
        worker: usize,
        /// True when displaced from a reclaimed core.
        evicted: bool,
    },
    /// Worker resumed (coordinator grant or safety timeout).
    Wake {
        /// Worker index.
        worker: usize,
    },
    /// `Free → Used(prog)` transition succeeded.
    Acquire {
        /// Acquiring program.
        prog: usize,
        /// Core acquired.
        core: usize,
    },
    /// Home core taken back from another program (or from free).
    Reclaim {
        /// Reclaiming (home) program.
        prog: usize,
        /// Core reclaimed.
        core: usize,
    },
    /// `Used(prog) → Free` transition succeeded.
    Release {
        /// Releasing program.
        prog: usize,
        /// Core released.
        core: usize,
    },
    /// A steal attempt landed a job.
    StealOk {
        /// Thief worker index.
        worker: usize,
        /// Victim worker index.
        victim: usize,
    },
    /// A steal attempt found the victim empty (or lost the race).
    StealFail {
        /// Thief worker index.
        worker: usize,
    },
    /// One §3.3 coordinator evaluation (Eq. 1 inputs and outcome).
    CoordinatorDecision {
        /// Queued jobs observed (`N_b`).
        n_b: usize,
        /// Active (awake) workers observed (`N_a`).
        n_a: usize,
        /// Free cores observed (`N_f`).
        n_f: usize,
        /// Reclaimable home cores observed (`N_r`).
        n_r: usize,
        /// Eq. 1 wake target (`N_w`, clamped to sleepers).
        n_w: usize,
        /// Case label.
        case: CoordCase,
    },
    /// A task was spawned: its packed [`dws_deque::TaskId`] was minted by
    /// the spawning worker (or the external lane) — the first event of a
    /// task's lifecycle.
    Spawn {
        /// Packed task identity ([`dws_deque::TaskId::as_u64`]).
        id: u64,
    },
    /// The spawned task entered a queue (the spawner's deque, or the
    /// injector for external submissions).
    Enqueue {
        /// Packed task identity.
        id: u64,
    },
    /// An external request was admitted: the coordinator drained it from
    /// the shm submission ring and enqueued it on the injector. Extends
    /// the lifecycle one hop earlier than [`RtEvent::Spawn`]: `submit_us`
    /// is the client-side submission time, so `ExecBegin − submit_us` is
    /// the end-to-end request sojourn.
    Admit {
        /// Packed task identity minted at admission (external lane).
        id: u64,
        /// Client submit time, µs since the trace epoch.
        submit_us: u64,
    },
    /// A successful batched steal moved `moved` tasks (including the one
    /// popped by the thief) from `victim`'s deque into `worker`'s. The
    /// moved ids are not enumerated — each surfaces at its `ExecBegin`,
    /// whose lane differs from its spawn lane after a migration.
    BatchMoved {
        /// Thief worker index (the batch's new home).
        worker: usize,
        /// Victim worker index.
        victim: usize,
        /// Tasks transferred, ≥ 1.
        moved: usize,
    },
    /// A task began executing. With `id` linked back to its [`RtEvent::Spawn`]
    /// this closes the task's deque-sojourn interval.
    ExecBegin {
        /// Executing worker index.
        worker: usize,
        /// Packed task identity.
        id: u64,
    },
    /// The task finished.
    ExecEnd {
        /// Executing worker index.
        worker: usize,
        /// Packed task identity.
        id: u64,
    },
    /// A program's lease was fenced after its heartbeat went stale and
    /// `kill(pid, 0)` confirmed the process dead (failure model, DESIGN
    /// §10). Emitted by the reaping survivor, not the dead program.
    LeaseExpired {
        /// The dead program whose lease expired.
        prog: usize,
    },
    /// `Used(dead) → Free` forced by a reaper: a stranded core owned by a
    /// fenced (dead) program was returned to the free pool.
    Reap {
        /// The dead program that owned the core.
        prog: usize,
        /// Core returned to the free pool.
        core: usize,
    },
}

impl RtEvent {
    /// Short stable name (JSONL `event` tag, Chrome-trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            RtEvent::Sleep { .. } => "sleep",
            RtEvent::Wake { .. } => "wake",
            RtEvent::Acquire { .. } => "acquire",
            RtEvent::Reclaim { .. } => "reclaim",
            RtEvent::Release { .. } => "release",
            RtEvent::StealOk { .. } => "steal_ok",
            RtEvent::StealFail { .. } => "steal_fail",
            RtEvent::CoordinatorDecision { .. } => "coordinator_decision",
            RtEvent::Spawn { .. } => "spawn",
            RtEvent::Enqueue { .. } => "enqueue",
            RtEvent::Admit { .. } => "admit",
            RtEvent::BatchMoved { .. } => "batch_moved",
            RtEvent::ExecBegin { .. } => "exec_begin",
            RtEvent::ExecEnd { .. } => "exec_end",
            RtEvent::LeaseExpired { .. } => "lease_expired",
            RtEvent::Reap { .. } => "reap",
        }
    }
}

/// Lane number used for events not tied to one worker (coordinator,
/// external threads, the shared table observer).
pub const LANE_SHARED: u32 = u32::MAX;

/// A timestamped event: microseconds since [`trace_epoch`], the emitting
/// lane (worker index, or [`LANE_SHARED`]), and the event itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Microseconds since the process-wide trace epoch.
    pub t_us: u64,
    /// Emitting lane: worker index, or [`LANE_SHARED`].
    pub lane: u32,
    /// The event.
    pub event: RtEvent,
}

/// The process-wide trace epoch. First caller pins it; all runtimes in
/// the process share it so their timelines align.
pub fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since [`trace_epoch`].
#[inline]
pub fn now_us() -> u64 {
    trace_epoch().elapsed().as_micros() as u64
}

/// One write-once slot of an [`EventRing`].
struct Slot {
    ready: AtomicBool,
    data: UnsafeCell<MaybeUninit<TimedEvent>>,
}

// SAFETY: `data` is written exactly once (by whoever wins the slot index
// from `next`) before `ready` is set with Release; readers only touch
// `data` after observing `ready` with Acquire. `TimedEvent` is `Copy`, so
// reads never race a drop.
unsafe impl Sync for Slot {}

/// A lock-free bounded event buffer: concurrent writers claim distinct
/// slots with one `fetch_add`; once full, further events are counted in
/// [`EventRing::dropped`] and discarded (recording history must never
/// stall the scheduler).
pub struct EventRing {
    slots: Box<[Slot]>,
    next: AtomicUsize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.slots.len())
            .field("captured", &self.captured())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventRing {
    /// Creates a ring holding up to `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an event ring needs at least one slot");
        let slots = (0..capacity)
            .map(|_| Slot {
                ready: AtomicBool::new(false),
                data: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        EventRing { slots, next: AtomicUsize::new(0), dropped: AtomicU64::new(0) }
    }

    /// Records one event. Returns false (and counts the drop) when the
    /// ring is full. Lock-free; safe from any thread.
    #[inline]
    pub fn record(&self, ev: TimedEvent) -> bool {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        if seq >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let slot = &self.slots[seq];
        // SAFETY: `seq` is unique (fetch_add), so this slot is written by
        // exactly one thread, exactly once, before `ready` is published.
        unsafe { (*slot.data.get()).write(ev) };
        slot.ready.store(true, Ordering::Release);
        true
    }

    /// Number of events stored (≤ capacity).
    pub fn captured(&self) -> usize {
        self.next.load(Ordering::Acquire).min(self.slots.len())
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Copies out every fully published event, in claim order. Slots
    /// claimed but not yet published by a mid-write thread are skipped —
    /// the snapshot never blocks on writers.
    pub fn snapshot(&self) -> Vec<TimedEvent> {
        let n = self.captured();
        let mut out = Vec::with_capacity(n);
        for slot in &self.slots[..n] {
            if slot.ready.load(Ordering::Acquire) {
                // SAFETY: `ready` was set with Release after the write,
                // and slots are write-once, so the data is initialized
                // and stable.
                out.push(unsafe { (*slot.data.get()).assume_init() });
            }
        }
        out
    }
}

/// Per-runtime trace state: one ring per worker plus one shared lane
/// (coordinator / external threads). All lanes share the process epoch.
#[derive(Debug)]
pub struct RtTrace {
    /// Immutable after construction: the zero-cost-when-disabled gate.
    enabled: bool,
    /// `workers + 1` rings; the last is the shared lane. Empty when
    /// disabled (no allocation at all).
    rings: Vec<EventRing>,
}

impl RtTrace {
    /// Builds the trace state for `workers` lanes. When `enabled` is
    /// false nothing is allocated and every record is a cheap no-op.
    pub(crate) fn new(workers: usize, capacity: usize, enabled: bool) -> Self {
        if !enabled {
            return RtTrace { enabled: false, rings: Vec::new() };
        }
        let rings = (0..workers + 1).map(|_| EventRing::new(capacity.max(1))).collect();
        RtTrace { enabled: true, rings }
    }

    /// Is event recording active?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `ev` on a worker lane (`lane < workers`) or the shared
    /// lane (anything else, canonically [`LANE_SHARED`]).
    #[inline]
    pub fn record(&self, lane: u32, ev: RtEvent) {
        if !self.enabled {
            return;
        }
        let idx = (lane as usize).min(self.rings.len() - 1);
        self.rings[idx].record(TimedEvent { t_us: now_us(), lane, event: ev });
    }

    /// Total events dropped across all lanes so far (ring overflow).
    /// Cheap — one relaxed load per lane, no event copying.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(EventRing::dropped).sum()
    }

    /// Merged snapshot of every lane, sorted by timestamp.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut events: Vec<TimedEvent> = self.rings.iter().flat_map(EventRing::snapshot).collect();
        events.sort_by_key(|e| e.t_us);
        let dropped = self.rings.iter().map(EventRing::dropped).sum();
        TraceSnapshot { events, dropped }
    }
}

/// A merged, time-sorted copy of a runtime's event stream.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Events sorted by `t_us`.
    pub events: Vec<TimedEvent>,
    /// Total events dropped across all lanes (ring overflow).
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Events of one kind (by [`RtEvent::name`]).
    pub fn count(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.event.name() == name).count()
    }
}

/// Counts from a successful [`ReplayChecker`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Acquire events replayed.
    pub acquires: u64,
    /// Reclaim events replayed.
    pub reclaims: u64,
    /// Release events replayed.
    pub releases: u64,
    /// Reap events replayed (stranded cores freed from dead programs).
    pub reaps: u64,
}

impl ReplayStats {
    /// Total table events replayed.
    pub fn total(&self) -> u64 {
        self.acquires + self.reclaims + self.releases + self.reaps
    }
}

/// A table-protocol violation found while replaying an event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayViolation {
    /// Index of the offending event in the replayed stream.
    pub index: usize,
    /// The offending event.
    pub event: RtEvent,
    /// What was violated.
    pub reason: String,
}

impl std::fmt::Display for ReplayViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event #{} {:?}: {}", self.index, self.event, self.reason)
    }
}

/// Event-sourced allocation-table invariant checker: replays
/// Acquire/Reclaim/Release events against the Table-1 protocol from the
/// initial fully-owned equipartition. Non-table events are ignored, so a
/// full mixed stream can be fed directly.
///
/// Invariants enforced (the ones `dws-sim`'s property tests check on the
/// simulated table):
/// * a core has at most one owner; `Acquire` requires it free;
/// * `Release` only by the current owner (so a release is "monotone":
///   once released, a second release without a re-acquire is illegal);
/// * `Reclaim` only of the reclaimer's home core, never of a core it
///   already owns;
/// * `Reap` only of a core owned by a program previously fenced by
///   `LeaseExpired`, and no table transition by an expired program
///   afterwards (a dead program must stay dead).
#[derive(Debug, Clone)]
pub struct ReplayChecker {
    home: Vec<usize>,
    owner: Vec<Option<usize>>,
    expired: std::collections::HashSet<usize>,
    stats: ReplayStats,
    applied: usize,
}

impl ReplayChecker {
    /// Starts from the initial state: every core owned by its home
    /// program (§3.1 — all home workers awake).
    pub fn new(home: &[usize]) -> Self {
        ReplayChecker {
            home: home.to_vec(),
            owner: home.iter().map(|&p| Some(p)).collect(),
            expired: std::collections::HashSet::new(),
            stats: ReplayStats::default(),
            applied: 0,
        }
    }

    /// Applies one event. Non-table events succeed trivially.
    pub fn apply(&mut self, event: &RtEvent) -> Result<(), ReplayViolation> {
        let index = self.applied;
        self.applied += 1;
        let fail = |reason: String| Err(ReplayViolation { index, event: *event, reason });
        match *event {
            RtEvent::Acquire { prog, core } => {
                if self.expired.contains(&prog) {
                    return fail(format!("acquire of core {core} by expired prog {prog}"));
                }
                let Some(owner) = self.owner.get(core).copied() else {
                    return fail(format!("core {core} out of range"));
                };
                if let Some(cur) = owner {
                    return fail(format!(
                        "acquire of core {core} by prog {prog} while owned by prog {cur}"
                    ));
                }
                self.owner[core] = Some(prog);
                self.stats.acquires += 1;
            }
            RtEvent::Reclaim { prog, core } => {
                if self.expired.contains(&prog) {
                    return fail(format!("reclaim of core {core} by expired prog {prog}"));
                }
                let Some(owner) = self.owner.get(core).copied() else {
                    return fail(format!("core {core} out of range"));
                };
                if self.home[core] != prog {
                    return fail(format!(
                        "reclaim of core {core} by prog {prog}, whose home is prog {}",
                        self.home[core]
                    ));
                }
                if owner == Some(prog) {
                    return fail(format!(
                        "reclaim of core {core} by prog {prog} which already owns it"
                    ));
                }
                self.owner[core] = Some(prog);
                self.stats.reclaims += 1;
            }
            RtEvent::Release { prog, core } => {
                if self.expired.contains(&prog) {
                    return fail(format!("release of core {core} by expired prog {prog}"));
                }
                let Some(owner) = self.owner.get(core).copied() else {
                    return fail(format!("core {core} out of range"));
                };
                if owner != Some(prog) {
                    return fail(match owner {
                        Some(cur) => format!(
                            "release of core {core} by prog {prog} while owned by prog {cur}"
                        ),
                        None => {
                            format!("double release of core {core} by prog {prog} (already free)")
                        }
                    });
                }
                self.owner[core] = None;
                self.stats.releases += 1;
            }
            RtEvent::LeaseExpired { prog } => {
                // Idempotent: several reapers may observe (and re-record)
                // the same expiry; only the first fence CAS wins in the
                // live table, but a TracedTable over a replayed stream may
                // legally repeat the announcement.
                self.expired.insert(prog);
            }
            RtEvent::Reap { prog, core } => {
                if !self.expired.contains(&prog) {
                    return fail(format!(
                        "reap of core {core} from prog {prog} whose lease never expired"
                    ));
                }
                let Some(owner) = self.owner.get(core).copied() else {
                    return fail(format!("core {core} out of range"));
                };
                if owner != Some(prog) {
                    return fail(match owner {
                        Some(cur) => format!(
                            "reap of core {core} from prog {prog} while owned by prog {cur}"
                        ),
                        None => format!("reap of core {core} from prog {prog} but it is free"),
                    });
                }
                self.owner[core] = None;
                self.stats.reaps += 1;
            }
            _ => {}
        }
        Ok(())
    }

    /// Replays a whole stream; first violation wins.
    pub fn replay<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a RtEvent>,
    ) -> Result<ReplayStats, ReplayViolation> {
        for ev in events {
            self.apply(ev)?;
        }
        Ok(self.stats)
    }

    /// Current owner map (diagnostic).
    pub fn owners(&self) -> &[Option<usize>] {
        &self.owner
    }

    /// Stats so far.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn te(ev: RtEvent) -> TimedEvent {
        TimedEvent { t_us: now_us(), lane: 0, event: ev }
    }

    #[test]
    fn ring_records_in_order_and_caps() {
        let r = EventRing::new(4);
        for i in 0..6 {
            r.record(te(RtEvent::StealFail { worker: i }));
        }
        assert_eq!(r.captured(), 4);
        assert_eq!(r.dropped(), 2);
        let evs = r.snapshot();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[3].event, RtEvent::StealFail { worker: 3 });
    }

    #[test]
    fn disabled_trace_is_inert() {
        let t = RtTrace::new(4, 1024, false);
        t.record(0, RtEvent::Wake { worker: 0 });
        t.record(LANE_SHARED, RtEvent::Wake { worker: 1 });
        let snap = t.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn enabled_trace_merges_lanes_sorted() {
        let t = RtTrace::new(2, 64, true);
        t.record(1, RtEvent::ExecBegin { worker: 1, id: 7 });
        t.record(0, RtEvent::ExecBegin { worker: 0, id: 8 });
        t.record(
            LANE_SHARED,
            RtEvent::CoordinatorDecision {
                n_b: 1,
                n_a: 1,
                n_f: 0,
                n_r: 0,
                n_w: 1,
                case: CoordCase::NoAction,
            },
        );
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert!(snap.events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        assert_eq!(snap.count("exec_begin"), 2);
        assert_eq!(snap.count("coordinator_decision"), 1);
    }

    #[test]
    fn replay_accepts_legal_protocol() {
        // 4 cores, 2 programs, home = [0,0,1,1].
        let home = [0, 0, 1, 1];
        let stream = [
            RtEvent::Release { prog: 0, core: 1 },
            RtEvent::Acquire { prog: 1, core: 1 },
            RtEvent::Release { prog: 1, core: 1 },
            RtEvent::Reclaim { prog: 0, core: 1 }, // reclaim from free
            RtEvent::Release { prog: 0, core: 0 },
            RtEvent::Acquire { prog: 1, core: 0 },
            RtEvent::Reclaim { prog: 0, core: 0 }, // reclaim from user
            RtEvent::ExecBegin { worker: 0, id: 1 }, // ignored
        ];
        let stats = ReplayChecker::new(&home).replay(stream.iter()).unwrap();
        assert_eq!(stats, ReplayStats { acquires: 2, reclaims: 2, releases: 3, reaps: 0 });
        assert_eq!(stats.total(), 7);
    }

    #[test]
    fn replay_accepts_reap_of_expired_program() {
        let home = [0, 0, 1, 1];
        let stream = [
            RtEvent::LeaseExpired { prog: 1 },
            RtEvent::LeaseExpired { prog: 1 }, // repeated announcement is legal
            RtEvent::Reap { prog: 1, core: 2 },
            RtEvent::Reap { prog: 1, core: 3 },
            RtEvent::Acquire { prog: 0, core: 2 }, // survivor picks it up
        ];
        let stats = ReplayChecker::new(&home).replay(stream.iter()).unwrap();
        assert_eq!(stats, ReplayStats { acquires: 1, reclaims: 0, releases: 0, reaps: 2 });
    }

    #[test]
    fn replay_rejects_reap_without_expiry() {
        let home = [0, 1];
        let err = ReplayChecker::new(&home).apply(&RtEvent::Reap { prog: 1, core: 1 }).unwrap_err();
        assert!(err.reason.contains("never expired"));
    }

    #[test]
    fn replay_rejects_reap_of_foreign_or_free_core() {
        let home = [0, 1];
        let mut c = ReplayChecker::new(&home);
        c.apply(&RtEvent::LeaseExpired { prog: 1 }).unwrap();
        let err = c.apply(&RtEvent::Reap { prog: 1, core: 0 }).unwrap_err();
        assert!(err.reason.contains("while owned by prog 0"));
        c.apply(&RtEvent::Reap { prog: 1, core: 1 }).unwrap();
        let err = c.apply(&RtEvent::Reap { prog: 1, core: 1 }).unwrap_err();
        assert!(err.reason.contains("free"));
    }

    #[test]
    fn replay_rejects_transitions_by_expired_program() {
        let home = [0, 1];
        let mut c = ReplayChecker::new(&home);
        c.apply(&RtEvent::LeaseExpired { prog: 1 }).unwrap();
        let err = c.apply(&RtEvent::Release { prog: 1, core: 1 }).unwrap_err();
        assert!(err.reason.contains("expired prog 1"));
        let err = c.apply(&RtEvent::Reclaim { prog: 1, core: 1 }).unwrap_err();
        assert!(err.reason.contains("expired prog 1"));
        c.apply(&RtEvent::Reap { prog: 1, core: 1 }).unwrap();
        let err = c.apply(&RtEvent::Acquire { prog: 1, core: 1 }).unwrap_err();
        assert!(err.reason.contains("expired prog 1"));
    }

    #[test]
    fn replay_rejects_double_owner() {
        let home = [0, 1];
        let stream = [
            RtEvent::Release { prog: 0, core: 0 },
            RtEvent::Acquire { prog: 1, core: 0 },
            RtEvent::Acquire { prog: 0, core: 0 }, // core already owned
        ];
        let err = ReplayChecker::new(&home).replay(stream.iter()).unwrap_err();
        assert_eq!(err.index, 2);
        assert!(err.reason.contains("while owned"));
    }

    #[test]
    fn replay_rejects_double_release_and_foreign_reclaim() {
        let home = [0, 1];
        let mut c = ReplayChecker::new(&home);
        c.apply(&RtEvent::Release { prog: 0, core: 0 }).unwrap();
        let err = c.apply(&RtEvent::Release { prog: 0, core: 0 }).unwrap_err();
        assert!(err.reason.contains("double release"));

        let mut c = ReplayChecker::new(&home);
        let err = c.apply(&RtEvent::Reclaim { prog: 0, core: 1 }).unwrap_err();
        assert!(err.reason.contains("home"));
    }

    #[test]
    fn replay_rejects_release_by_non_owner() {
        let home = [0, 1];
        let err =
            ReplayChecker::new(&home).apply(&RtEvent::Release { prog: 1, core: 0 }).unwrap_err();
        assert!(err.reason.contains("owned by prog 0"));
    }

    #[test]
    fn concurrent_ring_writers_account_exactly() {
        use std::sync::Arc;
        let ring = Arc::new(EventRing::new(1_000));
        let writers = 4;
        let per = 500; // 2000 total vs 1000 capacity
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let r = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        r.record(te(RtEvent::StealFail { worker: w }));
                    }
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            if h.join().is_err() {
                panic!("ring writer thread {w} panicked");
            }
        }
        assert_eq!(ring.captured() as u64 + ring.dropped(), (writers * per) as u64);
        assert_eq!(ring.snapshot().len(), ring.captured());
    }
}
