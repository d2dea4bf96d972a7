//! The shared core-allocation table (paper Table 1) for real runtimes.
//!
//! Co-running programs coordinate exclusively through this table — there
//! is no centralized allocator (the paper's headline design point). Each
//! slot records the program currently using the core, or FREE. The static
//! *home* partition (initial equipartition, §3.1) determines which cores a
//! program may *reclaim* (§3.3 constraint 2).
//!
//! Two backends implement the same lock-free protocol:
//!
//! * [`InProcessTable`] — plain atomics behind an `Arc`, for co-running
//!   several [`crate::Runtime`] instances inside one process (how the
//!   experiment harness hosts its "programs");
//! * [`crate::shm::ShmTable`] — the paper's actual mechanism, an
//!   `mmap(2)`-shared file usable across processes (§3.4).

use std::sync::Arc;
use std::time::Duration;

use crate::sync::{AtomicI32, Condvar, Mutex, Ordering};

use crate::trace::{
    now_us, EventRing, ReplayChecker, ReplayStats, ReplayViolation, RtEvent, TimedEvent,
    LANE_SHARED,
};

// The fairness ledger is observability-only state: it uses std atomics
// directly (not the `crate::sync` shim) so running the runtime under
// dws-check adds no scheduling yield points for it.
use std::sync::atomic::{
    AtomicI64 as StdAtomicI64, AtomicU64 as StdAtomicU64, Ordering as StdOrdering,
};

/// Slot value for a free core.
pub const FREE: i32 = -1;

// ---- doorbell reason bits (DESIGN §16) --------------------------------
//
// Each program owns one doorbell word in the table. Ringing ORs a reason
// bit in and wakes the program's coordinator; waiting consumes the whole
// accumulated word. Reasons are advisory — a wake with stale reasons is
// harmless (the coordinator re-reads the table) — but they make telemetry
// and the bench's wake-source attribution possible.

/// A core was released back to the table (rung on the core's *home*
/// program: it is the one whose reclaim supply just changed).
pub const DOORBELL_RELEASE: u32 = 1 << 0;
/// The demand signal rose and the coordinator should re-run Eq. 1 now
/// (rung on the program's own doorbell). `WorkerThread::push` rings it on
/// the demand-rise edge — Eq. 1 demand with a sibling asleep on an
/// obtainable core — and `ensure_progress` when work is injected with
/// every worker asleep and no core obtainable. Bit `1 << 1` is unassigned.
pub const DOORBELL_DEMAND: u32 = 1 << 2;
/// A request was pushed into the program's submission ring and should be
/// admitted without waiting out the coordinator period.
pub const DOORBELL_SUBMIT: u32 = 1 << 3;
/// The runtime is shutting down; the coordinator should exit promptly.
pub const DOORBELL_SHUTDOWN: u32 = 1 << 4;

/// A per-program doorbell over the `crate::sync` shim primitives: the
/// [`crate::Sleeper`] permit protocol generalized from a boolean to a
/// reason bitmask. A ring *before* the wait is never lost (the pending
/// word survives until consumed), so the check-then-park window that
/// loses wakes in naive condvar code does not exist here — the property
/// `dws-check`'s `Bug::LostWake` mutation deletes.
#[derive(Debug, Default)]
pub struct Doorbell {
    /// Accumulated reason bits; consumed wholesale by the waiter.
    pending: Mutex<u32>,
    cond: Condvar,
}

impl Doorbell {
    /// Creates an un-rung doorbell.
    pub fn new() -> Self {
        Self::default()
    }

    /// ORs `reason` into the pending word and wakes the waiter. Idempotent
    /// and never lost: a ring delivered while nobody waits makes the next
    /// [`Doorbell::wait`] return immediately.
    pub fn ring(&self, reason: u32) {
        let mut pending = self.pending.lock();
        *pending |= reason;
        self.cond.notify_one();
    }

    /// Blocks until rung or until `timeout` elapses, consuming and
    /// returning the accumulated reason bits (0 = timed out un-rung).
    pub fn wait(&self, timeout: Duration) -> u32 {
        let mut pending = self.pending.lock();
        loop {
            if *pending != 0 {
                return std::mem::take(&mut *pending);
            }
            if self.cond.wait_for(&mut pending, timeout).timed_out() {
                return std::mem::take(&mut *pending);
            }
            // Spurious wake-up with nothing pending: wait again.
        }
    }
}

/// The table protocol. All operations are lock-free single-slot CASes;
/// `prog` identifiers are indices in `0..max_programs()`.
pub trait CoreTable: Send + Sync {
    /// Number of cores (slots).
    fn cores(&self) -> usize;
    /// Number of co-running programs the table was sized for.
    fn max_programs(&self) -> usize;
    /// Home owner of `core` under the initial equipartition.
    fn home(&self, core: usize) -> usize;
    /// Current user of `core`, or `None` if free.
    fn current(&self, core: usize) -> Option<usize>;
    /// Releases `core`: `Used(prog) → Free`. Returns false if `prog` was
    /// not the current user (e.g. the core was reclaimed concurrently).
    fn release(&self, core: usize, prog: usize) -> bool;
    /// Acquires a free core: `Free → Used(prog)`. Returns false if the
    /// core was not free (lost a race).
    fn try_acquire_free(&self, core: usize, prog: usize) -> bool;
    /// Reclaims one of `prog`'s home cores from its current user (or from
    /// FREE). Fails if `core` is not `prog`'s home or already its own.
    fn try_reclaim(&self, core: usize, prog: usize) -> bool;

    /// `N_f`: all currently free cores.
    fn free_cores(&self) -> Vec<usize> {
        (0..self.cores()).filter(|&c| self.current(c).is_none()).collect()
    }

    /// `N_r` support: `prog`'s home cores currently used by others.
    fn reclaimable_cores(&self, prog: usize) -> Vec<usize> {
        (0..self.cores())
            .filter(|&c| self.home(c) == prog && matches!(self.current(c), Some(u) if u != prog))
            .collect()
    }

    /// Cores currently used by `prog`.
    fn used_by(&self, prog: usize) -> Vec<usize> {
        (0..self.cores()).filter(|&c| self.current(c) == Some(prog)).collect()
    }

    /// One-pass occupancy snapshot: `owners()[c]` is the program using
    /// core `c`, or `-1` when free — the telemetry sampler's view of the
    /// table. Backends may override with a bulk read.
    fn owners(&self) -> Vec<i64> {
        (0..self.cores()).map(|c| self.current(c).map_or(-1, |p| p as i64)).collect()
    }

    // ---- failure model (lease / reap protocol) ------------------------
    //
    // Default implementations make every backend crash-oblivious: no
    // leases, nobody ever reapable, always healthy. Backends that track
    // liveness (ShmTable across processes, InProcessTable's dead flags)
    // override them; [`reap_expired`] drives the protocol generically.

    /// Refreshes `prog`'s liveness lease (coordinator, once per tick).
    fn heartbeat(&self, _prog: usize) {}

    /// Marks `prog` dead for liveness purposes — the in-process analogue
    /// of a SIGKILL'd pid (tests, simulators, controlled shutdown).
    fn mark_dead(&self, _prog: usize) {}

    /// Programs whose lease has expired (stale heartbeat *and* confirmed
    /// dead) or whose reap is half-done, as observed by `caller`.
    fn reapable_programs(&self, _caller: usize, _timeout: Duration) -> Vec<usize> {
        Vec::new()
    }

    /// Fences an expired program's lease (`ACTIVE → FENCED`) so its cores
    /// can be reaped. True only for the fencing transition itself.
    fn fence_expired(&self, _prog: usize) -> bool {
        false
    }

    /// Returns one of fenced `dead`'s cores to the free pool
    /// (`Used(dead) → Free`, epoch-checked). False if the slot moved on.
    fn try_reap(&self, _core: usize, _dead: usize) -> bool {
        false
    }

    /// Completes a reap (`FENCED → REAPED`) once no slot names the dead
    /// incarnation, making the lease recyclable.
    fn finish_reap(&self, _dead: usize) -> bool {
        false
    }

    /// Is the backing store still trustworthy? Degrading backends flip to
    /// their fallback on a failed check (see `shm::FailoverTable`).
    fn check_health(&self) -> bool {
        true
    }

    /// Has this table degraded to a fallback? Surfaces in telemetry as
    /// the `degraded` gauge.
    fn degraded(&self) -> bool {
        false
    }

    /// The shm-resident submission ring for `prog`, when this backend
    /// carves one out of its segment (serving mode, DESIGN §13). The
    /// default — no ring — makes every backend serving-oblivious; a
    /// serving [`crate::Runtime`] then falls back to a heap-backed ring
    /// reachable only in-process.
    fn submit_ring(&self, _prog: usize) -> Option<&dws_deque::SubmitRing> {
        None
    }

    /// The per-program core-time ledger, when this backend (or a wrapping
    /// [`LedgerTable`]) maintains one. The default — no ledger — keeps
    /// every backend fairness-oblivious; telemetry then reports zero
    /// core-seconds and the dashboards hide the fairness panel.
    fn alloc_ledger(&self) -> Option<&AllocLedger> {
        None
    }

    // ---- zombie fencing (stale-lease self-protection) ------------------
    //
    // A coordinator SIGSTOPped past its lease timeout can be reaped and
    // then *resume* — a zombie whose handle would keep mutating a table it
    // no longer owns. Backends with leases (ShmTable) latch the caller's
    // own (program, epoch) at registration and verify it before every
    // mutation; the defaults keep lease-less backends oblivious.

    /// Latches the caller's identity against `prog`'s *current* lease so
    /// every subsequent mutation through this handle is checked against
    /// it. Called automatically by registration; call it explicitly when
    /// using a fixed program id without registering.
    fn bind_self(&self, _prog: usize) {}

    /// Has this handle discovered that its own lease was fenced or
    /// recycled while it was stalled (it is a **zombie**)? Sticky: once
    /// set, every mutating operation through the handle refuses until a
    /// successful [`CoreTable::try_rearm`]. Surfaces in telemetry as
    /// `zombies_fenced`.
    fn zombie_fenced(&self) -> bool {
        false
    }

    /// Attempts to recover a zombie handle by re-claiming its own fully
    /// **reaped** lease under a bumped epoch (same program id, fresh
    /// incarnation). Fails while the reap is still in flight or a
    /// successor already recycled the lease — the caller should then
    /// degrade instead. Clears the zombie flag on success.
    fn try_rearm(&self, _prog: usize) -> bool {
        false
    }

    /// Opts this *handle* into treating a live-but-stalled co-runner as
    /// expired: a program whose heartbeat is stale beyond `timeout` may be
    /// fenced and reaped even though its pid still exists. Safe only
    /// because every handle self-checks its lease (a stalled program that
    /// resumes finds itself fenced and stops, instead of corrupting its
    /// successor). `None` (the default state) restores the conservative
    /// confirmed-dead-only behavior.
    fn set_stall_timeout(&self, _timeout: Option<Duration>) {}

    /// Forces the table into degraded mode (where supported): the program
    /// retreats to plain work-stealing on its home partition. Called when
    /// a zombie cannot [`CoreTable::try_rearm`] — its lease now belongs to
    /// a successor — so continuing against the shared table is unsound.
    /// No-op for backends without a degraded mode.
    fn degrade_now(&self) {}

    // ---- doorbells (event-driven control plane, DESIGN §16) ------------
    //
    // One doorbell word per program. Edge events — a released core, parked
    // surplus, a demand rise, a ring submission — ring the interested
    // program's doorbell so its coordinator acts immediately instead of
    // waiting out the polling period. Defaults keep oblivious backends on
    // pure polling: rings vanish and waits degrade to plain sleeps.

    /// ORs `reason` into `prog`'s doorbell word and wakes its waiter (the
    /// program's coordinator). Must never block and must never be lost
    /// when a waiter is parked or about to park.
    fn ring_doorbell(&self, _prog: usize, _reason: u32) {}

    /// Blocks until `prog`'s doorbell is rung or `timeout` elapses,
    /// consuming and returning the accumulated reason bits (0 = timed out
    /// un-rung). The default — a plain sleep — preserves the polling
    /// cadence for doorbell-oblivious backends.
    fn wait_doorbell(&self, _prog: usize, timeout: Duration) -> u32 {
        crate::sync::sleep(timeout);
        0
    }
}

/// Outcome of one [`reap_expired`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReapPass {
    /// Leases newly fenced this pass (one per program whose death this
    /// caller confirmed first).
    pub leases_expired: u64,
    /// Stranded cores returned to the free pool this pass.
    pub cores_reaped: u64,
}

/// One opportunistic reaper pass, run by any live coordinator: fence each
/// expired program, free its stranded cores, and complete the reap so the
/// lease becomes recyclable. Safe to race with other reapers (every step
/// is a CAS; losers skip) and with a slow-but-alive owner (fencing
/// requires a confirmed-dead pid, and every slot CAS is epoch-checked).
///
/// Driving the protocol through `&dyn CoreTable` means a wrapping
/// [`TracedTable`] records the `LeaseExpired`/`Reap` transitions like any
/// other table event.
pub fn reap_expired(table: &dyn CoreTable, caller: usize, timeout: Duration) -> ReapPass {
    let mut pass = ReapPass::default();
    for dead in table.reapable_programs(caller, timeout) {
        if table.fence_expired(dead) {
            pass.leases_expired += 1;
        }
        for core in table.used_by(dead) {
            if table.try_reap(core, dead) {
                pass.cores_reaped += 1;
            }
        }
        let _ = table.finish_reap(dead);
    }
    pass
}

/// Computes the adjacent equipartition home map (paper §3.1): program `p`
/// owns `cores/programs` contiguous cores, with the first `cores %
/// programs` programs absorbing one extra each.
pub fn equipartition_home(cores: usize, programs: usize) -> Vec<usize> {
    assert!(programs > 0 && cores >= programs, "need at least one core per program");
    let base = cores / programs;
    let extra = cores % programs;
    let mut home = Vec::with_capacity(cores);
    for p in 0..programs {
        let share = base + usize::from(p < extra);
        home.extend(std::iter::repeat_n(p, share));
    }
    home
}

/// In-process lease lifecycle (per-program flag in [`InProcessTable`]).
/// There is no heartbeat staleness here: a stalled thread is still alive,
/// so only an explicit [`CoreTable::mark_dead`] — the in-process analogue
/// of SIGKILL + `ESRCH` — starts the reap ladder.
const INPROC_ALIVE: i32 = 0;
const INPROC_DEAD: i32 = 1;
const INPROC_FENCED: i32 = 2;
const INPROC_REAPED: i32 = 3;

/// Shared-atomics backend for intra-process co-running.
#[derive(Debug)]
pub struct InProcessTable {
    slots: Vec<AtomicI32>,
    home: Vec<usize>,
    programs: usize,
    /// Per-program lease state (`INPROC_*`).
    lease: Vec<AtomicI32>,
    /// Per-program doorbells (condvar-backed; the in-process mirror of
    /// the ShmTable's futex words).
    doorbells: Vec<Doorbell>,
}

impl InProcessTable {
    /// Builds the table for `cores` cores and `programs` co-runners, with
    /// the initial equipartition applied (every core starts used by its
    /// home program, matching §3.1's all-home-workers-awake start).
    pub fn new(cores: usize, programs: usize) -> Self {
        let home = equipartition_home(cores, programs);
        let slots = home.iter().map(|&p| AtomicI32::new(p as i32)).collect();
        let lease = (0..programs).map(|_| AtomicI32::new(INPROC_ALIVE)).collect();
        let doorbells = (0..programs).map(|_| Doorbell::new()).collect();
        InProcessTable { slots, home, programs, lease, doorbells }
    }
}

impl CoreTable for InProcessTable {
    fn cores(&self) -> usize {
        self.slots.len()
    }

    fn max_programs(&self) -> usize {
        self.programs
    }

    fn home(&self, core: usize) -> usize {
        self.home[core]
    }

    fn current(&self, core: usize) -> Option<usize> {
        match self.slots[core].load(Ordering::Acquire) {
            FREE => None,
            p => Some(p as usize),
        }
    }

    fn release(&self, core: usize, prog: usize) -> bool {
        self.slots[core]
            .compare_exchange(prog as i32, FREE, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    fn try_acquire_free(&self, core: usize, prog: usize) -> bool {
        self.slots[core]
            .compare_exchange(FREE, prog as i32, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    fn try_reclaim(&self, core: usize, prog: usize) -> bool {
        if self.home[core] != prog {
            return false;
        }
        let mut cur = self.slots[core].load(Ordering::Acquire);
        loop {
            if cur == prog as i32 {
                return false; // already ours
            }
            match self.slots[core].compare_exchange_weak(
                cur,
                prog as i32,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => {
                    if actual == prog as i32 {
                        return false;
                    }
                    cur = actual;
                }
            }
        }
    }

    fn mark_dead(&self, prog: usize) {
        let _ = self.lease[prog].compare_exchange(
            INPROC_ALIVE,
            INPROC_DEAD,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    fn reapable_programs(&self, caller: usize, _timeout: Duration) -> Vec<usize> {
        (0..self.programs)
            .filter(|&p| {
                p != caller
                    && matches!(self.lease[p].load(Ordering::Acquire), INPROC_DEAD | INPROC_FENCED)
            })
            .collect()
    }

    fn fence_expired(&self, prog: usize) -> bool {
        self.lease[prog]
            .compare_exchange(INPROC_DEAD, INPROC_FENCED, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    fn try_reap(&self, core: usize, dead: usize) -> bool {
        if self.lease[dead].load(Ordering::Acquire) != INPROC_FENCED {
            return false;
        }
        self.slots[core]
            .compare_exchange(dead as i32, FREE, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    fn finish_reap(&self, dead: usize) -> bool {
        if self.lease[dead].load(Ordering::Acquire) != INPROC_FENCED {
            return false;
        }
        if (0..self.slots.len()).any(|c| self.slots[c].load(Ordering::Acquire) == dead as i32) {
            return false; // cores still stranded
        }
        self.lease[dead]
            .compare_exchange(INPROC_FENCED, INPROC_REAPED, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    fn ring_doorbell(&self, prog: usize, reason: u32) {
        self.doorbells[prog].ring(reason);
    }

    fn wait_doorbell(&self, prog: usize, timeout: Duration) -> u32 {
        self.doorbells[prog].wait(timeout)
    }
}

/// A [`CoreTable`] decorator that records every *successful* state
/// transition (Acquire / Reclaim / Release) into one shared event ring,
/// in linearization order.
///
/// Share a single `TracedTable` between co-running runtimes and the ring
/// holds the complete cross-program protocol stream, directly replayable
/// by [`ReplayChecker`] (a per-runtime [`crate::RtTrace`] only sees its
/// own program's half of the conversation, which is useful for timelines
/// but not for protocol checking).
///
/// Mutating operations are serialized under a small mutex so the recorded
/// order *is* the table's transition order — two racing CASes can
/// otherwise publish their events in the opposite order and produce
/// false replay violations. Table transitions happen at sleep/wake/
/// coordinator cadence (milliseconds), not on the steal hot path, so the
/// lock is cheap where it matters; read-only queries stay lock-free.
pub struct TracedTable {
    inner: Arc<dyn CoreTable>,
    ring: EventRing,
    order: Mutex<()>,
}

impl std::fmt::Debug for TracedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedTable")
            .field("cores", &self.inner.cores())
            .field("ring", &self.ring)
            .finish_non_exhaustive()
    }
}

impl TracedTable {
    /// Wraps `inner`, retaining up to `capacity` transition events.
    pub fn new(inner: Arc<dyn CoreTable>, capacity: usize) -> Self {
        TracedTable { inner, ring: EventRing::new(capacity), order: Mutex::new(()) }
    }

    /// The recorded transition stream, in table order.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.ring.snapshot()
    }

    /// Transitions discarded because the ring filled up.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Replays the recorded stream against the Table-1 protocol from the
    /// initial fully-owned equipartition. `Ok` means every transition so
    /// far was legal. Meaningful only while the table is quiescent (or
    /// accepting that in-flight transitions past the snapshot are unseen);
    /// a run that overflowed the ring cannot be checked.
    pub fn replay_check(&self) -> Result<ReplayStats, ReplayViolation> {
        let home: Vec<usize> = (0..self.inner.cores()).map(|c| self.inner.home(c)).collect();
        let mut checker = ReplayChecker::new(&home);
        let events = self.events();
        checker.replay(events.iter().map(|e| &e.event))
    }

    #[inline]
    fn record(&self, ev: RtEvent) {
        self.ring.record(TimedEvent { t_us: now_us(), lane: LANE_SHARED, event: ev });
    }
}

impl CoreTable for TracedTable {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn max_programs(&self) -> usize {
        self.inner.max_programs()
    }

    fn home(&self, core: usize) -> usize {
        self.inner.home(core)
    }

    fn current(&self, core: usize) -> Option<usize> {
        self.inner.current(core)
    }

    fn release(&self, core: usize, prog: usize) -> bool {
        let _g = self.order.lock();
        let ok = self.inner.release(core, prog);
        if ok {
            self.record(RtEvent::Release { prog, core });
        }
        ok
    }

    fn try_acquire_free(&self, core: usize, prog: usize) -> bool {
        let _g = self.order.lock();
        let ok = self.inner.try_acquire_free(core, prog);
        if ok {
            self.record(RtEvent::Acquire { prog, core });
        }
        ok
    }

    fn try_reclaim(&self, core: usize, prog: usize) -> bool {
        let _g = self.order.lock();
        let ok = self.inner.try_reclaim(core, prog);
        if ok {
            self.record(RtEvent::Reclaim { prog, core });
        }
        ok
    }

    fn heartbeat(&self, prog: usize) {
        self.inner.heartbeat(prog);
    }

    fn mark_dead(&self, prog: usize) {
        self.inner.mark_dead(prog);
    }

    fn reapable_programs(&self, caller: usize, timeout: Duration) -> Vec<usize> {
        self.inner.reapable_programs(caller, timeout)
    }

    fn fence_expired(&self, prog: usize) -> bool {
        let _g = self.order.lock();
        let ok = self.inner.fence_expired(prog);
        if ok {
            self.record(RtEvent::LeaseExpired { prog });
        }
        ok
    }

    fn try_reap(&self, core: usize, dead: usize) -> bool {
        let _g = self.order.lock();
        let ok = self.inner.try_reap(core, dead);
        if ok {
            self.record(RtEvent::Reap { prog: dead, core });
        }
        ok
    }

    fn finish_reap(&self, dead: usize) -> bool {
        self.inner.finish_reap(dead)
    }

    fn check_health(&self) -> bool {
        self.inner.check_health()
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    fn submit_ring(&self, prog: usize) -> Option<&dws_deque::SubmitRing> {
        self.inner.submit_ring(prog)
    }

    fn alloc_ledger(&self) -> Option<&AllocLedger> {
        self.inner.alloc_ledger()
    }

    fn bind_self(&self, prog: usize) {
        self.inner.bind_self(prog);
    }

    fn zombie_fenced(&self) -> bool {
        self.inner.zombie_fenced()
    }

    fn try_rearm(&self, prog: usize) -> bool {
        self.inner.try_rearm(prog)
    }

    fn set_stall_timeout(&self, timeout: Option<Duration>) {
        self.inner.set_stall_timeout(timeout);
    }

    fn degrade_now(&self) {
        self.inner.degrade_now();
    }

    fn ring_doorbell(&self, prog: usize, reason: u32) {
        self.inner.ring_doorbell(prog, reason);
    }

    fn wait_doorbell(&self, prog: usize, timeout: Duration) -> u32 {
        self.inner.wait_doorbell(prog, timeout)
    }
}

/// Jain's fairness index over non-negative allocations:
/// `(Σx)² / (n · Σx²)`. 1.0 when every program received the same amount,
/// approaching `1/n` under maximal skew. Defined as 1.0 for empty or
/// all-zero input (nothing was allocated, so nothing was unfair).
pub fn jain_fairness(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || sumsq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sumsq)
}

/// Per-program core-time integrals — the fairness ledger (DESIGN §14).
///
/// Every successful table transition routed through a [`LedgerTable`]
/// settles the elapsed core-time against the slot's *previous* owner
/// before the owner changes, so at any instant
///
/// ```text
/// Σ_p core_us[p] + free_us + Σ_c (now − last_us[c])·charge(c) == cores × elapsed_us
/// ```
///
/// i.e. once open intervals are virtually settled (which
/// [`AllocLedger::snapshot`] does), per-program core-time plus free time
/// exactly tiles `cores × elapsed` — the conservation rule the dws-check
/// oracle enforces in virtual time. Integrals are monotonic: they only
/// ever grow.
///
/// Readers take seqlock-consistent snapshots like PR 3's `DecisionCell`:
/// a write section brackets its mutations with the sequence word odd, and
/// a reader retries until it observes the same even value on both sides.
/// Writer exclusivity comes from the owning [`LedgerTable`]'s transition
/// mutex (the same serialization that makes `TracedTable`'s recorded
/// order the table's transition order).
pub struct AllocLedger {
    /// Seqlock word: odd while a transition is being stamped.
    seq: StdAtomicU64,
    /// Clock value ([`now_us`]) when the ledger started integrating.
    epoch_us: u64,
    /// Current owner per core (`-1` = free). Mirrors the table slots but
    /// transitions atomically with the integral settlement.
    owner: Vec<StdAtomicI64>,
    /// Per-core timestamp of the last ownership change.
    last_us: Vec<StdAtomicU64>,
    /// Per-program settled core-µs integral.
    core_us: Vec<StdAtomicU64>,
    /// Settled core-µs spent with no owner at all.
    free_us: StdAtomicU64,
}

impl std::fmt::Debug for AllocLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllocLedger")
            .field("cores", &self.owner.len())
            .field("programs", &self.core_us.len())
            .finish_non_exhaustive()
    }
}

impl AllocLedger {
    /// Starts integrating from `inner`'s current occupancy, at the current
    /// trace clock.
    pub fn new(inner: &dyn CoreTable) -> Self {
        let now = now_us();
        let owner = inner.owners().into_iter().map(StdAtomicI64::new).collect::<Vec<_>>();
        AllocLedger {
            seq: StdAtomicU64::new(0),
            epoch_us: now,
            last_us: (0..owner.len()).map(|_| StdAtomicU64::new(now)).collect(),
            core_us: (0..inner.max_programs()).map(|_| StdAtomicU64::new(0)).collect(),
            free_us: StdAtomicU64::new(0),
            owner,
        }
    }

    /// Number of cores being integrated.
    pub fn cores(&self) -> usize {
        self.owner.len()
    }

    /// Number of programs with an integral.
    pub fn programs(&self) -> usize {
        self.core_us.len()
    }

    /// Stamps an ownership change of `core` to `new_owner` (`-1` = free):
    /// settles the open interval against the previous owner, then moves
    /// the slot. Must be called with transitions serialized (the owning
    /// [`LedgerTable`] holds its order mutex). The timestamp is taken
    /// *inside* the write section so a snapshot that did not observe this
    /// transition is guaranteed to predate it — settled integrals can
    /// then never undercut a snapshot's virtual settlement, keeping
    /// integrals monotonic across snapshots.
    fn transition(&self, core: usize, new_owner: i64) {
        self.seq.fetch_add(1, StdOrdering::AcqRel); // odd: write section open
        let now = now_us();
        let prev = self.owner[core].load(StdOrdering::Relaxed);
        let dt = now.saturating_sub(self.last_us[core].load(StdOrdering::Relaxed));
        if prev >= 0 {
            self.core_us[prev as usize].fetch_add(dt, StdOrdering::Relaxed);
        } else {
            self.free_us.fetch_add(dt, StdOrdering::Relaxed);
        }
        self.last_us[core].store(now, StdOrdering::Relaxed);
        self.owner[core].store(new_owner, StdOrdering::Relaxed);
        self.seq.fetch_add(1, StdOrdering::AcqRel); // even: section closed
    }

    /// A consistent snapshot with every open interval virtually settled
    /// at the snapshot instant, so the conservation identity holds
    /// exactly: `snap.total_core_us() == cores × snap.elapsed_us()`.
    pub fn snapshot(&self) -> LedgerSnapshot {
        loop {
            let s1 = self.seq.load(StdOrdering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let at_us = now_us();
            let mut core_us: Vec<u64> =
                self.core_us.iter().map(|c| c.load(StdOrdering::Relaxed)).collect();
            let mut free_us = self.free_us.load(StdOrdering::Relaxed);
            let open: Vec<(i64, u64)> = (0..self.owner.len())
                .map(|c| {
                    (
                        self.owner[c].load(StdOrdering::Relaxed),
                        self.last_us[c].load(StdOrdering::Relaxed),
                    )
                })
                .collect();
            std::sync::atomic::fence(StdOrdering::Acquire);
            if self.seq.load(StdOrdering::Relaxed) != s1 {
                continue; // raced with a transition; retry
            }
            for (owner, last) in open {
                let dt = at_us.saturating_sub(last);
                if owner >= 0 {
                    core_us[owner as usize] += dt;
                } else {
                    free_us += dt;
                }
            }
            return LedgerSnapshot { since_us: self.epoch_us, at_us, core_us, free_us };
        }
    }
}

/// A settled, conservation-exact view of an [`AllocLedger`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Clock value when the ledger started integrating.
    pub since_us: u64,
    /// Clock value the snapshot was settled at.
    pub at_us: u64,
    /// Per-program core-µs received over `[since_us, at_us]`.
    pub core_us: Vec<u64>,
    /// Core-µs spent free over the same window.
    pub free_us: u64,
}

impl LedgerSnapshot {
    /// Wall time covered by the snapshot.
    pub fn elapsed_us(&self) -> u64 {
        self.at_us.saturating_sub(self.since_us)
    }

    /// Total settled core-µs (programs + free). Equals
    /// `cores × elapsed_us()` by the conservation invariant.
    pub fn total_core_us(&self) -> u64 {
        self.core_us.iter().sum::<u64>() + self.free_us
    }

    /// `prog`'s received share of the whole machine over the window.
    pub fn share(&self, prog: usize) -> f64 {
        let total = self.total_core_us();
        if total == 0 {
            return 0.0;
        }
        self.core_us[prog] as f64 / total as f64
    }

    /// Jain's fairness index across all programs' received core-time.
    pub fn jain_index(&self) -> f64 {
        let xs: Vec<f64> = self.core_us.iter().map(|&u| u as f64).collect();
        jain_fairness(&xs)
    }
}

/// A [`CoreTable`] decorator that maintains an [`AllocLedger`]: every
/// successful ownership transition (acquire / reclaim / release / reap)
/// settles the slot's open interval before moving it.
///
/// Like [`TracedTable`], mutating operations are serialized under a small
/// mutex so the integral's settle-then-move step is atomic with the
/// underlying CAS; transitions happen at sleep/wake/coordinator cadence,
/// not on the steal hot path. Wrap the *shared* table once at creation so
/// a single ledger sees every co-runner; compose freely with
/// [`TracedTable`] (which forwards [`CoreTable::alloc_ledger`]).
pub struct LedgerTable {
    inner: Arc<dyn CoreTable>,
    ledger: AllocLedger,
    order: Mutex<()>,
}

impl std::fmt::Debug for LedgerTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LedgerTable").field("ledger", &self.ledger).finish_non_exhaustive()
    }
}

impl LedgerTable {
    /// Wraps `inner`, integrating from its current occupancy.
    pub fn new(inner: Arc<dyn CoreTable>) -> Self {
        let ledger = AllocLedger::new(&*inner);
        LedgerTable { inner, ledger, order: Mutex::new(()) }
    }

    /// The ledger being maintained.
    pub fn ledger(&self) -> &AllocLedger {
        &self.ledger
    }
}

impl CoreTable for LedgerTable {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn max_programs(&self) -> usize {
        self.inner.max_programs()
    }

    fn home(&self, core: usize) -> usize {
        self.inner.home(core)
    }

    fn current(&self, core: usize) -> Option<usize> {
        self.inner.current(core)
    }

    fn release(&self, core: usize, prog: usize) -> bool {
        let _g = self.order.lock();
        let ok = self.inner.release(core, prog);
        if ok {
            self.ledger.transition(core, FREE as i64);
        }
        ok
    }

    fn try_acquire_free(&self, core: usize, prog: usize) -> bool {
        let _g = self.order.lock();
        let ok = self.inner.try_acquire_free(core, prog);
        if ok {
            self.ledger.transition(core, prog as i64);
        }
        ok
    }

    fn try_reclaim(&self, core: usize, prog: usize) -> bool {
        let _g = self.order.lock();
        let ok = self.inner.try_reclaim(core, prog);
        if ok {
            self.ledger.transition(core, prog as i64);
        }
        ok
    }

    fn heartbeat(&self, prog: usize) {
        self.inner.heartbeat(prog);
    }

    fn mark_dead(&self, prog: usize) {
        self.inner.mark_dead(prog);
    }

    fn reapable_programs(&self, caller: usize, timeout: Duration) -> Vec<usize> {
        self.inner.reapable_programs(caller, timeout)
    }

    fn fence_expired(&self, prog: usize) -> bool {
        self.inner.fence_expired(prog)
    }

    fn try_reap(&self, core: usize, dead: usize) -> bool {
        let _g = self.order.lock();
        let ok = self.inner.try_reap(core, dead);
        if ok {
            self.ledger.transition(core, FREE as i64);
        }
        ok
    }

    fn finish_reap(&self, dead: usize) -> bool {
        self.inner.finish_reap(dead)
    }

    fn check_health(&self) -> bool {
        self.inner.check_health()
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    fn submit_ring(&self, prog: usize) -> Option<&dws_deque::SubmitRing> {
        self.inner.submit_ring(prog)
    }

    fn alloc_ledger(&self) -> Option<&AllocLedger> {
        Some(&self.ledger)
    }

    fn bind_self(&self, prog: usize) {
        self.inner.bind_self(prog);
    }

    fn zombie_fenced(&self) -> bool {
        self.inner.zombie_fenced()
    }

    fn try_rearm(&self, prog: usize) -> bool {
        self.inner.try_rearm(prog)
    }

    fn set_stall_timeout(&self, timeout: Option<Duration>) {
        self.inner.set_stall_timeout(timeout);
    }

    fn degrade_now(&self) {
        self.inner.degrade_now();
    }

    fn ring_doorbell(&self, prog: usize, reason: u32) {
        self.inner.ring_doorbell(prog, reason);
    }

    fn wait_doorbell(&self, prog: usize, timeout: Duration) -> u32 {
        self.inner.wait_doorbell(prog, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equipartition_home_is_adjacent() {
        assert_eq!(equipartition_home(8, 2), [0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(equipartition_home(5, 2), [0, 0, 0, 1, 1]);
        assert_eq!(equipartition_home(16, 4), {
            let mut v = vec![0; 4];
            v.extend([1; 4]);
            v.extend([2; 4]);
            v.extend([3; 4]);
            v
        });
    }

    #[test]
    fn initial_state_is_fully_owned() {
        let t = InProcessTable::new(8, 2);
        assert_eq!(t.free_cores(), Vec::<usize>::new());
        assert_eq!(t.used_by(0), vec![0, 1, 2, 3]);
        assert_eq!(t.used_by(1), vec![4, 5, 6, 7]);
    }

    #[test]
    fn release_acquire_cycle() {
        let t = InProcessTable::new(4, 2);
        assert!(t.release(0, 0));
        assert_eq!(t.current(0), None);
        assert!(!t.release(0, 0), "double release fails");
        assert!(t.try_acquire_free(0, 1));
        assert_eq!(t.current(0), Some(1));
        assert!(!t.try_acquire_free(0, 0), "acquire of used core fails");
    }

    #[test]
    fn release_by_non_user_fails() {
        let t = InProcessTable::new(4, 2);
        assert!(!t.release(0, 1));
        assert_eq!(t.current(0), Some(0));
    }

    #[test]
    fn reclaim_semantics() {
        let t = InProcessTable::new(4, 2);
        // Not my home.
        assert!(!t.try_reclaim(2, 0));
        // Already mine.
        assert!(!t.try_reclaim(0, 0));
        // Taken by the other program, then reclaimed.
        t.release(0, 0);
        t.try_acquire_free(0, 1);
        assert_eq!(t.reclaimable_cores(0), vec![0]);
        assert!(t.try_reclaim(0, 0));
        assert_eq!(t.current(0), Some(0));
        // Reclaim from FREE also works.
        t.release(1, 0);
        assert!(t.try_reclaim(1, 0));
    }

    #[test]
    fn concurrent_acquire_is_exclusive() {
        // Many threads race to acquire the same freed core; exactly one
        // must win each round.
        let t = Arc::new(InProcessTable::new(2, 2));
        for round in 0..200 {
            t.slots[0].store(FREE, Ordering::Release);
            let winners: usize = {
                let handles: Vec<_> = (0..4)
                    .map(|i| {
                        let t = Arc::clone(&t);
                        std::thread::spawn(move || t.try_acquire_free(0, i % 2) as usize)
                    })
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(i, h)| match h.join() {
                        Ok(v) => v,
                        Err(_) => panic!("acquire-race thread {i} panicked"),
                    })
                    .sum()
            };
            assert_eq!(winners, 1, "round {round}: {winners} winners");
        }
    }

    #[test]
    fn doorbell_ring_before_wait_is_not_lost() {
        let d = Doorbell::new();
        d.ring(DOORBELL_RELEASE);
        d.ring(DOORBELL_SUBMIT); // reasons accumulate
        let t0 = std::time::Instant::now();
        assert_eq!(d.wait(Duration::from_secs(5)), DOORBELL_RELEASE | DOORBELL_SUBMIT);
        assert!(t0.elapsed() < Duration::from_millis(500), "must not block");
        // The pending word was consumed wholesale: the next wait times out.
        assert_eq!(d.wait(Duration::from_millis(10)), 0);
    }

    #[test]
    fn doorbell_wakes_parked_waiter() {
        let t = Arc::new(InProcessTable::new(2, 2));
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.wait_doorbell(1, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        t.ring_doorbell(1, DOORBELL_DEMAND);
        assert_eq!(h.join().expect("waiter"), DOORBELL_DEMAND);
    }

    #[test]
    fn doorbell_is_per_program() {
        let t = InProcessTable::new(2, 2);
        t.ring_doorbell(0, DOORBELL_SUBMIT);
        assert_eq!(t.wait_doorbell(1, Duration::from_millis(10)), 0);
        assert_eq!(t.wait_doorbell(0, Duration::from_millis(10)), DOORBELL_SUBMIT);
    }

    #[test]
    fn decorators_forward_doorbells() {
        let inner = Arc::new(InProcessTable::new(4, 2));
        let ledger = Arc::new(LedgerTable::new(Arc::clone(&inner) as Arc<dyn CoreTable>));
        let traced = TracedTable::new(Arc::clone(&ledger) as Arc<dyn CoreTable>, 16);
        traced.ring_doorbell(0, DOORBELL_SHUTDOWN);
        assert_eq!(inner.wait_doorbell(0, Duration::from_millis(10)), DOORBELL_SHUTDOWN);
    }

    #[test]
    fn traced_table_records_only_successful_transitions() {
        let t = TracedTable::new(Arc::new(InProcessTable::new(4, 2)), 64);
        assert!(!t.release(0, 1)); // wrong owner: no event
        assert!(t.release(0, 0));
        assert!(t.try_acquire_free(0, 1));
        assert!(!t.try_acquire_free(0, 0)); // lost: no event
        assert!(t.try_reclaim(0, 0));
        let evs = t.events();
        assert_eq!(
            evs.iter().map(|e| e.event).collect::<Vec<_>>(),
            vec![
                RtEvent::Release { prog: 0, core: 0 },
                RtEvent::Acquire { prog: 1, core: 0 },
                RtEvent::Reclaim { prog: 0, core: 0 },
            ]
        );
        assert!(evs.iter().all(|e| e.lane == LANE_SHARED));
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn traced_table_replay_check_passes_on_concurrent_churn() {
        let t = Arc::new(TracedTable::new(Arc::new(InProcessTable::new(4, 2)), 65_536));
        let handles: Vec<_> = (0..2)
            .map(|prog| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let core = i % 4;
                        if t.release(core, prog) {
                            // Try to get something back, any legal way.
                            if !t.try_acquire_free(core, prog) {
                                let _ = t.try_reclaim(core, prog);
                            }
                        } else {
                            let _ = t.try_acquire_free((core + 1) % 4, prog);
                        }
                    }
                })
            })
            .collect();
        for (prog, h) in handles.into_iter().enumerate() {
            if h.join().is_err() {
                panic!("churn thread for program {prog} panicked");
            }
        }
        let stats = t.replay_check().expect("live stream must satisfy the protocol");
        assert!(stats.total() > 0);
        // Replay's final owner map agrees with the live table.
        let mut checker =
            ReplayChecker::new(&(0..t.cores()).map(|c| t.home(c)).collect::<Vec<_>>());
        let events = t.events();
        checker.replay(events.iter().map(|e| &e.event)).unwrap();
        for c in 0..t.cores() {
            assert_eq!(checker.owners()[c], t.current(c), "core {c}");
        }
    }

    #[test]
    fn in_process_reap_requires_explicit_death() {
        let t = InProcessTable::new(4, 2);
        // A live (or merely slow) program is never reapable, no matter the timeout.
        assert_eq!(t.reapable_programs(0, Duration::ZERO), Vec::<usize>::new());
        assert!(!t.fence_expired(1));
        t.mark_dead(1);
        assert_eq!(t.reapable_programs(0, Duration::from_secs(3600)), vec![1]);
        // A program never reaps itself.
        assert_eq!(t.reapable_programs(1, Duration::ZERO), Vec::<usize>::new());
        // Ladder: fence, then reap each core, then retire the lease.
        assert!(!t.try_reap(2, 1), "reap before fencing must fail");
        assert!(t.fence_expired(1));
        assert!(!t.fence_expired(1), "fence is one-shot");
        assert!(t.try_reap(2, 1));
        assert!(!t.try_reap(2, 1), "core already freed");
        assert!(!t.finish_reap(1), "core 3 still held by the dead program");
        assert!(t.try_reap(3, 1));
        assert!(t.finish_reap(1));
        assert_eq!(t.free_cores(), vec![2, 3]);
        // The survivor can now pick up the orphaned cores.
        assert!(t.try_acquire_free(2, 0));
        assert!(t.try_acquire_free(3, 0));
    }

    #[test]
    fn reap_expired_frees_all_stranded_cores() {
        let t = InProcessTable::new(6, 3);
        t.mark_dead(2);
        let pass = reap_expired(&t, 0, Duration::from_millis(1));
        assert_eq!(pass, ReapPass { leases_expired: 1, cores_reaped: 2 });
        assert_eq!(t.free_cores(), vec![4, 5]);
        // Idempotent: a second pass finds nothing.
        assert_eq!(reap_expired(&t, 0, Duration::from_millis(1)), ReapPass::default());
    }

    #[test]
    fn traced_table_records_reap_transitions() {
        let inner = Arc::new(InProcessTable::new(4, 2));
        let t = TracedTable::new(inner, 64);
        t.mark_dead(1);
        let pass = reap_expired(&t, 0, Duration::ZERO);
        assert_eq!(pass.leases_expired, 1);
        assert_eq!(pass.cores_reaped, 2);
        let evs: Vec<_> = t.events().iter().map(|e| e.event).collect();
        assert_eq!(
            evs,
            vec![
                RtEvent::LeaseExpired { prog: 1 },
                RtEvent::Reap { prog: 1, core: 2 },
                RtEvent::Reap { prog: 1, core: 3 },
            ]
        );
        let stats = t.replay_check().expect("reap stream must satisfy the protocol");
        assert_eq!(stats.reaps, 2);
    }

    #[test]
    fn default_trait_queries_are_consistent() {
        let t = InProcessTable::new(6, 3);
        t.release(0, 0);
        t.release(2, 1);
        t.try_acquire_free(2, 0);
        assert_eq!(t.free_cores(), vec![0]);
        assert_eq!(t.used_by(0), vec![1, 2]);
        assert_eq!(t.reclaimable_cores(1), vec![2]);
        assert_eq!(t.reclaimable_cores(0), Vec::<usize>::new());
        assert_eq!(t.owners(), vec![-1, 0, 0, 1, 2, 2]);
    }

    #[test]
    fn jain_fairness_known_values() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_fairness(&[5.0, 5.0, 5.0]), 1.0);
        // One of two programs gets everything: 1/n = 0.5.
        assert!((jain_fairness(&[10.0, 0.0]) - 0.5).abs() < 1e-12);
        // 3:1 split across two: (4)^2 / (2 * 10) = 0.8.
        assert!((jain_fairness(&[3.0, 1.0]) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn ledger_conserves_core_time_through_churn() {
        let t = LedgerTable::new(Arc::new(InProcessTable::new(4, 2)));
        assert!(t.release(0, 0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.try_acquire_free(0, 1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.try_reclaim(0, 0));
        let snap = t.ledger().snapshot();
        assert_eq!(snap.core_us.len(), 2);
        // Conservation: settled program time + free time tiles the window.
        assert_eq!(snap.total_core_us(), 4 * snap.elapsed_us());
        // Both programs and the free pool accumulated something.
        assert!(snap.core_us[0] > 0 && snap.core_us[1] > 0 && snap.free_us > 0);
        // Integrals are monotonic between snapshots.
        let later = t.ledger().snapshot();
        assert!(later.core_us[0] >= snap.core_us[0]);
        assert!(later.core_us[1] >= snap.core_us[1]);
        assert!(later.free_us >= snap.free_us);
        assert_eq!(later.total_core_us(), 4 * later.elapsed_us());
    }

    #[test]
    fn ledger_charges_reaped_cores_to_the_dead_owner_until_reap() {
        let t = LedgerTable::new(Arc::new(InProcessTable::new(4, 2)));
        t.mark_dead(1);
        std::thread::sleep(Duration::from_millis(2));
        let pass = reap_expired(&t, 0, Duration::ZERO);
        assert_eq!(pass.cores_reaped, 2);
        let snap = t.ledger().snapshot();
        // The dead program was charged for its cores up to the reap, and
        // the freed cores accumulate free time afterwards.
        assert!(snap.core_us[1] > 0);
        assert_eq!(snap.total_core_us(), 4 * snap.elapsed_us());
    }

    #[test]
    fn ledger_snapshot_is_consistent_under_concurrent_transitions() {
        let t = Arc::new(LedgerTable::new(Arc::new(InProcessTable::new(4, 2))));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let churner = {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(StdOrdering::Relaxed) {
                    let core = i % 4;
                    let prog = i % 2;
                    if t.release(core, prog) {
                        if !t.try_acquire_free(core, prog) {
                            let _ = t.try_reclaim(core, prog);
                        }
                    } else {
                        let _ = t.try_acquire_free(core, 1 - prog);
                    }
                    i += 1;
                }
            })
        };
        let mut prev = t.ledger().snapshot();
        for _ in 0..500 {
            let snap = t.ledger().snapshot();
            assert_eq!(snap.total_core_us(), 4 * snap.elapsed_us(), "conservation under churn");
            for p in 0..2 {
                assert!(snap.core_us[p] >= prev.core_us[p], "monotonic integral");
            }
            prev = snap;
        }
        stop.store(true, StdOrdering::Relaxed);
        if churner.join().is_err() {
            panic!("ledger churn thread panicked");
        }
    }

    #[test]
    fn traced_table_forwards_the_ledger() {
        let ledgered = Arc::new(LedgerTable::new(Arc::new(InProcessTable::new(4, 2))));
        let traced = TracedTable::new(Arc::clone(&ledgered) as Arc<dyn CoreTable>, 64);
        assert!(traced.alloc_ledger().is_some());
        assert!(traced.release(0, 0));
        let snap = traced.alloc_ledger().unwrap().snapshot();
        assert_eq!(snap.total_core_us(), 4 * snap.elapsed_us());
        // A bare table has no ledger.
        assert!(InProcessTable::new(4, 2).alloc_ledger().is_none());
    }
}
