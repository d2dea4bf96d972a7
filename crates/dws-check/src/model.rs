//! A compact executable model of the DWS sleep/wake/reclaim protocol.
//!
//! The model mirrors the runtime's architecture at the granularity the
//! protocol cares about: one worker per `(program, core)` pair running
//! Algorithm 1 (take tasks while owning the core; after `T_SLEEP`
//! consecutive failed takes, release the core into the Table-1 core
//! table and sleep with a safety timeout), plus one coordinator per
//! program running Eq. 1's three-case wake logic over a racy snapshot —
//! exactly the snapshot-then-act structure whose races the checker
//! explores. Every successful table transition is logged immediately
//! (no yield in between), giving a true linearization order for the
//! [`Oracle`](crate::oracle::Oracle).
//!
//! [`Bug`] seeds deliberate protocol mutations for mutation-testing the
//! checker itself: a checker that cannot catch a planted double-reclaim
//! cannot be trusted to clear the real runtime.

use std::sync::Arc;
use std::time::Duration;

pub use dws_core::policy::{eq1_wake_target, plan_wakes};

use crate::explorer::{Env, PostCheck};
use crate::oracle::{replay_core_time, Oracle, ProtoEvent};
use crate::sync::{
    fault_below, fault_hit, fault_plan, preempt_point, sleep, yield_now, AtomicBool, AtomicI32,
    AtomicUsize, Condvar, Mutex, Ordering,
};

/// Core marked free in the table (mirrors `dws-rt`).
pub const FREE: i32 = -1;

/// Deliberately seeded protocol mutations (for checker mutation tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// `try_reclaim` treats "already owned by me" as a fresh successful
    /// reclaim instead of a no-op. A coordinator acting on a stale
    /// snapshot then double-reclaims a core its own timed-out worker
    /// just legitimately reclaimed.
    DoubleReclaim,
    /// The reaper fences a co-runner's lease without confirming death —
    /// the equivalent of skipping the `kill(pid, 0)` check in the
    /// runtime's `fence_expired`. A slow-but-alive program is then
    /// reaped and its next table transition breaks the protocol.
    ReapAlive,
    /// The batched take ignores the steal-half quota and drains the
    /// whole observed queue — the classic over-stealing bug a
    /// `steal_batch` implementation grows when the reservation loop
    /// forgets the `ceil(len/2)` cap. The oracle's batch rule
    /// (`taken ≤ ceil(observed/2)`) catches it.
    OverSteal,
    /// A multi-task batch silently drops its last reserved task: the
    /// completion counter is decremented for the whole batch but the
    /// task never runs — the batched-transfer analogue of a `Retry`
    /// path that forgets the tasks it already moved. Every table
    /// transition stays legal and all completion counters reach zero,
    /// so *only* the oracle's W1 identity rule ("every spawned task
    /// executes") can catch it.
    LostBatch,
    /// The reaper's cleanup pass, meant to discard state stranded by
    /// the dead co-runner, drains the *survivor's* own task queue —
    /// parked tasks vanish without executing while the completion
    /// counter is reconciled. As with [`Bug::LostBatch`], the table
    /// protocol stays clean; W1 is the only rule that notices.
    /// Implies the crash scenario.
    ReapStrand,
    /// The coordinator's submission-ring drain silently drops the last
    /// request of a multi-request chunk: popped from the ring, never
    /// admitted into the queue, completion counter reconciled — the
    /// serving-path analogue of [`Bug::LostBatch`]. Every table
    /// transition stays legal and the run settles cleanly; only the
    /// oracle's admission ledger ("every submitted request is
    /// admitted, every admitted request reaches exactly-once exec")
    /// catches it. Implies the serving scenario.
    DroppedSubmit,
    /// A SIGCONTed program skips the post-resume fence check — the
    /// model analogue of a zombie runtime handle whose table CAS
    /// "incorrectly succeeds" after its lease was stall-fenced and
    /// reaped (the exact hole `ShmTable::self_check`'s latched epoch
    /// closes in `dws-rt`). The resumed victim happily finishes its own
    /// work, so every completion counter reconciles, the conservation
    /// ledger balances and the log agrees with the live table — only
    /// the oracle's post-fence rule ("no transition or work by an
    /// expired prog") sees the zombie. Implies the pause scenario.
    ZombieWrite,
    /// `try_reap` returns the core to the free pool but never charges
    /// the dead program's final interval to the conservation ledger —
    /// the clock advances with nobody billed, the checker-side analogue
    /// of a runtime `AllocLedger` that forgets to settle on the reap
    /// path. Every logged transition stays legal and the run settles
    /// cleanly; only the core-seconds conservation rule
    /// (Σ per-program + free == cores × elapsed, DESIGN §14) sees the
    /// hole. Implies the crash scenario (reaps need a victim).
    LeakedCoreSeconds,
    /// A doorbell ring notifies the condvar but never persists the
    /// pending word — the classic check-then-park lost wake the
    /// runtime `Doorbell`'s permit protocol closes. A ring delivered
    /// while the coordinator is *not* parked evaporates; the
    /// coordinator's next doorbell sleep then starts with a ring
    /// pending that it will never consume, which the oracle's doorbell
    /// wake rule flags. Every table transition and every counter stays
    /// clean (the timeout fallback still runs the passes), so only that
    /// rule can see it. Implies the doorbell scenario.
    LostWake,
    /// The coordinator re-arms the demand-rise edge *after* it samples
    /// `N_b` instead of before. A worker whose demand edge fires between
    /// the sample and the ack finds the edge still spent, so it does not
    /// ring — and the ack then wipes the only record that it wanted to.
    /// The coordinator parks on a demand nobody will announce; the
    /// heartbeat still runs every pass, so all work completes and every
    /// table transition and counter stays clean. Only the oracle's
    /// doorbell demand rule (no park over a swallowed demand edge) sees
    /// it. Implies the doorbell scenario.
    LateAck,
}

/// Shape and timing of one model instance. All times are virtual
/// nanoseconds.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Number of cores in the table.
    pub cores: usize,
    /// Number of co-running programs.
    pub programs: usize,
    /// Initial task count per program (`tasks.len() == programs`).
    pub tasks: Vec<usize>,
    /// Algorithm 1's `T_SLEEP`: consecutive failed takes before a worker
    /// releases its core and sleeps.
    pub t_sleep: u32,
    /// Coordinator tick period.
    pub coord_period_ns: u64,
    /// Coordinator ticks before the coordinator exits.
    pub coord_ticks: u32,
    /// Safety timeout of a sleeping worker.
    pub sleep_timeout_ns: u64,
    /// Virtual duration of executing one task.
    pub work_ns: u64,
    /// Most tasks one take may move (mirrors the runtime's
    /// `steal_batch_limit`; `1` disables batching). The effective batch
    /// is further capped at ceil-half of the observed queue.
    pub steal_batch_limit: usize,
    /// Program SIGKILLed mid-run by the crash scenario (`None` = no
    /// crash). Its workers and coordinator stop dead — no releases, no
    /// cleanup — and a reaper thread per survivor recovers the cores.
    pub crash: Option<usize>,
    /// Virtual time at which the crash is delivered.
    pub crash_at_ns: u64,
    /// Program SIGSTOPped mid-run by the pause scenario (`None` = no
    /// pause; exclusive with `crash`). Its threads park at their loop
    /// tops until SIGCONT; once every thread is quiescent a survivor's
    /// reaper may stall-fence the lease and reap the stranded cores, and
    /// the resumed threads must then refuse all further table activity
    /// (the model analogue of the runtime's zombie fencing).
    pub pause: Option<usize>,
    /// Virtual time at which the SIGSTOP is delivered (plus per-seed
    /// fault jitter).
    pub pause_at_ns: u64,
    /// Virtual time at which the SIGCONT is delivered (plus per-seed
    /// fault jitter).
    pub resume_at_ns: u64,
    /// Lease timeout: how long a reaper waits between scans for dead
    /// co-runners (the model analogue of the heartbeat staleness
    /// window).
    pub lease_timeout_ns: u64,
    /// External requests each program's client submits through the
    /// model submission ring (`submits.len() == programs`; all zeros =
    /// no serving, and the serving machinery adds *no* scheduler
    /// operations, keeping non-serving schedule spaces — and every
    /// pinned seed — identical to the pre-serving model).
    pub submits: Vec<usize>,
    /// Capacity of the model submission ring (a full ring makes the
    /// client retry; the model is closed-loop so every scheduled
    /// request eventually enters).
    pub ring_capacity: usize,
    /// Most requests one coordinator drain chunk may move (mirrors the
    /// runtime's `ServeConfig::drain_batch`).
    pub drain_batch: usize,
    /// Event-driven control plane: each program gets a model doorbell
    /// (pending word + condvar over the shim primitives). Workers ring
    /// the home program's doorbell on release and their own on a demand
    /// rise, clients ring on submit, and the coordinator waits on it
    /// instead of sleeping blind — exactly the runtime's DESIGN §16 wake
    /// edges. `false` adds *no* scheduler operations, keeping every
    /// non-doorbell schedule space (and every pinned seed) byte-identical
    /// to the pre-doorbell model.
    pub doorbell: bool,
    /// Seeded protocol mutation, if any.
    pub bug: Option<Bug>,
}

impl ModelConfig {
    /// Tiny 2-core/2-program instance for fast smoke exploration.
    pub fn small() -> Self {
        ModelConfig {
            cores: 2,
            programs: 2,
            tasks: vec![2, 1],
            t_sleep: 1,
            coord_period_ns: 20_000,
            coord_ticks: 2,
            sleep_timeout_ns: 15_000,
            work_ns: 4_000,
            steal_batch_limit: 2,
            crash: None,
            crash_at_ns: 0,
            pause: None,
            pause_at_ns: 0,
            resume_at_ns: 0,
            lease_timeout_ns: 40_000,
            submits: vec![0, 0],
            ring_capacity: 4,
            drain_batch: 2,
            doorbell: false,
            bug: None,
        }
    }

    /// The acceptance-target instance: 2 programs on 4 cores.
    pub fn standard() -> Self {
        ModelConfig {
            cores: 4,
            programs: 2,
            tasks: vec![5, 2],
            t_sleep: 2,
            coord_period_ns: 30_000,
            coord_ticks: 4,
            sleep_timeout_ns: 20_000,
            work_ns: 6_000,
            steal_batch_limit: 2,
            crash: None,
            crash_at_ns: 0,
            pause: None,
            pause_at_ns: 0,
            resume_at_ns: 0,
            lease_timeout_ns: 40_000,
            submits: vec![0, 0],
            ring_capacity: 4,
            drain_batch: 2,
            doorbell: false,
            bug: None,
        }
    }

    /// The crash-recovery instance: the standard 2-program/4-core shape
    /// with program 1 SIGKILLed mid-run. Exploration then covers every
    /// interleaving of the kill against releases, reclaims and the
    /// survivor's reap pass.
    pub fn crash() -> Self {
        ModelConfig {
            // Enough work that the victim is still busy — and owns
            // cores — when the kill lands.
            tasks: vec![5, 30],
            crash: Some(1),
            crash_at_ns: 60_000,
            ..ModelConfig::standard()
        }
    }

    /// The stall-fence instance: the standard 2-program/4-core shape
    /// with program 1 SIGSTOPped mid-run and SIGCONTed much later —
    /// long enough (relative to the lease timeout) that the survivor's
    /// reaper usually sees a fully quiescent, stale co-runner straddle
    /// lease expiry and stall-fences it. Exploration covers both
    /// outcomes: schedules where the victim resumes before any fence
    /// (it must then finish all its work) and schedules where the fence
    /// lands first (the resumed zombie must refuse every further table
    /// transition — the property [`Bug::ZombieWrite`] breaks).
    pub fn pause() -> Self {
        ModelConfig {
            // Enough work that the victim is still busy — and owns
            // cores — when the stop lands, and still has work left when
            // it resumes (a zombie with nothing to do writes nothing).
            tasks: vec![5, 30],
            pause: Some(1),
            pause_at_ns: 30_000,
            resume_at_ns: 150_000,
            coord_ticks: 6,
            ..ModelConfig::standard()
        }
    }

    /// The serving instance: the standard 2-program/4-core shape with
    /// program 0 also serving external requests through the model
    /// submission ring (client → ring → coordinator drain → queue →
    /// exec). The small ring and 2-request drain chunks exercise both
    /// the client's full-ring retry and multi-request drains — the
    /// chunk shape [`Bug::DroppedSubmit`] needs to fire.
    pub fn serving() -> Self {
        ModelConfig {
            submits: vec![4, 0],
            ring_capacity: 3,
            drain_batch: 2,
            coord_ticks: 8,
            ..ModelConfig::standard()
        }
    }

    /// The event-driven instance: the standard 2-program/4-core shape
    /// with the per-program doorbell on and program 0 also submitting
    /// two external requests, so every wake edge exists — release rings
    /// (worker → home program's coordinator), demand rings (worker → own
    /// coordinator, gated by the demand-rise edge), submit rings
    /// (client → own coordinator) and the timeout fallback. Exploration
    /// covers every interleaving of ring vs wait vs timeout — the space
    /// where a check-then-park doorbell loses wakes
    /// ([`Bug::LostWake`]) and an ack on the wrong side of the `N_b`
    /// sample swallows a demand ([`Bug::LateAck`]).
    pub fn doorbell() -> Self {
        ModelConfig {
            doorbell: true,
            // Twelve tasks are six or more takes by program 0's workers
            // while its non-home workers sleep: enough that the demand
            // edge fires, and is found spent, in most schedules.
            tasks: vec![12, 2],
            submits: vec![2, 0],
            coord_ticks: 8,
            ..ModelConfig::standard()
        }
    }

    /// Whether any program serves external requests.
    pub fn is_serving(&self) -> bool {
        self.submits.iter().any(|&s| s > 0)
    }

    /// Returns this config with a seeded bug.
    pub fn with_bug(mut self, bug: Bug) -> Self {
        self.bug = Some(bug);
        self
    }

    /// Equipartition home map: `home[core]` = the program owning `core`
    /// at start (contiguous blocks, as in the runtime).
    pub fn home(&self) -> Vec<usize> {
        (0..self.cores).map(|c| c * self.programs / self.cores).collect()
    }
}

/// The live core-seconds conservation ledger (the model analogue of the
/// runtime's `AllocLedger`, DESIGN §14): every successful table
/// transition settles the interval since the core's previous transition
/// onto the owner that held it. Kept behind a *std* mutex, like the
/// event log, so the ledger adds no scheduler operations and every
/// pinned seed's schedule is unchanged.
#[derive(Debug)]
struct CoreLedger {
    /// Virtual time of each core's last settled transition.
    last: Vec<u64>,
    /// Core-nanoseconds charged to each program so far.
    prog_ns: Vec<u64>,
    /// Core-nanoseconds no program owned.
    free_ns: u64,
}

/// The model's Table-1 core-allocation table: `current[core]` is the
/// owning program or [`FREE`], with the same CAS protocol as the
/// runtime's `InProcessTable`. Successful transitions are logged
/// atomically with the CAS (no yield point in between), stamped with
/// the virtual clock, and settled into the conservation ledger.
pub struct ModelTable {
    home: Vec<usize>,
    current: Vec<AtomicI32>,
    log: std::sync::Mutex<Vec<(u64, ProtoEvent)>>,
    ledger: std::sync::Mutex<CoreLedger>,
    bug: Option<Bug>,
}

impl ModelTable {
    /// Creates a table fully owned per the home map.
    pub fn new(home: Vec<usize>, bug: Option<Bug>) -> Self {
        let current = home.iter().map(|&p| AtomicI32::new(p as i32)).collect();
        let programs = home.iter().copied().max().map_or(0, |m| m + 1);
        let ledger =
            CoreLedger { last: vec![0; home.len()], prog_ns: vec![0; programs], free_ns: 0 };
        ModelTable {
            home,
            current,
            log: std::sync::Mutex::new(Vec::new()),
            ledger: std::sync::Mutex::new(ledger),
            bug,
        }
    }

    fn log_event(&self, e: ProtoEvent) {
        self.log_event_at(crate::sync::now_ns(), e);
    }

    fn log_event_at(&self, now: u64, e: ProtoEvent) {
        self.log.lock().unwrap_or_else(|x| x.into_inner()).push((now, e));
    }

    /// Charges the interval since `core`'s last transition to `prev`
    /// (its owner until this instant; [`FREE`] bills the free pool).
    fn settle(&self, core: usize, prev: i32, now: u64) {
        let mut led = self.ledger.lock().unwrap_or_else(|x| x.into_inner());
        let dt = now.saturating_sub(led.last[core]);
        if prev == FREE {
            led.free_ns += dt;
        } else {
            led.prog_ns[prev as usize] += dt;
        }
        led.last[core] = now;
    }

    /// Closes the ledger at horizon `t_end` (charging each core's open
    /// interval to its current owner) and returns
    /// `(per-program core-ns, free core-ns)`. Non-destructive.
    pub fn settled_core_time(&self, t_end: u64) -> (Vec<u64>, u64) {
        let led = self.ledger.lock().unwrap_or_else(|x| x.into_inner());
        let mut prog_ns = led.prog_ns.clone();
        let mut free_ns = led.free_ns;
        for (core, &last) in led.last.iter().enumerate() {
            let dt = t_end.saturating_sub(last);
            let cur = self.current[core].load(Ordering::SeqCst);
            if cur == FREE {
                free_ns += dt;
            } else {
                prog_ns[cur as usize] += dt;
            }
        }
        (prog_ns, free_ns)
    }

    /// Current owner of `core` ([`FREE`] or a program index).
    pub fn current(&self, core: usize) -> i32 {
        self.current[core].load(Ordering::SeqCst)
    }

    /// CAS-acquires a free core.
    pub fn try_acquire_free(&self, prog: usize, core: usize) -> bool {
        if self.current[core]
            .compare_exchange(FREE, prog as i32, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            let now = crate::sync::now_ns();
            self.settle(core, FREE, now);
            self.log_event_at(now, ProtoEvent::Acquire { prog, core });
            true
        } else {
            false
        }
    }

    /// Reclaims one of `prog`'s home cores from whoever holds it (or
    /// from free). Correctly returns `false` when `prog` already owns
    /// the core — unless [`Bug::DoubleReclaim`] is seeded.
    pub fn try_reclaim(&self, prog: usize, core: usize) -> bool {
        debug_assert_eq!(self.home[core], prog, "reclaim of a non-home core");
        loop {
            let cur = self.current[core].load(Ordering::SeqCst);
            if cur == prog as i32 {
                if self.bug == Some(Bug::DoubleReclaim) {
                    self.current[core].store(prog as i32, Ordering::SeqCst);
                    let now = crate::sync::now_ns();
                    self.settle(core, cur, now);
                    self.log_event_at(now, ProtoEvent::Reclaim { prog, core });
                    return true;
                }
                return false;
            }
            if self.current[core]
                .compare_exchange(cur, prog as i32, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                let now = crate::sync::now_ns();
                self.settle(core, cur, now);
                self.log_event_at(now, ProtoEvent::Reclaim { prog, core });
                return true;
            }
        }
    }

    /// Releases a core the caller owns; fails (without logging) if the
    /// caller was evicted in the meantime.
    pub fn release(&self, prog: usize, core: usize) -> bool {
        if self.current[core]
            .compare_exchange(prog as i32, FREE, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            let now = crate::sync::now_ns();
            self.settle(core, prog as i32, now);
            self.log_event_at(now, ProtoEvent::Release { prog, core });
            true
        } else {
            false
        }
    }

    /// Returns a core stranded by dead program `dead` to the free pool
    /// (CAS `dead → FREE`), logging the reap on success. Fails (without
    /// logging) if someone else already moved the core.
    pub fn try_reap(&self, dead: usize, core: usize) -> bool {
        if self.current[core]
            .compare_exchange(dead as i32, FREE, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            let now = crate::sync::now_ns();
            if self.bug == Some(Bug::LeakedCoreSeconds) {
                // Seeded bug: advance the core's clock without billing
                // the dead program's final interval. The Reap below is
                // still logged and legal — only conservation notices.
                self.ledger.lock().unwrap_or_else(|x| x.into_inner()).last[core] = now;
            } else {
                self.settle(core, dead as i32, now);
            }
            self.log_event_at(now, ProtoEvent::Reap { prog: dead, core });
            true
        } else {
            false
        }
    }

    /// Cores currently free (a racy snapshot, as in the runtime).
    pub fn free_cores(&self) -> Vec<usize> {
        (0..self.current.len()).filter(|&c| self.current(c) == FREE).collect()
    }

    /// `prog`'s home cores it does not currently own (a racy snapshot).
    pub fn reclaimable_cores(&self, prog: usize) -> Vec<usize> {
        (0..self.current.len())
            .filter(|&c| self.home[c] == prog && self.current(c) != prog as i32)
            .collect()
    }

    /// Owner per core (`None` = free). Intended for post-run checks.
    pub fn snapshot(&self) -> Vec<Option<usize>> {
        (0..self.current.len())
            .map(|c| {
                let cur = self.current(c);
                if cur == FREE {
                    None
                } else {
                    Some(cur as usize)
                }
            })
            .collect()
    }

    /// Drains the event log, stripped of timestamps.
    pub fn take_log(&self) -> Vec<ProtoEvent> {
        self.take_timed_log().into_iter().map(|(_, e)| e).collect()
    }

    /// Drains the event log with each event's virtual-ns timestamp
    /// (zero for events logged outside an exploration, where the
    /// virtual clock does not run).
    pub fn take_timed_log(&self) -> Vec<(u64, ProtoEvent)> {
        std::mem::take(&mut *self.log.lock().unwrap_or_else(|x| x.into_inner()))
    }
}

/// Why a [`ModelSleeper::sleep`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// A wake permit was delivered.
    Woken,
    /// The safety timeout fired first.
    TimedOut,
}

/// A port of the runtime `Sleeper`'s permit protocol over the shim
/// primitives: a wake *before* the sleep must not be lost, a wake and a
/// timeout must resolve to exactly one outcome, and spurious wake-ups
/// must loop.
#[derive(Default)]
pub struct ModelSleeper {
    sleeping: AtomicBool,
    permit: Mutex<bool>,
    cond: Condvar,
}

impl ModelSleeper {
    /// Creates an idle sleeper.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks until woken or (if given) the virtual timeout elapses.
    pub fn sleep(&self, timeout: Option<Duration>) -> WakeReason {
        self.sleeping.store(true, Ordering::SeqCst);
        let mut g = self.permit.lock();
        if *g {
            *g = false;
            drop(g);
            self.sleeping.store(false, Ordering::SeqCst);
            return WakeReason::Woken;
        }
        loop {
            match timeout {
                Some(d) => {
                    let r = self.cond.wait_for(&mut g, d);
                    if *g {
                        *g = false;
                        drop(g);
                        self.sleeping.store(false, Ordering::SeqCst);
                        return WakeReason::Woken;
                    }
                    if r.timed_out() {
                        drop(g);
                        self.sleeping.store(false, Ordering::SeqCst);
                        return WakeReason::TimedOut;
                    }
                    // Spurious: keep waiting.
                }
                None => {
                    self.cond.wait(&mut g);
                    if *g {
                        *g = false;
                        drop(g);
                        self.sleeping.store(false, Ordering::SeqCst);
                        return WakeReason::Woken;
                    }
                }
            }
        }
    }

    /// Delivers a wake permit (never lost, even if the target has not
    /// started sleeping yet).
    pub fn wake(&self) {
        let mut g = self.permit.lock();
        *g = true;
        self.cond.notify_one();
    }

    /// Whether the owner is currently inside [`ModelSleeper::sleep`].
    pub fn is_sleeping(&self) -> bool {
        self.sleeping.load(Ordering::SeqCst)
    }
}

/// A port of the runtime `Doorbell`'s pending-word protocol over the
/// shim primitives, collapsed to a boolean (the model does not need
/// reason bits). Ring and wait both log their protocol event *inside*
/// the mutex critical section, so log order is the doorbell's
/// linearization order — which is what lets the oracle's wake rule
/// treat "sleep logged after an unconsumed ring" as a genuine lost
/// wake rather than a racy observation.
#[derive(Default)]
pub struct ModelDoorbell {
    pending: Mutex<bool>,
    cond: Condvar,
}

impl ModelDoorbell {
    /// Creates an un-rung doorbell.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Rings `prog`'s doorbell: persists the pending word and notifies the
/// waiter. Under [`Bug::LostWake`] the notification fires but the word
/// is never set — a ring delivered while nobody waits evaporates, the
/// exact hole the pending word exists to close. No-op (zero shim
/// operations) when the config has no doorbell.
fn ring_doorbell(sh: &Shared, prog: usize) {
    if !sh.cfg.doorbell {
        return;
    }
    let db = &sh.doorbells[prog];
    let mut pending = db.pending.lock();
    if sh.cfg.bug != Some(Bug::LostWake) {
        *pending = true;
    }
    sh.table.log_event(ProtoEvent::DoorbellRing { prog });
    db.cond.notify_one();
}

/// Waits on `prog`'s doorbell until rung or `timeout` elapses,
/// consuming the pending word. Returns `true` if rung. A pending ring
/// is consumed at entry without parking; otherwise the wait logs its
/// `DoorbellSleep` (still inside the critical section, before the
/// condvar releases the mutex) and parks.
fn wait_doorbell(sh: &Shared, prog: usize, timeout: Duration) -> bool {
    let db = &sh.doorbells[prog];
    let mut pending = db.pending.lock();
    if *pending {
        *pending = false;
        sh.table.log_event(ProtoEvent::DoorbellConsume { prog });
        return true;
    }
    sh.table.log_event(ProtoEvent::DoorbellSleep { prog });
    loop {
        let r = db.cond.wait_for(&mut pending, timeout);
        if *pending {
            *pending = false;
            sh.table.log_event(ProtoEvent::DoorbellConsume { prog });
            return true;
        }
        if r.timed_out() {
            return false;
        }
        // Spurious wake with nothing pending: keep waiting.
    }
}

struct Shared {
    cfg: ModelConfig,
    home: Vec<usize>,
    table: ModelTable,
    queued: Vec<AtomicUsize>,
    prog_remaining: Vec<AtomicUsize>,
    /// Next unclaimed task id per program. A winner of the `take_batch`
    /// CAS claims `taken` consecutive ids. Deliberately a *std* atomic,
    /// not a shim one: the token scheduler already serializes the claim
    /// (it happens inside the winner's run slice), so keeping it off
    /// the shim leaves the schedule space — and every seeded schedule —
    /// byte-identical to the pre-identity model.
    task_cursor: Vec<std::sync::atomic::AtomicU64>,
    /// Occupancy of each program's model submission ring (the count is
    /// the whole abstraction: identities flow through the cursors, FIFO
    /// order is implied). Only touched when the config serves, so
    /// non-serving schedule spaces are unchanged.
    ring: Vec<AtomicUsize>,
    /// Next request id the coordinator's drain will admit, offset past
    /// the initial tasks. A *std* atomic for the same reason as
    /// `task_cursor`: only the (single) coordinator advances it.
    admit_cursor: Vec<std::sync::atomic::AtomicU64>,
    sleepers: Vec<Vec<ModelSleeper>>,
    /// One doorbell per program (coordinator-side wake edge). Only
    /// touched when `cfg.doorbell` is set, so non-doorbell schedule
    /// spaces are unchanged.
    doorbells: Vec<ModelDoorbell>,
    /// Per-program demand-rise edge: `true` from the worker CAS that
    /// spends it (a demand ring follows) until the coordinator's ack.
    /// The runtime's third state — blocked, no core obtainable — is not
    /// modelled: it only withholds rings, and rings are advisory. Only
    /// touched when `cfg.doorbell` is set.
    demand_rung: Vec<AtomicBool>,
    awake: Vec<Vec<AtomicBool>>,
    /// SIGKILL delivered to the program: its threads exit at the next
    /// check without releasing anything.
    dead: Vec<AtomicBool>,
    /// Lease fenced by a reaper (one-shot, CAS-claimed).
    fenced: Vec<AtomicBool>,
    /// Threads of the program that have fully exited. A reaper may
    /// fence only once *all* of them are gone — the model analogue of
    /// `kill(pid, 0) == ESRCH`, which guarantees the dead program
    /// performs no transition after the fence.
    exited: Vec<AtomicUsize>,
    /// Pause-scenario state machine: [`PS_PAUSED`] while the victim is
    /// SIGSTOPped, [`PS_FENCED`] (sticky) once a reaper stall-fenced
    /// it. The fence is a CAS from exactly `PS_PAUSED`, so it can only
    /// land while the stop is still in force — and a parked thread
    /// cannot leave its gate while `PS_PAUSED` is set, which together
    /// make "fence ⇒ every victim thread quiescent, and every later
    /// victim step sees the fence first" a protocol guarantee rather
    /// than a timing assumption.
    pause_state: AtomicUsize,
    /// Victim threads currently parked at their pause gate.
    parked: AtomicUsize,
}

/// [`Shared::pause_state`] bit: the victim is currently SIGSTOPped.
const PS_PAUSED: usize = 1;
/// [`Shared::pause_state`] bit (sticky): the victim was stall-fenced.
const PS_FENCED: usize = 2;
/// Virtual re-check period of a parked victim thread.
const PARK_POLL_NS: u64 = 5_000;

impl Shared {
    /// Threads `prog` runs: one worker per core + the coordinator, plus
    /// a client when the program serves external requests.
    fn threads_of(&self, prog: usize) -> usize {
        self.cfg.cores + 1 + usize::from(self.cfg.submits[prog] > 0)
    }

    /// Is `prog` confirmed dead — SIGKILLed *and* fully exited? With
    /// [`Bug::ReapAlive`] seeded the death check is skipped, modelling a
    /// reaper that fences on heartbeat staleness alone.
    fn confirmed_dead(&self, prog: usize) -> bool {
        if self.cfg.bug == Some(Bug::ReapAlive) {
            return true;
        }
        self.dead[prog].load(Ordering::SeqCst)
            && self.exited[prog].load(Ordering::SeqCst) == self.threads_of(prog)
    }
}

/// What a victim thread learns at its loop-top pause gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Keep running (possibly after having been parked for a while).
    Run,
    /// The lease was stall-fenced while the thread was stopped: stop
    /// touching anything shared and exit.
    Fenced,
}

/// The pause scenario's loop-top stop point. A SIGSTOPped victim thread
/// parks here — counted in [`Shared::parked`], so a reaper knows when
/// the whole program is quiescent — until SIGCONT, then (like the
/// runtime handle's `self_check`) consults the fence before touching
/// anything shared. [`Bug::ZombieWrite`] skips that check: the resumed
/// zombie's next CAS "incorrectly succeeds" and only the oracle's
/// post-fence rule can object. Programs other than the configured
/// victim return immediately with no shim operation, so non-pause
/// scenarios (and every pinned seed) keep their schedule spaces
/// byte-identical.
fn pause_gate(sh: &Shared, prog: usize) -> Gate {
    if sh.cfg.pause != Some(prog) {
        return Gate::Run;
    }
    if sh.pause_state.load(Ordering::SeqCst) & PS_PAUSED != 0 {
        sh.parked.fetch_add(1, Ordering::SeqCst);
        while sh.pause_state.load(Ordering::SeqCst) & PS_PAUSED != 0 {
            sleep(Duration::from_nanos(PARK_POLL_NS));
        }
        sh.parked.fetch_sub(1, Ordering::SeqCst);
    }
    if sh.cfg.bug != Some(Bug::ZombieWrite)
        && sh.pause_state.load(Ordering::SeqCst) & PS_FENCED != 0
    {
        return Gate::Fenced;
    }
    Gate::Run
}

/// CAS-reserves a batch of tasks from the program queue, capped (like
/// the real deque's `steal_batch`) at ceil-half of the observed length
/// and at `limit`. Returns `(observed, taken)` on success. Under
/// [`Bug::OverSteal`] the caps are dropped and the whole queue goes.
fn take_batch(q: &AtomicUsize, limit: usize, bug: Option<Bug>) -> Option<(usize, usize)> {
    loop {
        let n = q.load(Ordering::SeqCst);
        if n == 0 {
            return None;
        }
        let k = if bug == Some(Bug::OverSteal) { n } else { n.div_ceil(2).min(limit.max(1)) };
        if q.compare_exchange(n, n - k, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            return Some((n, k));
        }
    }
}

/// Releases `core` and — when the release succeeded and the doorbell is
/// on — rings the core's *home* program: a freed core is above all
/// reclaimable by its home owner, so its starved coordinator should
/// re-run Eq. 1 now instead of next tick (the model analogue of the
/// runtime's `go_to_sleep` release ring). The releaser's own home core
/// becoming free is not news to it.
fn release_and_ring(sh: &Shared, prog: usize, core: usize) {
    if sh.table.release(prog, core) && sh.home[core] != prog {
        ring_doorbell(sh, sh.home[core]);
    }
}

/// `N_a`: how many of `prog`'s workers are awake right now.
fn awake_count(sh: &Shared, prog: usize) -> usize {
    (0..sh.cfg.cores).filter(|&c| sh.awake[prog][c].load(Ordering::SeqCst)).count()
}

/// The worker-side demand-rise edge (the model analogue of the runtime's
/// `push` hook, DESIGN §16.1), evaluated by a worker that just took work
/// and leaves more behind. The gate is the runtime's: a sibling sleeps,
/// Eq. 1 holds on the queue as seen from here, and a pass could grant a
/// core (one is free, or a home core is in other hands). A gate that
/// passes spends the edge and rings the program's own doorbell; one that
/// finds the edge already spent logs the demand it swallowed — the
/// coordinator's next sample owes it an answer. No-op (zero shim
/// operations) when the config has no doorbell.
fn demand_edge(sh: &Shared, prog: usize) {
    if !sh.cfg.doorbell {
        return;
    }
    let n_b = sh.queued[prog].load(Ordering::SeqCst);
    let n_a = awake_count(sh, prog);
    if n_a == sh.cfg.cores || eq1_wake_target(n_b, n_a) == 0 {
        return;
    }
    let obtainable = (0..sh.cfg.cores).any(|c| {
        let cur = sh.table.current(c);
        cur == FREE || (sh.home[c] == prog && cur != prog as i32)
    });
    if !obtainable {
        return;
    }
    // Swap and log are adjacent (no yield point between), so log order is
    // the edge's linearization order.
    if sh.demand_rung[prog].swap(true, Ordering::SeqCst) {
        sh.table.log_event(ProtoEvent::DemandSuppressed { prog });
        return;
    }
    sh.table.log_event(ProtoEvent::DemandRing { prog });
    ring_doorbell(sh, prog);
}

/// The coordinator's ack: re-arms the demand-rise edge.
fn ack_demand_edge(sh: &Shared, prog: usize) {
    sh.demand_rung[prog].store(false, Ordering::SeqCst);
    sh.table.log_event(ProtoEvent::DemandAck { prog });
}

fn worker_loop(sh: &Shared, prog: usize, core: usize) {
    let t_sleep = sh.cfg.t_sleep.max(1);
    let timeout = Duration::from_nanos(sh.cfg.sleep_timeout_ns.max(1));
    let work = Duration::from_nanos(sh.cfg.work_ns.max(1));
    let mut failed = 0u32;
    loop {
        if pause_gate(sh, prog) == Gate::Fenced {
            // Stall-fenced while stopped: the core (if we held one) was
            // already reaped, and releasing — or acquiring — anything
            // now would be a zombie write. Exit touching nothing.
            sh.awake[prog][core].store(false, Ordering::SeqCst);
            return;
        }
        if sh.dead[prog].load(Ordering::SeqCst) {
            // SIGKILL: stop dead. The core (if owned) stays stranded in
            // the table until a survivor's reaper recovers it.
            sh.awake[prog][core].store(false, Ordering::SeqCst);
            return;
        }
        if sh.prog_remaining[prog].load(Ordering::SeqCst) == 0 {
            release_and_ring(sh, prog, core);
            sh.awake[prog][core].store(false, Ordering::SeqCst);
            return;
        }
        if sh.table.current(core) != prog as i32 {
            // Core not ours: sleep until the coordinator hands it over,
            // or timeout-legitimize (the runtime's starvation safety
            // valve in `go_to_sleep`).
            sh.awake[prog][core].store(false, Ordering::SeqCst);
            sh.table.log_event(ProtoEvent::Sleep { prog, worker: core });
            match sh.sleepers[prog][core].sleep(Some(timeout)) {
                WakeReason::Woken => {
                    sh.table.log_event(ProtoEvent::Wake { prog, worker: core });
                    sh.awake[prog][core].store(true, Ordering::SeqCst);
                    failed = 0;
                }
                WakeReason::TimedOut => {
                    preempt_point("worker-legitimize");
                    let got = if sh.table.current(core) == prog as i32 {
                        true
                    } else if sh.home[core] == prog {
                        sh.table.try_reclaim(prog, core)
                    } else {
                        sh.table.try_acquire_free(prog, core)
                    };
                    if got {
                        sh.table.log_event(ProtoEvent::Wake { prog, worker: core });
                        sh.awake[prog][core].store(true, Ordering::SeqCst);
                        failed = 0;
                    }
                }
            }
            continue;
        }
        // Own the core: take a batch of tasks from the program's queue
        // (steal-half, capped at the configured batch limit).
        preempt_point("worker-steal");
        let batch = if fault_hit(fault_plan().drop_steal_ppm) {
            None
        } else {
            take_batch(&sh.queued[prog], sh.cfg.steal_batch_limit, sh.cfg.bug)
        };
        if let Some((observed, taken)) = batch {
            // Single-task takes predate batching and log nothing — that
            // keeps a `steal_batch_limit = 1` run's shim-op sequence (and
            // so every seeded schedule) identical to the pre-batching
            // model. Only a genuine batch is a `StealBatch` event.
            if taken > 1 {
                sh.table.log_event(ProtoEvent::StealBatch { prog, worker: core, observed, taken });
            }
            demand_edge(sh, prog);
            // Winning the reservation CAS claims `taken` consecutive
            // identities from the program's task ledger.
            let base = sh.task_cursor[prog].fetch_add(taken as u64, Ordering::SeqCst);
            for i in 0..taken {
                // The kill check between tasks (not before the first:
                // the loop-top check already covered entry) keeps a
                // limit-1 run op-for-op identical to single-task takes.
                if i > 0 && sh.dead[prog].load(Ordering::SeqCst) {
                    // SIGKILL mid-batch: the reserved tasks die with us.
                    sh.awake[prog][core].store(false, Ordering::SeqCst);
                    return;
                }
                if sh.cfg.bug == Some(Bug::LostBatch) && taken > 1 && i == taken - 1 {
                    // Seeded bug: the batch's last task is marked
                    // complete but never runs and logs no `TaskExec`.
                    sh.prog_remaining[prog].fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                sleep(work);
                sh.table.log_event(ProtoEvent::TaskExec { prog, id: base + i as u64 });
                sh.prog_remaining[prog].fetch_sub(1, Ordering::SeqCst);
            }
            failed = 0;
        } else {
            failed += 1;
            if failed >= t_sleep {
                // Algorithm 1: T_SLEEP failed takes → release the core
                // into the table and go to sleep (next iteration).
                failed = 0;
                release_and_ring(sh, prog, core);
            } else {
                yield_now();
            }
        }
    }
}

/// The serving program's client: pushes `submits[prog]` requests into
/// the model submission ring, retrying (closed-loop) while the ring is
/// full so every scheduled request eventually enters. The `Submit` log
/// is adjacent to the winning CAS (no yield point between), so the
/// oracle always sees a request submitted before it is admitted.
/// Request ids extend the program's task id space past its initial
/// tasks — the same W1/W2 ledger then covers them end to end.
fn client_loop(sh: &Shared, prog: usize) {
    let offset = sh.cfg.tasks[prog] as u64;
    let cap = sh.cfg.ring_capacity.max(1);
    let mut next = 0usize;
    while next < sh.cfg.submits[prog] {
        if pause_gate(sh, prog) == Gate::Fenced {
            // The ring now belongs to the successor incarnation;
            // unsent requests die with the fenced client.
            return;
        }
        if sh.dead[prog].load(Ordering::SeqCst) {
            // SIGKILL: unsent requests die with the program (and the
            // oracle's crash exemption covers whatever was ringed).
            return;
        }
        let n = sh.ring[prog].load(Ordering::SeqCst);
        if n >= cap {
            yield_now();
            continue;
        }
        if sh.ring[prog].compare_exchange(n, n + 1, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            sh.table.log_event(ProtoEvent::Submit { prog, id: offset + next as u64 });
            next += 1;
            // Submit edge: wake the coordinator to drain now instead of
            // next tick (the model analogue of `Runtime::submit`'s
            // DOORBELL_SUBMIT ring).
            ring_doorbell(sh, prog);
        }
    }
}

/// The coordinator's drain pass: empties the submission ring in chunks
/// of at most `drain_batch`, logging an `Admit` for each request and
/// handing it to the program queue. Mirrors the runtime's
/// `drain_submissions` (reserve a chunk by CAS, then admit its
/// requests). Under [`Bug::DroppedSubmit`] the last request of a
/// multi-request chunk is popped but never admitted — its completion
/// counter is reconciled so the run still settles cleanly, leaving only
/// the oracle's admission ledger to notice.
fn drain_ring(sh: &Shared, prog: usize) {
    let batch = sh.cfg.drain_batch.max(1);
    loop {
        let n = sh.ring[prog].load(Ordering::SeqCst);
        if n == 0 {
            return;
        }
        let k = n.min(batch);
        if sh.ring[prog].compare_exchange(n, n - k, Ordering::SeqCst, Ordering::SeqCst).is_err() {
            continue;
        }
        let offset = sh.cfg.tasks[prog] as u64;
        for i in 0..k {
            if sh.cfg.bug == Some(Bug::DroppedSubmit) && k > 1 && i == k - 1 {
                sh.prog_remaining[prog].fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let id = offset + sh.admit_cursor[prog].fetch_add(1, Ordering::SeqCst);
            // Admit is logged before the queue increment that makes the
            // request claimable, so the ledger registers the identity
            // before any worker can execute it.
            sh.table.log_event(ProtoEvent::Admit { prog, id });
            sh.queued[prog].fetch_add(1, Ordering::SeqCst);
        }
    }
}

fn coordinator_loop(sh: &Shared, prog: usize) {
    let period = sh.cfg.coord_period_ns.max(1);
    let mut ticks = 0u32;
    while ticks < sh.cfg.coord_ticks {
        if pause_gate(sh, prog) == Gate::Fenced {
            return;
        }
        if sh.dead[prog].load(Ordering::SeqCst)
            || sh.prog_remaining[prog].load(Ordering::SeqCst) == 0
        {
            return;
        }
        let jitter = match fault_plan().coord_jitter_ns {
            0 => 0,
            j => fault_below(j),
        };
        if sh.cfg.doorbell {
            // Event-driven: park on the doorbell with the period as the
            // fallback heartbeat. A ring is a *bonus* pass — it does not
            // consume the tick budget, mirroring the runtime where rings
            // never starve the configured-cadence chores.
            if !wait_doorbell(sh, prog, Duration::from_nanos(period + jitter)) {
                ticks += 1;
            }
        } else {
            sleep(Duration::from_nanos(period + jitter));
            ticks += 1;
        }
        if sh.dead[prog].load(Ordering::SeqCst)
            || sh.prog_remaining[prog].load(Ordering::SeqCst) == 0
        {
            return;
        }
        // Drain ringed submissions into the queue before the snapshot,
        // as the runtime coordinator does — admitted requests count in
        // N_b on the very tick that admits them. Gated on the config
        // (not the ring) so non-serving runs add no scheduler ops.
        if sh.cfg.submits[prog] > 0 {
            drain_ring(sh, prog);
        }
        // Ack the demand-rise edge *before* the snapshot: a worker that
        // found the edge spent did so before this store, so the sample
        // below answers it; one that comes later rings again. Under
        // [`Bug::LateAck`] the ack moves behind the sample.
        let late_ack = sh.cfg.bug == Some(Bug::LateAck);
        if sh.cfg.doorbell && !late_ack {
            ack_demand_edge(sh, prog);
        }
        // Snapshot — racy by design, like the runtime coordinator's.
        preempt_point("coord-snapshot");
        let n_b = sh.queued[prog].load(Ordering::SeqCst);
        let n_a = awake_count(sh, prog);
        let n_w = eq1_wake_target(n_b, n_a);
        sh.table.log_event(ProtoEvent::CoordTick { prog, n_b, n_a, n_w });
        if sh.cfg.doorbell && late_ack {
            preempt_point("coord-late-ack");
            ack_demand_edge(sh, prog);
        }
        if n_w == 0 {
            continue;
        }
        let free = sh.table.free_cores();
        let reclaimable = sh.table.reclaimable_cores(prog);
        let plan = plan_wakes(n_w, free.len(), reclaimable.len());
        preempt_point("coord-apply");
        let mut gained = 0usize;
        for &c in &free {
            if gained >= plan.from_free {
                break;
            }
            if sh.table.try_acquire_free(prog, c) {
                gained += 1;
            }
        }
        let mut reclaimed = 0usize;
        for &c in &reclaimable {
            if reclaimed >= plan.from_reclaim {
                break;
            }
            preempt_point("coord-reclaim");
            if sh.table.try_reclaim(prog, c) {
                reclaimed += 1;
            }
        }
        // Wake sleeping workers on cores we own, up to the wake target.
        let mut woken = 0usize;
        for c in 0..sh.cfg.cores {
            if woken >= n_w {
                break;
            }
            if sh.table.current(c) == prog as i32 && !sh.awake[prog][c].load(Ordering::SeqCst) {
                sh.sleepers[prog][c].wake();
                woken += 1;
            }
        }
    }
}

/// The survivor's reaper pass: waits out the lease timeout, and once
/// the crash victim is confirmed dead (SIGKILLed *and* fully exited —
/// the model's `kill(pid, 0) == ESRCH`), CAS-fences its lease and
/// returns every core it stranded to the free pool. Mirrors
/// `dws_rt::reap_expired`'s fence → reap ladder, including the one-shot
/// fence under racing reapers.
fn reaper_loop(sh: &Shared, me: usize, victim: usize) {
    let timeout = Duration::from_nanos(sh.cfg.lease_timeout_ns.max(1));
    loop {
        sleep(timeout);
        if !sh.confirmed_dead(victim) {
            continue;
        }
        preempt_point("reap-fence");
        if sh.fenced[victim]
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            sh.table.log_event(ProtoEvent::Expired { prog: victim });
        }
        for core in 0..sh.cfg.cores {
            if sh.table.current(core) != victim as i32 {
                continue;
            }
            preempt_point("reap-core");
            sh.table.try_reap(victim, core);
        }
        if sh.cfg.bug == Some(Bug::ReapStrand) {
            // Seeded bug: the cleanup pass meant to discard the dead
            // program's parked tasks drains the *survivor's* own queue.
            // The completion counter is reconciled, so the run still
            // settles cleanly — only W1 sees the stranded identities.
            let stranded = sh.queued[me].swap(0, Ordering::SeqCst);
            if stranded > 0 {
                sh.prog_remaining[me].fetch_sub(stranded, Ordering::SeqCst);
            }
        }
        return;
    }
}

/// The pause scenario's pauser: delivers SIGSTOP at `pause_at_ns` and
/// SIGCONT at `resume_at_ns`, each skewed by an independent draw from
/// the fault PRNG (`FaultPlan::pause_jitter_ns`) so the stall window
/// sweeps across lease expiry from one seed base.
fn pauser_loop(sh: &Shared) {
    let jitter = |bound: u64| match bound {
        0 => 0,
        b => fault_below(b),
    };
    let plan = fault_plan();
    let stop_at = sh.cfg.pause_at_ns.max(1) + jitter(plan.pause_jitter_ns);
    sleep(Duration::from_nanos(stop_at));
    ps_update(sh, |ps| ps | PS_PAUSED);
    let dwell = sh.cfg.resume_at_ns.saturating_sub(sh.cfg.pause_at_ns).max(1)
        + jitter(plan.pause_jitter_ns);
    sleep(Duration::from_nanos(dwell));
    ps_update(sh, |ps| ps & !PS_PAUSED);
}

/// CAS-updates [`Shared::pause_state`] (the shim atomics expose no
/// `fetch_or`/`fetch_and`).
fn ps_update(sh: &Shared, f: impl Fn(usize) -> usize) {
    loop {
        let ps = sh.pause_state.load(Ordering::SeqCst);
        if sh.pause_state.compare_exchange(ps, f(ps), Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            return;
        }
    }
}

/// A survivor's stall reaper: the model analogue of the runtime's
/// opt-in `set_stall_timeout` fencing. Every lease timeout it checks
/// whether the victim is SIGSTOPped with *every* thread quiescent
/// (parked at a gate or exited) — the analogue of a stale heartbeat
/// with no operation in flight — and if so CAS-fences the lease (from
/// exactly [`PS_PAUSED`], so the fence cannot land after SIGCONT) and
/// reaps the stranded cores. The resumed victim must then behave like a
/// runtime zombie: refuse every further table transition.
fn stall_reaper_loop(sh: &Shared, victim: usize) {
    let timeout = Duration::from_nanos(sh.cfg.lease_timeout_ns.max(1));
    loop {
        sleep(timeout);
        let ps = sh.pause_state.load(Ordering::SeqCst);
        if ps & PS_FENCED != 0 {
            // A racing reaper fenced (and reaped) already.
            return;
        }
        if ps & PS_PAUSED == 0 {
            if sh.prog_remaining[victim].load(Ordering::SeqCst) == 0 {
                // The victim outran the stall and finished: no reap duty.
                return;
            }
            continue;
        }
        let quiescent = sh.parked.load(Ordering::SeqCst) + sh.exited[victim].load(Ordering::SeqCst)
            == sh.threads_of(victim);
        if !quiescent {
            continue;
        }
        preempt_point("stall-fence");
        if sh
            .pause_state
            .compare_exchange(PS_PAUSED, PS_PAUSED | PS_FENCED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            sh.table.log_event(ProtoEvent::Expired { prog: victim });
            for core in 0..sh.cfg.cores {
                if sh.table.current(core) != victim as i32 {
                    continue;
                }
                preempt_point("stall-reap");
                sh.table.try_reap(victim, core);
            }
            return;
        }
    }
}

/// Builds the model inside an exploration: spawns one worker per
/// `(program, core)` and one coordinator per program, and returns the
/// post-check closure that linearizes the event log, replays it through
/// the [`Oracle`], and (on clean runs) verifies all tasks executed and
/// the log agrees with the live table.
pub fn spawn_model(env: &Env, cfg: &ModelConfig, _seed: u64) -> impl FnOnce(bool) -> PostCheck {
    assert!(cfg.programs >= 1, "need at least one program");
    assert!(cfg.cores >= cfg.programs, "need at least one core per program");
    assert_eq!(cfg.tasks.len(), cfg.programs, "tasks.len() must equal programs");
    assert_eq!(cfg.submits.len(), cfg.programs, "submits.len() must equal programs");
    if let Some(v) = cfg.crash {
        assert!(v < cfg.programs, "crash victim out of range");
        assert!(cfg.programs >= 2, "crash scenario needs a survivor");
    }
    if let Some(v) = cfg.pause {
        assert!(v < cfg.programs, "pause victim out of range");
        assert!(cfg.programs >= 2, "pause scenario needs a fencing survivor");
        assert!(cfg.crash.is_none(), "pause and crash scenarios are exclusive");
        assert!(cfg.pause_at_ns < cfg.resume_at_ns, "pause window must be positive");
    }
    let home = cfg.home();
    let sh = Arc::new(Shared {
        home: home.clone(),
        table: ModelTable::new(home.clone(), cfg.bug),
        queued: cfg.tasks.iter().map(|&t| AtomicUsize::new(t)).collect(),
        // A program is done when its initial tasks AND every request its
        // client will ever submit have executed.
        prog_remaining: cfg
            .tasks
            .iter()
            .zip(&cfg.submits)
            .map(|(&t, &s)| AtomicUsize::new(t + s))
            .collect(),
        task_cursor: (0..cfg.programs).map(|_| std::sync::atomic::AtomicU64::new(0)).collect(),
        ring: (0..cfg.programs).map(|_| AtomicUsize::new(0)).collect(),
        admit_cursor: (0..cfg.programs).map(|_| std::sync::atomic::AtomicU64::new(0)).collect(),
        sleepers: (0..cfg.programs)
            .map(|_| (0..cfg.cores).map(|_| ModelSleeper::new()).collect())
            .collect(),
        doorbells: (0..cfg.programs).map(|_| ModelDoorbell::new()).collect(),
        demand_rung: (0..cfg.programs).map(|_| AtomicBool::new(false)).collect(),
        awake: (0..cfg.programs)
            .map(|p| (0..cfg.cores).map(|c| AtomicBool::new(home[c] == p)).collect())
            .collect(),
        dead: (0..cfg.programs).map(|_| AtomicBool::new(false)).collect(),
        fenced: (0..cfg.programs).map(|_| AtomicBool::new(false)).collect(),
        exited: (0..cfg.programs).map(|_| AtomicUsize::new(0)).collect(),
        pause_state: AtomicUsize::new(0),
        parked: AtomicUsize::new(0),
        cfg: cfg.clone(),
    });
    // Spawn every initial task into the ledger before any thread runs:
    // a deterministic prefix, identical across schedules, mirroring the
    // runtime's `Spawn` lifecycle events.
    for (p, &n) in cfg.tasks.iter().enumerate() {
        for id in 0..n as u64 {
            sh.table.log_event(ProtoEvent::TaskSpawn { prog: p, id });
        }
    }
    for p in 0..cfg.programs {
        for c in 0..cfg.cores {
            let sh2 = Arc::clone(&sh);
            env.spawn(&format!("w{p}.{c}"), move || {
                worker_loop(&sh2, p, c);
                sh2.exited[p].fetch_add(1, Ordering::SeqCst);
            });
        }
        let sh2 = Arc::clone(&sh);
        env.spawn(&format!("coord{p}"), move || {
            coordinator_loop(&sh2, p);
            sh2.exited[p].fetch_add(1, Ordering::SeqCst);
        });
        if cfg.submits[p] > 0 {
            let sh2 = Arc::clone(&sh);
            env.spawn(&format!("client{p}"), move || {
                client_loop(&sh2, p);
                sh2.exited[p].fetch_add(1, Ordering::SeqCst);
            });
        }
    }
    if let Some(victim) = cfg.crash {
        let crash_at = Duration::from_nanos(cfg.crash_at_ns.max(1));
        let sh2 = Arc::clone(&sh);
        env.spawn("killer", move || {
            sleep(crash_at);
            sh2.dead[victim].store(true, Ordering::SeqCst);
        });
        for p in (0..cfg.programs).filter(|&p| p != victim) {
            let sh2 = Arc::clone(&sh);
            env.spawn(&format!("reaper{p}"), move || reaper_loop(&sh2, p, victim));
        }
    }
    if let Some(victim) = cfg.pause {
        let sh2 = Arc::clone(&sh);
        env.spawn("pauser", move || pauser_loop(&sh2));
        for p in (0..cfg.programs).filter(|&p| p != victim) {
            let sh2 = Arc::clone(&sh);
            env.spawn(&format!("stall-reaper{p}"), move || stall_reaper_loop(&sh2, victim));
        }
    }
    let crash = cfg.crash;
    let pause = cfg.pause;
    move |clean: bool| {
        let timed = sh.table.take_timed_log();
        let events: Vec<ProtoEvent> = timed.iter().map(|&(_, e)| e).collect();
        let mut error = None;
        let mut oracle = Oracle::new(&home);
        for &e in &events {
            if let Err(v) = oracle.apply(e) {
                error = Some(format!("protocol violation: {v}"));
                break;
            }
        }
        // A stall-fenced pause victim is exempt exactly like a crash
        // victim: its remaining work legitimately dies with the fence
        // (the zombie must NOT finish it — that is the point). A victim
        // that resumed un-fenced gets no exemption and must finish
        // everything. The flag is sticky, so reading it post-run is
        // race-free.
        let stall_fenced = pause.filter(|_| sh.pause_state.load(Ordering::SeqCst) & PS_FENCED != 0);
        let lost = crash.or(stall_fenced);
        if error.is_none() && clean {
            // A crash (or stall-fenced) victim's tasks legitimately die
            // with it.
            let left: usize = sh
                .prog_remaining
                .iter()
                .enumerate()
                .filter(|&(p, _)| lost != Some(p))
                .map(|(_, r)| r.load(Ordering::SeqCst))
                .sum();
            if left != 0 {
                error = Some(format!("{left} tasks left unexecuted"));
            } else {
                let live = sh.table.snapshot();
                if oracle.owners() != live.as_slice() {
                    error = Some(format!(
                        "event log and live table disagree: log says {:?}, table says {:?}",
                        oracle.owners(),
                        live
                    ));
                }
            }
        }
        if error.is_none() && clean {
            if let Some(v) = crash {
                // The headline recovery property: no core stays
                // stranded with the dead program once the run settles.
                let stranded: Vec<usize> =
                    (0..sh.cfg.cores).filter(|&c| sh.table.current(c) == v as i32).collect();
                if !stranded.is_empty() {
                    error = Some(format!(
                        "cores {stranded:?} still owned by crashed prog {v} at end of run"
                    ));
                }
            }
            if let Some(v) = stall_fenced {
                // Same property for a stall-fence: the reap pass freed
                // every core the stopped victim held, and the resumed
                // zombie acquired nothing back.
                let stranded: Vec<usize> =
                    (0..sh.cfg.cores).filter(|&c| sh.table.current(c) == v as i32).collect();
                if !stranded.is_empty() {
                    error = Some(format!(
                        "cores {stranded:?} still owned by stall-fenced prog {v} at end of run"
                    ));
                }
            }
        }
        if error.is_none() && clean {
            // W1: every spawned identity of a surviving program executed.
            // Strictly stronger than the counter check above — a run that
            // reconciles `prog_remaining` while dropping a task passes
            // the counters but not the ledger.
            if let Err(e) = oracle.finish(lost) {
                error = Some(e);
            }
        }
        if error.is_none() && clean {
            // Core-seconds conservation (DESIGN §14's checker-side
            // mirror of the runtime `AllocLedger`): settle the live
            // ledger at the log's horizon and demand every
            // core-nanosecond is attributed — Σ per-program + free ==
            // cores × elapsed — then that the ledger's attribution
            // matches an independent replay of the timed log. A
            // transition path that frees a core without billing its
            // final interval (Bug::LeakedCoreSeconds) is legal
            // event-by-event; only these rules see the hole.
            let t_end = timed.iter().map(|&(t, _)| t).max().unwrap_or(0);
            let (led_prog, led_free) = sh.table.settled_core_time(t_end);
            let total = led_prog.iter().sum::<u64>() + led_free;
            let expected = sh.cfg.cores as u64 * t_end;
            if total != expected {
                error = Some(format!(
                    "core-seconds conservation violated: ledger attributes {total} core-ns \
                     but {} cores x {t_end} elapsed ns = {expected} core-ns \
                     ({} core-ns leaked)",
                    sh.cfg.cores,
                    expected.abs_diff(total)
                ));
            } else {
                let ct = replay_core_time(&home, &timed);
                if ct.per_prog != led_prog || ct.free_ns != led_free {
                    error = Some(format!(
                        "ledger/replay core-time disagree: ledger {led_prog:?} + {led_free} free, \
                         replay {:?} + {} free",
                        ct.per_prog, ct.free_ns
                    ));
                }
            }
        }
        PostCheck { events, error }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_map_is_equipartition() {
        assert_eq!(ModelConfig::standard().home(), vec![0, 0, 1, 1]);
        assert_eq!(ModelConfig::small().home(), vec![0, 1]);
    }

    #[test]
    fn table_protocol_unmanaged() {
        let t = ModelTable::new(vec![0, 0, 1, 1], None);
        assert!(!t.try_acquire_free(1, 0)); // owned by 0
        assert!(t.release(0, 0));
        assert!(!t.release(0, 0)); // double release refused by CAS
        assert!(t.try_acquire_free(1, 0));
        assert!(t.try_reclaim(0, 0)); // home owner takes it back
        assert!(!t.try_reclaim(0, 0)); // already owned: correctly a no-op
        let log = t.take_log();
        assert_eq!(log.len(), 3); // release, acquire, reclaim
    }

    #[test]
    fn table_reap_protocol_unmanaged() {
        let t = ModelTable::new(vec![0, 0, 1, 1], None);
        assert!(!t.try_reap(1, 0)); // owned by 0: CAS refuses
        assert!(t.try_reap(1, 2));
        assert!(!t.try_reap(1, 2)); // already free
        assert_eq!(t.take_log(), vec![ProtoEvent::Reap { prog: 1, core: 2 }]);
    }

    #[test]
    fn take_batch_respects_half_and_limit() {
        let q = AtomicUsize::new(7);
        assert_eq!(take_batch(&q, 2, None), Some((7, 2))); // limit caps
        assert_eq!(take_batch(&q, 100, None), Some((5, 3))); // half caps: ceil(5/2)
        assert_eq!(take_batch(&q, 1, None), Some((2, 1))); // limit 1 = single steal
        assert_eq!(take_batch(&q, 0, None), Some((1, 1))); // degenerate limit clamps to 1
        assert_eq!(take_batch(&q, 2, None), None); // empty
        assert_eq!(q.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn seeded_over_steal_drains_the_queue() {
        let q = AtomicUsize::new(7);
        assert_eq!(take_batch(&q, 2, Some(Bug::OverSteal)), Some((7, 7)));
        assert_eq!(q.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn serving_config_serves_and_default_configs_do_not() {
        let cfg = ModelConfig::serving();
        assert!(cfg.is_serving());
        assert_eq!(cfg.submits, vec![4, 0]);
        assert!(cfg.ring_capacity < cfg.submits[0], "full-ring retry path is reachable");
        assert!(cfg.drain_batch >= 2, "multi-request drain chunks are reachable");
        assert!(!ModelConfig::standard().is_serving());
        assert!(!ModelConfig::small().is_serving());
        assert!(!ModelConfig::crash().is_serving());
    }

    #[test]
    fn doorbell_config_has_all_three_wake_edges_and_default_configs_stay_polling() {
        let cfg = ModelConfig::doorbell();
        assert!(cfg.doorbell);
        assert!(cfg.is_serving(), "submit rings need a client");
        assert!(cfg.ring_capacity >= cfg.submits[0], "no full-ring retries in this scenario");
        assert!(cfg.crash.is_none() && cfg.pause.is_none());
        // Every other scenario must add zero doorbell operations, or
        // pinned seeds stop replaying byte-identically.
        for other in [
            ModelConfig::standard(),
            ModelConfig::small(),
            ModelConfig::crash(),
            ModelConfig::pause(),
            ModelConfig::serving(),
        ] {
            assert!(!other.doorbell);
        }
    }

    #[test]
    fn pause_config_straddles_the_lease() {
        let cfg = ModelConfig::pause();
        assert_eq!(cfg.pause, Some(1));
        assert!(cfg.crash.is_none(), "pause and crash are exclusive");
        assert!(cfg.pause_at_ns < cfg.resume_at_ns);
        assert!(
            cfg.resume_at_ns - cfg.pause_at_ns > cfg.lease_timeout_ns,
            "the stall window must straddle lease expiry or no schedule can fence"
        );
        assert!(ModelConfig::standard().pause.is_none());
        assert!(ModelConfig::crash().pause.is_none());
        assert!(ModelConfig::serving().pause.is_none());
    }

    #[test]
    fn unmanaged_table_ledger_is_timeless_but_complete() {
        // Outside an exploration the virtual clock reads zero, so the
        // ledger conserves trivially — and the timed log still records
        // every transition, in order, with zero stamps.
        let t = ModelTable::new(vec![0, 0, 1, 1], None);
        assert!(t.release(0, 0));
        assert!(t.try_acquire_free(1, 0));
        let (prog_ns, free_ns) = t.settled_core_time(0);
        assert_eq!(prog_ns, vec![0, 0]);
        assert_eq!(free_ns, 0);
        let timed = t.take_timed_log();
        assert_eq!(
            timed,
            vec![
                (0, ProtoEvent::Release { prog: 0, core: 0 }),
                (0, ProtoEvent::Acquire { prog: 1, core: 0 }),
            ]
        );
    }

    #[test]
    fn seeded_double_reclaim_mislogs() {
        let t = ModelTable::new(vec![0, 0], Some(Bug::DoubleReclaim));
        assert!(t.try_reclaim(0, 0)); // bug: "succeeds" while owning it
        let log = t.take_log();
        assert_eq!(log, vec![ProtoEvent::Reclaim { prog: 0, core: 0 }]);
    }
}
