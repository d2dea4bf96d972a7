//! The token-passing virtual-time scheduler.
//!
//! Managed threads are real OS threads, but the `Controller` lets only
//! one run at a time: every instrumented operation (shim atomic access,
//! lock, condvar wait, virtual sleep, marked preemption point) parks the
//! caller and hands the token to a thread chosen by the run's
//! [`Source`]. Between yield points exactly one thread executes, so a run
//! is a pure function of its decision sequence — the property that makes
//! replay and exhaustive enumeration possible.
//!
//! **Virtual clock.** Each scheduling step advances `now` by a fixed
//! `step_ns`; when every thread is blocked the clock jumps to the next
//! deadline (condvar timeout, virtual sleep, delayed wake delivery).
//! Timeout-vs-wake races are therefore ordinary scheduling decisions,
//! not wall-clock accidents.
//!
//! **Termination.** A run ends when every thread finished, when the step
//! budget is exhausted, when a thread panics (model assertion), or when
//! no thread can ever run again (true deadlock — reported with each
//! thread's blocked state). Teardown unwinds every parked thread with a
//! private `StopToken` panic that the spawn wrapper swallows.

use std::sync::{Arc, Condvar as SysCondvar, Mutex as SysMutex, MutexGuard as SysMutexGuard};
use std::time::Duration;

use crate::fault::FaultPlan;
use crate::rng::XorShift64;
use crate::source::Source;

/// Sentinel "no thread" id.
pub(crate) const NO_THREAD: usize = usize::MAX;

/// Why a managed condvar wait resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// A notify reached this waiter.
    Notified,
    /// The (virtual) timeout fired first.
    TimedOut,
    /// Injected spurious wake-up.
    Spurious,
}

/// Scheduling state of one managed thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Runnable,
    Running,
    /// Waiting to acquire the shim mutex at this address.
    BlockedLock(usize),
    /// Waiting on the shim condvar at this address, with an optional
    /// virtual deadline.
    BlockedCond {
        addr: usize,
        deadline: Option<u64>,
    },
    /// Waiting for another managed thread to finish.
    BlockedJoin(usize),
    /// Virtual sleep until the given instant.
    Sleeping {
        until: u64,
    },
    Finished,
}

struct ThreadSlot {
    name: String,
    state: TState,
    resume: Resume,
}

/// A condvar notify whose delivery was fault-delayed.
struct PendingWake {
    at: u64,
    target: usize,
    addr: usize,
}

struct Inner {
    threads: Vec<ThreadSlot>,
    current: usize,
    source: Source,
    /// Decision log: `(choice, alternatives)` per consulted decision.
    log: Vec<(u32, u32)>,
    now_ns: u64,
    step_ns: u64,
    steps: u64,
    max_steps: u64,
    stopping: bool,
    budget_exhausted: bool,
    failure: Option<String>,
    finished: usize,
    faults: FaultPlan,
    frng: XorShift64,
    pending: Vec<PendingWake>,
    yield_loads: bool,
}

/// Private panic payload used to unwind parked threads at teardown.
pub(crate) struct StopToken;

fn stop_panic() -> ! {
    std::panic::panic_any(StopToken)
}

/// Is this caught panic payload the checker's own teardown token?
pub(crate) fn is_stop_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<StopToken>()
}

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Controller>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The controller of the thread calling, if it is a managed thread of a
/// live exploration.
pub(crate) fn ctx() -> Option<(Arc<Controller>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_ctx(v: Option<(Arc<Controller>, usize)>) {
    CTX.with(|c| *c.borrow_mut() = v);
}

/// Everything the explorer needs from a completed run.
pub(crate) struct RunReport {
    pub failure: Option<String>,
    pub decisions: Vec<u32>,
    pub log: Vec<(u32, u32)>,
    pub steps: u64,
    pub virtual_ns: u64,
    pub budget_exhausted: bool,
}

/// One run's scheduler. Shared (via `Arc`) between the harness thread and
/// every managed thread.
pub(crate) struct Controller {
    inner: SysMutex<Inner>,
    cv: SysCondvar,
}

impl Controller {
    pub(crate) fn new(
        source: Source,
        faults: FaultPlan,
        fault_seed: u64,
        max_steps: u64,
        step_ns: u64,
        yield_loads: bool,
    ) -> Arc<Self> {
        Arc::new(Controller {
            inner: SysMutex::new(Inner {
                threads: Vec::new(),
                current: NO_THREAD,
                source,
                log: Vec::new(),
                now_ns: 0,
                step_ns: step_ns.max(1),
                steps: 0,
                max_steps,
                stopping: false,
                budget_exhausted: false,
                failure: None,
                finished: 0,
                faults,
                frng: XorShift64::new(fault_seed ^ 0xFA01_7BAD_5EED_0001),
                pending: Vec::new(),
                yield_loads,
            }),
            cv: SysCondvar::new(),
        })
    }

    fn lock(&self) -> SysMutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a new managed thread (initially runnable). The OS thread
    /// must call [`Controller::first_turn`] before touching shared state.
    pub(crate) fn register(&self, name: &str) -> usize {
        let mut g = self.lock();
        g.threads.push(ThreadSlot {
            name: name.to_string(),
            state: TState::Runnable,
            resume: Resume::Spurious,
        });
        g.threads.len() - 1
    }

    /// Parks until the scheduler hands `me` its first turn.
    pub(crate) fn first_turn(&self, me: usize) {
        let g = self.lock();
        let g = self.wait_turn(g, me);
        if g.stopping {
            drop(g);
            stop_panic();
        }
    }

    fn wait_turn<'a>(
        &'a self,
        mut g: SysMutexGuard<'a, Inner>,
        me: usize,
    ) -> SysMutexGuard<'a, Inner> {
        while g.current != me && !g.stopping {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        g
    }

    /// Core dispatch, with the inner lock held: deliver due timers, pick
    /// the next runnable thread (a schedule decision when more than one),
    /// or — if nothing can run — jump the virtual clock / declare
    /// deadlock / exhaust the budget.
    fn schedule_next(&self, inner: &mut Inner) {
        inner.current = NO_THREAD;
        loop {
            if inner.stopping || inner.finished == inner.threads.len() {
                break;
            }
            inner.steps += 1;
            if inner.steps > inner.max_steps {
                inner.budget_exhausted = true;
                inner.stopping = true;
                break;
            }
            inner.now_ns += inner.step_ns;
            Self::deliver_due(inner);
            Self::maybe_spurious(inner);
            let runnable: Vec<usize> = inner
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state == TState::Runnable)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                if let Some(t) = Self::next_event_time(inner) {
                    inner.now_ns = inner.now_ns.max(t);
                    Self::deliver_due(inner);
                    continue;
                }
                let report = Self::deadlock_report(inner);
                inner.failure.get_or_insert(report);
                inner.stopping = true;
                break;
            }
            let pick = if runnable.len() == 1 {
                0
            } else {
                let Inner { source, log, .. } = inner;
                source.choose(runnable.len() as u32, log) as usize
            };
            let id = runnable[pick];
            inner.threads[id].state = TState::Running;
            inner.current = id;
            break;
        }
        self.cv.notify_all();
    }

    /// Makes every timer whose virtual deadline passed runnable:
    /// fault-delayed notifies first (a wake due at the same instant as
    /// the timeout wins deterministically), then condvar timeouts and
    /// sleep expiries.
    fn deliver_due(inner: &mut Inner) {
        let now = inner.now_ns;
        let threads = &mut inner.threads;
        inner.pending.retain(|p| {
            if p.at > now {
                return true;
            }
            if let TState::BlockedCond { addr, .. } = threads[p.target].state {
                if addr == p.addr {
                    threads[p.target].state = TState::Runnable;
                    threads[p.target].resume = Resume::Notified;
                }
            }
            // A late wake reaching a thread that already moved on is
            // simply lost (exactly like a real lost notify).
            false
        });
        for t in threads.iter_mut() {
            match t.state {
                TState::BlockedCond { deadline: Some(d), .. } if d <= now => {
                    t.state = TState::Runnable;
                    t.resume = Resume::TimedOut;
                }
                TState::Sleeping { until } if until <= now => {
                    t.state = TState::Runnable;
                }
                _ => {}
            }
        }
    }

    /// Fault injection: spuriously wake one condvar waiter.
    fn maybe_spurious(inner: &mut Inner) {
        let ppm = inner.faults.spurious_wake_ppm;
        if ppm == 0 || !inner.frng.hit_ppm(ppm) {
            return;
        }
        let waiters: Vec<usize> = inner
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.state, TState::BlockedCond { .. }))
            .map(|(i, _)| i)
            .collect();
        if waiters.is_empty() {
            return;
        }
        let w = waiters[inner.frng.next_below(waiters.len() as u64) as usize];
        inner.threads[w].state = TState::Runnable;
        inner.threads[w].resume = Resume::Spurious;
    }

    fn next_event_time(inner: &Inner) -> Option<u64> {
        let mut min: Option<u64> = None;
        let mut feed = |t: u64| min = Some(min.map_or(t, |m: u64| m.min(t)));
        for t in &inner.threads {
            match t.state {
                TState::BlockedCond { deadline: Some(d), .. } => feed(d),
                TState::Sleeping { until } => feed(until),
                _ => {}
            }
        }
        for p in &inner.pending {
            feed(p.at);
        }
        min
    }

    fn deadlock_report(inner: &Inner) -> String {
        let states: Vec<String> = inner
            .threads
            .iter()
            .filter(|t| t.state != TState::Finished)
            .map(|t| format!("'{}' {:?}", t.name, t.state))
            .collect();
        format!(
            "deadlock at virtual t={}ns: no runnable thread and no pending timer; blocked: {}",
            inner.now_ns,
            states.join(", ")
        )
    }

    /// A plain yield point: offer the token back to the scheduler.
    pub(crate) fn reschedule(&self, me: usize) {
        if std::thread::panicking() {
            return;
        }
        let mut g = self.lock();
        if g.stopping {
            drop(g);
            stop_panic();
        }
        g.threads[me].state = TState::Runnable;
        self.schedule_next(&mut g);
        let g = self.wait_turn(g, me);
        if g.stopping {
            drop(g);
            stop_panic();
        }
    }

    /// Yield point for atomic *loads*: identical to [`Self::reschedule`]
    /// unless the run was configured with `yield_on_loads: false`, in
    /// which case loads execute without offering the token.
    pub(crate) fn reschedule_load(&self, me: usize) {
        if self.lock().yield_loads {
            self.reschedule(me);
        }
    }

    /// Blocks on the condvar at `addr` (optionally with a virtual
    /// timeout) and reports why the wait resumed. The caller must have
    /// released the associated mutex first; because only the running
    /// thread executes user code, there is no notify window in between.
    pub(crate) fn block_cond(&self, me: usize, addr: usize, timeout: Option<Duration>) -> Resume {
        if std::thread::panicking() {
            return Resume::Spurious;
        }
        let mut g = self.lock();
        if g.stopping {
            drop(g);
            stop_panic();
        }
        let deadline = timeout.map(|d| g.now_ns.saturating_add(d.as_nanos() as u64));
        g.threads[me].state = TState::BlockedCond { addr, deadline };
        g.threads[me].resume = Resume::Spurious;
        self.schedule_next(&mut g);
        let g = self.wait_turn(g, me);
        if g.stopping {
            drop(g);
            stop_panic();
        }
        g.threads[me].resume
    }

    /// Delivers a notify to waiters of the condvar at `addr`. Which
    /// waiter a `notify_one` reaches is a schedule decision; delivery
    /// may be fault-delayed. Never yields (a real notify is cheap) and
    /// never panics (safe from drop paths).
    pub(crate) fn notify_cond(&self, addr: usize, all: bool) {
        let mut g = self.lock();
        if g.stopping {
            return;
        }
        let waiters: Vec<usize> = g
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.state, TState::BlockedCond { addr: a, .. } if a == addr))
            .map(|(i, _)| i)
            .collect();
        if waiters.is_empty() {
            return;
        }
        if all {
            for w in waiters {
                g.threads[w].state = TState::Runnable;
                g.threads[w].resume = Resume::Notified;
            }
        } else {
            let pick = if waiters.len() == 1 {
                0
            } else {
                let Inner { source, log, .. } = &mut *g;
                source.choose(waiters.len() as u32, log) as usize
            };
            let w = waiters[pick];
            let (delay_hit, delay) = {
                let Inner { frng, faults, .. } = &mut *g;
                let hit = frng.hit_ppm(faults.delayed_wake_ppm);
                (hit, 1 + frng.next_below(faults.max_wake_delay_ns.max(1)))
            };
            if delay_hit {
                let at = g.now_ns + delay;
                g.pending.push(PendingWake { at, target: w, addr });
            } else {
                g.threads[w].state = TState::Runnable;
                g.threads[w].resume = Resume::Notified;
            }
        }
        self.cv.notify_all();
    }

    /// Blocks until the shim mutex at `addr` might be free again. The
    /// caller retries its acquire CAS on resume.
    pub(crate) fn block_lock(&self, me: usize, addr: usize) {
        if std::thread::panicking() {
            return;
        }
        let mut g = self.lock();
        if g.stopping {
            drop(g);
            stop_panic();
        }
        g.threads[me].state = TState::BlockedLock(addr);
        self.schedule_next(&mut g);
        let g = self.wait_turn(g, me);
        if g.stopping {
            drop(g);
            stop_panic();
        }
    }

    /// Makes lock waiters of `addr` runnable. Called on unlock; never
    /// panics (runs from guard drop, possibly during unwinding).
    pub(crate) fn unlock_wake(&self, addr: usize) {
        let mut g = self.lock();
        for t in g.threads.iter_mut() {
            if t.state == TState::BlockedLock(addr) {
                t.state = TState::Runnable;
            }
        }
        self.cv.notify_all();
    }

    /// Virtual sleep: deschedule `me` until `now + d` on the virtual
    /// clock.
    pub(crate) fn sleep_virtual(&self, me: usize, d: Duration) {
        if std::thread::panicking() {
            return;
        }
        let mut g = self.lock();
        if g.stopping {
            drop(g);
            stop_panic();
        }
        let until = g.now_ns.saturating_add(d.as_nanos() as u64);
        g.threads[me].state = TState::Sleeping { until };
        self.schedule_next(&mut g);
        let g = self.wait_turn(g, me);
        if g.stopping {
            drop(g);
            stop_panic();
        }
    }

    /// A marked preemption point: under the fault plan, the thread may be
    /// virtually descheduled for a while; otherwise an ordinary yield.
    pub(crate) fn preempt_point(&self, me: usize) {
        if std::thread::panicking() {
            return;
        }
        let mut g = self.lock();
        if g.stopping {
            drop(g);
            stop_panic();
        }
        let (hit, dur) = {
            let Inner { frng, faults, .. } = &mut *g;
            let hit = frng.hit_ppm(faults.preempt_ppm);
            (hit, 1 + frng.next_below(faults.max_preempt_ns.max(1)))
        };
        if hit {
            let until = g.now_ns.saturating_add(dur);
            g.threads[me].state = TState::Sleeping { until };
        } else {
            g.threads[me].state = TState::Runnable;
        }
        self.schedule_next(&mut g);
        let g = self.wait_turn(g, me);
        if g.stopping {
            drop(g);
            stop_panic();
        }
    }

    /// Blocks until managed thread `target` finishes.
    pub(crate) fn block_join(&self, me: usize, target: usize) {
        if std::thread::panicking() {
            return;
        }
        let mut g = self.lock();
        if g.stopping {
            drop(g);
            stop_panic();
        }
        if g.threads[target].state == TState::Finished {
            return;
        }
        g.threads[me].state = TState::BlockedJoin(target);
        self.schedule_next(&mut g);
        let g = self.wait_turn(g, me);
        if g.stopping {
            drop(g);
            stop_panic();
        }
    }

    /// Marks `me` finished, wakes its joiners and hands the token on.
    pub(crate) fn thread_finished(&self, me: usize) {
        let mut g = self.lock();
        g.threads[me].state = TState::Finished;
        g.finished += 1;
        for t in g.threads.iter_mut() {
            if t.state == TState::BlockedJoin(me) {
                t.state = TState::Runnable;
            }
        }
        if g.finished == g.threads.len() {
            g.current = NO_THREAD;
            self.cv.notify_all();
        } else if g.current == me || g.current == NO_THREAD {
            self.schedule_next(&mut g);
        } else {
            self.cv.notify_all();
        }
    }

    /// Records a model failure (a managed thread's real panic) and stops
    /// the run.
    pub(crate) fn record_failure(&self, msg: String) {
        let mut g = self.lock();
        g.failure.get_or_insert(msg);
        g.stopping = true;
        self.cv.notify_all();
    }

    /// Hands the token to the first thread and blocks the (unmanaged)
    /// harness thread until every managed thread finished.
    pub(crate) fn start_and_wait(&self) {
        let mut g = self.lock();
        if g.threads.is_empty() {
            return;
        }
        self.schedule_next(&mut g);
        while g.finished < g.threads.len() {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The run's outcome (meaningful once `start_and_wait` returned).
    pub(crate) fn report(&self) -> RunReport {
        let g = self.lock();
        RunReport {
            failure: g.failure.clone(),
            decisions: g.log.iter().map(|&(c, _)| c).collect(),
            log: g.log.clone(),
            steps: g.steps,
            virtual_ns: g.now_ns,
            budget_exhausted: g.budget_exhausted,
        }
    }

    /// Current virtual time (ns since run start).
    pub(crate) fn now_ns(&self) -> u64 {
        self.lock().now_ns
    }

    /// The run's fault plan.
    pub(crate) fn fault_plan(&self) -> FaultPlan {
        self.lock().faults
    }

    /// One Bernoulli draw from the fault PRNG (ppm scale).
    pub(crate) fn fault_hit(&self, ppm: u32) -> bool {
        self.lock().frng.hit_ppm(ppm)
    }

    /// One uniform draw in `[0, bound)` from the fault PRNG.
    pub(crate) fn fault_below(&self, bound: u64) -> u64 {
        self.lock().frng.next_below(bound.max(1))
    }
}
