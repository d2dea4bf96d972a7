//! The exploration harness: builds a model, runs it under one schedule,
//! and drives many schedules (seeded random search or bounded DFS).
//!
//! A *builder* closure receives an [`Env`] (to spawn managed threads)
//! and the run's seed, wires up the model, and returns a *post-check*
//! closure. After the run, the harness calls the post-check with a flag
//! saying whether the run completed cleanly; the post-check returns the
//! linearized event trace plus any model-level failure (oracle
//! violation, unfinished work).

use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::fault::FaultPlan;
use crate::oracle::ProtoEvent;
use crate::sched::{ctx, is_stop_payload, set_ctx, Controller};
use crate::source::{next_dfs_prefix, Source};

/// Settings for one exploration.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Per-run scheduling-step budget; exceeding it fails the run as a
    /// possible livelock.
    pub max_steps: u64,
    /// Virtual nanoseconds the clock advances per scheduling step.
    pub step_ns: u64,
    /// Fault-injection plan (all off by default).
    pub faults: FaultPlan,
    /// Whether atomic *loads* are yield points too. `true` explores more
    /// interleavings per schedule; `false` trades a coarser atomicity
    /// granularity for materially faster runs.
    pub yield_on_loads: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_steps: 20_000,
            step_ns: 50,
            faults: FaultPlan::default(),
            yield_on_loads: true,
        }
    }
}

/// What a model's post-check hands back: the linearized protocol event
/// trace and any model-level failure.
#[derive(Debug, Clone, Default)]
pub struct PostCheck {
    /// Protocol events in linearization order.
    pub events: Vec<ProtoEvent>,
    /// Model-level failure (oracle violation, unfinished work), if any.
    pub error: Option<String>,
}

/// The result of running one schedule.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Seed this run was derived from (feed back to
    /// [`Explorer::run_seed`] / `check --replay` to reproduce it).
    pub seed: u64,
    /// The schedule's decision vector (choices only).
    pub decisions: Vec<u32>,
    /// Full decision log as `(choice, alternatives)` pairs (drives DFS).
    pub log: Vec<(u32, u32)>,
    /// Scheduling steps consumed.
    pub steps: u64,
    /// Virtual nanoseconds the run spanned.
    pub virtual_ns: u64,
    /// Why the run failed, if it did (panic message, deadlock report,
    /// oracle violation, budget exhaustion).
    pub failure: Option<String>,
    /// The run's protocol event trace.
    pub events: Vec<ProtoEvent>,
}

/// Aggregate outcome of an exploration.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Every explored schedule passed.
    Pass,
    /// A schedule failed (exploration stops at the first failure).
    Fail(Box<RunResult>),
}

/// Summary of an exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Schedules executed.
    pub schedules: u64,
    /// Distinct decision vectors seen (hash-based).
    pub distinct: u64,
    /// Pass, or the first failing run.
    pub outcome: Outcome,
}

impl ExploreReport {
    /// The failing run, if the exploration failed.
    pub fn failing(&self) -> Option<&RunResult> {
        match &self.outcome {
            Outcome::Pass => None,
            Outcome::Fail(r) => Some(r),
        }
    }
}

/// Handle to spawn managed threads into the run being built.
pub struct Env {
    ctrl: Arc<Controller>,
    os_handles: RefCell<Vec<std::thread::JoinHandle<()>>>,
}

/// Handle to a spawned managed thread.
pub struct ThreadHandle {
    ctrl: Arc<Controller>,
    id: usize,
}

impl ThreadHandle {
    /// Blocks (in the scheduler) until the thread finishes. Must be
    /// called from a managed thread of the same run.
    pub fn join(&self) {
        match ctx() {
            Some((ctrl, me)) if Arc::ptr_eq(&ctrl, &self.ctrl) => ctrl.block_join(me, self.id),
            _ => panic!("ThreadHandle::join called outside its exploration"),
        }
    }
}

impl Env {
    /// Spawns a managed thread. It starts runnable but executes only
    /// when the scheduler hands it the token; panics inside it fail the
    /// run with the panic message.
    pub fn spawn<F>(&self, name: &str, f: F) -> ThreadHandle
    where
        F: FnOnce() + Send + 'static,
    {
        let id = self.ctrl.register(name);
        let ctrl = Arc::clone(&self.ctrl);
        let tname = name.to_string();
        let os = std::thread::Builder::new()
            .name(tname.clone())
            .spawn(move || {
                set_ctx(Some((Arc::clone(&ctrl), id)));
                let result = catch_unwind(AssertUnwindSafe(|| {
                    ctrl.first_turn(id);
                    f();
                }));
                if let Err(payload) = result {
                    if !is_stop_payload(payload.as_ref()) {
                        let msg = panic_message(payload.as_ref());
                        ctrl.record_failure(format!("thread '{tname}' panicked: {msg}"));
                    }
                }
                set_ctx(None);
                ctrl.thread_finished(id);
            })
            .expect("failed to spawn checker thread");
        self.os_handles.borrow_mut().push(os);
        ThreadHandle { ctrl: Arc::clone(&self.ctrl), id }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_with_source<F, P>(opts: &CheckOptions, source: Source, seed: u64, builder: &F) -> RunResult
where
    F: Fn(&Env, u64) -> P,
    P: FnOnce(bool) -> PostCheck,
{
    let ctrl = Controller::new(
        source,
        opts.faults,
        seed,
        opts.max_steps,
        opts.step_ns,
        opts.yield_on_loads,
    );
    let env = Env { ctrl: Arc::clone(&ctrl), os_handles: RefCell::new(Vec::new()) };
    let post = builder(&env, seed);
    ctrl.start_and_wait();
    for h in env.os_handles.into_inner() {
        let _ = h.join();
    }
    let rep = ctrl.report();
    let mut failure = rep.failure;
    if failure.is_none() && rep.budget_exhausted {
        failure = Some(format!("step budget of {} exhausted (possible livelock)", opts.max_steps));
    }
    let clean = failure.is_none();
    let check = post(clean);
    if failure.is_none() {
        failure = check.error;
    }
    RunResult {
        seed,
        decisions: rep.decisions,
        log: rep.log,
        steps: rep.steps,
        virtual_ns: rep.virtual_ns,
        failure,
        events: check.events,
    }
}

fn fnv_hash(decisions: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for d in decisions {
        for b in d.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Reusable exploration harness binding options to a model builder.
pub struct Explorer<F> {
    opts: CheckOptions,
    builder: F,
}

impl<F> Explorer<F> {
    /// Creates an explorer from options and a model builder.
    pub fn new(opts: CheckOptions, builder: F) -> Self {
        Explorer { opts, builder }
    }

    /// Runs the single schedule derived from `seed`.
    pub fn run_seed<P>(&self, seed: u64) -> RunResult
    where
        F: Fn(&Env, u64) -> P,
        P: FnOnce(bool) -> PostCheck,
    {
        run_with_source(&self.opts, Source::random(seed), seed, &self.builder)
    }

    /// Runs an exact recorded decision vector (with `fault_seed` feeding
    /// the fault PRNG, as in the original run).
    pub fn run_script<P>(&self, script: Vec<u32>, fault_seed: u64) -> RunResult
    where
        F: Fn(&Env, u64) -> P,
        P: FnOnce(bool) -> PostCheck,
    {
        run_with_source(&self.opts, Source::Replay { script, pos: 0 }, fault_seed, &self.builder)
    }

    /// Seeded random search over `iters` schedules starting at
    /// `base_seed` (run *i* uses seed `base_seed + i`). Stops at the
    /// first failure.
    pub fn random<P>(&self, base_seed: u64, iters: u64) -> ExploreReport
    where
        F: Fn(&Env, u64) -> P,
        P: FnOnce(bool) -> PostCheck,
    {
        let mut distinct = HashSet::new();
        for i in 0..iters {
            let r = self.run_seed(base_seed.wrapping_add(i));
            distinct.insert(fnv_hash(&r.decisions));
            if r.failure.is_some() {
                return ExploreReport {
                    schedules: i + 1,
                    distinct: distinct.len() as u64,
                    outcome: Outcome::Fail(Box::new(r)),
                };
            }
        }
        ExploreReport { schedules: iters, distinct: distinct.len() as u64, outcome: Outcome::Pass }
    }

    /// Bounded depth-first enumeration: visits every distinct schedule
    /// of the model exactly once (up to `max_schedules` runs). Stops at
    /// the first failure or when the space is exhausted.
    pub fn dfs<P>(&self, max_schedules: u64) -> ExploreReport
    where
        F: Fn(&Env, u64) -> P,
        P: FnOnce(bool) -> PostCheck,
    {
        let mut distinct = HashSet::new();
        let mut prefix: Vec<u32> = Vec::new();
        let mut schedules = 0u64;
        loop {
            let src = Source::Dfs { prefix: prefix.clone(), pos: 0 };
            let r = run_with_source(&self.opts, src, 0, &self.builder);
            schedules += 1;
            distinct.insert(fnv_hash(&r.decisions));
            if r.failure.is_some() {
                return ExploreReport {
                    schedules,
                    distinct: distinct.len() as u64,
                    outcome: Outcome::Fail(Box::new(r)),
                };
            }
            match next_dfs_prefix(&r.log) {
                Some(p) if schedules < max_schedules => prefix = p,
                _ => break,
            }
        }
        ExploreReport { schedules, distinct: distinct.len() as u64, outcome: Outcome::Pass }
    }

    /// Re-runs a failing result's seed and verifies the replay is
    /// *identical*: same decision vector, same event trace, same
    /// failure. Returns the replayed run, or a description of the
    /// divergence (which would mean the model is nondeterministic).
    pub fn replay<P>(&self, expected: &RunResult) -> Result<RunResult, String>
    where
        F: Fn(&Env, u64) -> P,
        P: FnOnce(bool) -> PostCheck,
    {
        let r = self.run_seed(expected.seed);
        if r.decisions != expected.decisions {
            return Err(format!(
                "replay of seed {} diverged: {} decisions vs {} expected",
                expected.seed,
                r.decisions.len(),
                expected.decisions.len()
            ));
        }
        if r.events != expected.events {
            return Err(format!(
                "replay of seed {} diverged: event traces differ ({} vs {} events)",
                expected.seed,
                r.events.len(),
                expected.events.len()
            ));
        }
        if r.failure != expected.failure {
            return Err(format!(
                "replay of seed {} diverged: failure {:?} vs {:?}",
                expected.seed, r.failure, expected.failure
            ));
        }
        Ok(r)
    }
}

/// One-shot seeded random search (see [`Explorer::random`]).
pub fn explore_random<F, P>(
    opts: &CheckOptions,
    base_seed: u64,
    iters: u64,
    builder: F,
) -> ExploreReport
where
    F: Fn(&Env, u64) -> P,
    P: FnOnce(bool) -> PostCheck,
{
    Explorer::new(*opts, builder).random(base_seed, iters)
}

/// One-shot bounded DFS enumeration (see [`Explorer::dfs`]).
pub fn explore_dfs<F, P>(opts: &CheckOptions, max_schedules: u64, builder: F) -> ExploreReport
where
    F: Fn(&Env, u64) -> P,
    P: FnOnce(bool) -> PostCheck,
{
    Explorer::new(*opts, builder).dfs(max_schedules)
}
