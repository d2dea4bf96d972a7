//! A simulated work-stealing program: per-worker deques, the fork-join
//! interpreter for [`WorkloadSpec`]s, and the worker state machine of the
//! paper's Algorithm 1.

use std::collections::VecDeque;

use dws_deque::batch_quota;

use crate::config::{SchedConfig, SimTime};
use crate::metrics::ProgramMetrics;
use crate::rng::XorShift64Star;
use crate::workload::{JoinId, PhaseSpec, Task, TaskBody, WorkloadSpec};

/// Sub-microsecond residue below which task work counts as finished.
const WORK_EPSILON: f64 = 1e-9;

/// A pending join: when `remaining` subtree notifications arrive, the
/// continuation task becomes runnable on the notifying worker.
#[derive(Debug)]
struct Join {
    remaining: u32,
    cont: Option<Task>,
}

/// Scheduling state of one simulated worker thread.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerState {
    /// Looking for work (popping / stealing).
    Idle,
    /// Executing a task with `remaining_us` of nominal work left.
    Running {
        /// The task being executed.
        task: Task,
        /// Nominal microseconds of work remaining.
        remaining_us: f64,
    },
}

/// One simulated worker thread.
#[derive(Debug)]
pub struct WorkerSim {
    /// Current execution state.
    pub state: WorkerState,
    /// Consecutive failed steal attempts (Algorithm 1's `failed_steals`).
    pub failed_steals: u32,
    /// Core this worker is affined to (one-worker-per-core policies) or
    /// assigned to by the OS model.
    pub core: usize,
    /// False while the worker sleeps (DWS/DWS-NC).
    pub awake: bool,
    /// Victim-scan cursor: the first steal attempt after a success picks a
    /// random victim; consecutive failures sweep cyclically from there
    /// (Cilk-5 / rayon practice), guaranteeing work is found within one
    /// pass if any deque is non-empty.
    scan: usize,
}

/// What a worker did with its CPU slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Consumed the whole budget (still runnable).
    Worked,
    /// Voluntarily yielded the core after a failed steal (ABP).
    Yielded,
    /// Crossed `T_SLEEP` failed steals and went to sleep (DWS/DWS-NC).
    /// The caller must mark the worker asleep and release its core.
    Slept,
}

/// A simulated work-stealing program (one "p-i" of the paper).
pub struct SimProgram {
    /// Program index among the co-runners.
    pub id: usize,
    /// Scheduler configuration (policy, T_SLEEP, coordinator period, ...).
    pub sched: SchedConfig,
    /// The benchmark this program runs.
    pub spec: WorkloadSpec,
    /// One deque per worker.
    pub deques: Vec<VecDeque<Task>>,
    /// Worker states; index = worker id (= core id for affine policies).
    pub workers: Vec<WorkerSim>,
    /// Collected statistics.
    pub metrics: ProgramMetrics,
    /// Completed workload traversals.
    pub runs_completed: usize,
    /// Restart the workload immediately after each run (co-run mode).
    pub continuous: bool,
    joins: Vec<Join>,
    free_joins: Vec<JoinId>,
    run_start_us: SimTime,
    rng: XorShift64Star,
}

impl SimProgram {
    /// Creates a program with `n_workers` workers. Worker `i` is affined
    /// to core `cores[i]`. Workers listed in `initially_active` start
    /// awake; the rest start asleep (DWS's initial equipartition).
    pub fn new(
        id: usize,
        spec: WorkloadSpec,
        sched: SchedConfig,
        cores: &[usize],
        initially_active: &[bool],
        seed: u64,
        continuous: bool,
    ) -> Self {
        assert_eq!(cores.len(), initially_active.len());
        let n = cores.len();
        let workers = (0..n)
            .map(|i| WorkerSim {
                state: WorkerState::Idle,
                failed_steals: 0,
                core: cores[i],
                awake: initially_active[i],
                scan: 0,
            })
            .collect();
        let mut prog = SimProgram {
            id,
            sched,
            spec,
            deques: (0..n).map(|_| VecDeque::new()).collect(),
            workers,
            metrics: ProgramMetrics::default(),
            runs_completed: 0,
            continuous,
            joins: Vec::new(),
            free_joins: Vec::new(),
            run_start_us: 0,
            rng: XorShift64Star::new(seed ^ 0xD1B5_4A32_D192_ED03),
        };
        // Seed the first run: the root task goes to the first active
        // worker's deque (the "main" worker).
        let start = prog.phase_start_task(0);
        let main = initially_active.iter().position(|&a| a).unwrap_or(0);
        prog.deques[main].push_back(start);
        prog
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// `N_b`: total queued (not yet started) tasks across all deques.
    pub fn queued_tasks(&self) -> usize {
        self.deques.iter().map(|d| d.len()).sum()
    }

    /// `N_a`: number of awake workers.
    pub fn active_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.awake).count()
    }

    /// Indices of sleeping workers.
    pub fn sleeping_workers(&self) -> Vec<usize> {
        (0..self.workers.len()).filter(|&i| !self.workers[i].awake).collect()
    }

    /// True when a fixed-run-count program has nothing left to do.
    pub fn idle_quiescent(&self) -> bool {
        self.queued_tasks() == 0
            && self.workers.iter().all(|w| matches!(w.state, WorkerState::Idle))
    }

    fn alloc_join(&mut self, remaining: u32, cont: Task) -> JoinId {
        debug_assert!(remaining > 0);
        if let Some(id) = self.free_joins.pop() {
            self.joins[id] = Join { remaining, cont: Some(cont) };
            id
        } else {
            self.joins.push(Join { remaining, cont: Some(cont) });
            self.joins.len() - 1
        }
    }

    /// Notifies join `j` from worker `w`; if it completes, its
    /// continuation is pushed onto `w`'s deque (the last subtree to finish
    /// continues, as in Cilk).
    fn notify_join(&mut self, j: JoinId, w: usize) {
        let join = &mut self.joins[j];
        debug_assert!(join.remaining > 0, "join {j} over-notified");
        join.remaining -= 1;
        if join.remaining == 0 {
            let cont = join.cont.take().expect("join continuation consumed twice");
            self.free_joins.push(j);
            self.deques[w].push_back(cont);
        }
    }

    fn phase_start_task(&self, phase: usize) -> Task {
        Task { body: TaskBody::PhaseStart { phase }, work_us: 0.0, mem: 0.0, notify: None }
    }

    /// Builds the root task of `phase`, notifying `notify` when the phase
    /// completes.
    fn phase_root(&mut self, phase: usize, notify: Option<JoinId>) -> Task {
        let spawn_cost = self.sched.spawn_cost_us;
        match self.spec.phases[phase] {
            PhaseSpec::Recursive {
                depth, branch, leaf_work_us, node_work_us, mem, jitter, ..
            } => {
                if depth == 0 {
                    let j = self.rng.jitter(jitter);
                    Task { body: TaskBody::Leaf, work_us: leaf_work_us * j, mem, notify }
                } else {
                    Task {
                        body: TaskBody::RecNode { depth, phase },
                        work_us: node_work_us + branch as f64 * spawn_cost,
                        mem: mem * 0.25, // spawn-side work is mostly control
                        notify,
                    }
                }
            }
            PhaseSpec::Waves { mem, .. } => Task {
                body: TaskBody::WaveMaster { iter: 0, phase },
                work_us: 2.0 * spawn_cost,
                mem: mem * 0.25,
                notify,
            },
        }
    }

    /// Handles completion of `task` on worker `w` at simulated time `now`:
    /// spawns children, fires joins, records run boundaries.
    fn complete_task(&mut self, task: Task, w: usize, now: SimTime) {
        self.metrics.tasks_executed += 1;
        match task.body {
            TaskBody::Leaf | TaskBody::Merge { .. } => {
                if let Some(j) = task.notify {
                    self.notify_join(j, w);
                }
            }
            TaskBody::RecNode { depth, phase } => {
                let PhaseSpec::Recursive {
                    branch,
                    leaf_work_us,
                    node_work_us,
                    merge_work_us,
                    merge_grows,
                    mem,
                    jitter,
                    ..
                } = self.spec.phases[phase]
                else {
                    unreachable!("RecNode in non-recursive phase")
                };
                let merge_work = if merge_grows {
                    merge_work_us * (branch as f64).powi(depth as i32)
                } else {
                    merge_work_us
                };
                let merge = Task {
                    body: TaskBody::Merge { depth, phase },
                    work_us: merge_work * self.rng.jitter(jitter),
                    mem,
                    notify: task.notify,
                };
                let join = self.alloc_join(branch, merge);
                let child_depth = depth - 1;
                let spawn_cost = self.sched.spawn_cost_us;
                for _ in 0..branch {
                    let child = if child_depth == 0 {
                        Task {
                            body: TaskBody::Leaf,
                            work_us: leaf_work_us * self.rng.jitter(jitter),
                            mem,
                            notify: Some(join),
                        }
                    } else {
                        Task {
                            body: TaskBody::RecNode { depth: child_depth, phase },
                            work_us: node_work_us + branch as f64 * spawn_cost,
                            mem: mem * 0.25,
                            notify: Some(join),
                        }
                    };
                    self.deques[w].push_back(child);
                }
            }
            TaskBody::WaveMaster { iter, phase } => {
                let spec = &self.spec.phases[phase];
                let width = spec.wave_width(iter);
                let PhaseSpec::Waves { serial_us, mem, jitter, .. } = *spec else {
                    unreachable!("WaveMaster in non-wave phase")
                };
                let gap = Task {
                    body: TaskBody::SerialGap { next_iter: iter + 1, phase },
                    work_us: serial_us * self.rng.jitter(jitter),
                    mem,
                    notify: task.notify,
                };
                let join = self.alloc_join(width, gap);
                self.push_wave_subtree(w, width, iter, phase, join);
            }
            TaskBody::WaveSplit { count, iter, phase } => {
                let join = task.notify.expect("wave split without a join");
                self.push_wave_subtree(w, count, iter, phase, join);
            }
            TaskBody::SerialGap { next_iter, phase } => {
                let PhaseSpec::Waves { iters, mem, .. } = self.spec.phases[phase] else {
                    unreachable!("SerialGap in non-wave phase")
                };
                if next_iter < iters {
                    self.deques[w].push_back(Task {
                        body: TaskBody::WaveMaster { iter: next_iter, phase },
                        work_us: 2.0 * self.sched.spawn_cost_us,
                        mem: mem * 0.25,
                        notify: task.notify,
                    });
                } else if let Some(j) = task.notify {
                    self.notify_join(j, w);
                }
            }
            TaskBody::PhaseStart { phase } => {
                if phase == self.spec.phases.len() {
                    // Run boundary.
                    self.metrics.run_times_us.push(now - self.run_start_us);
                    self.runs_completed += 1;
                    self.run_start_us = now;
                    if self.continuous {
                        let next = self.phase_start_task(0);
                        self.deques[w].push_back(next);
                    }
                } else {
                    let cont = self.phase_start_task(phase + 1);
                    let join = self.alloc_join(1, cont);
                    let root = self.phase_root(phase, Some(join));
                    self.deques[w].push_back(root);
                }
            }
        }
    }

    /// Pushes the subtasks covering `count` wave leaves onto `w`'s deque:
    /// the leaves themselves for `count ≤ 2`, otherwise two half-range
    /// split nodes (binary fan-out, so thieves spread the wave in
    /// O(log width) steals).
    fn push_wave_subtree(&mut self, w: usize, count: u32, iter: u32, phase: usize, join: JoinId) {
        let PhaseSpec::Waves { task_work_us, mem, jitter, .. } = self.spec.phases[phase] else {
            unreachable!("wave subtree in non-wave phase")
        };
        if count == 0 {
            // Degenerate width; complete the join by spawning nothing —
            // the join was allocated with `remaining = width ≥ 1`, so a
            // zero count can only come from a split, which never produces
            // zero halves. Defensive: unreachable in practice.
            unreachable!("zero-leaf wave subtree");
        } else if count <= 2 {
            for _ in 0..count {
                self.deques[w].push_back(Task {
                    body: TaskBody::Leaf,
                    work_us: task_work_us * self.rng.jitter(jitter),
                    mem,
                    notify: Some(join),
                });
            }
        } else {
            let left = count / 2;
            let right = count - left;
            let spawn = self.sched.spawn_cost_us;
            for half in [left, right] {
                self.deques[w].push_back(Task {
                    body: TaskBody::WaveSplit { count: half, iter, phase },
                    work_us: 2.0 * spawn,
                    mem: 0.0,
                    notify: Some(join),
                });
            }
        }
    }

    /// Advances worker `w` by up to `budget_us` microseconds of core time.
    /// `slowdown` ≥ 1 scales the wall cost of the current task's work
    /// (cache model). Implements Algorithm 1: pop own deque, else steal
    /// from a random victim; count consecutive failures; sleep past
    /// `T_SLEEP` (DWS) or yield (ABP/EP).
    pub fn step_worker(
        &mut self,
        w: usize,
        budget_us: f64,
        slowdown: f64,
        now: SimTime,
    ) -> StepOutcome {
        self.step_worker_evictable(w, budget_us, slowdown, now, false)
    }

    /// As [`SimProgram::step_worker`], with an eviction request: when
    /// `evict` is set (the core-allocation table no longer grants this
    /// program the worker's core), the worker goes to sleep at the next
    /// task boundary — its queued tasks remain stealable by siblings —
    /// enforcing the paper's one-active-worker-per-core property (§4.2)
    /// at task granularity.
    pub fn step_worker_evictable(
        &mut self,
        w: usize,
        budget_us: f64,
        slowdown: f64,
        now: SimTime,
        evict: bool,
    ) -> StepOutcome {
        debug_assert!(self.workers[w].awake, "stepping a sleeping worker");
        debug_assert!(slowdown >= 1.0);
        let mut left = budget_us;
        let policy = self.sched.policy;

        while left > WORK_EPSILON {
            if evict && matches!(self.workers[w].state, WorkerState::Idle) {
                self.workers[w].failed_steals = 0;
                self.metrics.sleeps += 1;
                return StepOutcome::Slept;
            }
            // Take the state out to appease the borrow checker; it is
            // always written back before leaving the loop body.
            let state = std::mem::replace(&mut self.workers[w].state, WorkerState::Idle);
            match state {
                WorkerState::Running { task, remaining_us } => {
                    let wall_needed = remaining_us * slowdown;
                    if wall_needed <= left {
                        left -= wall_needed;
                        self.metrics.busy_us += wall_needed;
                        self.metrics.nominal_work_done_us += remaining_us;
                        self.complete_task(task, w, now);
                        // state stays Idle.
                    } else {
                        let nominal_progress = left / slowdown;
                        self.metrics.busy_us += left;
                        self.metrics.nominal_work_done_us += nominal_progress;
                        self.workers[w].state = WorkerState::Running {
                            task,
                            remaining_us: remaining_us - nominal_progress,
                        };
                        return StepOutcome::Worked;
                    }
                }
                WorkerState::Idle => {
                    // Pop own pool first (Algorithm 1 lines 4-6).
                    left -= self.sched.pop_cost_us;
                    self.metrics.steal_overhead_us += self.sched.pop_cost_us;
                    if let Some(task) = self.deques[w].pop_back() {
                        self.workers[w].failed_steals = 0;
                        let remaining_us = task.work_us;
                        self.workers[w].state = WorkerState::Running { task, remaining_us };
                        continue;
                    }
                    // Steal from a victim (lines 8-13): random start, then
                    // a cyclic sweep across consecutive failures.
                    let n = self.workers.len();
                    let victim = if n > 1 {
                        let v = if self.workers[w].failed_steals == 0 {
                            let mut v = self.rng.next_below(n - 1);
                            if v >= w {
                                v += 1;
                            }
                            v
                        } else {
                            let mut v = (self.workers[w].scan + 1) % n;
                            if v == w {
                                v = (v + 1) % n;
                            }
                            v
                        };
                        self.workers[w].scan = v;
                        v
                    } else {
                        w
                    };
                    if victim != w {
                        if let Some(task) = self.deques[victim].pop_front() {
                            left -= self.sched.steal_cost_us;
                            self.metrics.steal_overhead_us += self.sched.steal_cost_us;
                            self.metrics.steals_ok += 1;
                            self.workers[w].failed_steals = 0;
                            // Steal-half mirror of dws-rt's batched path:
                            // with the oldest task in hand, move the rest
                            // of the quota (ceil-half of what the victim
                            // held, capped by `steal_batch_limit` and the
                            // deque hard cap) into this worker's own
                            // deque. Each extra transfer costs one deque
                            // op; victim selection and the probe are paid
                            // once for the whole batch.
                            let observed = self.deques[victim].len() + 1;
                            let quota = batch_quota(observed, self.sched.steal_batch_limit);
                            let mut moved = 1u64;
                            for _ in 1..quota {
                                match self.deques[victim].pop_front() {
                                    Some(t) => {
                                        self.deques[w].push_back(t);
                                        left -= self.sched.pop_cost_us;
                                        self.metrics.steal_overhead_us += self.sched.pop_cost_us;
                                        moved += 1;
                                    }
                                    None => break,
                                }
                            }
                            self.metrics.tasks_stolen += moved;
                            let remaining_us = task.work_us;
                            self.workers[w].state = WorkerState::Running { task, remaining_us };
                            continue;
                        }
                    }
                    left -= self.sched.steal_fail_cost_us;
                    self.metrics.steal_overhead_us += self.sched.steal_fail_cost_us;
                    self.metrics.steals_failed += 1;
                    self.workers[w].failed_steals += 1;

                    if policy.sleeps() && self.workers[w].failed_steals > self.sched.t_sleep {
                        // Lines 14-16: go to sleep; caller releases the core.
                        self.workers[w].failed_steals = 0;
                        self.metrics.sleeps += 1;
                        return StepOutcome::Slept;
                    }
                    if policy.yields_on_failed_steal() {
                        self.metrics.yields += 1;
                        return StepOutcome::Yielded;
                    }
                    // Policy::Ws (and DWS below threshold): keep spinning.
                }
            }
        }
        StepOutcome::Worked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::workload::PhaseSpec;

    fn sched(policy: Policy) -> SchedConfig {
        SchedConfig::for_policy(policy, 4)
    }

    fn tiny_recursive() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny-rec".into(),
            phases: vec![PhaseSpec::Recursive {
                depth: 3,
                branch: 2,
                leaf_work_us: 10.0,
                node_work_us: 1.0,
                merge_work_us: 2.0,
                merge_grows: false,
                mem: 0.0,
                jitter: 0.0,
            }],
        }
    }

    fn tiny_waves() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny-waves".into(),
            phases: vec![PhaseSpec::Waves {
                iters: 4,
                width: 3,
                width_end: 0,
                task_work_us: 5.0,
                serial_us: 2.0,
                mem: 0.0,
                jitter: 0.0,
            }],
        }
    }

    fn solo_program(spec: WorkloadSpec, n: usize, policy: Policy) -> SimProgram {
        let cores: Vec<usize> = (0..n).collect();
        let active = vec![true; n];
        SimProgram::new(0, spec, sched(policy), &cores, &active, 1, false)
    }

    /// Drives a single-worker program to completion of one run.
    fn run_single_worker(mut prog: SimProgram) -> SimProgram {
        let mut now = 0;
        for _ in 0..1_000_000 {
            if prog.runs_completed >= 1 {
                break;
            }
            prog.step_worker(0, 50.0, 1.0, now);
            now += 50;
        }
        prog
    }

    #[test]
    fn single_worker_completes_recursive_run() {
        let prog = run_single_worker(solo_program(tiny_recursive(), 1, Policy::Ws));
        assert_eq!(prog.runs_completed, 1);
        // depth-3 binary tree: 8 leaves, 7 internal, 7 merges,
        // plus 2 PhaseStart sentinels.
        assert_eq!(prog.metrics.tasks_executed, 8 + 7 + 7 + 2);
        assert!(prog.idle_quiescent());
    }

    /// Split-tree interior nodes spawned for a wave of `c` leaves.
    fn splits(c: u64) -> u64 {
        if c <= 2 {
            0
        } else {
            2 + splits(c / 2) + splits(c - c / 2)
        }
    }

    #[test]
    fn single_worker_completes_wave_run() {
        let prog = run_single_worker(solo_program(tiny_waves(), 1, Policy::Ws));
        assert_eq!(prog.runs_completed, 1);
        // Per wave: 1 master + split tree + 3 leaves + 1 serial gap.
        let per_wave = 1 + splits(3) + 3 + 1;
        assert_eq!(prog.metrics.tasks_executed, 4 * per_wave + 2);
    }

    #[test]
    fn nominal_work_matches_spec_total() {
        let spec = tiny_recursive();
        let expected = spec.total_work_us();
        let prog = run_single_worker(solo_program(spec, 1, Policy::Ws));
        // The interpreter adds spawn overhead to internal nodes; nominal
        // work must cover at least the spec's accounting and stay close.
        assert!(
            prog.metrics.nominal_work_done_us >= expected - 1e-6,
            "executed {} < spec {}",
            prog.metrics.nominal_work_done_us,
            expected
        );
        assert!(prog.metrics.nominal_work_done_us < expected * 1.2);
    }

    #[test]
    fn two_workers_share_via_stealing() {
        let mut prog = solo_program(tiny_recursive(), 2, Policy::Ws);
        let mut now = 0;
        while prog.runs_completed < 1 && now < 1_000_000 {
            prog.step_worker(0, 10.0, 1.0, now);
            prog.step_worker(1, 10.0, 1.0, now);
            now += 10;
        }
        assert_eq!(prog.runs_completed, 1);
        assert!(prog.metrics.steals_ok > 0, "worker 1 must have stolen work");
        assert!(
            prog.metrics.tasks_stolen >= prog.metrics.steals_ok,
            "every successful steal moves at least one task"
        );
    }

    /// A wide wave on one worker, then a sibling steals: the batch takes
    /// ceil-half of the victim's queue (capped), never more, and
    /// completion still executes every task exactly once.
    #[test]
    fn batched_steal_moves_half_and_conserves_tasks() {
        let mut cfg = sched(Policy::Ws);
        cfg.steal_batch_limit = 4;
        let cores: Vec<usize> = (0..2).collect();
        let active = vec![true; 2];
        let mut prog = SimProgram::new(0, tiny_recursive(), cfg, &cores, &active, 1, false);
        let mut now = 0;
        while prog.runs_completed < 1 && now < 1_000_000 {
            prog.step_worker(0, 10.0, 1.0, now);
            prog.step_worker(1, 10.0, 1.0, now);
            now += 10;
        }
        assert_eq!(prog.runs_completed, 1);
        let solo = run_single_worker(solo_program(tiny_recursive(), 1, Policy::Ws));
        assert_eq!(
            prog.metrics.tasks_executed, solo.metrics.tasks_executed,
            "batching must not lose or duplicate tasks"
        );
        // Mean batch size is bounded by the limit.
        assert!(prog.metrics.tasks_stolen <= prog.metrics.steals_ok * 4);
    }

    /// `steal_batch_limit == 1` restores single-task stealing exactly.
    #[test]
    fn batching_disabled_steals_one_task_per_op() {
        let mut cfg = sched(Policy::Ws);
        cfg.steal_batch_limit = 1;
        let cores: Vec<usize> = (0..2).collect();
        let active = vec![true; 2];
        let mut prog = SimProgram::new(0, tiny_recursive(), cfg, &cores, &active, 1, false);
        let mut now = 0;
        while prog.runs_completed < 1 && now < 1_000_000 {
            prog.step_worker(0, 10.0, 1.0, now);
            prog.step_worker(1, 10.0, 1.0, now);
            now += 10;
        }
        assert_eq!(prog.runs_completed, 1);
        assert_eq!(
            prog.metrics.tasks_stolen, prog.metrics.steals_ok,
            "with batching off, one op moves exactly one task"
        );
    }

    #[test]
    fn continuous_mode_restarts_runs() {
        let cores = [0];
        let active = [true];
        let mut prog =
            SimProgram::new(0, tiny_waves(), sched(Policy::Ws), &cores, &active, 1, true);
        let mut now = 0;
        while prog.runs_completed < 3 && now < 10_000_000 {
            prog.step_worker(0, 50.0, 1.0, now);
            now += 50;
        }
        assert!(prog.runs_completed >= 3);
        assert_eq!(prog.metrics.run_times_us.len(), prog.runs_completed);
    }

    #[test]
    fn abp_worker_yields_after_failed_steal() {
        let mut prog = solo_program(tiny_recursive(), 2, Policy::Abp);
        // Drain worker 0's root so both deques are empty, then step the
        // *other* worker: it must fail its steal and yield.
        // (Worker 1 starts with an empty deque; worker 0 holds the root.)
        let out = prog.step_worker(1, 1_000.0, 1.0, 0);
        // With the root still queued on worker 0, the steal may succeed;
        // force the empty case instead:
        let _ = out;
        let mut prog = solo_program(tiny_recursive(), 2, Policy::Abp);
        prog.deques[0].clear();
        let out = prog.step_worker(1, 1_000.0, 1.0, 0);
        assert_eq!(out, StepOutcome::Yielded);
        assert_eq!(prog.metrics.yields, 1);
    }

    #[test]
    fn dws_worker_sleeps_after_t_sleep_failures() {
        let mut prog = solo_program(tiny_recursive(), 2, Policy::Dws);
        prog.deques[0].clear();
        // T_SLEEP = 4 (cores=4 in sched helper); each failed steal costs
        // steal_fail_cost_us, so a big budget lets it hit the threshold in
        // one step call.
        let out = prog.step_worker(1, 10_000.0, 1.0, 0);
        assert_eq!(out, StepOutcome::Slept);
        assert_eq!(prog.metrics.sleeps, 1);
        assert_eq!(
            prog.metrics.steals_failed,
            prog.sched.t_sleep as u64 + 1,
            "sleeps on the first failure beyond T_SLEEP"
        );
        // failed_steals reset for the next wake.
        assert_eq!(prog.workers[1].failed_steals, 0);
    }

    #[test]
    fn ws_worker_spins_without_sleeping_or_yielding() {
        let mut prog = solo_program(tiny_recursive(), 2, Policy::Ws);
        prog.deques[0].clear();
        let out = prog.step_worker(1, 500.0, 1.0, 0);
        assert_eq!(out, StepOutcome::Worked);
        assert!(prog.metrics.steals_failed > 10);
        assert_eq!(prog.metrics.sleeps, 0);
        assert_eq!(prog.metrics.yields, 0);
    }

    #[test]
    fn slowdown_scales_wall_time() {
        // One leaf of 100 µs at slowdown 2 needs 200 µs of core time.
        let spec = WorkloadSpec {
            name: "one-leaf".into(),
            phases: vec![PhaseSpec::Recursive {
                depth: 0,
                branch: 2,
                leaf_work_us: 100.0,
                node_work_us: 0.0,
                merge_work_us: 0.0,
                merge_grows: false,
                mem: 1.0,
                jitter: 0.0,
            }],
        };
        let mut prog = solo_program(spec, 1, Policy::Ws);
        let mut now = 0;
        let mut core_time = 0.0;
        while prog.runs_completed < 1 {
            prog.step_worker(0, 10.0, 2.0, now);
            core_time += 10.0;
            now += 10;
            assert!(core_time < 1_000.0, "leaf should finish within ~200us of core time");
        }
        assert!(core_time >= 200.0, "100us of work at 2x slowdown takes ≥200us, got {core_time}");
    }

    #[test]
    fn queued_tasks_counts_all_deques() {
        let mut prog = solo_program(tiny_waves(), 2, Policy::Ws);
        // Execute the PhaseStart and the first WaveMaster to fan out, but
        // stop before the worker drains its own spawn batch.
        prog.step_worker(0, 2.5, 1.0, 0);
        assert!(prog.queued_tasks() > 0);
        let by_hand: usize = prog.deques.iter().map(|d| d.len()).sum();
        assert_eq!(prog.queued_tasks(), by_hand);
    }

    #[test]
    fn initially_sleeping_workers_are_reported() {
        let cores = [0, 1, 2, 3];
        let active = [true, true, false, false];
        let prog = SimProgram::new(0, tiny_waves(), sched(Policy::Dws), &cores, &active, 1, false);
        assert_eq!(prog.active_workers(), 2);
        assert_eq!(prog.sleeping_workers(), vec![2, 3]);
    }
}
