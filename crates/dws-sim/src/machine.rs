//! The top-level simulator: wires the OS model, cache model, allocation
//! table, coordinators and programs together and advances simulated time.
//!
//! One [`Simulator`] models the paper's experimental setup: a k-core
//! machine executing m co-running work-stealing programs, each restarting
//! its workload continuously (the overlapped-repetition methodology of
//! Fig. 3), until every program has completed a requested number of runs.

use crate::alloc_table::{AllocTable, Slot};
use crate::cache::{CacheModel, PressureSnapshot};
use crate::config::{SchedConfig, SimConfig, SimTime};
use crate::coordinator::{decide_dws, decide_nc, CoordObservation};
use crate::metrics::ProgramMetrics;
use crate::os::{Os, SliceResult, ThreadId};
use crate::policy::Policy;
use crate::program::{SimProgram, StepOutcome, WorkerState};
use crate::rng::XorShift64Star;
use crate::telemetry::{
    CoordSample, CoreSample, CounterSample, LatencySample, SimTelemetry, TelemetryFrame,
    WorkerSample,
};
use crate::trace::{SchedEvent, Trace};
use crate::workload::WorkloadSpec;

/// CPU cost charged to a random core each time a coordinator fires
/// (the "negligible overhead" of §3.4 / §4.4, made explicit).
const COORDINATOR_COST_US: f64 = 5.0;

/// Exact virtual-time core-allocation ledger plus demand-satisfaction
/// clocks — the sim mirror of `dws_rt::AllocLedger` (DESIGN §14).
///
/// Every table transition settles the slot's open interval against its
/// previous owner first, so at any instant
/// `Σ_p prog_us[p] + free_us + open-intervals == cores × now` — exact in
/// virtual time, with no clock noise. Always on: settling is O(1) per
/// transition and transitions happen at sleep/wake cadence.
#[derive(Debug)]
pub struct SimLedger {
    /// Per-core time of the last ownership change.
    last_us: Vec<SimTime>,
    /// Per-program settled core-µs.
    prog_us: Vec<u64>,
    /// Settled core-µs spent free.
    free_us: u64,
    /// Pending Eq. 1 demand-rise stamp per program.
    demand_rise: Vec<Option<SimTime>>,
    /// Pending demand-fall stamp per program.
    demand_fall: Vec<Option<SimTime>>,
    /// Demand-satisfaction latency samples per program (ns).
    alloc_ns: Vec<Vec<u64>>,
    /// Demand-release latency samples per program (ns).
    release_ns: Vec<Vec<u64>>,
}

impl SimLedger {
    fn new(cores: usize, programs: usize) -> Self {
        SimLedger {
            last_us: vec![0; cores],
            prog_us: vec![0; programs],
            free_us: 0,
            demand_rise: vec![None; programs],
            demand_fall: vec![None; programs],
            alloc_ns: vec![Vec::new(); programs],
            release_ns: vec![Vec::new(); programs],
        }
    }

    /// Settles `core`'s open interval against its current owner. Must run
    /// *before* any table mutation of that slot (harmless if the mutation
    /// then fails — nothing moved).
    fn settle(&mut self, table: &AllocTable, core: usize, now: SimTime) {
        let dt = now.saturating_sub(self.last_us[core]);
        match table.slot(core) {
            Slot::Used(p) => self.prog_us[p] += dt,
            Slot::Free => self.free_us += dt,
        }
        self.last_us[core] = now;
    }

    /// Settled per-program core-µs and free core-µs with every open
    /// interval virtually closed at `now`; conservation holds exactly:
    /// the grand total equals `cores × now`.
    pub fn settled(&self, table: &AllocTable, now: SimTime) -> (Vec<u64>, u64) {
        let mut prog_us = self.prog_us.clone();
        let mut free_us = self.free_us;
        for core in 0..self.last_us.len() {
            let dt = now.saturating_sub(self.last_us[core]);
            match table.slot(core) {
                Slot::Used(p) => prog_us[p] += dt,
                Slot::Free => free_us += dt,
            }
        }
        (prog_us, free_us)
    }

    fn note_rise(&mut self, prog: usize, now: SimTime) {
        self.demand_rise[prog].get_or_insert(now);
    }

    fn note_met(&mut self, prog: usize, satisfied_at: SimTime) {
        if let Some(rise) = self.demand_rise[prog].take() {
            self.alloc_ns[prog].push(satisfied_at.saturating_sub(rise).saturating_mul(1_000));
        }
    }

    fn note_fall(&mut self, prog: usize, now: SimTime) {
        self.demand_rise[prog] = None; // unmet demand evaporated, no sample
        self.demand_fall[prog].get_or_insert(now);
    }

    fn note_released(&mut self, prog: usize, now: SimTime) {
        if let Some(fall) = self.demand_fall[prog].take() {
            self.release_ns[prog].push(now.saturating_sub(fall).saturating_mul(1_000));
        }
    }

    /// All demand-satisfaction latency samples for `prog` so far (ns, in
    /// arrival order).
    pub fn alloc_latency_ns(&self, prog: usize) -> &[u64] {
        &self.alloc_ns[prog]
    }

    /// All demand-release latency samples for `prog` so far (ns).
    pub fn release_latency_ns(&self, prog: usize) -> &[u64] {
        &self.release_ns[prog]
    }

    #[cfg(debug_assertions)]
    fn check_conservation(&self, table: &AllocTable, now: SimTime) {
        let (prog_us, free_us) = self.settled(table, now);
        let total: u64 = prog_us.iter().sum::<u64>() + free_us;
        assert_eq!(
            total,
            self.last_us.len() as u64 * now,
            "ledger conservation: Σ prog + free must tile cores × elapsed"
        );
    }
}

/// Nearest-rank quantile over an unsorted sample set (`q` in [0, 1]);
/// 0 when empty. Used for the sim's exact-µs latency percentiles (the rt
/// side quantizes to log2 bucket bounds instead).
pub fn quantile_nearest(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One co-running program: its workload and scheduler configuration.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// The benchmark to run.
    pub workload: WorkloadSpec,
    /// Policy and parameters.
    pub sched: SchedConfig,
}

/// Options for a simulation run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Stop once every program completed this many runs...
    pub min_runs: usize,
    /// ...or when simulated time reaches this horizon, whichever first.
    pub max_time_us: SimTime,
    /// Runs to drop from each program's mean (cold start).
    pub warmup_runs: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { min_runs: 4, max_time_us: 60_000_000, warmup_runs: 1 }
    }
}

/// Results for one program after a simulation.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Benchmark name.
    pub name: String,
    /// Policy it ran under.
    pub policy: Policy,
    /// Mean run time (Eq. 2) in µs, warm-up excluded; `None` if the
    /// program never completed enough runs inside the horizon.
    pub mean_run_time_us: Option<f64>,
    /// Full metrics.
    pub metrics: ProgramMetrics,
}

/// Results of a simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-program results, in program order.
    pub programs: Vec<ProgramReport>,
    /// Simulated time at which the run stopped, µs.
    pub elapsed_us: SimTime,
    /// True if the horizon was hit before all programs finished.
    pub hit_horizon: bool,
}

/// The simulator itself.
pub struct Simulator {
    cfg: SimConfig,
    programs: Vec<SimProgram>,
    os: Os,
    cache: CacheModel,
    table: AllocTable,
    table_live: bool,
    now: SimTime,
    rng: XorShift64Star,
    next_coord: Vec<SimTime>,
    pending_wakes: Vec<(SimTime, ThreadId)>,
    trace: Trace,
    traced_runs: Vec<usize>,
    telemetry: Option<SimTelemetry>,
    /// Scheduled program deaths: (due time, program) — the sim analogue
    /// of SIGKILL mid-run.
    pending_kills: Vec<(SimTime, usize)>,
    /// Programs killed so far. A dead program's workers vanish without
    /// releasing their cores; survivors reap them via the lease protocol.
    dead: Vec<bool>,
    /// Dead programs whose lease a survivor has already fenced.
    fenced: Vec<bool>,
    /// Last simulated time each program's coordinator ran (its lease
    /// heartbeat, mirroring the rt coordinator's per-tick heartbeat).
    lease_hb: Vec<SimTime>,
    /// Heartbeat staleness before a dead program's lease expires.
    lease_timeout_us: SimTime,
    /// Per-program core-allocation ledger and demand clocks (DESIGN §14).
    ledger: SimLedger,
}

impl Simulator {
    /// Builds a simulator for `specs` co-running programs on the machine
    /// described by `cfg`. Worker placement and initial sleep states
    /// follow each program's policy (§3.1).
    pub fn new(cfg: SimConfig, specs: Vec<ProgramSpec>) -> Self {
        let k = cfg.machine.cores;
        let m = specs.len();
        assert!(m > 0, "need at least one program");
        assert!(k >= m, "need at least one core per program");

        let table = match cfg.placement {
            crate::config::Placement::Adjacent => AllocTable::equipartition(k, m),
            crate::config::Placement::Interleaved => AllocTable::equipartition_interleaved(k, m),
            crate::config::Placement::DemandAware => {
                // §4.4: adjacent slices, ordered so the most memory-bound
                // program lands on the slowest slice. Slice p of the plain
                // equipartition covers a contiguous core range whose mean
                // speed we compare.
                let plain = AllocTable::equipartition(k, m);
                let slice_speed = |p: usize| -> f64 {
                    let cores = plain.home_cores(p);
                    cores.iter().map(|&c| cfg.machine.speed_of(c)).sum::<f64>() / cores.len() as f64
                };
                // Programs sorted most-memory-bound first; slices sorted
                // slowest first; pair them up.
                let mut prog_order: Vec<usize> = (0..m).collect();
                prog_order.sort_by(|&a, &b| {
                    specs[b].workload.mean_mem().partial_cmp(&specs[a].workload.mean_mem()).unwrap()
                });
                let mut slice_order: Vec<usize> = (0..m).collect();
                slice_order.sort_by(|&a, &b| slice_speed(a).partial_cmp(&slice_speed(b)).unwrap());
                let mut homes = vec![0usize; k];
                for (rank, &slice) in slice_order.iter().enumerate() {
                    let prog = prog_order[rank];
                    for c in plain.home_cores(slice) {
                        homes[c] = prog;
                    }
                }
                AllocTable::with_homes(homes, m)
            }
        };
        let table_live = specs.iter().any(|s| s.sched.policy == Policy::Dws);
        let mut rng = XorShift64Star::new(cfg.seed ^ 0xA076_1D64_78BD_642F);
        let os = Os::new(cfg.machine.clone());
        let cache = CacheModel::new(cfg.cache.clone(), &cfg.machine);

        let mut programs = Vec::with_capacity(m);
        for (p, spec) in specs.into_iter().enumerate() {
            let home: Vec<usize> = table.home_cores(p);
            let share = home.len();
            let (cores, active): (Vec<usize>, Vec<bool>) = match spec.sched.policy {
                Policy::Ws => ((0..k).collect(), vec![true; k]),
                Policy::Abp | Policy::Bws => {
                    // OS spreads all m·k workers; stagger so each program's
                    // main worker lands on a different core.
                    let cores = (0..k).map(|i| (i + p * share) % k).collect();
                    (cores, vec![true; k])
                }
                Policy::Ep => {
                    // k workers confined to the program's static slice.
                    let cores = (0..k).map(|i| home[i % share]).collect();
                    (cores, vec![true; k])
                }
                Policy::Dws | Policy::DwsNc => {
                    // Worker i affined to core i; only home workers awake.
                    let active = (0..k).map(|c| table.home(c) == p).collect();
                    ((0..k).collect(), active)
                }
            };
            programs.push(SimProgram::new(
                p,
                spec.workload,
                spec.sched,
                &cores,
                &active,
                rng.next_u64(),
                true, // continuous restarts: overlapped-repetition method
            ));
        }

        let mut sim = Simulator {
            next_coord: programs.iter().map(|pr| pr.sched.coord_period_us.max(1)).collect(),
            cfg,
            programs,
            os,
            cache,
            table,
            table_live,
            now: 0,
            rng,
            pending_wakes: Vec::new(),
            trace: Trace::default(),
            traced_runs: vec![0; m],
            telemetry: None,
            pending_kills: Vec::new(),
            dead: vec![false; m],
            fenced: vec![false; m],
            lease_hb: vec![0; m],
            // 3× the paper's 10 ms coordinator period, matching
            // `RuntimeConfig::effective_lease_timeout`'s default.
            lease_timeout_us: 30_000,
            ledger: SimLedger::new(k, m),
        };
        sim.seed_run_queues();
        sim
    }

    fn seed_run_queues(&mut self) {
        // Enqueue awake workers on their cores, interleaving programs so
        // no program systematically goes first on shared cores.
        let k = self.cfg.machine.cores;
        for slot in 0..k {
            for (p, prog) in self.programs.iter().enumerate() {
                for (w, worker) in prog.workers.iter().enumerate() {
                    if worker.awake && worker.core == slot {
                        let _ = (p, w);
                    }
                }
            }
        }
        // Two passes to satisfy the borrow checker: collect, then enqueue.
        let mut to_enqueue: Vec<(usize, ThreadId)> = Vec::new();
        for (p, prog) in self.programs.iter().enumerate() {
            for (w, worker) in prog.workers.iter().enumerate() {
                if worker.awake {
                    to_enqueue.push((worker.core, (p, w)));
                }
            }
        }
        // Sort by core, then rotate program order per core for fairness.
        to_enqueue.sort_by_key(|&(core, (p, _))| (core, p));
        for (core, thread) in to_enqueue {
            self.os.enqueue(core, thread);
        }
    }

    /// Current simulated time, µs.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the allocation table (meaningful when a DWS program
    /// participates).
    pub fn alloc_table(&self) -> &AllocTable {
        &self.table
    }

    /// Read access to program state (tests / diagnostics).
    pub fn program(&self, p: usize) -> &SimProgram {
        &self.programs[p]
    }

    /// The core-allocation ledger: exact per-program core-time integrals
    /// plus demand-satisfaction latency samples (always on).
    pub fn ledger(&self) -> &SimLedger {
        &self.ledger
    }

    /// Per-program settled core-µs and free core-µs as of the current
    /// simulated time; the grand total is exactly `cores × now`.
    pub fn settled_core_us(&self) -> (Vec<u64>, u64) {
        self.ledger.settled(&self.table, self.now)
    }

    /// Turns on scheduling-event recording (at most `capacity` events).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Trace::enabled(capacity);
    }

    /// The recorded scheduling events (empty unless tracing is enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Turns on telemetry-frame sampling: every `period_us` of simulated
    /// time the simulator snapshots one [`TelemetryFrame`] per program
    /// into a ring of at most `capacity` frames (oldest evicted first) —
    /// the sim mirror of `dws_rt`'s sampler thread.
    pub fn enable_telemetry(&mut self, period_us: SimTime, capacity: usize) {
        self.telemetry =
            Some(SimTelemetry::new(self.programs.len(), period_us, capacity, self.now));
    }

    /// The sampled frames for `prog`, oldest first (empty unless
    /// [`Simulator::enable_telemetry`] was called).
    pub fn telemetry_frames(&self, prog: usize) -> Vec<TelemetryFrame> {
        self.telemetry.as_ref().map_or_else(Vec::new, |tel| tel.frames(prog))
    }

    /// The most recent sampled frame for `prog`, if any.
    pub fn latest_frame(&self, prog: usize) -> Option<TelemetryFrame> {
        self.telemetry.as_ref().and_then(|tel| tel.latest(prog))
    }

    /// Events discarded after the trace capacity was reached (0 when
    /// tracing is off). A nonzero value means analyses over
    /// [`Simulator::trace`] see a truncated history — raise the
    /// [`Simulator::enable_tracing`] capacity for this horizon.
    pub fn events_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// Schedules `prog` to be killed (SIGKILL semantics) once simulated
    /// time reaches `t_us`: its workers vanish mid-task without releasing
    /// their cores, its coordinator stops heartbeating, and surviving DWS
    /// coordinators reap the stranded cores once the lease expires.
    pub fn kill_program_at(&mut self, prog: usize, t_us: SimTime) {
        assert!(prog < self.programs.len(), "no such program");
        self.pending_kills.push((t_us, prog));
    }

    /// Overrides the lease-expiry threshold (default 30 000 µs = 3× the
    /// paper's 10 ms coordinator period).
    pub fn set_lease_timeout_us(&mut self, timeout_us: SimTime) {
        assert!(timeout_us > 0, "lease timeout must be nonzero");
        self.lease_timeout_us = timeout_us;
    }

    /// Has `prog` been killed?
    pub fn program_dead(&self, prog: usize) -> bool {
        self.dead[prog]
    }

    /// Pending wake deliveries (diagnostics): (due time, (program, worker)).
    pub fn pending_wakes(&self) -> &[(SimTime, ThreadId)] {
        &self.pending_wakes
    }

    /// Thread currently scheduled on `core`, if any (diagnostics).
    pub fn core_current(&self, core: usize) -> Option<ThreadId> {
        self.os.cores[core].current.map(|c| c.thread)
    }

    /// Length of `core`'s run queue (diagnostics).
    pub fn core_queue_len(&self, core: usize) -> usize {
        self.os.cores[core].run_queue.len()
    }

    /// Advances the simulation by one tick.
    pub fn tick(&mut self) {
        let tick_us = self.cfg.machine.tick_us;
        self.now += tick_us;
        let now = self.now;

        self.deliver_kills(now);
        self.deliver_wakes(now);
        self.run_coordinators(now);

        // Snapshot memory pressure from what is scheduled right now.
        let snapshot = self.pressure_snapshot();

        let k = self.cfg.machine.cores;
        for core in 0..k {
            self.tick_core(core, now, tick_us, &snapshot);
        }

        if self.trace.is_enabled() {
            for p in 0..self.programs.len() {
                while self.traced_runs[p] < self.programs[p].runs_completed {
                    let run = self.traced_runs[p];
                    let duration_us = self.programs[p].metrics.run_times_us[run];
                    self.trace.record(now, SchedEvent::RunComplete { prog: p, run, duration_us });
                    self.traced_runs[p] += 1;
                }
            }
        }

        self.sample_telemetry(now);

        #[cfg(debug_assertions)]
        self.table.check_invariants(self.programs.len());
        #[cfg(debug_assertions)]
        self.ledger.check_conservation(&self.table, now);
    }

    /// Emits one telemetry frame per program when the sampling period has
    /// elapsed (no-op with telemetry off). Runs at the end of the tick so
    /// frames see the tick's completed work.
    fn sample_telemetry(&mut self, now: SimTime) {
        // Take the sampler out of `self` so capturing can read program and
        // table state while the rings are borrowed mutably.
        let Some(mut tel) = self.telemetry.take() else { return };
        if now >= tel.next_sample_us {
            while tel.next_sample_us <= now {
                tel.next_sample_us += tel.period_us;
            }
            self.capture_frames(&mut tel, now);
        }
        self.telemetry = Some(tel);
    }

    fn capture_frames(&self, tel: &mut SimTelemetry, now: SimTime) {
        // One shared trace ⇒ one global drop count, repeated per frame.
        let dropped = self.trace.dropped();
        let cores: Vec<CoreSample> = (0..self.table.cores())
            .map(|c| CoreSample {
                core: c,
                home: self.table.home(c),
                owner: match self.table.slot(c) {
                    Slot::Free => -1,
                    Slot::Used(p) => p as i64,
                },
            })
            .collect();
        let (ledger_us, _free_us) = self.ledger.settled(&self.table, now);
        for (p, prog) in self.programs.iter().enumerate() {
            let workers: Vec<WorkerSample> = prog
                .workers
                .iter()
                .enumerate()
                .map(|(w, wk)| WorkerSample {
                    worker: w,
                    asleep: !wk.awake,
                    queue: prog.deques[w].len(),
                })
                .collect();
            let pt = &mut tel.progs[p];
            let coord = CoordSample { decisions: pt.decisions, ..pt.last_coord };
            // Demand-latency percentiles over this frame's window only,
            // mirroring the rt sampler's rolling histogram diff — but
            // exact-µs nearest-rank here rather than log2 bucket bounds.
            let alloc = &self.ledger.alloc_latency_ns(p)[pt.alloc_seen..];
            let release = &self.ledger.release_latency_ns(p)[pt.release_seen..];
            pt.alloc_seen += alloc.len();
            pt.release_seen += release.len();
            let latency = LatencySample {
                alloc_p50_ns: quantile_nearest(alloc, 0.5),
                alloc_p99_ns: quantile_nearest(alloc, 0.99),
                release_p50_ns: quantile_nearest(release, 0.5),
                release_p99_ns: quantile_nearest(release, 0.99),
                // The µs-resolution event model has no ns task/steal
                // histograms; those stay zero in simulation.
                ..LatencySample::default()
            };
            let m = &prog.metrics;
            let counters = CounterSample {
                steals_ok: m.steals_ok,
                steals_failed: m.steals_failed,
                jobs_executed: m.tasks_executed,
                sleeps: m.sleeps,
                wakes: m.wakes,
                yields: m.yields,
                coordinator_runs: m.coordinator_runs,
                cores_acquired: m.cores_acquired,
                cores_reclaimed: m.cores_reclaimed,
                cores_released: m.cores_released,
                events_dropped: dropped,
                frames_evicted: pt.evicted(),
                cores_reaped: m.cores_reaped,
                leases_expired: m.leases_expired,
                degraded: 0, // the simulated table has no file to lose
                tasks_stolen: m.tasks_stolen,
                steals_contended: 0, // serialized steals never lose a CAS race
                // The sim has no cross-process submission ring; its
                // arrival model drives the harness generator instead.
                requests_admitted: 0,
                requests_dropped: 0,
                requests_fenced: 0,
                requests_abandoned: 0,
                // Zombie/rearm transitions live in the dws-check model in
                // virtual time, not in this machine.
                zombies_fenced: 0,
                leases_rearmed: 0,
                // The sim coordinator ticks in virtual time; no futex
                // doorbells exist to ring.
                doorbell_wakes: 0,
                demand_rings: 0,
                core_us_total: ledger_us[p],
            };
            tel.push(
                p,
                TelemetryFrame {
                    t_us: now,
                    prog: p,
                    seq: 0, // assigned by the ring
                    cores: cores.clone(),
                    workers,
                    coord,
                    counters,
                    latency,
                },
            );
        }
    }

    /// Applies due program kills. SIGKILL semantics: the victim's threads
    /// are torn out of every run queue and core *without* releasing their
    /// table slots — exactly the stranded-cores state the reaper exists
    /// to clean up.
    fn deliver_kills(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.pending_kills.len() {
            if self.pending_kills[i].0 > now {
                i += 1;
                continue;
            }
            let (_, p) = self.pending_kills.swap_remove(i);
            if self.dead[p] {
                continue;
            }
            self.dead[p] = true;
            self.pending_wakes.retain(|&(_, (q, _))| q != p);
            for core in self.os.cores.iter_mut() {
                core.run_queue.retain(|&(q, _)| q != p);
                if core.current.is_some_and(|c| c.thread.0 == p) {
                    core.current = None;
                }
            }
            for worker in &mut self.programs[p].workers {
                worker.awake = false;
            }
        }
    }

    /// A surviving DWS coordinator's reaper pass: fence any dead
    /// co-runner whose heartbeat has gone stale, then return its
    /// owned-but-stranded cores to the free pool. Idempotent — later
    /// passes find nothing left to do.
    fn reap_expired(&mut self, reaper: usize, now: SimTime) {
        for q in 0..self.programs.len() {
            if q == reaper || !self.dead[q] {
                continue;
            }
            if !self.fenced[q] {
                if now.saturating_sub(self.lease_hb[q]) <= self.lease_timeout_us {
                    continue;
                }
                self.fenced[q] = true;
                self.programs[reaper].metrics.leases_expired += 1;
                self.trace.record(now, SchedEvent::LeaseExpired { prog: q });
            }
            for core in 0..self.table.cores() {
                if self.table.slot(core) == Slot::Used(q) {
                    self.ledger.settle(&self.table, core, now);
                    self.table.release(core, q);
                    self.programs[reaper].metrics.cores_reaped += 1;
                    self.trace.record(now, SchedEvent::Reap { prog: q, core });
                }
            }
        }
    }

    fn deliver_wakes(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.pending_wakes.len() {
            if self.pending_wakes[i].0 <= now {
                let (_, (p, w)) = self.pending_wakes.swap_remove(i);
                let worker = &mut self.programs[p].workers[w];
                if !worker.awake {
                    worker.awake = true;
                    worker.failed_steals = 0;
                    self.programs[p].metrics.wakes += 1;
                    self.trace.record(now, SchedEvent::Wake { prog: p, worker: w });
                    let core = self.programs[p].workers[w].core;
                    self.os.enqueue(core, (p, w));
                }
            } else {
                i += 1;
            }
        }
    }

    fn schedule_wake(&mut self, p: usize, w: usize, now: SimTime) {
        if self.programs[p].workers[w].awake {
            return;
        }
        if self.pending_wakes.iter().any(|&(_, t)| t == (p, w)) {
            return;
        }
        let latency = self.programs[p].sched.wake_latency_us;
        self.pending_wakes.push((now + latency, (p, w)));
    }

    fn run_coordinators(&mut self, now: SimTime) {
        let m = self.programs.len();
        // Rotate evaluation order so no program wins free-core races by id.
        let start = (now / 10_000) as usize % m;
        for off in 0..m {
            let p = (start + off) % m;
            if self.dead[p] || !self.programs[p].sched.policy.has_coordinator() {
                continue;
            }
            if now < self.next_coord[p] {
                continue;
            }
            self.next_coord[p] += self.programs[p].sched.coord_period_us;
            self.programs[p].metrics.coordinator_runs += 1;
            // Failure-model duties (mirroring the rt coordinator tick):
            // renew this program's lease heartbeat, then reap expired
            // co-runners' stranded cores before planning wakes.
            self.lease_hb[p] = now;
            if self.programs[p].sched.policy == Policy::Dws {
                self.reap_expired(p, now);
            }
            // The coordinator thread consumes a sliver of CPU somewhere.
            let victim_core = self.rng.next_below(self.cfg.machine.cores);
            self.os.cores[victim_core].pending_overhead_us += COORDINATOR_COST_US;

            let obs = CoordObservation {
                queued_tasks: self.programs[p].queued_tasks(),
                active_workers: self.programs[p].active_workers(),
                sleeping_workers: self.programs[p].sleeping_workers().len(),
            };
            match self.programs[p].sched.policy {
                Policy::Dws => {
                    // Table supply, captured before the decision consumes
                    // it — the decision type keeps `N_f`/`N_r` internal.
                    let telemetry_on = self.telemetry.is_some();
                    let (n_f, n_r) = if telemetry_on {
                        (self.table.n_free(), self.table.n_reclaimable(p))
                    } else {
                        (0, 0)
                    };
                    let decision = decide_dws(p, obs, &self.table, &mut self.rng);
                    self.trace.record(
                        now,
                        SchedEvent::CoordTick {
                            prog: p,
                            n_b: obs.queued_tasks,
                            n_a: obs.active_workers,
                            n_w: decision.n_w,
                        },
                    );
                    let mut woken = 0u64;
                    for &core in &decision.take_free {
                        self.ledger.settle(&self.table, core, now);
                        if self.table.acquire_free(core, p) {
                            self.programs[p].metrics.cores_acquired += 1;
                            self.trace.record(now, SchedEvent::Acquire { prog: p, core });
                            self.schedule_wake(p, core, now);
                            woken += 1;
                        }
                    }
                    for &core in &decision.reclaim {
                        self.ledger.settle(&self.table, core, now);
                        if self.table.reclaim(core, p) {
                            self.programs[p].metrics.cores_reclaimed += 1;
                            self.trace.record(now, SchedEvent::Reclaim { prog: p, core });
                            self.schedule_wake(p, core, now);
                            woken += 1;
                        }
                    }
                    // Demand clocks (mirror of the rt coordinator's): a
                    // rise stamp survives starved ticks; a grant closes it
                    // when the woken worker actually lands (wake latency),
                    // so same-tick satisfaction still costs the wake path.
                    if decision.n_w > 0 {
                        self.ledger.note_rise(p, now);
                        if woken > 0 {
                            let landed = now + self.programs[p].sched.wake_latency_us;
                            self.ledger.note_met(p, landed);
                        }
                    } else if obs.active_workers > 0 {
                        self.ledger.note_fall(p, now);
                    }
                    if let Some(tel) = self.telemetry.as_mut() {
                        let pt = &mut tel.progs[p];
                        pt.decisions += 1;
                        pt.last_coord = CoordSample {
                            n_b: obs.queued_tasks as u64,
                            n_a: obs.active_workers as u64,
                            n_f: n_f as u64,
                            n_r: n_r as u64,
                            n_w: decision.n_w as u64,
                            planned_free: decision.take_free.len() as u64,
                            planned_reclaim: decision.reclaim.len() as u64,
                            woken,
                            decisions: 0, // running count kept separately
                        };
                    }
                }
                Policy::DwsNc => {
                    let n = decide_nc(obs);
                    self.trace.record(
                        now,
                        SchedEvent::CoordTick {
                            prog: p,
                            n_b: obs.queued_tasks,
                            n_a: obs.active_workers,
                            n_w: n,
                        },
                    );
                    let mut woken = 0u64;
                    if n > 0 {
                        let mut sleeping = self.programs[p].sleeping_workers();
                        // Random subset.
                        for i in 0..n.min(sleeping.len()) {
                            let j = i + self.rng.next_below(sleeping.len() - i);
                            sleeping.swap(i, j);
                        }
                        sleeping.truncate(n);
                        woken = sleeping.len() as u64;
                        for w in sleeping {
                            self.schedule_wake(p, w, now);
                        }
                    }
                    if let Some(tel) = self.telemetry.as_mut() {
                        let pt = &mut tel.progs[p];
                        pt.decisions += 1;
                        pt.last_coord = CoordSample {
                            n_b: obs.queued_tasks as u64,
                            n_a: obs.active_workers as u64,
                            n_f: 0, // no table in the ablation
                            n_r: 0,
                            n_w: n as u64,
                            planned_free: 0,
                            planned_reclaim: 0,
                            woken,
                            decisions: 0,
                        };
                    }
                }
                _ => unreachable!("coordinator on non-coordinated policy"),
            }
        }
    }

    fn pressure_snapshot(&self) -> PressureSnapshot {
        let mut snap = PressureSnapshot::with_spread_bw(
            self.programs.len(),
            self.cfg.machine.sockets,
            self.cfg.cache.spread_bw_factor,
        );
        for (core_id, core) in self.os.cores.iter().enumerate() {
            if let Some(cur) = core.current {
                let (p, w) = cur.thread;
                if let WorkerState::Running { ref task, .. } = self.programs[p].workers[w].state {
                    let socket = self.cfg.machine.socket_of(core_id);
                    snap.add_running(p, socket, task.mem);
                }
            }
        }
        snap.finalize();
        snap
    }

    fn tick_core(
        &mut self,
        core: usize,
        now: SimTime,
        tick_us: SimTime,
        snapshot: &PressureSnapshot,
    ) {
        let overhead = std::mem::take(&mut self.os.cores[core].pending_overhead_us);
        let mut budget = tick_us as f64 - overhead;

        if self.os.cores[core].current.is_none() {
            match self.os.dispatch(core, now, self.cache.cold_period_us()) {
                Some((_, switch_cost)) => budget -= switch_cost,
                None => return, // idle core
            }
        }
        if budget <= 0.0 {
            return;
        }

        let (p, w) = self.os.cores[core].current.expect("dispatched above").thread;

        // A killed program's threads never run again (its queues were
        // purged at kill time; this guards the same-tick window).
        if self.dead[p] {
            self.os.cores[core].current = None;
            return;
        }

        // Core eviction (§4.2: DWS ensures a core executes a single active
        // worker): a worker whose core the table no longer grants its
        // program must sleep at the next task boundary; its queued tasks
        // stay stealable by its siblings.
        let evict = self.table_live
            && self.programs[p].sched.policy == Policy::Dws
            && self.table.slot(core) != Slot::Used(p);

        let slowdown = match self.programs[p].workers[w].state {
            WorkerState::Running { ref task, .. } => self.cache.slowdown(
                snapshot,
                p,
                self.cfg.machine.socket_of(core),
                task.mem,
                now,
                self.os.cores[core].cold_until,
            ),
            WorkerState::Idle => 1.0,
        };

        // Asymmetric cores: a slower clock shrinks the useful work done
        // in a wall-time tick (the OS-side quantum accounting below stays
        // in wall time).
        let speed = self.cfg.machine.speed_of(core);
        let outcome =
            self.programs[p].step_worker_evictable(w, budget * speed, slowdown, now, evict);
        let result = match outcome {
            StepOutcome::Worked => SliceResult::KeepRunning,
            StepOutcome::Yielded => SliceResult::Yielded {
                prefer_prog: self.programs[p].sched.policy.yields_to_own_program().then_some(p),
            },
            StepOutcome::Slept => SliceResult::Slept,
        };
        if outcome == StepOutcome::Slept {
            self.programs[p].workers[w].awake = false;
            self.trace.record(now, SchedEvent::Sleep { prog: p, worker: w, evicted: evict });
            // Release the core in the table (Algorithm 1), unless another
            // program has already reclaimed it out from under us.
            if self.table_live
                && self.programs[p].sched.policy == Policy::Dws
                && self.table.slot(core) == Slot::Used(p)
            {
                self.ledger.settle(&self.table, core, now);
                self.table.release(core, p);
                self.ledger.note_released(p, now);
                self.programs[p].metrics.cores_released += 1;
                self.trace.record(now, SchedEvent::Release { prog: p, core });
            }
        }
        let descheduled = self.os.after_slice(core, budget, result);
        if result == SliceResult::KeepRunning && descheduled.is_some() {
            self.programs[p].metrics.preemptions += 1;
        }
        // BWS's directed yield donates the thief's slice to a *preempted
        // busy* worker of its own program. Model the donation as a
        // priority boost on the recipient's own core (promote to the
        // front of its queue); migrating it to the donor's core instead
        // makes the recipient chase yields around the machine and never
        // run. The promotion is idempotent, so spinning thieves cannot
        // compound it.
        if let SliceResult::Yielded { prefer_prog: Some(pp) } = result {
            self.promote_preempted_worker(core, pp, (p, w));
        }
    }

    /// Finds a queued (preempted) worker of `prog` that is mid-task and
    /// moves it to the front of its own core's run queue (BWS donation).
    fn promote_preempted_worker(&mut self, from_core: usize, prog: usize, yielder: ThreadId) {
        let k = self.cfg.machine.cores;
        for offset in 0..k {
            let c = (from_core + offset) % k;
            let found = self.os.cores[c].run_queue.iter().position(|&(pr, w2)| {
                pr == prog
                    && (pr, w2) != yielder
                    && matches!(self.programs[pr].workers[w2].state, WorkerState::Running { .. })
            });
            if let Some(pos) = found {
                if pos != 0 {
                    if let Some(th) = self.os.cores[c].run_queue.remove(pos) {
                        self.os.cores[c].run_queue.push_front(th);
                    }
                }
                return;
            }
        }
    }

    /// Runs the simulation until every program has completed
    /// `opts.min_runs` runs or the horizon is reached, and reports.
    pub fn run(&mut self, opts: RunOptions) -> SimReport {
        loop {
            // A killed program will never finish; it does not hold up the
            // survivors' stopping condition.
            let all_done = self
                .programs
                .iter()
                .enumerate()
                .all(|(i, p)| self.dead[i] || p.runs_completed >= opts.min_runs);
            if all_done || self.now >= opts.max_time_us {
                break;
            }
            self.tick();
        }
        let hit_horizon = self.now >= opts.max_time_us;
        SimReport {
            programs: self
                .programs
                .iter()
                .map(|p| ProgramReport {
                    name: p.spec.name.clone(),
                    policy: p.sched.policy,
                    mean_run_time_us: p.metrics.mean_run_time_us(opts.warmup_runs),
                    metrics: p.metrics.clone(),
                })
                .collect(),
            elapsed_us: self.now,
            hit_horizon,
        }
    }
}

/// Convenience: runs `workload` alone on the machine under `policy` and
/// returns its report (the paper's solo baseline uses [`Policy::Ws`]).
pub fn run_solo(
    cfg: SimConfig,
    workload: WorkloadSpec,
    sched: SchedConfig,
    opts: RunOptions,
) -> ProgramReport {
    let mut sim = Simulator::new(cfg, vec![ProgramSpec { workload, sched }]);
    let mut report = sim.run(opts);
    report.programs.remove(0)
}

/// Convenience: co-runs two programs under the same policy (the paper's
/// benchmark-mix methodology) and returns the report.
pub fn run_pair(cfg: SimConfig, a: ProgramSpec, b: ProgramSpec, opts: RunOptions) -> SimReport {
    let mut sim = Simulator::new(cfg, vec![a, b]);
    sim.run(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::workload::PhaseSpec;

    fn small_machine() -> SimConfig {
        SimConfig {
            machine: MachineConfig { cores: 4, sockets: 2, ..Default::default() },
            ..Default::default()
        }
    }

    fn rec_workload(name: &str, depth: u32, leaf_us: f64, mem: f64) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            phases: vec![PhaseSpec::Recursive {
                depth,
                branch: 2,
                leaf_work_us: leaf_us,
                node_work_us: 1.0,
                merge_work_us: 5.0,
                merge_grows: true,
                mem,
                jitter: 0.1,
            }],
        }
    }

    fn wave_workload(
        name: &str,
        iters: u32,
        width: u32,
        task_us: f64,
        serial_us: f64,
    ) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            phases: vec![PhaseSpec::Waves {
                iters,
                width,
                width_end: 0,
                task_work_us: task_us,
                serial_us,
                mem: 0.4,
                jitter: 0.1,
            }],
        }
    }

    fn spec(w: WorkloadSpec, policy: Policy, cores: usize) -> ProgramSpec {
        ProgramSpec { workload: w, sched: SchedConfig::for_policy(policy, cores) }
    }

    #[test]
    fn solo_ws_completes_runs() {
        let cfg = small_machine();
        let rep = run_solo(
            cfg,
            rec_workload("r", 5, 100.0, 0.3),
            SchedConfig::for_policy(Policy::Ws, 4),
            RunOptions { min_runs: 3, max_time_us: 50_000_000, warmup_runs: 1 },
        );
        assert!(rep.mean_run_time_us.is_some());
        assert!(rep.metrics.run_times_us.len() >= 3);
    }

    #[test]
    fn more_cores_speed_up_a_parallel_workload() {
        let w = rec_workload("r", 7, 200.0, 0.0);
        let sched = SchedConfig::for_policy(Policy::Ws, 1);
        let opts = RunOptions { min_runs: 3, max_time_us: 200_000_000, warmup_runs: 1 };
        let one = run_solo(
            SimConfig {
                machine: MachineConfig { cores: 1, sockets: 1, ..Default::default() },
                ..Default::default()
            },
            w.clone(),
            sched.clone(),
            opts,
        )
        .mean_run_time_us
        .unwrap();
        let four = run_solo(
            SimConfig {
                machine: MachineConfig { cores: 4, sockets: 1, ..Default::default() },
                ..Default::default()
            },
            w,
            SchedConfig::for_policy(Policy::Ws, 4),
            opts,
        )
        .mean_run_time_us
        .unwrap();
        let speedup = one / four;
        assert!(speedup > 2.0, "expected >2x speedup on 4 cores, got {speedup:.2}");
    }

    #[test]
    fn telemetry_frames_track_a_dws_corun() {
        let cfg = small_machine();
        let mut sim = Simulator::new(
            cfg,
            vec![
                spec(rec_workload("a", 5, 80.0, 0.4), Policy::Dws, 4),
                spec(wave_workload("b", 10, 4, 60.0, 100.0), Policy::Dws, 4),
            ],
        );
        sim.enable_telemetry(10_000, 1024);
        while sim.now() < 500_000 {
            sim.tick();
        }
        for p in 0..2 {
            let frames = sim.telemetry_frames(p);
            assert!(frames.len() >= 40, "expected ~50 frames, got {}", frames.len());
            for pair in frames.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                assert_eq!(b.seq, a.seq + 1, "monotone seq");
                assert!(b.t_us > a.t_us, "monotone timestamps");
                assert!(b.counters.jobs_executed >= a.counters.jobs_executed);
                assert!(b.counters.coordinator_runs >= a.counters.coordinator_runs);
                assert!(b.coord.decisions >= a.coord.decisions);
            }
            // Real simulated frames survive the JSONL sink unchanged.
            let text = crate::telemetry::frames_to_jsonl(&frames);
            assert_eq!(text.lines().count(), frames.len());
            for (line, frame) in text.lines().zip(&frames) {
                assert_eq!(serde_json::from_str::<TelemetryFrame>(line).unwrap(), *frame);
            }
            let last = sim.latest_frame(p).unwrap();
            assert_eq!(last.prog, p);
            assert_eq!(last.cores.len(), 4);
            for c in &last.cores {
                assert_eq!(c.home, sim.alloc_table().home(c.core));
                assert!(c.owner == -1 || (c.owner >= 0 && c.owner < 2));
            }
            assert_eq!(last.workers.len(), 4);
            assert!(last.coord.decisions > 0, "coordinator decisions captured");
            // The coordinator plan never exceeds the observed supply.
            assert!(last.coord.planned_free <= last.coord.n_f);
            assert!(last.coord.planned_reclaim <= last.coord.n_r);
            // Steal/task histograms stay zero in the µs event model, but
            // the demand-latency quantiles are live: p99 bounds p50.
            assert_eq!(last.latency.steal_p50_ns, 0);
            assert!(last.latency.alloc_p99_ns >= last.latency.alloc_p50_ns);
            assert!(last.latency.release_p99_ns >= last.latency.release_p50_ns);
            // The ledger feeds frames: by 500 ms each program has been
            // charged some core time, and no program exceeds the machine.
            assert!(last.counters.core_us_total > 0, "ledger core time flows into frames");
            assert!(last.counters.core_us_total <= 4 * last.t_us);
            assert_eq!(last.counters.frames_evicted, 0);
        }
        // Conservation across the whole co-run: settled per-program time
        // plus free time tiles cores × elapsed exactly.
        let (prog_us, free_us) = sim.settled_core_us();
        assert_eq!(prog_us.iter().sum::<u64>() + free_us, 4 * sim.now());
        // Demand-satisfaction samples were collected and each costs at
        // least the wake latency.
        assert!(
            (0..2).any(|p| !sim.ledger().alloc_latency_ns(p).is_empty()),
            "expected demand-satisfaction samples in a DWS co-run"
        );
        for p in 0..2 {
            for &ns in sim.ledger().alloc_latency_ns(p) {
                assert!(ns >= 1_000, "a grant costs at least the wake path: {ns}ns");
            }
        }
    }

    #[test]
    fn telemetry_ring_eviction_is_surfaced() {
        let cfg = small_machine();
        let mut sim = Simulator::new(
            cfg,
            vec![
                spec(rec_workload("a", 5, 80.0, 0.4), Policy::Dws, 4),
                spec(rec_workload("b", 5, 80.0, 0.4), Policy::Dws, 4),
            ],
        );
        sim.enable_telemetry(10_000, 4);
        while sim.now() < 200_000 {
            sim.tick();
        }
        let frames = sim.telemetry_frames(0);
        assert_eq!(frames.len(), 4, "ring holds at most its capacity");
        assert!(
            sim.latest_frame(0).unwrap().counters.frames_evicted > 0,
            "evictions show up in the frame counters"
        );
    }

    #[test]
    fn corun_completes_under_every_policy() {
        for policy in [Policy::Abp, Policy::Ep, Policy::Dws, Policy::DwsNc] {
            let cfg = small_machine();
            let a = spec(rec_workload("a", 5, 80.0, 0.4), policy, 4);
            let b = spec(wave_workload("b", 10, 4, 60.0, 100.0), policy, 4);
            let rep = run_pair(
                cfg,
                a,
                b,
                RunOptions { min_runs: 2, max_time_us: 100_000_000, warmup_runs: 0 },
            );
            assert!(
                !rep.hit_horizon,
                "{policy}: horizon hit; a_runs={} b_runs={}",
                rep.programs[0].metrics.run_times_us.len(),
                rep.programs[1].metrics.run_times_us.len()
            );
            for pr in &rep.programs {
                assert!(pr.mean_run_time_us.unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn dws_workers_sleep_and_wake() {
        let cfg = small_machine();
        let a = spec(rec_workload("a", 6, 100.0, 0.4), Policy::Dws, 4);
        let b = spec(wave_workload("b", 20, 4, 80.0, 400.0), Policy::Dws, 4);
        let rep = run_pair(
            cfg,
            a,
            b,
            RunOptions { min_runs: 3, max_time_us: 200_000_000, warmup_runs: 0 },
        );
        let total_sleeps: u64 = rep.programs.iter().map(|p| p.metrics.sleeps).sum();
        let total_wakes: u64 = rep.programs.iter().map(|p| p.metrics.wakes).sum();
        assert!(total_sleeps > 0, "DWS workers must sleep on steal failure");
        assert!(total_wakes > 0, "coordinators must wake workers");
    }

    #[test]
    fn dws_moves_cores_between_programs() {
        let cfg = small_machine();
        // a: bursty high fan-out; b: mostly serial.
        let a = spec(rec_workload("a", 8, 150.0, 0.3), Policy::Dws, 4);
        let b = spec(wave_workload("b", 30, 1, 50.0, 2_000.0), Policy::Dws, 4);
        let rep = run_pair(
            cfg,
            a,
            b,
            RunOptions { min_runs: 3, max_time_us: 400_000_000, warmup_runs: 0 },
        );
        let acquired: u64 = rep.programs.iter().map(|p| p.metrics.cores_acquired).sum();
        assert!(acquired > 0, "the high-demand program should borrow released cores");
    }

    #[test]
    fn killed_program_is_reaped_and_survivor_recovers_the_cores() {
        let cfg = small_machine();
        let mut sim = Simulator::new(
            cfg,
            vec![
                spec(rec_workload("a", 8, 150.0, 0.3), Policy::Dws, 4),
                spec(rec_workload("b", 8, 150.0, 0.3), Policy::Dws, 4),
            ],
        );
        sim.enable_tracing(1 << 20);
        sim.enable_telemetry(10_000, 4096);
        sim.kill_program_at(1, 100_000);
        while sim.now() < 1_000_000 {
            sim.tick();
        }
        assert!(sim.program_dead(1));

        // Every core the victim held was reaped back; none stay stranded.
        let table = sim.alloc_table();
        for c in 0..table.cores() {
            assert_ne!(table.slot(c), Slot::Used(1), "core {c} stranded by the dead program");
        }
        let m = &sim.program(0).metrics;
        assert_eq!(m.leases_expired, 1, "exactly one lease to fence");
        assert!(m.cores_reaped >= 1, "the victim died holding at least one core");

        // Event-sourcing check: replaying the trace (including Reap
        // frees) reproduces the live table.
        let homes: Vec<usize> = (0..table.cores()).map(|c| table.home(c)).collect();
        let final_slots = sim.trace().replay_table(table.cores(), 2, &homes);
        for (c, replayed) in final_slots.iter().enumerate() {
            let live = match table.slot(c) {
                Slot::Free => None,
                Slot::Used(p) => Some(p),
            };
            assert_eq!(*replayed, live, "core {c}");
        }

        // The reap counters reach telemetry; the sim never degrades.
        let last = sim.latest_frame(0).unwrap();
        assert_eq!(last.counters.leases_expired, 1);
        assert!(last.counters.cores_reaped >= 1);
        assert_eq!(last.counters.degraded, 0);
    }

    #[test]
    fn abp_workers_yield() {
        let cfg = small_machine();
        let a = spec(rec_workload("a", 5, 80.0, 0.4), Policy::Abp, 4);
        let b = spec(wave_workload("b", 10, 2, 60.0, 500.0), Policy::Abp, 4);
        let rep = run_pair(
            cfg,
            a,
            b,
            RunOptions { min_runs: 2, max_time_us: 100_000_000, warmup_runs: 0 },
        );
        let yields: u64 = rep.programs.iter().map(|p| p.metrics.yields).sum();
        assert!(yields > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let cfg = small_machine();
            let a = spec(rec_workload("a", 5, 80.0, 0.4), Policy::Dws, 4);
            let b = spec(wave_workload("b", 10, 4, 60.0, 100.0), Policy::Dws, 4);
            run_pair(
                cfg,
                a,
                b,
                RunOptions { min_runs: 3, max_time_us: 100_000_000, warmup_runs: 0 },
            )
        };
        let r1 = mk();
        let r2 = mk();
        for (p1, p2) in r1.programs.iter().zip(&r2.programs) {
            assert_eq!(p1.metrics.run_times_us, p2.metrics.run_times_us);
            assert_eq!(p1.metrics.steals_ok, p2.metrics.steals_ok);
        }
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let mk = |seed| {
            let mut cfg = small_machine();
            cfg.seed = seed;
            let a = spec(rec_workload("a", 6, 80.0, 0.4), Policy::Dws, 4);
            let b = spec(wave_workload("b", 10, 4, 60.0, 100.0), Policy::Dws, 4);
            run_pair(
                cfg,
                a,
                b,
                RunOptions { min_runs: 3, max_time_us: 100_000_000, warmup_runs: 0 },
            )
        };
        let r1 = mk(1);
        let r2 = mk(99);
        let fingerprint = |r: &SimReport| -> (Vec<Vec<u64>>, u64) {
            (
                r.programs.iter().map(|p| p.metrics.run_times_us.clone()).collect(),
                r.programs.iter().map(|p| p.metrics.steals_ok + p.metrics.steals_failed).sum(),
            )
        };
        assert_ne!(fingerprint(&r1), fingerprint(&r2));
    }

    #[test]
    fn work_conservation_across_runs() {
        // Each completed run must execute at least the spec's total work.
        let cfg = small_machine();
        let w = rec_workload("r", 5, 100.0, 0.2);
        let expected_per_run = w.total_work_us();
        let rep = run_solo(
            cfg,
            w,
            SchedConfig::for_policy(Policy::Ws, 4),
            RunOptions { min_runs: 3, max_time_us: 100_000_000, warmup_runs: 0 },
        );
        let runs = rep.metrics.run_times_us.len() as f64;
        assert!(
            rep.metrics.nominal_work_done_us >= expected_per_run * runs * 0.999,
            "nominal {} < {} x {}",
            rep.metrics.nominal_work_done_us,
            expected_per_run,
            runs
        );
    }

    #[test]
    fn asymmetric_cores_slow_the_work_down() {
        let wl = rec_workload("r", 7, 200.0, 0.0);
        let opts = RunOptions { min_runs: 3, max_time_us: 200_000_000, warmup_runs: 1 };
        let fast = run_solo(
            SimConfig {
                machine: MachineConfig { cores: 4, sockets: 1, ..Default::default() },
                ..Default::default()
            },
            wl.clone(),
            SchedConfig::for_policy(Policy::Ws, 4),
            opts,
        )
        .mean_run_time_us
        .unwrap();
        let half_slow = run_solo(
            SimConfig { machine: MachineConfig::asymmetric(4, 1, 0.5), ..Default::default() },
            wl,
            SchedConfig::for_policy(Policy::Ws, 4),
            opts,
        )
        .mean_run_time_us
        .unwrap();
        // 2 nominal + 2 half-speed cores ≈ 3 effective: expect a clear
        // slowdown bounded by the 2x worst case.
        assert!(half_slow > fast * 1.1, "fast {fast:.0} vs asym {half_slow:.0}");
        assert!(half_slow < fast * 2.2);
    }

    #[test]
    fn demand_aware_placement_puts_memory_program_on_slow_cores() {
        let cfg = SimConfig {
            machine: MachineConfig::asymmetric(4, 2, 0.5),
            placement: crate::config::Placement::DemandAware,
            ..Default::default()
        };
        // Program 0 is compute-bound, program 1 memory-bound.
        let a = spec(rec_workload("compute", 4, 50.0, 0.05), Policy::Dws, 4);
        let b = spec(rec_workload("memory", 4, 50.0, 0.9), Policy::Dws, 4);
        let sim = Simulator::new(cfg, vec![a, b]);
        let t = sim.alloc_table();
        // Slow cores are 2,3 (second half): they must be homed to the
        // memory-bound program 1.
        assert_eq!(t.home_cores(1), vec![2, 3]);
        assert_eq!(t.home_cores(0), vec![0, 1]);
    }

    #[test]
    fn interleaved_placement_stripes_homes() {
        let cfg = SimConfig {
            machine: MachineConfig { cores: 4, sockets: 2, ..Default::default() },
            placement: crate::config::Placement::Interleaved,
            ..Default::default()
        };
        let a = spec(rec_workload("a", 4, 50.0, 0.4), Policy::Dws, 4);
        let b = spec(rec_workload("b", 4, 50.0, 0.4), Policy::Dws, 4);
        let sim = Simulator::new(cfg, vec![a, b]);
        assert_eq!(sim.alloc_table().home_cores(0), vec![0, 2]);
        assert_eq!(sim.alloc_table().home_cores(1), vec![1, 3]);
    }

    #[test]
    fn tracing_records_and_replays_table_events() {
        let cfg = small_machine();
        let a = spec(rec_workload("a", 6, 100.0, 0.4), Policy::Dws, 4);
        let b = spec(wave_workload("b", 20, 4, 80.0, 400.0), Policy::Dws, 4);
        let mut sim = Simulator::new(cfg, vec![a, b]);
        sim.enable_tracing(500_000);
        let homes: Vec<usize> = (0..4).map(|c| sim.alloc_table().home(c)).collect();
        sim.run(RunOptions { min_runs: 2, max_time_us: 100_000_000, warmup_runs: 0 });

        let trace = sim.trace();
        assert!(trace.dropped() == 0, "trace capacity too small for this test");
        assert!(trace.count(|e| matches!(e, crate::trace::SchedEvent::Sleep { .. })) > 0);
        assert!(trace.count(|e| matches!(e, crate::trace::SchedEvent::CoordTick { .. })) > 0);
        assert!(
            trace.count(|e| matches!(e, crate::trace::SchedEvent::RunComplete { .. })) >= 4,
            "both programs completed >= 2 runs"
        );
        // Event sourcing: replaying the table events reproduces the final
        // allocation state exactly.
        let replayed = trace.replay_table(4, 2, &homes);
        for (c, &rep) in replayed.iter().enumerate() {
            let actual = match sim.alloc_table().slot(c) {
                Slot::Free => None,
                Slot::Used(p) => Some(p),
            };
            assert_eq!(rep, actual, "core {c} diverged");
        }
        // Timestamps are monotone.
        let times: Vec<_> = trace.events().iter().map(|e| e.time_us).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bws_corun_completes_and_tracks_abp() {
        let cfg = small_machine();
        let run_policy = |policy| {
            let a = spec(rec_workload("a", 6, 80.0, 0.4), policy, 4);
            let b = spec(wave_workload("b", 10, 64, 30.0, 20.0), policy, 4);
            let rep = run_pair(
                cfg.clone(),
                a,
                b,
                RunOptions { min_runs: 2, max_time_us: 120_000_000, warmup_runs: 0 },
            );
            assert!(!rep.hit_horizon, "{policy}: starved");
            rep.programs.iter().map(|p| p.mean_run_time_us.unwrap()).sum::<f64>()
        };
        let abp = run_policy(Policy::Abp);
        let bws = run_policy(Policy::Bws);
        // In the fair round-robin OS model BWS tracks ABP closely.
        assert!(bws < abp * 1.3, "bws {bws} vs abp {abp}");
        assert!(bws > abp * 0.5);
    }

    #[test]
    fn four_programs_co_run_under_dws() {
        let cfg = SimConfig {
            machine: MachineConfig { cores: 8, sockets: 2, ..Default::default() },
            ..Default::default()
        };
        let sched = SchedConfig::for_policy(Policy::Dws, 8);
        let specs: Vec<ProgramSpec> = (0..4)
            .map(|i| ProgramSpec {
                workload: rec_workload(&format!("p{i}"), 5, 80.0, 0.3),
                sched: sched.clone(),
            })
            .collect();
        let mut sim = Simulator::new(cfg, specs);
        // Each program starts with a 2-core adjacent home slice.
        for p in 0..4 {
            assert_eq!(sim.alloc_table().home_cores(p).len(), 2);
        }
        let rep = sim.run(RunOptions { min_runs: 2, max_time_us: 200_000_000, warmup_runs: 0 });
        assert!(!rep.hit_horizon);
        for p in &rep.programs {
            assert!(p.mean_run_time_us.unwrap() > 0.0);
        }
    }

    #[test]
    fn tracing_disabled_by_default() {
        let cfg = small_machine();
        let a = spec(rec_workload("a", 4, 100.0, 0.4), Policy::Dws, 4);
        let b = spec(rec_workload("b", 4, 100.0, 0.4), Policy::Dws, 4);
        let mut sim = Simulator::new(cfg, vec![a, b]);
        sim.run(RunOptions { min_runs: 1, max_time_us: 50_000_000, warmup_runs: 0 });
        assert!(sim.trace().events().is_empty());
    }

    #[test]
    fn horizon_stops_runaway_simulations() {
        let cfg = small_machine();
        let w = wave_workload("slow", 1000, 4, 10_000.0, 10_000.0);
        let rep = run_solo(
            cfg,
            w,
            SchedConfig::for_policy(Policy::Ws, 4),
            RunOptions { min_runs: 100, max_time_us: 1_000_000, warmup_runs: 0 },
        );
        let _ = rep;
    }
}
