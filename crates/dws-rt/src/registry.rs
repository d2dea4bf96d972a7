//! The runtime registry: worker threads, their deques, the injector, the
//! sleep/wake state and the coordinator — i.e. everything behind a
//! [`Runtime`] handle.
//!
//! The worker main loop is the paper's Algorithm 1; the per-policy idle
//! behaviour (spin / ABP-yield / DWS-sleep) is selected by
//! [`crate::config::Policy`].

use std::cell::Cell;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dws_deque::{
    deque, Injector, Request, Steal, Stealer, SubmitError, SubmitRing, TaskId, Worker as Deque,
};

use crate::affinity;
use crate::alloc_table::{
    CoreTable, InProcessTable, LedgerTable, DOORBELL_DEMAND, DOORBELL_RELEASE, DOORBELL_SHUTDOWN,
    DOORBELL_SUBMIT,
};
use crate::config::{Policy, RuntimeConfig};
use crate::coordinator::coordinator_loop;
use crate::job::{JobRef, StackJob};
use crate::latch::LockLatch;
use crate::metrics::{AggregatedHistograms, MetricsSnapshot, RtMetrics, WorkerMetricsSnapshot};
use crate::rng::VictimRng;
use crate::serve::{RequestHandler, ServingState};
use crate::sleep::{Sleeper, WakeReason};
use crate::sync::{preempt_point, AtomicBool, AtomicUsize, Ordering};
use crate::telemetry::{sampler_loop, TelemetryFrame, TelemetryHandle, TelemetryState};
use crate::trace::{now_us, RtEvent, RtTrace, TraceSnapshot, LANE_SHARED};
use dws_core::policy::eq1_wake_target;

thread_local! {
    /// The worker currently driving this thread, if any.
    static CURRENT_WORKER: Cell<*const WorkerThread> = const { Cell::new(std::ptr::null()) };
}

/// Shared, per-worker state visible to other workers and the coordinator.
pub(crate) struct WorkerInfo {
    pub(crate) stealer: Stealer<JobRef>,
    pub(crate) sleeper: Sleeper,
    /// Core this worker is affined to (== worker index for one-per-core
    /// policies).
    pub(crate) core: usize,
    /// Written by the owning worker on sleep entry, before the sleeper
    /// flags it asleep: `true` iff it parked with jobs still queued
    /// (possible only on eviction — a voluntary sleeper just failed
    /// `find_work`, so its deque is empty). Lets [`Registry::queued_jobs`]
    /// skip the deque-length load for idle sleepers.
    pub(crate) asleep_with_work: AtomicBool,
}

/// Shared state of one runtime instance.
pub(crate) struct Registry {
    pub(crate) config: RuntimeConfig,
    /// Policy after the §4.4 single-program fallback.
    pub(crate) effective_policy: Policy,
    pub(crate) prog_id: usize,
    pub(crate) table: Arc<dyn CoreTable>,
    pub(crate) injector: Injector<JobRef>,
    pub(crate) workers: Vec<WorkerInfo>,
    pub(crate) metrics: RtMetrics,
    pub(crate) trace: RtTrace,
    pub(crate) telemetry: TelemetryState,
    pub(crate) shutdown: AtomicBool,
    /// Workers that have exited their main loop (shutdown accounting).
    exited: AtomicUsize,
    /// Detached jobs submitted via [`Runtime::spawn`] not yet finished;
    /// shutdown waits for them.
    detached: AtomicUsize,
    /// Sequence counter for tasks injected from outside the pool
    /// (stamped with [`TaskId::EXTERNAL_WORKER`] as their spawner).
    external_seq: AtomicU64,
    /// Serving mode: submission ring + request handler (None unless built
    /// via [`Runtime::serve`] / [`Runtime::serve_with_table`]).
    pub(crate) serving: Option<ServingState>,
    /// Workers parked in [`Registry::park_worker`] right now. Counted
    /// after the sleeper released its core, so `sleepers == workers`
    /// means every core this program held is back in the table. One
    /// relaxed load of this word is all `push` pays while nobody sleeps.
    sleepers: AtomicUsize,
    /// Demand-rise edge (DESIGN §16.1): [`EDGE_ARMED`] until a push finds
    /// Eq. 1 demand with a sibling asleep, then [`EDGE_RUNG`] (a
    /// `DOORBELL_DEMAND` ring is on its way to the coordinator) or
    /// [`EDGE_BLOCKED`] (a pass could grant nothing, or just answered a
    /// ring with `N_w = 0`). Either way later pushes return after one
    /// more load; the coordinator re-arms it at the top of every pass.
    demand_edge: AtomicUsize,
}

/// [`Registry::demand_edge`]: the next qualifying push rings.
const EDGE_ARMED: usize = 0;
/// [`Registry::demand_edge`]: rung, and the coordinator has not yet
/// started the pass that answers it.
const EDGE_RUNG: usize = 1;
/// [`Registry::demand_edge`]: ringing again before the next pass would
/// only repeat its answer — every sleeper's core is held by another
/// program, or the last ring was a false alarm.
const EDGE_BLOCKED: usize = 2;

impl Registry {
    /// `N_b` as the coordinator sees it: queued jobs in all deques plus
    /// the injector. Still O(workers), but a worker that went to sleep
    /// with nothing queued is skipped without touching its deque — only
    /// the owner pushes, so an empty deque stays empty for the whole
    /// sleep episode, and the deque's top/bottom words are exactly the
    /// cache lines sibling thieves hammer. Evicted sleepers can park with
    /// queued (still-stealable) jobs; they set `asleep_with_work` and are
    /// counted normally. Like every `N_b` read this is a racy sample: a
    /// worker observed mid-transition may be miscounted for one
    /// coordinator tick, never longer.
    pub(crate) fn queued_jobs(&self) -> usize {
        self.injector.len()
            + self
                .workers
                .iter()
                .map(|w| {
                    if w.sleeper.is_sleeping() && !w.asleep_with_work.load(Ordering::Acquire) {
                        0
                    } else {
                        w.stealer.len()
                    }
                })
                .sum::<usize>()
    }

    /// Indices of the workers flagged asleep, without allocating.
    pub(crate) fn sleepers(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.workers.len()).filter(|&i| self.workers[i].sleeper.is_sleeping())
    }

    /// How many workers are parked (the `sleepers` word, not a scan).
    pub(crate) fn sleeping_count(&self) -> usize {
        self.sleepers.load(Ordering::Acquire)
    }

    /// Blocks worker `w` in its sleeper until woken or `timeout`, counted
    /// in `sleepers` for exactly that long. Under DWS the caller has
    /// already released `w`'s core.
    pub(crate) fn park_worker(
        &self,
        w: usize,
        timeout: Option<Duration>,
    ) -> (WakeReason, Duration) {
        self.sleepers.fetch_add(1, Ordering::AcqRel);
        let out = self.workers[w].sleeper.sleep_timed(timeout);
        self.sleepers.fetch_sub(1, Ordering::AcqRel);
        out
    }

    /// Wakes worker `i` (idempotent).
    pub(crate) fn wake_worker(&self, i: usize) {
        self.workers[i].sleeper.wake();
    }

    /// Rings `prog`'s doorbell (edge-triggered control plane, DESIGN
    /// §16) — a no-op when the runtime was configured polling-only or the
    /// table backend has no doorbells.
    pub(crate) fn ring_doorbell(&self, prog: usize, reason: u32) {
        if self.config.event_driven {
            self.table.ring_doorbell(prog, reason);
        }
    }

    /// Rings our own coordinator for a demand rise, counted in
    /// `demand_rings` so a ring storm shows in recorded data.
    fn ring_demand(&self) {
        if self.config.event_driven {
            RtMetrics::bump(&self.metrics.demand_rings);
            self.table.ring_doorbell(self.prog_id, DOORBELL_DEMAND);
        }
    }

    /// Makes `core` ours if the protocol allows it: it already is, it is
    /// free, or it is our own home core in another program's hands.
    /// `try_reclaim` can only succeed on a home core, so a foreign core
    /// costs no reclaim call. Transitions are traced on `lane`.
    pub(crate) fn legitimize(&self, core: usize, lane: u32) -> bool {
        let (table, prog) = (&*self.table, self.prog_id);
        if table.current(core) == Some(prog) {
            true
        } else if table.try_acquire_free(core, prog) {
            self.trace.record(lane, RtEvent::Acquire { prog, core });
            true
        } else if table.home(core) == prog && table.try_reclaim(core, prog) {
            self.trace.record(lane, RtEvent::Reclaim { prog, core });
            true
        } else {
            false
        }
    }

    /// Makes sure at least one worker will notice freshly injected work,
    /// granting it a core first when the table demands exclusivity.
    pub(crate) fn ensure_progress(&self) {
        if self.sleeping_count() < self.workers.len() {
            return; // somebody is awake and will find the work
        }
        if self.effective_policy == Policy::Dws {
            // Everyone is parked, so every core was released: any worker
            // whose core we can take will do. The wake is a permit, so it
            // lands even on a worker that has not flagged itself yet.
            for w in 0..self.workers.len() {
                preempt_point("ensure-progress-legitimize");
                if self.legitimize(self.workers[w].core, LANE_SHARED) {
                    self.wake_worker(w);
                    return;
                }
            }
            // No core obtainable right now; wake the first worker anyway
            // — it will re-sleep if it cannot legitimize — and ring our
            // own doorbell so the coordinator re-plans *now* instead of
            // at the next period.
            self.ring_demand();
        }
        self.wake_worker(0);
    }

    /// Batch-steal surplus wake: a thief that just parked extra tasks in
    /// its own deque turned one queue of work into two, so a sleeping
    /// sibling can start on the surplus *now* instead of waiting for the
    /// coordinator's next period (up to `coord_period` of dead time on
    /// the critical path). Wakes at most one sleeper — under DWS the first
    /// whose core it can legitimize, none if there is no such core (a
    /// coordinator pass would try the same CASes, so nothing is rung). One
    /// load and return when nobody sleeps.
    pub(crate) fn wake_one_for_surplus(&self) {
        if self.sleeping_count() == 0 {
            return;
        }
        let dws = self.effective_policy == Policy::Dws;
        for w in self.sleepers() {
            preempt_point("surplus-wake-legitimize");
            if !dws || self.legitimize(self.workers[w].core, LANE_SHARED) {
                self.wake_worker(w);
                return;
            }
        }
    }

    /// The demand-rise edge, called by [`WorkerThread::push`] when a
    /// sibling is parked (`asleep > 0`) and the runtime is event-driven.
    /// Rings `DOORBELL_DEMAND` iff the edge is armed, the pusher's own
    /// deque already satisfies Eq. 1 for the awake workers (`queued` is a
    /// lower bound of `N_b`), and some core is free or is our home core
    /// held by a co-runner — exactly what a pass can grant. A sleeper
    /// whose core is already ours has its wake in flight and is skipped.
    /// The coordinator re-arms the edge *before* it samples `N_b`, so a
    /// push that found the edge spent is covered by the pass that spent
    /// it; what the relaxed loads can still miss, the heartbeat finds.
    #[cold]
    fn demand_rose(&self, queued: usize, asleep: usize) {
        if self.demand_edge.load(Ordering::Relaxed) != EDGE_ARMED {
            return;
        }
        let awake = self.workers.len().saturating_sub(asleep);
        if eq1_wake_target(queued, awake) == 0 {
            return;
        }
        // The same supply a pass looks at (it grants by core, not by
        // sleeper flag): free cores and our home cores in other hands.
        let obtainable = self.effective_policy != Policy::Dws
            || self.workers.iter().any(|w| match self.table.current(w.core) {
                None => true,
                Some(p) => p != self.prog_id && self.table.home(w.core) == self.prog_id,
            });
        let spent = if obtainable { EDGE_RUNG } else { EDGE_BLOCKED };
        if self
            .demand_edge
            .compare_exchange(EDGE_ARMED, spent, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return; // a sibling's push got here first
        }
        // The rise is stamped here, where it happens, so `alloc_latency`
        // includes the ring, the pass and any wait for a core.
        self.metrics.note_demand_rise(now_us());
        if obtainable {
            self.ring_demand();
        }
    }

    /// Re-arms the demand-rise edge; true if a demand ring was outstanding.
    /// The coordinator calls this at the top of a pass, before it reads
    /// `N_b`: a push that saw the edge spent happened before this swap, so
    /// the sample that follows sees its job; a push after it rings again.
    pub(crate) fn ack_demand_edge(&self) -> bool {
        self.demand_edge.swap(EDGE_ARMED, Ordering::AcqRel) == EDGE_RUNG
    }

    /// A demand ring that the pass answered with `N_w = 0` was a false
    /// alarm: the rise was over before a wake round-trip could serve it
    /// (a serial loop of tiny joins does this once per push). Leave the
    /// edge spent until the next pass, which with nothing else ringing is
    /// the heartbeat — the paper's cadence, so never worse than polling.
    /// A push that re-rang since the ack keeps its ring.
    pub(crate) fn block_demand_edge(&self) {
        let _ = self.demand_edge.compare_exchange(
            EDGE_ARMED,
            EDGE_BLOCKED,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// Stamps a task identity onto a job entering through the injector
    /// (no worker context): spawner is [`TaskId::EXTERNAL_WORKER`], the
    /// sequence comes from a process-wide counter. With tracing on, the
    /// spawn timestamp is taken and `Spawn`/`Enqueue` land on the shared
    /// lane — external submissions have no per-worker ring of their own.
    /// Mints the next external-lane task sequence number.
    pub(crate) fn next_external_seq(&self) -> u64 {
        self.external_seq.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn stamp_external(&self, mut job: JobRef) -> JobRef {
        let seq = self.next_external_seq();
        job.task_id = TaskId::new(self.prog_id, TaskId::EXTERNAL_WORKER, seq);
        if self.trace.enabled() {
            job.spawn_us = now_us();
            let id = job.task_id.as_u64();
            self.trace.record(LANE_SHARED, RtEvent::Spawn { id });
            self.trace.record(LANE_SHARED, RtEvent::Enqueue { id });
        }
        job
    }
}

/// A handle to a demand-aware work-stealing runtime (one "program" in the
/// paper's sense). Dropping the handle shuts the pool down.
pub struct Runtime {
    registry: Arc<Registry>,
    threads: Vec<std::thread::JoinHandle<()>>,
    coordinator: Option<std::thread::JoinHandle<()>>,
    sampler: Option<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Builds a standalone runtime. Per the paper's §4.4, a DWS runtime
    /// that is the *only* program on the machine falls back to plain
    /// work-stealing (sleeping and coordination buy nothing solo); use
    /// [`Runtime::with_table`] to co-run multiple programs.
    pub fn new(config: RuntimeConfig) -> Runtime {
        let workers = config.workers;
        // A ledger wraps even the solo table so core-seconds telemetry
        // (DESIGN §14) reports for single-program runs too.
        let table: Arc<dyn CoreTable> =
            Arc::new(LedgerTable::new(Arc::new(InProcessTable::new(workers, 1))));
        Self::build(config, table, 0, true, None)
    }

    /// Builds a runtime participating in multiprogram co-running through a
    /// shared core-allocation table. `prog_id` must be unique among the
    /// co-runners (use [`crate::shm::ShmTable::register`] across
    /// processes).
    pub fn with_table(config: RuntimeConfig, table: Arc<dyn CoreTable>, prog_id: usize) -> Runtime {
        Self::build(config, table, prog_id, false, None)
    }

    /// Builds a standalone *serving* runtime: a submission ring is
    /// attached (heap-backed here; shm-resident under
    /// [`Runtime::serve_with_table`] when the table carves one) and the
    /// coordinator drains it into the injector every period, running
    /// `handler` per admitted request. Serving is forced on in `config`.
    pub fn serve<F>(config: RuntimeConfig, handler: F) -> Runtime
    where
        F: Fn(Request) + Send + Sync + 'static,
    {
        let workers = config.workers;
        let table: Arc<dyn CoreTable> =
            Arc::new(LedgerTable::new(Arc::new(InProcessTable::new(workers, 1))));
        Self::build(config.with_serving(), table, 0, true, Some(Arc::new(handler)))
    }

    /// Builds a co-running *serving* runtime (see [`Runtime::serve`]).
    /// When `table` hosts a shm-resident submission ring for `prog_id`
    /// (a [`crate::shm::ShmTable`] with rings), clients in other
    /// processes can submit to it; otherwise a heap ring serves
    /// in-process submitters via [`Runtime::submit`].
    pub fn serve_with_table<F>(
        config: RuntimeConfig,
        table: Arc<dyn CoreTable>,
        prog_id: usize,
        handler: F,
    ) -> Runtime
    where
        F: Fn(Request) + Send + Sync + 'static,
    {
        Self::build(config.with_serving(), table, prog_id, false, Some(Arc::new(handler)))
    }

    fn build(
        config: RuntimeConfig,
        table: Arc<dyn CoreTable>,
        prog_id: usize,
        solo: bool,
        handler: Option<RequestHandler>,
    ) -> Runtime {
        assert!(prog_id < table.max_programs(), "prog_id out of range");
        let mut effective_policy = config.policy;
        if solo && config.policy.sleeps() {
            // §4.4: single-program fallback to traditional work-stealing.
            effective_policy = Policy::Ws;
        }
        if effective_policy == Policy::Dws {
            assert_eq!(
                config.workers,
                table.cores(),
                "DWS requires one worker per table core (worker i ↔ core i)"
            );
        }

        let n = config.workers;
        let mut deques = Vec::with_capacity(n);
        let mut infos = Vec::with_capacity(n);
        for i in 0..n {
            let (w, s) = deque::<JobRef>();
            deques.push(w);
            infos.push(WorkerInfo {
                stealer: s,
                sleeper: Sleeper::new(),
                core: i,
                asleep_with_work: AtomicBool::new(false),
            });
        }

        let trace = RtTrace::new(n, config.trace.capacity, config.trace.enabled);
        let telemetry = TelemetryState::new(config.telemetry.capacity);
        let serving = handler.map(|handler| {
            // The table's shm-resident ring wins; otherwise back the ring
            // on the heap for in-process submitters.
            let owned = if table.submit_ring(prog_id).is_some() {
                None
            } else {
                Some(SubmitRing::with_capacity(config.serve.ring_capacity))
            };
            ServingState::new(owned, handler)
        });
        let registry = Arc::new(Registry {
            config,
            effective_policy,
            prog_id,
            table,
            injector: Injector::new(),
            workers: infos,
            metrics: RtMetrics::with_workers(n),
            trace,
            telemetry,
            shutdown: AtomicBool::new(false),
            exited: AtomicUsize::new(0),
            detached: AtomicUsize::new(0),
            external_seq: AtomicU64::new(0),
            serving,
            sleepers: AtomicUsize::new(0),
            demand_edge: AtomicUsize::new(EDGE_ARMED),
        });

        let threads = deques
            .into_iter()
            .enumerate()
            .map(|(i, dq)| {
                let reg = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("dws-worker-{prog_id}-{i}"))
                    .spawn(move || WorkerThread::main(reg, i, dq))
                    .expect("failed to spawn worker thread")
            })
            .collect();

        // Serving runtimes need the drain pump even under policies with
        // no coordinator of their own (WS after the solo fallback): the
        // coordinator thread runs anyway, doing only the drain.
        let coordinator = if effective_policy.has_coordinator() || registry.serving.is_some() {
            let reg = Arc::clone(&registry);
            Some(
                std::thread::Builder::new()
                    .name(format!("dws-coordinator-{prog_id}"))
                    .spawn(move || coordinator_loop(reg))
                    .expect("failed to spawn coordinator"),
            )
        } else {
            None
        };

        let sampler = if registry.config.telemetry.enabled {
            let reg = Arc::clone(&registry);
            Some(
                std::thread::Builder::new()
                    .name(format!("dws-telemetry-{prog_id}"))
                    .spawn(move || sampler_loop(reg))
                    .expect("failed to spawn telemetry sampler"),
            )
        } else {
            None
        };

        Runtime { registry, threads, coordinator, sampler }
    }

    /// Runs `f` inside the pool and returns its result. If called from a
    /// worker of this pool, runs in place; otherwise injects the job and
    /// blocks until completion. `join`/`scope` called inside `f` use this
    /// pool's workers.
    pub fn block_on<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if let Some(w) = WorkerThread::current() {
            if std::ptr::eq(&*w.registry, &*self.registry) {
                return f();
            }
        }
        let job = StackJob::new(f, LockLatch::new());
        // SAFETY: the job outlives the wait below; executed exactly once
        // by a worker.
        let job_ref = unsafe { job.as_job_ref() };
        self.registry.injector.push(self.registry.stamp_external(job_ref));
        self.registry.ensure_progress();
        job.latch.wait();
        // SAFETY: the latch is set, so the result slot is filled.
        unsafe { job.into_result() }
    }

    /// Spawns a detached fire-and-forget job on the pool. The job runs at
    /// some point before the runtime shuts down ([`Runtime`]'s `Drop`
    /// waits for all detached jobs). Panics in the job are caught and
    /// counted, not propagated (there is nobody to propagate to).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.registry.detached.fetch_add(1, Ordering::AcqRel);
        let reg = Arc::clone(&self.registry);
        let job = crate::job::HeapJob::new(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            reg.detached.fetch_sub(1, Ordering::AcqRel);
        });
        if let Some(w) = WorkerThread::current() {
            if std::ptr::eq(&*w.registry, &*self.registry) {
                w.push(job);
                return;
            }
        }
        self.registry.injector.push(self.registry.stamp_external(job));
        self.registry.ensure_progress();
    }

    /// Number of detached jobs not yet completed (diagnostic).
    pub fn pending_spawns(&self) -> usize {
        self.registry.detached.load(Ordering::Acquire)
    }

    /// Fork-join inside the pool: convenience for
    /// `block_on(|| join(a, b))`.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        self.block_on(|| crate::join::join(a, b))
    }

    /// Structured spawning inside the pool: convenience for
    /// `block_on(|| scope(op))`.
    pub fn scope<'scope, OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce(&crate::scope::Scope<'scope>) -> R + Send,
        R: Send,
    {
        self.block_on(|| crate::scope::scope(op))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.registry.config.workers
    }

    /// The policy actually in effect (after the single-program fallback).
    pub fn effective_policy(&self) -> Policy {
        self.registry.effective_policy
    }

    /// This runtime's program id in the shared table.
    pub fn program_id(&self) -> usize {
        self.registry.prog_id
    }

    /// Snapshot of runtime counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.metrics.snapshot()
    }

    /// Is event tracing active (see [`crate::TraceConfig`])?
    pub fn tracing_enabled(&self) -> bool {
        self.registry.trace.enabled()
    }

    /// Merged, time-sorted snapshot of the runtime's event stream (empty
    /// when tracing is disabled). Safe to call at any time; never blocks
    /// the workers.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.registry.trace.snapshot()
    }

    /// Per-worker counter/histogram shards. Sleep counters and the
    /// sleep-duration histogram are always populated; steal-side shards
    /// and the latency histograms fill in only while tracing is enabled
    /// (the hot path takes no timestamps otherwise).
    pub fn worker_metrics(&self) -> Vec<WorkerMetricsSnapshot> {
        self.registry.metrics.worker_snapshots()
    }

    /// Latency histograms aggregated across all workers.
    pub fn histograms(&self) -> AggregatedHistograms {
        self.registry.metrics.aggregated_histograms()
    }

    /// Number of workers currently asleep (diagnostic).
    pub fn sleeping_workers(&self) -> usize {
        self.registry.sleepers().count()
    }

    /// The shared core-allocation table.
    pub fn table(&self) -> &Arc<dyn CoreTable> {
        &self.registry.table
    }

    /// Has the allocation table degraded to in-process mode (shared shm
    /// file lost or corrupted mid-run)? Always false for backends without
    /// a failure mode. Mirrored into telemetry as the `dws_degraded`
    /// gauge.
    pub fn degraded(&self) -> bool {
        self.registry.table.degraded()
    }

    /// Total trace events dropped on ring overflow so far (0 with tracing
    /// disabled). Exporters and harness binaries should surface a nonzero
    /// value as a warning — a dropped event is a hole in the timeline.
    pub fn events_dropped(&self) -> u64 {
        self.registry.trace.dropped()
    }

    /// Is the telemetry sampler running (see [`crate::TelemetryConfig`])?
    pub fn telemetry_enabled(&self) -> bool {
        self.registry.config.telemetry.enabled
    }

    /// A cloneable handle to this runtime's live telemetry, labeled
    /// `label` in exposition output. Works with the sampler disabled too
    /// ([`TelemetryHandle::sample_now`] snapshots on demand); with it
    /// enabled, frames accumulate every [`crate::TelemetryConfig::tick`].
    pub fn telemetry(&self, label: impl Into<String>) -> TelemetryHandle {
        TelemetryHandle { reg: Arc::clone(&self.registry), label: label.into() }
    }

    /// The most recent telemetry frame, if the sampler has produced any.
    pub fn latest_frame(&self) -> Option<TelemetryFrame> {
        self.telemetry("").latest()
    }

    /// Is this a serving runtime (built via [`Runtime::serve`] /
    /// [`Runtime::serve_with_table`])?
    pub fn serving(&self) -> bool {
        self.registry.serving.is_some()
    }

    /// The submission ring requests arrive on, or `None` for non-serving
    /// runtimes. Cross-process clients reach the same ring through
    /// [`crate::shm::ShmTable::submit_ring`]; in-process clients can use
    /// [`Runtime::submit`] instead.
    pub fn submission_ring(&self) -> Option<&SubmitRing> {
        self.registry.submission_ring()
    }

    /// Submits one external request (in-process client convenience): the
    /// submit timestamp is stamped here, at the client. `Err(Full)` means
    /// the ring is at capacity — open-loop overload sheds at the edge, and
    /// the caller decides whether to retry or count the drop. `Err(Fenced)`
    /// also covers a serving runtime whose ring has been withdrawn — a
    /// degraded [`crate::shm::FailoverTable`] stops trusting the shared
    /// ring, so admission sheds with a typed error instead of panicking.
    pub fn submit(&self, req_id: u64, demand_us: u64) -> Result<(), SubmitError> {
        assert!(self.registry.serving.is_some(), "not a serving runtime");
        let Some(ring) = self.registry.submission_ring() else {
            return Err(SubmitError::Fenced);
        };
        let res = ring.submit(Request { req_id, submit_us: now_us(), demand_us }, ring.epoch());
        if res.is_ok() {
            // Edge-triggered admission (DESIGN §16.1): the coordinator
            // drains the ring on this doorbell instead of on its next
            // polling tick, so admission latency stops scaling with the
            // coordinator period.
            self.registry.ring_doorbell(self.registry.prog_id, DOORBELL_SUBMIT);
        }
        res
    }

    /// One manual drain pass of the submission ring (tests, pumping
    /// without waiting out a coordinator period). Returns the number of
    /// requests admitted.
    pub fn drain_submissions(&self) -> usize {
        self.registry.drain_submissions()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Let detached spawns finish before tearing the pool down.
        while self.registry.detached.load(Ordering::Acquire) > 0 {
            self.registry.ensure_progress();
            std::thread::yield_now();
        }
        self.registry.shutdown.store(true, Ordering::Release);
        // Pop the coordinator out of its doorbell wait immediately — the
        // slow-path heartbeat would notice the flag anyway, but shutdown
        // should not cost a period.
        self.registry.ring_doorbell(self.registry.prog_id, DOORBELL_SHUTDOWN);
        for i in 0..self.registry.workers.len() {
            self.registry.wake_worker(i);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(c) = self.coordinator.take() {
            let _ = c.join();
        }
        if let Some(s) = self.sampler.take() {
            let _ = s.join();
        }
    }
}

/// Worker-thread state (owned by the thread itself; published via the
/// thread-local for `join`/`scope`).
pub(crate) struct WorkerThread {
    pub(crate) registry: Arc<Registry>,
    pub(crate) index: usize,
    deque: Deque<JobRef>,
    rng: VictimRng,
    /// Set after a starvation-escape wake (see `go_to_sleep`): eviction
    /// checks are suspended until the worker runs out of work again, so a
    /// hostile or corrupted table cannot livelock the pool.
    starvation_immune: Cell<bool>,
    /// Cached `registry.trace.enabled()`: the hot-path gate for event
    /// recording and latency timestamps.
    trace_on: bool,
    /// Wake instant awaiting its first executed task (wake→first-task
    /// histogram); set on resume from sleep while tracing.
    wake_at: Cell<Option<Instant>>,
    /// Next task sequence number this worker mints (worker-local, so id
    /// stamping is a plain increment — no shared counter on the push
    /// path).
    task_seq: Cell<u64>,
}

/// Outcome of one work-acquisition round. Distinguishes "nothing found"
/// from "lost a CAS race on a non-empty deque": only the former is a
/// demand signal (it advances Algorithm 1's failed-steal counter toward
/// `T_sleep` and bumps `steals_failed`).
pub(crate) enum StealOutcome {
    /// A job to run.
    Job(JobRef),
    /// No work visible anywhere this round.
    Empty,
    /// The victim's deque was non-empty but another thief won every CAS
    /// race, even after the bounded same-victim retries.
    Contended,
}

impl WorkerThread {
    /// The worker driving the current thread, if any.
    pub(crate) fn current() -> Option<&'static WorkerThread> {
        let ptr = CURRENT_WORKER.with(|c| c.get());
        if ptr.is_null() {
            None
        } else {
            // SAFETY: set for exactly the lifetime of `main`, which only
            // returns after clearing it; the reference never escapes the
            // worker's own call stack.
            Some(unsafe { &*ptr })
        }
    }

    fn main(registry: Arc<Registry>, index: usize, deque: Deque<JobRef>) {
        let me = WorkerThread {
            rng: VictimRng::new(0x5851_F42D_4C95_7F2D ^ ((index as u64 + 1) * 0x9E37)),
            trace_on: registry.trace.enabled(),
            registry,
            index,
            deque,
            starvation_immune: Cell::new(false),
            wake_at: Cell::new(None),
            task_seq: Cell::new(0),
        };
        CURRENT_WORKER.with(|c| c.set(&me as *const WorkerThread));
        me.apply_affinity();
        me.run_main_loop();
        CURRENT_WORKER.with(|c| c.set(std::ptr::null()));
        me.registry.exited.fetch_add(1, Ordering::Release);
    }

    fn apply_affinity(&self) {
        if !self.registry.config.pin_workers {
            return;
        }
        match self.registry.effective_policy {
            Policy::Abp => {} // OS decides (time-sharing)
            Policy::Ep => {
                let home: Vec<usize> = (0..self.registry.table.cores())
                    .filter(|&c| self.registry.table.home(c) == self.registry.prog_id)
                    .collect();
                affinity::pin_current_thread_to_set(&home);
            }
            _ => {
                affinity::pin_current_thread(self.registry.workers[self.index].core);
            }
        }
    }

    fn run_main_loop(&self) {
        let reg = &*self.registry;
        let policy = reg.effective_policy;

        // §3.1: initially, only the workers on the program's home slice
        // are awake; the rest sleep until the coordinator grants a core.
        if policy.sleeps() {
            let core = reg.workers[self.index].core;
            if reg.table.home(core) != reg.prog_id {
                self.go_to_sleep(false);
            }
        }

        let mut failed_steals: u32 = 0;
        loop {
            // Core eviction (§4.2: a core executes a single active
            // worker): between tasks, a DWS worker whose core was
            // reclaimed by its owner — the table no longer names this
            // program — goes to sleep instead of competing for the core.
            // Its queued jobs remain stealable by siblings. Suspended
            // while the worker is starvation-immune (liveness escape).
            if policy == Policy::Dws
                && !self.starvation_immune.get()
                && !reg.shutdown.load(Ordering::Acquire)
                && reg.table.current(reg.workers[self.index].core) != Some(reg.prog_id)
            {
                failed_steals = 0;
                self.go_to_sleep(true);
                continue;
            }
            match self.find_work_with(failed_steals > 0) {
                StealOutcome::Job(job) => {
                    failed_steals = 0;
                    self.execute(job);
                    continue;
                }
                StealOutcome::Contended => {
                    // Lost a CAS race on a *non-empty* deque even after
                    // the bounded retries: work exists, another thief got
                    // there first. Contention is the opposite of a work
                    // drought, so it must not feed Algorithm 1's
                    // failed-steal counter (the sleep trigger) nor the
                    // `steals_failed` demand signal.
                    if reg.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    std::hint::spin_loop();
                    continue;
                }
                StealOutcome::Empty => {}
            }
            // Out of work: immunity (if any) has served its purpose.
            self.starvation_immune.set(false);
            if reg.shutdown.load(Ordering::Acquire) {
                break;
            }
            failed_steals += 1;
            RtMetrics::bump(&reg.metrics.steals_failed);
            match policy {
                Policy::Ws => {
                    if failed_steals.is_multiple_of(reg.config.spin_yield_interval.max(1)) {
                        RtMetrics::bump(&reg.metrics.yields);
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                Policy::Abp | Policy::Ep => {
                    // ABP: yield the core after every failed steal.
                    RtMetrics::bump(&reg.metrics.yields);
                    std::thread::yield_now();
                }
                Policy::Dws | Policy::DwsNc => {
                    if failed_steals > reg.config.t_sleep {
                        failed_steals = 0;
                        self.go_to_sleep(false);
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// Algorithm 1's sleep (lines 14-17): release the core in the table
    /// (DWS only), block until woken, and on a safety-timeout wake try to
    /// legitimately re-enter (or sleep again).
    ///
    /// Liveness escape: if work is pending but the table refuses to grant
    /// this worker a core across many consecutive timeouts (corrupted or
    /// hostile table, dead co-runner holding everything), the worker
    /// eventually proceeds anyway — a stuck process is worse than a
    /// briefly over-subscribed core.
    fn go_to_sleep(&self, evicted: bool) {
        let reg = &*self.registry;
        // Published before the sleeper flags us asleep: `queued_jobs`
        // skips sleepers that provably left nothing behind. Only an
        // evicted worker can park non-empty; its jobs stay stealable and
        // must stay counted while siblings drain them.
        reg.workers[self.index].asleep_with_work.store(!self.deque.is_empty(), Ordering::Release);
        let core = reg.workers[self.index].core;
        let lane = self.index as u32;
        let shard = &reg.metrics.workers[self.index];
        let mut first = true;
        let mut starved_timeouts = 0u32;
        const STARVATION_GRACE: u32 = 6;
        loop {
            if reg.effective_policy == Policy::Dws && reg.table.release(core, reg.prog_id) {
                RtMetrics::bump(&reg.metrics.cores_released);
                // Closes any pending demand-fall stamp into the
                // release-latency histogram (DESIGN §14).
                reg.metrics.note_core_released(crate::trace::now_us());
                reg.trace.record(lane, RtEvent::Release { prog: reg.prog_id, core });
                // A released core is above all *reclaimable by its home
                // program*: ring that program's doorbell so its starved
                // coordinator reclaims now instead of next period. Our own
                // home core becoming free is not news to us — skip.
                let owner = reg.table.home(core);
                if owner != reg.prog_id {
                    reg.ring_doorbell(owner, DOORBELL_RELEASE);
                }
            }
            RtMetrics::bump(&reg.metrics.sleeps);
            RtMetrics::bump(&shard.sleeps);
            // Only the entry sleep is an eviction; loop re-entries below
            // are timeout re-sleeps.
            reg.trace
                .record(lane, RtEvent::Sleep { worker: self.index, evicted: evicted && first });
            first = false;
            let (reason, slept) = reg.park_worker(self.index, reg.config.sleep_timeout);
            RtMetrics::bump(&reg.metrics.wakes);
            {
                // Wake counter + duration sample publish together; the
                // section covers only the post-wake bookkeeping, never
                // the sleep itself.
                let _ws = shard.write_section();
                RtMetrics::bump(&shard.wakes);
                shard.sleep_duration.record(slept);
            }
            reg.trace.record(lane, RtEvent::Wake { worker: self.index });
            if reg.shutdown.load(Ordering::Acquire) {
                return;
            }
            match reason {
                WakeReason::Woken => {
                    // A core was granted (or shutdown).
                    if self.trace_on {
                        self.wake_at.set(Some(Instant::now()));
                    }
                    return;
                }
                WakeReason::TimedOut => {
                    // Self-recovery: only resume if there is work *and* we
                    // can hold our core under DWS exclusivity.
                    let has_work = reg.queued_jobs() > 0;
                    if !has_work {
                        starved_timeouts = 0;
                        continue;
                    }
                    if reg.effective_policy == Policy::Dws {
                        preempt_point("worker-legitimize");
                        if !reg.legitimize(core, lane) {
                            starved_timeouts += 1;
                            if starved_timeouts < STARVATION_GRACE {
                                continue;
                            }
                            // Liveness over protocol purity: run anyway
                            // and stay immune to eviction until the work
                            // drought ends.
                            self.starvation_immune.set(true);
                        }
                    }
                    if self.trace_on {
                        self.wake_at.set(Some(Instant::now()));
                    }
                    return;
                }
            }
        }
    }

    /// One round of Algorithm 1's work acquisition: own pool, then the
    /// injector, then one steal attempt (random victim). Callers that
    /// only care about "got a job or not" (e.g. [`WorkerThread::work_until`])
    /// use this; the main loop uses [`WorkerThread::find_work_with`] to
    /// tell contention apart from emptiness.
    pub(crate) fn find_work(&self) -> Option<JobRef> {
        match self.find_work_with(false) {
            StealOutcome::Job(job) => Some(job),
            StealOutcome::Empty | StealOutcome::Contended => None,
        }
    }

    /// As [`WorkerThread::find_work`], sweeping victims when `sweeping`
    /// (set across consecutive failed attempts).
    pub(crate) fn find_work_with(&self, sweeping: bool) -> StealOutcome {
        if let Some(job) = self.deque.pop() {
            return StealOutcome::Job(job);
        }
        // Bulk injector drain: one lock acquisition moves a chunk of
        // injected work (ceil-half, capped by `steal_batch_limit`) — the
        // surplus parks in our own deque, where it is popped lock-free next
        // round and remains stealable by siblings.
        let limit = self.registry.config.steal_batch_limit;
        if let Some(job) = self.registry.injector.steal_batch_and_pop(&self.deque, limit) {
            if !self.deque.is_empty() {
                self.registry.wake_one_for_surplus();
            }
            return StealOutcome::Job(job);
        }
        if sweeping {
            self.steal_sweep()
        } else {
            self.steal_once()
        }
    }

    fn steal_once(&self) -> StealOutcome {
        self.steal_from(|n, me| self.rng.victim(n, me))
    }

    /// As [`WorkerThread::steal_once`], but sweeping from the previous
    /// victim — used on consecutive failures so one pass visits everyone.
    fn steal_sweep(&self) -> StealOutcome {
        self.steal_from(|n, me| self.rng.victim_sweep(n, me))
    }

    /// One steal operation against one victim.
    ///
    /// Fast path: a victim with fewer than two observable tasks (or
    /// batching disabled via `steal_batch_limit == 1`) gets a single-task
    /// steal — one CAS, no bookkeeping. Otherwise the thief takes up to
    /// half the victim's queue (capped by `steal_batch_limit` and
    /// [`dws_deque::MAX_STEAL_BATCH`]) into its own deque and runs the
    /// oldest task immediately, amortizing victim selection and the
    /// steal-path cache misses over the whole batch.
    ///
    /// A `Steal::Retry` (lost CAS race, deque non-empty) is retried on
    /// the *same* victim up to `steal_retries` times: contention means
    /// the deque is hot, and hopping victims or reporting failure would
    /// misread demand (§3.3 / Eq. 1). Retries still exhausted surfaces as
    /// [`StealOutcome::Contended`], which the main loop keeps out of the
    /// failed-steal counter.
    fn steal_from(&self, pick: impl Fn(usize, usize) -> usize) -> StealOutcome {
        let reg = &*self.registry;
        let n = reg.workers.len();
        if n <= 1 {
            return StealOutcome::Empty;
        }
        let victim = pick(n, self.index);
        let stealer = &reg.workers[victim].stealer;
        let batch_limit = reg.config.steal_batch_limit;
        let batch = batch_limit > 1 && stealer.len() >= 2;
        // Latency timing and per-attempt events only while tracing: the
        // disabled hot path must not take timestamps.
        let t0 = if self.trace_on { Some(Instant::now()) } else { None };
        let mut retries = reg.config.steal_retries;
        let (result, moved) = loop {
            let r = if batch {
                let before = self.deque.len();
                match stealer.steal_batch_and_pop(&self.deque, batch_limit) {
                    Steal::Success(job) => {
                        // Statistics only: a sibling may already be
                        // re-stealing from our deque, so the count can
                        // transiently under-report by a task or two.
                        let moved = 1 + self.deque.len().saturating_sub(before) as u64;
                        break (Steal::Success(job), moved);
                    }
                    other => other,
                }
            } else {
                match stealer.steal() {
                    Steal::Success(job) => break (Steal::Success(job), 1),
                    other => other,
                }
            };
            match r {
                Steal::Empty => break (Steal::Empty, 0),
                Steal::Retry if retries > 0 => {
                    retries -= 1;
                    std::hint::spin_loop();
                }
                Steal::Retry => break (Steal::Retry, 0),
                Steal::Success(_) => unreachable!("success breaks above"),
            }
        };
        if let Some(t0) = t0 {
            let shard = &reg.metrics.workers[self.index];
            {
                // Outcome counters + latency sample are one logical batch:
                // publish them atomically to snapshot readers.
                let _ws = shard.write_section();
                shard.steal_latency.record(t0.elapsed());
                match result {
                    Steal::Success(_) => {
                        RtMetrics::bump(&shard.steals_ok);
                        RtMetrics::add(&shard.tasks_stolen, moved);
                        shard.steal_batch.record_ns(moved);
                    }
                    Steal::Empty => RtMetrics::bump(&shard.steals_failed),
                    // Contended: neither a hit nor a miss — counted on
                    // its own axis (plus the latency sample recording
                    // the wasted attempt).
                    Steal::Retry => RtMetrics::bump(&shard.steals_contended),
                }
            }
            match result {
                Steal::Success(_) => {
                    reg.trace
                        .record(self.index as u32, RtEvent::StealOk { worker: self.index, victim });
                    if moved > 1 {
                        reg.trace.record(
                            self.index as u32,
                            RtEvent::BatchMoved {
                                worker: self.index,
                                victim,
                                moved: moved as usize,
                            },
                        );
                    }
                }
                Steal::Empty => {
                    reg.trace.record(self.index as u32, RtEvent::StealFail { worker: self.index });
                }
                Steal::Retry => {}
            }
        }
        match result {
            Steal::Success(job) => {
                RtMetrics::bump(&reg.metrics.steals_ok);
                RtMetrics::add(&reg.metrics.tasks_stolen, moved);
                if moved > 1 {
                    reg.wake_one_for_surplus();
                }
                StealOutcome::Job(job)
            }
            Steal::Empty => StealOutcome::Empty,
            Steal::Retry => {
                RtMetrics::bump(&reg.metrics.steals_contended);
                StealOutcome::Contended
            }
        }
    }

    /// Pushes a job onto this worker's own deque, minting its [`TaskId`]
    /// if it does not carry one yet (every locally-spawned job funnels
    /// through here: `join`'s stolen arm, scope spawns, detached spawns
    /// from inside the pool). The identity then rides inside the deque
    /// element through any pops, steals and batch transfers. With tracing
    /// on, the spawn timestamp is taken and `Spawn`/`Enqueue` land on
    /// this worker's lane; off, stamping is one `Cell` increment.
    pub(crate) fn push(&self, mut job: JobRef) {
        if job.task_id.is_none() {
            let seq = self.task_seq.get();
            self.task_seq.set(seq + 1);
            job.task_id = TaskId::new(self.registry.prog_id, self.index, seq);
            if self.trace_on {
                job.spawn_us = now_us();
                let id = job.task_id.as_u64();
                let lane = self.index as u32;
                self.registry.trace.record(lane, RtEvent::Spawn { id });
                self.registry.trace.record(lane, RtEvent::Enqueue { id });
            }
        }
        self.deque.push(job);
        // Demand-rise edge (DESIGN §16.1). While nobody sleeps this is the
        // whole cost: one relaxed load.
        let reg = &*self.registry;
        let asleep = reg.sleepers.load(Ordering::Relaxed);
        if asleep != 0 && reg.config.event_driven {
            reg.demand_rose(self.deque.len(), asleep);
        }
    }

    /// Pops the most recently pushed job, if still present.
    pub(crate) fn pop(&self) -> Option<JobRef> {
        self.deque.pop()
    }

    /// Executes a job, counting it. With tracing on, the gap between the
    /// job's spawn timestamp and this instant is its *sojourn* — the time
    /// the task sat queued (possibly crossing deques via steals) before a
    /// worker picked it up — recorded into the per-worker histogram
    /// alongside the `ExecBegin`/`ExecEnd` lifecycle events.
    pub(crate) fn execute(&self, job: JobRef) {
        RtMetrics::bump(&self.registry.metrics.jobs_executed);
        if self.trace_on {
            let shard = &self.registry.metrics.workers[self.index];
            {
                let _ws = shard.write_section();
                RtMetrics::bump(&shard.jobs_executed);
                if let Some(woke) = self.wake_at.take() {
                    shard.wake_to_first_task.record(woke.elapsed());
                }
                if job.spawn_us != 0 {
                    let begin_us = now_us();
                    shard.task_sojourn.record_ns(begin_us.saturating_sub(job.spawn_us) * 1_000);
                    if job.submit_us != 0 {
                        // End-to-end request sojourn: client submit →
                        // exec-begin, including the ring wait before the
                        // coordinator drained it.
                        shard
                            .request_sojourn
                            .record_ns(begin_us.saturating_sub(job.submit_us) * 1_000);
                    }
                }
            }
            let id = job.task_id.as_u64();
            self.registry
                .trace
                .record(self.index as u32, RtEvent::ExecBegin { worker: self.index, id });
            // SAFETY: every JobRef in the system is executed exactly once;
            // provenance is guaranteed by push/steal discipline.
            unsafe { job.execute() };
            self.registry
                .trace
                .record(self.index as u32, RtEvent::ExecEnd { worker: self.index, id });
            return;
        }
        // SAFETY: as above.
        unsafe { job.execute() };
    }

    /// Lifecycle bookkeeping for a job the caller is about to run
    /// *inline* after popping it back (`join`'s steal-free path): the
    /// job bypasses [`WorkerThread::execute`], but its identity must
    /// still close with an `ExecBegin` — the offline W1 rule ("every
    /// spawned task executes") reads these events. Records the sojourn
    /// sample too, so the live histogram and the trace agree on what a
    /// task is. No-op with tracing off.
    pub(crate) fn trace_inline_begin(&self, job: &JobRef) {
        if !self.trace_on {
            return;
        }
        if job.spawn_us != 0 {
            let shard = &self.registry.metrics.workers[self.index];
            let _ws = shard.write_section();
            shard.task_sojourn.record_ns(now_us().saturating_sub(job.spawn_us) * 1_000);
        }
        self.registry.trace.record(
            self.index as u32,
            RtEvent::ExecBegin { worker: self.index, id: job.task_id.as_u64() },
        );
    }

    /// Closes the pair opened by [`WorkerThread::trace_inline_begin`].
    pub(crate) fn trace_inline_end(&self, job: &JobRef) {
        if !self.trace_on {
            return;
        }
        self.registry.trace.record(
            self.index as u32,
            RtEvent::ExecEnd { worker: self.index, id: job.task_id.as_u64() },
        );
    }

    /// Works until `done` reports true: keeps popping/stealing jobs, and
    /// yields politely when none are available. Used by `join` (waiting on
    /// a stolen arm) and `scope` (waiting for spawned jobs). Never sleeps:
    /// a blocked wait must stay responsive to its completion.
    pub(crate) fn work_until(&self, done: impl Fn() -> bool) {
        let mut idle_spins = 0u32;
        while !done() {
            if let Some(job) = self.find_work() {
                self.execute(job);
                idle_spins = 0;
            } else {
                idle_spins += 1;
                if idle_spins.is_multiple_of(8) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::HeapJob;

    /// A thread-less registry: worker deques stay in the test's hands so
    /// steals can be staged deterministically.
    fn bare_registry(n: usize) -> (Arc<Registry>, Vec<Deque<JobRef>>) {
        bare_registry_with(n, Policy::Ws, 1)
    }

    fn bare_registry_with(
        n: usize,
        policy: Policy,
        programs: usize,
    ) -> (Arc<Registry>, Vec<Deque<JobRef>>) {
        let mut deques = Vec::with_capacity(n);
        let mut infos = Vec::with_capacity(n);
        for i in 0..n {
            let (w, s) = deque::<JobRef>();
            deques.push(w);
            infos.push(WorkerInfo {
                stealer: s,
                sleeper: Sleeper::new(),
                core: i,
                asleep_with_work: AtomicBool::new(false),
            });
        }
        let config = RuntimeConfig::new(n, policy);
        let programs_table = InProcessTable::new(n, programs);
        let registry = Arc::new(Registry {
            effective_policy: config.policy,
            config,
            prog_id: 0,
            table: Arc::new(programs_table),
            injector: Injector::new(),
            workers: infos,
            metrics: RtMetrics::with_workers(n),
            trace: RtTrace::new(n, 16, false),
            telemetry: TelemetryState::new(4),
            shutdown: AtomicBool::new(false),
            exited: AtomicUsize::new(0),
            detached: AtomicUsize::new(0),
            external_seq: AtomicU64::new(0),
            serving: None,
            sleepers: AtomicUsize::new(0),
            demand_edge: AtomicUsize::new(EDGE_ARMED),
        });
        (registry, deques)
    }

    fn noop_job() -> JobRef {
        HeapJob::new(|| {})
    }

    fn drain(d: &Deque<JobRef>) -> usize {
        let mut n = 0;
        while let Some(j) = d.pop() {
            // SAFETY: each heap job is executed exactly once, here.
            unsafe { j.execute() };
            n += 1;
        }
        n
    }

    /// Pins `N_b` while batched steals are in flight: a batch transfer
    /// between two counted deques conserves the total, and the
    /// sleeping-worker skip never hides an evicted sleeper's jobs.
    #[test]
    fn queued_jobs_survives_batched_steals_and_sleepers() {
        let (reg, deques) = bare_registry(3);
        for _ in 0..6 {
            deques[0].push(noop_job());
        }
        for _ in 0..3 {
            reg.injector.push(noop_job());
        }
        assert_eq!(reg.queued_jobs(), 9);

        // Deque→deque batch steal: tasks move between two counted pools.
        match reg.workers[0].stealer.steal_batch(&deques[1], 8) {
            Steal::Success(n) => assert_eq!(n, 3, "ceil-half of 6"),
            other => panic!("unexpected steal outcome: {other:?}"),
        }
        assert_eq!(reg.queued_jobs(), 9, "a batch in flight must not change N_b");

        // Injector bulk pop: one job handed out, the surplus parked in a
        // counted worker deque.
        let job = reg.injector.steal_batch_and_pop(&deques[2], 8).expect("injected work");
        // SAFETY: executed exactly once, here.
        unsafe { job.execute() };
        assert_eq!(reg.queued_jobs(), 8);
        assert!(!deques[2].is_empty(), "surplus parked on worker 2");

        // Worker 2 now "sleeps". Without the evicted flag the skip hides
        // its parked job (the real runtime always sets the flag on a
        // non-empty sleep entry in go_to_sleep); with it, N_b is intact.
        let reg2 = Arc::clone(&reg);
        let sleeper = std::thread::spawn(move || reg2.park_worker(2, None));
        while !reg.workers[2].sleeper.is_sleeping() {
            std::thread::yield_now();
        }
        assert_eq!(reg.queued_jobs(), 7, "idle-sleeper fast path skips the deque");
        reg.workers[2].asleep_with_work.store(true, Ordering::Release);
        assert_eq!(reg.queued_jobs(), 8, "evicted sleepers' jobs stay counted");
        reg.workers[2].sleeper.wake();
        sleeper.join().unwrap();
        assert_eq!(reg.queued_jobs(), 8, "awake again: deque read directly");

        let mut drained: usize = deques.iter().map(drain).sum();
        while let Some(j) = reg.injector.pop() {
            // SAFETY: executed exactly once, here.
            unsafe { j.execute() };
            drained += 1;
        }
        assert_eq!(drained, 8, "every remaining job accounted for");
        assert_eq!(reg.queued_jobs(), 0);
    }

    /// A batch surplus wakes one sleeping sibling immediately, instead of
    /// leaving it to the coordinator's next period.
    #[test]
    fn surplus_wake_rouses_a_sleeper() {
        let (reg, _deques) = bare_registry(2);
        reg.wake_one_for_surplus(); // nobody asleep: cheap no-op

        let reg2 = Arc::clone(&reg);
        let sleeper = std::thread::spawn(move || reg2.park_worker(1, None));
        while !reg.workers[1].sleeper.is_sleeping() {
            std::thread::yield_now();
        }
        reg.wake_one_for_surplus();
        sleeper.join().unwrap(); // returns only once woken
        assert!(!reg.workers[1].sleeper.is_sleeping());
    }

    /// Under DWS the surplus wake must respect the table: no core grant,
    /// no wake — waking into an eviction would just bounce the sleeper.
    #[test]
    fn surplus_wake_needs_a_core_under_dws() {
        let (reg, _deques) = bare_registry_with(2, Policy::Dws, 2);
        let reg2 = Arc::clone(&reg);
        let sleeper = std::thread::spawn(move || reg2.park_worker(1, None));
        while !reg.workers[1].sleeper.is_sleeping() {
            std::thread::yield_now();
        }

        // Worker 1's core is home to (and used by) the co-runner: no
        // grant path exists, so the sleeper must be left alone.
        assert_eq!(reg.table.current(1), Some(1));
        reg.wake_one_for_surplus();
        assert!(reg.workers[1].sleeper.is_sleeping(), "no core, no wake");

        // The co-runner releases the core: now the wake claims it first.
        assert!(reg.table.release(1, 1));
        reg.wake_one_for_surplus();
        sleeper.join().unwrap();
        assert_eq!(reg.table.current(1), Some(0), "core granted before the wake");
    }

    /// The demand-rise edge as a state machine, driven by hand: one ring
    /// per armed edge, re-armed by the coordinator's ack, held back after
    /// a ring the pass answered with `N_w = 0`, and blocked without a ring
    /// when no core is obtainable.
    #[test]
    fn demand_edge_rings_once_per_ack_and_backs_off_after_a_false_alarm() {
        use crate::coordinator::coordinate_once;
        let (reg, deques) = bare_registry_with(2, Policy::Dws, 1);
        let rng = VictimRng::new(7);
        let rings = || reg.metrics.snapshot().demand_rings;
        assert!(reg.table.release(1, 0), "worker 1 releases its core, then parks");
        let reg2 = Arc::clone(&reg);
        let parked = std::thread::spawn(move || reg2.park_worker(1, None));
        while reg.sleepers().count() < 1 {
            std::thread::yield_now();
        }

        reg.demand_rose(0, 1);
        assert_eq!(rings(), 0, "an empty deque is no Eq. 1 demand");
        reg.demand_rose(1, 1);
        reg.demand_rose(1, 1);
        assert_eq!(rings(), 1, "one ring per armed edge");
        assert_ne!(
            reg.metrics.demand_rise_us.load(Ordering::Relaxed),
            0,
            "rise stamped at the push"
        );

        // The pass finds nothing queued: a false alarm. The edge stays
        // spent until the pass after it.
        assert_eq!(coordinate_once(&reg, &rng), 0);
        reg.demand_rose(1, 1);
        assert_eq!(rings(), 1, "no ring between a false alarm and the next pass");
        assert_eq!(coordinate_once(&reg, &rng), 0);
        reg.demand_rose(1, 1);
        assert_eq!(rings(), 2, "the next pass re-armed it");

        // A ring answered with a grant re-arms at once; with the core now
        // ours (wake in flight) there is nothing left to ring for.
        deques[0].push(noop_job());
        assert_eq!(coordinate_once(&reg, &rng), 1);
        assert_eq!(reg.table.current(1), Some(0), "the pass granted the free core");
        parked.join().unwrap();
        let reg2 = Arc::clone(&reg);
        let parked = std::thread::spawn(move || reg2.park_worker(1, None));
        while reg.sleepers().count() < 1 {
            std::thread::yield_now();
        }
        reg.demand_rose(1, 1);
        assert_eq!(rings(), 2, "blocked: no core a pass could grant");
        reg.wake_worker(1);
        parked.join().unwrap();
        assert_eq!(drain(&deques[0]), 1);
    }

    /// The surplus wake tries every sleeper, not only the first: a held
    /// core in front must not hide an obtainable one behind it.
    #[test]
    fn surplus_wake_skips_a_held_core_for_an_obtainable_one() {
        let (reg, _deques) = bare_registry_with(3, Policy::Dws, 3);
        let parked: Vec<_> = [1, 2]
            .into_iter()
            .map(|w| {
                let reg2 = Arc::clone(&reg);
                std::thread::spawn(move || reg2.park_worker(w, None))
            })
            .collect();
        while reg.sleepers().count() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(reg.sleeping_count(), 2);

        // Core 1 is held by its home program; core 2's has let go.
        assert!(reg.table.release(2, 2));
        assert!(!reg.legitimize(1, LANE_SHARED), "foreign and held: no way in");
        reg.wake_one_for_surplus();
        while reg.workers[2].sleeper.is_sleeping() {
            std::thread::yield_now();
        }
        assert_eq!(reg.table.current(2), Some(0), "worker 2 got its core, then its wake");
        assert!(reg.workers[1].sleeper.is_sleeping(), "worker 1 has no core to wake into");

        reg.wake_worker(1);
        for h in parked {
            h.join().unwrap();
        }
        assert_eq!(reg.sleeping_count(), 0);
    }
}
