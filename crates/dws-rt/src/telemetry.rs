//! Live telemetry: a low-overhead time-series sampler over the runtime.
//!
//! PR 1's tracing is post-mortem — rings are dumped after the run ends.
//! This module adds the *while it happens* view: a sampler thread
//! snapshots the per-worker metric shards, the core-allocation table and
//! the coordinator's latest Eq. 1 inputs every [`TelemetryConfig::tick`]
//! (a fixed sampling cadence, deliberately independent of the — possibly
//! adaptive — coordinator period) into a bounded ring of
//! [`TelemetryFrame`]s. Frames yield per-core occupancy
//! timelines (who owns each core over time, reclaims, sleeps) and
//! *rolling* steal/wake/reclaim latency percentiles (percentiles over the
//! samples recorded since the previous frame, not merely cumulative).
//!
//! Exposure paths:
//!
//! * [`render_prometheus`] — Prometheus text exposition format, served by
//!   [`serve`] from a plain `std::net::TcpListener` (no dependencies);
//! * [`frames_to_jsonl`] — one frame per line, the `--telemetry-out`
//!   file-sink format of the harness binaries;
//! * `dws-top` (in `dws-harness`) — a live ANSI terminal view.
//!
//! The frame schema itself lives in [`dws_core::frame`] (re-exported
//! here), the one definition `dws-sim` emits too, so simulated and real
//! co-runs are interchangeable downstream.
//!
//! Overhead budget: sampling is off the hot path entirely — the sampler
//! thread reads the same relaxed atomics the workers write, at 100 Hz.
//! One frame costs one pass over `k` table slots plus `w` shard
//! snapshots; with telemetry disabled no thread is spawned and the only
//! residual cost is the coordinator's per-period decision publish (a
//! handful of relaxed stores every 10 ms).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::metrics::AggregatedHistograms;
use crate::registry::Registry;
use crate::trace::now_us;

pub use dws_core::frame::{
    frames_to_jsonl, CoordSample, CoreOwner, CoreSample, CounterSample, LatencySample,
    TelemetryFrame, WorkerSample,
};

/// The coordinator's published decision: a tiny seqlock'd cell the
/// sampler (and exposition endpoint) read without ever blocking the
/// coordinator.
#[derive(Debug, Default)]
pub(crate) struct DecisionCell {
    seq: AtomicU64,
    n_b: AtomicU64,
    n_a: AtomicU64,
    n_f: AtomicU64,
    n_r: AtomicU64,
    n_w: AtomicU64,
    planned_free: AtomicU64,
    planned_reclaim: AtomicU64,
    woken: AtomicU64,
    decisions: AtomicU64,
    knob_t_sleep: AtomicU64,
    knob_period_us: AtomicU64,
    knob_steal_batch: AtomicU64,
}

impl DecisionCell {
    /// Publishes one decision (coordinator thread only). The odd/even
    /// seqlock keeps readers from observing a half-written decision.
    pub(crate) fn publish(&self, d: CoordSample) {
        self.seq.fetch_add(1, Ordering::AcqRel); // odd: write in progress
        self.n_b.store(d.n_b, Ordering::Relaxed);
        self.n_a.store(d.n_a, Ordering::Relaxed);
        self.n_f.store(d.n_f, Ordering::Relaxed);
        self.n_r.store(d.n_r, Ordering::Relaxed);
        self.n_w.store(d.n_w, Ordering::Relaxed);
        self.planned_free.store(d.planned_free, Ordering::Relaxed);
        self.planned_reclaim.store(d.planned_reclaim, Ordering::Relaxed);
        self.woken.store(d.woken, Ordering::Relaxed);
        self.knob_t_sleep.store(d.knob_t_sleep, Ordering::Relaxed);
        self.knob_period_us.store(d.knob_period_us, Ordering::Relaxed);
        self.knob_steal_batch.store(d.knob_steal_batch, Ordering::Relaxed);
        self.decisions.fetch_add(1, Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::AcqRel); // even: published
    }

    /// Reads the latest decision; retries while a publish is in flight.
    pub(crate) fn load(&self) -> CoordSample {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let d = CoordSample {
                n_b: self.n_b.load(Ordering::Relaxed),
                n_a: self.n_a.load(Ordering::Relaxed),
                n_f: self.n_f.load(Ordering::Relaxed),
                n_r: self.n_r.load(Ordering::Relaxed),
                n_w: self.n_w.load(Ordering::Relaxed),
                planned_free: self.planned_free.load(Ordering::Relaxed),
                planned_reclaim: self.planned_reclaim.load(Ordering::Relaxed),
                woken: self.woken.load(Ordering::Relaxed),
                decisions: self.decisions.load(Ordering::Relaxed),
                knob_t_sleep: self.knob_t_sleep.load(Ordering::Relaxed),
                knob_period_us: self.knob_period_us.load(Ordering::Relaxed),
                knob_steal_batch: self.knob_steal_batch.load(Ordering::Relaxed),
            };
            if self.seq.load(Ordering::Acquire) == s1 {
                return d;
            }
        }
    }
}

/// Per-runtime telemetry state: the frame ring plus the coordinator's
/// decision cell. Always present on the registry (a few hundred bytes);
/// the sampler thread only exists when telemetry is enabled.
#[derive(Debug)]
pub(crate) struct TelemetryState {
    /// Latest coordinator decision (written every period).
    pub(crate) decision: DecisionCell,
    /// Bounded ring of recent frames; oldest evicted first.
    frames: Mutex<std::collections::VecDeque<Arc<TelemetryFrame>>>,
    capacity: usize,
    evicted: AtomicU64,
    next_seq: AtomicU64,
}

impl TelemetryState {
    pub(crate) fn new(capacity: usize) -> Self {
        TelemetryState {
            decision: DecisionCell::default(),
            frames: Mutex::new(std::collections::VecDeque::new()),
            capacity: capacity.max(1),
            evicted: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
        }
    }

    fn push(&self, frame: TelemetryFrame) {
        let mut q = self.frames.lock();
        if q.len() >= self.capacity {
            q.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(Arc::new(frame));
    }

    fn latest(&self) -> Option<Arc<TelemetryFrame>> {
        self.frames.lock().back().cloned()
    }

    fn all(&self) -> Vec<Arc<TelemetryFrame>> {
        self.frames.lock().iter().cloned().collect()
    }

    fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// Builds one frame from live registry state. `prev` carries the
/// aggregated histograms of the previous frame for the rolling
/// percentiles; pass `None` for cumulative-since-start.
pub(crate) fn sample_frame(reg: &Registry, prev: Option<&AggregatedHistograms>) -> TelemetryFrame {
    let table = &*reg.table;
    let prog = reg.prog_id;
    let owners = table.owners();
    let cores = owners
        .iter()
        .enumerate()
        .map(|(core, &owner)| CoreSample { core, home: table.home(core), owner })
        .collect();
    let workers = (0..reg.workers.len())
        .map(|w| WorkerSample {
            worker: w,
            asleep: reg.workers[w].sleeper.is_sleeping(),
            queue: reg.workers[w].stealer.len(),
        })
        .collect();
    let snap = reg.metrics.snapshot();
    let trace_dropped = reg.trace.dropped();
    let counters = CounterSample {
        steals_ok: snap.steals_ok,
        steals_failed: snap.steals_failed,
        jobs_executed: snap.jobs_executed,
        sleeps: snap.sleeps,
        wakes: snap.wakes,
        yields: snap.yields,
        coordinator_runs: snap.coordinator_runs,
        cores_acquired: snap.cores_acquired,
        cores_reclaimed: snap.cores_reclaimed,
        cores_released: snap.cores_released,
        events_dropped: trace_dropped,
        frames_evicted: reg.telemetry.evicted(),
        cores_reaped: snap.cores_reaped,
        leases_expired: snap.leases_expired,
        degraded: table.degraded() as u64,
        tasks_stolen: snap.tasks_stolen,
        steals_contended: snap.steals_contended,
        requests_admitted: snap.requests_admitted,
        requests_dropped: snap.requests_dropped,
        requests_fenced: snap.requests_fenced,
        requests_abandoned: snap.requests_abandoned,
        zombies_fenced: snap.zombies_fenced,
        leases_rearmed: snap.leases_rearmed,
        doorbell_wakes: snap.doorbell_wakes,
        demand_rings: snap.demand_rings,
        core_us_total: table
            .alloc_ledger()
            .map_or(0, |ledger| ledger.snapshot().core_us.get(prog).copied().unwrap_or(0)),
    };
    let hist = reg.metrics.aggregated_histograms();
    let window = match prev {
        Some(p) => AggregatedHistograms {
            steal_latency: hist.steal_latency.saturating_diff(&p.steal_latency),
            sleep_duration: hist.sleep_duration.saturating_diff(&p.sleep_duration),
            wake_to_first_task: hist.wake_to_first_task.saturating_diff(&p.wake_to_first_task),
            steal_batch: hist.steal_batch.saturating_diff(&p.steal_batch),
            task_sojourn: hist.task_sojourn.saturating_diff(&p.task_sojourn),
            request_sojourn: hist.request_sojourn.saturating_diff(&p.request_sojourn),
            alloc_latency: hist.alloc_latency.saturating_diff(&p.alloc_latency),
            release_latency: hist.release_latency.saturating_diff(&p.release_latency),
        },
        None => hist,
    };
    let q = |h: &crate::metrics::HistogramSnapshot, q: f64| h.quantile_ns(q).unwrap_or(0);
    let latency = LatencySample {
        steal_p50_ns: q(&window.steal_latency, 0.5),
        steal_p99_ns: q(&window.steal_latency, 0.99),
        sleep_p50_ns: q(&window.sleep_duration, 0.5),
        sleep_p99_ns: q(&window.sleep_duration, 0.99),
        wake_p50_ns: q(&window.wake_to_first_task, 0.5),
        wake_p99_ns: q(&window.wake_to_first_task, 0.99),
        batch_p50_tasks: q(&window.steal_batch, 0.5),
        batch_p99_tasks: q(&window.steal_batch, 0.99),
        sojourn_p50_ns: q(&window.task_sojourn, 0.5),
        sojourn_p99_ns: q(&window.task_sojourn, 0.99),
        sojourn_p999_ns: q(&window.task_sojourn, 0.999),
        request_p50_ns: q(&window.request_sojourn, 0.5),
        request_p99_ns: q(&window.request_sojourn, 0.99),
        request_p999_ns: q(&window.request_sojourn, 0.999),
        alloc_p50_ns: q(&window.alloc_latency, 0.5),
        alloc_p99_ns: q(&window.alloc_latency, 0.99),
        release_p50_ns: q(&window.release_latency, 0.5),
        release_p99_ns: q(&window.release_latency, 0.99),
    };
    TelemetryFrame {
        t_us: now_us(),
        prog,
        seq: reg.telemetry.next_seq.fetch_add(1, Ordering::Relaxed),
        cores,
        workers,
        coord: reg.telemetry.decision.load(),
        counters,
        latency,
    }
}

/// The sampler thread body: one frame every `tick` until shutdown, plus a
/// final frame so short runs always leave at least one.
pub(crate) fn sampler_loop(reg: Arc<Registry>) {
    let tick = reg.config.telemetry.tick.max(Duration::from_micros(100));
    let chunk = tick.min(Duration::from_millis(50));
    let mut prev: Option<AggregatedHistograms> = None;
    loop {
        let frame = sample_frame(&reg, prev.as_ref());
        prev = Some(reg.metrics.aggregated_histograms());
        reg.telemetry.push(frame);
        if reg.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut slept = Duration::ZERO;
        while slept < tick {
            let step = chunk.min(tick - slept);
            std::thread::sleep(step);
            slept += step;
            if reg.shutdown.load(Ordering::Acquire) {
                // One last frame so the series covers the whole run.
                reg.telemetry.push(sample_frame(&reg, prev.as_ref()));
                return;
            }
        }
    }
}

/// A cloneable, runtime-independent view of one program's telemetry;
/// obtained from [`crate::Runtime::telemetry`]. Handles stay valid after
/// the runtime shuts down (the final frames remain readable).
#[derive(Clone)]
pub struct TelemetryHandle {
    pub(crate) reg: Arc<Registry>,
    pub(crate) label: String,
}

impl TelemetryHandle {
    /// The human label used in exposition (`prog` label value).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Program id in the shared table.
    pub fn program_id(&self) -> usize {
        self.reg.prog_id
    }

    /// The most recent sampled frame, if the sampler has produced any.
    pub fn latest(&self) -> Option<TelemetryFrame> {
        self.reg.telemetry.latest().map(|f| (*f).clone())
    }

    /// Every retained frame, oldest first.
    pub fn frames(&self) -> Vec<TelemetryFrame> {
        self.reg.telemetry.all().iter().map(|f| (**f).clone()).collect()
    }

    /// Samples a frame right now, bypassing the ring (works with the
    /// sampler disabled; percentiles are cumulative-since-start).
    pub fn sample_now(&self) -> TelemetryFrame {
        sample_frame(&self.reg, None)
    }

    /// Latest sampled frame, or a fresh on-demand sample.
    pub fn latest_or_sample(&self) -> TelemetryFrame {
        self.latest().unwrap_or_else(|| self.sample_now())
    }
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHandle")
            .field("prog", &self.reg.prog_id)
            .field("label", &self.label)
            .finish()
    }
}

/// Escapes a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n` (the text exposition format's three escapes).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes Prometheus HELP text (`\` and newline only — quotes are legal
/// there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The Content-Type of the text exposition format.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

struct PromWriter {
    out: String,
}

impl PromWriter {
    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str(&format!("# HELP {name} {}\n", escape_help(help)));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    fn line(&mut self, name: &str, labels: &[(&str, &str)], value: impl std::fmt::Display) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(&format!("{k}=\"{}\"", escape_label_value(v)));
            }
            self.out.push('}');
        }
        self.out.push_str(&format!(" {value}\n"));
    }
}

/// A metric row in the exposition tables below: name, HELP text, getter.
type CounterMetric = (&'static str, &'static str, fn(&CounterSample) -> u64);
type CoordMetric = (&'static str, &'static str, fn(&CoordSample) -> u64);
/// As above plus the `quantile` label value.
type LatencyMetric = (&'static str, &'static str, fn(&LatencySample) -> u64, &'static str);

/// Renders Prometheus text exposition for one or more programs' latest
/// frames. Every series carries a `prog` label (the handle's display
/// label, escaped); per-core and per-worker gauges add `core` / `worker`
/// labels.
pub fn render_prometheus(frames: &[(String, TelemetryFrame)]) -> String {
    let mut w = PromWriter { out: String::new() };

    let counters: [CounterMetric; 23] = [
        ("dws_steals_ok_total", "Successful steals.", |c| c.steals_ok),
        ("dws_steals_failed_total", "Failed steal attempts.", |c| c.steals_failed),
        (
            "dws_steals_contended_total",
            "Steal attempts that lost every CAS race against a non-empty deque.",
            |c| c.steals_contended,
        ),
        ("dws_tasks_stolen_total", "Tasks moved by successful (possibly batched) steals.", |c| {
            c.tasks_stolen
        }),
        ("dws_jobs_executed_total", "Jobs executed to completion.", |c| c.jobs_executed),
        ("dws_sleeps_total", "Times a worker went to sleep.", |c| c.sleeps),
        ("dws_wakes_total", "Times a worker woke.", |c| c.wakes),
        ("dws_yields_total", "Idle sched_yields.", |c| c.yields),
        ("dws_coordinator_runs_total", "Coordinator invocations.", |c| c.coordinator_runs),
        ("dws_cores_acquired_total", "Free cores acquired from the table.", |c| c.cores_acquired),
        ("dws_cores_reclaimed_total", "Home cores reclaimed from co-runners.", |c| {
            c.cores_reclaimed
        }),
        ("dws_cores_released_total", "Cores released to the table on sleep.", |c| c.cores_released),
        ("dws_events_dropped_total", "Trace events dropped on ring overflow.", |c| {
            c.events_dropped
        }),
        ("dws_cores_reaped_total", "Stranded cores reaped from dead co-runners.", |c| {
            c.cores_reaped
        }),
        ("dws_leases_expired_total", "Dead-program leases fenced by the reaper.", |c| {
            c.leases_expired
        }),
        (
            "dws_requests_admitted_total",
            "External requests admitted from the submission ring.",
            |c| c.requests_admitted,
        ),
        (
            "dws_requests_dropped_total",
            "External requests dropped on a full submission ring.",
            |c| c.requests_dropped,
        ),
        ("dws_requests_fenced_total", "External requests refused for a stale client epoch.", |c| {
            c.requests_fenced
        }),
        (
            "dws_requests_abandoned_total",
            "Ring reservations abandoned by the consumer (client died mid-publish).",
            |c| c.requests_abandoned,
        ),
        (
            "dws_zombies_fenced_total",
            "Times the program found its own lease fenced or recycled.",
            |c| c.zombies_fenced,
        ),
        (
            "dws_leases_rearmed_total",
            "Zombie recoveries: own lease re-armed under a bumped epoch.",
            |c| c.leases_rearmed,
        ),
        (
            "dws_doorbell_wakes_total",
            "Coordinator passes triggered by a doorbell edge instead of the polling heartbeat.",
            |c| c.doorbell_wakes,
        ),
        (
            "dws_demand_rings_total",
            "Demand-rise doorbell rings the program sent its own coordinator.",
            |c| c.demand_rings,
        ),
    ];
    for (name, help, get) in counters {
        w.header(name, help, "counter");
        for (label, f) in frames {
            w.line(name, &[("prog", label)], get(&f.counters));
        }
    }

    w.header("dws_frames_evicted_total", "Telemetry frames evicted from the ring.", "counter");
    for (label, f) in frames {
        w.line("dws_frames_evicted_total", &[("prog", label)], f.counters.frames_evicted);
    }

    w.header(
        "dws_core_seconds_total",
        "Core-seconds received by the program per the allocation ledger (DESIGN \u{a7}14).",
        "counter",
    );
    for (label, f) in frames {
        w.line(
            "dws_core_seconds_total",
            &[("prog", label)],
            format!("{:.6}", f.counters.core_us_total as f64 / 1e6),
        );
    }

    // Jain's fairness index across the exported programs' received
    // core-time — one global gauge, not per-prog. Meaningful when the
    // programs share one ledgered table; 1.0 when nothing was measured.
    w.header(
        "dws_fairness_index",
        "Jain's fairness index across exported programs' ledger core-seconds.",
        "gauge",
    );
    let shares: Vec<f64> = frames.iter().map(|(_, f)| f.counters.core_us_total as f64).collect();
    w.line("dws_fairness_index", &[], format!("{:.6}", crate::alloc_table::jain_fairness(&shares)));

    w.header("dws_degraded", "1 when the allocation table fell back to in-process mode.", "gauge");
    for (label, f) in frames {
        w.line("dws_degraded", &[("prog", label)], f.counters.degraded);
    }

    w.header("dws_frame_seq", "Sequence number of the exported frame.", "gauge");
    for (label, f) in frames {
        w.line("dws_frame_seq", &[("prog", label)], f.seq);
    }
    w.header("dws_frame_t_us", "Frame timestamp, µs since the trace epoch.", "gauge");
    for (label, f) in frames {
        w.line("dws_frame_t_us", &[("prog", label)], f.t_us);
    }

    w.header("dws_cores_owned", "Cores currently owned by the program.", "gauge");
    for (label, f) in frames {
        w.line("dws_cores_owned", &[("prog", label)], f.cores_owned());
    }
    w.header("dws_workers_asleep", "Workers currently asleep.", "gauge");
    for (label, f) in frames {
        w.line("dws_workers_asleep", &[("prog", label)], f.workers_asleep());
    }
    w.header("dws_queued_jobs", "Jobs queued across worker deques.", "gauge");
    for (label, f) in frames {
        w.line("dws_queued_jobs", &[("prog", label)], f.queued_jobs());
    }

    w.header(
        "dws_core_owner",
        "Owner program of each table core (-1 = free). Table-global: identical across programs sharing a table.",
        "gauge",
    );
    for (label, f) in frames {
        for c in &f.cores {
            let core = c.core.to_string();
            w.line("dws_core_owner", &[("prog", label), ("core", &core)], c.owner);
        }
    }

    w.header("dws_worker_queue_depth", "Jobs queued in each worker's deque.", "gauge");
    for (label, f) in frames {
        for ws in &f.workers {
            let worker = ws.worker.to_string();
            w.line("dws_worker_queue_depth", &[("prog", label), ("worker", &worker)], ws.queue);
        }
    }
    w.header("dws_worker_asleep", "1 when the worker is asleep.", "gauge");
    for (label, f) in frames {
        for ws in &f.workers {
            let worker = ws.worker.to_string();
            w.line(
                "dws_worker_asleep",
                &[("prog", label), ("worker", &worker)],
                u64::from(ws.asleep),
            );
        }
    }

    let coords: [CoordMetric; 11] = [
        ("dws_coord_n_b", "Queued jobs observed by the coordinator (Eq. 1 N_b).", |c| c.n_b),
        ("dws_coord_n_a", "Active workers observed (Eq. 1 N_a).", |c| c.n_a),
        ("dws_coord_n_f", "Free cores observed (N_f).", |c| c.n_f),
        ("dws_coord_n_r", "Reclaimable home cores observed (N_r).", |c| c.n_r),
        ("dws_coord_n_w", "Eq. 1 wake target (N_w).", |c| c.n_w),
        ("dws_coord_planned_free", "Cores the plan takes from the free pool.", |c| c.planned_free),
        ("dws_coord_planned_reclaim", "Cores the plan reclaims.", |c| c.planned_reclaim),
        ("dws_coord_woken", "Wakes actually delivered by the last decision.", |c| c.woken),
        ("dws_knob_t_sleep", "Live T_SLEEP knob (failed steals before sleep).", |c| c.knob_t_sleep),
        ("dws_knob_period_us", "Live coordinator decision period knob, microseconds.", |c| {
            c.knob_period_us
        }),
        ("dws_knob_steal_batch", "Live steal-batch limit knob.", |c| c.knob_steal_batch),
    ];
    for (name, help, get) in coords {
        w.header(name, help, "gauge");
        for (label, f) in frames {
            w.line(name, &[("prog", label)], get(&f.coord));
        }
    }
    w.header("dws_coord_decisions_total", "Coordinator decisions published.", "counter");
    for (label, f) in frames {
        w.line("dws_coord_decisions_total", &[("prog", label)], f.coord.decisions);
    }

    let lats: [LatencyMetric; 18] = [
        ("dws_steal_latency_ns", "Rolling steal-attempt latency.", |l| l.steal_p50_ns, "0.5"),
        ("dws_steal_latency_ns", "Rolling steal-attempt latency.", |l| l.steal_p99_ns, "0.99"),
        ("dws_sleep_duration_ns", "Rolling sleep duration.", |l| l.sleep_p50_ns, "0.5"),
        ("dws_sleep_duration_ns", "Rolling sleep duration.", |l| l.sleep_p99_ns, "0.99"),
        (
            "dws_wake_to_first_task_ns",
            "Rolling wake-to-first-task latency.",
            |l| l.wake_p50_ns,
            "0.5",
        ),
        (
            "dws_wake_to_first_task_ns",
            "Rolling wake-to-first-task latency.",
            |l| l.wake_p99_ns,
            "0.99",
        ),
        (
            "dws_steal_batch_tasks",
            "Rolling steal batch size (tasks per successful steal, log2 bucket bound).",
            |l| l.batch_p50_tasks,
            "0.5",
        ),
        (
            "dws_steal_batch_tasks",
            "Rolling steal batch size (tasks per successful steal, log2 bucket bound).",
            |l| l.batch_p99_tasks,
            "0.99",
        ),
        (
            "dws_task_sojourn_ns",
            "Rolling task sojourn (spawn to exec-begin).",
            |l| l.sojourn_p50_ns,
            "0.5",
        ),
        (
            "dws_task_sojourn_ns",
            "Rolling task sojourn (spawn to exec-begin).",
            |l| l.sojourn_p99_ns,
            "0.99",
        ),
        (
            "dws_task_sojourn_ns",
            "Rolling task sojourn (spawn to exec-begin).",
            |l| l.sojourn_p999_ns,
            "0.999",
        ),
        (
            "dws_request_sojourn_ns",
            "Rolling end-to-end request sojourn (client submit to exec-begin).",
            |l| l.request_p50_ns,
            "0.5",
        ),
        (
            "dws_request_sojourn_ns",
            "Rolling end-to-end request sojourn (client submit to exec-begin).",
            |l| l.request_p99_ns,
            "0.99",
        ),
        (
            "dws_request_sojourn_ns",
            "Rolling end-to-end request sojourn (client submit to exec-begin).",
            |l| l.request_p999_ns,
            "0.999",
        ),
        (
            "dws_alloc_latency_ns",
            "Rolling demand-satisfaction latency (Eq. 1 demand rise to core grant).",
            |l| l.alloc_p50_ns,
            "0.5",
        ),
        (
            "dws_alloc_latency_ns",
            "Rolling demand-satisfaction latency (Eq. 1 demand rise to core grant).",
            |l| l.alloc_p99_ns,
            "0.99",
        ),
        (
            "dws_release_latency_ns",
            "Rolling demand-release latency (demand fall to core released).",
            |l| l.release_p50_ns,
            "0.5",
        ),
        (
            "dws_release_latency_ns",
            "Rolling demand-release latency (demand fall to core released).",
            |l| l.release_p99_ns,
            "0.99",
        ),
    ];
    let mut last_header = "";
    for (name, help, get, quantile) in lats {
        if name != last_header {
            w.header(name, help, "gauge");
            last_header = name;
        }
        for (label, f) in frames {
            w.line(name, &[("prog", label), ("quantile", quantile)], get(&f.latency));
        }
    }

    w.out
}

/// A running exposition endpoint; dropping it stops the server thread.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// The actually-bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

/// Serves the Prometheus text exposition for `handles` from a plain
/// `TcpListener` bound to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
/// port). Every HTTP request, whatever the path, receives the current
/// metrics — each program's latest sampled frame (or an on-demand sample
/// when the sampler is off).
pub fn serve(
    handles: Vec<TelemetryHandle>,
    addr: impl ToSocketAddrs,
) -> std::io::Result<TelemetryServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("dws-telemetry-http".into())
        .spawn(move || {
            while !stop2.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                        // Drain (part of) the request; the response does not
                        // depend on it.
                        let mut buf = [0u8; 1024];
                        let _ = stream.read(&mut buf);
                        let body = render_prometheus(
                            &handles
                                .iter()
                                .map(|h| (h.label().to_string(), h.latest_or_sample()))
                                .collect::<Vec<_>>(),
                        );
                        let resp = format!(
                            "HTTP/1.1 200 OK\r\nContent-Type: {PROMETHEUS_CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                            body.len()
                        );
                        let _ = stream.write_all(resp.as_bytes());
                        let _ = stream.flush();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        })
        .expect("failed to spawn telemetry server thread");
    Ok(TelemetryServer { addr, stop, thread: Some(thread) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_frame(prog: usize, seq: u64) -> TelemetryFrame {
        TelemetryFrame {
            t_us: 1000 + seq,
            prog,
            seq,
            cores: vec![
                CoreSample { core: 0, home: 0, owner: 0 },
                CoreSample { core: 1, home: 1, owner: -1 },
            ],
            workers: vec![
                WorkerSample { worker: 0, asleep: false, queue: 3 },
                WorkerSample { worker: 1, asleep: true, queue: 0 },
            ],
            coord: CoordSample { n_b: 3, n_a: 1, n_f: 1, n_r: 0, n_w: 3, ..Default::default() },
            counters: CounterSample { steals_ok: 5 + seq, ..Default::default() },
            latency: LatencySample { steal_p50_ns: 1024, ..Default::default() },
        }
    }

    #[test]
    fn label_escaping_covers_the_three_escapes() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("a\nb"), r"a\nb");
        assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
    }

    #[test]
    fn prometheus_rendering_is_well_formed_and_escaped() {
        let label = "we\"ird\\prog\nname".to_string();
        let text = render_prometheus(&[(label, tiny_frame(0, 7))]);
        // HELP/TYPE precede the first sample of each metric.
        let lines: Vec<&str> = text.lines().collect();
        let idx = lines.iter().position(|l| l.starts_with("dws_steals_ok_total{")).unwrap();
        assert!(lines[..idx].iter().any(|l| l.starts_with("# HELP dws_steals_ok_total ")));
        assert!(lines[..idx].contains(&"# TYPE dws_steals_ok_total counter"));
        // Label value is escaped — no raw newline may survive in a label.
        assert!(text.contains(r#"prog="we\"ird\\prog\nname""#));
        // Every non-comment line is `name{labels} value`.
        for l in lines.iter().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (series, value) = l.rsplit_once(' ').unwrap();
            assert!(value.parse::<f64>().is_ok(), "unparsable value in {l:?}");
            assert!(series.starts_with("dws_"), "bad series name in {l:?}");
        }
        // Per-core and per-worker series carry their index labels.
        assert!(text.contains(r#"core="1""#));
        assert!(text.contains(r#"worker="1""#));
        assert!(text.contains(r#"quantile="0.99""#));
    }

    /// Every exported sample line has a `# HELP` and `# TYPE` for its
    /// metric name earlier in the exposition — no orphaned series (the
    /// property that once silently failed for new metrics).
    #[test]
    fn prometheus_every_series_has_help_and_type() {
        let text = render_prometheus(&[("p0".into(), tiny_frame(0, 3))]);
        let mut helped: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let mut typed: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for l in text.lines() {
            if let Some(rest) = l.strip_prefix("# HELP ") {
                helped.insert(rest.split(' ').next().unwrap());
            } else if let Some(rest) = l.strip_prefix("# TYPE ") {
                typed.insert(rest.split(' ').next().unwrap());
            } else if !l.is_empty() {
                let name = l.split(['{', ' ']).next().unwrap();
                assert!(helped.contains(name), "series {name} has no preceding # HELP");
                assert!(typed.contains(name), "series {name} has no preceding # TYPE");
            }
        }
        // The contended-steal counter and the sojourn percentiles are
        // part of the exposition.
        assert!(text.contains("# TYPE dws_steals_contended_total counter"));
        assert!(text.contains("# TYPE dws_steal_batch_tasks gauge"));
        assert!(text.contains("# TYPE dws_task_sojourn_ns gauge"));
        assert!(text.contains(r#"dws_task_sojourn_ns{prog="p0",quantile="0.999"}"#));
    }

    #[test]
    fn prometheus_counters_are_monotone_across_frames() {
        let f1 = tiny_frame(0, 0);
        let f2 = tiny_frame(0, 1); // steals_ok bumped by seq
        let parse = |text: &str| -> Vec<(String, f64)> {
            text.lines()
                .filter(|l| !l.starts_with('#') && l.contains("_total"))
                .map(|l| {
                    let (series, value) = l.rsplit_once(' ').unwrap();
                    (series.to_string(), value.parse::<f64>().unwrap())
                })
                .collect()
        };
        let a = parse(&render_prometheus(&[("p0".into(), f1)]));
        let b = parse(&render_prometheus(&[("p0".into(), f2)]));
        assert_eq!(a.len(), b.len());
        for ((s1, v1), (s2, v2)) in a.iter().zip(&b) {
            assert_eq!(s1, s2, "series sets must match across snapshots");
            assert!(v2 >= v1, "counter {s1} regressed: {v1} -> {v2}");
        }
    }

    #[test]
    fn decision_cell_round_trips() {
        let cell = DecisionCell::default();
        assert_eq!(cell.load(), CoordSample::default());
        cell.publish(CoordSample { n_b: 9, n_a: 3, n_f: 1, n_r: 2, n_w: 3, ..Default::default() });
        let d = cell.load();
        assert_eq!((d.n_b, d.n_a, d.n_f, d.n_r, d.n_w), (9, 3, 1, 2, 3));
        assert_eq!(d.decisions, 1);
        cell.publish(CoordSample { n_b: 1, ..Default::default() });
        assert_eq!(cell.load().decisions, 2);
    }

    #[test]
    fn telemetry_state_ring_evicts_oldest() {
        let st = TelemetryState::new(2);
        for i in 0..4 {
            st.push(tiny_frame(0, i));
        }
        let frames = st.all();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].seq, 2);
        assert_eq!(frames[1].seq, 3);
        assert_eq!(st.evicted(), 2);
        assert_eq!(st.latest().unwrap().seq, 3);
    }
}
