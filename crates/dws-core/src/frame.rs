//! The telemetry frame: one time-series sample of a DWS program.
//!
//! The real runtime's sampler thread and the simulator both emit this
//! schema, so `dws-top`, the `--telemetry-out` JSONL sink, the Prometheus
//! exposition and any downstream tooling consume simulated and real
//! co-runs interchangeably. Field names, types and declaration order are
//! the wire format; `tests/frame.rs` pins them against a committed line.
//!
//! Which fields a simulated run leaves at zero is a property of the
//! producer, not the schema — see the table in DESIGN §9.

use serde::{Deserialize, Serialize};

/// Owner of one core at sample time (`-1` = free).
pub type CoreOwner = i64;

/// One core's slot in a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreSample {
    /// Core index.
    pub core: usize,
    /// Home program under the initial equipartition.
    pub home: usize,
    /// Current owner, or `-1` when free.
    pub owner: CoreOwner,
}

/// One worker's state in a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerSample {
    /// Worker index.
    pub worker: usize,
    /// Is the worker asleep right now?
    pub asleep: bool,
    /// Jobs queued in the worker's deque.
    pub queue: usize,
}

/// The coordinator's most recent §3.3 evaluation: Eq. 1 inputs, the plan,
/// and what actually happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CoordSample {
    /// Queued jobs observed (`N_b`).
    pub n_b: u64,
    /// Active workers observed (`N_a`).
    pub n_a: u64,
    /// Free cores observed (`N_f`).
    pub n_f: u64,
    /// Reclaimable home cores observed (`N_r`).
    pub n_r: u64,
    /// Eq. 1 wake target (`N_w`, clamped to sleepers).
    pub n_w: u64,
    /// Cores the plan takes from the free pool.
    pub planned_free: u64,
    /// Cores the plan reclaims.
    pub planned_reclaim: u64,
    /// Wakes actually delivered (CAS races can lose grants).
    pub woken: u64,
    /// Total coordinator evaluations so far (monotone).
    pub decisions: u64,
}

/// Monotone counters at sample time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CounterSample {
    /// Successful steals.
    pub steals_ok: u64,
    /// Failed steal attempts.
    pub steals_failed: u64,
    /// Jobs executed to completion.
    pub jobs_executed: u64,
    /// Worker sleeps.
    pub sleeps: u64,
    /// Worker wakes.
    pub wakes: u64,
    /// Idle yields.
    pub yields: u64,
    /// Coordinator invocations.
    pub coordinator_runs: u64,
    /// Free cores acquired from the table.
    pub cores_acquired: u64,
    /// Home cores reclaimed from co-runners.
    pub cores_reclaimed: u64,
    /// Cores released to the table on sleep.
    pub cores_released: u64,
    /// Trace events dropped on ring overflow (0 with tracing off).
    pub events_dropped: u64,
    /// Telemetry frames evicted from the frame ring to admit newer ones.
    pub frames_evicted: u64,
    /// Stranded cores reaped back from dead co-runners.
    pub cores_reaped: u64,
    /// Dead-program leases fenced by this runtime's reaper pass.
    pub leases_expired: u64,
    /// 1 when the allocation table has degraded to in-process mode
    /// (shared shm file lost or corrupted), else 0.
    pub degraded: u64,
    /// Tasks moved by successful steals. One batched steal bumps
    /// `steals_ok` once but can move several tasks; the ratio is the
    /// mean steal batch size.
    pub tasks_stolen: u64,
    /// Steal attempts that lost every CAS race against a non-empty deque
    /// (contention, not a work drought — kept out of `steals_failed`).
    pub steals_contended: u64,
    /// External requests admitted from the submission ring (serving mode;
    /// 0 otherwise).
    pub requests_admitted: u64,
    /// External requests dropped on a full submission ring.
    pub requests_dropped: u64,
    /// External requests refused for a stale client epoch.
    pub requests_fenced: u64,
    /// Ring reservations abandoned by the consumer (client died between
    /// reserve and publish).
    pub requests_abandoned: u64,
    /// Times this program found its own lease fenced/recycled (zombie
    /// fencing tripped).
    pub zombies_fenced: u64,
    /// Zombie recoveries: own lease re-armed under a bumped epoch.
    pub leases_rearmed: u64,
    /// Coordinator passes triggered by a doorbell edge instead of the
    /// polling fallback heartbeat (0 on a table backend without
    /// doorbells).
    pub doorbell_wakes: u64,
    /// `DOORBELL_DEMAND` rings the program sent its own coordinator (the
    /// push-side demand-rise edge, DESIGN §16.1). About one per fork-join
    /// region that starts with sleepers; a rate near the push rate is a
    /// ring storm.
    pub demand_rings: u64,
    /// This program's settled core-µs integral from the allocation ledger
    /// (DESIGN §14): total core time received since the ledger started.
    /// 0 when the table carries no ledger.
    pub core_us_total: u64,
}

/// Rolling latency percentiles in nanoseconds (0 when no new samples
/// arrived since the previous frame — e.g. with tracing disabled, since
/// the latency histograms only fill while tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LatencySample {
    /// Steal-attempt latency p50 over the last interval.
    pub steal_p50_ns: u64,
    /// Steal-attempt latency p99 over the last interval.
    pub steal_p99_ns: u64,
    /// Sleep duration p50 over the last interval.
    pub sleep_p50_ns: u64,
    /// Sleep duration p99 over the last interval.
    pub sleep_p99_ns: u64,
    /// Wake→first-task p50 over the last interval.
    pub wake_p50_ns: u64,
    /// Wake→first-task p99 over the last interval.
    pub wake_p99_ns: u64,
    /// Steal batch-size p50 over the last interval, as the upper
    /// power-of-two bucket bound (tasks, not ns; 0 when no steals landed
    /// — or, in `dws-rt`, when tracing is off).
    pub batch_p50_tasks: u64,
    /// Steal batch-size p99 over the last interval (tasks, not ns).
    pub batch_p99_tasks: u64,
    /// Task sojourn (spawn→exec-begin) p50 over the last interval.
    pub sojourn_p50_ns: u64,
    /// Task sojourn p99 over the last interval.
    pub sojourn_p99_ns: u64,
    /// Task sojourn p99.9 over the last interval — the straggler tail the
    /// paper's demand-aware wakeups are meant to shorten.
    pub sojourn_p999_ns: u64,
    /// End-to-end request sojourn (client submit→exec-begin) p50 over the
    /// last interval. Fills only in serving mode with tracing on.
    pub request_p50_ns: u64,
    /// Request sojourn p99 over the last interval.
    pub request_p99_ns: u64,
    /// Request sojourn p99.9 over the last interval — the headline
    /// tail-latency number of the serving evaluation.
    pub request_p999_ns: u64,
    /// Demand-satisfaction latency (Eq. 1 demand rise → core grant) p50
    /// over the last interval (DESIGN §14).
    pub alloc_p50_ns: u64,
    /// Demand-satisfaction latency p99 over the last interval.
    pub alloc_p99_ns: u64,
    /// Demand-release latency (demand fall → core released) p50 over the
    /// last interval.
    pub release_p50_ns: u64,
    /// Demand-release latency p99 over the last interval.
    pub release_p99_ns: u64,
}

/// One time-series frame: everything an observer needs to render the
/// instant — core occupancy, worker states, demand/supply, counters and
/// rolling latency percentiles.
///
/// Field order is part of the wire format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryFrame {
    /// Microseconds since the process trace epoch (real time) or the
    /// simulated clock (sim).
    pub t_us: u64,
    /// Emitting program id.
    pub prog: usize,
    /// Frame sequence number (monotone per program).
    pub seq: u64,
    /// Per-core occupancy, one entry per table core.
    pub cores: Vec<CoreSample>,
    /// Per-worker state, one entry per worker.
    pub workers: Vec<WorkerSample>,
    /// Latest coordinator decision.
    pub coord: CoordSample,
    /// Monotone counters.
    pub counters: CounterSample,
    /// Rolling latency percentiles.
    pub latency: LatencySample,
}

impl TelemetryFrame {
    /// Cores currently owned by the emitting program.
    pub fn cores_owned(&self) -> usize {
        self.cores.iter().filter(|c| c.owner == self.prog as i64).count()
    }

    /// Workers currently asleep.
    pub fn workers_asleep(&self) -> usize {
        self.workers.iter().filter(|w| w.asleep).count()
    }

    /// Total queued jobs across worker deques.
    pub fn queued_jobs(&self) -> usize {
        self.workers.iter().map(|w| w.queue).sum()
    }
}

/// Serializes frames as JSON Lines, one frame per line (the
/// `--telemetry-out` sink format). Lines parse back as
/// [`TelemetryFrame`]s.
pub fn frames_to_jsonl(frames: &[TelemetryFrame]) -> String {
    let mut out = String::new();
    for f in frames {
        out.push_str(&serde_json::to_string(f).expect("frame serialization"));
        out.push('\n');
    }
    out
}
