//! Runtime counters, shared lock-free between workers, the coordinator
//! and observers.
//!
//! Two granularities coexist:
//!
//! * the original ten aggregate counters ([`RtMetrics`]'s atomic fields,
//!   snapshotted into the `Copy` [`MetricsSnapshot`]) — always on, cheap;
//! * per-worker shards ([`WorkerMetrics`]) adding log₂-scale latency
//!   histograms (steal-attempt latency, sleep duration, wake→first-task)
//!   — populated only while tracing is enabled, aggregated on snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets: covers 1 ns .. ~18 s of nanosecond samples
/// (bucket `i` holds values in `[2^i, 2^{i+1})` ns; 0 falls in bucket 0).
pub const HIST_BUCKETS: usize = 35;

/// A lock-free log₂-scale histogram of nanosecond samples.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LogHistogram {
    /// Bucket index for a nanosecond sample.
    #[inline]
    fn bucket(ns: u64) -> usize {
        (63 - u64::leading_zeros(ns | 1) as usize).min(HIST_BUCKETS - 1)
    }

    /// Records one nanosecond sample (relaxed; statistics only).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] sample.
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Plain-value copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Plain-value histogram: `counts[i]` samples fell in `[2^i, 2^{i+1})` ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub counts: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { counts: [0; HIST_BUCKETS] }
    }
}

impl HistogramSnapshot {
    /// Total samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Per-bucket difference against an `earlier` snapshot of the same
    /// histogram — the samples recorded in between. Saturating, so a
    /// mismatched (non-prefix) pair degrades to zeros instead of wrapping;
    /// used for rolling-window percentiles in [`crate::telemetry`].
    pub fn saturating_diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].saturating_sub(earlier.counts[i])),
        }
    }

    /// Upper bound (ns, exclusive) of bucket `i`.
    pub fn bucket_upper_ns(i: usize) -> u64 {
        1u64 << (i + 1)
    }

    /// Approximate `q`-quantile in nanoseconds (upper bucket bound of the
    /// sample at rank `q·N`), or `None` when empty. `q` clamped to `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper_ns(i));
            }
        }
        Some(Self::bucket_upper_ns(HIST_BUCKETS - 1))
    }

    /// Geometric-midpoint weighted mean in nanoseconds (coarse, for
    /// reports), or `None` when empty.
    pub fn mean_ns(&self) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let sum: f64 =
            self.counts.iter().enumerate().map(|(i, &c)| c as f64 * 1.5 * (1u64 << i) as f64).sum();
        Some(sum / total as f64)
    }
}

/// One worker's metrics shard: counters plus latency histograms. Shards
/// are written only by their own worker (no contention) and read by
/// snapshot aggregation.
///
/// Consistency: a worker records *batches* of related updates (e.g. a
/// steal outcome counter plus its latency sample) inside a
/// [`WorkerMetrics::write_section`]; [`WorkerMetrics::snapshot`] uses the
/// shard's seqlock to avoid reading a batch halfway through, so merged
/// snapshots never double-count or tear a shard mid-write.
#[derive(Debug, Default)]
pub struct WorkerMetrics {
    /// Seqlock word: odd while the owning worker is inside a write
    /// section, bumped to the next even value on exit.
    seq: AtomicU64,
    /// Successful steals by this worker.
    pub steals_ok: AtomicU64,
    /// Failed steal attempts by this worker.
    pub steals_failed: AtomicU64,
    /// Steal attempts that ended contended (`Steal::Retry` after the
    /// bounded same-victim retries) — neither a hit nor a miss.
    pub steals_contended: AtomicU64,
    /// Tasks moved by this worker's successful steals. With batching one
    /// steal operation (`steals_ok += 1`) can transfer several tasks; the
    /// ratio `tasks_stolen / steals_ok` is the mean batch size.
    pub tasks_stolen: AtomicU64,
    /// Jobs this worker executed.
    pub jobs_executed: AtomicU64,
    /// Times this worker slept.
    pub sleeps: AtomicU64,
    /// Times this worker woke.
    pub wakes: AtomicU64,
    /// Latency of individual steal attempts (hit or miss).
    pub steal_latency: LogHistogram,
    /// How long each sleep lasted.
    pub sleep_duration: LogHistogram,
    /// Wake to first executed task.
    pub wake_to_first_task: LogHistogram,
    /// Batch size of each successful steal (a *count* histogram: bucket
    /// `i` holds transfers of `[2^i, 2^{i+1})` tasks, not nanoseconds).
    pub steal_batch: LogHistogram,
    /// Deque-sojourn time of each task this worker executed: spawn →
    /// exec-begin, the time the task sat queued (possibly across batch
    /// moves) before running. Fills only while tracing is on.
    pub task_sojourn: LogHistogram,
    /// End-to-end request sojourn of externally submitted requests this
    /// worker executed: client submit → exec-begin, one hop earlier than
    /// `task_sojourn` (it includes the time spent in the submission ring
    /// before the coordinator drained it). Fills only in serving mode.
    pub request_sojourn: LogHistogram,
}

/// Plain-value copy of one worker's shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerMetricsSnapshot {
    /// Successful steals.
    pub steals_ok: u64,
    /// Failed steal attempts.
    pub steals_failed: u64,
    /// Contended steal attempts (lost CAS races after retries).
    pub steals_contended: u64,
    /// Tasks moved by successful steals.
    pub tasks_stolen: u64,
    /// Jobs executed.
    pub jobs_executed: u64,
    /// Sleeps.
    pub sleeps: u64,
    /// Wakes.
    pub wakes: u64,
    /// Steal-attempt latency histogram.
    pub steal_latency: HistogramSnapshot,
    /// Sleep-duration histogram.
    pub sleep_duration: HistogramSnapshot,
    /// Wake→first-task histogram.
    pub wake_to_first_task: HistogramSnapshot,
    /// Steal batch-size histogram (task counts, not nanoseconds).
    pub steal_batch: HistogramSnapshot,
    /// Task deque-sojourn histogram (spawn → exec-begin, ns).
    pub task_sojourn: HistogramSnapshot,
    /// End-to-end request-sojourn histogram (submit → exec-begin, ns).
    pub request_sojourn: HistogramSnapshot,
}

/// RAII guard marking the owning worker's multi-field update in flight;
/// created by [`WorkerMetrics::write_section`].
#[must_use = "the write section ends when the guard drops"]
pub struct ShardWriteGuard<'a> {
    seq: &'a AtomicU64,
}

impl Drop for ShardWriteGuard<'_> {
    fn drop(&mut self) {
        self.seq.fetch_add(1, Ordering::AcqRel); // back to even: published
    }
}

impl WorkerMetrics {
    /// Enters a write section (owning worker only). Batched updates made
    /// while the guard lives are seen atomically by [`snapshot`]
    /// (`snapshot` retries while the section is open). Sections must stay
    /// short and panic-free: a handful of counter bumps and histogram
    /// records, never a sleep or a syscall.
    ///
    /// [`snapshot`]: WorkerMetrics::snapshot
    #[inline]
    pub fn write_section(&self) -> ShardWriteGuard<'_> {
        self.seq.fetch_add(1, Ordering::AcqRel); // odd: write in progress
        ShardWriteGuard { seq: &self.seq }
    }

    fn read_fields(&self) -> WorkerMetricsSnapshot {
        WorkerMetricsSnapshot {
            steals_ok: self.steals_ok.load(Ordering::Relaxed),
            steals_failed: self.steals_failed.load(Ordering::Relaxed),
            steals_contended: self.steals_contended.load(Ordering::Relaxed),
            tasks_stolen: self.tasks_stolen.load(Ordering::Relaxed),
            jobs_executed: self.jobs_executed.load(Ordering::Relaxed),
            sleeps: self.sleeps.load(Ordering::Relaxed),
            wakes: self.wakes.load(Ordering::Relaxed),
            steal_latency: self.steal_latency.snapshot(),
            sleep_duration: self.sleep_duration.snapshot(),
            wake_to_first_task: self.wake_to_first_task.snapshot(),
            steal_batch: self.steal_batch.snapshot(),
            task_sojourn: self.task_sojourn.snapshot(),
            request_sojourn: self.request_sojourn.snapshot(),
        }
    }

    /// Plain-value copy, consistent with respect to
    /// [`WorkerMetrics::write_section`] batches: the standard seqlock read
    /// loop, retrying while the owning worker is mid-section (yielding
    /// after a burst of failed spins so a descheduled writer does not burn
    /// a core). Write sections are a few relaxed stores, so in practice
    /// one retry suffices.
    pub fn snapshot(&self) -> WorkerMetricsSnapshot {
        let mut spins = 0u32;
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let snap = self.read_fields();
                std::sync::atomic::fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return snap;
                }
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Aggregated counters for one runtime instance. All methods are safe to
/// call concurrently; reads are monotone snapshots.
#[derive(Debug, Default)]
pub struct RtMetrics {
    /// Successful steals.
    pub steals_ok: AtomicU64,
    /// Failed steal attempts.
    pub steals_failed: AtomicU64,
    /// Steal attempts that gave up contended (`Steal::Retry` after the
    /// bounded retries): neither a hit nor a miss, so counted apart.
    pub steals_contended: AtomicU64,
    /// Tasks moved by successful steals (batching makes this ≥ `steals_ok`).
    pub tasks_stolen: AtomicU64,
    /// Times a worker went to sleep.
    pub sleeps: AtomicU64,
    /// Times a worker was woken (coordinator or timeout).
    pub wakes: AtomicU64,
    /// `sched_yield`s performed by idle workers.
    pub yields: AtomicU64,
    /// Jobs executed to completion.
    pub jobs_executed: AtomicU64,
    /// Coordinator invocations.
    pub coordinator_runs: AtomicU64,
    /// Free cores acquired from the table.
    pub cores_acquired: AtomicU64,
    /// Home cores reclaimed from other programs.
    pub cores_reclaimed: AtomicU64,
    /// Cores released to the table on sleep.
    pub cores_released: AtomicU64,
    /// Stranded cores reaped back from dead co-runners.
    pub cores_reaped: AtomicU64,
    /// Dead-program leases fenced by this runtime's reaper pass.
    pub leases_expired: AtomicU64,
    /// Coordinator ticks that overran their own watchdog deadline
    /// (3× the configured period) — a self-report of scheduling stalls.
    pub coordinator_stalls: AtomicU64,
    /// External requests the coordinator drained from the submission ring
    /// into the injector (serving mode only).
    pub requests_admitted: AtomicU64,
    /// Client submissions rejected because the ring was full, mirrored
    /// from the ring's own counter so one snapshot carries both sides.
    pub requests_dropped: AtomicU64,
    /// Client submissions rejected by epoch fencing (stale clients after
    /// a crash/re-register), mirrored from the ring's counter.
    pub requests_fenced: AtomicU64,
    /// Reserved-but-never-published ring slots the consumer abandoned
    /// (client died mid-publish), mirrored from the ring's counter.
    pub requests_abandoned: AtomicU64,
    /// Times this runtime discovered its own lease fenced/recycled while
    /// it was stalled (zombie fencing tripped).
    pub zombies_fenced: AtomicU64,
    /// Zombie recoveries: own lease successfully re-armed under a bumped
    /// epoch after a fence.
    pub leases_rearmed: AtomicU64,
    /// Coordinator passes triggered by an edge (doorbell ring) rather than
    /// the polling heartbeat — the event-driven control plane at work.
    pub doorbell_wakes: AtomicU64,
    /// `DOORBELL_DEMAND` rings this program sent its own coordinator: the
    /// push-side demand-rise edge plus the injector's all-asleep,
    /// no-core-obtainable fallback (DESIGN §16.1). About one per
    /// fork-join region that starts with sleepers; many more is a storm.
    pub demand_rings: AtomicU64,
    /// Demand-satisfaction latency (DESIGN §14): Eq. 1 demand rise (the
    /// push that first saw it, else the pass that did) → the coordinator
    /// granting at least one core. Runtime-level (recorded only by the
    /// coordinator thread), not per-shard.
    pub alloc_latency: LogHistogram,
    /// Demand-release latency: Eq. 1 demand fall (`N_w == 0` first
    /// observed with cores to spare) → a core actually released back to
    /// the table for the co-runner (sleep path).
    pub release_latency: LogHistogram,
    /// Pending demand-rise timestamp (µs since trace epoch; 0 = none).
    /// Set when demand first rises (push edge or coordinator pass),
    /// cleared when the matching grant lands or demand falls away.
    pub demand_rise_us: AtomicU64,
    /// Pending demand-fall timestamp (µs since trace epoch; 0 = none).
    /// Set by the coordinator when demand falls, cleared by the first
    /// subsequent core release.
    pub demand_fall_us: AtomicU64,
    /// Per-worker shards (empty unless built via [`RtMetrics::with_workers`]).
    pub workers: Vec<WorkerMetrics>,
}

/// A plain-value snapshot of [`RtMetrics`]'s aggregate counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Successful steals.
    pub steals_ok: u64,
    /// Failed steal attempts.
    pub steals_failed: u64,
    /// Worker sleeps.
    pub sleeps: u64,
    /// Worker wakes.
    pub wakes: u64,
    /// Idle yields.
    pub yields: u64,
    /// Jobs executed.
    pub jobs_executed: u64,
    /// Coordinator invocations.
    pub coordinator_runs: u64,
    /// Free cores acquired.
    pub cores_acquired: u64,
    /// Home cores reclaimed.
    pub cores_reclaimed: u64,
    /// Cores released on sleep.
    pub cores_released: u64,
    /// Stranded cores reaped from dead co-runners.
    pub cores_reaped: u64,
    /// Dead-program leases fenced by the reaper pass.
    pub leases_expired: u64,
    /// Coordinator ticks that overran the watchdog deadline.
    pub coordinator_stalls: u64,
    /// Tasks moved by successful steals.
    pub tasks_stolen: u64,
    /// Contended steal attempts (lost CAS races after retries).
    pub steals_contended: u64,
    /// External requests drained into the injector (serving mode).
    pub requests_admitted: u64,
    /// Submissions rejected ring-full (mirrored from the ring).
    pub requests_dropped: u64,
    /// Submissions rejected by epoch fencing (mirrored from the ring).
    pub requests_fenced: u64,
    /// Abandoned mid-publish reservations (mirrored from the ring).
    pub requests_abandoned: u64,
    /// Own-lease fence discoveries (zombie fencing tripped).
    pub zombies_fenced: u64,
    /// Successful zombie recoveries (lease re-armed, epoch bumped).
    pub leases_rearmed: u64,
    /// Coordinator passes triggered by a doorbell edge.
    pub doorbell_wakes: u64,
    /// `DOORBELL_DEMAND` rings sent to the program's own coordinator.
    pub demand_rings: u64,
}

/// Histograms aggregated across all worker shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggregatedHistograms {
    /// Steal-attempt latency across all workers.
    pub steal_latency: HistogramSnapshot,
    /// Sleep duration across all workers.
    pub sleep_duration: HistogramSnapshot,
    /// Wake→first-task across all workers.
    pub wake_to_first_task: HistogramSnapshot,
    /// Steal batch sizes across all workers (task counts, not ns).
    pub steal_batch: HistogramSnapshot,
    /// Task deque-sojourn times across all workers (spawn → exec-begin).
    pub task_sojourn: HistogramSnapshot,
    /// End-to-end request sojourns across all workers (submit → exec-begin).
    pub request_sojourn: HistogramSnapshot,
    /// Demand-satisfaction latency (demand rise → core grant). Written at
    /// coordinator cadence, so runtime-level rather than sharded.
    pub alloc_latency: HistogramSnapshot,
    /// Demand-release latency (demand fall → core released).
    pub release_latency: HistogramSnapshot,
}

impl RtMetrics {
    /// Metrics with `n` per-worker shards.
    pub fn with_workers(n: usize) -> Self {
        RtMetrics {
            workers: (0..n).map(|_| WorkerMetrics::default()).collect(),
            ..RtMetrics::default()
        }
    }

    /// Bumps a counter by one. All counters use relaxed ordering: they are
    /// statistics, not synchronization.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter, skipping the RMW entirely when `n == 0`
    /// (the common case for per-tick reap accounting).
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        if n != 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            steals_ok: self.steals_ok.load(Ordering::Relaxed),
            steals_failed: self.steals_failed.load(Ordering::Relaxed),
            sleeps: self.sleeps.load(Ordering::Relaxed),
            wakes: self.wakes.load(Ordering::Relaxed),
            yields: self.yields.load(Ordering::Relaxed),
            jobs_executed: self.jobs_executed.load(Ordering::Relaxed),
            coordinator_runs: self.coordinator_runs.load(Ordering::Relaxed),
            cores_acquired: self.cores_acquired.load(Ordering::Relaxed),
            cores_reclaimed: self.cores_reclaimed.load(Ordering::Relaxed),
            cores_released: self.cores_released.load(Ordering::Relaxed),
            cores_reaped: self.cores_reaped.load(Ordering::Relaxed),
            leases_expired: self.leases_expired.load(Ordering::Relaxed),
            coordinator_stalls: self.coordinator_stalls.load(Ordering::Relaxed),
            tasks_stolen: self.tasks_stolen.load(Ordering::Relaxed),
            steals_contended: self.steals_contended.load(Ordering::Relaxed),
            requests_admitted: self.requests_admitted.load(Ordering::Relaxed),
            requests_dropped: self.requests_dropped.load(Ordering::Relaxed),
            requests_fenced: self.requests_fenced.load(Ordering::Relaxed),
            requests_abandoned: self.requests_abandoned.load(Ordering::Relaxed),
            zombies_fenced: self.zombies_fenced.load(Ordering::Relaxed),
            leases_rearmed: self.leases_rearmed.load(Ordering::Relaxed),
            doorbell_wakes: self.doorbell_wakes.load(Ordering::Relaxed),
            demand_rings: self.demand_rings.load(Ordering::Relaxed),
        }
    }

    /// Plain-value copies of every worker shard.
    pub fn worker_snapshots(&self) -> Vec<WorkerMetricsSnapshot> {
        self.workers.iter().map(WorkerMetrics::snapshot).collect()
    }

    /// Histograms merged across all worker shards. Each shard is read
    /// through its seqlock-consistent [`WorkerMetrics::snapshot`], so a
    /// shard mid-batch is never merged half-written.
    pub fn aggregated_histograms(&self) -> AggregatedHistograms {
        let mut agg = AggregatedHistograms::default();
        for w in &self.workers {
            let s = w.snapshot();
            agg.steal_latency.merge(&s.steal_latency);
            agg.sleep_duration.merge(&s.sleep_duration);
            agg.wake_to_first_task.merge(&s.wake_to_first_task);
            agg.steal_batch.merge(&s.steal_batch);
            agg.task_sojourn.merge(&s.task_sojourn);
            agg.request_sojourn.merge(&s.request_sojourn);
        }
        agg.alloc_latency = self.alloc_latency.snapshot();
        agg.release_latency = self.release_latency.snapshot();
        agg
    }

    /// Records a demand rise at `now_us` if none is already pending. The
    /// stamp survives ticks where the demand persists unmet, so the
    /// measured latency spans the full wait.
    #[inline]
    pub fn note_demand_rise(&self, now_us: u64) {
        let _ = self.demand_rise_us.compare_exchange(
            0,
            now_us.max(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// A grant landed at `now_us`: closes any pending demand rise into
    /// [`RtMetrics::alloc_latency`].
    #[inline]
    pub fn note_demand_met(&self, now_us: u64) {
        let rise = self.demand_rise_us.swap(0, Ordering::Relaxed);
        if rise != 0 {
            self.alloc_latency.record_ns(now_us.saturating_sub(rise).saturating_mul(1_000));
        }
    }

    /// Demand fell at `now_us`: clears any unmet rise (it was never
    /// satisfied, so no latency sample) and stamps the fall if none is
    /// pending.
    #[inline]
    pub fn note_demand_fall(&self, now_us: u64) {
        self.demand_rise_us.store(0, Ordering::Relaxed);
        let _ = self.demand_fall_us.compare_exchange(
            0,
            now_us.max(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// A core went back to the table at `now_us`: closes any pending
    /// demand fall into [`RtMetrics::release_latency`].
    #[inline]
    pub fn note_core_released(&self, now_us: u64) {
        let fall = self.demand_fall_us.swap(0, Ordering::Relaxed);
        if fall != 0 {
            self.release_latency.record_ns(now_us.saturating_sub(fall).saturating_mul(1_000));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_snapshot() {
        let m = RtMetrics::default();
        RtMetrics::bump(&m.steals_ok);
        RtMetrics::bump(&m.steals_ok);
        RtMetrics::bump(&m.sleeps);
        let s = m.snapshot();
        assert_eq!(s.steals_ok, 2);
        assert_eq!(s.sleeps, 1);
        assert_eq!(s.wakes, 0);
    }

    #[test]
    fn concurrent_bumps_are_not_lost() {
        use std::sync::Arc;
        let m = Arc::new(RtMetrics::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        RtMetrics::bump(&m.jobs_executed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.snapshot().jobs_executed, 4_000);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = LogHistogram::default();
        h.record_ns(0); // bucket 0
        h.record_ns(1); // bucket 0
        h.record_ns(2); // bucket 1
        h.record_ns(3); // bucket 1
        h.record_ns(1024); // bucket 10
        h.record_ns(u64::MAX); // clamped to last bucket
        let s = h.snapshot();
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 2);
        assert_eq!(s.counts[10], 1);
        assert_eq!(s.counts[HIST_BUCKETS - 1], 1);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = LogHistogram::default();
        for _ in 0..99 {
            h.record_ns(100); // bucket 6, upper bound 128
        }
        h.record_ns(1 << 20); // one outlier
        let s = h.snapshot();
        assert_eq!(s.quantile_ns(0.5), Some(128));
        assert_eq!(s.quantile_ns(0.99), Some(128));
        assert_eq!(s.quantile_ns(1.0), Some(1 << 21));
        assert!(s.mean_ns().unwrap() > 96.0);
        assert_eq!(HistogramSnapshot::default().quantile_ns(0.5), None);
    }

    #[test]
    fn histogram_saturating_diff_is_the_window() {
        let h = LogHistogram::default();
        h.record_ns(100);
        h.record_ns(100);
        let earlier = h.snapshot();
        h.record_ns(100);
        h.record_ns(1 << 20);
        let later = h.snapshot();
        let window = later.saturating_diff(&earlier);
        assert_eq!(window.count(), 2);
        assert_eq!(window.counts[6], 1);
        assert_eq!(window.counts[20], 1);
        // Mismatched order degrades to zeros, never wraps.
        assert_eq!(earlier.saturating_diff(&later).count(), 0);
    }

    #[test]
    fn snapshot_waits_out_a_write_section() {
        let w = WorkerMetrics::default();
        // Outside any section: snapshot sees stores immediately.
        RtMetrics::bump(&w.steals_ok);
        assert_eq!(w.snapshot().steals_ok, 1);
        // A batch inside a section is seen atomically afterwards.
        {
            let _g = w.write_section();
            RtMetrics::bump(&w.steals_ok);
            w.steal_latency.record_ns(100);
        }
        let s = w.snapshot();
        assert_eq!(s.steals_ok, 2);
        assert_eq!(s.steal_latency.count(), 1);
    }

    #[test]
    fn snapshot_never_tears_a_batched_pair() {
        // The writer keeps `steals_ok` and the steal-latency histogram
        // count equal, updating both inside one write section; any
        // snapshot must observe them equal (the seqlock retry makes the
        // batch atomic to readers).
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let w = Arc::new(WorkerMetrics::default());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let w = Arc::clone(&w);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    {
                        let _g = w.write_section();
                        RtMetrics::bump(&w.steals_ok);
                        w.steal_latency.record_ns(512);
                    }
                    // Leave a window between sections, as real shard
                    // writers do (sections happen at steal cadence, not
                    // back-to-back).
                    std::thread::yield_now();
                }
            })
        };
        // At least 20 000 snapshots, then on (yielding) until one has seen
        // the writer: on one CPU the reader can use up its quota before
        // the writer's thread is first scheduled.
        let (mut observed, mut taken) = (0u32, 0u32);
        let t0 = std::time::Instant::now();
        while taken < 20_000 || (observed == 0 && t0.elapsed().as_secs() < 10) {
            let s = w.snapshot();
            assert_eq!(s.steals_ok, s.steal_latency.count(), "snapshot tore a write-section batch");
            observed += u32::from(s.steals_ok > 0);
            taken += 1;
            if taken >= 20_000 {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Release);
        writer.join().unwrap();
        assert!(observed > 0, "writer made progress under observation");
    }

    #[test]
    fn batch_accounting_distinguishes_ops_from_tasks() {
        let m = RtMetrics::with_workers(1);
        // One batched steal of 5 tasks plus one single steal.
        RtMetrics::bump(&m.steals_ok);
        RtMetrics::add(&m.tasks_stolen, 5);
        m.workers[0].steal_batch.record_ns(5);
        RtMetrics::bump(&m.steals_ok);
        RtMetrics::add(&m.tasks_stolen, 1);
        m.workers[0].steal_batch.record_ns(1);
        let s = m.snapshot();
        assert_eq!(s.steals_ok, 2);
        assert_eq!(s.tasks_stolen, 6);
        let agg = m.aggregated_histograms();
        assert_eq!(agg.steal_batch.count(), 2);
        assert_eq!(agg.steal_batch.counts[0], 1, "batch of 1 → bucket 0");
        assert_eq!(agg.steal_batch.counts[2], 1, "batch of 5 → bucket 2");
    }

    #[test]
    fn demand_latency_pairs_rise_with_grant_and_fall_with_release() {
        let m = RtMetrics::default();
        // Rise at t=100µs, still unmet at t=150µs (stamp survives), met at
        // t=612µs → one 512µs sample.
        m.note_demand_rise(100);
        m.note_demand_rise(150);
        m.note_demand_met(612);
        let agg = m.aggregated_histograms();
        assert_eq!(agg.alloc_latency.count(), 1);
        assert_eq!(agg.alloc_latency.quantile_ns(1.0), Some(1 << 19), "512µs → bucket 18");
        // A grant with no pending rise records nothing.
        m.note_demand_met(700);
        assert_eq!(m.aggregated_histograms().alloc_latency.count(), 1);
        // A fall clears an unmet rise without sampling it.
        m.note_demand_rise(800);
        m.note_demand_fall(900);
        m.note_demand_met(950);
        assert_eq!(m.aggregated_histograms().alloc_latency.count(), 1);
        // ... and pairs with the next release.
        m.note_core_released(1924); // 1024µs later
        let agg = m.aggregated_histograms();
        assert_eq!(agg.release_latency.count(), 1);
        // A release with no pending fall records nothing.
        m.note_core_released(2000);
        assert_eq!(m.aggregated_histograms().release_latency.count(), 1);
    }

    #[test]
    fn shards_aggregate_on_snapshot() {
        let m = RtMetrics::with_workers(3);
        m.workers[0].steal_latency.record(std::time::Duration::from_micros(10));
        m.workers[1].steal_latency.record(std::time::Duration::from_micros(10));
        m.workers[2].sleep_duration.record(std::time::Duration::from_millis(5));
        m.workers[0].task_sojourn.record_ns(2_048);
        m.workers[2].task_sojourn.record_ns(4_096);
        RtMetrics::bump(&m.workers[1].steals_ok);
        let agg = m.aggregated_histograms();
        assert_eq!(agg.steal_latency.count(), 2);
        assert_eq!(agg.sleep_duration.count(), 1);
        assert_eq!(agg.wake_to_first_task.count(), 0);
        assert_eq!(agg.task_sojourn.count(), 2);
        let shards = m.worker_snapshots();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[1].steals_ok, 1);
    }
}
