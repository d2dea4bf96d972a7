//! Runtime configuration: policy selection and the paper's tuning knobs.

use std::time::Duration;

/// Multiprogramming behaviour of a [`crate::Runtime`] (paper §4's compared
/// schedulers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Plain random work-stealing: idle workers keep stealing (with a
    /// `yield_now` back-off so a solo pool does not starve the machine).
    /// The paper's solo reference, and what DWS falls back to when it is
    /// the only program (§4.4).
    Ws,
    /// ABP yielding: a worker calls `sched_yield` after every failed
    /// steal; no affinity, the OS time-shares everything (stock MIT Cilk).
    Abp,
    /// Equipartition: workers pinned to the program's static `k/m`-core
    /// slice; ABP yielding within the slice.
    Ep,
    /// Demand-aware Work-Stealing (the paper's contribution): one worker
    /// affined per core, sleep after `T_SLEEP` consecutive failed steals
    /// releasing the core in the shared table, coordinator wakes per
    /// Eq. 1 / §3.3.
    Dws,
    /// DWS without coordinator-enforced core exclusivity (§4.2 ablation).
    DwsNc,
}

impl Policy {
    /// Do idle workers go to sleep after `T_SLEEP` failures?
    pub fn sleeps(self) -> bool {
        matches!(self, Policy::Dws | Policy::DwsNc)
    }

    /// Does the runtime spawn a coordinator thread?
    pub fn has_coordinator(self) -> bool {
        matches!(self, Policy::Dws | Policy::DwsNc)
    }

    /// Does the policy consult the shared core-allocation table?
    pub fn uses_alloc_table(self) -> bool {
        matches!(self, Policy::Dws)
    }

    /// Figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Ws => "WS",
            Policy::Abp => "ABP",
            Policy::Ep => "EP",
            Policy::Dws => "DWS",
            Policy::DwsNc => "DWS-NC",
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Event-tracing knobs (see [`crate::trace`]).
///
/// Disabled by default: with `enabled == false` the runtime allocates no
/// ring buffers, takes no timestamps, and every record site reduces to a
/// single predictable branch on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record scheduler events into per-worker ring buffers.
    pub enabled: bool,
    /// Events retained per lane (one lane per worker plus one shared
    /// lane for the coordinator and allocation table). Once a lane is
    /// full further events are counted as dropped, never blocked on.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { enabled: false, capacity: 65_536 }
    }
}

/// Live-telemetry knobs (see [`crate::telemetry`]).
///
/// Disabled by default: with `enabled == false` no sampler thread is
/// spawned and the runtime's only residual cost is the coordinator
/// publishing its decision into a small atomic cell once per period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Spawn the sampler thread and retain time-series frames.
    pub enabled: bool,
    /// Sampling period. Defaults to 10 ms — the same value as the default
    /// coordinator period, but deliberately *not* derived from it: runs
    /// configured with different coordinator periods (BENCH sweeps, tests
    /// that shorten it) must still sample at one cadence, or time-series
    /// deltas stop being comparable across runs.
    pub tick: Duration,
    /// Frames retained in the bounded ring; older frames are evicted
    /// (and counted) once full. 4096 frames at 10 ms ≈ 40 s of history.
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: false, tick: Duration::from_millis(10), capacity: 4096 }
    }
}

/// Serving-mode knobs: the cross-process submission ring drained by the
/// coordinator into the injector (see [`crate::Runtime::serve`]).
///
/// Disabled by default: with `enabled == false` no ring is attached and
/// the coordinator's drain step is a single branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Attach a submission ring and drain it each coordinator tick.
    pub enabled: bool,
    /// Ring capacity in requests (must be ≥ 2). Submissions beyond a full
    /// ring are rejected at the client with `SubmitError::Full` — open-loop
    /// overload sheds at the edge instead of queueing unboundedly.
    pub ring_capacity: usize,
    /// Most requests one coordinator tick moves from the ring into the
    /// injector; bounds the tick's latency under a burst. The remainder
    /// stays ringed for the next tick.
    pub drain_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { enabled: false, ring_capacity: 1024, drain_batch: 256 }
    }
}

/// Configuration for building a [`crate::Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads (the paper launches one per logical core).
    pub workers: usize,
    /// Scheduling policy.
    pub policy: Policy,
    /// Consecutive failed steals before a worker sleeps
    /// (paper §4.3 recommends `k` or `2k`; defaults to `workers`).
    pub t_sleep: u32,
    /// Coordinator period (paper §3.4: 10 ms).
    pub coordinator_period: Duration,
    /// Upper bound on one sleep interval. A real system must tolerate a
    /// missed wake-up (coordinator death, table corruption across
    /// processes), so sleeping workers re-check for work at this rate
    /// even without a wake. `None` sleeps indefinitely (paper-pure).
    pub sleep_timeout: Option<Duration>,
    /// Pin workers to cores with `sched_setaffinity` where supported.
    /// Defaults to false: pinning 16 workers on a smaller host serializes
    /// them, so opt in explicitly on dedicated machines.
    pub pin_workers: bool,
    /// How stale a co-runner's lease heartbeat must be before the reaper
    /// pass considers it expired (the `kill(pid, 0)` liveness probe still
    /// has to confirm death). `None` — the default — means 3× the
    /// coordinator period, so one missed tick never expires a lease but a
    /// dead program is fenced within a few periods.
    pub lease_timeout: Option<Duration>,
    /// Event tracing (off by default; see [`TraceConfig`]).
    pub trace: TraceConfig,
    /// Live telemetry sampling (off by default; see [`TelemetryConfig`]).
    pub telemetry: TelemetryConfig,
    /// Serving mode: submission-ring drain (off by default; see
    /// [`ServeConfig`]).
    pub serve: ServeConfig,
}

impl RuntimeConfig {
    /// A configuration with the paper's defaults for `workers` workers.
    pub fn new(workers: usize, policy: Policy) -> Self {
        assert!(workers > 0, "a runtime needs at least one worker");
        RuntimeConfig {
            workers,
            policy,
            t_sleep: workers as u32,
            coordinator_period: Duration::from_millis(10),
            sleep_timeout: Some(Duration::from_millis(50)),
            pin_workers: false,
            lease_timeout: None,
            trace: TraceConfig::default(),
            telemetry: TelemetryConfig::default(),
            serve: ServeConfig::default(),
        }
    }

    /// Overrides the lease-expiry threshold for the reaper pass.
    pub fn with_lease_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "lease timeout must be positive");
        self.lease_timeout = Some(timeout);
        self
    }

    /// Absolute floor for the derived lease-expiry threshold. Leases are
    /// heartbeat-refreshed once per coordinator period, but a short
    /// configured period must not shrink the expiry margin with it: a
    /// briefly descheduled co-runner at a 1 ms period would otherwise be
    /// fenced after 3 ms of silence. Explicit
    /// [`RuntimeConfig::with_lease_timeout`] overrides bypass the floor —
    /// tests that want fast reaping say so explicitly.
    pub const LEASE_TIMEOUT_FLOOR: Duration = Duration::from_millis(30);

    /// The effective lease-expiry threshold: the explicit override, or 3×
    /// the coordinator period clamped up to
    /// [`RuntimeConfig::LEASE_TIMEOUT_FLOOR`].
    pub fn effective_lease_timeout(&self) -> Duration {
        self.lease_timeout
            .unwrap_or_else(|| (self.coordinator_period * 3).max(Self::LEASE_TIMEOUT_FLOOR))
    }

    /// Enables event tracing with the default per-lane capacity.
    pub fn with_tracing(mut self) -> Self {
        self.trace.enabled = true;
        self
    }

    /// Enables event tracing retaining `capacity` events per lane.
    pub fn with_tracing_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        self.trace = TraceConfig { enabled: true, capacity };
        self
    }

    /// Enables the telemetry sampler with the default 10 ms tick.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry.enabled = true;
        self
    }

    /// Enables the telemetry sampler with a custom tick.
    pub fn with_telemetry_tick(mut self, tick: Duration) -> Self {
        assert!(!tick.is_zero(), "telemetry tick must be positive");
        self.telemetry.enabled = true;
        self.telemetry.tick = tick;
        self
    }

    /// Enables serving mode with the default ring geometry.
    pub fn with_serving(mut self) -> Self {
        self.serve.enabled = true;
        self
    }

    /// Enables serving mode with explicit ring capacity and per-tick
    /// drain batch.
    pub fn with_serving_geometry(mut self, ring_capacity: usize, drain_batch: usize) -> Self {
        assert!(ring_capacity >= 2, "submission ring needs capacity >= 2");
        assert!(drain_batch > 0, "drain batch must be positive");
        self.serve = ServeConfig { enabled: true, ring_capacity, drain_batch };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = RuntimeConfig::new(16, Policy::Dws);
        assert_eq!(c.t_sleep, 16, "T_SLEEP = k (§4.3)");
        assert_eq!(c.coordinator_period, Duration::from_millis(10), "T = 10ms (§3.4)");
    }

    #[test]
    fn policy_capabilities() {
        assert!(Policy::Dws.sleeps() && Policy::Dws.uses_alloc_table());
        assert!(Policy::DwsNc.sleeps() && !Policy::DwsNc.uses_alloc_table());
        assert!(!Policy::Abp.sleeps() && !Policy::Ep.has_coordinator());
        assert_eq!(Policy::Ep.label(), "EP");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        RuntimeConfig::new(0, Policy::Ws);
    }

    #[test]
    fn tracing_off_by_default_and_builder_enables() {
        let c = RuntimeConfig::new(4, Policy::Dws);
        assert!(!c.trace.enabled);
        assert_eq!(c.trace.capacity, 65_536);
        let c = c.with_tracing_capacity(1024);
        assert!(c.trace.enabled);
        assert_eq!(c.trace.capacity, 1024);
        assert!(RuntimeConfig::new(1, Policy::Ws).with_tracing().trace.enabled);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_trace_capacity_rejected() {
        let _ = RuntimeConfig::new(1, Policy::Ws).with_tracing_capacity(0);
    }

    #[test]
    fn telemetry_off_by_default_with_a_10ms_tick() {
        let c = RuntimeConfig::new(4, Policy::Dws);
        assert!(!c.telemetry.enabled);
        assert_eq!(c.telemetry.tick, Duration::from_millis(10));
        let c = c.with_telemetry();
        assert!(c.telemetry.enabled);
        let c = c.with_telemetry_tick(Duration::from_millis(2));
        assert_eq!(c.telemetry.tick, Duration::from_millis(2));
    }

    #[test]
    fn telemetry_tick_is_decoupled_from_the_coordinator_period() {
        // Sampling cadence must hold still when the period is
        // reconfigured, or BENCH deltas stop being comparable across runs.
        let mut c = RuntimeConfig::new(4, Policy::Dws).with_telemetry();
        let before = c.telemetry.tick;
        c.coordinator_period = Duration::from_millis(2);
        assert_eq!(c.telemetry.tick, before, "tick follows nothing but itself");
        assert_eq!(c.telemetry.tick, Duration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_telemetry_tick_rejected() {
        let _ = RuntimeConfig::new(1, Policy::Ws).with_telemetry_tick(Duration::ZERO);
    }

    #[test]
    fn serving_off_by_default_and_builder_enables() {
        let c = RuntimeConfig::new(4, Policy::Dws);
        assert!(!c.serve.enabled);
        assert_eq!(c.serve.ring_capacity, 1024);
        assert_eq!(c.serve.drain_batch, 256);
        let c = c.with_serving_geometry(64, 16);
        assert!(c.serve.enabled);
        assert_eq!(c.serve.ring_capacity, 64);
        assert_eq!(c.serve.drain_batch, 16);
        assert!(RuntimeConfig::new(1, Policy::Ws).with_serving().serve.enabled);
    }

    #[test]
    #[should_panic(expected = "capacity >= 2")]
    fn tiny_ring_capacity_rejected() {
        let _ = RuntimeConfig::new(1, Policy::Ws).with_serving_geometry(1, 1);
    }

    #[test]
    fn lease_timeout_defaults_to_three_periods() {
        let c = RuntimeConfig::new(4, Policy::Dws);
        assert_eq!(c.lease_timeout, None);
        assert_eq!(c.effective_lease_timeout(), c.coordinator_period * 3);
        let c = c.with_lease_timeout(Duration::from_millis(25));
        assert_eq!(c.effective_lease_timeout(), Duration::from_millis(25));
    }

    #[test]
    fn lease_timeout_floor_survives_a_shortened_period() {
        // Regression (ISSUE 10 S1): 3×period at a 1 ms period would be a
        // 3 ms expiry — one brief deschedule away from fencing a live
        // co-runner. The derived timeout clamps to the absolute floor.
        let mut c = RuntimeConfig::new(4, Policy::Dws);
        c.coordinator_period = Duration::from_millis(1);
        assert_eq!(c.effective_lease_timeout(), RuntimeConfig::LEASE_TIMEOUT_FLOOR);
        // A long period still dominates the floor...
        c.coordinator_period = Duration::from_millis(50);
        assert_eq!(c.effective_lease_timeout(), Duration::from_millis(150));
        // ...and an explicit override bypasses it (fast-reap tests).
        let c = c.with_lease_timeout(Duration::from_millis(2));
        assert_eq!(c.effective_lease_timeout(), Duration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "lease timeout must be positive")]
    fn zero_lease_timeout_rejected() {
        let _ = RuntimeConfig::new(1, Policy::Dws).with_lease_timeout(Duration::ZERO);
    }
}
