//! Open-loop traffic generation for serving-mode experiments
//! (DESIGN §13): Poisson or bursty MMPP arrivals with bounded-Pareto
//! service demands, paced on the wall clock against a serving
//! [`Runtime`]'s submission ring.
//!
//! *Open loop* means arrivals follow the sampled schedule regardless of
//! how the server keeps up — a request finding the ring full is **shed**
//! (counted, never retried), exactly what a latency-vs-load experiment
//! needs: under overload the tail explodes and the drop counter grows,
//! instead of the generator silently throttling itself to the server's
//! pace like a closed loop would.
//!
//! The arrival and demand models are the simulator's
//! ([`dws_sim::arrival`]) — the same seeded samplers drive simulated and
//! real experiments, so a real run is parameterized identically to its
//! simulated counterpart.

use std::time::{Duration, Instant};

use dws_rt::{Request, Runtime, SubmitError};
use dws_sim::{ArrivalProcess, ArrivalSampler, BoundedPareto, XorShift64Star};

/// One open-loop load description: when requests arrive and how much
/// work each one carries.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Arrival process (Poisson, or MMPP via
    /// [`ArrivalProcess::bursty`]).
    pub arrivals: ArrivalProcess,
    /// Per-request service demand distribution (µs of CPU burn).
    pub demand: BoundedPareto,
    /// Sampler seed: the same seed replays the same arrival instants and
    /// demands.
    pub seed: u64,
    /// How long the generator offers load.
    pub duration: Duration,
}

impl LoadSpec {
    /// The offered load in service-seconds per second (utilization on
    /// one core): mean arrival rate × mean demand.
    pub fn offered_load(&self) -> f64 {
        self.arrivals.mean_rate_per_sec() * self.demand.mean_us() / 1e6
    }
}

/// What one generator run did at the ring's edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Requests accepted by the ring.
    pub submitted: u64,
    /// Requests shed because the ring was full at their arrival instant.
    pub shed: u64,
    /// Requests rejected because the client's epoch was stale.
    pub fenced: u64,
    /// Requests lost because the consumer abandoned this client's slot
    /// reservation mid-publish (the client was presumed dead).
    pub abandoned: u64,
}

impl LoadStats {
    /// Total arrivals the schedule produced.
    pub fn offered(&self) -> u64 {
        self.submitted + self.shed + self.fenced + self.abandoned
    }
}

/// Burns approximately `us` microseconds of CPU — the canonical request
/// handler body for serving experiments ( `|req| burn_us(req.demand_us)` ).
pub fn burn_us(us: u64) {
    let t0 = Instant::now();
    let budget = Duration::from_micros(us);
    while t0.elapsed() < budget {
        std::hint::spin_loop();
    }
}

/// Runs one open-loop generator against `rt`'s submission ring on the
/// calling thread, blocking until `spec.duration` of schedule has been
/// offered. Requests are stamped at their true arrival instant
/// (`Runtime::submit` takes the timestamp), so the measured request
/// sojourn includes any ring residence the coordinator's drain period
/// adds.
///
/// Panics if `rt` is not a serving runtime.
pub fn offer_load(rt: &Runtime, spec: &LoadSpec) -> LoadStats {
    let mut arrivals = ArrivalSampler::new(spec.arrivals.clone(), spec.seed);
    // Decorrelate demands from arrival gaps: a different stream, still a
    // pure function of the seed.
    let mut demand_rng = XorShift64Star::new(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut stats = LoadStats::default();
    let start = Instant::now();
    loop {
        let t = arrivals.next_arrival_us();
        if t >= spec.duration.as_micros() as u64 {
            break;
        }
        let target = Duration::from_micros(t);
        // Coarse sleep toward the arrival instant, then spin the last
        // stretch — thread::sleep overshoots by scheduler quanta, which
        // at µs-scale gaps would serialize the whole schedule.
        loop {
            let elapsed = start.elapsed();
            if elapsed >= target {
                break;
            }
            let remaining = target - elapsed;
            if remaining > Duration::from_micros(500) {
                std::thread::sleep(remaining - Duration::from_micros(300));
            } else {
                std::hint::spin_loop();
            }
        }
        let demand = spec.demand.sample_us(&mut demand_rng);
        match rt.submit(stats.offered(), demand) {
            Ok(()) => stats.submitted += 1,
            Err(SubmitError::Full) => stats.shed += 1,
            Err(SubmitError::Fenced) => stats.fenced += 1,
            Err(SubmitError::Abandoned) => stats.abandoned += 1,
        }
    }
    stats
}

/// The default serving handler: burn the sampled demand.
pub fn demand_handler() -> impl Fn(Request) + Send + Sync + 'static {
    |req: Request| burn_us(req.demand_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_rt::{CoreTable, InProcessTable, Policy, RuntimeConfig};
    use std::sync::Arc;

    fn spec(rate: f64, duration_ms: u64, seed: u64) -> LoadSpec {
        LoadSpec {
            arrivals: ArrivalProcess::Poisson { rate_per_sec: rate },
            demand: BoundedPareto::new(20.0, 2_000.0, 1.5),
            seed,
            duration: Duration::from_millis(duration_ms),
        }
    }

    #[test]
    fn offered_load_is_rate_times_mean_demand() {
        let s = spec(1_000.0, 10, 1);
        let expect = 1_000.0 * s.demand.mean_us() / 1e6;
        assert!((s.offered_load() - expect).abs() < 1e-9);
    }

    #[test]
    fn generator_offers_the_schedule_and_requests_execute() {
        let mut cfg = RuntimeConfig::new(2, Policy::Ws).with_serving();
        cfg.coordinator_period = Duration::from_millis(1);
        let rt = Runtime::serve(cfg, demand_handler());
        let stats = offer_load(&rt, &spec(4_000.0, 100, 7));
        // ~400 arrivals expected; Poisson noise stays well inside ±60%.
        assert!(
            stats.offered() > 150 && stats.offered() < 1_000,
            "schedule length plausible: {stats:?}"
        );
        assert!(stats.submitted > 0, "some requests accepted: {stats:?}");
        // Drain whatever is still ringed and let the workers finish.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            rt.drain_submissions();
            let m = rt.metrics();
            if m.requests_admitted == stats.submitted || Instant::now() > deadline {
                assert_eq!(m.requests_admitted, stats.submitted, "every accepted request admitted");
                break;
            }
            std::thread::yield_now();
        }
    }

    /// Forwards the seven required methods to an [`InProcessTable`] and keeps
    /// the trait's doorbell defaults: a ring vanishes, a wait sleeps.
    struct NoDoorbells(InProcessTable);

    impl CoreTable for NoDoorbells {
        fn cores(&self) -> usize {
            self.0.cores()
        }
        fn max_programs(&self) -> usize {
            self.0.max_programs()
        }
        fn home(&self, core: usize) -> usize {
            self.0.home(core)
        }
        fn current(&self, core: usize) -> Option<usize> {
            self.0.current(core)
        }
        fn release(&self, core: usize, prog: usize) -> bool {
            self.0.release(core, prog)
        }
        fn try_acquire_free(&self, core: usize, prog: usize) -> bool {
            self.0.try_acquire_free(core, prog)
        }
        fn try_reclaim(&self, core: usize, prog: usize) -> bool {
            self.0.try_reclaim(core, prog)
        }
    }

    #[test]
    fn shed_requests_surface_in_stats_not_in_admissions() {
        // 4-slot ring, coordinator effectively off: almost everything
        // past the first four arrivals is shed at the edge. No doorbells,
        // or each submission would wake the coordinator to drain the ring
        // and nothing would ever shed.
        let mut cfg = RuntimeConfig::new(2, Policy::Ws).with_serving_geometry(4, 64);
        cfg.coordinator_period = Duration::from_secs(3600);
        let table = Arc::new(NoDoorbells(InProcessTable::new(2, 1)));
        let rt = Runtime::serve_with_table(cfg, table, 0, |_req| {});
        let stats = offer_load(&rt, &spec(20_000.0, 50, 3));
        assert_eq!(stats.submitted, 4, "ring capacity bounds acceptance");
        assert!(stats.shed > 0, "overload sheds: {stats:?}");
        assert_eq!(stats.fenced, 0);
    }

    #[test]
    fn same_seed_offers_the_same_arrival_count() {
        // Determinism of the *schedule* (arrival instants and demands are
        // seed-pure; acceptance depends on server timing).
        let a = ArrivalSampler::new(spec(5_000.0, 0, 11).arrivals, 11);
        let b = ArrivalSampler::new(spec(5_000.0, 0, 11).arrivals, 11);
        let (mut a, mut b) = (a, b);
        for _ in 0..1_000 {
            assert_eq!(a.next_arrival_us(), b.next_arrival_us());
        }
    }
}
