//! The demand-rise edge (DESIGN §16.1): a `push` that finds Eq. 1 demand
//! with a sibling asleep and a core to be had rings the program's own
//! coordinator, so the second worker arrives one wake round-trip later
//! instead of at the next heartbeat.
//!
//! The tests take the heartbeat away — a ten-minute `coordinator_period`
//! and sleepers that never time out — so the only way a parked worker gets
//! back in is a doorbell.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dws_rt::{join, CoreTable, InProcessTable, Policy, Runtime, RuntimeConfig};

fn edge_only(cores: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(cores, Policy::Dws);
    cfg.coordinator_period = Duration::from_secs(600);
    cfg.sleep_timeout = None;
    cfg
}

fn wait_until(deadline: Duration, cond: impl Fn() -> bool) -> bool {
    let t0 = Instant::now();
    while !cond() {
        if t0.elapsed() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A `join` whose arms each raise a flag and wait for the other's, which
/// they can only see while both arms are running: on two workers at once.
/// Returns how long that took, `None` if `patience` ran out first. `in_b`
/// runs inside the second arm once the arms have met.
fn rendezvous(rt: &Runtime, patience: Duration, in_b: impl Fn() + Sync) -> Option<Duration> {
    let (a, b) = (AtomicBool::new(false), AtomicBool::new(false));
    let t0 = Instant::now();
    let meet = |mine: &AtomicBool, theirs: &AtomicBool| {
        mine.store(true, Ordering::SeqCst);
        while !theirs.load(Ordering::SeqCst) {
            if t0.elapsed() > patience {
                return None;
            }
            std::thread::yield_now();
        }
        Some(t0.elapsed())
    };
    let (met_a, met_b) = rt.join(
        || meet(&a, &b),
        || {
            let met = meet(&b, &a);
            if met.is_some() {
                in_b();
            }
            met
        },
    );
    met_a.and(met_b)
}

#[test]
fn a_push_brings_the_second_worker_in_without_a_heartbeat() {
    let table: Arc<dyn CoreTable> = Arc::new(InProcessTable::new(2, 1));
    let rt = Runtime::with_table(edge_only(2), table, 0);
    assert!(wait_until(Duration::from_secs(5), || rt.sleeping_workers() == 2), "idle workers park");

    let took = rendezvous(&rt, Duration::from_secs(10), || ())
        .expect("the stolen arm never ran: nothing rang on the demand rise");
    assert!(took < Duration::from_secs(1), "second worker took {took:?}");
    let m = rt.metrics();
    assert!(m.demand_rings >= 1, "{m:?}");
    assert!(m.doorbell_wakes >= 1, "{m:?}");
    assert_eq!(m.cores_acquired, 1, "one pass granted the one free core: {m:?}");
}

#[test]
fn the_second_worker_runs_on_the_idle_co_runners_home_core() {
    let table: Arc<dyn CoreTable> = Arc::new(InProcessTable::new(2, 2));
    let busy = Runtime::with_table(edge_only(2), Arc::clone(&table), 0);
    let idle = Runtime::with_table(edge_only(2), Arc::clone(&table), 1);
    // The idle program's home worker fails its steals, parks and releases
    // core 1; nothing rings anybody for that.
    assert!(wait_until(Duration::from_secs(5), || {
        busy.sleeping_workers() == 2 && idle.sleeping_workers() == 2 && table.current(1).is_none()
    }));

    let owner_in_b = AtomicUsize::new(usize::MAX);
    let took = rendezvous(&busy, Duration::from_secs(10), || {
        owner_in_b.store(table.current(1).unwrap_or(usize::MAX), Ordering::SeqCst);
    })
    .expect("the free foreign core was never taken");
    assert!(took < Duration::from_secs(1), "second worker took {took:?}");
    assert_eq!(owner_in_b.load(Ordering::SeqCst), 0, "worker 1 runs on core 1, now ours");
    assert!(busy.metrics().demand_rings >= 1);
    assert_eq!(idle.metrics().demand_rings, 0, "the idle program pushed nothing");
}

/// Forwards to an [`InProcessTable`], counting reads of core 1's slot.
struct CountingTable {
    inner: InProcessTable,
    core1_probes: AtomicUsize,
}

impl CoreTable for CountingTable {
    fn cores(&self) -> usize {
        self.inner.cores()
    }
    fn max_programs(&self) -> usize {
        self.inner.max_programs()
    }
    fn home(&self, core: usize) -> usize {
        self.inner.home(core)
    }
    fn current(&self, core: usize) -> Option<usize> {
        if core == 1 {
            self.core1_probes.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.current(core)
    }
    fn release(&self, core: usize, prog: usize) -> bool {
        self.inner.release(core, prog)
    }
    fn try_acquire_free(&self, core: usize, prog: usize) -> bool {
        self.inner.try_acquire_free(core, prog)
    }
    fn try_reclaim(&self, core: usize, prog: usize) -> bool {
        self.inner.try_reclaim(core, prog)
    }
    fn ring_doorbell(&self, prog: usize, reason: u32) {
        self.inner.ring_doorbell(prog, reason);
    }
    fn wait_doorbell(&self, prog: usize, timeout: Duration) -> u32 {
        self.inner.wait_doorbell(prog, timeout)
    }
}

#[test]
fn a_held_core_means_no_ring_and_one_probe_per_pass() {
    // Program 1 never starts, so core 1 stays in its name for good: the
    // co-runner that holds its core and will not let go.
    let table = Arc::new(CountingTable {
        inner: InProcessTable::new(2, 2),
        core1_probes: AtomicUsize::new(0),
    });
    let rt = Runtime::with_table(edge_only(2), Arc::clone(&table) as Arc<dyn CoreTable>, 0);
    assert!(wait_until(Duration::from_secs(5), || rt.sleeping_workers() == 2));

    let before = table.core1_probes.load(Ordering::Relaxed);
    rt.block_on(|| {
        for _ in 0..10_000 {
            join(|| (), || ());
        }
    });
    let probes = table.core1_probes.load(Ordering::Relaxed) - before;
    let m = rt.metrics();
    assert_eq!(m.demand_rings, 0, "nothing to grant, nothing to ring for: {m:?}");
    // The first push asks the table once and marks the edge blocked; the
    // edge re-arms per coordinator pass, and none runs inside this period.
    assert!(probes <= 4, "{probes} probes of the held core for 10 000 pushes");
    assert_eq!(m.cores_acquired + m.cores_reclaimed, 0, "{m:?}");
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
fn a_backend_without_doorbells_gets_the_second_worker_by_heartbeat() {
    let table: Arc<dyn CoreTable> = Arc::new(NoDoorbells(InProcessTable::new(2, 1)));
    let mut cfg = RuntimeConfig::new(2, Policy::Dws);
    cfg.coordinator_period = Duration::from_millis(5);
    let rt = Runtime::with_table(cfg, table, 0);
    assert!(wait_until(Duration::from_secs(5), || rt.sleeping_workers() == 2));

    // The demand edge rings into nothing; the heartbeat finds the demand.
    rendezvous(&rt, Duration::from_secs(10), || ()).expect("the heartbeat wakes the second worker");
    let m = rt.metrics();
    assert_eq!(m.doorbell_wakes, 0, "{m:?}");
}
