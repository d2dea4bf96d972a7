//! Per-layer metrics: direct-call probes of the public layer functions,
//! and the in-run values derived from a traced run's spans.
//!
//! A direct probe times a batch of calls with one clock read on each side,
//! repeats that [`REPS`] times and reports the median (min and CoV go to
//! the human-readable report). Layer names are module names.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dws_deque::{deque, Injector, Steal, SubmitRing};
use dws_rt::{
    CoreTable, InProcessTable, Policy, Request, Runtime, RuntimeConfig, ShmTable, Sleeper,
    DOORBELL_DEMAND,
};

use crate::host::now_ns;
use crate::probe::{durations_us, Span};
use crate::stats::{median, quantile, Reps};
use crate::workloads::Outcome;

const REPS: usize = 5;

/// One direct probe's result: `(metric name, reps)`.
pub type Probe = (&'static str, Reps);

/// Median-of-reps of `batch()`, which returns a per-operation figure.
fn reps(mut batch: impl FnMut() -> f64) -> Reps {
    batch(); // warm caches and lazy set-up
    Reps::of(&(0..REPS).map(|_| batch()).collect::<Vec<_>>())
}

/// ns per call of `op`, timed over `n` calls.
fn ns_per_call(n: u64, mut op: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        op(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Smallest non-zero step of the clock every figure here is read from.
fn timer_resolution_ns() -> f64 {
    (0..1000)
        .map(|_| {
            let t0 = Instant::now();
            let mut dt = 0;
            while dt == 0 {
                dt = t0.elapsed().as_nanos();
            }
            dt as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs `body` while a second thread runs `other` in a loop; returns
/// `body`'s result once `other` has been stopped and joined.
fn with_companion<R>(other: impl Fn() + Send + Sync, body: impl FnOnce() -> R) -> R {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                other();
            }
        });
        let r = body();
        stop.store(true, Ordering::Relaxed);
        r
    })
}

fn deque_probes(out: &mut Vec<Probe>) {
    const N: u64 = 200_000;
    let (w, s) = deque::<u64>();
    out.push((
        "deque.push_pop_ns",
        reps(|| {
            ns_per_call(N, |i| {
                w.push(i);
                std::hint::black_box(w.pop());
            })
        }),
    ));

    // Owner ops while one thief steals: the owner keeps a few items queued
    // so the thief's CAS on `top` really contends with it.
    let (attempts, retries) = (AtomicU64::new(0), AtomicU64::new(0));
    let contended = with_companion(
        || {
            attempts.fetch_add(1, Ordering::Relaxed);
            if s.steal().is_retry() {
                retries.fetch_add(1, Ordering::Relaxed);
            }
        },
        || {
            reps(|| {
                ns_per_call(N, |i| {
                    w.push(i);
                    w.push(i);
                    std::hint::black_box(w.pop());
                    std::hint::black_box(w.pop());
                }) / 2.0
            })
        },
    );
    out.push(("deque.push_pop_contended_ns", contended));
    let share =
        retries.load(Ordering::Relaxed) as f64 / attempts.load(Ordering::Relaxed).max(1) as f64;
    out.push(("deque.steal_retry_share", Reps::exact(share)));
    while w.pop().is_some() {}

    out.push((
        "deque.steal_ns",
        reps(|| {
            for i in 0..N {
                w.push(i);
            }
            ns_per_call(N, |_| {
                std::hint::black_box(s.steal());
            })
        }),
    ));

    let (dest, _dest_stealer) = deque::<u64>();
    out.push((
        "deque.steal_batch_ns_per_task",
        reps(|| {
            for i in 0..N {
                w.push(i);
            }
            let (t0, mut moved) = (Instant::now(), 0u64);
            while let Steal::Success(n) = s.steal_batch(&dest, 8) {
                moved += n as u64;
                while dest.pop().is_some() {}
            }
            t0.elapsed().as_nanos() as f64 / moved.max(1) as f64
        }),
    ));
}

fn injector_probes(out: &mut Vec<Probe>) {
    const N: u64 = 200_000;
    let inj = Injector::<u64>::new();
    out.push((
        "injector.push_pop_ns",
        reps(|| {
            ns_per_call(N, |i| {
                inj.push(i);
                std::hint::black_box(inj.pop());
            })
        }),
    ));
    // One pusher (timed) against one popper.
    let contended = with_companion(
        || {
            std::hint::black_box(inj.pop());
        },
        || reps(|| ns_per_call(N, |i| inj.push(i))),
    );
    out.push(("injector.contended_ns", contended));
}

fn ring_probes(prefix: [&'static str; 2], ring: &SubmitRing, out: &mut Vec<Probe>) {
    const BATCH: u64 = 256;
    const ROUNDS: u64 = 200;
    let epoch = ring.epoch();
    let (mut submit, mut drain) = (Vec::new(), Vec::new());
    for rep in 0..=REPS {
        let (mut submit_ns, mut drain_ns) = (0u128, 0u128);
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            for i in 0..BATCH {
                ring.submit(Request { req_id: i, submit_us: 0, demand_us: 0 }, epoch)
                    .expect("ring has room");
            }
            submit_ns += t0.elapsed().as_nanos();
            let t0 = Instant::now();
            let n = ring.drain(BATCH as usize, &mut |r| {
                std::hint::black_box(r);
            });
            drain_ns += t0.elapsed().as_nanos();
            assert_eq!(n as u64, BATCH, "the ring returns what it accepted");
        }
        if rep > 0 {
            submit.push(submit_ns as f64 / (BATCH * ROUNDS) as f64);
            drain.push(drain_ns as f64 / (BATCH * ROUNDS) as f64);
        }
    }
    out.push((prefix[0], Reps::of(&submit)));
    out.push((prefix[1], Reps::of(&drain)));
}

fn table_probes(names: [&'static str; 3], table: &dyn CoreTable, out: &mut Vec<Probe>) {
    const N: u64 = 100_000;
    // Core 0 is program 0's home and starts used by it.
    out.push((
        names[0],
        reps(|| {
            ns_per_call(N, |_| {
                assert!(table.release(0, 0) && table.try_acquire_free(0, 0));
            }) / 2.0
        }),
    ));
    // Reclaim needs the core held by someone else first.
    out.push((
        names[1],
        reps(|| {
            let mut reclaim_ns = 0u128;
            for _ in 0..N / 10 {
                assert!(table.release(0, 0) && table.try_acquire_free(0, 1));
                let t0 = Instant::now();
                assert!(table.try_reclaim(0, 0));
                reclaim_ns += t0.elapsed().as_nanos();
            }
            reclaim_ns as f64 / (N / 10) as f64
        }),
    ));
    out.push((
        names[2],
        reps(|| {
            ns_per_call(N / 10, |_| {
                std::hint::black_box((table.free_cores(), table.reclaimable_cores(0)));
            })
        }),
    ));
}

/// Median µs from `wake()` on one thread to `wait()` returning on another
/// that was parked in it: the shape of both the doorbell and the sleeper
/// probe. `wait` must not return before a `wake`.
fn wake_latency_us(wait: impl Fn() + Sync, wake: impl Fn()) -> Reps {
    const PINGS: usize = 200;
    let woken_from = AtomicU64::new(0);
    // Waits the waiter has begun / finished; the waker keeps them in step.
    let (begun, finished) = (AtomicU64::new(0), AtomicU64::new(0));
    let mut samples = Vec::new();
    std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            let mut samples = Vec::new();
            for _ in 0..PINGS * (REPS + 1) {
                begun.fetch_add(1, Ordering::Release);
                wait();
                let woke = now_ns();
                samples.push((woke - woken_from.load(Ordering::Acquire)) as f64 / 1e3);
                finished.fetch_add(1, Ordering::Release);
            }
            samples
        });
        for ping in 1..=(PINGS * (REPS + 1)) as u64 {
            while begun.load(Ordering::Acquire) < ping {
                std::hint::spin_loop();
            }
            // Let the waiter get from "about to wait" to parked.
            std::thread::sleep(Duration::from_micros(200));
            woken_from.store(now_ns(), Ordering::Release);
            wake();
            while finished.load(Ordering::Acquire) < ping {
                std::hint::spin_loop();
            }
        }
        samples = waiter.join().expect("waiter");
    });
    Reps::of(&samples.chunks(PINGS).skip(1).map(median).collect::<Vec<_>>())
}

fn doorbell_ring_to_wake(table: &dyn CoreTable) -> Reps {
    wake_latency_us(
        || while table.wait_doorbell(0, Duration::from_secs(5)) == 0 {},
        || table.ring_doorbell(0, DOORBELL_DEMAND),
    )
}

fn sleeper_wake_roundtrip() -> Reps {
    let sleeper = Sleeper::new();
    wake_latency_us(
        || {
            sleeper.sleep(None);
        },
        || sleeper.wake(),
    )
}

fn runtime_probes(cores: usize, out: &mut Vec<Probe>) {
    let table: Arc<dyn CoreTable> = Arc::new(InProcessTable::new(cores, 1));
    let rt = Runtime::with_table(RuntimeConfig::new(cores, Policy::Dws), table, 0);
    out.push(("rt.block_on_empty_us", reps(|| ns_per_call(200, |_| rt.block_on(|| ())) / 1e3)));
    let telemetry = rt.telemetry("probe");
    out.push((
        "telemetry.sample_ns",
        reps(|| {
            ns_per_call(2_000, |_| {
                std::hint::black_box(telemetry.sample_now());
            })
        }),
    ));
    out.push((
        "telemetry.snapshot_ns",
        reps(|| {
            ns_per_call(2_000, |_| {
                std::hint::black_box((rt.metrics(), rt.histograms()));
            })
        }),
    ));
}

/// Every direct-call probe. `shm_path` is a scratch file for the shm table.
pub fn direct_probes(cores: usize, shm_path: &std::path::Path) -> Vec<Probe> {
    let mut out = Vec::new();
    out.push(("timer.resolution_ns", Reps::exact(timer_resolution_ns())));
    deque_probes(&mut out);
    injector_probes(&mut out);
    ring_probes(
        ["ring.submit_ns", "ring.drain_ns_per_req"],
        &SubmitRing::with_capacity(1024),
        &mut out,
    );

    let inproc = InProcessTable::new(cores, 2);
    table_probes(
        ["table.inproc.acquire_release_ns", "table.inproc.reclaim_ns", "table.inproc.scan_ns"],
        &inproc,
        &mut out,
    );
    out.push(("doorbell.inproc.ring_to_wake_us", doorbell_ring_to_wake(&inproc)));

    let _ = std::fs::remove_file(shm_path);
    let shm = ShmTable::create_or_open(shm_path, cores, 2).expect("map the probe shm table");
    shm.register().expect("register program 0");
    let ring = shm.submit_ring(0).expect("shm ring");
    ring_probes(["ring.shm.submit_ns", "ring.shm.drain_ns_per_req"], ring, &mut out);
    table_probes(
        ["table.shm.acquire_release_ns", "table.shm.reclaim_ns", "table.shm.scan_ns"],
        &shm,
        &mut out,
    );
    out.push(("doorbell.shm.ring_to_wake_us", doorbell_ring_to_wake(&shm)));
    drop(shm);
    let _ = std::fs::remove_file(shm_path);

    out.push(("sleep.wake_roundtrip_us", sleeper_wake_roundtrip()));
    runtime_probes(cores, &mut out);
    out
}

/// The in-run layer values of one traced run: counts and times taken at
/// the `ProbeTable` boundary and in the closures, from `spans`, plus the
/// runtime's own counters and the values the workload measured itself.
pub fn in_run_metrics(spans: &[Span], current_calls: u64, o: &Outcome) -> Vec<(&'static str, f64)> {
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let ok = |name: &str| spans.iter().filter(|s| s.name == name && s.ok).count() as f64;
    let share = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let p = |name: &str, q: f64| quantile(&durations_us(spans, name), q);
    let table_ns: Vec<f64> = spans
        .iter()
        .filter(|s| s.name.starts_with("table."))
        .map(|s| (s.t1_ns - s.t0_ns) as f64)
        .collect();
    let grants = ok("table.acquire") + ok("table.reclaim");
    let ops = o.attempted.max(1) as f64;
    let c = &o.counters;
    let steal_attempts = (c.steals_ok + c.steals_failed + c.steals_contended) as f64;
    // Only the serving workloads dispatch requests.
    let unexplained = o.layer.get("rt.dispatch_us_p50").map_or(0.0, |dispatch_p50| {
        dispatch_p50
            - p("doorbell.ring_to_wake", 0.5)
            - p("coordinator.pass", 0.5)
            - p("sleep.grant_to_exec", 0.5)
    });

    let mut m = vec![
        ("table.acquire_calls", count("table.acquire")),
        ("table.acquire_ok_share", share(ok("table.acquire"), count("table.acquire"))),
        ("table.reclaim_calls", count("table.reclaim")),
        ("table.reclaim_ok_share", share(ok("table.reclaim"), count("table.reclaim"))),
        ("table.release_calls", count("table.release")),
        ("table.scan_calls", count("table.scan")),
        ("table.current_calls", current_calls as f64),
        ("table.call_ns_p50", median(&table_ns)),
        ("table.busy_share", table_ns.iter().sum::<f64>() / 1e9 / o.window_s),
        ("doorbell.rings", count("doorbell.ring")),
        ("doorbell.wakes", count("doorbell.ring_to_wake")),
        ("doorbell.ring_ns_p50", p("doorbell.ring", 0.5) * 1e3),
        ("doorbell.ring_to_wake_us_p50", p("doorbell.ring_to_wake", 0.5)),
        ("doorbell.ring_to_wake_us_p99", p("doorbell.ring_to_wake", 0.99)),
        ("doorbell.rings_per_op", count("doorbell.ring") / ops),
        ("coordinator.passes", count("coordinator.pass")),
        ("coordinator.pass_us_p50", p("coordinator.pass", 0.5)),
        ("coordinator.pass_us_p99", p("coordinator.pass", 0.99)),
        ("coordinator.passes_per_grant", share(count("coordinator.pass"), grants)),
        ("sleep.sleeps", c.sleeps as f64),
        ("sleep.wakes", c.wakes as f64),
        ("sleep.grant_to_exec_us_p50", p("sleep.grant_to_exec", 0.5)),
        ("sleep.grant_to_exec_us_p99", p("sleep.grant_to_exec", 0.99)),
        ("steal.ok_share", share(c.steals_ok as f64, steal_attempts)),
        ("steal.tasks_per_steal", share(c.tasks_stolen as f64, c.steals_ok as f64)),
        ("steal.contended", c.steals_contended as f64),
        // Reported, not hidden: what of the dispatch time the three spans
        // between submit and exec do not account for.
        ("rt.dispatch_unexplained_us_p50", unexplained),
    ];
    m.extend(o.layer.iter().map(|(&k, &v)| (k, v)));
    m
}
