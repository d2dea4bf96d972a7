//! Behavioural tests for the DWS runtime: fork-join correctness, scopes,
//! panic propagation, policy behaviours (sleeping, yielding, coordinator
//! wakes) and co-running through the shared allocation table.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dws_rt::{join, CoreTable, InProcessTable, Policy, Runtime, RuntimeConfig};

fn rt(workers: usize, policy: Policy) -> Runtime {
    Runtime::new(RuntimeConfig::new(workers, policy))
}

/// Recursive parallel fib — the canonical fork-join smoke test.
fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

#[test]
fn block_on_returns_result() {
    let pool = rt(2, Policy::Ws);
    assert_eq!(pool.block_on(|| 6 * 7), 42);
}

#[test]
fn join_computes_both_sides() {
    let pool = rt(2, Policy::Ws);
    let (a, b) = pool.join(|| 1 + 1, || "two");
    assert_eq!((a, b), (2, "two"));
}

#[test]
fn nested_joins_recursive_fib() {
    let pool = rt(4, Policy::Ws);
    assert_eq!(pool.block_on(|| fib(18)), 2584);
}

#[test]
fn join_borrows_caller_stack() {
    let pool = rt(2, Policy::Ws);
    let data: Vec<u64> = (0..1000).collect();
    let total = pool.block_on(|| {
        let (a, b) = join(|| data[..500].iter().sum::<u64>(), || data[500..].iter().sum::<u64>());
        a + b
    });
    assert_eq!(total, 499_500);
}

#[test]
fn scope_runs_all_spawns() {
    let pool = rt(4, Policy::Ws);
    let counter = AtomicUsize::new(0);
    pool.scope(|s| {
        for _ in 0..100 {
            s.spawn(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), 100);
}

#[test]
fn scope_spawns_can_nest_joins() {
    let pool = rt(4, Policy::Ws);
    let results: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
    pool.scope(|s| {
        for (i, slot) in results.iter().enumerate() {
            s.spawn(move || {
                slot.store(fib(10 + i as u64 % 3), Ordering::Relaxed);
            });
        }
    });
    for (i, slot) in results.iter().enumerate() {
        assert_eq!(slot.load(Ordering::Relaxed), fib(10 + i as u64 % 3));
    }
}

#[test]
fn scope_result_is_returned() {
    let pool = rt(2, Policy::Ws);
    let r = pool.scope(|s| {
        s.spawn(|| {});
        "done"
    });
    assert_eq!(r, "done");
}

#[test]
fn sequential_fallback_outside_pool() {
    // join() off-pool degrades to sequential execution.
    let (a, b) = join(|| 2, || 3);
    assert_eq!(a + b, 5);
}

#[test]
fn panic_in_join_arm_propagates() {
    let pool = rt(2, Policy::Ws);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.block_on(|| {
            let ((), ()) = join(|| panic!("left"), || ());
        })
    }));
    assert!(result.is_err());
    // The pool survives a panic.
    assert_eq!(pool.block_on(|| 1), 1);
}

#[test]
fn panic_in_stolen_arm_propagates() {
    let pool = rt(4, Policy::Ws);
    for _ in 0..20 {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.block_on(|| {
                let ((), ()) =
                    join(|| std::thread::sleep(Duration::from_micros(50)), || panic!("right"));
            })
        }));
        assert!(result.is_err());
    }
    assert_eq!(pool.block_on(|| 7), 7);
}

#[test]
fn panic_in_join_arm_waits_for_its_running_stolen_arm() {
    // `a` panics only once a thief is inside `b`: `join` must not unwind
    // the frame that holds `b` until the thief has finished it.
    let pool = rt(2, Policy::Ws);
    for _ in 0..20 {
        let started = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.block_on(|| {
                let ((), ()) = join(
                    || {
                        while !started.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        panic!("left");
                    },
                    || {
                        started.store(true, Ordering::Release);
                        std::thread::sleep(Duration::from_millis(2));
                        finished.store(true, Ordering::Release);
                    },
                );
            })
        }));
        assert!(result.is_err());
        assert!(finished.load(Ordering::Acquire), "join unwound before its stolen arm finished");
    }
    assert_eq!(pool.block_on(|| 3), 3);
}

#[test]
fn panic_in_scope_spawn_propagates_after_all_jobs() {
    let pool = rt(4, Policy::Ws);
    let completed = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&completed);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.scope(|s| {
            for i in 0..50 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    if i == 13 {
                        panic!("unlucky");
                    }
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
    }));
    assert!(result.is_err());
    // Every non-panicking job still ran before the panic resumed.
    assert_eq!(completed.load(Ordering::Relaxed), 49);
}

#[test]
fn heavy_parallel_sum_is_correct() {
    let pool = rt(4, Policy::Ws);
    fn psum(xs: &[u64]) -> u64 {
        if xs.len() <= 64 {
            return xs.iter().sum();
        }
        let mid = xs.len() / 2;
        let (a, b) = join(|| psum(&xs[..mid]), || psum(&xs[mid..]));
        a + b
    }
    let data: Vec<u64> = (0..100_000).collect();
    let got = pool.block_on(|| psum(&data));
    assert_eq!(got, 100_000 * 99_999 / 2);
}

#[test]
fn many_sequential_block_ons() {
    let pool = rt(2, Policy::Ws);
    for i in 0..200 {
        assert_eq!(pool.block_on(move || i * 2), i * 2);
    }
}

#[test]
fn single_worker_pool_still_works() {
    let pool = rt(1, Policy::Ws);
    assert_eq!(pool.block_on(|| fib(12)), 144);
    pool.scope(|s| {
        for _ in 0..10 {
            s.spawn(|| {});
        }
    });
}

#[test]
fn solo_dws_falls_back_to_ws() {
    // §4.4: single-program DWS behaves as traditional work-stealing.
    let pool = rt(2, Policy::Dws);
    assert_eq!(pool.effective_policy(), Policy::Ws);
    assert_eq!(pool.block_on(|| fib(10)), 55);
    assert_eq!(pool.metrics().sleeps, 0);
}

#[test]
fn abp_policy_yields_when_idle() {
    let pool = rt(2, Policy::Abp);
    assert_eq!(pool.effective_policy(), Policy::Abp);
    pool.block_on(|| fib(10));
    std::thread::sleep(Duration::from_millis(20));
    assert!(pool.metrics().yields > 0, "idle ABP workers must yield");
}

#[test]
fn dws_with_table_sleeps_idle_workers() {
    let table: Arc<dyn CoreTable> = Arc::new(InProcessTable::new(4, 2));
    let pool = Runtime::with_table(RuntimeConfig::new(4, Policy::Dws), Arc::clone(&table), 0);
    assert_eq!(pool.effective_policy(), Policy::Dws);
    // Give idle workers time to cross T_SLEEP and doze off.
    std::thread::sleep(Duration::from_millis(100));
    let m = pool.metrics();
    assert!(m.sleeps > 0, "idle DWS workers must sleep, metrics: {m:?}");
    // Its home cores were released once asleep (workers 0,1 are home).
    let free = table.free_cores();
    assert!(!free.is_empty(), "sleeping workers release their cores: {free:?}");
    // Work still completes (wake path).
    assert_eq!(pool.block_on(|| fib(12)), 144);
}

#[test]
fn dws_corun_trades_cores() {
    let table: Arc<dyn CoreTable> = Arc::new(InProcessTable::new(4, 2));
    let p0 = Runtime::with_table(RuntimeConfig::new(4, Policy::Dws), Arc::clone(&table), 0);
    let p1 = Runtime::with_table(RuntimeConfig::new(4, Policy::Dws), Arc::clone(&table), 1);
    // p1 idles (sleeps, releasing cores 2,3); p0 works hard and should be
    // able to borrow them via its coordinator.
    std::thread::sleep(Duration::from_millis(120));
    let big = p0.block_on(|| fib(23));
    assert_eq!(big, 28657);
    // p1 still functions afterwards (reclaims its cores as needed).
    assert_eq!(p1.block_on(|| fib(15)), 610);
    let m0 = p0.metrics();
    let total_coord = m0.coordinator_runs + p1.metrics().coordinator_runs;
    assert!(total_coord > 0, "coordinators must have run");
}

#[test]
fn dwsnc_corun_works_without_table_exclusivity() {
    let table: Arc<dyn CoreTable> = Arc::new(InProcessTable::new(4, 2));
    let p0 = Runtime::with_table(RuntimeConfig::new(4, Policy::DwsNc), Arc::clone(&table), 0);
    let p1 = Runtime::with_table(RuntimeConfig::new(4, Policy::DwsNc), Arc::clone(&table), 1);
    assert_eq!(p0.block_on(|| fib(14)), 377);
    assert_eq!(p1.block_on(|| fib(14)), 377);
    // NC never touches the table.
    assert_eq!(p0.metrics().cores_acquired, 0);
    assert_eq!(p0.metrics().cores_reclaimed, 0);
}

#[test]
fn ep_corun_completes() {
    let table: Arc<dyn CoreTable> = Arc::new(InProcessTable::new(4, 2));
    let p0 = Runtime::with_table(RuntimeConfig::new(4, Policy::Ep), Arc::clone(&table), 0);
    let p1 = Runtime::with_table(RuntimeConfig::new(4, Policy::Ep), Arc::clone(&table), 1);
    let (a, b) = (p0.block_on(|| fib(14)), p1.block_on(|| fib(14)));
    assert_eq!((a, b), (377, 377));
}

#[test]
fn concurrent_block_ons_from_many_threads() {
    let pool = Arc::new(rt(4, Policy::Ws));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.block_on(move || fib(10) + i))
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), 55 + i as u64);
    }
}

#[test]
fn metrics_count_jobs() {
    let pool = rt(2, Policy::Ws);
    let before = pool.metrics().jobs_executed;
    pool.scope(|s| {
        for _ in 0..50 {
            s.spawn(|| {});
        }
    });
    let after = pool.metrics().jobs_executed;
    assert!(after - before >= 50, "before={before} after={after}");
}

/// Batched stealing on a real pool: one worker fans thousands of no-op
/// tasks into its own deque while its siblings steal. Every successful
/// steal moves at least one task and at most the runtime's batch limit of
/// 8, and some steal must move more than one. Rounds repeat up to a bound
/// rather than trusting one scheduling window: on a single CPU the
/// siblings only run while the fanning worker is descheduled.
#[test]
fn batched_steals_move_several_tasks_within_the_limit() {
    const FAN: usize = 4096;
    const MAX_ROUNDS: usize = 200;
    let pool = rt(4, Policy::Ws);
    for round in 0..MAX_ROUNDS {
        pool.scope(|s| {
            for _ in 0..FAN {
                s.spawn(|| {});
            }
            // Offer the CPU to the thieves while the deque is full.
            std::thread::yield_now();
        });
        // Every stolen task ran before the scope closed, so each steal's
        // counters are already published.
        let m = pool.metrics();
        assert!(m.steals_ok <= m.tasks_stolen, "round {round}: a steal moved nothing: {m:?}");
        assert!(m.tasks_stolen <= 8 * m.steals_ok, "round {round}: a steal beat the limit: {m:?}");
        if m.tasks_stolen > m.steals_ok {
            return;
        }
    }
    panic!("no steal moved more than one task in {MAX_ROUNDS} rounds: {:?}", pool.metrics());
}

#[test]
fn drop_shuts_down_cleanly_while_workers_sleep() {
    let table: Arc<dyn CoreTable> = Arc::new(InProcessTable::new(2, 2));
    let pool = Runtime::with_table(RuntimeConfig::new(2, Policy::Dws), Arc::clone(&table), 0);
    std::thread::sleep(Duration::from_millis(60));
    drop(pool); // must not hang on sleeping workers
}

#[test]
fn runtime_accessors() {
    let pool = rt(3, Policy::Ws);
    assert_eq!(pool.workers(), 3);
    assert_eq!(pool.program_id(), 0);
    assert_eq!(pool.table().cores(), 3);
}

#[test]
fn detached_spawns_all_run_before_drop() {
    let counter = Arc::new(AtomicUsize::new(0));
    {
        let pool = rt(2, Policy::Ws);
        for _ in 0..200 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Drop waits for all detached jobs.
    }
    assert_eq!(counter.load(Ordering::Relaxed), 200);
}

#[test]
fn spawn_from_inside_the_pool() {
    let pool = Arc::new(rt(2, Policy::Ws));
    let counter = Arc::new(AtomicUsize::new(0));
    let (p2, c2) = (Arc::clone(&pool), Arc::clone(&counter));
    pool.block_on(move || {
        for _ in 0..50 {
            let c = Arc::clone(&c2);
            p2.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    while pool.pending_spawns() > 0 {
        std::thread::yield_now();
    }
    assert_eq!(counter.load(Ordering::Relaxed), 50);
}

#[test]
fn panicking_detached_spawn_is_contained() {
    let pool = rt(2, Policy::Ws);
    pool.spawn(|| panic!("detached boom"));
    // Pool survives; later work proceeds.
    assert_eq!(pool.block_on(|| 5), 5);
    while pool.pending_spawns() > 0 {
        std::thread::yield_now();
    }
}

#[test]
fn prometheus_endpoint_serves_versioned_content_type() {
    // Prometheus's scraper negotiates the text exposition format off the
    // Content-Type header — `version=0.0.4` is what makes the payload
    // parseable, so the header is part of the contract, not cosmetics.
    use std::io::{Read as _, Write as _};

    let table: Arc<dyn CoreTable> =
        Arc::new(dws_rt::LedgerTable::new(Arc::new(InProcessTable::new(2, 1))));
    let cfg = RuntimeConfig::new(2, Policy::Dws).with_telemetry();
    let pool = Runtime::with_table(cfg, table, 0);
    pool.block_on(|| fib(12));

    let server = dws_rt::serve(vec![pool.telemetry("p0")], "127.0.0.1:0").expect("bind endpoint");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");

    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response:.60}");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(
        head.lines().any(|l| l == format!("Content-Type: {}", dws_rt::PROMETHEUS_CONTENT_TYPE)),
        "missing versioned Content-Type header in: {head}"
    );
    // The fairness series of DESIGN §14 ride the same endpoint.
    for needle in [
        "# TYPE dws_core_seconds_total counter",
        "# TYPE dws_fairness_index gauge",
        "# TYPE dws_alloc_latency_ns gauge",
        "# TYPE dws_jobs_executed_total counter",
    ] {
        assert!(body.contains(needle), "body lacks {needle}");
    }
}

#[test]
fn telemetry_ring_eviction_accounting_balances() {
    // The bounded frame ring may forget history, but never silently:
    // frames_evicted + frames_retained must equal frames_produced. A
    // fast tick and a tiny ring force dozens of evictions in a short run.
    let mut cfg = RuntimeConfig::new(2, Policy::Ws).with_telemetry_tick(Duration::from_millis(1));
    cfg.telemetry.capacity = 8;
    let pool = Runtime::new(cfg);
    let handle = pool.telemetry("p0");
    while handle.frames().last().is_none_or(|f| f.seq < 40) {
        pool.block_on(|| fib(10));
        std::thread::sleep(Duration::from_millis(2));
    }
    // Dropping the pool joins the sampler; the registry (and with it the
    // ring) stays alive through the handle, now quiescent.
    drop(pool);

    let frames = handle.frames();
    let produced = frames.last().expect("sampler left frames").seq + 1;
    let evicted = handle.sample_now().counters.frames_evicted;
    assert!(evicted > 0, "the ring never overflowed — the test lost its subject");
    assert_eq!(frames.len(), 8, "an overflowed ring retains exactly its capacity");
    assert_eq!(
        evicted + frames.len() as u64,
        produced,
        "frames_evicted + frames_retained != frames_produced"
    );
    // Eviction is strictly oldest-first: the survivors are the contiguous
    // tail of the sequence.
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(f.seq, frames[0].seq + i as u64, "retained window has a hole");
    }
}
