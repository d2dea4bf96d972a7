//! Cross-validation: the same workload seed drives (a) a traced
//! simulator co-run and (b) a traced real-runtime co-run, and both event
//! streams must replay protocol-clean through `dws_rt::ReplayChecker`
//! with reclaim/acquire counts that agree with each system's own
//! metrics. This pins the simulator and the runtime to the *same*
//! Table-1 protocol semantics end to end — the decision rule they share
//! by construction (`dws-core`), the table protocol only by this test.

use std::sync::Arc;

use dws_rt::{
    join, CoreTable, InProcessTable, Policy, ReplayChecker, RtEvent, Runtime, RuntimeConfig,
    TracedTable,
};
use dws_sim::{
    MachineConfig, PhaseSpec, ProgramSpec, RunOptions, SchedConfig, SimConfig, Simulator, Slot,
    WorkloadSpec,
};

const WORKLOAD_SEED: u64 = 0xD5EED;

/// Maps the simulator's table transitions onto the runtime's event type;
/// non-table events (sleeps, wakes, coordinator ticks) don't participate
/// in protocol replay.
fn sim_table_events(sim: &Simulator) -> Vec<RtEvent> {
    sim.trace()
        .events()
        .iter()
        .filter_map(|te| match te.event {
            dws_sim::SchedEvent::Acquire { prog, core } => Some(RtEvent::Acquire { prog, core }),
            dws_sim::SchedEvent::Reclaim { prog, core } => Some(RtEvent::Reclaim { prog, core }),
            dws_sim::SchedEvent::Release { prog, core } => Some(RtEvent::Release { prog, core }),
            _ => None,
        })
        .collect()
}

#[test]
fn sim_trace_replays_clean_and_matches_sim_metrics() {
    let wl = WorkloadSpec {
        name: "xval".into(),
        phases: vec![PhaseSpec::Waves {
            iters: 3,
            width: 16,
            width_end: 0,
            task_work_us: 40.0,
            serial_us: 150.0,
            mem: 0.2,
            jitter: 0.1,
        }],
    };
    let cfg = SimConfig {
        machine: MachineConfig { cores: 4, sockets: 2, ..Default::default() },
        seed: WORKLOAD_SEED,
        ..Default::default()
    };
    let sched = SchedConfig::for_policy(dws_sim::Policy::Dws, 4);
    let mut sim = Simulator::new(
        cfg,
        vec![
            ProgramSpec { workload: wl.clone(), sched: sched.clone() },
            ProgramSpec { workload: wl, sched },
        ],
    );
    sim.enable_tracing(1 << 16);
    let rep = sim.run(RunOptions { min_runs: 2, warmup_runs: 0, max_time_us: 120_000_000 });
    assert!(!rep.hit_horizon, "co-run simulation must finish");
    assert_eq!(sim.events_dropped(), 0, "trace capacity too small for the workload");

    // The recorded stream must satisfy the Table-1 ownership protocol…
    let home: Vec<usize> = (0..4).map(|c| sim.alloc_table().home(c)).collect();
    let events = sim_table_events(&sim);
    let mut checker = ReplayChecker::new(&home);
    let stats = checker
        .replay(events.iter())
        .unwrap_or_else(|v| panic!("simulator stream violates the protocol: {v:?}"));

    // …agree with the simulator's own counters (the sim has exactly one
    // acquire and one reclaim site, each paired with its trace event)…
    let acquired: u64 = rep.programs.iter().map(|p| p.metrics.cores_acquired).sum();
    let reclaimed: u64 = rep.programs.iter().map(|p| p.metrics.cores_reclaimed).sum();
    assert_eq!(stats.acquires, acquired, "trace acquires vs metrics");
    assert_eq!(stats.reclaims, reclaimed, "trace reclaims vs metrics");
    assert!(stats.total() > 0, "a DWS co-run must exercise the table");

    // …and reconstruct the final allocation exactly.
    for c in 0..4 {
        let want = match sim.alloc_table().slot(c) {
            Slot::Free => None,
            Slot::Used(p) => Some(p),
        };
        assert_eq!(checker.owners()[c], want, "core {c} owner after replay");
    }
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

#[test]
fn rt_traced_corun_replays_clean_and_matches_rt_metrics() {
    let traced = Arc::new(TracedTable::new(Arc::new(InProcessTable::new(4, 2)), 1 << 16));
    let table: Arc<dyn CoreTable> = Arc::clone(&traced) as Arc<dyn CoreTable>;

    let mk_cfg = || {
        let mut cfg = RuntimeConfig::new(4, Policy::Dws);
        // Shrink the paper's 10 ms period / 50 ms safety timeout so the
        // sleep→release→acquire→reclaim cycle turns over many times
        // within the test.
        cfg.coordinator_period = std::time::Duration::from_millis(2);
        cfg.sleep_timeout = Some(std::time::Duration::from_millis(5));
        cfg
    };
    let p0 = Arc::new(Runtime::with_table(mk_cfg(), Arc::clone(&table), 0));
    let p1 = Arc::new(Runtime::with_table(mk_cfg(), Arc::clone(&table), 1));

    // Bursty, seed-derived demand on both programs: idle gaps let
    // workers sleep and release cores, the next burst makes the
    // coordinator acquire/reclaim them back.
    let drive = |rt: Arc<Runtime>, salt: u64| {
        std::thread::spawn(move || {
            let mut x = WORKLOAD_SEED ^ salt;
            let mut total = 0u64;
            for _ in 0..6 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let n = 13 + (x >> 60) % 4; // fib(13..=16)
                total = total.wrapping_add(rt.block_on(|| fib(n)));
                std::thread::sleep(std::time::Duration::from_millis(8));
            }
            total
        })
    };
    let h0 = drive(Arc::clone(&p0), 0xA);
    let h1 = drive(Arc::clone(&p1), 0xB);
    match h0.join() {
        Ok(total) => assert!(total > 0),
        Err(_) => panic!("demand driver thread for program 0 panicked"),
    }
    match h1.join() {
        Ok(total) => assert!(total > 0),
        Err(_) => panic!("demand driver thread for program 1 panicked"),
    }

    // Metrics snapshots precede shutdown, so every metrics-counted
    // transition is already in the ring: the stream's counts bound the
    // metrics' from above (workers also legitimize cores on timeout,
    // which the shared stream sees but per-program counters don't).
    let acquired: u64 = [&p0, &p1].iter().map(|r| r.metrics().cores_acquired).sum();
    let reclaimed: u64 = [&p0, &p1].iter().map(|r| r.metrics().cores_reclaimed).sum();
    drop(Arc::try_unwrap(p0).ok().expect("sole owner"));
    drop(Arc::try_unwrap(p1).ok().expect("sole owner"));

    assert_eq!(traced.dropped(), 0, "ring capacity too small for the run");
    let stats = traced
        .replay_check()
        .unwrap_or_else(|v| panic!("runtime stream violates the protocol: {v:?}"));
    assert!(stats.total() > 0, "a DWS co-run must exercise the table");
    assert!(stats.acquires >= acquired, "stream lost acquires: {} < {acquired}", stats.acquires);
    assert!(stats.reclaims >= reclaimed, "stream lost reclaims: {} < {reclaimed}", stats.reclaims);

    // Quiescent now: replaying the stream must land on the live table.
    let home: Vec<usize> = (0..4).map(|c| traced.home(c)).collect();
    let mut checker = ReplayChecker::new(&home);
    let events = traced.events();
    checker.replay(events.iter().map(|e| &e.event)).unwrap();
    for c in 0..4 {
        assert_eq!(checker.owners()[c], traced.current(c), "core {c} owner after replay");
    }
}
