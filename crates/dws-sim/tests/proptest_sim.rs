//! Property tests over the simulator: work conservation, determinism,
//! table invariants and coordinator-decision consistency under random
//! inputs.

use dws_sim::{
    decide_dws, run_pair, run_solo, AllocTable, CoordCase, CoordObservation, MachineConfig,
    PhaseSpec, Policy, ProgramSpec, RunOptions, SchedConfig, SimConfig, Slot, WorkloadSpec,
    XorShift64Star,
};
use proptest::prelude::*;

fn small_workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    let rec = (1u32..6, 20.0f64..120.0, 0.0f64..0.9).prop_map(|(depth, leaf, mem)| {
        PhaseSpec::Recursive {
            depth,
            branch: 2,
            leaf_work_us: leaf,
            node_work_us: 1.0,
            merge_work_us: 2.0,
            merge_grows: true,
            mem,
            jitter: 0.1,
        }
    });
    let waves = (1u32..6, 2u32..40, 15.0f64..100.0, 0.0f64..500.0, 0.0f64..0.9).prop_map(
        |(iters, width, task, serial, mem)| PhaseSpec::Waves {
            iters,
            width,
            width_end: 0,
            task_work_us: task,
            serial_us: serial,
            mem,
            jitter: 0.1,
        },
    );
    proptest::collection::vec(prop_oneof![rec, waves], 1..3)
        .prop_map(|phases| WorkloadSpec { name: "prop".into(), phases })
}

fn machine(cores: usize) -> SimConfig {
    SimConfig {
        machine: MachineConfig { cores, sockets: 2, ..Default::default() },
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random small workload completes solo under any policy, and the
    /// executed nominal work covers the spec's accounting for every run.
    #[test]
    fn solo_runs_conserve_work(
        wl in small_workload_strategy(),
        policy_idx in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let policy = Policy::all()[policy_idx];
        let mut cfg = machine(4);
        cfg.seed = seed;
        let sched = SchedConfig::for_policy(policy, 4);
        let rep = run_solo(
            cfg,
            wl.clone(),
            sched,
            RunOptions { min_runs: 2, warmup_runs: 0, max_time_us: 120_000_000 },
        );
        prop_assert!(!rep.metrics.run_times_us.is_empty(), "{policy}: no runs completed");
        let runs = rep.metrics.run_times_us.len() as f64;
        // Task sizes carry ±10% jitter, so a small workload's realized
        // work can deviate from the spec's expectation by a few percent.
        prop_assert!(
            rep.metrics.nominal_work_done_us >= wl.total_work_us() * runs * 0.85,
            "{policy}: executed {} < {} x {}",
            rep.metrics.nominal_work_done_us,
            wl.total_work_us(),
            runs
        );
    }

    /// Identical configuration + seed ⇒ bit-identical run traces.
    #[test]
    fn simulation_is_deterministic(
        wl in small_workload_strategy(),
        seed in 0u64..1_000,
    ) {
        let go = || {
            let mut cfg = machine(4);
            cfg.seed = seed;
            let sched = SchedConfig::for_policy(Policy::Dws, 4);
            run_pair(
                cfg,
                ProgramSpec { workload: wl.clone(), sched: sched.clone() },
                ProgramSpec { workload: wl.clone(), sched },
                RunOptions { min_runs: 1, warmup_runs: 0, max_time_us: 60_000_000 },
            )
        };
        let (a, b) = (go(), go());
        for (pa, pb) in a.programs.iter().zip(&b.programs) {
            prop_assert_eq!(&pa.metrics.run_times_us, &pb.metrics.run_times_us);
            prop_assert_eq!(pa.metrics.steals_ok, pb.metrics.steals_ok);
            prop_assert_eq!(pa.metrics.sleeps, pb.metrics.sleeps);
        }
    }

    /// Random release/acquire/reclaim sequences keep the table a valid
    /// partition: every core is FREE or owned by exactly one program, and
    /// home never changes.
    #[test]
    fn alloc_table_stays_a_partition(
        ops in proptest::collection::vec((0usize..8, 0usize..3, 0u8..3), 0..200),
    ) {
        let mut t = AllocTable::equipartition(8, 3);
        let homes: Vec<usize> = (0..8).map(|c| t.home(c)).collect();
        for (core, prog, op) in ops {
            match op {
                0 => {
                    if t.slot(core) == Slot::Used(prog) {
                        t.release(core, prog);
                    }
                }
                1 => {
                    let _ = t.acquire_free(core, prog);
                }
                _ => {
                    let _ = t.reclaim(core, prog);
                }
            }
            t.check_invariants(3);
            // Homes are immutable.
            for (c, &h) in homes.iter().enumerate() {
                prop_assert_eq!(t.home(c), h);
            }
            // Used/free counts always partition the 8 cores.
            let used: usize = (0..3).map(|p| t.used_by(p).len()).sum();
            prop_assert_eq!(used + t.n_free(), 8);
        }
    }

    /// decide_dws never violates the paper's three constraints, for any
    /// observation against any reachable table state.
    #[test]
    fn coordinator_respects_constraints(
        queued in 0usize..200,
        active in 0usize..8,
        sleeping in 0usize..8,
        releases in proptest::collection::vec((0usize..8, 0usize..2), 0..8),
        seed in 0u64..100,
    ) {
        let mut t = AllocTable::equipartition(8, 2);
        for (core, prog) in releases {
            if t.slot(core) == Slot::Used(prog) {
                t.release(core, prog);
                // Sometimes the other program takes it.
                if core % 2 == 0 {
                    t.acquire_free(core, 1 - prog);
                }
            }
        }
        let mut rng = XorShift64Star::new(seed + 1);
        let obs = CoordObservation {
            queued_tasks: queued,
            active_workers: active,
            sleeping_workers: sleeping,
        };
        let d = decide_dws(0, obs, &t, &mut rng);
        // Constraint 3: never touch cores another program holds unreleased.
        for &c in &d.take_free {
            prop_assert_eq!(t.slot(c), Slot::Free);
        }
        for &c in &d.reclaim {
            prop_assert_eq!(t.home(c), 0usize);
            prop_assert_ne!(t.slot(c), Slot::Used(0));
        }
        // Wake count respects both the demand and the sleeping supply.
        prop_assert!(d.total_wakes() <= d.n_w);
        prop_assert!(d.n_w <= sleeping);
        // Case labelling is consistent.
        match d.case {
            CoordCase::NoAction => prop_assert_eq!(d.total_wakes(), 0),
            CoordCase::FreeOnly => prop_assert!(d.reclaim.is_empty()),
            CoordCase::FreePlusReclaim => {
                prop_assert_eq!(d.take_free.len(), t.n_free());
                prop_assert_eq!(d.total_wakes(), d.n_w);
            }
            CoordCase::TakeAllAvailable => {
                prop_assert_eq!(d.take_free.len(), t.n_free());
                prop_assert_eq!(d.reclaim.len(), t.n_reclaimable(0));
            }
        }
    }

    /// The decision's per-pool counts follow the §3.3 three-case split
    /// exactly: `(n_w, 0)` when free cores suffice, `(n_f, n_w - n_f)`
    /// when reclaims cover the shortfall, `(n_f, n_r)` when demand
    /// exceeds everything — restated here independently of
    /// `dws_core::policy::plan_wakes`, against real reachable table states.
    #[test]
    fn decide_dws_counts_follow_the_three_cases(
        queued in 0usize..200,
        active in 0usize..8,
        sleeping in 1usize..8,
        releases in proptest::collection::vec((0usize..8, 0usize..2), 0..8),
        seed in 0u64..100,
    ) {
        let mut t = AllocTable::equipartition(8, 2);
        for (core, prog) in releases {
            if t.slot(core) == Slot::Used(prog) {
                t.release(core, prog);
                if core % 2 == 0 {
                    t.acquire_free(core, 1 - prog);
                }
            }
        }
        let (n_f, n_r) = (t.n_free(), t.n_reclaimable(0));
        let mut rng = XorShift64Star::new(seed + 1);
        let obs = CoordObservation {
            queued_tasks: queued,
            active_workers: active,
            sleeping_workers: sleeping,
        };
        let d = decide_dws(0, obs, &t, &mut rng);
        let (want_free, want_reclaim) = if d.n_w <= n_f {
            (d.n_w, 0)
        } else if d.n_w <= n_f + n_r {
            (n_f, d.n_w - n_f)
        } else {
            (n_f, n_r)
        };
        prop_assert_eq!(d.take_free.len(), want_free);
        prop_assert_eq!(d.reclaim.len(), want_reclaim);
    }

    /// Under DWS, releasing and re-acquiring must never lose a program's
    /// ability to finish: no pair of random workloads hits the horizon.
    #[test]
    fn no_corun_deadlocks(
        wl_a in small_workload_strategy(),
        wl_b in small_workload_strategy(),
        seed in 0u64..200,
    ) {
        let mut cfg = machine(4);
        cfg.seed = seed;
        let sched = SchedConfig::for_policy(Policy::Dws, 4);
        let rep = run_pair(
            cfg,
            ProgramSpec { workload: wl_a, sched: sched.clone() },
            ProgramSpec { workload: wl_b, sched },
            RunOptions { min_runs: 1, warmup_runs: 0, max_time_us: 200_000_000 },
        );
        prop_assert!(!rep.hit_horizon, "co-run never finished a single run each");
    }
}
