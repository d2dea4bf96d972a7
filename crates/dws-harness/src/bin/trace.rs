//! Diagnostic: tick-level trace of a co-run — samples active workers and
//! table ownership every 50 ms to expose core-allocation dynamics.
//!
//! Usage: `trace [i] [j] [horizon_ms] [--json]` — `--json` replaces the
//! text timeline with a machine-readable report (samples + event
//! summary).

use dws_apps::Benchmark;
use dws_sim::{Policy, ProgramSpec, SchedConfig, SchedEvent, SimConfig, Simulator};
use serde::Serialize;

#[derive(Serialize)]
struct SampleJson {
    t_ms: u64,
    active: (usize, usize),
    owned: (usize, usize),
    free: usize,
    runs: (usize, usize),
    queued: (usize, usize),
    sleeps: (u64, u64),
}

#[derive(Serialize)]
struct TraceJson {
    mix: (usize, usize),
    horizon_ms: u64,
    events: usize,
    events_dropped: u64,
    sleeps: usize,
    evicted_sleeps: usize,
    wakes: usize,
    acquires: usize,
    reclaims: usize,
    releases: usize,
    coord_ticks: usize,
    runs_done: usize,
    samples: Vec<SampleJson>,
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let i: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let j: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(6);
    let horizon_ms: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2000);
    let (Some(bench_i), Some(bench_j)) = (Benchmark::from_paper_id(i), Benchmark::from_paper_id(j))
    else {
        eprintln!("usage: trace [i] [j] [horizon_ms] [--json] (i, j: paper ids 1-8)");
        std::process::exit(2);
    };
    let cfg = SimConfig::default();
    let sched = SchedConfig::for_policy(Policy::Dws, 16);
    let mut sim = Simulator::new(
        cfg,
        vec![
            ProgramSpec { workload: bench_i.profile(), sched: sched.clone() },
            ProgramSpec { workload: bench_j.profile(), sched },
        ],
    );
    sim.enable_tracing(2_000_000);
    if !json {
        println!(
            "{:>8} {:>4} {:>4} {:>6} {:>6} {:>5} {:>5} {:>7} {:>7} {:>6} {:>6}",
            "t_ms", "act0", "act1", "own0", "own1", "free", "runs", "Nb0", "Nb1", "slp0", "slp1"
        );
    }
    let mut samples = Vec::new();
    let mut next_sample = 0;
    while sim.now() < horizon_ms * 1000 {
        sim.tick();
        if sim.now() >= next_sample {
            next_sample += 50_000;
            let t = sim.alloc_table();
            let own0 = t.used_by(0).len();
            let own1 = t.used_by(1).len();
            let free = t.n_free();
            let p0 = sim.program(0);
            let p1 = sim.program(1);
            if json {
                samples.push(SampleJson {
                    t_ms: sim.now() / 1000,
                    active: (p0.active_workers(), p1.active_workers()),
                    owned: (own0, own1),
                    free,
                    runs: (p0.runs_completed, p1.runs_completed),
                    queued: (p0.queued_tasks(), p1.queued_tasks()),
                    sleeps: (p0.metrics.sleeps, p1.metrics.sleeps),
                });
            } else {
                println!(
                    "{:>8} {:>4} {:>4} {:>6} {:>6} {:>5} {:>2}/{:<2} {:>7} {:>7} {:>6} {:>6}",
                    sim.now() / 1000,
                    p0.active_workers(),
                    p1.active_workers(),
                    own0,
                    own1,
                    free,
                    p0.runs_completed,
                    p1.runs_completed,
                    p0.queued_tasks(),
                    p1.queued_tasks(),
                    p0.metrics.sleeps,
                    p1.metrics.sleeps
                );
            }
        }
    }

    // Event summary from the structured trace.
    let dropped = sim.events_dropped();
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} scheduler events dropped — the trace is truncated; \
             raise the enable_tracing capacity"
        );
    }
    let t = sim.trace();
    let count = |f: fn(&SchedEvent) -> bool| t.count(f);
    if json {
        let out = TraceJson {
            mix: (i, j),
            horizon_ms,
            events: t.events().len(),
            events_dropped: dropped,
            sleeps: count(|e| matches!(e, SchedEvent::Sleep { .. })),
            evicted_sleeps: count(|e| matches!(e, SchedEvent::Sleep { evicted: true, .. })),
            wakes: count(|e| matches!(e, SchedEvent::Wake { .. })),
            acquires: count(|e| matches!(e, SchedEvent::Acquire { .. })),
            reclaims: count(|e| matches!(e, SchedEvent::Reclaim { .. })),
            releases: count(|e| matches!(e, SchedEvent::Release { .. })),
            coord_ticks: count(|e| matches!(e, SchedEvent::CoordTick { .. })),
            runs_done: count(|e| matches!(e, SchedEvent::RunComplete { .. })),
            samples,
        };
        println!("{}", serde_json::to_string_pretty(&out).unwrap());
        return;
    }
    println!(
        "\ntrace summary over {} ms ({} events, {} dropped):",
        horizon_ms,
        t.events().len(),
        dropped
    );
    println!(
        "  sleeps     : {} (of which evicted: {})",
        count(|e| matches!(e, SchedEvent::Sleep { .. })),
        count(|e| matches!(e, SchedEvent::Sleep { evicted: true, .. }))
    );
    println!("  wakes      : {}", count(|e| matches!(e, SchedEvent::Wake { .. })));
    println!("  acquires   : {}", count(|e| matches!(e, SchedEvent::Acquire { .. })));
    println!("  reclaims   : {}", count(|e| matches!(e, SchedEvent::Reclaim { .. })));
    println!("  releases   : {}", count(|e| matches!(e, SchedEvent::Release { .. })));
    println!("  coord ticks: {}", count(|e| matches!(e, SchedEvent::CoordTick { .. })));
    println!("  runs done  : {}", count(|e| matches!(e, SchedEvent::RunComplete { .. })));
}
