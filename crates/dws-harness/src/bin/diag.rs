//! Diagnostic: co-runs one mix under one policy and dumps scheduler
//! metrics (sleeps, wakes, core traffic, steal ratios) for calibration.
//!
//! Usage: `diag [i] [j] [policy] [--json]` — `--json` replaces the text
//! dump with a machine-readable report.

use dws_apps::Benchmark;
use dws_harness::{run_mix, solo_baseline, Effort};
use dws_sim::{Policy, ProgramMetrics, SimConfig};
use serde::Serialize;

#[derive(Serialize)]
struct ProgramJson {
    name: String,
    runs: usize,
    mean_run_time_us: Option<f64>,
    metrics: ProgramMetrics,
}

#[derive(Serialize)]
struct DiagJson {
    mix: (usize, usize),
    policy: String,
    norm_i: f64,
    norm_j: f64,
    elapsed_us: u64,
    hit_horizon: bool,
    programs: Vec<ProgramJson>,
}

const USAGE: &str = "usage: diag [i] [j] [policy] [--json] \
                     (i, j: paper ids 1-8; policy: WS, ABP, EP, DWS, DWS-NC or NC, BWS)";

/// A policy by its figure label in any case; `NC` is short for `DWS-NC`.
fn parse_policy(name: &str) -> Option<Policy> {
    let name = if name.eq_ignore_ascii_case("NC") { "DWS-NC" } else { name };
    Policy::all().into_iter().find(|p| p.label().eq_ignore_ascii_case(name))
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let i: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let j: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(6);
    let policy = parse_policy(args.get(3).map_or("DWS", String::as_str));
    let (Some(bench_i), Some(bench_j), Some(policy)) =
        (Benchmark::from_paper_id(i), Benchmark::from_paper_id(j), policy)
    else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let cfg = SimConfig::default();
    let e = Effort::quick();
    let bi = solo_baseline(bench_i, &cfg, e);
    let bj = solo_baseline(bench_j, &cfg, e);
    let r = run_mix((i, j), policy, None, (bi, bj), &cfg, e);

    if json {
        let out = DiagJson {
            mix: (i, j),
            policy: policy.to_string(),
            norm_i: r.norm_i,
            norm_j: r.norm_j,
            elapsed_us: r.report.elapsed_us,
            hit_horizon: r.report.hit_horizon,
            programs: r
                .report
                .programs
                .iter()
                .map(|p| ProgramJson {
                    name: p.name.clone(),
                    runs: p.metrics.run_times_us.len(),
                    mean_run_time_us: p.mean_run_time_us,
                    metrics: p.metrics.clone(),
                })
                .collect(),
        };
        println!("{}", serde_json::to_string_pretty(&out).unwrap());
        return;
    }

    println!("mix ({i},{j}) under {policy}: norm_i={:.3} norm_j={:.3}", r.norm_i, r.norm_j);
    for p in &r.report.programs {
        println!(
            "--- {} ({} runs, mean {:.1} ms)",
            p.name,
            p.metrics.run_times_us.len(),
            p.mean_run_time_us.unwrap_or(f64::NAN) / 1000.0
        );
        let m = &p.metrics;
        println!(
            "  steals ok/fail: {}/{}  ratio {:?}",
            m.steals_ok,
            m.steals_failed,
            m.steal_success_ratio()
        );
        println!(
            "  sleeps {} wakes {} yields {} preempt {}",
            m.sleeps, m.wakes, m.yields, m.preemptions
        );
        println!(
            "  coord_runs {} acquired {} reclaimed {}",
            m.coordinator_runs, m.cores_acquired, m.cores_reclaimed
        );
        println!(
            "  busy {:.1} ms  steal_ovh {:.1} ms  nominal {:.1} ms  tasks {}",
            m.busy_us / 1000.0,
            m.steal_overhead_us / 1000.0,
            m.nominal_work_done_us / 1000.0,
            m.tasks_executed
        );
    }
    println!(
        "elapsed {:.1} ms horizon={}",
        r.report.elapsed_us as f64 / 1000.0,
        r.report.hit_horizon
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_parse_by_label_in_any_case() {
        for p in Policy::all() {
            assert_eq!(parse_policy(p.label()), Some(p));
            assert_eq!(parse_policy(&p.label().to_lowercase()), Some(p));
        }
        assert_eq!(parse_policy("NC"), Some(Policy::DwsNc));
        assert_eq!(parse_policy("nc"), Some(Policy::DwsNc));
        for unknown in ["", "DWS_NC", "cilk"] {
            assert_eq!(parse_policy(unknown), None, "{unknown:?}");
        }
    }
}
