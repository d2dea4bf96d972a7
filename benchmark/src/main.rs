//! The repo's benchmark: four workloads on the real runtime and real
//! threads, end-to-end metrics from an untraced run, per-layer metrics
//! from a traced run. `BENCHMARK.json` at the repo root names all of them;
//! `README.md` beside this crate says why each was chosen.
//!
//! ```text
//! dws-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! dws-benchmark noise --sets 2 --runs 5
//! ```

#[cfg(test)]
mod conformance;
mod host;
mod layers;
mod metrics;
mod noise;
mod probe;
mod sched;
mod stats;
mod work;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use metrics::{Report, END_TO_END, PER_LAYER};
use probe::Tracer;
use stats::steady_quantile;
use workloads::{Env, Outcome};

/// Window of a full run when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
const RUN_SECONDS: f64 = 25.0;
/// Window of a `--quick` smoke run.
const QUICK_SECONDS: f64 = 5.0;
/// The percentile `latency_us_tail` reports. On the serving workloads p99
/// has enough samples beyond it but did not repeat (spread 20-30 % over ten
/// runs against 5 % for p90); p95 does, on all four workloads.
const TAIL_Q: f64 = 0.95;

/// The benchmark's own directory: where `cargo run` says the manifest is,
/// else where it was when this binary was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out =
        Args { workload: "all".into(), seed: 1, seconds: None, trace: false, quick: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workload != "all" && !workloads::NAMES.contains(&out.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; one of {:?} or all",
            out.workload,
            workloads::NAMES
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("noise") {
        return noise::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dws-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let seconds = args.seconds.unwrap_or(if args.quick { QUICK_SECONDS } else { RUN_SECONDS });
    let report = if args.trace {
        traced_run(&args.workload, args.seed, seconds)
    } else {
        untraced_run(&args.workload, args.seed, seconds)
    };
    report.print(args.quick);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One process per workload run: `all` re-invokes this binary for each
/// workload, untraced then traced.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    for name in workloads::NAMES {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            // Later flags win, so the ones given stay in force otherwise.
            cmd.args(argv).args(["--workload", name, "--trace", trace]);
            ok &= cmd.status().expect("run a workload").success();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// SplitMix64's finaliser. The samplers use their seed as the raw state
/// of a xorshift generator, so small neighbouring `--seed` values would
/// start them in nearly the same, nearly empty state.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn env_for(seed: u64, seconds: f64, tracer: Option<Arc<Tracer>>) -> Env {
    let seed = mix(seed);
    Env { seed, seconds, cores: host::table_cores(), tracer, out_dir: bench_dir().join("out") }
}

/// The end-to-end metrics: tracing off, no probe installed.
fn untraced_run(name: &str, seed: u64, seconds: f64) -> Report {
    let o = workloads::run(name, &env_for(seed, seconds, None));
    let mut report = Report::new(name, seed, seconds, &o);
    let values = [
        o.setup_s,
        o.throughput_per_s,
        steady_quantile(&o.latency_us, 0.5),
        steady_quantile(&o.latency_us, TAIL_Q),
        o.cpu_cores_used,
        host::peak_rss_mb(),
    ];
    for (def, v) in END_TO_END.iter().zip(values) {
        report.push(def.name, v, def.unit);
    }
    report.notes.push(format!(
        "latency: n={} tail=p{:.0}; first_task: n={}",
        o.latency_us.len(),
        TAIL_Q * 100.0,
        o.first_task_us.len()
    ));
    let shape: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|&q| format!("p{:.0}={:.0}", q * 100.0, stats::quantile(&o.latency_us, q)))
        .collect();
    report.notes.push(format!("latency distribution, us: {}", shape.join(" ")));
    report
}

/// The workload's headline value and whether higher is better, for
/// `probe.overhead_pct`.
fn headline(name: &str, o: &Outcome) -> (f64, bool) {
    match name {
        "forkjoin-fine" => (o.throughput_per_s, true),
        _ => (steady_quantile(&o.latency_us, 0.5), false),
    }
}

/// The per-layer metrics. Half the window runs untraced, half with the
/// probe installed and spans kept; the difference between the halves'
/// headline is the probe's overhead. The direct-call probes follow.
fn traced_run(name: &str, seed: u64, seconds: f64) -> Report {
    let half = seconds / 2.0;
    let plain = workloads::run(name, &env_for(seed, half, None));
    let tracer = Tracer::new(host::table_cores(), 2);
    let env = env_for(seed, half, Some(Arc::clone(&tracer)));
    let traced = workloads::run(name, &env);

    let spans = tracer.spans();
    std::fs::create_dir_all(&env.out_dir).expect("create the output directory");
    let spans_path = env.out_dir.join(format!("{name}.spans.jsonl"));
    probe::write_spans(&spans_path, &spans).expect("write the spans");

    let mut report = Report::new(name, seed, seconds, &traced);
    report.absorb(&plain);
    report.notes.push(format!("{} spans in {}", spans.len(), spans_path.display()));

    let current_calls = tracer.current_calls.load(std::sync::atomic::Ordering::Relaxed);
    let mut values: std::collections::BTreeMap<&str, f64> =
        layers::in_run_metrics(&spans, current_calls, &traced).into_iter().collect();
    let ((p, higher_better), (t, _)) = (headline(name, &plain), headline(name, &traced));
    let worse_by = if higher_better { p - t } else { t - p };
    values.insert("probe.overhead_pct", if p == 0.0 { 0.0 } else { 100.0 * worse_by / p });
    values.insert("first_task_us_p50", steady_quantile(&traced.first_task_us, 0.5));

    let shm_path = env.out_dir.join(format!("probe-{}.shm", std::process::id()));
    for (probe_name, reps) in layers::direct_probes(env.cores, &shm_path) {
        values.insert(probe_name, reps.median);
        report.notes.push(format!(
            "{probe_name}: min {:.2} median {:.2} CoV {:.1}% over 5 reps",
            reps.min,
            reps.median,
            reps.cov * 100.0
        ));
    }
    for def in PER_LAYER {
        // A layer the workload bypasses has no samples: it reads 0.
        let v = values.remove(def.name).unwrap_or(0.0);
        report.push(def.name, v, def.unit);
    }
    assert!(values.is_empty(), "metrics not declared in PER_LAYER: {:?}", values.keys());
    report
}
