//! The noise study: `noise --sets 2 --runs 5` runs every workload
//! `sets × runs` times on the same code, a fresh seed each time and the
//! sets alternating, and prints per metric and workload each set's median
//! and quartiles. It fails if two sets' medians differ by more than the
//! metric's bound in `BENCHMARK.json`, or a spread exceeds it. The
//! committed `NOISE.md` is this command's output.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::metrics::END_TO_END;
use crate::stats::{python_quartiles, spread};
use crate::{bench_dir, host, workloads};

/// Field `key` of a JSON object.
pub fn json_get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// `value` of every metric in a run's final JSON line.
fn run_once(workload: &str, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", workload, "--trace", "0", "--seed", &seed.to_string()]);
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let json =
        serde_json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}: {last}"))?;
    let field = |k: &str| json_get(&json, k);
    if field("quick").is_some() {
        return Err("a --quick run is not a measurement".into());
    }
    if !out.status.success() || field("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: run failed its output checks:\n{stdout}"));
    }
    if field("failed").and_then(Value::as_u64) != Some(0) {
        eprintln!("note: {workload} seed {seed}: failed = {:?}", field("failed"));
    }
    let metrics = field("metrics").and_then(Value::as_object).ok_or("no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), json_get(m, "value")?.as_f64()?)))
        .collect())
}

/// `bound` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = serde_json::parse(&text).map_err(|e| e.to_string())?;
    let list = json_get(&json, "end_to_end").ok_or("BENCHMARK.json: no end_to_end")?;
    Ok(list
        .as_array()
        .ok_or("end_to_end is not a list")?
        .iter()
        .filter_map(|m| {
            Some((json_get(m, "name")?.as_str()?.to_string(), json_get(m, "bound")?.as_f64()?))
        })
        .collect())
}

pub fn main(args: &[String]) -> ExitCode {
    let (mut sets, mut runs) = (2usize, 5usize);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("noise: {flag} needs a value");
            return ExitCode::from(2);
        };
        match (flag.as_str(), value.parse::<u64>()) {
            ("--sets", Ok(n)) if n >= 2 => sets = n as usize,
            ("--runs", Ok(n)) if n >= 2 => runs = n as usize,
            _ => {
                eprintln!("noise: bad argument {flag} {value} (--sets N>=2 --runs N>=2)");
                return ExitCode::from(2);
            }
        }
    }
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("noise: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("# Noise study\n");
    println!("`noise --sets {sets} --runs {runs}`: {} runs per workload, a fresh seed each, sets alternating.\n", sets * runs);
    println!("Host before: {}\n", host::describe());

    // values[workload][metric][set] = the set's runs
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    for run in 0..runs {
        for set in 0..sets {
            for (w, workload) in workloads::NAMES.into_iter().enumerate() {
                let seed = 1000 + ((run * sets + set) * workloads::NAMES.len() + w) as u64;
                match run_once(workload, seed) {
                    Ok(metrics) => {
                        for (name, v) in metrics {
                            values
                                .entry(workload)
                                .or_default()
                                .entry(name)
                                .or_insert_with(|| vec![vec![]; sets])[set]
                                .push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("noise: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    println!("Host after: {}\n", host::describe());

    let mut ok = true;
    println!("Spread = (Q3 − Q1) / median, quartiles as Python's `statistics.quantiles(values, n=4)`; \"all\" pools the sets. Δ = how much worse the later set's median is than the first's (negative = better).\n");
    for workload in workloads::NAMES {
        println!("## {workload}\n");
        println!(
            "| metric | bound | {} all: median | spread | Δ medians | verdict |",
            (0..sets).map(|s| format!("set {}: Q1 / median / Q3 |", s + 1)).collect::<String>()
        );
        println!("|---|---|{}---|---|---|---|", "---|".repeat(sets));
        for def in &END_TO_END {
            let per_set = &values[workload][def.name];
            let bound = bounds.get(def.name).copied().unwrap_or(0.0);
            let pooled: Vec<f64> = per_set.iter().flatten().copied().collect();
            let medians: Vec<f64> = per_set.iter().map(|s| python_quartiles(s)[1]).collect();
            let worse = |later: f64| {
                let d = (later - medians[0]) / medians[0];
                if def.better == "higher" {
                    -d
                } else {
                    d
                }
            };
            let worst = medians[1..].iter().map(|&m| worse(m)).fold(f64::MIN, f64::max);
            let pooled_spread = spread(&pooled);
            // setup_s is held to its bound on the medians only.
            let spread_ok = def.name == "setup_s" || pooled_spread <= bound;
            let verdict = match (worst <= bound && spread_ok, pooled_spread <= bound / 3.0) {
                (true, true) => "ok",
                (true, false) => "ok (spread above a third of the bound)",
                (false, _) => {
                    ok = false;
                    "EXCEEDS BOUND"
                }
            };
            let cells: String = per_set
                .iter()
                .map(|s| {
                    let [q1, q2, q3] = python_quartiles(s);
                    format!(" {q1:.4} / {q2:.4} / {q3:.4} |")
                })
                .collect();
            println!(
                "| `{}` ({}) | {:.0} % |{cells} {:.4} | {:.1} % | {:+.1} % | {verdict} |",
                def.name,
                def.unit,
                bound * 100.0,
                python_quartiles(&pooled)[1],
                pooled_spread * 100.0,
                worst * 100.0
            );
        }
        println!("\nValues, in run order per set:\n");
        for def in &END_TO_END {
            let sets: Vec<String> = values[workload][def.name]
                .iter()
                .map(|s| s.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" "))
                .collect();
            println!("- `{}`: {}", def.name, sets.join(" | "));
        }
        println!();
    }
    if ok {
        println!("Every end-to-end metric on every workload repeats within its bound.");
        ExitCode::SUCCESS
    } else {
        println!("At least one metric did not repeat within its bound.");
        ExitCode::FAILURE
    }
}
