//! Support crate for the Criterion benchmark targets (see `benches/`) and
//! the `bench-trajectory` binary, plus the schemas of the committed
//! `BENCH_N.json` documents at the repo root.
//!
//! Three documents still have a live emitter and a hand-written validator
//! that re-checks their internal consistency: `BENCH_8.json`
//! (`bench-trajectory --fairness`), `BENCH_9.json` (`chaos
//! --emit-bench`) and `BENCH_10.json` (`bench-trajectory
//! --control-plane`). `BENCH_3.json`, `BENCH_5.json` and `BENCH_6.json`
//! are frozen: their generators are retired, and [`FROZEN`] records only
//! the fields each must carry. The benchmarks regenerate the paper's
//! figures and measure the runtime substrates; run them with
//! `cargo bench --workspace`.

use serde::value::Value;

/// Current bench-document schema version, shared by every `BENCH_N.json`.
/// Bump on breaking layout change.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

fn is_int(v: &Value) -> bool {
    matches!(v, Value::U64(_) | Value::I64(_))
}

fn is_num(v: &Value) -> bool {
    matches!(v, Value::U64(_) | Value::I64(_) | Value::F64(_))
}

fn require(cond: bool, errors: &mut Vec<String>, what: &str) {
    if !cond {
        errors.push(what.to_string());
    }
}

/// The JSON type a frozen document must carry at one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// An integer.
    Int,
    /// Any number, integer or float.
    Num,
    /// `true` or `false`.
    Bool,
    /// A string.
    Str,
}

impl FieldType {
    fn admits(self, v: &Value) -> bool {
        match self {
            FieldType::Int => is_int(v),
            FieldType::Num => is_num(v),
            FieldType::Bool => matches!(v, Value::Bool(_)),
            FieldType::Str => matches!(v, Value::String(_)),
        }
    }

    fn name(self) -> &'static str {
        match self {
            FieldType::Int => "an integer",
            FieldType::Num => "numeric",
            FieldType::Bool => "a bool",
            FieldType::Str => "a string",
        }
    }
}

/// A committed bench document whose generator is retired: its `bench`
/// kind, the PR that emitted it, and the dotted paths it must carry,
/// grouped by type. A `*` segment stands for every element of a
/// non-empty array.
#[derive(Debug)]
pub struct Frozen {
    /// The document's `bench` field.
    pub kind: &'static str,
    /// The document's `pr` field (the `N` of `BENCH_N.json`).
    pub pr: u64,
    /// Required paths, grouped by the type each must hold.
    pub fields: &'static [(FieldType, &'static [&'static str])],
}

use FieldType::{Bool, Int, Num, Str};

/// The frozen documents. Their numbers are quoted in EXPERIMENTS.md; the
/// generators last existed at commit `98d63dc`.
pub const FROZEN: &[Frozen] = &[
    Frozen {
        kind: "telemetry-trajectory",
        pr: 3,
        fields: &[
            (
                Int,
                &[
                    "config.cores",
                    "config.fib_n",
                    "config.iters",
                    "config.reps",
                    "config.telemetry_tick_ms",
                    "results.per_program.*.prog",
                    "results.per_program.*.jobs",
                    "results.per_program.*.steals_ok",
                    "results.per_program.*.steals_failed",
                    "results.per_program.*.sleeps",
                    "results.per_program.*.wakes",
                    "results.per_program.*.cores_acquired",
                    "results.per_program.*.cores_reclaimed",
                    "results.per_program.*.cores_released",
                    "results.per_program.*.frames",
                    "results.per_program.*.frames_evicted",
                    "results.steal_latency_ns.p50",
                    "results.steal_latency_ns.p99",
                    "results.wake_to_first_task_ns.p50",
                    "results.wake_to_first_task_ns.p99",
                    "results.telemetry.frames",
                    "results.telemetry.frames_evicted",
                ],
            ),
            (
                Num,
                &[
                    "results.makespan_ms",
                    "results.throughput_jobs_per_s",
                    "results.telemetry.makespan_off_ms",
                    "results.telemetry.makespan_on_ms",
                    "results.telemetry.overhead_pct",
                ],
            ),
            (Bool, &["results.telemetry.endpoint_ok"]),
            (Str, &["results.per_program.*.label"]),
        ],
    },
    Frozen {
        kind: "batched-stealing",
        pr: 5,
        fields: &[
            (
                Int,
                &[
                    "config.cores",
                    "config.fib_n",
                    "config.iters",
                    "config.reps",
                    "config.steal_batch_limit",
                    "results.steals_ok_off",
                    "results.steals_ok_on",
                    "results.steals_failed_off",
                    "results.steals_failed_on",
                    "results.tasks_stolen_on",
                    "results.per_program.*.prog",
                    "results.per_program.*.jobs",
                    "results.per_program.*.steals_ok",
                    "results.per_program.*.steals_failed",
                    "results.per_program.*.tasks_stolen",
                ],
            ),
            (
                Num,
                &[
                    "results.makespan_off_ms",
                    "results.makespan_on_ms",
                    "results.speedup_pct",
                    "results.mean_batch_on",
                ],
            ),
            (Str, &["results.per_program.*.label"]),
        ],
    },
    Frozen {
        kind: "task-trace",
        pr: 6,
        fields: &[
            (
                Int,
                &[
                    "config.cores",
                    "config.fib_n",
                    "config.iters",
                    "config.reps",
                    "config.trace_capacity",
                    "results.per_program.*.prog",
                    "results.per_program.*.jobs",
                    "results.per_program.*.sojourn_samples",
                    "results.per_program.*.sojourn_p50_ns",
                    "results.per_program.*.sojourn_p99_ns",
                    "results.per_program.*.sojourn_p999_ns",
                ],
            ),
            (
                Num,
                &[
                    "results.makespan_off_ms",
                    "results.makespan_on_ms",
                    "results.overhead_pct",
                    "results.budget_pct",
                ],
            ),
            (Bool, &["results.within_budget"]),
            (Str, &["results.per_program.*.label"]),
        ],
    },
];

/// Validates a frozen document against its [`FROZEN`] row: the header
/// (`bench`, `pr`, `schema_version == 1`), a full-length run
/// (`config.fast == false` — a smoke run is not a measurement), and every
/// listed path present with its type. Returns every violation found, not
/// just the first; each names the path it is about.
pub fn validate_frozen(row: &Frozen, doc: &Value) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    let e = &mut errors;

    require(doc["bench"].as_str() == Some(row.kind), e, "bench name mismatch");
    require(
        doc["schema_version"].as_u64() == Some(BENCH_SCHEMA_VERSION),
        e,
        "schema_version mismatch",
    );
    require(doc["pr"].as_u64() == Some(row.pr), e, &format!("pr must be {}", row.pr));
    require(
        doc["config"]["fast"] == Value::Bool(false),
        e,
        "config.fast must be false (a smoke run is not a measurement)",
    );
    for &(ty, paths) in row.fields {
        for path in paths {
            let segments: Vec<&str> = path.split('.').collect();
            check_path(doc, "", &segments, ty, e);
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Follows `rest` down from `v` (reached at path `at`), expanding `*` over
/// array elements, and checks the leaf against `ty`.
fn check_path(v: &Value, at: &str, rest: &[&str], ty: FieldType, e: &mut Vec<String>) {
    let Some((&seg, rest)) = rest.split_first() else {
        require(ty.admits(v), e, &format!("{at} must be {}", ty.name()));
        return;
    };
    let dot = if at.is_empty() { "" } else { "." };
    if seg == "*" {
        match v.as_array() {
            Some(items) if !items.is_empty() => {
                for (i, item) in items.iter().enumerate() {
                    check_path(item, &format!("{at}{dot}{i}"), rest, ty, e);
                }
            }
            _ => {
                // Reported once, not once per path under the array.
                let msg = format!("{at} must be a non-empty array");
                if !e.contains(&msg) {
                    e.push(msg);
                }
            }
        }
    } else {
        check_path(&v[seg], &format!("{at}{dot}{seg}"), rest, ty, e);
    }
}

/// Validates a parsed `BENCH_8.json` document against the schema the
/// `bench-trajectory --fairness` mode emits: identification header, the
/// simulated-machine configuration, and a program-count sweep where each
/// point carries the settled per-program core-time integrals, Jain's
/// fairness index over them, and pooled demand-satisfaction latency
/// percentiles from the allocation ledger. Beyond shape, the validator
/// re-checks the ledger's conservation law — per-program core-µs plus
/// free core-µs must equal `cores × elapsed` exactly — so a committed
/// document *proves* the run leaked no core-time. Returns every
/// violation found, not just the first.
pub fn validate_bench8_value(doc: &Value) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    let e = &mut errors;

    require(doc["bench"].as_str() == Some("fairness-trajectory"), e, "bench name mismatch");
    require(
        doc["schema_version"].as_u64() == Some(BENCH_SCHEMA_VERSION),
        e,
        "schema_version mismatch",
    );
    require(doc["pr"].as_u64() == Some(8), e, "pr must be 8");

    let cfg = &doc["config"];
    for key in ["cores", "sockets", "duration_us", "seed"] {
        require(is_int(&cfg[key]), e, &format!("config.{key} must be an integer"));
    }
    require(matches!(cfg["fast"], Value::Bool(_)), e, "config.fast must be a bool");
    let cores = cfg["cores"].as_u64();

    let r = &doc["results"];
    match &r["sweep"] {
        Value::Array(points) if !points.is_empty() => {
            let mut prev_programs = 0u64;
            for (i, pt) in points.iter().enumerate() {
                for key in [
                    "programs",
                    "elapsed_us",
                    "core_us_total",
                    "free_core_us",
                    "alloc_samples",
                    "alloc_p50_ns",
                    "alloc_p99_ns",
                    "release_p50_ns",
                    "release_p99_ns",
                ] {
                    require(is_int(&pt[key]), e, &format!("sweep[{i}].{key} must be an integer"));
                }
                // The trajectory axis: points ordered by program count.
                if let Some(m) = pt["programs"].as_u64() {
                    require(
                        m > prev_programs,
                        e,
                        &format!("sweep[{i}].programs must increase along the sweep"),
                    );
                    prev_programs = m;
                }
                // Jain's index over m programs lives in [1/m, 1].
                match num(&pt["jain_index"]) {
                    Some(j) => require(
                        j > 0.0 && j <= 1.0 + 1e-9,
                        e,
                        &format!("sweep[{i}].jain_index must be in (0, 1]"),
                    ),
                    None => e.push(format!("sweep[{i}].jain_index must be numeric")),
                }
                // Quantiles of one distribution cannot invert.
                for (lo, hi) in
                    [("alloc_p50_ns", "alloc_p99_ns"), ("release_p50_ns", "release_p99_ns")]
                {
                    if let (Some(p50), Some(p99)) = (pt[lo].as_u64(), pt[hi].as_u64()) {
                        require(
                            p50 <= p99,
                            e,
                            &format!("sweep[{i}]: {lo} must be <= {hi} (monotone quantiles)"),
                        );
                    }
                }
                // Conservation: the ledger accounts for every core-µs of
                // the run — attributed plus free equals cores × elapsed.
                if let (Some(k), Some(el), Some(total), Some(free)) = (
                    cores,
                    pt["elapsed_us"].as_u64(),
                    pt["core_us_total"].as_u64(),
                    pt["free_core_us"].as_u64(),
                ) {
                    require(
                        total + free == k * el,
                        e,
                        &format!(
                            "sweep[{i}]: core_us_total + free_core_us must equal \
                             cores x elapsed_us (conservation)"
                        ),
                    );
                }
                match &pt["per_program"] {
                    Value::Array(progs) if !progs.is_empty() => {
                        if let Some(m) = pt["programs"].as_u64() {
                            require(
                                progs.len() as u64 == m,
                                e,
                                &format!("sweep[{i}].per_program must have `programs` entries"),
                            );
                        }
                        let mut sum_core_us = 0u64;
                        for (j, p) in progs.iter().enumerate() {
                            let at = format!("sweep[{i}].per_program[{j}]");
                            require(p["label"].as_str().is_some(), e, &format!("{at}.label"));
                            for key in ["prog", "core_us", "alloc_p99_ns"] {
                                require(
                                    is_int(&p[key]),
                                    e,
                                    &format!("{at}.{key} must be an integer"),
                                );
                            }
                            for key in ["share_received", "share_entitled"] {
                                match num(&p[key]) {
                                    Some(s) => require(
                                        (0.0..=1.0 + 1e-9).contains(&s),
                                        e,
                                        &format!("{at}.{key} must be in [0, 1]"),
                                    ),
                                    None => e.push(format!("{at}.{key} must be numeric")),
                                }
                            }
                            sum_core_us += p["core_us"].as_u64().unwrap_or(0);
                        }
                        // The sweep-level total is the sum of its parts.
                        if let Some(total) = pt["core_us_total"].as_u64() {
                            require(
                                sum_core_us == total,
                                e,
                                &format!(
                                    "sweep[{i}]: per_program core_us must sum to core_us_total"
                                ),
                            );
                        }
                    }
                    _ => e.push(format!("sweep[{i}].per_program must be a non-empty array")),
                }
            }
        }
        _ => e.push("results.sweep must be a non-empty array".to_string()),
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Validates a parsed `BENCH_9.json` document against the schema the
/// `chaos --emit-bench` run emits: identification header, the fault-
/// injection configuration, and per-fault-class MTTR (fault injected →
/// invariants restored) percentiles. Beyond shape, the validator
/// re-checks the run's internal consistency — class names must be the
/// known fault classes (no duplicates), per-class runs must sum to the
/// schedules actually run, the MTTR quantiles of each class must be
/// monotone (min ≤ p50 ≤ p99 ≤ max), and a committed document must
/// record **zero** invariant violations: a chaos artifact with
/// violations is a bug report, not a benchmark. Returns every violation
/// found, not just the first.
pub fn validate_bench9_value(doc: &Value) -> Result<(), Vec<String>> {
    const FAULT_CLASSES: [&str; 7] =
        ["pause", "kill", "stall", "churn", "torn", "ring", "doorbell"];

    let mut errors = Vec::new();
    let e = &mut errors;

    require(doc["bench"].as_str() == Some("chaos-mttr"), e, "bench name mismatch");
    require(
        doc["schema_version"].as_u64() == Some(BENCH_SCHEMA_VERSION),
        e,
        "schema_version mismatch",
    );
    require(doc["pr"].as_u64() == Some(9), e, "pr must be 9");

    let cfg = &doc["config"];
    for key in ["schedules", "seed", "cores", "lease_timeout_ms", "stall_timeout_ms"] {
        require(is_int(&cfg[key]), e, &format!("config.{key} must be an integer"));
    }
    require(matches!(cfg["fast"], Value::Bool(_)), e, "config.fast must be a bool");

    let r = &doc["results"];
    require(is_int(&r["schedules_run"]), e, "results.schedules_run must be an integer");
    require(
        r["violations"].as_u64() == Some(0),
        e,
        "results.violations must be 0 (a run with violations is not committable)",
    );
    match &r["per_class"] {
        Value::Array(classes) if !classes.is_empty() => {
            let mut seen: Vec<&str> = Vec::new();
            let mut runs_total = 0u64;
            for (i, c) in classes.iter().enumerate() {
                match c["class"].as_str() {
                    Some(name) => {
                        require(
                            FAULT_CLASSES.contains(&name),
                            e,
                            &format!(
                                "per_class[{i}].class {name:?} is not a known fault class \
                                 (expected one of {FAULT_CLASSES:?})"
                            ),
                        );
                        require(
                            !seen.contains(&name),
                            e,
                            &format!("per_class[{i}].class {name:?} appears more than once"),
                        );
                        seen.push(name);
                    }
                    None => e.push(format!("per_class[{i}].class must be a string")),
                }
                for key in ["runs", "mttr_min_ns", "mttr_p50_ns", "mttr_p99_ns", "mttr_max_ns"] {
                    require(
                        is_int(&c[key]),
                        e,
                        &format!("per_class[{i}].{key} must be an integer"),
                    );
                }
                if let Some(n) = c["runs"].as_u64() {
                    require(n >= 1, e, &format!("per_class[{i}].runs must be >= 1"));
                    runs_total += n;
                }
                // Quantiles of one distribution cannot invert.
                let qs = ["mttr_min_ns", "mttr_p50_ns", "mttr_p99_ns", "mttr_max_ns"];
                for w in qs.windows(2) {
                    if let (Some(lo), Some(hi)) = (c[w[0]].as_u64(), c[w[1]].as_u64()) {
                        require(
                            lo <= hi,
                            e,
                            &format!(
                                "per_class[{i}]: {} must be <= {} (monotone quantiles)",
                                w[0], w[1]
                            ),
                        );
                    }
                }
            }
            // Every schedule that ran landed in exactly one class.
            if let Some(total) = r["schedules_run"].as_u64() {
                require(runs_total == total, e, "per_class runs must sum to results.schedules_run");
            }
        }
        _ => e.push("results.per_class must be a non-empty array".to_string()),
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Validates a parsed `BENCH_10.json` document against the schema the
/// `bench-trajectory --control-plane` mode emits: identification header,
/// the workload configuration (idle-submit probes + open-loop serving
/// load at a deliberately *long* coordinator period), and a two-arm
/// comparison — `polling` (event-driven wakes off) and `doorbell`
/// (edge-triggered wakes). Beyond shape, the validator re-checks the run's
/// internal consistency — the arms must appear in that exact order with
/// flags matching their names, the polling arm must have recorded **zero**
/// doorbell wakes (and the doorbell arm at least one), quantiles must
/// be monotone, arrival accounting must balance, and the headline block
/// must quote the arm numbers it summarizes with verdict booleans that
/// agree with them. An honest losing document is schema-valid (the CI
/// gate judges the verdicts, not the validator). A document from before
/// the adaptive arm was deleted (a third `doorbell-adaptive` arm, and
/// `adaptive` / `knobs` keys on every arm) is refused by name. Returns
/// every violation found, not just the first.
pub fn validate_bench10_value(doc: &Value) -> Result<(), Vec<String>> {
    const ARMS: [(&str, bool); 2] = [("polling", false), ("doorbell", true)];

    let mut errors = Vec::new();
    let e = &mut errors;

    require(doc["bench"].as_str() == Some("control-plane"), e, "bench name mismatch");
    require(
        doc["schema_version"].as_u64() == Some(BENCH_SCHEMA_VERSION),
        e,
        "schema_version mismatch",
    );
    require(doc["pr"].as_u64() == Some(10), e, "pr must be 10");

    let cfg = &doc["config"];
    for key in [
        "cores",
        "coordinator_period_ms",
        "t_sleep_ms",
        "probes",
        "duration_ms",
        "ring_capacity",
        "drain_batch",
        "seed",
    ] {
        require(is_int(&cfg[key]), e, &format!("config.{key} must be an integer"));
    }
    for key in ["rate_per_sec", "burstiness", "demand_min_us", "demand_max_us", "demand_alpha"] {
        require(is_num(&cfg[key]), e, &format!("config.{key} must be numeric"));
    }
    require(matches!(cfg["fast"], Value::Bool(_)), e, "config.fast must be a bool");

    let r = &doc["results"];
    for (i, arm) in r["arms"].as_array().into_iter().flatten().enumerate() {
        for key in ["adaptive", "knobs"] {
            require(
                arm.get(key).is_none(),
                e,
                &format!("arms[{i}].{key}: the adaptive knob controller and its arm were removed"),
            );
        }
    }
    // Arm lookups for the headline cross-checks below.
    let mut wake_p99 = [None::<u64>; 2];
    let mut req_p99 = [None::<u64>; 2];
    match &r["arms"] {
        Value::Array(arms) if arms.len() == ARMS.len() => {
            for (i, (arm, &(name, event_driven))) in arms.iter().zip(&ARMS).enumerate() {
                let at = format!("arms[{i}]");
                require(
                    arm["arm"].as_str() == Some(name),
                    e,
                    &format!("{at}.arm must be {name:?} (fixed order)"),
                );
                require(
                    matches!(arm["event_driven"], Value::Bool(b) if b == event_driven),
                    e,
                    &format!("{at}.event_driven must be {event_driven} for the {name} arm"),
                );
                for key in ["doorbell_wakes", "wake_p50_us", "wake_p99_us"] {
                    require(is_int(&arm[key]), e, &format!("{at}.{key} must be an integer"));
                }
                require(
                    is_num(&arm["throughput_req_per_s"]),
                    e,
                    &format!("{at}.throughput_req_per_s must be numeric"),
                );
                // The polling arm must not have taken a single doorbell
                // wake — that is what makes it the baseline — and an
                // event-driven arm that never woke on a ring measured
                // nothing.
                if let Some(wakes) = arm["doorbell_wakes"].as_u64() {
                    if event_driven {
                        require(
                            wakes >= 1,
                            e,
                            &format!("{at}: the {name} arm must record doorbell wakes"),
                        );
                    } else {
                        require(
                            wakes == 0,
                            e,
                            &format!("{at}: the polling arm must record zero doorbell wakes"),
                        );
                    }
                }
                if let (Some(p50), Some(p99)) =
                    (arm["wake_p50_us"].as_u64(), arm["wake_p99_us"].as_u64())
                {
                    require(p50 <= p99, e, &format!("{at}: wake quantiles must be monotone"));
                    wake_p99[i] = Some(p99);
                }
                match &arm["per_program"] {
                    Value::Array(progs) if !progs.is_empty() => {
                        let mut p99_max = 0u64;
                        for (j, p) in progs.iter().enumerate() {
                            let at = format!("{at}.per_program[{j}]");
                            require(p["label"].as_str().is_some(), e, &format!("{at}.label"));
                            for key in [
                                "prog",
                                "offered",
                                "submitted",
                                "shed",
                                "fenced",
                                "admitted",
                                "request_p50_us",
                                "request_p99_us",
                                "request_p999_us",
                            ] {
                                require(
                                    is_int(&p[key]),
                                    e,
                                    &format!("{at}.{key} must be an integer"),
                                );
                            }
                            // An open-loop generator accounts for every
                            // arrival exactly once, and the coordinator
                            // can only admit what the ring accepted.
                            if let (Some(off), Some(sub), Some(shed), Some(fen)) = (
                                p["offered"].as_u64(),
                                p["submitted"].as_u64(),
                                p["shed"].as_u64(),
                                p["fenced"].as_u64(),
                            ) {
                                require(
                                    off == sub + shed + fen,
                                    e,
                                    &format!("{at}: offered must equal submitted+shed+fenced"),
                                );
                            }
                            if let (Some(adm), Some(sub)) =
                                (p["admitted"].as_u64(), p["submitted"].as_u64())
                            {
                                require(
                                    adm <= sub,
                                    e,
                                    &format!("{at}: admitted must be <= submitted"),
                                );
                            }
                            // Quantiles of one distribution cannot invert.
                            if let (Some(p50), Some(p99), Some(p999)) = (
                                p["request_p50_us"].as_u64(),
                                p["request_p99_us"].as_u64(),
                                p["request_p999_us"].as_u64(),
                            ) {
                                require(
                                    p50 <= p99 && p99 <= p999,
                                    e,
                                    &format!("{at}: request quantiles must be monotone"),
                                );
                                p99_max = p99_max.max(p99);
                            }
                        }
                        req_p99[i] = Some(p99_max);
                    }
                    _ => e.push(format!("{at}.per_program must be a non-empty array")),
                }
            }
        }
        _ => e.push(format!(
            "results.arms must be an array of exactly {} arms (polling, doorbell)",
            ARMS.len()
        )),
    }

    // The headline block must quote the arm numbers it summarizes and
    // draw verdicts that agree with them.
    let h = &r["headline"];
    for key in [
        "polling_wake_p99_us",
        "doorbell_wake_p99_us",
        "polling_request_p99_us",
        "doorbell_request_p99_us",
        "coordinator_period_us",
    ] {
        require(is_int(&h[key]), e, &format!("results.headline.{key} must be an integer"));
    }
    for key in ["doorbell_beats_polling_wake", "doorbell_unfloors_request_p99"] {
        require(
            matches!(h[key], Value::Bool(_)),
            e,
            &format!("results.headline.{key} must be a bool"),
        );
    }
    for (key, arm_val) in
        [("polling_wake_p99_us", wake_p99[0]), ("doorbell_wake_p99_us", wake_p99[1])]
    {
        if let (Some(quoted), Some(measured)) = (h[key].as_u64(), arm_val) {
            require(
                quoted == measured,
                e,
                &format!("results.headline.{key} must quote the arm's wake_p99_us"),
            );
        }
    }
    for (key, arm_val) in
        [("polling_request_p99_us", req_p99[0]), ("doorbell_request_p99_us", req_p99[1])]
    {
        if let (Some(quoted), Some(measured)) = (h[key].as_u64(), arm_val) {
            require(
                quoted == measured,
                e,
                &format!("results.headline.{key} must quote the arm's worst request_p99_us"),
            );
        }
    }
    if let (Some(poll), Some(door), Value::Bool(beats)) = (
        h["polling_wake_p99_us"].as_u64(),
        h["doorbell_wake_p99_us"].as_u64(),
        &h["doorbell_beats_polling_wake"],
    ) {
        require(
            *beats == (door < poll),
            e,
            "results.headline.doorbell_beats_polling_wake disagrees with the wake numbers",
        );
    }
    if let (Some(req), Some(period), Value::Bool(unfloored)) = (
        h["doorbell_request_p99_us"].as_u64(),
        h["coordinator_period_us"].as_u64(),
        &h["doorbell_unfloors_request_p99"],
    ) {
        require(
            *unfloored == (req < period),
            e,
            "results.headline.doorbell_unfloors_request_p99 disagrees with the period",
        );
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(n) => Some(n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_doc() -> Value {
        serde_json::from_str(
            r#"{
              "bench": "telemetry-trajectory",
              "schema_version": 1,
              "pr": 3,
              "config": {"cores": 4, "fib_n": 23, "iters": 12, "reps": 3,
                         "telemetry_tick_ms": 10, "fast": false},
              "results": {
                "makespan_ms": 812.5,
                "throughput_jobs_per_s": 120345.6,
                "per_program": [
                  {"prog": 0, "label": "p0", "jobs": 1000, "steals_ok": 10,
                   "steals_failed": 3, "sleeps": 5, "wakes": 5,
                   "cores_acquired": 2, "cores_reclaimed": 1,
                   "cores_released": 3, "frames": 80, "frames_evicted": 0}
                ],
                "steal_latency_ns": {"p50": 2048, "p99": 65536},
                "wake_to_first_task_ns": {"p50": 4096, "p99": 262144},
                "telemetry": {"makespan_off_ms": 800.0, "makespan_on_ms": 812.5,
                              "overhead_pct": 1.56, "frames": 160,
                              "frames_evicted": 0, "endpoint_ok": true}
              }
            }"#,
        )
        .unwrap()
    }

    fn set(doc: &mut Value, path: &[&str], v: Value) {
        let mut cur = doc;
        for (i, key) in path.iter().enumerate() {
            let Value::Object(pairs) = cur else { panic!("not an object at {key}") };
            let slot =
                pairs.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("missing {key}"));
            if i == path.len() - 1 {
                slot.1 = v;
                return;
            }
            cur = &mut slot.1;
        }
    }

    /// Deletes the field at a dotted path whose numeric segments index
    /// arrays.
    fn remove(doc: &mut Value, path: &str) {
        let (parent, leaf) = path.rsplit_once('.').unwrap_or(("", path));
        let mut cur = doc;
        for seg in parent.split('.').filter(|s| !s.is_empty()) {
            cur = match cur {
                Value::Array(items) => &mut items[seg.parse::<usize>().unwrap()],
                Value::Object(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == seg).unwrap().1,
                _ => panic!("cannot descend into {seg} of {path}"),
            };
        }
        let Value::Object(pairs) = cur else { panic!("{path}: parent is not an object") };
        let before = pairs.len();
        pairs.retain(|(k, _)| k != leaf);
        assert_eq!(pairs.len(), before - 1, "{path} was not present");
    }

    fn frozen(pr: u64) -> &'static Frozen {
        FROZEN.iter().find(|row| row.pr == pr).unwrap()
    }

    fn valid_bench5_doc() -> Value {
        serde_json::from_str(
            r#"{
              "bench": "batched-stealing",
              "schema_version": 1,
              "pr": 5,
              "config": {"cores": 4, "fib_n": 27, "iters": 30, "reps": 3,
                         "steal_batch_limit": 8, "fast": false},
              "results": {
                "makespan_off_ms": 900.0,
                "makespan_on_ms": 850.0,
                "speedup_pct": 5.56,
                "steals_ok_off": 5000,
                "steals_ok_on": 1200,
                "steals_failed_off": 800,
                "steals_failed_on": 300,
                "tasks_stolen_on": 4800,
                "mean_batch_on": 4.0,
                "per_program": [
                  {"prog": 0, "label": "p0", "jobs": 30, "steals_ok": 600,
                   "steals_failed": 150, "tasks_stolen": 2400}
                ]
              }
            }"#,
        )
        .unwrap()
    }

    fn valid_bench6_doc() -> Value {
        serde_json::from_str(
            r#"{
              "bench": "task-trace",
              "schema_version": 1,
              "pr": 6,
              "config": {"cores": 4, "fib_n": 27, "iters": 30, "reps": 3,
                         "trace_capacity": 65536, "fast": false},
              "results": {
                "makespan_off_ms": 800.0,
                "makespan_on_ms": 812.0,
                "overhead_pct": 1.5,
                "budget_pct": 3.0,
                "within_budget": true,
                "per_program": [
                  {"prog": 0, "label": "p0", "jobs": 30,
                   "sojourn_samples": 120000, "sojourn_p50_ns": 1024,
                   "sojourn_p99_ns": 65536, "sojourn_p999_ns": 524288}
                ]
              }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn valid_document_passes() {
        assert_eq!(validate_frozen(frozen(3), &valid_doc()), Ok(()));
    }

    #[test]
    fn wrong_bench_name_fails() {
        let mut doc = valid_doc();
        set(&mut doc, &["bench"], Value::String("other".into()));
        assert!(validate_frozen(frozen(3), &doc).is_err());
    }

    #[test]
    fn non_numeric_overhead_fails_with_a_named_path() {
        let mut doc = valid_doc();
        set(&mut doc, &["results", "telemetry", "overhead_pct"], Value::String("2%".into()));
        let errs = validate_frozen(frozen(3), &doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("results.telemetry.overhead_pct")), "{errs:?}");
    }

    #[test]
    fn missing_per_program_fields_fail() {
        let mut doc = valid_doc();
        set(&mut doc, &["results", "per_program"], Value::Array(vec![]));
        let errs = validate_frozen(frozen(3), &doc).unwrap_err();
        assert_eq!(errs, ["results.per_program must be a non-empty array"], "reported once");
    }

    #[test]
    fn integer_makespan_is_accepted() {
        // Numbers may land as ints when they happen to be whole.
        let mut doc = valid_doc();
        set(&mut doc, &["results", "makespan_ms"], Value::U64(812));
        assert_eq!(validate_frozen(frozen(3), &doc), Ok(()));
    }

    #[test]
    fn valid_bench5_document_passes() {
        assert_eq!(validate_frozen(frozen(5), &valid_bench5_doc()), Ok(()));
    }

    #[test]
    fn bench5_rejects_bench3_document_and_vice_versa() {
        assert!(validate_frozen(frozen(5), &valid_doc()).is_err());
        assert!(validate_frozen(frozen(3), &valid_bench5_doc()).is_err());
    }

    #[test]
    fn bench5_missing_batch_limit_fails() {
        let mut doc = valid_bench5_doc();
        set(&mut doc, &["config", "steal_batch_limit"], Value::String("8".into()));
        let errs = validate_frozen(frozen(5), &doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("config.steal_batch_limit")), "{errs:?}");
    }

    #[test]
    fn valid_bench6_document_passes() {
        assert_eq!(validate_frozen(frozen(6), &valid_bench6_doc()), Ok(()));
    }

    #[test]
    fn bench6_rejects_other_schemas_and_vice_versa() {
        assert!(validate_frozen(frozen(6), &valid_doc()).is_err());
        assert!(validate_frozen(frozen(6), &valid_bench5_doc()).is_err());
        assert!(validate_frozen(frozen(3), &valid_bench6_doc()).is_err());
        assert!(validate_frozen(frozen(5), &valid_bench6_doc()).is_err());
    }

    #[test]
    fn frozen_document_missing_any_listed_path_fails_naming_it() {
        for (pr, doc) in [(3, valid_doc()), (5, valid_bench5_doc()), (6, valid_bench6_doc())] {
            let row = frozen(pr);
            for &(_, paths) in row.fields {
                for path in paths {
                    let concrete = path.replace('*', "0");
                    let mut doc = doc.clone();
                    remove(&mut doc, &concrete);
                    let errs = validate_frozen(row, &doc).unwrap_err();
                    assert!(errs.iter().any(|m| m.contains(&concrete)), "{concrete}: {errs:?}");
                }
            }
        }
    }

    #[test]
    fn frozen_document_with_a_wrong_pr_fails() {
        let mut doc = valid_bench6_doc();
        set(&mut doc, &["pr"], Value::U64(7));
        let errs = validate_frozen(frozen(6), &doc).unwrap_err();
        assert_eq!(errs, ["pr must be 6"]);
    }

    #[test]
    fn frozen_smoke_run_fails() {
        for (pr, mut doc) in [(3, valid_doc()), (5, valid_bench5_doc()), (6, valid_bench6_doc())] {
            set(&mut doc, &["config", "fast"], Value::Bool(true));
            let errs = validate_frozen(frozen(pr), &doc).unwrap_err();
            assert!(errs.iter().any(|m| m.contains("config.fast must be false")), "{errs:?}");
        }
    }

    #[test]
    fn committed_frozen_documents_pass() {
        for (pr, text) in [
            (3, include_str!("../../BENCH_3.json")),
            (5, include_str!("../../BENCH_5.json")),
            (6, include_str!("../../BENCH_6.json")),
        ] {
            let doc: Value = serde_json::from_str(text).unwrap();
            assert_eq!(validate_frozen(frozen(pr), &doc), Ok(()), "BENCH_{pr}.json");
        }
    }

    fn valid_bench8_doc() -> Value {
        serde_json::from_str(
            r#"{
              "bench": "fairness-trajectory",
              "schema_version": 1,
              "pr": 8,
              "config": {"cores": 4, "sockets": 2, "duration_us": 100000,
                         "seed": 11, "fast": false},
              "results": {
                "sweep": [
                  {"programs": 2, "elapsed_us": 100000, "core_us_total": 380000,
                   "free_core_us": 20000, "jain_index": 0.98,
                   "alloc_samples": 40, "alloc_p50_ns": 30000,
                   "alloc_p99_ns": 900000, "release_p50_ns": 20000,
                   "release_p99_ns": 500000,
                   "per_program": [
                     {"prog": 0, "label": "greedy-0", "core_us": 200000,
                      "share_received": 0.5, "share_entitled": 0.5,
                      "alloc_p99_ns": 900000},
                     {"prog": 1, "label": "bursty-1", "core_us": 180000,
                      "share_received": 0.45, "share_entitled": 0.5,
                      "alloc_p99_ns": 800000}
                   ]}
                ]
              }
            }"#,
        )
        .unwrap()
    }

    fn set_bench8_point(doc: &mut Value, key: &str, v: Value) {
        let Value::Object(pairs) = doc else { panic!("not an object") };
        let results = &mut pairs.iter_mut().find(|(k, _)| k == "results").unwrap().1;
        let Value::Object(pairs) = results else { panic!() };
        let sweep = &mut pairs.iter_mut().find(|(k, _)| k == "sweep").unwrap().1;
        let Value::Array(points) = sweep else { panic!() };
        set(&mut points[0], &[key], v);
    }

    #[test]
    fn valid_bench8_document_passes() {
        assert_eq!(validate_bench8_value(&valid_bench8_doc()), Ok(()));
    }

    #[test]
    fn bench8_rejects_other_schemas_and_vice_versa() {
        assert!(validate_bench8_value(&valid_doc()).is_err());
        assert!(validate_bench8_value(&valid_bench6_doc()).is_err());
        assert!(validate_frozen(frozen(3), &valid_bench8_doc()).is_err());
        assert!(validate_frozen(frozen(6), &valid_bench8_doc()).is_err());
    }

    #[test]
    fn bench8_leaked_core_seconds_fail_conservation() {
        // 4 cores x 100 ms elapsed = 400 000 core-µs; attributing one µs
        // less without moving it to `free` is exactly the leak the
        // conservation rule exists to catch.
        let mut doc = valid_bench8_doc();
        set_bench8_point(&mut doc, "core_us_total", Value::U64(379_999));
        let errs = validate_bench8_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("conservation")), "{errs:?}");
    }

    #[test]
    fn bench8_per_program_sum_must_match_total() {
        let mut doc = valid_bench8_doc();
        // Shift the same µs *into* a program so conservation still holds
        // but the per-program breakdown no longer sums to the total.
        set_bench8_point(&mut doc, "free_core_us", Value::U64(19_999));
        set_bench8_point(&mut doc, "core_us_total", Value::U64(380_001));
        let errs = validate_bench8_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("sum to core_us_total")), "{errs:?}");
    }

    #[test]
    fn bench8_jain_index_out_of_range_fails() {
        let mut doc = valid_bench8_doc();
        set_bench8_point(&mut doc, "jain_index", Value::F64(1.7));
        let errs = validate_bench8_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("jain_index")), "{errs:?}");
    }

    #[test]
    fn bench8_inverted_alloc_quantiles_fail() {
        let mut doc = valid_bench8_doc();
        set_bench8_point(&mut doc, "alloc_p99_ns", Value::U64(1));
        let errs = validate_bench8_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("monotone")), "{errs:?}");
    }

    #[test]
    fn bench8_program_count_must_match_breakdown() {
        let mut doc = valid_bench8_doc();
        set_bench8_point(&mut doc, "programs", Value::U64(3));
        let errs = validate_bench8_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("`programs` entries")), "{errs:?}");
    }

    fn valid_bench9_doc() -> Value {
        serde_json::from_str(
            r#"{
              "bench": "chaos-mttr",
              "schema_version": 1,
              "pr": 9,
              "config": {"schedules": 12, "seed": 3298843565, "cores": 4,
                         "lease_timeout_ms": 100, "stall_timeout_ms": 120,
                         "fast": false},
              "results": {
                "schedules_run": 12,
                "violations": 0,
                "per_class": [
                  {"class": "pause", "runs": 2, "mttr_min_ns": 120000000,
                   "mttr_p50_ns": 140000000, "mttr_p99_ns": 150000000,
                   "mttr_max_ns": 150000000},
                  {"class": "kill", "runs": 2, "mttr_min_ns": 110000000,
                   "mttr_p50_ns": 130000000, "mttr_p99_ns": 190000000,
                   "mttr_max_ns": 190000000},
                  {"class": "stall", "runs": 2, "mttr_min_ns": 125000000,
                   "mttr_p50_ns": 140000000, "mttr_p99_ns": 165000000,
                   "mttr_max_ns": 165000000},
                  {"class": "churn", "runs": 2, "mttr_min_ns": 100000000,
                   "mttr_p50_ns": 140000000, "mttr_p99_ns": 195000000,
                   "mttr_max_ns": 195000000},
                  {"class": "torn", "runs": 2, "mttr_min_ns": 1300000,
                   "mttr_p50_ns": 7000000, "mttr_p99_ns": 7200000,
                   "mttr_max_ns": 7200000},
                  {"class": "ring", "runs": 2, "mttr_min_ns": 80000000,
                   "mttr_p50_ns": 180000000, "mttr_p99_ns": 200000000,
                   "mttr_max_ns": 200000000}
                ]
              }
            }"#,
        )
        .unwrap()
    }

    fn set_bench9_class(doc: &mut Value, idx: usize, key: &str, v: Value) {
        let Value::Object(pairs) = doc else { panic!("not an object") };
        let results = &mut pairs.iter_mut().find(|(k, _)| k == "results").unwrap().1;
        let Value::Object(pairs) = results else { panic!() };
        let classes = &mut pairs.iter_mut().find(|(k, _)| k == "per_class").unwrap().1;
        let Value::Array(classes) = classes else { panic!() };
        set(&mut classes[idx], &[key], v);
    }

    #[test]
    fn valid_bench9_document_passes() {
        assert_eq!(validate_bench9_value(&valid_bench9_doc()), Ok(()));
    }

    #[test]
    fn bench9_rejects_other_schemas_and_vice_versa() {
        assert!(validate_bench9_value(&valid_doc()).is_err());
        assert!(validate_bench9_value(&valid_bench8_doc()).is_err());
        assert!(validate_frozen(frozen(3), &valid_bench9_doc()).is_err());
        assert!(validate_bench8_value(&valid_bench9_doc()).is_err());
    }

    #[test]
    fn bench9_violations_make_the_document_uncommittable() {
        let mut doc = valid_bench9_doc();
        set(&mut doc, &["results", "violations"], Value::U64(1));
        let errs = validate_bench9_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("violations")), "{errs:?}");
    }

    #[test]
    fn bench9_unknown_fault_class_fails() {
        let mut doc = valid_bench9_doc();
        set_bench9_class(&mut doc, 0, "class", Value::String("gremlin".into()));
        let errs = validate_bench9_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("known fault class")), "{errs:?}");
    }

    #[test]
    fn bench9_duplicate_fault_class_fails() {
        let mut doc = valid_bench9_doc();
        set_bench9_class(&mut doc, 1, "class", Value::String("pause".into()));
        let errs = validate_bench9_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("more than once")), "{errs:?}");
    }

    #[test]
    fn bench9_runs_must_sum_to_schedules_run() {
        let mut doc = valid_bench9_doc();
        set_bench9_class(&mut doc, 2, "runs", Value::U64(3));
        let errs = validate_bench9_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("sum to results.schedules_run")), "{errs:?}");
    }

    #[test]
    fn bench9_inverted_mttr_quantiles_fail() {
        let mut doc = valid_bench9_doc();
        set_bench9_class(&mut doc, 3, "mttr_p99_ns", Value::U64(1));
        let errs = validate_bench9_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("monotone")), "{errs:?}");
    }

    fn valid_bench10_doc() -> Value {
        serde_json::from_str(
            r#"{
              "bench": "control-plane",
              "schema_version": 1,
              "pr": 10,
              "config": {"cores": 4, "coordinator_period_ms": 40, "t_sleep_ms": 2,
                         "probes": 60, "rate_per_sec": 1000.0, "burstiness": 4.0,
                         "demand_min_us": 50.0, "demand_max_us": 1000.0,
                         "demand_alpha": 1.5, "duration_ms": 600,
                         "ring_capacity": 1024, "drain_batch": 256,
                         "seed": 10, "fast": false},
              "results": {
                "arms": [
                  {"arm": "polling", "event_driven": false,
                   "doorbell_wakes": 0, "wake_p50_us": 19000, "wake_p99_us": 39000,
                   "throughput_req_per_s": 950.0,
                   "per_program": [
                     {"prog": 0, "label": "p0", "offered": 600, "submitted": 600,
                      "shed": 0, "fenced": 0, "admitted": 600,
                      "request_p50_us": 20000, "request_p99_us": 39500,
                      "request_p999_us": 40000}
                   ]},
                  {"arm": "doorbell", "event_driven": true,
                   "doorbell_wakes": 1200, "wake_p50_us": 150, "wake_p99_us": 900,
                   "throughput_req_per_s": 990.0,
                   "per_program": [
                     {"prog": 0, "label": "p0", "offered": 600, "submitted": 600,
                      "shed": 0, "fenced": 0, "admitted": 600,
                      "request_p50_us": 300, "request_p99_us": 2500,
                      "request_p999_us": 8000}
                   ]}
                ],
                "headline": {
                  "polling_wake_p99_us": 39000,
                  "doorbell_wake_p99_us": 900,
                  "polling_request_p99_us": 39500,
                  "doorbell_request_p99_us": 2500,
                  "coordinator_period_us": 40000,
                  "doorbell_beats_polling_wake": true,
                  "doorbell_unfloors_request_p99": true
                }
              }
            }"#,
        )
        .unwrap()
    }

    fn bench10_arms(doc: &mut Value) -> &mut Vec<Value> {
        let Value::Object(pairs) = doc else { panic!("not an object") };
        let results = &mut pairs.iter_mut().find(|(k, _)| k == "results").unwrap().1;
        let Value::Object(pairs) = results else { panic!() };
        let arms = &mut pairs.iter_mut().find(|(k, _)| k == "arms").unwrap().1;
        let Value::Array(arms) = arms else { panic!() };
        arms
    }

    fn set_bench10_arm(doc: &mut Value, idx: usize, key: &str, v: Value) {
        set(&mut bench10_arms(doc)[idx], &[key], v);
    }

    /// The layout before the adaptive arm was deleted: a third
    /// `doorbell-adaptive` arm, and `adaptive` / `knobs` on every arm.
    fn three_arm_bench10_doc() -> Value {
        let mut doc = valid_bench10_doc();
        let arms = bench10_arms(&mut doc);
        let mut third = arms[1].clone();
        set(&mut third, &["arm"], Value::String("doorbell-adaptive".into()));
        arms.push(third);
        for (i, arm) in arms.iter_mut().enumerate() {
            let Value::Object(pairs) = arm else { panic!() };
            pairs.push(("adaptive".into(), Value::Bool(i == 2)));
            let knobs = r#"{"t_sleep": 16, "period_us": 40000, "steal_batch": 8}"#;
            pairs.push(("knobs".into(), serde_json::from_str(knobs).unwrap()));
        }
        doc
    }

    #[test]
    fn valid_bench10_document_passes() {
        assert_eq!(validate_bench10_value(&valid_bench10_doc()), Ok(()));
    }

    #[test]
    fn bench10_rejects_other_schemas_and_vice_versa() {
        assert!(validate_bench10_value(&valid_doc()).is_err());
        assert!(validate_bench10_value(&valid_bench8_doc()).is_err());
        assert!(validate_bench10_value(&valid_bench9_doc()).is_err());
        assert!(validate_frozen(frozen(3), &valid_bench10_doc()).is_err());
        assert!(validate_bench8_value(&valid_bench10_doc()).is_err());
        assert!(validate_bench9_value(&valid_bench10_doc()).is_err());
    }

    #[test]
    fn bench10_arms_must_come_in_the_fixed_order() {
        let mut doc = valid_bench10_doc();
        set_bench10_arm(&mut doc, 0, "arm", Value::String("doorbell".into()));
        let errs = validate_bench10_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("fixed order")), "{errs:?}");
    }

    #[test]
    fn bench10_polling_arm_with_doorbell_wakes_fails() {
        // A "polling baseline" that took doorbell wakes measured nothing.
        let mut doc = valid_bench10_doc();
        set_bench10_arm(&mut doc, 0, "doorbell_wakes", Value::U64(3));
        let errs = validate_bench10_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("zero doorbell wakes")), "{errs:?}");
    }

    #[test]
    fn bench10_doorbell_arm_without_wakes_fails() {
        let mut doc = valid_bench10_doc();
        set_bench10_arm(&mut doc, 1, "doorbell_wakes", Value::U64(0));
        let errs = validate_bench10_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("must record doorbell wakes")), "{errs:?}");
    }

    #[test]
    fn bench10_arm_flags_must_match_the_arm_name() {
        let mut doc = valid_bench10_doc();
        set_bench10_arm(&mut doc, 1, "event_driven", Value::Bool(false));
        let errs = validate_bench10_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("event_driven must be true")), "{errs:?}");
    }

    #[test]
    fn bench10_old_three_arm_document_is_refused() {
        let errs = validate_bench10_value(&three_arm_bench10_doc()).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("exactly 2 arms")), "{errs:?}");
        for key in ["arms[0].adaptive", "arms[1].knobs", "arms[2].adaptive"] {
            assert!(errs.iter().any(|m| m.contains(key) && m.contains("removed")), "{errs:?}");
        }
    }

    #[test]
    fn bench10_headline_must_quote_the_arm_numbers() {
        let mut doc = valid_bench10_doc();
        set(&mut doc, &["results", "headline", "doorbell_wake_p99_us"], Value::U64(1));
        let errs = validate_bench10_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("must quote the arm's wake_p99_us")), "{errs:?}");
    }

    #[test]
    fn bench10_headline_verdict_must_match_the_numbers() {
        let mut doc = valid_bench10_doc();
        set(
            &mut doc,
            &["results", "headline", "doorbell_unfloors_request_p99"],
            Value::Bool(false),
        );
        let errs = validate_bench10_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("disagrees with the period")), "{errs:?}");
        // An honest losing document is schema-valid (the CI gate judges
        // the verdicts, not the validator).
        set(&mut doc, &["results", "headline", "doorbell_request_p99_us"], Value::U64(50_000));
        set_bench10_arm(&mut doc, 1, "per_program", {
            let Value::Array(arms) = &valid_bench10_doc()["results"]["arms"].clone() else {
                panic!()
            };
            let mut progs = arms[1]["per_program"].clone();
            if let Value::Array(progs) = &mut progs {
                set(&mut progs[0], &["request_p99_us"], Value::U64(50_000));
                set(&mut progs[0], &["request_p999_us"], Value::U64(50_000));
            }
            progs
        });
        assert_eq!(validate_bench10_value(&doc), Ok(()));
    }

    #[test]
    fn bench10_arrival_accounting_must_balance() {
        let mut doc = valid_bench10_doc();
        set_bench10_arm(&mut doc, 1, "per_program", {
            let Value::Array(arms) = &valid_bench10_doc()["results"]["arms"].clone() else {
                panic!()
            };
            let mut progs = arms[1]["per_program"].clone();
            if let Value::Array(progs) = &mut progs {
                set(&mut progs[0], &["shed"], Value::U64(999));
            }
            progs
        });
        let errs = validate_bench10_value(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("submitted+shed+fenced")), "{errs:?}");
    }
}
