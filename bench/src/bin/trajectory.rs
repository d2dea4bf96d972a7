//! `bench-trajectory` — emits and checks the committed `BENCH_N.json`
//! documents at the repo root.
//!
//! Two modes still measure:
//!
//! * `--fairness` emits `BENCH_8.json`: a program-count sweep (2 → 32 DWS
//!   programs, half greedy and half bursty) on a simulated 64-core
//!   machine, reporting per point the settled per-program core-time
//!   integrals from the allocation ledger, Jain's fairness index over
//!   them, and demand-satisfaction (alloc/release) latency percentiles.
//!   Each point asserts the ledger's conservation law — attributed plus
//!   free core-µs equals `cores × elapsed` exactly — and the schema
//!   validator re-checks it on the committed document.
//! * `--control-plane` emits `BENCH_10.json`: the event-driven control
//!   plane's two-arm comparison at a deliberately *long* coordinator
//!   period — `polling` (edge-triggered wakes off: submissions wait in
//!   the ring for the next tick) and `doorbell` (every submit / release /
//!   demand edge rings the coordinator awake). Each arm measures
//!   wake-to-first-task end to end (idle runtime, one probe request,
//!   submit → executed) and the serving request-sojourn tail under
//!   open-loop load; the headline block records whether the doorbell beat
//!   the polling baseline on wake p99 and whether the request p99 escaped
//!   the coordinator-period floor.
//!
//! `BENCH_9.json` comes from `chaos --emit-bench`. `BENCH_3`, `BENCH_5` and
//! `BENCH_6` are frozen: their generators are retired (last present at
//! commit `98d63dc`) and the documents are only validated, against
//! [`dws_bench::FROZEN`].
//!
//! ```text
//! bench-trajectory (--fairness | --control-plane) [--fast] [--cores N] [--out PATH]
//! bench-trajectory --check PATH
//! bench-trajectory --summary [DIR]
//! ```
//!
//! * `--fast` — smaller workload for CI smoke runs;
//! * `--cores N` — override the core count (the emitted config records
//!   what actually ran);
//! * `--out PATH` — where to write the JSON (default `BENCH_8.json` with
//!   `--fairness`, `BENCH_10.json` with `--control-plane`);
//! * `--check PATH` — validate an existing document and exit (no run);
//!   the schema is picked by the document's `bench` field;
//! * `--summary [DIR]` — validate every committed `BENCH_N.json` under
//!   `DIR` (default `.`) and print the trajectory. Gaps in the sequence
//!   are tolerated and reported: a PR that emitted no bench document
//!   (e.g. `BENCH_4`) is not an error, only present-but-invalid
//!   documents fail the summary.
//!
//! With no mode the usage is printed and the exit status is 2. An
//! emitted document always validates against its own schema; the run
//! exits nonzero if its output ever fails it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dws_bench::{
    validate_bench10_value, validate_bench8_value, validate_bench9_value, validate_frozen,
    BENCH_SCHEMA_VERSION, FROZEN,
};
use dws_harness::{demand_handler, offer_load, LoadSpec, LoadStats};
use dws_rt::{
    jain_fairness, CoreTable, InProcessTable, LedgerTable, Policy, Runtime, RuntimeConfig,
};
use dws_sim::{ArrivalProcess, BoundedPareto};
use serde::value::Value;

/// Per-worker trace-ring capacity of the `--control-plane` serving runs.
const TRACE_CAPACITY: usize = 1 << 16;

const USAGE: &str = "usage: bench-trajectory (--fairness | --control-plane) [--fast] [--cores N] \
                     [--out PATH]\n       bench-trajectory --check PATH\n       \
                     bench-trajectory --summary [DIR]";

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (String::from(k), v)).collect())
}

/// The open-loop serving workload of the `--control-plane` mode.
struct ServeParams {
    cores: usize,
    /// Mean arrival rate per program, requests/s (delivered bursty).
    rate_per_sec: f64,
    /// MMPP burst factor (see [`ArrivalProcess::bursty`]).
    burstiness: f64,
    demand_min_us: f64,
    demand_max_us: f64,
    demand_alpha: f64,
    /// How long each generator offers load.
    duration: Duration,
    ring_capacity: usize,
    drain_batch: usize,
    seed: u64,
    fast: bool,
}

/// One serving program's outcome: what the generator did at the ring's
/// edge, what the coordinator admitted, and the end-to-end request
/// sojourn distribution (empty unless the run traced).
struct ServeProgStats {
    label: String,
    load: LoadStats,
    admitted: u64,
    sojourn: dws_rt::HistogramSnapshot,
}

/// One arm of the `--control-plane` comparison.
struct ArmSpec {
    name: &'static str,
    event_driven: bool,
}

/// The two arms, in the order the schema fixes: the polling baseline,
/// then edge-triggered wakes.
const CP_ARMS: [ArmSpec; 2] = [
    ArmSpec { name: "polling", event_driven: false },
    ArmSpec { name: "doorbell", event_driven: true },
];

/// Parameters of the `--control-plane` comparison: the serving workload
/// plus the deliberately long coordinator period that gives polling a
/// visible floor, and the idle-submit probe schedule.
struct CpParams {
    sp: ServeParams,
    /// Coordinator period of every arm. Long on purpose: under polling
    /// it floors both admission latency and the wake path; under the
    /// doorbell it is only the fallback heartbeat.
    period: Duration,
    t_sleep: Duration,
    /// Idle-submit wake probes per arm (after warm-up discards).
    probes: usize,
    /// Idle gap before each probe so workers have parked again.
    probe_gap: Duration,
}

fn cp_cfg(cp: &CpParams, arm: &ArmSpec, tracing: bool) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(cp.sp.cores, Policy::Dws)
        .with_serving_geometry(cp.sp.ring_capacity, cp.sp.drain_batch);
    if tracing {
        cfg = cfg.with_tracing_capacity(TRACE_CAPACITY);
    }
    cfg.coordinator_period = cp.period;
    cfg.sleep_timeout = Some(cp.t_sleep);
    if !arm.event_driven {
        cfg = cfg.with_polling_only();
    }
    cfg
}

/// Wake-to-first-task, measured end to end at the control plane's grain:
/// an *idle* serving runtime (workers parked, coordinator waiting on its
/// period or doorbell), one probe request, submit → the job has
/// executed. Under polling the request sits in the submission ring until
/// the next tick — the latency is the period, not the work. Returns one
/// sample (µs) per probe.
fn cp_wake_probe(cp: &CpParams, arm: &ArmSpec) -> Vec<u64> {
    // Warm-up discards: thread spawn, first-touch, ring paging.
    const WARMUP: usize = 3;
    let table: Arc<dyn CoreTable> =
        Arc::new(LedgerTable::new(Arc::new(InProcessTable::new(cp.sp.cores, 2))));
    let rt = Runtime::serve_with_table(cp_cfg(cp, arm, false), table, 0, demand_handler());
    let mut samples = Vec::with_capacity(cp.probes);
    for i in 0..cp.probes + WARMUP {
        std::thread::sleep(cp.probe_gap);
        let base = rt.metrics().jobs_executed;
        let t0 = Instant::now();
        rt.submit(i as u64, 1).expect("probe submit on an idle ring");
        while rt.metrics().jobs_executed <= base {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "{} arm never executed probe {i} — control-plane wake path is wedged",
                arm.name,
            );
            std::thread::yield_now();
        }
        if i >= WARMUP {
            samples.push(t0.elapsed().as_micros() as u64);
        }
    }
    samples
}

/// One serving co-run of an arm (both programs under the arm's config,
/// tracing on so the request-sojourn histogram fills). The drain tail
/// does *not* nudge `drain_submissions` by hand — admission stays on the
/// arm's own control plane, so a polling arm pays its period in the tail
/// too. Returns the makespan,
/// per-program stats and total doorbell wakes.
fn cp_serve(cp: &CpParams, arm: &ArmSpec) -> (Duration, Vec<ServeProgStats>, u64) {
    let sp = &cp.sp;
    let table: Arc<dyn CoreTable> =
        Arc::new(LedgerTable::new(Arc::new(InProcessTable::new(sp.cores, 2))));
    let p0 =
        Runtime::serve_with_table(cp_cfg(cp, arm, true), Arc::clone(&table), 0, demand_handler());
    let p1 = Runtime::serve_with_table(cp_cfg(cp, arm, true), table, 1, demand_handler());

    let spec = |seed: u64| LoadSpec {
        arrivals: ArrivalProcess::bursty(sp.rate_per_sec, sp.burstiness),
        demand: BoundedPareto::new(sp.demand_min_us, sp.demand_max_us, sp.demand_alpha),
        seed,
        duration: sp.duration,
    };
    let start = Instant::now();
    let (l0, l1) = std::thread::scope(|scope| {
        let g0 = scope.spawn(|| offer_load(&p0, &spec(sp.seed)));
        let g1 = scope.spawn(|| offer_load(&p1, &spec(sp.seed ^ 0xB15B_05E5)));
        (g0.join().unwrap(), g1.join().unwrap())
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    for (rt, l) in [(&p0, &l0), (&p1, &l1)] {
        loop {
            let m = rt.metrics();
            let done = m.requests_admitted == l.submitted && m.jobs_executed >= m.requests_admitted;
            if done || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let makespan = start.elapsed();

    let doorbell_wakes = p0.metrics().doorbell_wakes + p1.metrics().doorbell_wakes;
    let collect = |rt: &Runtime, label: &str, load: LoadStats| ServeProgStats {
        label: label.to_string(),
        load,
        admitted: rt.metrics().requests_admitted,
        sojourn: rt.histograms().request_sojourn,
    };
    (makespan, vec![collect(&p0, "p0", l0), collect(&p1, "p1", l1)], doorbell_wakes)
}

/// The `--control-plane` mode: run [`CP_ARMS`] through the wake probe
/// and the open-loop serving load, then emit `BENCH_10.json` with the
/// headline comparison. A full run exits nonzero if the doorbell fails
/// to beat the polling baseline on wake p99, or fails to pull the
/// serving request p99 under the coordinator period — those two numbers
/// are what the event-driven control plane exists for.
fn run_control_plane(cp: &CpParams, out: &str) {
    let mut arms: Vec<Value> = Vec::new();
    // (wake_p99_us, worst request_p99_us) per arm for the headline.
    let mut headline: Vec<(u64, u64)> = Vec::new();
    for arm in &CP_ARMS {
        let wake = cp_wake_probe(cp, arm);
        let wake_p50 = dws_sim::quantile_nearest(&wake, 0.5);
        let wake_p99 = dws_sim::quantile_nearest(&wake, 0.99);

        let (makespan, progs, doorbell_wakes) = cp_serve(cp, arm);
        let admitted: u64 = progs.iter().map(|s| s.admitted).sum();
        let throughput = admitted as f64 / makespan.as_secs_f64();
        let mut req_p99_worst = 0u64;
        let per_program: Vec<Value> = progs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let q = |quant: f64| s.sojourn.quantile_ns(quant).unwrap_or(0) / 1_000;
                req_p99_worst = req_p99_worst.max(q(0.99));
                obj(vec![
                    ("prog", Value::U64(i as u64)),
                    ("label", Value::String(s.label.clone())),
                    ("offered", Value::U64(s.load.offered())),
                    ("submitted", Value::U64(s.load.submitted)),
                    ("shed", Value::U64(s.load.shed)),
                    ("fenced", Value::U64(s.load.fenced)),
                    ("admitted", Value::U64(s.admitted)),
                    ("request_p50_us", Value::U64(q(0.5))),
                    ("request_p99_us", Value::U64(q(0.99))),
                    ("request_p999_us", Value::U64(q(0.999))),
                ])
            })
            .collect();
        eprintln!(
            "{:<9} wake p50 {wake_p50} µs p99 {wake_p99} µs | request p99 {req_p99_worst} µs, \
             {admitted} admitted ({throughput:.0} req/s), {doorbell_wakes} doorbell wakes",
            arm.name,
        );
        headline.push((wake_p99, req_p99_worst));
        arms.push(obj(vec![
            ("arm", Value::String(arm.name.into())),
            ("event_driven", Value::Bool(arm.event_driven)),
            ("doorbell_wakes", Value::U64(doorbell_wakes)),
            ("wake_p50_us", Value::U64(wake_p50)),
            ("wake_p99_us", Value::U64(wake_p99)),
            ("throughput_req_per_s", Value::F64(throughput)),
            ("per_program", Value::Array(per_program)),
        ]));
    }

    let (polling_wake_p99, polling_req_p99) = headline[0];
    let (doorbell_wake_p99, doorbell_req_p99) = headline[1];
    let period_us = cp.period.as_micros() as u64;
    let beats_wake = doorbell_wake_p99 < polling_wake_p99;
    let unfloors_req = doorbell_req_p99 < period_us;

    let sp = &cp.sp;
    let doc = obj(vec![
        ("bench", Value::String("control-plane".into())),
        ("schema_version", Value::U64(BENCH_SCHEMA_VERSION)),
        ("pr", Value::U64(10)),
        (
            "config",
            obj(vec![
                ("cores", Value::U64(sp.cores as u64)),
                ("coordinator_period_ms", Value::U64(cp.period.as_millis() as u64)),
                ("t_sleep_ms", Value::U64(cp.t_sleep.as_millis() as u64)),
                ("probes", Value::U64(cp.probes as u64)),
                ("rate_per_sec", Value::F64(sp.rate_per_sec)),
                ("burstiness", Value::F64(sp.burstiness)),
                ("demand_min_us", Value::F64(sp.demand_min_us)),
                ("demand_max_us", Value::F64(sp.demand_max_us)),
                ("demand_alpha", Value::F64(sp.demand_alpha)),
                ("duration_ms", Value::U64(sp.duration.as_millis() as u64)),
                ("ring_capacity", Value::U64(sp.ring_capacity as u64)),
                ("drain_batch", Value::U64(sp.drain_batch as u64)),
                ("seed", Value::U64(sp.seed)),
                ("fast", Value::Bool(sp.fast)),
            ]),
        ),
        (
            "results",
            obj(vec![
                ("arms", Value::Array(arms)),
                (
                    "headline",
                    obj(vec![
                        ("polling_wake_p99_us", Value::U64(polling_wake_p99)),
                        ("doorbell_wake_p99_us", Value::U64(doorbell_wake_p99)),
                        ("polling_request_p99_us", Value::U64(polling_req_p99)),
                        ("doorbell_request_p99_us", Value::U64(doorbell_req_p99)),
                        ("coordinator_period_us", Value::U64(period_us)),
                        ("doorbell_beats_polling_wake", Value::Bool(beats_wake)),
                        ("doorbell_unfloors_request_p99", Value::Bool(unfloors_req)),
                    ]),
                ),
            ]),
        ),
    ]);

    if let Err(errors) = validate_bench10_value(&doc) {
        eprintln!("generated document fails its own schema: {errors:?}");
        std::process::exit(1);
    }
    let text = serde_json::to_string(&doc).expect("serialize bench document");
    std::fs::write(out, format!("{text}\n")).expect("write bench document");
    println!(
        "wrote {out}: wake p99 polling {polling_wake_p99} µs → doorbell {doorbell_wake_p99} µs, \
         request p99 polling {polling_req_p99} µs → doorbell {doorbell_req_p99} µs \
         (period {period_us} µs; beats_wake={beats_wake}, unfloors_request={unfloors_req})",
    );
    if !(beats_wake && unfloors_req) {
        eprintln!("doorbell failed its headline comparison against the polling baseline");
        // The fast smoke run is a schema/plumbing check on noisy shared
        // runners, not a measurement — only the full run enforces the gate.
        if !sp.fast {
            std::process::exit(1);
        }
    }
}

/// Parameters of the `--fairness` program-count sweep.
#[derive(Clone)]
struct FairParams {
    cores: usize,
    sockets: usize,
    /// Simulated horizon per sweep point, µs of virtual time.
    duration_us: u64,
    seed: u64,
    /// Program counts along the trajectory (2 → 32).
    programs: Vec<usize>,
    fast: bool,
}

/// The `--fairness` mode: sweep the number of co-running DWS programs on
/// a simulated 64-core machine and report, per point, the settled
/// per-program core-time integrals from the allocation ledger, Jain's
/// fairness index over them, and demand-satisfaction (rise → grant,
/// fall → release) latency percentiles.
///
/// Half the programs are *greedy* (recursive divide-and-conquer whose
/// demand saturates any grant) and half *bursty* (waves separated by
/// multi-ms serial sections, so demand rises and falls continuously).
/// The rise/fall edges are what exercise the demand clocks, and the
/// demand asymmetry is what makes Jain's index a non-trivial statement —
/// a greedy program absorbs the cores its bursty neighbours release.
///
/// Every point asserts the ledger's conservation law before it is
/// emitted: Σ per-program core-µs + free core-µs == cores × elapsed,
/// exactly — the bench-side twin of `dws-check`'s conservation rule.
fn run_fairness(fp: &FairParams, out: &str) {
    let greedy = || dws_sim::WorkloadSpec {
        name: "greedy".into(),
        phases: vec![dws_sim::PhaseSpec::Recursive {
            depth: 9,
            branch: 2,
            leaf_work_us: 40.0,
            node_work_us: 1.0,
            merge_work_us: 2.0,
            merge_grows: false,
            mem: 0.2,
            jitter: 0.1,
        }],
    };
    let bursty = || dws_sim::WorkloadSpec {
        name: "bursty".into(),
        phases: vec![dws_sim::PhaseSpec::Waves {
            iters: 8,
            width: 48,
            width_end: 0,
            task_work_us: 120.0,
            serial_us: 2_000.0,
            mem: 0.3,
            jitter: 0.1,
        }],
    };

    let mut sweep: Vec<Value> = Vec::new();
    for (idx, &m) in fp.programs.iter().enumerate() {
        let cfg = dws_sim::SimConfig {
            machine: dws_sim::MachineConfig {
                cores: fp.cores,
                sockets: fp.sockets,
                ..Default::default()
            },
            // Decorrelate the points: same base seed, distinct streams.
            seed: fp.seed + idx as u64,
            ..Default::default()
        };
        let specs: Vec<dws_sim::ProgramSpec> = (0..m)
            .map(|p| dws_sim::ProgramSpec {
                workload: if p % 2 == 0 { greedy() } else { bursty() },
                sched: dws_sim::SchedConfig::for_policy(dws_sim::Policy::Dws, fp.cores),
            })
            .collect();
        let mut sim = dws_sim::Simulator::new(cfg, specs);
        while sim.now() < fp.duration_us {
            sim.tick();
        }

        let elapsed_us = sim.now();
        let (core_us, free_core_us) = sim.settled_core_us();
        let core_us_total: u64 = core_us.iter().sum();
        // Conservation: the ledger must account for every core-µs of the
        // run. An exact equality — any drift is a leaked interval.
        assert_eq!(
            core_us_total + free_core_us,
            fp.cores as u64 * elapsed_us,
            "core-seconds conservation violated at {m} programs"
        );

        let shares: Vec<f64> = core_us.iter().map(|&c| c as f64).collect();
        let jain = jain_fairness(&shares);
        let machine_core_us = (fp.cores as u64 * elapsed_us) as f64;

        let mut alloc_pool: Vec<u64> = Vec::new();
        let mut release_pool: Vec<u64> = Vec::new();
        let per_program: Vec<Value> = (0..m)
            .map(|p| {
                let alloc = sim.ledger().alloc_latency_ns(p);
                let release = sim.ledger().release_latency_ns(p);
                alloc_pool.extend_from_slice(alloc);
                release_pool.extend_from_slice(release);
                obj(vec![
                    ("prog", Value::U64(p as u64)),
                    (
                        "label",
                        Value::String(format!(
                            "{}-{p}",
                            if p % 2 == 0 { "greedy" } else { "bursty" }
                        )),
                    ),
                    ("core_us", Value::U64(core_us[p])),
                    ("share_received", Value::F64(core_us[p] as f64 / machine_core_us)),
                    ("share_entitled", Value::F64(1.0 / m as f64)),
                    ("alloc_p99_ns", Value::U64(dws_sim::quantile_nearest(alloc, 0.99))),
                ])
            })
            .collect();

        eprintln!(
            "{m:2} programs: jain {jain:.4}, {} alloc samples, alloc p99 {} ns, free {:.1}%",
            alloc_pool.len(),
            dws_sim::quantile_nearest(&alloc_pool, 0.99),
            free_core_us as f64 / machine_core_us * 100.0,
        );
        sweep.push(obj(vec![
            ("programs", Value::U64(m as u64)),
            ("elapsed_us", Value::U64(elapsed_us)),
            ("core_us_total", Value::U64(core_us_total)),
            ("free_core_us", Value::U64(free_core_us)),
            ("jain_index", Value::F64(jain)),
            ("alloc_samples", Value::U64(alloc_pool.len() as u64)),
            ("alloc_p50_ns", Value::U64(dws_sim::quantile_nearest(&alloc_pool, 0.50))),
            ("alloc_p99_ns", Value::U64(dws_sim::quantile_nearest(&alloc_pool, 0.99))),
            ("release_p50_ns", Value::U64(dws_sim::quantile_nearest(&release_pool, 0.50))),
            ("release_p99_ns", Value::U64(dws_sim::quantile_nearest(&release_pool, 0.99))),
            ("per_program", Value::Array(per_program)),
        ]));
    }

    let doc = obj(vec![
        ("bench", Value::String("fairness-trajectory".into())),
        ("schema_version", Value::U64(BENCH_SCHEMA_VERSION)),
        ("pr", Value::U64(8)),
        (
            "config",
            obj(vec![
                ("cores", Value::U64(fp.cores as u64)),
                ("sockets", Value::U64(fp.sockets as u64)),
                ("duration_us", Value::U64(fp.duration_us)),
                ("seed", Value::U64(fp.seed)),
                ("fast", Value::Bool(fp.fast)),
            ]),
        ),
        ("results", obj(vec![("sweep", Value::Array(sweep))])),
    ]);

    if let Err(errors) = validate_bench8_value(&doc) {
        eprintln!("generated document fails its own schema: {errors:?}");
        std::process::exit(1);
    }
    let text = serde_json::to_string(&doc).expect("serialize bench document");
    std::fs::write(out, format!("{text}\n")).expect("write bench document");
    println!(
        "wrote {out}: {} sweep points ({:?} programs) on a simulated {}-core machine",
        fp.programs.len(),
        fp.programs,
        fp.cores,
    );
}

/// Picks the validator by the document's own `bench` field — the same
/// dispatch `--check` uses for a single file. A document whose `bench`
/// kind is unknown (or missing) is a *failure*, not a fall-through — a
/// typo'd kind must not silently validate against the wrong schema.
fn validate_by_kind(doc: &Value) -> Result<(), Vec<String>> {
    match doc["bench"].as_str() {
        Some("fairness-trajectory") => validate_bench8_value(doc),
        Some("chaos-mttr") => validate_bench9_value(doc),
        Some("control-plane") => validate_bench10_value(doc),
        Some(kind) => match FROZEN.iter().find(|row| row.kind == kind) {
            Some(row) => validate_frozen(row, doc),
            None => Err(vec![format!(
                "unknown bench kind `{kind}` (known: telemetry-trajectory, batched-stealing, \
                 task-trace, fairness-trajectory, chaos-mttr, control-plane)"
            )]),
        },
        None => Err(vec!["document has no `bench` kind field".to_string()]),
    }
}

/// The `--summary` mode: walk `dir` for committed `BENCH_N.json`
/// documents, validate each against its own schema, and print the
/// trajectory in PR order. Gaps in the sequence are expected — a PR
/// whose deliverable was not a benchmark (e.g. `BENCH_4`) commits no
/// document — so an absent number is reported but never an error; only
/// a present-but-invalid document fails the summary.
fn run_summary(dir: &str) {
    let mut found: Vec<(u64, std::path::PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read summary dir") {
        let entry = entry.expect("read dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            found.push((n, entry.path()));
        }
    }
    if found.is_empty() {
        println!("no BENCH_N.json documents under {dir}");
        return;
    }
    found.sort();
    let (lo, hi) = (found[0].0, found[found.len() - 1].0);
    let mut invalid = 0usize;
    let mut validated: Vec<String> = Vec::new();
    for n in lo..=hi {
        let Some((_, path)) = found.iter().find(|(m, _)| *m == n) else {
            println!("BENCH_{n}.json  absent — gap tolerated (that PR emitted no bench document)");
            continue;
        };
        let text = std::fs::read_to_string(path).expect("read bench document");
        let doc: Value = match serde_json::from_str(&text) {
            Ok(d) => d,
            Err(err) => {
                println!("BENCH_{n}.json  unparseable: {err}");
                invalid += 1;
                continue;
            }
        };
        let kind = doc["bench"].as_str().unwrap_or("?").to_string();
        match validate_by_kind(&doc) {
            Ok(()) => {
                let frozen =
                    if FROZEN.iter().any(|row| row.kind == kind) { " (frozen)" } else { "" };
                println!("BENCH_{n}.json  {kind}: valid{frozen}");
                validated.push(format!("BENCH_{n} ({kind})"));
            }
            Err(errors) => {
                println!("BENCH_{n}.json  {kind}: INVALID ({} problem(s))", errors.len());
                for e in &errors {
                    println!("  - {e}");
                }
                invalid += 1;
            }
        }
    }
    let gaps = (hi - lo + 1) as usize - found.len();
    if invalid > 0 {
        eprintln!("trajectory: {invalid} invalid document(s)");
        std::process::exit(1);
    }
    println!(
        "trajectory: validated {} — {} gap(s), all present documents valid",
        validated.join(", "),
        gaps
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fast = false;
    let mut fairness = false;
    let mut control_plane = false;
    let mut summary: Option<String> = None;
    let mut cores: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fast" => fast = true,
            "--fairness" => fairness = true,
            "--control-plane" => control_plane = true,
            "--summary" => {
                // Optional DIR operand: consume the next arg unless it
                // is another flag.
                summary = Some(match args.get(i + 1) {
                    Some(dir) if !dir.starts_with("--") => {
                        i += 1;
                        dir.clone()
                    }
                    _ => ".".to_string(),
                });
            }
            "--cores" => {
                i += 1;
                cores = Some(
                    args.get(i).expect("--cores needs a value").parse().expect("--cores: number"),
                );
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).expect("--out needs a path").clone());
            }
            "--check" => {
                i += 1;
                check = Some(args.get(i).expect("--check needs a path").clone());
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(dir) = summary {
        run_summary(&dir);
        return;
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(&path).expect("read bench document");
        let doc: Value = serde_json::from_str(&text).expect("parse bench document");
        // The document's own `bench` field picks the schema.
        match validate_by_kind(&doc) {
            Ok(()) => {
                println!("{path}: valid (schema v{BENCH_SCHEMA_VERSION})");
                return;
            }
            Err(errors) => {
                eprintln!("{path}: INVALID:");
                for e in errors {
                    eprintln!("  - {e}");
                }
                std::process::exit(1);
            }
        }
    }

    assert!(!(fairness && control_plane), "--fairness and --control-plane are mutually exclusive");
    if control_plane {
        // A deliberately long coordinator period: under polling it floors
        // both the wake path and ring admission; under the doorbell it is
        // only the fallback heartbeat — that gap is the measurement. The
        // offered load sits well under capacity so the tails come from
        // the control plane, not saturation.
        let mut cp = if fast {
            CpParams {
                sp: ServeParams {
                    cores: 4,
                    rate_per_sec: 600.0,
                    burstiness: 4.0,
                    demand_min_us: 50.0,
                    demand_max_us: 1_000.0,
                    demand_alpha: 1.5,
                    duration: Duration::from_millis(250),
                    ring_capacity: 1024,
                    drain_batch: 256,
                    seed: 10,
                    fast,
                },
                period: Duration::from_millis(20),
                t_sleep: Duration::from_millis(2),
                probes: 25,
                probe_gap: Duration::from_millis(6),
            }
        } else {
            CpParams {
                sp: ServeParams {
                    cores: 4,
                    rate_per_sec: 1_000.0,
                    burstiness: 4.0,
                    demand_min_us: 50.0,
                    demand_max_us: 1_000.0,
                    demand_alpha: 1.5,
                    duration: Duration::from_millis(600),
                    ring_capacity: 1024,
                    drain_batch: 256,
                    seed: 10,
                    fast,
                },
                period: Duration::from_millis(40),
                t_sleep: Duration::from_millis(2),
                probes: 60,
                probe_gap: Duration::from_millis(8),
            }
        };
        if let Some(n) = cores {
            assert!(n >= 2, "--cores: need at least one core per program");
            cp.sp.cores = n;
        }
        run_control_plane(&cp, &out.unwrap_or_else(|| "BENCH_10.json".into()));
        return;
    }
    if fairness {
        // Simulated, deterministic, and sized well beyond the real
        // testbed: 64 cores and up to 32 co-running programs. `--fast`
        // shortens the virtual horizon, not the trajectory — CI still
        // sweeps every program count.
        let mut fp = FairParams {
            cores: 64,
            sockets: 2,
            duration_us: if fast { 60_000 } else { 300_000 },
            seed: 11,
            programs: vec![2, 4, 8, 16, 32],
            fast,
        };
        if let Some(n) = cores {
            assert!(
                n >= *fp.programs.last().unwrap(),
                "--cores: need at least one core per program at the widest sweep point"
            );
            fp.cores = n;
        }
        run_fairness(&fp, &out.unwrap_or_else(|| "BENCH_8.json".into()));
        return;
    }
    eprintln!("{USAGE}");
    std::process::exit(2);
}

#[cfg(test)]
mod dispatch_tests {
    use super::*;

    #[test]
    fn unknown_bench_kind_is_a_failure_not_a_fallthrough() {
        // `serving-tail` is BENCH_7's retired kind: neither live nor frozen.
        for kind in ["mystery-metric", "serving-tail"] {
            let doc: Value =
                serde_json::from_str(&format!(r#"{{"bench": "{kind}", "schema_version": 1}}"#))
                    .unwrap();
            let errs = validate_by_kind(&doc).unwrap_err();
            assert!(errs.iter().any(|m| m.contains(&format!("unknown bench kind `{kind}`"))));
        }
    }

    #[test]
    fn missing_bench_kind_is_a_failure() {
        let doc: Value = serde_json::from_str(r#"{"schema_version": 1}"#).unwrap();
        let errs = validate_by_kind(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("no `bench` kind")), "{errs:?}");
    }

    #[test]
    fn known_kinds_route_to_their_own_schema() {
        // A bare header of each known kind must produce that schema's
        // errors (pr mismatch), never the unknown-kind error.
        for (kind, pr) in [
            ("telemetry-trajectory", 3),
            ("batched-stealing", 5),
            ("task-trace", 6),
            ("fairness-trajectory", 8),
            ("chaos-mttr", 9),
            ("control-plane", 10),
        ] {
            let doc: Value = serde_json::from_str(&format!(
                r#"{{"bench": "{kind}", "schema_version": 1, "pr": {pr}}}"#
            ))
            .unwrap();
            let errs = validate_by_kind(&doc).unwrap_err();
            assert!(
                !errs.iter().any(|m| m.contains("unknown bench kind")),
                "{kind} fell through: {errs:?}"
            );
            assert!(!errs.iter().any(|m| m.contains("pr must be")), "{kind} wrong pr: {errs:?}");
        }
    }
}
