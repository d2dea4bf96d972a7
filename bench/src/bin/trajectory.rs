//! `bench-trajectory` — reproducible co-run benchmark emitting
//! `BENCH_3.json`: throughput and makespan of a two-program DWS co-run,
//! steal / wake-to-first-task latency percentiles from a traced run, and
//! the telemetry sampler's overhead delta (same workload with the sampler
//! off vs. on, min-of-`reps` to shed scheduler noise).
//!
//! With `--batching` it instead emits `BENCH_5.json`: a two-program
//! co-run of a steal-bound flat workload (each round spawns `fan` tiny
//! sequential tasks into one worker's deque, so work spreads only by
//! stealing) with batched stealing off (`steal_batch_limit = 1`) vs on,
//! reporting the makespan delta, failed-steal delta, and mean steal
//! batch size (min-of-`reps` per mode, modes alternated).
//!
//! With `--task-trace` it instead emits `BENCH_6.json`: a two-program
//! co-run of the flat workload at a µs-scale task grain with
//! task-lifecycle tracing off (`RuntimeConfig` without a trace ring) vs
//! on, reporting the tracing-overhead delta against its 3% makespan
//! budget plus per-program task-sojourn (spawn → exec-begin)
//! p50/p99/p999 from the traced run.
//!
//! With `--serving` it instead emits `BENCH_7.json`: two *serving*
//! programs co-run over a shared table, each fed by an open-loop
//! generator (bursty MMPP arrivals × bounded-Pareto demands, the
//! simulator's seeded samplers) through its submission ring. A
//! T_SLEEP × coordinator-period sweep reports end-to-end request
//! sojourn (client submit → exec-begin, ring residence included)
//! p50/p99/p999 per program at each point — the throughput-vs-tail
//! trade — plus the lifecycle-tracing off/on overhead delta against the
//! same 3% makespan budget.
//!
//! With `--fairness` it instead emits `BENCH_8.json`: the first
//! *many-program* trajectory — a program-count sweep (2 → 32 DWS
//! programs, half greedy and half bursty) on a simulated 64-core
//! machine, reporting per point the settled per-program core-time
//! integrals from the allocation ledger, Jain's fairness index over
//! them, and demand-satisfaction (alloc/release) latency percentiles.
//! Each point asserts the ledger's conservation law — attributed plus
//! free core-µs equals `cores × elapsed` exactly — and the schema
//! validator re-checks it on the committed document.
//!
//! With `--control-plane` it instead emits `BENCH_10.json`: the
//! event-driven control plane's two-arm comparison at a deliberately
//! *long* coordinator period — `polling` (edge-triggered wakes off, the
//! pre-doorbell behaviour: submissions wait in the ring for the next
//! tick) and `doorbell` (every submit / release / demand edge rings the
//! coordinator awake). Each arm measures wake-to-first-task end to end
//! (idle runtime, one probe request, submit → executed) and the serving
//! request-sojourn tail under open-loop load; the headline block records
//! whether the doorbell beat the polling baseline on wake p99 and
//! whether the request p99 escaped the coordinator-period floor.
//!
//! ```text
//! bench-trajectory [--batching | --task-trace | --serving | --fairness
//!                   | --control-plane]
//!                  [--fast] [--cores N] [--reps N] [--batch-limit N]
//!                  [--out PATH] [--check PATH] [--summary [DIR]]
//! ```
//!
//! * `--batching` — run the batching off/on comparison (`BENCH_5.json`);
//! * `--task-trace` — run the tracing off/on comparison (`BENCH_6.json`);
//! * `--serving` — run the open-loop serving sweep (`BENCH_7.json`);
//! * `--fairness` — run the simulated fairness sweep (`BENCH_8.json`);
//! * `--control-plane` — run the polling vs doorbell comparison
//!   (`BENCH_10.json`);
//! * `--fast` — smaller workload for CI smoke runs;
//! * `--cores N` / `--reps N` / `--batch-limit N` — override the workload
//!   shape for probing (the emitted config records what actually ran);
//! * `--out PATH` — where to write the JSON (default `BENCH_3.json`,
//!   `BENCH_5.json` with `--batching`, `BENCH_6.json` with
//!   `--task-trace`, `BENCH_7.json` with `--serving`, `BENCH_8.json`
//!   with `--fairness`);
//! * `--check PATH` — validate an existing document and exit (no run);
//!   the schema is picked by the document's `bench` field;
//! * `--summary [DIR]` — validate every committed `BENCH_N.json` under
//!   `DIR` (default `.`) and print the trajectory. Gaps in the sequence
//!   are tolerated and reported: a PR that emitted no bench document
//!   (e.g. `BENCH_4`) is not an error, only present-but-invalid
//!   documents fail the summary.
//!
//! The emitted document always validates against
//! [`dws_bench::validate_bench_value`] /
//! [`dws_bench::validate_bench5_value`] /
//! [`dws_bench::validate_bench6_value`] /
//! [`dws_bench::validate_bench7_value`] /
//! [`dws_bench::validate_bench8_value`]; the driver exits nonzero if its
//! own output ever fails the schema.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dws_bench::{
    validate_bench10_value, validate_bench5_value, validate_bench6_value, validate_bench7_value,
    validate_bench8_value, validate_bench9_value, validate_bench_value, BENCH_SCHEMA_VERSION,
};
use dws_harness::{demand_handler, offer_load, LoadSpec, LoadStats};
use dws_rt::{
    jain_fairness, join, serve, CoreTable, InProcessTable, LedgerTable, MetricsSnapshot, Policy,
    Runtime, RuntimeConfig,
};
use dws_sim::{ArrivalProcess, BoundedPareto};
use serde::value::Value;

const TELEMETRY_TICK_MS: u64 = 10;

/// Batch limit of the "on" mode — the runtime default, spelled out so the
/// bench document records exactly what was measured.
const BATCH_LIMIT_ON: usize = 8;

/// Per-worker trace-ring capacity of the `--task-trace` "on" mode.
const TRACE_CAPACITY: usize = 1 << 16;

/// Makespan-overhead budget of lifecycle tracing (percent).
const TRACE_BUDGET_PCT: f64 = 3.0;

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// Sequential fib — the flat-workload task body (no spawns inside).
fn fib_seq(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_seq(n - 1) + fib_seq(n - 2)
    }
}

struct Params {
    cores: usize,
    fib_n: u64,
    iters: usize,
    /// `0` — the recursive-`fib` workload (`block_on(fib(fib_n))` per
    /// iter): work spreads itself through `join`, steals are rare, task
    /// bodies dominate. `> 0` — the steal-bound flat workload: each iter
    /// spawns `fan` sequential `fib_seq(fib_n)` tasks into the producing
    /// worker's deque, so work spreads *only* by stealing and the steal
    /// path's cost sits on the critical path. The batching comparison
    /// uses the flat shape — it is what batched stealing exists for.
    fan: usize,
    reps: usize,
    fast: bool,
}

struct ProgStats {
    label: String,
    metrics: MetricsSnapshot,
    frames: usize,
    frames_evicted: u64,
    /// Task sojourn (spawn → exec-begin) of this program's workers;
    /// empty unless the run traced.
    sojourn: dws_rt::HistogramSnapshot,
}

struct RunStats {
    makespan: Duration,
    jobs: u64,
    programs: Vec<ProgStats>,
    steal_p50_ns: u64,
    steal_p99_ns: u64,
    wake_p50_ns: u64,
    wake_p99_ns: u64,
    endpoint_ok: bool,
}

/// One co-run: both programs execute `iters` repetitions of `fib(fib_n)`
/// concurrently over a shared table; the makespan is the wall time until
/// the slower one finishes. `batch_limit` is the steal batch limit both
/// programs run with (`1` = batching off).
fn corun(
    p: &Params,
    batch_limit: usize,
    telemetry: bool,
    tracing: bool,
    probe_endpoint: bool,
) -> RunStats {
    let table: Arc<dyn CoreTable> =
        Arc::new(LedgerTable::new(Arc::new(InProcessTable::new(p.cores, 2))));
    let mk = || {
        let mut cfg = RuntimeConfig::new(p.cores, Policy::Dws).with_steal_batch_limit(batch_limit);
        if telemetry {
            cfg =
                cfg.with_telemetry().with_telemetry_tick(Duration::from_millis(TELEMETRY_TICK_MS));
        }
        if tracing {
            cfg = cfg.with_tracing_capacity(TRACE_CAPACITY);
        }
        cfg.coordinator_period = Duration::from_millis(2);
        cfg.sleep_timeout = Some(Duration::from_millis(5));
        cfg
    };
    let p0 = Runtime::with_table(mk(), Arc::clone(&table), 0);
    let p1 = Runtime::with_table(mk(), table, 1);

    let server = probe_endpoint
        .then(|| serve(vec![p0.telemetry("p0"), p1.telemetry("p1")], "127.0.0.1:0").ok())
        .flatten();

    let run_prog = |rt: &Runtime| {
        for _ in 0..p.iters {
            if p.fan > 0 {
                rt.scope(|s| {
                    for _ in 0..p.fan {
                        s.spawn(|| {
                            std::hint::black_box(fib_seq(p.fib_n));
                        });
                    }
                });
            } else {
                rt.block_on(|| fib(p.fib_n));
            }
        }
    };
    let start = Instant::now();
    let mut endpoint_ok = false;
    std::thread::scope(|scope| {
        let t0 = scope.spawn(|| run_prog(&p0));
        let t1 = scope.spawn(|| run_prog(&p1));
        if let Some(server) = &server {
            endpoint_ok = probe_prometheus(server.addr());
        }
        t0.join().unwrap();
        t1.join().unwrap();
    });
    let makespan = start.elapsed();

    let collect = |rt: &Runtime, label: &str| {
        let frames = if telemetry { rt.telemetry(label).frames() } else { Vec::new() };
        ProgStats {
            label: label.to_string(),
            metrics: rt.metrics(),
            frames: frames.len(),
            frames_evicted: frames.last().map_or(0, |f| f.counters.frames_evicted),
            sojourn: rt.histograms().task_sojourn,
        }
    };
    let programs = vec![collect(&p0, "p0"), collect(&p1, "p1")];
    let jobs = programs.iter().map(|s| s.metrics.jobs_executed).sum();

    // Latency histograms fill while tracing; merge both programs.
    let (h0, h1) = (p0.histograms(), p1.histograms());
    let q = |a: &dws_rt::HistogramSnapshot, b: &dws_rt::HistogramSnapshot, quant: f64| {
        let mut merged = *a;
        merged.merge(b);
        merged.quantile_ns(quant).unwrap_or(0)
    };
    RunStats {
        makespan,
        jobs,
        programs,
        steal_p50_ns: q(&h0.steal_latency, &h1.steal_latency, 0.5),
        steal_p99_ns: q(&h0.steal_latency, &h1.steal_latency, 0.99),
        wake_p50_ns: q(&h0.wake_to_first_task, &h1.wake_to_first_task, 0.5),
        wake_p99_ns: q(&h0.wake_to_first_task, &h1.wake_to_first_task, 0.99),
        endpoint_ok,
    }
}

/// One plain-HTTP GET against the exposition endpoint; true when the
/// response is a 200 with a recognizable Prometheus counter in the body.
fn probe_prometheus(addr: std::net::SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else { return false };
    if stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .is_err()
    {
        return false;
    }
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response.starts_with("HTTP/1.1 200")
        && response.contains("# TYPE dws_jobs_executed_total counter")
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (String::from(k), v)).collect())
}

fn ms(d: Duration) -> Value {
    Value::F64(d.as_secs_f64() * 1e3)
}

/// The `--batching` mode: the same two-program co-run with batched
/// stealing off (`steal_batch_limit = 1`, the pre-batching behaviour) vs
/// on (the default limit), alternated so slow drift hits both modes
/// equally, min-of-`reps` per mode. Emits `BENCH_5.json`.
fn run_batching(p: &Params, out: &str, batch_limit: usize) {
    let describe = |tag: &str, rep: usize, r: &RunStats| {
        let sum = |f: fn(&MetricsSnapshot) -> u64| -> u64 {
            r.programs.iter().map(|s| f(&s.metrics)).sum()
        };
        eprintln!(
            "rep {rep}: batching {tag} {:.1} ms  (steals {} ok / {} fail, {} tasks, \
             sleeps {}, wakes {}, yields {})",
            r.makespan.as_secs_f64() * 1e3,
            sum(|m| m.steals_ok),
            sum(|m| m.steals_failed),
            sum(|m| m.tasks_stolen),
            sum(|m| m.sleeps),
            sum(|m| m.wakes),
            sum(|m| m.yields),
        );
    };
    let mut off_best: Option<RunStats> = None;
    let mut on_best: Option<RunStats> = None;
    for rep in 0..p.reps {
        let off = corun(p, 1, false, false, false);
        describe("off", rep, &off);
        if off_best.as_ref().is_none_or(|b| off.makespan < b.makespan) {
            off_best = Some(off);
        }
        let on = corun(p, batch_limit, false, false, false);
        describe("on ", rep, &on);
        if on_best.as_ref().is_none_or(|b| on.makespan < b.makespan) {
            on_best = Some(on);
        }
    }
    let off = off_best.expect("reps > 0");
    let on = on_best.expect("reps > 0");
    let total = |r: &RunStats, f: fn(&MetricsSnapshot) -> u64| -> u64 {
        r.programs.iter().map(|s| f(&s.metrics)).sum()
    };
    let steals_ok_off = total(&off, |m| m.steals_ok);
    let steals_ok_on = total(&on, |m| m.steals_ok);
    let steals_failed_off = total(&off, |m| m.steals_failed);
    let steals_failed_on = total(&on, |m| m.steals_failed);
    let tasks_stolen_on = total(&on, |m| m.tasks_stolen);
    let mean_batch_on =
        if steals_ok_on == 0 { 0.0 } else { tasks_stolen_on as f64 / steals_ok_on as f64 };
    let speedup_pct = (off.makespan.as_secs_f64() - on.makespan.as_secs_f64())
        / off.makespan.as_secs_f64()
        * 100.0;

    let per_program: Vec<Value> = on
        .programs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let m = &s.metrics;
            obj(vec![
                ("prog", Value::U64(i as u64)),
                ("label", Value::String(s.label.clone())),
                ("jobs", Value::U64(m.jobs_executed)),
                ("steals_ok", Value::U64(m.steals_ok)),
                ("steals_failed", Value::U64(m.steals_failed)),
                ("tasks_stolen", Value::U64(m.tasks_stolen)),
            ])
        })
        .collect();

    let doc = obj(vec![
        ("bench", Value::String("batched-stealing".into())),
        ("schema_version", Value::U64(BENCH_SCHEMA_VERSION)),
        ("pr", Value::U64(5)),
        (
            "config",
            obj(vec![
                ("cores", Value::U64(p.cores as u64)),
                ("fib_n", Value::U64(p.fib_n)),
                ("iters", Value::U64(p.iters as u64)),
                ("reps", Value::U64(p.reps as u64)),
                ("fan", Value::U64(p.fan as u64)),
                ("steal_batch_limit", Value::U64(batch_limit as u64)),
                ("fast", Value::Bool(p.fast)),
            ]),
        ),
        (
            "results",
            obj(vec![
                ("makespan_off_ms", ms(off.makespan)),
                ("makespan_on_ms", ms(on.makespan)),
                ("speedup_pct", Value::F64(speedup_pct)),
                ("steals_ok_off", Value::U64(steals_ok_off)),
                ("steals_ok_on", Value::U64(steals_ok_on)),
                ("steals_failed_off", Value::U64(steals_failed_off)),
                ("steals_failed_on", Value::U64(steals_failed_on)),
                ("tasks_stolen_on", Value::U64(tasks_stolen_on)),
                ("mean_batch_on", Value::F64(mean_batch_on)),
                ("per_program", Value::Array(per_program)),
            ]),
        ),
    ]);

    if let Err(errors) = validate_bench5_value(&doc) {
        eprintln!("generated document fails its own schema: {errors:?}");
        std::process::exit(1);
    }
    let text = serde_json::to_string(&doc).expect("serialize bench document");
    std::fs::write(out, format!("{text}\n")).expect("write bench document");
    println!(
        "wrote {out}: batching off {:.1} ms → on {:.1} ms ({speedup_pct:+.2}%), \
         failed steals {steals_failed_off} → {steals_failed_on}, \
         mean batch {mean_batch_on:.1} tasks ({steals_ok_on} ops moved {tasks_stolen_on})",
        off.makespan.as_secs_f64() * 1e3,
        on.makespan.as_secs_f64() * 1e3,
    );
}

/// The `--task-trace` mode: the same two-program co-run with task
/// lifecycle tracing off vs on, alternated so slow drift hits both modes
/// equally, min-of-`reps` per mode. The traced run also yields the
/// per-program task-sojourn percentiles the trace exists to measure.
/// Emits `BENCH_6.json` and records whether the tracing overhead stayed
/// within its [`TRACE_BUDGET_PCT`] makespan budget.
fn run_task_trace(p: &Params, out: &str) {
    let mut off_best: Option<Duration> = None;
    let mut on_best: Option<RunStats> = None;
    for rep in 0..p.reps {
        let off = corun(p, BATCH_LIMIT_ON, false, false, false);
        eprintln!("rep {rep}: tracing off {:.1} ms", off.makespan.as_secs_f64() * 1e3);
        if off_best.is_none_or(|b| off.makespan < b) {
            off_best = Some(off.makespan);
        }
        let on = corun(p, BATCH_LIMIT_ON, false, true, false);
        eprintln!("rep {rep}: tracing on  {:.1} ms", on.makespan.as_secs_f64() * 1e3);
        if on_best.as_ref().is_none_or(|b| on.makespan < b.makespan) {
            on_best = Some(on);
        }
    }
    let off_makespan = off_best.expect("reps > 0");
    let on = on_best.expect("reps > 0");
    let overhead_pct = (on.makespan.as_secs_f64() - off_makespan.as_secs_f64())
        / off_makespan.as_secs_f64()
        * 100.0;
    let within_budget = overhead_pct <= TRACE_BUDGET_PCT;

    let per_program: Vec<Value> = on
        .programs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let q = |quant: f64| Value::U64(s.sojourn.quantile_ns(quant).unwrap_or(0));
            obj(vec![
                ("prog", Value::U64(i as u64)),
                ("label", Value::String(s.label.clone())),
                ("jobs", Value::U64(s.metrics.jobs_executed)),
                ("sojourn_samples", Value::U64(s.sojourn.count())),
                ("sojourn_p50_ns", q(0.5)),
                ("sojourn_p99_ns", q(0.99)),
                ("sojourn_p999_ns", q(0.999)),
            ])
        })
        .collect();

    let doc = obj(vec![
        ("bench", Value::String("task-trace".into())),
        ("schema_version", Value::U64(BENCH_SCHEMA_VERSION)),
        ("pr", Value::U64(6)),
        (
            "config",
            obj(vec![
                ("cores", Value::U64(p.cores as u64)),
                ("fib_n", Value::U64(p.fib_n)),
                ("iters", Value::U64(p.iters as u64)),
                ("reps", Value::U64(p.reps as u64)),
                ("trace_capacity", Value::U64(TRACE_CAPACITY as u64)),
                ("fast", Value::Bool(p.fast)),
            ]),
        ),
        (
            "results",
            obj(vec![
                ("makespan_off_ms", ms(off_makespan)),
                ("makespan_on_ms", ms(on.makespan)),
                ("overhead_pct", Value::F64(overhead_pct)),
                ("budget_pct", Value::F64(TRACE_BUDGET_PCT)),
                ("within_budget", Value::Bool(within_budget)),
                ("per_program", Value::Array(per_program)),
            ]),
        ),
    ]);

    if let Err(errors) = validate_bench6_value(&doc) {
        eprintln!("generated document fails its own schema: {errors:?}");
        std::process::exit(1);
    }
    let text = serde_json::to_string(&doc).expect("serialize bench document");
    std::fs::write(out, format!("{text}\n")).expect("write bench document");
    let sojourn = &on.programs[0].sojourn;
    println!(
        "wrote {out}: tracing off {:.1} ms → on {:.1} ms ({overhead_pct:+.2}%, budget {TRACE_BUDGET_PCT}%, \
         within_budget={within_budget}), p0 sojourn p50 {} ns p99 {} ns p999 {} ns ({} samples)",
        off_makespan.as_secs_f64() * 1e3,
        on.makespan.as_secs_f64() * 1e3,
        sojourn.quantile_ns(0.5).unwrap_or(0),
        sojourn.quantile_ns(0.99).unwrap_or(0),
        sojourn.quantile_ns(0.999).unwrap_or(0),
        sojourn.count(),
    );
    if !within_budget {
        eprintln!("tracing overhead {overhead_pct:+.2}% exceeds the {TRACE_BUDGET_PCT}% budget");
        // The fast smoke run is a schema/plumbing check on noisy shared
        // runners, not a measurement — only the full run enforces the gate.
        if !p.fast {
            std::process::exit(1);
        }
    }
}

/// The T_SLEEP × coordinator-period grid the `--serving` mode sweeps
/// (milliseconds). Short T_SLEEP wakes donated cores back quickly when a
/// burst lands (good tail, more table churn); a long coordinator period
/// amortizes coordination but leaves requests sitting in the submission
/// ring for most of a period before they are even admitted (ring
/// residence is part of the measured sojourn).
const SERVE_SWEEP: &[(u64, u64)] = &[(1, 1), (1, 4), (5, 1), (5, 4)];

/// The open-loop serving workload of the `--serving` mode.
#[derive(Clone)]
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
    reps: usize,
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

/// One serving co-run: two serving runtimes over a shared table, each
/// fed by its own open-loop generator thread for `sp.duration`, then a
/// drain tail until every accepted request has been admitted and
/// executed (or a safety deadline lapses). The makespan spans generator
/// start → drain-tail end, so a configuration that lets requests pool in
/// the ring pays for it in makespan as well as in the sojourn tail.
fn serve_corun(
    sp: &ServeParams,
    t_sleep: Duration,
    period: Duration,
    tracing: bool,
) -> (Duration, Vec<ServeProgStats>) {
    let table: Arc<dyn CoreTable> =
        Arc::new(LedgerTable::new(Arc::new(InProcessTable::new(sp.cores, 2))));
    let mk = || {
        let mut cfg = RuntimeConfig::new(sp.cores, Policy::Dws)
            .with_serving_geometry(sp.ring_capacity, sp.drain_batch);
        if tracing {
            cfg = cfg.with_tracing_capacity(TRACE_CAPACITY);
        }
        cfg.coordinator_period = period;
        cfg.sleep_timeout = Some(t_sleep);
        cfg
    };
    let p0 = Runtime::serve_with_table(mk(), Arc::clone(&table), 0, demand_handler());
    let p1 = Runtime::serve_with_table(mk(), table, 1, demand_handler());

    let spec = |seed: u64| LoadSpec {
        arrivals: ArrivalProcess::bursty(sp.rate_per_sec, sp.burstiness),
        demand: BoundedPareto::new(sp.demand_min_us, sp.demand_max_us, sp.demand_alpha),
        seed,
        duration: sp.duration,
    };
    let start = Instant::now();
    let (l0, l1) = std::thread::scope(|scope| {
        // Decorrelated seeds: two independent clients, not one mirrored
        // schedule arriving at both rings in lockstep.
        let g0 = scope.spawn(|| offer_load(&p0, &spec(sp.seed)));
        let g1 = scope.spawn(|| offer_load(&p1, &spec(sp.seed ^ 0xB15B_05E5)));
        (g0.join().unwrap(), g1.join().unwrap())
    });
    // Drain tail: the coordinators keep draining on their period; nudge
    // them along and wait until nothing accepted is still in flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    for (rt, l) in [(&p0, &l0), (&p1, &l1)] {
        loop {
            rt.drain_submissions();
            let m = rt.metrics();
            let done = m.requests_admitted == l.submitted && m.jobs_executed >= m.requests_admitted;
            if done || Instant::now() > deadline {
                break;
            }
            std::thread::yield_now();
        }
    }
    let makespan = start.elapsed();

    let collect = |rt: &Runtime, label: &str, load: LoadStats| ServeProgStats {
        label: label.to_string(),
        load,
        admitted: rt.metrics().requests_admitted,
        sojourn: rt.histograms().request_sojourn,
    };
    (makespan, vec![collect(&p0, "p0", l0), collect(&p1, "p1", l1)])
}

/// The `--serving` mode: sweep [`SERVE_SWEEP`] with tracing on (the
/// request-sojourn histogram only fills while tracing), reporting
/// per-point throughput and per-program end-to-end request sojourn
/// p50/p99/p999; then measure the tracing off/on makespan delta at the
/// first sweep point (alternated, min-of-`reps`) against the
/// [`TRACE_BUDGET_PCT`] budget. Emits `BENCH_7.json`.
fn run_serving(sp: &ServeParams, out: &str) {
    let mut sweep = Vec::new();
    for &(ts_ms, cp_ms) in SERVE_SWEEP {
        let (makespan, progs) =
            serve_corun(sp, Duration::from_millis(ts_ms), Duration::from_millis(cp_ms), true);
        let admitted: u64 = progs.iter().map(|s| s.admitted).sum();
        let throughput = admitted as f64 / makespan.as_secs_f64();
        let p99 = progs[0].sojourn.quantile_ns(0.99).unwrap_or(0) / 1_000;
        eprintln!(
            "sweep t_sleep={ts_ms}ms period={cp_ms}ms: {admitted} admitted in {:.1} ms \
             ({throughput:.0} req/s), p0 request p99 {p99} µs",
            makespan.as_secs_f64() * 1e3,
        );
        let per_program: Vec<Value> = progs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let q = |quant: f64| Value::U64(s.sojourn.quantile_ns(quant).unwrap_or(0) / 1_000);
                obj(vec![
                    ("prog", Value::U64(i as u64)),
                    ("label", Value::String(s.label.clone())),
                    ("offered", Value::U64(s.load.offered())),
                    ("submitted", Value::U64(s.load.submitted)),
                    ("shed", Value::U64(s.load.shed)),
                    ("fenced", Value::U64(s.load.fenced)),
                    ("admitted", Value::U64(s.admitted)),
                    ("request_p50_us", q(0.5)),
                    ("request_p99_us", q(0.99)),
                    ("request_p999_us", q(0.999)),
                ])
            })
            .collect();
        sweep.push(obj(vec![
            ("t_sleep_ms", Value::U64(ts_ms)),
            ("coordinator_period_ms", Value::U64(cp_ms)),
            ("throughput_req_per_s", Value::F64(throughput)),
            ("per_program", Value::Array(per_program)),
        ]));
    }

    // Tracing overhead at the first sweep point, off/on alternated.
    let (ts, cp) =
        (Duration::from_millis(SERVE_SWEEP[0].0), Duration::from_millis(SERVE_SWEEP[0].1));
    let mut off_best: Option<Duration> = None;
    let mut on_best: Option<Duration> = None;
    for rep in 0..sp.reps {
        let (off, _) = serve_corun(sp, ts, cp, false);
        eprintln!("rep {rep}: tracing off {:.1} ms", off.as_secs_f64() * 1e3);
        if off_best.is_none_or(|b| off < b) {
            off_best = Some(off);
        }
        let (on, _) = serve_corun(sp, ts, cp, true);
        eprintln!("rep {rep}: tracing on  {:.1} ms", on.as_secs_f64() * 1e3);
        if on_best.is_none_or(|b| on < b) {
            on_best = Some(on);
        }
    }
    let off_makespan = off_best.expect("reps > 0");
    let on_makespan = on_best.expect("reps > 0");
    let overhead_pct = (on_makespan.as_secs_f64() - off_makespan.as_secs_f64())
        / off_makespan.as_secs_f64()
        * 100.0;
    let within_budget = overhead_pct <= TRACE_BUDGET_PCT;

    let doc = obj(vec![
        ("bench", Value::String("serving-tail".into())),
        ("schema_version", Value::U64(BENCH_SCHEMA_VERSION)),
        ("pr", Value::U64(7)),
        (
            "config",
            obj(vec![
                ("cores", Value::U64(sp.cores as u64)),
                ("rate_per_sec", Value::F64(sp.rate_per_sec)),
                ("burstiness", Value::F64(sp.burstiness)),
                ("demand_min_us", Value::F64(sp.demand_min_us)),
                ("demand_max_us", Value::F64(sp.demand_max_us)),
                ("demand_alpha", Value::F64(sp.demand_alpha)),
                ("duration_ms", Value::U64(sp.duration.as_millis() as u64)),
                ("ring_capacity", Value::U64(sp.ring_capacity as u64)),
                ("drain_batch", Value::U64(sp.drain_batch as u64)),
                ("reps", Value::U64(sp.reps as u64)),
                ("seed", Value::U64(sp.seed)),
                ("fast", Value::Bool(sp.fast)),
            ]),
        ),
        (
            "results",
            obj(vec![
                ("sweep", Value::Array(sweep)),
                (
                    "trace_overhead",
                    obj(vec![
                        ("makespan_off_ms", ms(off_makespan)),
                        ("makespan_on_ms", ms(on_makespan)),
                        ("overhead_pct", Value::F64(overhead_pct)),
                        ("budget_pct", Value::F64(TRACE_BUDGET_PCT)),
                        ("within_budget", Value::Bool(within_budget)),
                    ]),
                ),
            ]),
        ),
    ]);

    if let Err(errors) = validate_bench7_value(&doc) {
        eprintln!("generated document fails its own schema: {errors:?}");
        std::process::exit(1);
    }
    let text = serde_json::to_string(&doc).expect("serialize bench document");
    std::fs::write(out, format!("{text}\n")).expect("write bench document");
    println!(
        "wrote {out}: {} sweep point(s), tracing off {:.1} ms → on {:.1} ms \
         ({overhead_pct:+.2}%, budget {TRACE_BUDGET_PCT}%, within_budget={within_budget})",
        SERVE_SWEEP.len(),
        off_makespan.as_secs_f64() * 1e3,
        on_makespan.as_secs_f64() * 1e3,
    );
    if !within_budget {
        eprintln!("tracing overhead {overhead_pct:+.2}% exceeds the {TRACE_BUDGET_PCT}% budget");
        // The fast smoke run is a schema/plumbing check on noisy shared
        // runners, not a measurement — only the full run enforces the gate.
        if !sp.fast {
            std::process::exit(1);
        }
    }
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
#[derive(Clone)]
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
/// tracing on so the request-sojourn histogram fills). Unlike
/// [`serve_corun`], the drain tail does *not* nudge `drain_submissions`
/// by hand — admission stays on the arm's own control plane, so a
/// polling arm pays its period in the tail too. Returns the makespan,
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
        Some("telemetry-trajectory") => validate_bench_value(doc),
        Some("batched-stealing") => validate_bench5_value(doc),
        Some("task-trace") => validate_bench6_value(doc),
        Some("serving-tail") => validate_bench7_value(doc),
        Some("fairness-trajectory") => validate_bench8_value(doc),
        Some("chaos-mttr") => validate_bench9_value(doc),
        Some("control-plane") => validate_bench10_value(doc),
        Some(other) => Err(vec![format!(
            "unknown bench kind `{other}` (known: telemetry-trajectory, batched-stealing, \
             task-trace, serving-tail, fairness-trajectory, chaos-mttr, control-plane)"
        )]),
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
                println!("BENCH_{n}.json  {kind}: valid");
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
    let mut batching = false;
    let mut task_trace = false;
    let mut serving = false;
    let mut fairness = false;
    let mut control_plane = false;
    let mut summary: Option<String> = None;
    let mut cores: Option<usize> = None;
    let mut reps: Option<usize> = None;
    let mut batch_limit: usize = BATCH_LIMIT_ON;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fast" => fast = true,
            "--batching" => batching = true,
            "--task-trace" => task_trace = true,
            "--serving" => serving = true,
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
            "--reps" => {
                i += 1;
                reps = Some(
                    args.get(i).expect("--reps needs a value").parse().expect("--reps: number"),
                );
            }
            "--batch-limit" => {
                i += 1;
                batch_limit = args
                    .get(i)
                    .expect("--batch-limit needs a value")
                    .parse()
                    .expect("--batch-limit: number");
                assert!(batch_limit > 1, "--batch-limit: need at least 2 to batch");
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
                panic!(
                    "unknown flag {other}; known: --batching --task-trace --serving \
                     --fairness --control-plane --fast --cores N --reps N --batch-limit N \
                     --out PATH --check PATH --summary [DIR]"
                )
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

    assert!(
        usize::from(batching)
            + usize::from(task_trace)
            + usize::from(serving)
            + usize::from(fairness)
            + usize::from(control_plane)
            <= 1,
        "--batching, --task-trace, --serving, --fairness and --control-plane are \
         mutually exclusive"
    );
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
                    reps: 1,
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
                    reps: 1,
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
    if serving {
        // Bursty open-loop load: calm stretches punctuated by 4× bursts,
        // bounded-Pareto demands (~130 µs mean, heavy right tail). The
        // long-run offered load sits well under capacity — the tail the
        // sweep measures comes from the bursts, not saturation.
        let mut sp = if fast {
            ServeParams {
                cores: 4,
                rate_per_sec: 1_000.0,
                burstiness: 4.0,
                demand_min_us: 50.0,
                demand_max_us: 1_000.0,
                demand_alpha: 1.5,
                duration: Duration::from_millis(200),
                ring_capacity: 1024,
                drain_batch: 256,
                seed: 7,
                reps: 2,
                fast,
            }
        } else {
            ServeParams {
                cores: 4,
                rate_per_sec: 3_000.0,
                burstiness: 4.0,
                demand_min_us: 50.0,
                demand_max_us: 2_000.0,
                demand_alpha: 1.5,
                duration: Duration::from_millis(500),
                ring_capacity: 1024,
                drain_batch: 256,
                seed: 7,
                reps: 3,
                fast,
            }
        };
        if let Some(n) = cores {
            assert!(n >= 2, "--cores: need at least one core per program");
            sp.cores = n;
        }
        if let Some(n) = reps {
            assert!(n >= 1, "--reps: need at least one repetition");
            sp.reps = n;
        }
        // Warm-up (untimed): thread spawning, first-touch, ring paging.
        let warmup = ServeParams { duration: Duration::from_millis(50), ..sp.clone() };
        serve_corun(&warmup, Duration::from_millis(1), Duration::from_millis(1), false);
        run_serving(&sp, &out.unwrap_or_else(|| "BENCH_7.json".into()));
        return;
    }
    let mut p = if batching {
        // Flat steal-bound workload (see `Params::fan`): `fib_n` is the
        // *sequential* grain here (~µs per task), `iters` the rounds.
        if fast {
            Params { cores: 4, fib_n: 16, iters: 20, fan: 256, reps: 2, fast }
        } else {
            Params { cores: 4, fib_n: 18, iters: 90, fan: 512, reps: 5, fast }
        }
    } else if task_trace {
        // Flat workload again, with a coarser sequential grain (tens of
        // µs per task): lifecycle tracing costs a fixed ~0.5 µs per
        // task, so the budget comparison needs realistic task bodies —
        // against the ~100 ns tasks of the recursive-fib shape *any*
        // per-task instrumentation blows the budget. The flat shape is
        // also what sojourn exists to measure: tasks genuinely park in
        // a deque before a worker reaches them.
        if fast {
            Params { cores: 4, fib_n: 20, iters: 20, fan: 256, reps: 2, fast }
        } else {
            Params { cores: 4, fib_n: 22, iters: 30, fan: 512, reps: 3, fast }
        }
    } else if fast {
        Params { cores: 4, fib_n: 23, iters: 30, fan: 0, reps: 2, fast }
    } else {
        Params { cores: 4, fib_n: 27, iters: 30, fan: 0, reps: 3, fast }
    };
    if let Some(n) = cores {
        assert!(n >= 2, "--cores: need at least one core per program");
        p.cores = n;
    }
    if let Some(n) = reps {
        assert!(n >= 1, "--reps: need at least one repetition");
        p.reps = n;
    }

    // Warm-up (untimed): first-touch costs, thread spawning, page faults.
    let warmup = Params { cores: p.cores, fib_n: p.fib_n, iters: 2, fan: p.fan, reps: 1, fast };
    corun(&warmup, BATCH_LIMIT_ON, false, false, false);

    if batching {
        run_batching(&p, &out.unwrap_or_else(|| "BENCH_5.json".into()), batch_limit);
        return;
    }
    if task_trace {
        run_task_trace(&p, &out.unwrap_or_else(|| "BENCH_6.json".into()));
        return;
    }
    let out = out.unwrap_or_else(|| "BENCH_3.json".into());

    // Alternate off/on so slow drift hits both modes equally; min-of-reps
    // sheds scheduler noise.
    let mut off_best: Option<Duration> = None;
    let mut on_best: Option<RunStats> = None;
    for rep in 0..p.reps {
        let off = corun(&p, BATCH_LIMIT_ON, false, false, false);
        eprintln!("rep {rep}: telemetry off {:.1} ms", off.makespan.as_secs_f64() * 1e3);
        if off_best.is_none_or(|b| off.makespan < b) {
            off_best = Some(off.makespan);
        }
        let on = corun(&p, BATCH_LIMIT_ON, true, false, false);
        eprintln!("rep {rep}: telemetry on  {:.1} ms", on.makespan.as_secs_f64() * 1e3);
        if on_best.as_ref().is_none_or(|b| on.makespan < b.makespan) {
            on_best = Some(on);
        }
    }
    let off_makespan = off_best.expect("reps > 0");
    let on = on_best.expect("reps > 0");
    let overhead_pct = (on.makespan.as_secs_f64() - off_makespan.as_secs_f64())
        / off_makespan.as_secs_f64()
        * 100.0;

    // Traced run: latency percentiles + live endpoint probe (excluded from
    // the overhead comparison — tracing has its own cost).
    let traced = corun(&p, BATCH_LIMIT_ON, true, true, true);

    let per_program: Vec<Value> = on
        .programs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let m = &s.metrics;
            obj(vec![
                ("prog", Value::U64(i as u64)),
                ("label", Value::String(s.label.clone())),
                ("jobs", Value::U64(m.jobs_executed)),
                ("steals_ok", Value::U64(m.steals_ok)),
                ("steals_failed", Value::U64(m.steals_failed)),
                ("sleeps", Value::U64(m.sleeps)),
                ("wakes", Value::U64(m.wakes)),
                ("cores_acquired", Value::U64(m.cores_acquired)),
                ("cores_reclaimed", Value::U64(m.cores_reclaimed)),
                ("cores_released", Value::U64(m.cores_released)),
                ("frames", Value::U64(s.frames as u64)),
                ("frames_evicted", Value::U64(s.frames_evicted)),
            ])
        })
        .collect();

    let doc = obj(vec![
        ("bench", Value::String("telemetry-trajectory".into())),
        ("schema_version", Value::U64(BENCH_SCHEMA_VERSION)),
        ("pr", Value::U64(3)),
        (
            "config",
            obj(vec![
                ("cores", Value::U64(p.cores as u64)),
                ("fib_n", Value::U64(p.fib_n)),
                ("iters", Value::U64(p.iters as u64)),
                ("reps", Value::U64(p.reps as u64)),
                ("telemetry_tick_ms", Value::U64(TELEMETRY_TICK_MS)),
                ("fast", Value::Bool(p.fast)),
            ]),
        ),
        (
            "results",
            obj(vec![
                ("makespan_ms", ms(on.makespan)),
                ("throughput_jobs_per_s", Value::F64(on.jobs as f64 / on.makespan.as_secs_f64())),
                ("per_program", Value::Array(per_program)),
                (
                    "steal_latency_ns",
                    obj(vec![
                        ("p50", Value::U64(traced.steal_p50_ns)),
                        ("p99", Value::U64(traced.steal_p99_ns)),
                    ]),
                ),
                (
                    "wake_to_first_task_ns",
                    obj(vec![
                        ("p50", Value::U64(traced.wake_p50_ns)),
                        ("p99", Value::U64(traced.wake_p99_ns)),
                    ]),
                ),
                (
                    "telemetry",
                    obj(vec![
                        ("makespan_off_ms", ms(off_makespan)),
                        ("makespan_on_ms", ms(on.makespan)),
                        ("overhead_pct", Value::F64(overhead_pct)),
                        ("frames", Value::U64(on.programs.iter().map(|s| s.frames as u64).sum())),
                        (
                            "frames_evicted",
                            Value::U64(on.programs.iter().map(|s| s.frames_evicted).sum()),
                        ),
                        ("endpoint_ok", Value::Bool(traced.endpoint_ok)),
                    ]),
                ),
            ]),
        ),
    ]);

    if let Err(errors) = validate_bench_value(&doc) {
        eprintln!("generated document fails its own schema: {errors:?}");
        std::process::exit(1);
    }
    let text = serde_json::to_string(&doc).expect("serialize bench document");
    std::fs::write(&out, format!("{text}\n")).expect("write bench document");
    println!(
        "wrote {out}: makespan {:.1} ms, throughput {:.0} jobs/s, telemetry overhead {overhead_pct:+.2}% \
         (off {:.1} ms → on {:.1} ms), endpoint_ok={}",
        on.makespan.as_secs_f64() * 1e3,
        on.jobs as f64 / on.makespan.as_secs_f64(),
        off_makespan.as_secs_f64() * 1e3,
        on.makespan.as_secs_f64() * 1e3,
        traced.endpoint_ok,
    );
}

#[cfg(test)]
mod dispatch_tests {
    use super::*;

    #[test]
    fn unknown_bench_kind_is_a_failure_not_a_fallthrough() {
        let doc: Value =
            serde_json::from_str(r#"{"bench": "mystery-metric", "schema_version": 1}"#).unwrap();
        let errs = validate_by_kind(&doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("unknown bench kind `mystery-metric`")), "{errs:?}");
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
            ("serving-tail", 7),
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
