//! End-to-end observability: two traced DWS runtimes co-running over a
//! shared `TracedTable` must produce a consistent event stream, populated
//! histograms, and a protocol-clean table history.

use std::sync::Arc;

use dws_rt::export::{to_chrome_trace, to_jsonl};
use dws_rt::{
    join, CoreTable, InProcessTable, Policy, Runtime, RuntimeConfig, TimedEvent, TracedTable,
};

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

#[test]
fn traced_corun_is_observable_and_protocol_clean() {
    let cores = 4;
    let table = Arc::new(TracedTable::new(Arc::new(InProcessTable::new(cores, 2)), 1 << 16));
    let shared: Arc<dyn CoreTable> = Arc::clone(&table) as Arc<dyn CoreTable>;

    let mk = || {
        let mut cfg =
            RuntimeConfig::new(cores, Policy::Dws).with_tracing_capacity(1 << 15).with_telemetry();
        cfg.coordinator_period = std::time::Duration::from_millis(2);
        cfg.sleep_timeout = Some(std::time::Duration::from_millis(10));
        cfg
    };
    let p0 = Runtime::with_table(mk(), Arc::clone(&shared), 0);
    let p1 = Runtime::with_table(mk(), shared, 1);
    assert!(p0.tracing_enabled() && p1.tracing_enabled());

    // Phase 1: both busy. Phase 2: p1 idles so its workers sleep and p0's
    // coordinator can pick up freed cores. Phase 3: p1 returns and must
    // reclaim its home cores.
    for _ in 0..3 {
        let (a, b) = (p0.block_on(|| fib(17)), p1.block_on(|| fib(17)));
        assert_eq!((a, b), (1597, 1597));
    }
    std::thread::sleep(std::time::Duration::from_millis(120));
    assert_eq!(p0.block_on(|| fib(18)), 2584);
    std::thread::sleep(std::time::Duration::from_millis(30));
    assert_eq!(p1.block_on(|| fib(18)), 2584);

    // Event streams: both runtimes produced task activity; p1 slept.
    let s0 = p0.trace_snapshot();
    let s1 = p1.trace_snapshot();
    assert!(s0.count("exec_begin") > 0, "p0 recorded no tasks");
    assert!(s1.count("exec_begin") > 0, "p1 recorded no tasks");
    assert!(s0.count("spawn") > 0, "p0 recorded no spawns");
    // Pairing is only sound on a lossless ring (same rule dws-trace uses
    // for W1): on an overloaded host the run crawls and the ring evicts.
    if s0.dropped == 0 {
        assert_eq!(s0.count("spawn"), s0.count("enqueue"), "spawn/enqueue must pair");
    }
    assert!(s1.count("sleep") > 0, "p1 never slept through the idle phase");
    assert!(s1.count("sleep") >= s1.count("wake") - 1);
    assert!(s0.events.windows(2).all(|w| w[0].t_us <= w[1].t_us), "snapshot must be time-sorted");
    // Coordinator decisions show up on the shared lane.
    assert!(s0.count("coordinator_decision") + s1.count("coordinator_decision") > 0);

    // Histograms: sleep durations are always sampled; steal latencies and
    // per-worker counters because tracing is on.
    let h1 = p1.histograms();
    assert!(h1.sleep_duration.count() > 0, "no sleep-duration samples");
    assert!(h1.steal_latency.count() > 0, "no steal-latency samples");
    assert!(h1.task_sojourn.count() > 0, "no task-sojourn samples");
    assert!(h1.task_sojourn.quantile_ns(0.999).is_some());
    assert!(h1.sleep_duration.quantile_ns(0.5).is_some());
    let shards = p0.worker_metrics();
    assert_eq!(shards.len(), cores);
    assert!(shards.iter().map(|w| w.jobs_executed).sum::<u64>() > 0);

    // Exporters accept real streams.
    let jsonl = to_jsonl(0, &s0);
    // A lossy ring appends one `events_dropped` meta line.
    let meta_lines = usize::from(s0.dropped > 0);
    assert_eq!(jsonl.lines().count(), s0.events.len() + meta_lines);
    let first: TimedEvent = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
    assert_eq!(first, s0.events[0]);
    let chrome = to_chrome_trace(&[(0, s0), (1, s1)]);
    let doc: serde_json::Value = serde_json::from_str(&chrome).unwrap();
    assert!(matches!(&doc["traceEvents"], serde_json::Value::Array(v) if !v.is_empty()));

    let telemetry = p0.telemetry("p0");
    drop(p0); // shutdown flushes a final frame
    drop(p1);

    // Frames sampled from this real co-run survive the JSONL sink
    // unchanged (the schema itself is pinned in `dws-core`).
    let frames = telemetry.frames();
    assert!(!frames.is_empty(), "sampler left no frames");
    let text = dws_rt::frames_to_jsonl(&frames);
    assert_eq!(text.lines().count(), frames.len());
    for (line, frame) in text.lines().zip(&frames) {
        assert_eq!(serde_json::from_str::<dws_rt::TelemetryFrame>(line).unwrap(), *frame);
    }

    // Live invariant replay over the shared table's full history. Replay
    // is only sound over a complete history, so skip it (loudly) if the
    // ring evicted — that only happens when an overloaded host stretches
    // the run far past its normal duration.
    if table.dropped() == 0 {
        let stats = table.replay_check().expect("table protocol violated");
        assert!(stats.releases > 0, "co-run produced no releases");
    } else {
        eprintln!("table ring overflowed ({} dropped); replay check skipped", table.dropped());
    }
}
