//! Pins the telemetry frame's wire format. `dws-top`, the
//! `--telemetry-out` sink and Prometheus consumers read frames by field
//! name; serialized bytes (names, declaration order, integer classes) are
//! compared against one committed line, so a schema edit shows up as a
//! diff of `golden_frame.json` rather than as a silent consumer break.

use dws_core::frame::{
    frames_to_jsonl, CoordSample, CoreSample, CounterSample, LatencySample, TelemetryFrame,
    WorkerSample,
};

/// One JSON line: the fully-populated frame below.
const GOLDEN: &str = include_str!("golden_frame.json");

/// Every field distinct and nonzero, so a swapped or dropped field cannot
/// hide behind equal values.
fn full_frame() -> TelemetryFrame {
    TelemetryFrame {
        t_us: 123_456,
        prog: 1,
        seq: 42,
        cores: vec![
            CoreSample { core: 0, home: 0, owner: -1 },
            CoreSample { core: 1, home: 1, owner: 1 },
        ],
        workers: vec![
            WorkerSample { worker: 0, asleep: true, queue: 0 },
            WorkerSample { worker: 1, asleep: false, queue: 7 },
        ],
        coord: CoordSample {
            n_b: 9,
            n_a: 3,
            n_f: 1,
            n_r: 2,
            n_w: 3,
            planned_free: 1,
            planned_reclaim: 2,
            woken: 2,
            decisions: 17,
            knob_t_sleep: 16,
            knob_period_us: 10_000,
            knob_steal_batch: 8,
        },
        counters: CounterSample {
            steals_ok: 100,
            steals_failed: 20,
            jobs_executed: 3000,
            sleeps: 5,
            wakes: 4,
            yields: 6,
            coordinator_runs: 50,
            cores_acquired: 3,
            cores_reclaimed: 2,
            cores_released: 5,
            events_dropped: 1,
            frames_evicted: 8,
            cores_reaped: 2,
            leases_expired: 1,
            degraded: 1,
            tasks_stolen: 340,
            steals_contended: 12,
            requests_admitted: 900,
            requests_dropped: 11,
            requests_fenced: 2,
            requests_abandoned: 1,
            zombies_fenced: 1,
            leases_rearmed: 1,
            doorbell_wakes: 23,
            demand_rings: 19,
            core_us_total: 654_321,
        },
        latency: LatencySample {
            steal_p50_ns: 1_024,
            steal_p99_ns: 65_536,
            sleep_p50_ns: 2_048,
            sleep_p99_ns: 131_072,
            wake_p50_ns: 4_096,
            wake_p99_ns: 262_144,
            batch_p50_tasks: 4,
            batch_p99_tasks: 16,
            sojourn_p50_ns: 8_192,
            sojourn_p99_ns: 524_288,
            sojourn_p999_ns: 1_048_576,
            request_p50_ns: 16_384,
            request_p99_ns: 2_097_152,
            request_p999_ns: 4_194_304,
            alloc_p50_ns: 32_768,
            alloc_p99_ns: 8_388_608,
            release_p50_ns: 65_536,
            release_p99_ns: 16_777_216,
        },
    }
}

#[test]
fn wire_format_matches_the_committed_line() {
    assert_eq!(frames_to_jsonl(&[full_frame()]), GOLDEN);
}

#[test]
fn jsonl_round_trips() {
    let back: TelemetryFrame = serde_json::from_str(GOLDEN.trim_end()).unwrap();
    assert_eq!(back, full_frame());
    assert_eq!((back.cores_owned(), back.workers_asleep(), back.queued_jobs()), (1, 1, 7));

    let other = TelemetryFrame { seq: 43, cores: vec![], ..full_frame() };
    let text = frames_to_jsonl(&[full_frame(), other.clone()]);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one frame per line");
    assert_eq!(serde_json::from_str::<TelemetryFrame>(lines[1]).unwrap(), other);
}
