//! The metric names `BENCHMARK.json` declares, and the report a run
//! prints: every metric by name with its unit, then one JSON line.

use crate::host;
use crate::workloads::Outcome;

/// A declared metric. `better` is `"higher"` or `"lower"`.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the runtime sees; every workload reports every one.
/// Measured with tracing off. What each means on each workload is in
/// `README.md`.
pub const END_TO_END: [MetricDef; 6] = [
    def("setup_s", "s", "lower"),
    def("throughput_per_s", "1/s", "higher"),
    def("latency_us_p50", "us", "lower"),
    def("latency_us_tail", "us", "lower"),
    def("cpu_cores_used", "cores", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Single layers, from the traced run. No bounds; 0 where a workload
/// bypasses the layer.
pub const PER_LAYER: &[MetricDef] = &[
    // dws-deque::chase_lev, direct calls
    def("deque.push_pop_ns", "ns", "lower"),
    def("deque.push_pop_contended_ns", "ns", "lower"),
    def("deque.steal_ns", "ns", "lower"),
    def("deque.steal_batch_ns_per_task", "ns", "lower"),
    def("deque.steal_retry_share", "ratio", "lower"),
    // dws-deque::injector, direct calls
    def("injector.push_pop_ns", "ns", "lower"),
    def("injector.contended_ns", "ns", "lower"),
    // dws-deque::submit_ring, direct calls (heap and shm) and in-run
    def("ring.submit_ns", "ns", "lower"),
    def("ring.drain_ns_per_req", "ns", "lower"),
    def("ring.shm.submit_ns", "ns", "lower"),
    def("ring.shm.drain_ns_per_req", "ns", "lower"),
    def("ring.full_share", "ratio", "lower"),
    def("ring.abandoned", "count", "lower"),
    // dws-rt::alloc_table / dws-rt::shm, direct calls
    def("table.inproc.acquire_release_ns", "ns", "lower"),
    def("table.inproc.reclaim_ns", "ns", "lower"),
    def("table.inproc.scan_ns", "ns", "lower"),
    def("table.shm.acquire_release_ns", "ns", "lower"),
    def("table.shm.reclaim_ns", "ns", "lower"),
    def("table.shm.scan_ns", "ns", "lower"),
    // ... and in-run, at the ProbeTable
    def("table.acquire_calls", "count", "lower"),
    def("table.acquire_ok_share", "ratio", "higher"),
    def("table.reclaim_calls", "count", "lower"),
    def("table.reclaim_ok_share", "ratio", "higher"),
    def("table.release_calls", "count", "lower"),
    def("table.scan_calls", "count", "lower"),
    def("table.current_calls", "count", "lower"),
    def("table.call_ns_p50", "ns", "lower"),
    def("table.busy_share", "ratio", "lower"),
    // dws-rt doorbells (Doorbell, ShmTable futex)
    def("doorbell.inproc.ring_to_wake_us", "us", "lower"),
    def("doorbell.shm.ring_to_wake_us", "us", "lower"),
    def("doorbell.rings", "count", "lower"),
    def("doorbell.wakes", "count", "lower"),
    def("doorbell.ring_ns_p50", "ns", "lower"),
    def("doorbell.ring_to_wake_us_p50", "us", "lower"),
    def("doorbell.ring_to_wake_us_p99", "us", "lower"),
    def("doorbell.rings_per_op", "ratio", "lower"),
    // dws-rt::coordinator
    def("coordinator.passes", "count", "lower"),
    def("coordinator.pass_us_p50", "us", "lower"),
    def("coordinator.pass_us_p99", "us", "lower"),
    def("coordinator.passes_per_grant", "ratio", "lower"),
    // dws-rt::sleep
    def("sleep.wake_roundtrip_us", "us", "lower"),
    def("sleep.sleeps", "count", "lower"),
    def("sleep.wakes", "count", "lower"),
    def("sleep.grant_to_exec_us_p50", "us", "lower"),
    def("sleep.grant_to_exec_us_p99", "us", "lower"),
    // dws-rt::registry / join / serve
    def("rt.block_on_empty_us", "us", "lower"),
    def("rt.submit_ns_p50", "ns", "lower"),
    def("rt.submit_ns_p99", "ns", "lower"),
    def("rt.dispatch_us_p50", "us", "lower"),
    def("rt.dispatch_us_p99", "us", "lower"),
    def("rt.dispatch_unexplained_us_p50", "us", "lower"),
    def("steal.ok_share", "ratio", "higher"),
    def("steal.tasks_per_steal", "ratio", "higher"),
    def("steal.contended", "count", "lower"),
    // the wake path as the user sees it. Demoted from end-to-end: the first
    // repeats only within 80 % on corun-phased (two regimes, chosen per run
    // by where the kernel places the woken worker), the second has no
    // serving equivalent
    def("first_task_us_p50", "us", "lower"),
    def("ramp_us_p50", "us", "lower"),
    def("ramp_share", "ratio", "higher"),
    // serve-steady's ladder, rung by rung
    def("serve.rung1.sojourn_us_p50", "us", "lower"),
    def("serve.rung1.sojourn_us_p99", "us", "lower"),
    def("serve.rung2.sojourn_us_p50", "us", "lower"),
    def("serve.rung2.sojourn_us_p99", "us", "lower"),
    def("serve.rung3.sojourn_us_p50", "us", "lower"),
    def("serve.rung3.sojourn_us_p99", "us", "lower"),
    def("serve.rung4.sojourn_us_p50", "us", "lower"),
    def("serve.rung4.sojourn_us_p99", "us", "lower"),
    // dws-rt::telemetry / metrics, direct calls
    def("telemetry.sample_ns", "ns", "lower"),
    def("telemetry.snapshot_ns", "ns", "lower"),
    // the benchmark itself: these must stay flat
    def("gen.late_us_p50", "us", "lower"),
    def("gen.late_us_p99", "us", "lower"),
    def("handler.exec_us_p50", "us", "lower"),
    def("probe.overhead_pct", "%", "lower"),
    def("timer.resolution_ns", "ns", "lower"),
];

/// What one run prints.
pub struct Report {
    workload: String,
    seed: u64,
    seconds: f64,
    pub correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    pub notes: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: f64, o: &Outcome) -> Report {
        let mut r = Report {
            workload: workload.into(),
            seed,
            seconds,
            correct: true,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
        };
        r.absorb(o);
        r
    }

    /// Adds a run's operations, failed checks and notes to the report.
    pub fn absorb(&mut self, o: &Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.correct &= o.problems.is_empty();
        self.problems.extend(o.problems.iter().cloned());
        self.notes.extend(o.notes.iter().cloned());
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "{name} is not a number");
        self.metrics.push((name, value, unit));
    }

    /// Prints the report; the last line is the JSON result. A `--quick`
    /// run is marked in both so it cannot pass for a full run.
    pub fn print(&self, quick: bool) {
        let threads = host::table_cores();
        println!(
            "# {} seed={} seconds={} {} oversubscribed={}",
            self.workload,
            self.seed,
            self.seconds,
            host::describe(),
            host::nproc() < 2
        );
        println!("# threads: {threads} workers + 1 coordinator per program, 1 generator");
        if quick {
            println!("# QUICK RUN: a smoke test, not a measurement");
        }
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        println!(
            "failed_share = {} ratio ({} of {})",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for p in &self.problems {
            println!("OUTPUT CHECK FAILED: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{{}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            if quick { "\"quick\": true, " } else { "" },
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
        crate::noise::json_get(v, key).unwrap_or_else(|| panic!("no {key}"))
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        get(v, key).as_str().expect("string")
    }

    /// `BENCHMARK.json` is the contract later changes are judged by; what
    /// the binary prints must be exactly what it declares.
    #[test]
    fn benchmark_json_declares_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = serde_json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");

        let workloads: Vec<&str> =
            get(&json, "workloads").as_array().unwrap().iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(get(&json, "run_seconds").as_f64(), Some(crate::RUN_SECONDS));

        let declared = |list: &str| -> Vec<(String, String, String)> {
            get(&json, list)
                .as_array()
                .unwrap()
                .iter()
                .map(|m| (text(m, "name").into(), text(m, "unit").into(), text(m, "better").into()))
                .collect()
        };
        let coded = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter().map(|d| (d.name.into(), d.unit.into(), d.better.into())).collect()
        };
        assert_eq!(declared("end_to_end"), coded(&END_TO_END));
        assert_eq!(declared("per_layer"), coded(PER_LAYER));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        for m in get(&json, "end_to_end").as_array().unwrap() {
            let bound = get(m, "bound").as_f64().expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", text(m, "name"));
        }

        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.extend(crate::workloads::NAMES);
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }
}
