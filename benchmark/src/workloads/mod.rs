//! The four workloads and what they share: the run environment, the
//! result every workload returns, repeated set-up, and the tree operation
//! both fork-join workloads time.

pub mod corun_phased;
pub mod forkjoin_fine;
pub mod requests;
pub mod serve_corun_shm;
pub mod serve_steady;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dws_rt::{CoreTable, MetricsSnapshot, Runtime};

use crate::host::{self, now_ns};
use crate::probe::{set_parent, ProbeTable, Tracer};
use crate::stats::median;
use crate::work::Tree;

/// Names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["forkjoin-fine", "corun-phased", "serve-steady", "serve-corun-shm"];

/// Runs the workload called `name`, one of [`NAMES`].
pub fn run(name: &str, env: &Env) -> Outcome {
    match name {
        "forkjoin-fine" => forkjoin_fine::run(env),
        "corun-phased" => corun_phased::run(env),
        "serve-steady" => serve_steady::run(env),
        "serve-corun-shm" => serve_corun_shm::run(env),
        _ => unreachable!("argument parsing admits only NAMES"),
    }
}

/// What a workload run is given.
pub struct Env {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `C`, the table's cores (= workers per runtime).
    pub cores: usize,
    /// Present on the traced run only.
    pub tracer: Option<Arc<Tracer>>,
    /// Where per-run files (the shm table) go; inside the checkout.
    pub out_dir: PathBuf,
}

impl Env {
    /// The table as the runtime should see it: bare on the untraced run,
    /// behind a [`ProbeTable`] on the traced one.
    pub fn wrap(&self, table: Arc<dyn CoreTable>) -> Arc<dyn CoreTable> {
        match &self.tracer {
            Some(tr) => Arc::new(ProbeTable::new(table, Arc::clone(tr))),
            None => table,
        }
    }

    /// Distinct workers a tree must reach to count as running beyond the
    /// program's home share of a two-program table.
    pub fn ramp_workers(&self) -> u32 {
        (self.cores / 2 + 1) as u32
    }
}

/// Set-ups per run.
pub const SETUPS: usize = 3;

/// Times set-up: runs `build` [`SETUPS`] times, drops all but the last
/// result, and returns it with the median duration. One set-up time per
/// run would make `setup_s` as noisy as a single thread spawn.
pub fn repeat_setup<L>(mut build: impl FnMut() -> L) -> (L, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        drop(live.take());
        let t0 = Instant::now();
        live = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (live.expect("SETUPS > 0"), median(&times))
}

/// What a workload run returns; `main` turns it into the named metrics.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// Operations attempted (trees, phases, requests) and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub throughput_per_s: f64,
    /// Due → operation complete, µs, in the order the operations were due.
    pub latency_us: Vec<f64>,
    /// Due → the operation's first task starts, µs, in the same order.
    pub first_task_us: Vec<f64>,
    pub cpu_cores_used: f64,
    /// Wall length of the measured window.
    pub window_s: f64,
    /// The workload's own in-run layer values, by metric name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Runtime counters over the window, summed over the programs.
    pub counters: Counters,
    /// Lines for the human-readable report only.
    pub notes: Vec<String>,
}

/// Deltas of the `Runtime::metrics` counters the layer metrics use.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub sleeps: u64,
    pub wakes: u64,
    pub steals_ok: u64,
    pub steals_failed: u64,
    pub steals_contended: u64,
    pub tasks_stolen: u64,
}

impl Counters {
    /// Adds `after − before` of one runtime.
    pub fn add_delta(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        self.sleeps += after.sleeps - before.sleeps;
        self.wakes += after.wakes - before.wakes;
        self.steals_ok += after.steals_ok - before.steals_ok;
        self.steals_failed += after.steals_failed - before.steals_failed;
        self.steals_contended += after.steals_contended - before.steals_contended;
        self.tasks_stolen += after.tasks_stolen - before.tasks_stolen;
    }
}

/// Process CPU and wall clock over a window.
pub struct CpuWindow {
    cpu0: f64,
    t0: Instant,
}

impl CpuWindow {
    pub fn start() -> CpuWindow {
        CpuWindow { cpu0: host::process_cpu_s(), t0: Instant::now() }
    }

    /// `(cores used, wall seconds)`; `own_cpu_s` is CPU the benchmark's
    /// own pacing thread burned in the window, which is not the runtime's.
    pub fn end(self, own_cpu_s: f64) -> (f64, f64) {
        let wall = self.t0.elapsed().as_secs_f64();
        ((host::process_cpu_s() - self.cpu0 - own_cpu_s).max(0.0) / wall, wall)
    }
}

/// Checks `free + Σ used_by(p) == cores` on a quiescent table.
pub fn check_table_conserved(table: &dyn CoreTable, problems: &mut Vec<String>) {
    let used: usize = (0..table.max_programs()).map(|p| table.used_by(p).len()).sum();
    let free = table.free_cores().len();
    if free + used != table.cores() {
        problems.push(format!("table: {free} free + {used} used != {} cores", table.cores()));
    }
}

/// One timed `block_on` of a tree.
pub struct TreeOp {
    pub due_ns: u64,
    pub call_ns: u64,
    pub first_ns: u64,
    pub ramp_ns: u64,
    pub end_ns: u64,
    pub checksum_ok: bool,
}

/// Runs `tree` once on `rt`, due at `due_ns` (already reached), and
/// collects its stamps. On the traced run it also records the operation's
/// spans: `op` with children `op.first_task` and `op.ramp`.
pub fn run_tree_op(
    rt: &Runtime,
    tree: &Tree<'_>,
    reference: u64,
    due_ns: u64,
    op_index: u64,
    tracer: Option<&Tracer>,
) -> TreeOp {
    let stamps = tree.stamps;
    stamps.reset();
    let op_span = tracer.map_or(0, Tracer::new_id);
    let outer = set_parent(op_span);
    let call_ns = now_ns();
    let sum = rt.block_on(|| tree.run());
    let end_ns = now_ns();
    set_parent(outer);
    let op = TreeOp {
        due_ns,
        call_ns,
        first_ns: stamps.first_ns(),
        ramp_ns: stamps.ramp_ns(),
        end_ns,
        checksum_ok: sum == reference,
    };
    if let Some(tr) = tracer {
        let prog = rt.program_id();
        tr.record(crate::probe::Span {
            id: op_span,
            parent: 0,
            trace: op_index,
            name: "op",
            prog: prog as u32,
            t0_ns: due_ns,
            t1_ns: end_ns,
            ok: op.checksum_ok,
        });
        if op.first_ns != 0 {
            let first = tr.span_at("op.first_task", op_index, prog, op_span, due_ns, op.first_ns);
            if op.ramp_ns != 0 {
                tr.span_at("op.ramp", op_index, prog, first, due_ns, op.ramp_ns);
            }
        }
    }
    op
}

/// Folds tree operations (in due order) into an [`Outcome`]'s shared
/// fields: latency, first-task, ramp, lateness, failures.
pub fn fold_tree_ops(ops: &[TreeOp], overrun_ns: u64, out: &mut Outcome) {
    let us = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e3;
    let mut ramp = Vec::new();
    let mut late = Vec::new();
    for op in ops {
        out.attempted += 1;
        if !op.checksum_ok {
            out.failed += 1;
            out.problems.push(format!("tree due at {} ns: checksum mismatch", op.due_ns));
        } else if op.end_ns - op.due_ns > overrun_ns {
            out.failed += 1;
        }
        out.latency_us.push(us(op.due_ns, op.end_ns));
        if op.first_ns != 0 {
            out.first_task_us.push(us(op.due_ns, op.first_ns));
        }
        if op.ramp_ns != 0 {
            ramp.push(us(op.due_ns, op.ramp_ns));
        }
        late.push(us(op.due_ns, op.call_ns));
    }
    out.layer.insert("ramp_us_p50", median(&ramp));
    out.layer.insert("ramp_share", ramp.len() as f64 / ops.len().max(1) as f64);
    out.layer.insert("gen.late_us_p50", median(&late));
    out.layer.insert("gen.late_us_p99", crate::stats::quantile(&late, 0.99));
}
