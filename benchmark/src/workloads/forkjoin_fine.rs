//! `forkjoin-fine` — closed loop, one client. One DWS program alone on its
//! table runs a 2^20-leaf binary `join` tree over and over; a leaf is 32
//! xorshift rounds, so join overhead is about three times the leaf work.
//!
//! Why it exists: the hot path. A million `Worker::push` + `pop` + latch
//! per tree; deque, join and registry do nearly all the work, while table,
//! doorbell, ring and coordinator are touched about twice per tree (the
//! workers sleep between trees). A change to those layers must leave this
//! workload's numbers alone.

use std::sync::Arc;
use std::time::Instant;

use dws_rt::{InProcessTable, Policy, Runtime, RuntimeConfig};

use super::{
    check_table_conserved, fold_tree_ops, repeat_setup, run_tree_op, CpuWindow, Env, Outcome,
};
use crate::host::now_ns;
use crate::probe::OpStamps;
use crate::work::Tree;

const LEAVES: u32 = 1 << 20;
const LEAF_ROUNDS: u64 = 32;
/// Nodes over this many leaves stamp their worker: 1024 stamps per tree,
/// none on the leaf path.
const STAMP_SPAN: u32 = 1 << 10;
const WARMUP_TREES: usize = 2;

pub fn run(env: &Env) -> Outcome {
    let stamps = OpStamps::new(env.ramp_workers(), env.tracer.clone());
    let tree = Tree {
        seed: env.seed,
        leaves: LEAVES,
        leaf_rounds: LEAF_ROUNDS,
        stamp_span: STAMP_SPAN,
        stamps: &stamps,
        leaves_done: None,
    };
    let tracer = env.tracer.as_deref();

    let reference = tree.serial_reference();

    let ((rt, table), setup_s) = repeat_setup(|| {
        let table = env.wrap(Arc::new(InProcessTable::new(env.cores, 1)));
        // `with_table`, not `new`: `Runtime::new` falls back to plain
        // work-stealing for a solo program and would not measure DWS.
        let rt =
            Runtime::with_table(RuntimeConfig::new(env.cores, Policy::Dws), Arc::clone(&table), 0);
        for _ in 0..WARMUP_TREES {
            assert_eq!(rt.block_on(|| tree.run()), reference, "warm-up checksum");
        }
        (rt, table)
    });
    assert_eq!(rt.effective_policy(), Policy::Dws);

    let before = rt.metrics();
    let cpu = CpuWindow::start();
    let start = Instant::now();
    let mut ops = Vec::new();
    while start.elapsed().as_secs_f64() < env.seconds {
        // Closed loop: the next tree is due when the previous one returned.
        ops.push(run_tree_op(&rt, &tree, reference, now_ns(), ops.len() as u64, tracer));
    }
    let (cpu_cores_used, window_s) = cpu.end(0.0);

    let mut out = Outcome { setup_s, cpu_cores_used, window_s, ..Outcome::default() };
    out.counters.add_delta(&before, &rt.metrics());
    fold_tree_ops(&ops, u64::MAX, &mut out);
    out.throughput_per_s = ops.len() as f64 * tree.joins() as f64 / window_s;
    out.notes.push(format!("{} trees of {} joins", ops.len(), tree.joins()));
    check_table_conserved(&*table, &mut out.problems);
    out
}
