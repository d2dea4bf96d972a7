//! `corun-phased` — fixed schedule (open loop), two programs. Two DWS
//! programs share one table. Program `i` starts phase `k` at
//! `k·60 ms + i·30 ms` (plus a seeded delay of up to 10 ms): one
//! `block_on` of a 512-leaf tree with ≈75 µs leaves, ≈38 ms of serial
//! work, then idle. Phases are timed from their due time.
//!
//! Why it exists: the paper's scenario. While one program computes the
//! other is idle, so every phase crosses T_SLEEP → `release` → doorbell →
//! Eq. 1 pass → `try_acquire_free` → `Sleeper::wake`. With the idle
//! co-runner's cores handed over at once a phase takes about half its
//! serial time; never handed over, all of it. The control plane decides
//! the result; deque operation cost is invisible under 75 µs leaves.

use std::sync::Arc;

use dws_rt::{InProcessTable, LedgerTable, Policy, Runtime, RuntimeConfig};

use super::{
    check_table_conserved, fold_tree_ops, repeat_setup, run_tree_op, CpuWindow, Env, Outcome,
    TreeOp,
};
use crate::host::now_ns;
use crate::probe::OpStamps;
use crate::sched::{pace_until, phase_due_times};
use crate::work::{Tree, ROUNDS_PER_US};

const PROGRAMS: usize = 2;
const LEAVES: u32 = 512;
const LEAF_ROUNDS: u64 = 75 * ROUNDS_PER_US;
const PERIOD_US: u64 = 60_000;
const JITTER_US: u64 = 5_000;
/// A phase that ends later than this after its due time counts as failed.
const OVERRUN_NS: u64 = 1_000_000_000;
const WARMUP_PHASES: usize = 2;

/// Runs `due_us` (relative to `start_ns`) phases of one program.
fn run_phases(
    rt: &Runtime,
    tree: &Tree<'_>,
    reference: u64,
    start_ns: u64,
    due_us: &[u64],
    env: &Env,
) -> Vec<TreeOp> {
    due_us
        .iter()
        .enumerate()
        .map(|(k, &due)| {
            let due_ns = start_ns + due * 1_000;
            pace_until(due_ns);
            run_tree_op(rt, tree, reference, due_ns, k as u64, env.tracer.as_deref())
        })
        .collect()
}

pub fn run(env: &Env) -> Outcome {
    let phases = ((env.seconds * 1e6) as u64 / PERIOD_US).max(1) as usize;
    let stamps: Vec<OpStamps> =
        (0..PROGRAMS).map(|_| OpStamps::new(env.ramp_workers(), env.tracer.clone())).collect();
    let trees: Vec<Tree<'_>> = (0..PROGRAMS)
        .map(|i| Tree {
            seed: env.seed.wrapping_add(i as u64),
            leaves: LEAVES,
            leaf_rounds: LEAF_ROUNDS,
            stamp_span: 1,
            stamps: &stamps[i],
            leaves_done: None,
        })
        .collect();

    // Runs every program's phases on its own thread (a `block_on` blocks
    // its caller), all timed from one start; returns the operations per
    // program.
    let drive = |rts: &[Runtime], refs: &[u64], due: &[Vec<u64>]| -> Vec<Vec<TreeOp>> {
        let start_ns = now_ns() + 2_000_000;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..PROGRAMS)
                .map(|i| {
                    let (rt, tree, reference, due) = (&rts[i], &trees[i], refs[i], &due[i]);
                    s.spawn(move || run_phases(rt, tree, reference, start_ns, due, env))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("phase driver")).collect()
        })
    };

    let serial = std::time::Instant::now();
    let refs: Vec<u64> = trees.iter().map(Tree::serial_reference).collect();
    let serial_ms = serial.elapsed().as_secs_f64() * 1e3 / PROGRAMS as f64;

    let ((rts, table, due), setup_s) = repeat_setup(|| {
        let due = phase_due_times(env.seed, PROGRAMS, phases, PERIOD_US, JITTER_US);
        let table = env
            .wrap(Arc::new(LedgerTable::new(Arc::new(InProcessTable::new(env.cores, PROGRAMS)))));
        let rts: Vec<Runtime> = (0..PROGRAMS)
            .map(|i| {
                Runtime::with_table(
                    RuntimeConfig::new(env.cores, Policy::Dws),
                    Arc::clone(&table),
                    i,
                )
            })
            .collect();
        let warm: Vec<Vec<u64>> =
            due.iter().map(|d| d[..WARMUP_PHASES.min(d.len())].to_vec()).collect();
        for op in drive(&rts, &refs, &warm).iter().flatten() {
            assert!(op.checksum_ok, "warm-up checksum");
        }
        (rts, table, due)
    });

    let before: Vec<_> = rts.iter().map(Runtime::metrics).collect();
    let cpu = CpuWindow::start();
    let per_program = drive(&rts, &refs, &due);
    let (cpu_cores_used, window_s) = cpu.end(0.0);

    let mut out = Outcome { setup_s, cpu_cores_used, window_s, ..Outcome::default() };
    for (rt, b) in rts.iter().zip(&before) {
        out.counters.add_delta(b, &rt.metrics());
    }
    let mut ops: Vec<TreeOp> = per_program.into_iter().flatten().collect();
    ops.sort_by_key(|op| op.due_ns);
    fold_tree_ops(&ops, OVERRUN_NS, &mut out);
    let done = ops.iter().filter(|op| op.checksum_ok).count();
    out.throughput_per_s = done as f64 * f64::from(LEAVES) / window_s;
    out.notes.push(format!(
        "{PROGRAMS} programs x {phases} phases of {LEAVES} leaves; one phase took {serial_ms:.1} ms serially"
    ));
    check_table_conserved(&*table, &mut out.problems);
    if let Some(ledger) = table.alloc_ledger() {
        let snap = ledger.snapshot();
        if snap.total_core_us() != env.cores as u64 * snap.elapsed_us() {
            out.problems.push("ledger: core-time not conserved".into());
        }
    }
    out
}
