//! Lazy exposure in `join` (DESIGN §12): a join pushes its second arm only
//! while the calling worker's deque holds fewer than k tasks, k being the
//! runtime's worker count; otherwise both arms run inline. These tests pin
//! the three things that rule must keep: a join on a short deque still
//! offers `b` to a thief, a saturated DWS program still shows Eq. 1 enough
//! demand to borrow every free core, and a join above the threshold mints
//! no task at all.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dws_rt::{join, CoreTable, InProcessTable, Policy, Runtime, RuntimeConfig};

/// A binary join tree of `depth` levels; each leaf spins briefly so a
/// tree is long enough for a coordinator pass to see it.
fn leaves(depth: u32) -> u64 {
    if depth == 0 {
        for i in 0..64u32 {
            std::hint::black_box(i);
        }
        return 1;
    }
    let (a, b) = join(|| leaves(depth - 1), || leaves(depth - 1));
    a + b
}

/// How many joins of a `leaves(depth)` tree push their second arm when
/// the tree starts with `queued` tasks on the worker's deque and no
/// thief takes any: a join below `k` pushes (its `a` then runs one task
/// deeper), a join at or above `k` runs both arms inline.
fn joins_below_threshold(depth: u32, queued: usize, k: usize) -> u64 {
    if depth == 0 || queued >= k {
        return 0;
    }
    1 + joins_below_threshold(depth - 1, queued + 1, k)
        + joins_below_threshold(depth - 1, queued, k)
}

fn spin_until(flag: &AtomicBool, what: &str) {
    let t0 = Instant::now();
    while !flag.load(Ordering::Acquire) {
        assert!(t0.elapsed() < Duration::from_secs(10), "{what}");
        std::thread::yield_now();
    }
}

#[test]
fn a_join_on_a_short_deque_still_offers_b_to_a_thief() {
    // `a` can only return once `b` has started, which on the calling
    // worker would be after `a`: the join completes only if `b` was pushed
    // where the second worker could steal it.
    let pool = Runtime::new(RuntimeConfig::new(2, Policy::Ws));
    for _ in 0..20 {
        let started = AtomicBool::new(false);
        pool.block_on(|| {
            join(
                || spin_until(&started, "b never started: the join did not expose it"),
                || started.store(true, Ordering::Release),
            )
        });
    }
}

#[test]
fn a_saturated_dws_program_still_borrows_both_free_cores() {
    // Program 1 idles, sleeps and frees cores 2 and 3. Program 0's workers
    // expose at most k tasks each, which must still read as demand for
    // both of them.
    let table: Arc<dyn CoreTable> = Arc::new(InProcessTable::new(4, 2));
    let busy = Runtime::with_table(RuntimeConfig::new(4, Policy::Dws), Arc::clone(&table), 0);
    let _idle = Runtime::with_table(RuntimeConfig::new(4, Policy::Dws), Arc::clone(&table), 1);
    let t0 = Instant::now();
    while table.current(2).is_some() || table.current(3).is_some() {
        assert!(t0.elapsed() < Duration::from_secs(10), "the idle program never freed its cores");
        std::thread::sleep(Duration::from_millis(1));
    }
    for trees in 1..=400 {
        assert_eq!(busy.block_on(|| leaves(14)), 1 << 14);
        if busy.metrics().cores_acquired >= 2 {
            return;
        }
        assert!(trees < 400, "acquired only {:?} after 400 trees", busy.metrics());
    }
}

#[test]
fn a_join_at_or_above_k_queued_tasks_mints_no_task() {
    const DEPTH: u32 = 10;
    // One worker, k = 1: only the joins on the tree's right spine find an
    // empty deque. The one extra spawn is `block_on`'s external job.
    let one = Runtime::new(RuntimeConfig::new(1, Policy::Ws).with_tracing());
    assert_eq!(one.block_on(|| leaves(DEPTH)), 1 << DEPTH);
    let s = one.trace_snapshot();
    assert_eq!(s.dropped, 0);
    assert_eq!(joins_below_threshold(DEPTH, 0, 1), u64::from(DEPTH));
    assert_eq!(s.count("spawn") as u64, 1 + u64::from(DEPTH));
    assert_eq!(s.count("exec_begin"), s.count("spawn"));

    // Two workers, k = 2, with the second one held inside the stolen arm
    // of an outer join so nothing is stolen from the tree: its spawns are
    // exactly the joins made on a deque shorter than two.
    let two = Runtime::new(RuntimeConfig::new(2, Policy::Ws).with_tracing());
    let (held, release) = (AtomicBool::new(false), AtomicBool::new(false));
    let (sum, ()) = two.block_on(|| {
        join(
            || {
                spin_until(&held, "the outer arm was never stolen");
                let sum = leaves(DEPTH);
                release.store(true, Ordering::Release);
                sum
            },
            || {
                held.store(true, Ordering::Release);
                spin_until(&release, "the tree never finished");
            },
        )
    });
    assert_eq!(sum, 1 << DEPTH);
    let s = two.trace_snapshot();
    assert_eq!(s.dropped, 0);
    let pushed = 1 + joins_below_threshold(DEPTH, 0, 2); // outer join + tree
    assert_eq!(pushed, 56);
    assert_eq!(s.count("spawn") as u64, 1 + pushed);
    assert_eq!(s.count("exec_begin"), s.count("spawn"));
}
