//! Fork-join primitive (`cilk_spawn`/`cilk_sync` in two calls).
//!
//! `join(a, b)` pushes `b` onto the calling worker's deque (where thieves
//! can take it), runs `a` inline, then either pops `b` back and runs it
//! inline (the common, steal-free path) or — if `b` was stolen — helps
//! execute other work until the thief finishes it.
//!
//! Exposure is lazy: while the worker's deque already holds at least one
//! task per worker of the runtime, no thief can use one more, so `join`
//! runs `a` then `b` inline with no push, pop or latch (DESIGN §12).

use crate::job::{JobRef, StackJob};
use crate::latch::SpinLatch;
use crate::registry::WorkerThread;

/// Runs `a` and `b`, potentially in parallel, returning both results.
///
/// Must be called from inside a pool (within [`crate::Runtime::block_on`],
/// another `join`, or a [`crate::scope::scope`]). Called from outside any
/// pool it degrades to sequential execution — correct, just not parallel.
///
/// Inside a pool the arms may also run sequentially on the calling
/// worker: when its deque already holds at least as many tasks as the
/// runtime has workers, `b` is not offered to thieves and runs after `a`
/// returns. So `a` must never wait for `b` to make progress.
///
/// Panics in either closure propagate to the caller; if both panic, `a`'s
/// payload wins (matching rayon's contract). If `a` panics, `b` may never
/// run.
#[inline]
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match WorkerThread::current() {
        Some(worker) if !worker.deque_saturated() => join_on_worker(worker, a, b),
        // Off the pool, or every thief already has a task to take here.
        _ => {
            let ra = a();
            let rb = b();
            (ra, rb)
        }
    }
}

/// The exposing path. Out of line so the inlined `join` above stays one
/// length check and two calls: with this body inlined too, every inline
/// join paid its frame (six register saves and a 200-byte stack frame).
#[inline(never)]
fn join_on_worker<A, B, RA, RB>(worker: &WorkerThread, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(b, SpinLatch::new());
    // SAFETY: job_b lives on this stack frame, which does not return
    // before the job has either been executed (latch set / inline run) or
    // reclaimed un-run from the deque below.
    let ref_b = unsafe { job_b.as_job_ref() };
    worker.push(ref_b);

    // Run `a` inline. If it panics we must still synchronize on `b` —
    // either reclaim it from the deque or wait for its thief — before the
    // stack frame (and job_b with it) unwinds away.
    let ra = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(a)) {
        Ok(ra) => ra,
        Err(payload) => {
            reclaim_or_wait(worker, &job_b, ref_b);
            std::panic::resume_unwind(payload);
        }
    };

    // Retrieve `b`: pop jobs pushed above it (spawns made inside `a`)
    // and execute them; when we pop `b` itself, run it inline.
    loop {
        match worker.pop() {
            Some(job) if job_is(job, ref_b) => {
                // The popped-back ref carries the id stamped at push;
                // close its lifecycle even though it skips `execute`.
                worker.trace_inline_begin(&job);
                // SAFETY: we popped the erased ref, so nobody else can
                // execute it; run the closure directly.
                let rb = unsafe { job_b.run_inline() };
                worker.trace_inline_end(&job);
                return (ra, rb);
            }
            Some(job) => worker.execute(job),
            None => break, // b was stolen
        }
    }

    // Stolen: help the pool until the thief completes it.
    worker.work_until(|| job_b.latch.probe());
    // SAFETY: latch set → result (or panic payload) recorded.
    let rb = unsafe { job_b.into_result() };
    (ra, rb)
}

/// After a panic in `a`: pop-and-execute until `b` is reclaimed un-run or
/// its thief sets the latch.
fn reclaim_or_wait<F, R>(worker: &WorkerThread, job_b: &StackJob<F, R, SpinLatch>, ref_b: JobRef)
where
    F: FnOnce() -> R,
{
    loop {
        match worker.pop() {
            Some(job) if job_is(job, ref_b) => return, // reclaimed, never ran
            Some(job) => worker.execute(job),
            None => {
                worker.work_until(|| job_b.latch.probe());
                return;
            }
        }
    }
}

fn job_is(job: JobRef, expected: JobRef) -> bool {
    job.id() == expected.id()
}
