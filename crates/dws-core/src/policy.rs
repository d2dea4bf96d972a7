//! The coordinator's decision rule (paper §3.3).
//!
//! Every period a program's coordinator observes `N_b` (queued tasks) and
//! `N_a` (awake workers), computes the Eq. 1 wake target
//! `N_w = N_b / N_a`, and splits it against the table supply — `N_f` free
//! cores and `N_r` of its own home cores it may reclaim:
//!
//! 1. `N_w ≤ N_f` — free cores alone satisfy demand; reclaim nothing;
//! 2. `N_f < N_w ≤ N_f + N_r` — take every free core and reclaim the
//!    shortfall from the program's own released cores;
//! 3. `N_w > N_f + N_r` — take everything available and no more: a
//!    program never touches a core another program holds and has not
//!    released.
//!
//! Applying the plan (CAS-ing table slots, choosing which cores, waking
//! workers) is the caller's job; the arithmetic is here so the runtime,
//! the simulator and the checker model cannot drift apart.

use serde::{Deserialize, Serialize};

/// Which §3.3 case a coordinator decision fell into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoordCase {
    /// Nothing to do: no demand or nobody asleep.
    NoAction,
    /// `N_w ≤ N_f`: free cores alone cover the demand.
    FreeOnly,
    /// `N_f < N_w ≤ N_f + N_r`: free cores plus reclaimed home cores.
    FreePlusReclaim,
    /// `N_w > N_f + N_r`: demand exceeds supply, take everything legal.
    TakeAllAvailable,
}

/// How many cores one decision takes from each pool, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakePlan {
    /// Cores to acquire from the free pool.
    pub from_free: usize,
    /// Own home cores to reclaim from their current users.
    pub from_reclaim: usize,
    /// The case that produced the split.
    pub case: CoordCase,
}

/// Eq. 1, `N_w = N_b / N_a`, with the divide-by-zero guard: a program
/// whose workers are all asleep but that has queued tasks must wake at
/// least one worker or it deadlocks, so with `active == 0` the demand is
/// the queue length itself. (The paper implicitly assumes `N_a ≥ 1`; with
/// `T_SLEEP` sleeping the main worker after its run completes, `N_a = 0`
/// is reachable — see the paper-deviation notes in DESIGN.md.)
#[allow(clippy::manual_checked_ops)] // the zero case returns `queued`, not None
pub fn eq1_wake_target(queued: usize, active: usize) -> usize {
    if active == 0 {
        queued
    } else {
        queued / active
    }
}

/// The §3.3 three-case split of the wake target `n_w` against the table
/// supply (`n_f` free cores, `n_r` reclaimable cores). Free cores are
/// always preferred over reclaims, and the plan never exceeds the supply.
pub fn plan_wakes(n_w: usize, n_f: usize, n_r: usize) -> WakePlan {
    let (from_free, from_reclaim, case) = if n_w == 0 {
        (0, 0, CoordCase::NoAction)
    } else if n_w <= n_f {
        (n_w, 0, CoordCase::FreeOnly)
    } else if n_w <= n_f + n_r {
        (n_f, n_w - n_f, CoordCase::FreePlusReclaim)
    } else {
        (n_f, n_r, CoordCase::TakeAllAvailable)
    };
    WakePlan { from_free, from_reclaim, case }
}
