//! The DWS coordinator (paper §3.3).
//!
//! Each program's coordinator wakes every `T` ms, reads `N_b` (queued
//! tasks) and `N_a` (active workers), computes the wake target
//! `N_w = N_b / N_a` (Eq. 1), and then applies the three constraint cases
//! against the core-allocation table:
//!
//! 1. `N_w ≤ N_f` — wake workers on `N_w` randomly chosen free cores;
//! 2. `N_f < N_w ≤ N_f + N_r` — take all free cores, then reclaim
//!    `N_w − N_f` of the program's own cores from their current users;
//! 3. `N_w > N_f + N_r` — take everything available (`N_f + N_r`) but no
//!    more: a program never touches cores that other programs own and have
//!    not released (third constraint).
//!
//! The decision is computed as a pure function of the observed state so it
//! can be tested exhaustively; applying it (acquiring table slots, waking
//! workers) is the caller's job.

pub use dws_core::policy::{eq1_wake_target, CoordCase};

use dws_core::policy::plan_wakes;

use crate::alloc_table::AllocTable;
use crate::rng::XorShift64Star;

/// Inputs the coordinator observes at one invocation.
#[derive(Debug, Clone, Copy)]
pub struct CoordObservation {
    /// `N_b`: queued tasks across the program's deques.
    pub queued_tasks: usize,
    /// `N_a`: awake workers.
    pub active_workers: usize,
    /// Workers currently asleep (upper bound on wakes).
    pub sleeping_workers: usize,
}

/// The coordinator's plan: which cores to take and how.
#[derive(Debug, Clone)]
pub struct CoordDecision {
    /// Eq. 1 target after the deadlock guard and sleeping-worker cap.
    pub n_w: usize,
    /// Free cores to acquire (wake our worker on each).
    pub take_free: Vec<usize>,
    /// Own home cores to reclaim from current users (wake our worker).
    pub reclaim: Vec<usize>,
    /// Which case applied.
    pub case: CoordCase,
}

impl CoordDecision {
    /// Total workers this decision wakes.
    pub fn total_wakes(&self) -> usize {
        self.take_free.len() + self.reclaim.len()
    }
}

/// Full DWS decision against the allocation table (cases 1-3).
///
/// `prog` is the deciding program; `rng` drives the random free-core
/// selection the paper specifies in case 1.
pub fn decide_dws(
    prog: usize,
    obs: CoordObservation,
    table: &AllocTable,
    rng: &mut XorShift64Star,
) -> CoordDecision {
    let n_w = eq1_wake_target(obs.queued_tasks, obs.active_workers).min(obs.sleeping_workers);
    let mut free = table.free_cores();
    let mut reclaim = table.reclaimable_cores(prog);
    let plan = plan_wakes(n_w, free.len(), reclaim.len());
    if plan.case == CoordCase::FreeOnly {
        // Randomly select N_w free cores (Fisher-Yates prefix). The other
        // cases take every free core, so there is nothing to choose.
        for i in 0..plan.from_free {
            let j = i + rng.next_below(free.len() - i);
            free.swap(i, j);
        }
    }
    free.truncate(plan.from_free);
    reclaim.truncate(plan.from_reclaim);
    CoordDecision { n_w, take_free: free, reclaim, case: plan.case }
}

/// DWS-NC decision (§4.2 ablation): same Eq. 1 target, but wake arbitrary
/// sleeping workers with no regard for core occupancy. Returns how many
/// workers to wake; the caller picks which.
pub fn decide_nc(obs: CoordObservation) -> usize {
    eq1_wake_target(obs.queued_tasks, obs.active_workers).min(obs.sleeping_workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(b: usize, a: usize, s: usize) -> CoordObservation {
        CoordObservation { queued_tasks: b, active_workers: a, sleeping_workers: s }
    }

    #[test]
    fn no_action_when_few_tasks() {
        let table = AllocTable::equipartition(8, 2);
        let mut rng = XorShift64Star::new(1);
        let d = decide_dws(0, obs(3, 4, 4), &table, &mut rng);
        assert_eq!(d.case, CoordCase::NoAction);
        assert_eq!(d.total_wakes(), 0);
    }

    #[test]
    fn case1_takes_only_free_cores() {
        let mut table = AllocTable::equipartition(8, 2);
        // Program 1 releases two of its cores.
        table.release(4, 1);
        table.release(5, 1);
        let mut rng = XorShift64Star::new(2);
        // Program 0 wants 2 workers: exactly the free supply.
        let d = decide_dws(0, obs(8, 4, 4), &table, &mut rng);
        assert_eq!(d.case, CoordCase::FreeOnly);
        assert_eq!(d.take_free.len(), 2);
        assert!(d.reclaim.is_empty());
        for c in &d.take_free {
            assert!([4, 5].contains(c));
        }
    }

    #[test]
    fn case1_random_selection_is_a_subset_of_free() {
        let mut table = AllocTable::equipartition(16, 2);
        for c in 8..16 {
            table.release(c, 1);
        }
        let mut rng = XorShift64Star::new(3);
        let d = decide_dws(0, obs(24, 8, 8), &table, &mut rng);
        // N_w = 3 of 8 free cores.
        assert_eq!(d.case, CoordCase::FreeOnly);
        assert_eq!(d.take_free.len(), 3);
        let mut uniq = d.take_free.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 3, "no duplicate core selected");
        assert!(uniq.iter().all(|c| (8..16).contains(c)));
    }

    #[test]
    fn case2_reclaims_exactly_the_shortfall() {
        let mut table = AllocTable::equipartition(8, 2);
        // Program 0 released cores 0,1 earlier; program 1 took them.
        table.release(0, 0);
        table.release(1, 0);
        table.acquire_free(0, 1);
        table.acquire_free(1, 1);
        // One free core exists: program 1 released core 7.
        table.release(7, 1);
        let mut rng = XorShift64Star::new(4);
        // Program 0: N_w = 3 > N_f = 1, but N_f + N_r = 3.
        let d = decide_dws(0, obs(6, 2, 6), &table, &mut rng);
        assert_eq!(d.case, CoordCase::FreePlusReclaim);
        assert_eq!(d.take_free, vec![7]);
        assert_eq!(d.reclaim.len(), 2);
        assert!(d.reclaim.iter().all(|c| [0, 1].contains(c)));
        assert_eq!(d.total_wakes(), 3);
    }

    #[test]
    fn case3_caps_at_available_supply() {
        let mut table = AllocTable::equipartition(8, 2);
        table.release(0, 0);
        table.acquire_free(0, 1); // N_r = 1 for program 0
        table.release(7, 1); // N_f = 1
        let mut rng = XorShift64Star::new(5);
        // Program 0 wants 6 but only 2 are available.
        let d = decide_dws(0, obs(18, 3, 5), &table, &mut rng);
        assert_eq!(d.case, CoordCase::TakeAllAvailable);
        assert_eq!(d.total_wakes(), 2);
        assert_eq!(d.take_free, vec![7]);
        assert_eq!(d.reclaim, vec![0]);
    }

    #[test]
    fn never_wakes_more_than_sleeping_workers() {
        let mut table = AllocTable::equipartition(8, 2);
        for c in 4..8 {
            table.release(c, 1);
        }
        let mut rng = XorShift64Star::new(6);
        // N_w would be 10, but only 1 worker sleeps.
        let d = decide_dws(0, obs(40, 4, 1), &table, &mut rng);
        assert_eq!(d.total_wakes(), 1);
    }

    #[test]
    fn third_constraint_never_touches_foreign_unreleased_cores() {
        // No free cores, nothing reclaimable: demand must go unmet.
        let table = AllocTable::equipartition(8, 2);
        let mut rng = XorShift64Star::new(7);
        let d = decide_dws(0, obs(100, 4, 4), &table, &mut rng);
        assert_eq!(d.case, CoordCase::TakeAllAvailable);
        assert_eq!(d.total_wakes(), 0);
    }

    #[test]
    fn nc_ignores_the_table_entirely() {
        assert_eq!(decide_nc(obs(16, 4, 12)), 4);
        assert_eq!(decide_nc(obs(16, 4, 2)), 2);
        assert_eq!(decide_nc(obs(2, 4, 12)), 0);
        assert_eq!(decide_nc(obs(9, 0, 12)), 9);
    }

    #[test]
    fn exactly_one_case_applies() {
        // Sweep a grid of observations and table states; the decision must
        // always be internally consistent.
        let mut rng = XorShift64Star::new(8);
        for released0 in 0..4 {
            for released1 in 0..4 {
                for taken in 0..=released0 {
                    let mut table = AllocTable::equipartition(8, 2);
                    for c in 0..released0 {
                        table.release(c, 0);
                    }
                    for c in 4..4 + released1 {
                        table.release(c, 1);
                    }
                    for c in 0..taken {
                        table.acquire_free(c, 1);
                    }
                    for nb in [0usize, 4, 12, 40] {
                        for na in [0usize, 1, 4] {
                            let sleeping = 8 - na.min(8);
                            let d = decide_dws(0, obs(nb, na, sleeping), &table, &mut rng);
                            let n_f = table.n_free();
                            let n_r = table.n_reclaimable(0);
                            assert!(d.total_wakes() <= n_f + n_r);
                            assert!(d.total_wakes() <= sleeping.max(d.n_w));
                            assert!(d.take_free.len() <= n_f);
                            assert!(d.reclaim.len() <= n_r);
                            match d.case {
                                CoordCase::NoAction => assert_eq!(d.total_wakes(), 0),
                                CoordCase::FreeOnly => {
                                    assert!(d.reclaim.is_empty());
                                    assert_eq!(d.take_free.len(), d.n_w);
                                }
                                CoordCase::FreePlusReclaim => {
                                    assert_eq!(d.total_wakes(), d.n_w);
                                    assert_eq!(d.take_free.len(), n_f);
                                }
                                CoordCase::TakeAllAvailable => {
                                    assert_eq!(d.total_wakes(), n_f + n_r);
                                    assert!(d.n_w > n_f + n_r);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
