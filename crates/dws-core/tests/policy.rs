//! The spec suite for the coordinator's Eq. 1 / §3.3 arithmetic
//! (`eq1_wake_target`, `plan_wakes`). `dws-rt`, `dws-sim` and `dws-check`
//! all call these two functions, so this is the one place the paper's
//! rule is pinned: known answers first, then properties that restate the
//! three cases independently of the implementation.

use dws_core::policy::{eq1_wake_target, plan_wakes, CoordCase, WakePlan};
use proptest::prelude::*;

#[test]
fn known_answers() {
    // (N_b, N_a) -> N_w: floor division, and the all-asleep guard.
    for (queued, active, n_w) in [
        (0, 4, 0),
        (3, 4, 0),
        (4, 4, 1),
        (100, 4, 25),
        (16, 8, 2),
        (7, 8, 0),
        (8, 8, 1),
        (6, 2, 3),
        (1, 4, 0),
        (6, 0, 6),
        (5, 0, 5),
        (0, 0, 0),
    ] {
        assert_eq!(eq1_wake_target(queued, active), n_w, "N_b={queued}, N_a={active}");
    }
    // (N_w, N_f, N_r) -> (from_free, from_reclaim, case).
    use CoordCase::*;
    for (n_w, n_f, n_r, from_free, from_reclaim, case) in [
        (0, 3, 2, 0, 0, NoAction),
        (2, 3, 1, 2, 0, FreeOnly),
        (2, 3, 5, 2, 0, FreeOnly),
        (3, 3, 0, 3, 0, FreeOnly),
        (4, 3, 2, 3, 1, FreePlusReclaim),
        (4, 3, 5, 3, 1, FreePlusReclaim),
        (5, 3, 2, 3, 2, FreePlusReclaim),
        (9, 3, 2, 3, 2, TakeAllAvailable),
        (10, 3, 5, 3, 5, TakeAllAvailable),
        // No table (DWS-NC): nothing free, nothing reclaimable.
        (4, 0, 0, 0, 0, TakeAllAvailable),
    ] {
        assert_eq!(
            plan_wakes(n_w, n_f, n_r),
            WakePlan { from_free, from_reclaim, case },
            "N_w={n_w}, N_f={n_f}, N_r={n_r}"
        );
    }
}

proptest! {
    /// Eq. 1 is floor division of demand by active workers: the target
    /// `n_w` is the unique integer with `n_w·N_a ≤ N_b < (n_w+1)·N_a`.
    #[test]
    fn eq1_is_floor_division(queued in 0usize..10_000, active in 1usize..64) {
        let n_w = eq1_wake_target(queued, active);
        prop_assert!(n_w * active <= queued);
        prop_assert!(queued < (n_w + 1) * active);
    }

    /// The zero-active guard: with every worker asleep, demand is the
    /// queue length itself (waking at least one worker when work exists).
    #[test]
    fn eq1_zero_active_returns_queue(queued in 0usize..10_000) {
        prop_assert_eq!(eq1_wake_target(queued, 0), queued);
    }

    /// The three §3.3 cases, exhaustively over random demand/supply:
    ///
    /// * `N_w ≤ N_f` — only free cores, exactly `N_w` of them;
    /// * `N_f < N_w ≤ N_f + N_r` — all free plus exactly the shortfall;
    /// * `N_w > N_f + N_r` — everything available and nothing more.
    ///
    /// Never plans beyond the supply (constraint 3: unreleased foreign
    /// cores are untouchable, so they are simply not part of `n_f`/`n_r`).
    #[test]
    fn wake_plan_respects_the_three_cases(
        n_w in 0usize..64,
        n_f in 0usize..32,
        n_r in 0usize..32,
    ) {
        let WakePlan { from_free, from_reclaim, case } = plan_wakes(n_w, n_f, n_r);
        prop_assert!(from_free <= n_f, "plans more free cores than exist");
        prop_assert!(from_reclaim <= n_r, "plans more reclaims than reclaimable");
        // The plan takes exactly min(demand, supply) — cases collapse to
        // this single identity.
        prop_assert_eq!(from_free + from_reclaim, n_w.min(n_f + n_r));
        if n_w == 0 {
            prop_assert_eq!(case, CoordCase::NoAction, "no demand, no action");
        } else if n_w <= n_f {
            prop_assert_eq!((from_free, from_reclaim), (n_w, 0), "case 1: free only");
            prop_assert_eq!(case, CoordCase::FreeOnly);
        } else if n_w <= n_f + n_r {
            prop_assert_eq!(
                (from_free, from_reclaim),
                (n_f, n_w - n_f),
                "case 2: all free + shortfall"
            );
            prop_assert_eq!(case, CoordCase::FreePlusReclaim);
        } else {
            prop_assert_eq!(
                (from_free, from_reclaim),
                (n_f, n_r),
                "case 3: take all available"
            );
            prop_assert_eq!(case, CoordCase::TakeAllAvailable);
        }
        // Free cores are always preferred over reclaims.
        if from_reclaim > 0 {
            prop_assert_eq!(from_free, n_f, "reclaimed before exhausting free cores");
        }
    }
}
