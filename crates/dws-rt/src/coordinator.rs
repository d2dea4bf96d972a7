//! The per-program coordinator thread (paper §3.3).
//!
//! Every `T` milliseconds the coordinator observes `N_b` (queued jobs) and
//! `N_a` (awake workers), computes the Eq. 1 wake target
//! `N_w = N_b / N_a`, and wakes sleeping workers on cores it can obtain —
//! free cores first, then its own cores reclaimed from other programs,
//! never a core another program holds and has not released.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::Policy;
use crate::metrics::RtMetrics;
use crate::registry::Registry;
use crate::rng::VictimRng;
use crate::sync::{preempt_point, Ordering};
use crate::telemetry::CoordSample;
use crate::trace::{now_us, RtEvent, LANE_SHARED};
use dws_core::policy::{eq1_wake_target, plan_wakes};

/// One coordinator evaluation. Factored out of the loop for testing;
/// returns the pass's Eq. 1 wake target `N_w` (the wakes delivered are
/// published to telemetry, not returned).
pub(crate) fn coordinate_once(reg: &Registry, rng: &VictimRng) -> usize {
    RtMetrics::bump(&reg.metrics.coordinator_runs);
    let tracing = reg.trace.enabled();
    // Observability gate for the early-return paths: the table supply scan
    // runs only when someone is watching (trace events or telemetry
    // frames), so the dark hot path stays as cheap as before.
    let observing = tracing || reg.config.telemetry.enabled;

    // Publishes the decision (inputs, plan, outcome) into the telemetry
    // cell the sampler reads — a handful of relaxed stores.
    let publish = |n_b: usize,
                   n_a: usize,
                   n_f: usize,
                   n_r: usize,
                   n_w: usize,
                   planned: (usize, usize),
                   woken: usize| {
        reg.telemetry.decision.publish(CoordSample {
            n_b: n_b as u64,
            n_a: n_a as u64,
            n_f: n_f as u64,
            n_r: n_r as u64,
            n_w: n_w as u64,
            planned_free: planned.0 as u64,
            planned_reclaim: planned.1 as u64,
            woken: woken as u64,
            decisions: 0, // the cell counts publishes itself
        });
    };

    // Decision-event helper: records the observed demand/supply on the
    // shared lane, labelled with the §3.3 case the wake plan falls into.
    let record_decision = |n_b: usize, n_a: usize, n_f: usize, n_r: usize, n_w: usize| {
        let case = plan_wakes(n_w, n_f, n_r).case;
        reg.trace
            .record(LANE_SHARED, RtEvent::CoordinatorDecision { n_b, n_a, n_f, n_r, n_w, case });
    };
    // Table supply (`N_f`, `N_r`), scanned eagerly only for decision
    // events on the early-return paths — when tracing is off those paths
    // stay as cheap as before.
    let supply = || -> (usize, usize) {
        if reg.effective_policy == Policy::Dws {
            (reg.table.free_cores().len(), reg.table.reclaimable_cores(reg.prog_id).len())
        } else {
            (0, 0)
        }
    };

    let dws = reg.effective_policy == Policy::Dws;
    // Acknowledge the demand-rise edge *before* sampling `N_b`: a push
    // that found the edge already spent is then in the sample below, and
    // a push after this line rings again (DESIGN §16.1).
    let rung = reg.ack_demand_edge();
    let n_sleeping = reg.sleeping_count();
    if n_sleeping == 0 {
        // Every worker is awake: the Eq. 1 demand is satisfied by
        // definition, so any pending rise is cleared (no grant to time)
        // and a demand fall starts waiting for the next release.
        if dws {
            reg.metrics.note_demand_fall(now_us());
        }
        if observing {
            let (n_f, n_r) = supply();
            let (n_b, n_a) = (reg.queued_jobs(), reg.workers.len());
            if tracing {
                record_decision(n_b, n_a, n_f, n_r, 0);
            }
            publish(n_b, n_a, n_f, n_r, 0, (0, 0), 0);
        }
        return 0;
    }
    let queued = reg.queued_jobs();
    let active = reg.workers.len().saturating_sub(n_sleeping);
    let n_w = eq1_wake_target(queued, active).min(n_sleeping);
    if n_w == 0 {
        // Demand fell (or never rose). Stamp the fall only while some
        // worker is still awake — with everything already asleep and
        // released there is no core left whose release could pair with it.
        if dws && active > 0 {
            reg.metrics.note_demand_fall(now_us());
        }
        if rung {
            reg.block_demand_edge();
        }
        if observing {
            let (n_f, n_r) = supply();
            if tracing {
                record_decision(queued, active, n_f, n_r, 0);
            }
            publish(queued, active, n_f, n_r, 0, (0, 0), 0);
        }
        return 0;
    }

    match reg.effective_policy {
        Policy::Dws => {
            let prog = reg.prog_id;
            let table = &*reg.table;
            let mut woken = 0;

            // Case analysis (§3.3). Work against a snapshot of the free
            // list; every take is an atomic CAS so races with other
            // programs' coordinators are safe (a lost CAS just skips).
            preempt_point("coord-snapshot");
            let mut free = table.free_cores();
            let reclaimable = table.reclaimable_cores(prog);
            let n_f = free.len();
            let n_r = reclaimable.len();
            if tracing {
                record_decision(queued, active, n_f, n_r, n_w);
            }
            // Demand-satisfaction clock (DESIGN §14): the push edge stamps
            // a rise where it happens; this stamps one that arrived some
            // other way (injected work, admissions, polling-only). The
            // stamp survives supply-starved ticks so the measured latency
            // spans the whole wait for a grant.
            reg.metrics.note_demand_rise(now_us());

            let plan = plan_wakes(n_w, n_f, n_r);
            // The snapshot is stale by now under contention; the CAS
            // grants below are what keep it safe.
            preempt_point("coord-apply");

            // Random selection among free cores (paper: "randomly selects
            // N_w free cores").
            for i in 0..plan.from_free {
                let j = i + rng.next_below(free.len() - i);
                free.swap(i, j);
            }
            for &core in free.iter().take(plan.from_free) {
                if core < reg.workers.len() && table.try_acquire_free(core, prog) {
                    RtMetrics::bump(&reg.metrics.cores_acquired);
                    reg.trace.record(LANE_SHARED, RtEvent::Acquire { prog, core });
                    reg.wake_worker(core); // worker index == core index
                    woken += 1;
                }
            }
            for &core in reclaimable.iter().take(plan.from_reclaim) {
                if core < reg.workers.len() && table.try_reclaim(core, prog) {
                    RtMetrics::bump(&reg.metrics.cores_reclaimed);
                    reg.trace.record(LANE_SHARED, RtEvent::Reclaim { prog, core });
                    reg.wake_worker(core);
                    woken += 1;
                }
            }
            if woken > 0 {
                reg.metrics.note_demand_met(now_us());
            }
            publish(queued, active, n_f, n_r, n_w, (plan.from_free, plan.from_reclaim), woken);
        }
        Policy::DwsNc => {
            if tracing {
                // No table: nothing is free or reclaimable, so a nonzero
                // `N_w` classifies as take-all.
                record_decision(queued, active, 0, 0, n_w);
            }
            // Wake N_w arbitrary sleeping workers; no table, no
            // exclusivity (§4.2 ablation). "Arbitrary" is a random
            // starting point in the worker ring.
            let n = reg.workers.len();
            let start = rng.next_below(n);
            let woken = (0..n)
                .map(|i| (start + i) % n)
                .filter(|&w| reg.workers[w].sleeper.is_sleeping())
                .take(n_w)
                .map(|w| reg.wake_worker(w))
                .count();
            publish(queued, active, 0, 0, n_w, (0, 0), woken);
        }
        _ => {}
    }
    n_w
}

/// The coordinator thread body: evaluate on every doorbell edge and at
/// least every `coordinator_period` until shutdown (the polling tick is
/// the slow-path fallback heartbeat, not the primary wake mechanism — see
/// DESIGN §16.1). The period wait is chunked so shutdown never waits
/// longer than ~50 ms even on a non-futex fallback backend.
///
/// Under `Policy::Dws` the failure-model duties (DESIGN §10) — lease
/// heartbeat, stall watchdog, zombie re-arm, health check, reaping expired
/// co-runners — run once per period however often doorbells fire, so the
/// event-driven fast path never changes the lease/heartbeat cadence.
pub(crate) fn coordinator_loop(reg: Arc<Registry>) {
    let rng = VictimRng::new(0xC0FF_EE00 ^ (reg.prog_id as u64 + 1).wrapping_mul(0x9E37_79B9));
    // Clamped to 1 µs so a zero period cannot spin the wait loop below.
    let period = reg.config.coordinator_period.max(Duration::from_micros(1));
    let event_driven = reg.config.event_driven;
    let shared_table = reg.effective_policy == Policy::Dws;
    let lease_timeout = reg.config.effective_lease_timeout();
    // Watchdog: a tick (wait + work) is at most one period plus a pass —
    // shorter when a doorbell cuts the wait. One that takes more than 3×
    // the period means this coordinator itself is the slow party, exactly
    // the "slow-but-alive owner" the lease epoch protects, so count it.
    let stall_after = period * 3;
    let mut last_tick = Instant::now();
    // Chore deadline: heartbeat/reap cadence is pinned to the period even
    // when doorbells run decision passes far more often.
    let mut next_chores = Instant::now();
    // Edge-detect for `zombies_fenced`: one fence discovery counts once,
    // however many ticks recovery takes.
    let mut was_zombie = false;
    'outer: while !reg.shutdown.load(Ordering::Acquire) {
        let chunk = period.min(Duration::from_millis(50));
        let mut slept = Duration::ZERO;
        while slept < period {
            let step = chunk.min(period - slept);
            if event_driven {
                // Edge-triggered wait: a release/demand/submit ring pops
                // us out immediately; `step` elapsing is the polling
                // fallback heartbeat.
                let rung = reg.table.wait_doorbell(reg.prog_id, step);
                if reg.shutdown.load(Ordering::Acquire) {
                    break 'outer;
                }
                if rung != 0 {
                    RtMetrics::bump(&reg.metrics.doorbell_wakes);
                    break; // run a pass now — that's what the ring asked for
                }
            } else {
                crate::sync::sleep(step);
                if reg.shutdown.load(Ordering::Acquire) {
                    break 'outer;
                }
            }
            slept += step;
        }
        if last_tick.elapsed() > stall_after {
            RtMetrics::bump(&reg.metrics.coordinator_stalls);
        }
        last_tick = Instant::now();
        if shared_table && Instant::now() >= next_chores {
            next_chores = Instant::now() + period;
            // The heartbeat self-checks the lease first: a coordinator
            // resuming from a long SIGSTOP discovers right here that it
            // was fenced/reaped while stalled.
            reg.table.heartbeat(reg.prog_id);
            if reg.table.zombie_fenced() {
                if !was_zombie {
                    was_zombie = true;
                    RtMetrics::bump(&reg.metrics.zombies_fenced);
                }
                if reg.table.try_rearm(reg.prog_id) {
                    RtMetrics::bump(&reg.metrics.leases_rearmed);
                    was_zombie = false;
                    reg.table.heartbeat(reg.prog_id);
                } else if reg.table.zombie_fenced() {
                    // Unrecoverable this tick (reap in flight → retry
                    // next tick; successor owns the lease → degrade for
                    // good and run on the home partition).
                    reg.table.degrade_now();
                    if reg.table.degraded() {
                        was_zombie = false;
                    }
                }
            } else {
                was_zombie = false;
            }
            // A vanished or corrupted shm file flips a FailoverTable to
            // degraded in-process mode; other backends report healthy.
            let _healthy = reg.table.check_health();
            let pass = crate::alloc_table::reap_expired(&*reg.table, reg.prog_id, lease_timeout);
            RtMetrics::add(&reg.metrics.leases_expired, pass.leases_expired);
            RtMetrics::add(&reg.metrics.cores_reaped, pass.cores_reaped);
        }
        // Serving: drain the submission ring *before* the wake decision,
        // so freshly admitted requests count toward this pass's N_b. On a
        // submit doorbell this is the admission fast path — request →
        // injector without waiting out a polling period.
        let _ = reg.drain_submissions();
        coordinate_once(&reg, &rng);
    }
}
