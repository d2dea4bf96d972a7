//! Mutation test for the checker itself (acceptance gate): a seeded
//! double-reclaim bug in the protocol model — a coordinator reclaiming a
//! home core it already owns — must be *found* by bounded random
//! exploration under aggressive fault injection, and the failing seed
//! must replay to the identical interleaving and violation. If the
//! checker ever stops catching this, the whole dws-check suite is
//! vacuous.

use dws_check::model::{self, Bug, ModelConfig};
use dws_check::{CheckOptions, Env, Explorer, FaultPlan};

#[test]
fn checker_catches_seeded_double_reclaim() {
    let cfg = ModelConfig::standard().with_bug(Bug::DoubleReclaim);
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let explorer = Explorer::new(opts, move |env: &Env, seed| model::spawn_model(env, &cfg, seed));

    let report = explorer.random(0xDEAD_BEEF, 2_000);
    let failing = report
        .failing()
        .unwrap_or_else(|| {
            panic!("double-reclaim mutation survived {} schedules", report.schedules)
        })
        .clone();
    let failure = failing.failure.as_deref().unwrap();
    assert!(failure.contains("already owns it"), "unexpected failure: {failure}");
    assert!(!failing.events.is_empty(), "violation must come with its event trace");

    // Replay determinism: same seed ⇒ same decisions, events, violation.
    explorer.replay(&failing).expect("failing seed must replay identically");
}

// The two W1 mutations below keep every table transition legal and
// reconcile every completion counter — the run *settles cleanly* with a
// task silently gone. Only the oracle's task-identity ledger (W1: every
// spawned task executes) can see them, which is exactly what these
// tests prove.

#[test]
fn checker_catches_seeded_lost_batch_via_w1() {
    let cfg = ModelConfig::standard().with_bug(Bug::LostBatch);
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let explorer = Explorer::new(opts, move |env: &Env, seed| model::spawn_model(env, &cfg, seed));

    let report = explorer.random(0xDEAD_BEEF, 2_000);
    let failing = report
        .failing()
        .unwrap_or_else(|| panic!("lost-batch mutation survived {} schedules", report.schedules))
        .clone();
    let failure = failing.failure.as_deref().unwrap();
    assert!(failure.contains("W1 violated"), "unexpected failure: {failure}");
    assert!(failure.contains("never executed"), "unexpected failure: {failure}");
    explorer.replay(&failing).expect("failing seed must replay identically");
}

#[test]
fn checker_catches_seeded_reap_strand_via_w1() {
    // The survivor needs tasks still parked when the reap lands
    // (~one lease after the crash), or there is nothing to strand.
    let cfg = ModelConfig { tasks: vec![40, 30], ..ModelConfig::crash() }.with_bug(Bug::ReapStrand);
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let explorer = Explorer::new(opts, move |env: &Env, seed| model::spawn_model(env, &cfg, seed));

    let report = explorer.random(0xDEAD_BEEF, 2_000);
    let failing = report
        .failing()
        .unwrap_or_else(|| panic!("reap-strand mutation survived {} schedules", report.schedules))
        .clone();
    let failure = failing.failure.as_deref().unwrap();
    assert!(failure.contains("W1 violated"), "unexpected failure: {failure}");
    explorer.replay(&failing).expect("failing seed must replay identically");
}

#[test]
fn checker_catches_seeded_dropped_submit_via_the_admission_ledger() {
    // The serving-path W1 analogue: the coordinator's drain pops a
    // request from the submission ring but never admits it, reconciling
    // the completion counter so the run settles cleanly. Every table
    // transition is legal and every counter reaches zero — only the
    // oracle's admission ledger (every submitted request is admitted,
    // every admitted request reaches exactly-once exec) can see it.
    let cfg = ModelConfig::serving().with_bug(Bug::DroppedSubmit);
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let explorer = Explorer::new(opts, move |env: &Env, seed| model::spawn_model(env, &cfg, seed));

    let report = explorer.random(0xDEAD_BEEF, 2_000);
    let failing = report
        .failing()
        .unwrap_or_else(|| {
            panic!("dropped-submit mutation survived {} schedules", report.schedules)
        })
        .clone();
    let failure = failing.failure.as_deref().unwrap();
    assert!(failure.contains("admission lost"), "unexpected failure: {failure}");
    assert!(failure.contains("never admitted"), "unexpected failure: {failure}");
    explorer.replay(&failing).expect("failing seed must replay identically");
}

#[test]
fn checker_catches_seeded_zombie_write_via_the_post_fence_rule() {
    // The pause scenario: a SIGSTOPped co-runner is stall-fenced and
    // reaped while quiescent, then SIGCONTed. With Bug::ZombieWrite the
    // resumed victim skips the post-resume fence check and keeps
    // working — its reclaims/acquires succeed, its tasks all finish and
    // every counter, ledger and table snapshot reconciles. Only the
    // oracle's post-fence rule (no transition or work by an expired
    // prog) can see the zombie.
    let cfg = ModelConfig::pause().with_bug(Bug::ZombieWrite);
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let explorer = Explorer::new(opts, move |env: &Env, seed| model::spawn_model(env, &cfg, seed));

    let report = explorer.random(0xDEAD_BEEF, 2_000);
    let failing = report
        .failing()
        .unwrap_or_else(|| panic!("zombie-write mutation survived {} schedules", report.schedules))
        .clone();
    let failure = failing.failure.as_deref().unwrap();
    assert!(failure.contains("expired prog"), "unexpected failure: {failure}");
    explorer.replay(&failing).expect("failing seed must replay identically");
}

#[test]
fn checker_catches_seeded_lost_wake_via_the_doorbell_rule() {
    // The event-driven control plane's headline hazard: a doorbell ring
    // that notifies without persisting the pending word. A ring landing
    // while the coordinator is between waits evaporates; the timeout
    // fallback still runs every pass, so all work completes, every table
    // transition is legal and every counter reconciles — only the
    // oracle's doorbell wake rule (a sleep must never begin with a ring
    // pending) can see the lost wake.
    let cfg = ModelConfig::doorbell().with_bug(Bug::LostWake);
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let explorer = Explorer::new(opts, move |env: &Env, seed| model::spawn_model(env, &cfg, seed));

    let report = explorer.random(0xDEAD_BEEF, 2_000);
    let failing = report
        .failing()
        .unwrap_or_else(|| panic!("lost-wake mutation survived {} schedules", report.schedules))
        .clone();
    let failure = failing.failure.as_deref().unwrap();
    assert!(failure.contains("lost wake"), "unexpected failure: {failure}");
    assert!(failure.contains("ring pending"), "unexpected failure: {failure}");
    explorer.replay(&failing).expect("failing seed must replay identically");
}

#[test]
fn checker_catches_seeded_late_ack_via_the_doorbell_demand_rule() {
    // The demand-rise edge's ack protocol: the coordinator re-arms the
    // edge *before* it samples N_b, so a worker that found the edge spent
    // is always in the sample that follows. With the ack moved behind the
    // sample, a demand edge firing in between is swallowed — no ring, and
    // the ack wipes the flag that said one was owed. The heartbeat still
    // runs every pass, so all work completes and every table transition
    // and counter reconciles — only the oracle's doorbell demand rule (no
    // park over a swallowed demand edge) can see it.
    let cfg = ModelConfig::doorbell().with_bug(Bug::LateAck);
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let explorer = Explorer::new(opts, move |env: &Env, seed| model::spawn_model(env, &cfg, seed));

    let report = explorer.random(0xDEAD_BEEF, 2_000);
    let failing = report
        .failing()
        .unwrap_or_else(|| panic!("late-ack mutation survived {} schedules", report.schedules))
        .clone();
    let failure = failing.failure.as_deref().unwrap();
    assert!(failure.contains("lost demand"), "unexpected failure: {failure}");
    assert!(failure.contains("ack after the N_b sample"), "unexpected failure: {failure}");
    explorer.replay(&failing).expect("failing seed must replay identically");
}

#[test]
fn unmutated_doorbell_model_passes_the_same_budget() {
    // Every interleaving of ring vs wait vs timeout must replay clean:
    // rings before the wait are consumed at entry, rings during the wait
    // wake the parked coordinator, and timeouts fall back to a plain
    // pass. Schedules are only exhaustive over what the doorbell's
    // critical sections allow — which is the point: the pending word
    // makes the check-then-park window unreachable.
    let cfg = ModelConfig::doorbell();
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let explorer = Explorer::new(opts, move |env: &Env, seed| model::spawn_model(env, &cfg, seed));
    let report = explorer.random(0xDEAD_BEEF, 300);
    assert!(report.failing().is_none(), "clean doorbell model flagged: {:?}", report.failing());
}

#[test]
fn unmutated_pause_model_passes_the_same_budget() {
    // Both outcomes must be clean: schedules where the victim resumes
    // before any fence (and finishes everything) and schedules where
    // the stall-fence lands (and the resumed victim stops dead).
    let cfg = ModelConfig::pause();
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let explorer = Explorer::new(opts, move |env: &Env, seed| model::spawn_model(env, &cfg, seed));
    let report = explorer.random(0xDEAD_BEEF, 300);
    assert!(report.failing().is_none(), "clean pause model flagged: {:?}", report.failing());
}

#[test]
fn unmutated_serving_model_passes_the_same_budget() {
    let cfg = ModelConfig::serving();
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let explorer = Explorer::new(opts, move |env: &Env, seed| model::spawn_model(env, &cfg, seed));
    let report = explorer.random(0xDEAD_BEEF, 300);
    assert!(report.failing().is_none(), "clean serving model flagged: {:?}", report.failing());
}

#[test]
fn unmutated_model_passes_the_same_budget() {
    let cfg = ModelConfig::standard();
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let explorer = Explorer::new(opts, move |env: &Env, seed| model::spawn_model(env, &cfg, seed));
    let report = explorer.random(0xDEAD_BEEF, 300);
    assert!(report.failing().is_none(), "clean model flagged: {:?}", report.failing());
}
