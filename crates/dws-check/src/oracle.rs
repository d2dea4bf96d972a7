//! The protocol oracle: Table-1 core-ownership invariants.
//!
//! A port of `dws-rt`'s `ReplayChecker` rules so the checker validates
//! model traces against the *same* protocol contract the runtime
//! enforces on live traces:
//!
//! 1. every core has exactly one owner (a program) or is free;
//! 2. `Acquire` requires the core to be free;
//! 3. `Reclaim` is only legal for the core's *home* program, and never
//!    for a core that program already owns (a double-reclaim);
//! 4. `Release` is only legal by the current owner (no double release);
//! 5. `Reap` is only legal for a core owned by a program whose lease
//!    already `Expired`, and an expired program performs no further
//!    table transition (it is dead or fenced — mirror of the runtime's
//!    `LeaseExpired`/`Reap` replay rules);
//! 6. an expired program also consumes no further work: no `StealBatch`
//!    and no `TaskExec` after its `Expired` — the post-fence rule. A
//!    stall-fenced program whose threads resume (SIGCONT after the
//!    lease was reaped) is a *zombie*: its queue and cores belong to
//!    its successor incarnation, so any post-fence activity is positive
//!    evidence of a fencing hole even when every counter reconciles.
//!
//! Task-identity rules (the model analogue of `dws-rt`'s per-task
//! lifecycle trace):
//!
//! * **W2** — no task executes twice, and no task executes that was
//!   never spawned. Checked inline by [`Oracle::apply`] on every
//!   `TaskExec`, even on runs that end dirty: a duplicate execution is
//!   positive evidence regardless of how the run finished.
//! * **W1** — every spawned task eventually executes (crash victims
//!   exempted: their tasks legitimately die with them). Checked by
//!   [`Oracle::finish`] once the run has settled cleanly.
//!
//! Serving-mode admission rules (the model analogue of the submission
//! ring's submit → drain → exec path, DESIGN §13):
//!
//! * an `Admit` is only legal for a request that was `Submit`ted, and
//!   each request is admitted at most once (the ring is exactly-once
//!   between client and coordinator);
//! * admission registers the request in the task ledger, so W2 guards
//!   its execution inline and W1 demands it executes — *every admitted
//!   request reaches exactly-once exec*;
//! * at [`Oracle::finish`], every submitted request of a surviving
//!   program must have been admitted — a drain that drops a ringed
//!   request on the floor is caught here even when every completion
//!   counter reconciles.
//!
//! Doorbell wake rules (the model analogue of the event-driven control
//! plane's per-program doorbell, DESIGN §16):
//!
//! * a `DoorbellSleep` — the coordinator parking with *nothing pending*
//!   — is only legal when every prior `DoorbellRing` was consumed. A
//!   sleep that begins with a ring still pending is positive evidence of
//!   a **lost wake**: the ring's notification fired but its permit was
//!   not persisted, so the waiter parked straight past it (the
//!   check-then-park hole the pending-word protocol closes);
//! * a `DoorbellConsume` requires a pending ring — consuming a wake
//!   nobody delivered means the doorbell fabricated one;
//! * a worker whose demand edge found the edge already spent
//!   (`DemandSuppressed`) is owed a coordinator sample (`CoordTick`)
//!   taken after it: that is what the spent edge promised. A
//!   `DoorbellSleep` with such a demand still unanswered and no demand
//!   ring in flight (`DemandRing` whose `DoorbellRing` has not landed) is
//!   a **lost demand** — the coordinator acknowledged the edge on the
//!   wrong side of its `N_b` sample and parked on work nobody will
//!   announce.

use std::collections::HashSet;
use std::fmt;

/// One protocol-relevant event of a model run, in linearization order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoEvent {
    /// Program `prog` took free core `core` from the table.
    Acquire {
        /// Acquiring program.
        prog: usize,
        /// Core index.
        core: usize,
    },
    /// Program `prog` reclaimed its home core `core`.
    Reclaim {
        /// Reclaiming (home) program.
        prog: usize,
        /// Core index.
        core: usize,
    },
    /// Program `prog` released core `core` back to the table.
    Release {
        /// Releasing program.
        prog: usize,
        /// Core index.
        core: usize,
    },
    /// Worker `worker` of program `prog` went to sleep.
    Sleep {
        /// Program index.
        prog: usize,
        /// Worker index within the program.
        worker: usize,
    },
    /// Worker `worker` of program `prog` was woken.
    Wake {
        /// Program index.
        prog: usize,
        /// Worker index within the program.
        worker: usize,
    },
    /// Coordinator tick of program `prog` with its Eq. 1 inputs/output.
    CoordTick {
        /// Program index.
        prog: usize,
        /// Queued tasks observed (`N_b`).
        n_b: usize,
        /// Active workers observed (`N_a`).
        n_a: usize,
        /// Wake target computed (`N_w`).
        n_w: usize,
    },
    /// Worker `worker` of program `prog` took a batch of `taken` tasks
    /// from a queue it observed holding `observed` tasks.
    StealBatch {
        /// Program index.
        prog: usize,
        /// Worker index within the program.
        worker: usize,
        /// Queue length the thief observed before reserving the batch.
        observed: usize,
        /// Tasks actually taken.
        taken: usize,
    },
    /// Task `id` of program `prog` entered the system (model analogue
    /// of the runtime's `Spawn` lifecycle event). Logged for every
    /// initial task before the threads start, so the spawn prefix is
    /// identical across schedules.
    TaskSpawn {
        /// Owning program.
        prog: usize,
        /// Per-program task sequence number.
        id: u64,
    },
    /// Task `id` of program `prog` was executed by a worker that won
    /// the batch reservation covering it.
    TaskExec {
        /// Owning program.
        prog: usize,
        /// Per-program task sequence number.
        id: u64,
    },
    /// A client of program `prog` pushed request `id` into the
    /// program's submission ring (the model analogue of the runtime's
    /// `SubmitRing` push). Request ids share the task id space, offset
    /// past the initial tasks, so the same W1/W2 ledger covers them.
    Submit {
        /// Serving program.
        prog: usize,
        /// Request id (shared task-id space).
        id: u64,
    },
    /// The coordinator of program `prog` drained request `id` from the
    /// submission ring into the task queue (the model analogue of the
    /// runtime's `Admit` lifecycle event).
    Admit {
        /// Serving program.
        prog: usize,
        /// Request id (shared task-id space).
        id: u64,
    },
    /// Program `prog`'s doorbell was rung (a release/submit edge wants
    /// its coordinator to run a pass now). Logged inside the doorbell's
    /// critical section, so log order is the protocol's linearization
    /// order.
    DoorbellRing {
        /// Program whose doorbell was rung.
        prog: usize,
    },
    /// Program `prog`'s coordinator began a doorbell wait with nothing
    /// pending. Legal only when every prior ring was consumed — a sleep
    /// that starts with a ring still pending is the lost-wake signature
    /// (the check-then-park window a naive condvar doorbell has).
    DoorbellSleep {
        /// Program whose coordinator parked.
        prog: usize,
    },
    /// Program `prog`'s coordinator consumed the pending ring (either
    /// immediately at wait entry or after being woken).
    DoorbellConsume {
        /// Program whose coordinator consumed the ring.
        prog: usize,
    },
    /// A worker of program `prog` spent the armed demand-rise edge; its
    /// `DoorbellRing` on the program's own doorbell follows.
    DemandRing {
        /// Program whose worker saw the demand rise.
        prog: usize,
    },
    /// A worker of program `prog` saw a demand rise but found the edge
    /// already spent, so it did not ring: the coordinator's next sample
    /// must come after this.
    DemandSuppressed {
        /// Program whose worker saw the demand rise.
        prog: usize,
    },
    /// Program `prog`'s coordinator re-armed its demand-rise edge.
    DemandAck {
        /// Program whose coordinator acknowledged.
        prog: usize,
    },
    /// A reaper fenced the lease of dead program `prog` (stale
    /// heartbeat + death confirmed).
    Expired {
        /// The dead program.
        prog: usize,
    },
    /// A reaper returned core `core`, stranded by dead program `prog`,
    /// to the free pool.
    Reap {
        /// The dead program that owned the core.
        prog: usize,
        /// Core index.
        core: usize,
    },
}

impl fmt::Display for ProtoEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ProtoEvent::Acquire { prog, core } => write!(f, "acquire  prog={prog} core={core}"),
            ProtoEvent::Reclaim { prog, core } => write!(f, "reclaim  prog={prog} core={core}"),
            ProtoEvent::Release { prog, core } => write!(f, "release  prog={prog} core={core}"),
            ProtoEvent::Sleep { prog, worker } => write!(f, "sleep    prog={prog} worker={worker}"),
            ProtoEvent::Wake { prog, worker } => write!(f, "wake     prog={prog} worker={worker}"),
            ProtoEvent::CoordTick { prog, n_b, n_a, n_w } => {
                write!(f, "coord    prog={prog} n_b={n_b} n_a={n_a} n_w={n_w}")
            }
            ProtoEvent::StealBatch { prog, worker, observed, taken } => {
                write!(f, "batch    prog={prog} worker={worker} observed={observed} taken={taken}")
            }
            ProtoEvent::TaskSpawn { prog, id } => write!(f, "spawn    prog={prog} task={id}"),
            ProtoEvent::TaskExec { prog, id } => write!(f, "exec     prog={prog} task={id}"),
            ProtoEvent::Submit { prog, id } => write!(f, "submit   prog={prog} req={id}"),
            ProtoEvent::Admit { prog, id } => write!(f, "admit    prog={prog} req={id}"),
            ProtoEvent::DoorbellRing { prog } => write!(f, "ring     prog={prog}"),
            ProtoEvent::DoorbellSleep { prog } => write!(f, "dbsleep  prog={prog}"),
            ProtoEvent::DoorbellConsume { prog } => write!(f, "consume  prog={prog}"),
            ProtoEvent::DemandRing { prog } => write!(f, "demand   prog={prog} rings"),
            ProtoEvent::DemandSuppressed { prog } => write!(f, "demand   prog={prog} suppressed"),
            ProtoEvent::DemandAck { prog } => write!(f, "ack      prog={prog}"),
            ProtoEvent::Expired { prog } => write!(f, "expired  prog={prog}"),
            ProtoEvent::Reap { prog, core } => write!(f, "reap     prog={prog} core={core}"),
        }
    }
}

/// A protocol violation found while replaying a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the offending event in the replayed trace.
    pub index: usize,
    /// The offending event.
    pub event: ProtoEvent,
    /// Human-readable rule violation.
    pub reason: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event #{} ({}): {}", self.index, self.event, self.reason)
    }
}

/// Table-transition counts of a clean replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Number of `Acquire` events.
    pub acquires: usize,
    /// Number of `Reclaim` events.
    pub reclaims: usize,
    /// Number of `Release` events.
    pub releases: usize,
    /// Number of `Reap` events.
    pub reaps: usize,
    /// Number of `StealBatch` events.
    pub steal_batches: usize,
    /// Number of `TaskSpawn` events.
    pub task_spawns: usize,
    /// Number of `TaskExec` events.
    pub task_execs: usize,
    /// Number of `Submit` events.
    pub submits: usize,
    /// Number of `Admit` events.
    pub admits: usize,
}

/// Per-owner core-time attribution of a *timed* trace — the checker-side
/// mirror of the runtime's `AllocLedger` (DESIGN §14).
///
/// Produced by [`replay_core_time`], which charges every interval between
/// consecutive table transitions of a core to the owner the log proves
/// held it. Attribution is exhaustive by construction:
/// `per_prog.sum() + free_ns == home.len() * t_end_ns`. The *live*
/// conservation ledger inside the model table is the thing that can leak;
/// comparing it against this replay (and against `cores × elapsed`) is
/// how the post-check catches `Bug::LeakedCoreSeconds`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreTime {
    /// Core-nanoseconds attributed to each program.
    pub per_prog: Vec<u64>,
    /// Core-nanoseconds during which no program owned the core.
    pub free_ns: u64,
    /// The trace horizon: the largest timestamp of any event.
    pub t_end_ns: u64,
}

impl CoreTime {
    /// Total attributed core-nanoseconds (programs + free).
    pub fn total(&self) -> u64 {
        self.per_prog.iter().sum::<u64>() + self.free_ns
    }
}

/// Replays a timed trace into per-program core-time, starting from the
/// fully-owned equipartition state. Only the four table transitions
/// (`Acquire`/`Reclaim`/`Release`/`Reap`) move ownership; every other
/// event merely extends the horizon `t_end_ns`, so time a core spends
/// past its last transition is still charged to its final owner.
pub fn replay_core_time(home: &[usize], events: &[(u64, ProtoEvent)]) -> CoreTime {
    let cores = home.len();
    let programs = home.iter().copied().max().map_or(0, |m| m + 1);
    let mut owner: Vec<Option<usize>> = home.iter().map(|&p| Some(p)).collect();
    let mut last = vec![0u64; cores];
    let mut ct = CoreTime { per_prog: vec![0; programs], free_ns: 0, t_end_ns: 0 };
    let charge = |owner: Option<usize>, dt: u64, ct: &mut CoreTime| match owner {
        Some(p) => {
            if p >= ct.per_prog.len() {
                ct.per_prog.resize(p + 1, 0);
            }
            ct.per_prog[p] += dt;
        }
        None => ct.free_ns += dt,
    };
    for &(t, e) in events {
        ct.t_end_ns = ct.t_end_ns.max(t);
        let (core, next) = match e {
            ProtoEvent::Acquire { prog, core } | ProtoEvent::Reclaim { prog, core } => {
                (core, Some(prog))
            }
            ProtoEvent::Release { core, .. } | ProtoEvent::Reap { core, .. } => (core, None),
            _ => continue,
        };
        // Log order is linearization order, so per-core timestamps are
        // monotone; saturate anyway so a hand-built trace cannot panic.
        charge(owner[core], t.saturating_sub(last[core]), &mut ct);
        last[core] = t;
        owner[core] = next;
    }
    for c in 0..cores {
        charge(owner[c], ct.t_end_ns.saturating_sub(last[c]), &mut ct);
    }
    ct
}

/// Replays a trace against the ownership rules, starting (like the
/// runtime's `ReplayChecker`) from the fully-owned equipartition state:
/// every core owned by its home program.
#[derive(Debug, Clone)]
pub struct Oracle {
    home: Vec<usize>,
    owner: Vec<Option<usize>>,
    expired: HashSet<usize>,
    spawned: HashSet<(usize, u64)>,
    executed: HashSet<(usize, u64)>,
    submitted: HashSet<(usize, u64)>,
    admitted: HashSet<(usize, u64)>,
    /// Programs with a doorbell ring delivered but not yet consumed.
    db_pending: HashSet<usize>,
    /// Programs whose worker spent the demand edge and has not rung yet.
    demand_in_flight: HashSet<usize>,
    /// Programs with a suppressed demand no coordinator sample answered.
    demand_unanswered: HashSet<usize>,
    next_index: usize,
    /// Counts of table transitions replayed so far.
    pub stats: OracleStats,
}

impl Oracle {
    /// Creates an oracle for the given home map (`home[core]` = the
    /// program that owns `core` at start).
    pub fn new(home: &[usize]) -> Self {
        Oracle {
            home: home.to_vec(),
            owner: home.iter().map(|&p| Some(p)).collect(),
            expired: HashSet::new(),
            spawned: HashSet::new(),
            executed: HashSet::new(),
            submitted: HashSet::new(),
            admitted: HashSet::new(),
            db_pending: HashSet::new(),
            demand_in_flight: HashSet::new(),
            demand_unanswered: HashSet::new(),
            next_index: 0,
            stats: OracleStats::default(),
        }
    }

    /// Current owner of each core (`None` = free).
    pub fn owners(&self) -> &[Option<usize>] {
        &self.owner
    }

    /// Applies one event, failing on the first rule violation.
    pub fn apply(&mut self, event: ProtoEvent) -> Result<(), Violation> {
        let index = self.next_index;
        self.next_index += 1;
        let fail = |reason: String| Err(Violation { index, event, reason });
        if let ProtoEvent::Acquire { prog, .. }
        | ProtoEvent::Reclaim { prog, .. }
        | ProtoEvent::Release { prog, .. }
        | ProtoEvent::Submit { prog, .. }
        | ProtoEvent::Admit { prog, .. } = event
        {
            if self.expired.contains(&prog) {
                return fail(format!("table transition by expired prog {prog}"));
            }
        }
        // The post-fence rule's second half: an expired program consumes
        // no further work either. A zombie executing tasks races its
        // successor incarnation for the same identities in the runtime,
        // so the model rejects it even though no counter goes wrong.
        if let ProtoEvent::StealBatch { prog, .. } | ProtoEvent::TaskExec { prog, .. } = event {
            if self.expired.contains(&prog) {
                return fail(format!("post-fence activity by expired prog {prog}"));
            }
        }
        match event {
            ProtoEvent::Acquire { prog, core } => {
                if core >= self.owner.len() {
                    return fail(format!("acquire of nonexistent core {core}"));
                }
                if let Some(cur) = self.owner[core] {
                    return fail(format!(
                        "acquire of core {core} by prog {prog} while owned by prog {cur}"
                    ));
                }
                self.owner[core] = Some(prog);
                self.stats.acquires += 1;
            }
            ProtoEvent::Reclaim { prog, core } => {
                if core >= self.owner.len() {
                    return fail(format!("reclaim of nonexistent core {core}"));
                }
                if self.home[core] != prog {
                    return fail(format!(
                        "reclaim of core {core} by prog {prog} whose home is prog {}",
                        self.home[core]
                    ));
                }
                if self.owner[core] == Some(prog) {
                    return fail(format!(
                        "reclaim of core {core} by prog {prog} which already owns it"
                    ));
                }
                self.owner[core] = Some(prog);
                self.stats.reclaims += 1;
            }
            ProtoEvent::Release { prog, core } => {
                if core >= self.owner.len() {
                    return fail(format!("release of nonexistent core {core}"));
                }
                match self.owner[core] {
                    None => {
                        return fail(format!("double release of core {core} by prog {prog}"));
                    }
                    Some(cur) if cur != prog => {
                        return fail(format!(
                            "release of core {core} by prog {prog} while owned by prog {cur}"
                        ));
                    }
                    Some(_) => {}
                }
                self.owner[core] = None;
                self.stats.releases += 1;
            }
            ProtoEvent::Expired { prog } => {
                // Idempotent, like the runtime's `LeaseExpired` replay
                // rule: racing reapers may both log the expiry.
                self.expired.insert(prog);
            }
            ProtoEvent::Reap { prog, core } => {
                if core >= self.owner.len() {
                    return fail(format!("reap of nonexistent core {core}"));
                }
                if !self.expired.contains(&prog) {
                    return fail(format!(
                        "reap of core {core} for prog {prog} which never expired"
                    ));
                }
                match self.owner[core] {
                    None => return fail(format!("reap of core {core} but it is free")),
                    Some(cur) if cur != prog => {
                        return fail(format!(
                            "reap of core {core} for prog {prog} while owned by prog {cur}"
                        ));
                    }
                    Some(_) => {}
                }
                self.owner[core] = None;
                self.stats.reaps += 1;
            }
            ProtoEvent::StealBatch { observed, taken, .. } => {
                // Rule 6 (batched stealing): a thief reserves at least one
                // task, never more than it observed, and never more than
                // the ceiling-half steal-half quota — over-stealing drains
                // a victim the coordinator still counts in `N_b` and
                // starves its remaining workers.
                if taken == 0 {
                    return fail("steal batch took zero tasks".to_string());
                }
                if taken > observed {
                    return fail(format!(
                        "steal batch took {taken} tasks from a queue of {observed}"
                    ));
                }
                let half = observed.div_ceil(2);
                if taken > half {
                    return fail(format!(
                        "over-steal: batch took {taken} of {observed} observed tasks \
                         (steal-half quota is {half})"
                    ));
                }
                self.stats.steal_batches += 1;
            }
            ProtoEvent::TaskSpawn { prog, id } => {
                if !self.spawned.insert((prog, id)) {
                    return fail(format!("task p{prog}/t{id} spawned twice"));
                }
                self.stats.task_spawns += 1;
            }
            ProtoEvent::TaskExec { prog, id } => {
                // W2, plus its orphan half: an execution of an unknown
                // identity means the ledger and the workers disagree.
                if !self.spawned.contains(&(prog, id)) {
                    return fail(format!("orphan exec: task p{prog}/t{id} was never spawned"));
                }
                if !self.executed.insert((prog, id)) {
                    return fail(format!("W2 violated: task p{prog}/t{id} executed twice"));
                }
                self.stats.task_execs += 1;
            }
            ProtoEvent::Submit { prog, id } => {
                if !self.submitted.insert((prog, id)) {
                    return fail(format!("request p{prog}/r{id} submitted twice"));
                }
                self.stats.submits += 1;
            }
            ProtoEvent::Admit { prog, id } => {
                if !self.submitted.contains(&(prog, id)) {
                    return fail(format!(
                        "admit of request p{prog}/r{id} which was never submitted"
                    ));
                }
                if !self.admitted.insert((prog, id)) {
                    return fail(format!("request p{prog}/r{id} admitted twice"));
                }
                // Admission registers the request in the task ledger:
                // from here W2 guards its execution inline and W1
                // demands exactly-once exec at finish.
                if !self.spawned.insert((prog, id)) {
                    return fail(format!(
                        "admitted request p{prog}/r{id} collides with an existing task id"
                    ));
                }
                self.stats.admits += 1;
            }
            ProtoEvent::DoorbellRing { prog } => {
                // Rings accumulate into one pending word, so a ring
                // while one is already pending is legal (OR semantics).
                // Rings are advisory and may legally target an expired
                // program's doorbell (nobody is listening).
                self.db_pending.insert(prog);
                // Whichever edge rang, the demand ring in flight (if any)
                // can no longer be lost: a pass is owed now.
                self.demand_in_flight.remove(&prog);
            }
            ProtoEvent::DoorbellSleep { prog } => {
                if self.db_pending.contains(&prog) {
                    return fail(format!(
                        "lost wake: prog {prog} began a doorbell sleep with a ring \
                         pending (the pending word was not consumed)"
                    ));
                }
                if self.demand_unanswered.contains(&prog) && !self.demand_in_flight.contains(&prog)
                {
                    return fail(format!(
                        "lost demand: prog {prog} began a doorbell sleep over a demand edge \
                         that found the edge spent and was never sampled (ack after the \
                         N_b sample)"
                    ));
                }
            }
            ProtoEvent::DoorbellConsume { prog } => {
                if !self.db_pending.remove(&prog) {
                    return fail(format!("doorbell consume by prog {prog} without a pending ring"));
                }
            }
            ProtoEvent::DemandRing { prog } => {
                self.demand_in_flight.insert(prog);
            }
            ProtoEvent::DemandSuppressed { prog } => {
                self.demand_unanswered.insert(prog);
            }
            ProtoEvent::CoordTick { prog, .. } => {
                self.demand_unanswered.remove(&prog);
            }
            ProtoEvent::Sleep { .. } | ProtoEvent::Wake { .. } | ProtoEvent::DemandAck { .. } => {}
        }
        Ok(())
    }

    /// End-of-run identity checks. Admission first: every submitted
    /// request of a surviving program must have been admitted — a drain
    /// that drops a ringed request is caught here even when every
    /// completion counter reconciles. Then W1: every spawned task (and
    /// every admitted request, which admission registered in the same
    /// ledger) must have executed. Tasks of the crash victim (if any)
    /// are exempt — they die with it, whether still queued, ringed or
    /// reserved mid-batch. Call only after a *clean* settle; a run that
    /// deadlocks or blows its step budget legitimately leaves tasks
    /// behind.
    pub fn finish(&self, crashed: Option<usize>) -> Result<(), String> {
        let mut lost: Vec<(usize, u64)> = self
            .submitted
            .iter()
            .filter(|&&(p, _)| crashed != Some(p))
            .filter(|k| !self.admitted.contains(k))
            .copied()
            .collect();
        if !lost.is_empty() {
            lost.sort_unstable();
            let examples: Vec<String> =
                lost.iter().take(4).map(|(p, r)| format!("p{p}/r{r}")).collect();
            return Err(format!(
                "admission lost: {} submitted request(s) never admitted (e.g. {})",
                lost.len(),
                examples.join(", ")
            ));
        }
        let mut missing: Vec<(usize, u64)> = self
            .spawned
            .iter()
            .filter(|&&(p, _)| crashed != Some(p))
            .filter(|k| !self.executed.contains(k))
            .copied()
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        missing.sort_unstable();
        let examples: Vec<String> =
            missing.iter().take(4).map(|(p, t)| format!("p{p}/t{t}")).collect();
        Err(format!(
            "W1 violated: {} spawned task(s) never executed (e.g. {})",
            missing.len(),
            examples.join(", ")
        ))
    }

    /// Replays a whole trace, returning the transition counts on success.
    pub fn replay(home: &[usize], events: &[ProtoEvent]) -> Result<OracleStats, Violation> {
        let mut o = Oracle::new(home);
        for &e in events {
            o.apply(e)?;
        }
        Ok(o.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME: [usize; 4] = [0, 0, 1, 1];

    #[test]
    fn clean_cycle_replays() {
        use ProtoEvent::*;
        let trace = [
            Release { prog: 0, core: 1 },
            Acquire { prog: 1, core: 1 },
            Release { prog: 1, core: 1 },
            Reclaim { prog: 0, core: 1 },
        ];
        let stats = Oracle::replay(&HOME, &trace).expect("clean trace");
        assert_eq!(
            stats,
            OracleStats { acquires: 1, reclaims: 1, releases: 2, ..OracleStats::default() }
        );
    }

    #[test]
    fn steal_half_batches_replay_clean() {
        use ProtoEvent::*;
        let trace = [
            StealBatch { prog: 0, worker: 1, observed: 7, taken: 4 }, // ceil(7/2)
            StealBatch { prog: 0, worker: 0, observed: 1, taken: 1 },
            StealBatch { prog: 1, worker: 0, observed: 2, taken: 1 },
        ];
        let stats = Oracle::replay(&HOME, &trace).expect("steal-half batches are legal");
        assert_eq!(stats.steal_batches, 3);
    }

    #[test]
    fn over_steal_batch_is_caught() {
        use ProtoEvent::*;
        let v = Oracle::replay(&HOME, &[StealBatch { prog: 0, worker: 1, observed: 7, taken: 5 }])
            .unwrap_err();
        assert!(v.reason.contains("over-steal"), "{}", v.reason);
        let v = Oracle::replay(&HOME, &[StealBatch { prog: 0, worker: 1, observed: 3, taken: 4 }])
            .unwrap_err();
        assert!(v.reason.contains("from a queue of 3"), "{}", v.reason);
        let v = Oracle::replay(&HOME, &[StealBatch { prog: 0, worker: 1, observed: 3, taken: 0 }])
            .unwrap_err();
        assert!(v.reason.contains("zero tasks"), "{}", v.reason);
    }

    #[test]
    fn double_reclaim_is_caught() {
        use ProtoEvent::*;
        let trace = [
            Release { prog: 0, core: 0 },
            Reclaim { prog: 0, core: 0 },
            Reclaim { prog: 0, core: 0 },
        ];
        let v = Oracle::replay(&HOME, &trace).unwrap_err();
        assert_eq!(v.index, 2);
        assert!(v.reason.contains("already owns it"), "{}", v.reason);
    }

    #[test]
    fn foreign_reclaim_is_caught() {
        use ProtoEvent::*;
        let v = Oracle::replay(&HOME, &[Reclaim { prog: 1, core: 0 }]).unwrap_err();
        assert!(v.reason.contains("whose home is"), "{}", v.reason);
    }

    #[test]
    fn acquire_of_owned_core_is_caught() {
        use ProtoEvent::*;
        let v = Oracle::replay(&HOME, &[Acquire { prog: 1, core: 0 }]).unwrap_err();
        assert!(v.reason.contains("while owned by"), "{}", v.reason);
    }

    #[test]
    fn double_release_is_caught() {
        use ProtoEvent::*;
        let trace = [Release { prog: 0, core: 0 }, Release { prog: 0, core: 0 }];
        let v = Oracle::replay(&HOME, &trace).unwrap_err();
        assert!(v.reason.contains("double release"), "{}", v.reason);
    }

    #[test]
    fn reap_of_expired_program_frees_its_cores() {
        use ProtoEvent::*;
        let trace = [
            Expired { prog: 1 },
            Expired { prog: 1 }, // racing reaper: tolerated
            Reap { prog: 1, core: 2 },
            Reap { prog: 1, core: 3 },
            Acquire { prog: 0, core: 2 },
        ];
        let stats = Oracle::replay(&HOME, &trace).expect("clean reap trace");
        assert_eq!(stats, OracleStats { acquires: 1, reaps: 2, ..OracleStats::default() });
    }

    #[test]
    fn reap_without_expiry_is_caught() {
        use ProtoEvent::*;
        let v = Oracle::replay(&HOME, &[Reap { prog: 1, core: 2 }]).unwrap_err();
        assert!(v.reason.contains("never expired"), "{}", v.reason);
    }

    #[test]
    fn reap_of_foreign_or_free_core_is_caught() {
        use ProtoEvent::*;
        let trace = [Expired { prog: 1 }, Reap { prog: 1, core: 0 }];
        let v = Oracle::replay(&HOME, &trace).unwrap_err();
        assert!(v.reason.contains("while owned by prog 0"), "{}", v.reason);
        let trace = [Release { prog: 1, core: 2 }, Expired { prog: 1 }, Reap { prog: 1, core: 2 }];
        let v = Oracle::replay(&HOME, &trace).unwrap_err();
        assert!(v.reason.contains("but it is free"), "{}", v.reason);
    }

    #[test]
    fn task_lifecycles_replay_clean_and_finish_w1() {
        use ProtoEvent::*;
        let trace = [
            TaskSpawn { prog: 0, id: 0 },
            TaskSpawn { prog: 0, id: 1 },
            TaskSpawn { prog: 1, id: 0 },
            TaskExec { prog: 0, id: 1 },
            TaskExec { prog: 0, id: 0 },
            TaskExec { prog: 1, id: 0 },
        ];
        let mut o = Oracle::new(&HOME);
        for e in trace {
            o.apply(e).expect("clean lifecycle trace");
        }
        assert_eq!(o.stats.task_spawns, 3);
        assert_eq!(o.stats.task_execs, 3);
        o.finish(None).expect("W1 holds: every spawned task executed");
    }

    #[test]
    fn w1_catches_a_spawned_task_that_never_executes() {
        use ProtoEvent::*;
        let mut o = Oracle::new(&HOME);
        for e in [
            TaskSpawn { prog: 0, id: 0 },
            TaskSpawn { prog: 0, id: 7 },
            TaskExec { prog: 0, id: 0 },
        ] {
            o.apply(e).unwrap();
        }
        let e = o.finish(None).unwrap_err();
        assert!(e.contains("W1 violated: 1 spawned task(s)"), "{e}");
        assert!(e.contains("p0/t7"), "{e}");
    }

    #[test]
    fn w1_exempts_the_crash_victims_tasks() {
        use ProtoEvent::*;
        let mut o = Oracle::new(&HOME);
        for e in [
            TaskSpawn { prog: 0, id: 0 },
            TaskSpawn { prog: 1, id: 0 },
            TaskExec { prog: 0, id: 0 },
        ] {
            o.apply(e).unwrap();
        }
        o.finish(Some(1)).expect("victim's unexecuted task is exempt");
        assert!(o.finish(None).is_err(), "without the exemption it is a W1 loss");
    }

    #[test]
    fn w2_catches_a_double_execution() {
        use ProtoEvent::*;
        let mut o = Oracle::new(&HOME);
        o.apply(TaskSpawn { prog: 0, id: 3 }).unwrap();
        o.apply(TaskExec { prog: 0, id: 3 }).unwrap();
        let v = o.apply(TaskExec { prog: 0, id: 3 }).unwrap_err();
        assert!(v.reason.contains("W2 violated"), "{}", v.reason);
        assert!(v.reason.contains("executed twice"), "{}", v.reason);
    }

    #[test]
    fn orphan_exec_and_double_spawn_are_caught() {
        use ProtoEvent::*;
        let v = Oracle::replay(&HOME, &[TaskExec { prog: 0, id: 9 }]).unwrap_err();
        assert!(v.reason.contains("never spawned"), "{}", v.reason);
        let v =
            Oracle::replay(&HOME, &[TaskSpawn { prog: 1, id: 2 }, TaskSpawn { prog: 1, id: 2 }])
                .unwrap_err();
        assert!(v.reason.contains("spawned twice"), "{}", v.reason);
    }

    #[test]
    fn admitted_request_lifecycle_replays_clean_through_the_w1_ledger() {
        use ProtoEvent::*;
        // Program 0 starts with two tasks (ids 0–1); requests extend the
        // same id space.
        let trace = [
            TaskSpawn { prog: 0, id: 0 },
            TaskSpawn { prog: 0, id: 1 },
            Submit { prog: 0, id: 2 },
            Submit { prog: 0, id: 3 },
            Admit { prog: 0, id: 2 },
            TaskExec { prog: 0, id: 0 },
            TaskExec { prog: 0, id: 2 },
            Admit { prog: 0, id: 3 },
            TaskExec { prog: 0, id: 1 },
            TaskExec { prog: 0, id: 3 },
        ];
        let mut o = Oracle::new(&HOME);
        for e in trace {
            o.apply(e).expect("clean serving lifecycle");
        }
        assert_eq!(o.stats.submits, 2);
        assert_eq!(o.stats.admits, 2);
        assert_eq!(o.stats.task_execs, 4);
        o.finish(None).expect("every submitted request admitted and executed");
    }

    #[test]
    fn dropped_submit_is_caught_at_finish() {
        use ProtoEvent::*;
        // Request 3 enters the ring but the drain loses it: never
        // admitted, never executed — yet nothing else is wrong, so only
        // the admission ledger can see it.
        let mut o = Oracle::new(&HOME);
        for e in [
            Submit { prog: 0, id: 2 },
            Submit { prog: 0, id: 3 },
            Admit { prog: 0, id: 2 },
            TaskExec { prog: 0, id: 2 },
        ] {
            o.apply(e).unwrap();
        }
        let e = o.finish(None).unwrap_err();
        assert!(e.contains("admission lost: 1 submitted request(s)"), "{e}");
        assert!(e.contains("p0/r3"), "{e}");
    }

    #[test]
    fn admitted_request_that_never_executes_is_a_w1_loss() {
        use ProtoEvent::*;
        let mut o = Oracle::new(&HOME);
        for e in [Submit { prog: 1, id: 5 }, Admit { prog: 1, id: 5 }] {
            o.apply(e).unwrap();
        }
        let e = o.finish(None).unwrap_err();
        assert!(e.contains("W1 violated"), "{e}");
        assert!(e.contains("p1/t5"), "{e}");
    }

    #[test]
    fn admitted_request_double_exec_is_a_w2_loss() {
        use ProtoEvent::*;
        let mut o = Oracle::new(&HOME);
        o.apply(Submit { prog: 0, id: 4 }).unwrap();
        o.apply(Admit { prog: 0, id: 4 }).unwrap();
        o.apply(TaskExec { prog: 0, id: 4 }).unwrap();
        let v = o.apply(TaskExec { prog: 0, id: 4 }).unwrap_err();
        assert!(v.reason.contains("W2 violated"), "{}", v.reason);
    }

    #[test]
    fn fabricated_or_duplicated_admissions_are_caught() {
        use ProtoEvent::*;
        let v = Oracle::replay(&HOME, &[Admit { prog: 0, id: 9 }]).unwrap_err();
        assert!(v.reason.contains("never submitted"), "{}", v.reason);
        let v = Oracle::replay(
            &HOME,
            &[Submit { prog: 0, id: 9 }, Admit { prog: 0, id: 9 }, Admit { prog: 0, id: 9 }],
        )
        .unwrap_err();
        assert!(v.reason.contains("admitted twice"), "{}", v.reason);
        let v = Oracle::replay(&HOME, &[Submit { prog: 0, id: 9 }, Submit { prog: 0, id: 9 }])
            .unwrap_err();
        assert!(v.reason.contains("submitted twice"), "{}", v.reason);
    }

    #[test]
    fn admission_colliding_with_a_task_id_is_caught() {
        use ProtoEvent::*;
        let trace =
            [TaskSpawn { prog: 0, id: 0 }, Submit { prog: 0, id: 0 }, Admit { prog: 0, id: 0 }];
        let v = Oracle::replay(&HOME, &trace).unwrap_err();
        assert!(v.reason.contains("collides"), "{}", v.reason);
    }

    #[test]
    fn crash_victims_ringed_requests_are_exempt() {
        use ProtoEvent::*;
        let mut o = Oracle::new(&HOME);
        o.apply(Submit { prog: 1, id: 2 }).unwrap();
        o.finish(Some(1)).expect("victim's un-admitted request is exempt");
        assert!(o.finish(None).is_err(), "without the exemption it is an admission loss");
    }

    #[test]
    fn expired_program_performs_no_serving_transitions() {
        use ProtoEvent::*;
        let v =
            Oracle::replay(&HOME, &[Expired { prog: 1 }, Submit { prog: 1, id: 2 }]).unwrap_err();
        assert!(v.reason.contains("by expired prog 1"), "{}", v.reason);
        let trace = [Submit { prog: 1, id: 2 }, Expired { prog: 1 }, Admit { prog: 1, id: 2 }];
        let v = Oracle::replay(&HOME, &trace).unwrap_err();
        assert!(v.reason.contains("by expired prog 1"), "{}", v.reason);
    }

    #[test]
    fn replay_core_time_attributes_and_conserves() {
        use ProtoEvent::*;
        let timed = [
            (100, Release { prog: 0, core: 1 }),
            (250, Acquire { prog: 1, core: 1 }),
            // A non-transition event extends the horizon: time past the
            // last transition is charged to the final owners.
            (400, Sleep { prog: 0, worker: 0 }),
        ];
        let ct = replay_core_time(&HOME, &timed);
        assert_eq!(ct.t_end_ns, 400);
        // core 0: prog 0 the whole 400; core 1: prog 0 for 100, free for
        // 150, prog 1 for 150; cores 2-3: prog 1 the whole 400 each.
        assert_eq!(ct.per_prog, vec![500, 950]);
        assert_eq!(ct.free_ns, 150);
        assert_eq!(ct.total(), 4 * 400, "attribution is exhaustive by construction");
    }

    #[test]
    fn replay_core_time_of_an_empty_trace_is_zero() {
        let ct = replay_core_time(&HOME, &[]);
        assert_eq!(ct.per_prog, vec![0, 0]);
        assert_eq!(ct.free_ns, 0);
        assert_eq!(ct.total(), 0);
    }

    #[test]
    fn expired_program_performs_no_further_transitions() {
        use ProtoEvent::*;
        for bad in [
            Release { prog: 1, core: 2 },
            Acquire { prog: 1, core: 2 },
            Reclaim { prog: 1, core: 2 },
        ] {
            let trace = if matches!(bad, Acquire { .. }) {
                vec![Release { prog: 1, core: 2 }, Expired { prog: 1 }, bad]
            } else {
                vec![Expired { prog: 1 }, bad]
            };
            let v = Oracle::replay(&HOME, &trace).unwrap_err();
            assert!(v.reason.contains("by expired prog 1"), "{}", v.reason);
        }
    }

    #[test]
    fn doorbell_ring_wait_consume_replays_clean() {
        use ProtoEvent::*;
        let trace = [
            // Ring before the wait: consumed at wait entry, no sleep.
            DoorbellRing { prog: 0 },
            DoorbellConsume { prog: 0 },
            // Nothing pending: the coordinator parks, a ring lands, the
            // woken waiter consumes it.
            DoorbellSleep { prog: 0 },
            DoorbellRing { prog: 0 },
            DoorbellConsume { prog: 0 },
            // Rings accumulate: two rings collapse into one consume, and
            // the next sleep is legal again.
            DoorbellRing { prog: 1 },
            DoorbellRing { prog: 1 },
            DoorbellConsume { prog: 1 },
            DoorbellSleep { prog: 1 },
        ];
        Oracle::replay(&HOME, &trace).expect("clean doorbell trace");
    }

    #[test]
    fn doorbell_sleep_with_a_pending_ring_is_a_lost_wake() {
        use ProtoEvent::*;
        let trace = [DoorbellRing { prog: 0 }, DoorbellSleep { prog: 0 }];
        let v = Oracle::replay(&HOME, &trace).unwrap_err();
        assert!(v.reason.contains("lost wake"), "{}", v.reason);
        assert!(v.reason.contains("ring pending"), "{}", v.reason);
        // Per-program pending: prog 1's ring does not excuse prog 0.
        let trace = [DoorbellRing { prog: 1 }, DoorbellSleep { prog: 0 }];
        Oracle::replay(&HOME, &trace).expect("pending ring is per program");
    }

    #[test]
    fn a_suppressed_demand_must_be_sampled_before_the_coordinator_parks() {
        use ProtoEvent::*;
        let tick = CoordTick { prog: 0, n_b: 2, n_a: 1, n_w: 2 };
        // Ack before sample: whoever found the edge spent is in the sample.
        let clean = [
            DemandRing { prog: 0 },
            DoorbellRing { prog: 0 },
            DoorbellConsume { prog: 0 },
            DemandSuppressed { prog: 0 },
            DemandAck { prog: 0 },
            tick,
            DoorbellSleep { prog: 0 },
        ];
        Oracle::replay(&HOME, &clean).expect("ack-then-sample answers the suppressed demand");
        // A ring still in flight covers the park: it will end it.
        let in_flight = [
            DemandRing { prog: 0 },
            DemandSuppressed { prog: 0 },
            DoorbellSleep { prog: 0 },
            DoorbellRing { prog: 0 },
            DoorbellConsume { prog: 0 },
            DemandAck { prog: 0 },
            tick,
            DoorbellSleep { prog: 0 },
        ];
        Oracle::replay(&HOME, &in_flight).expect("the in-flight ring answers it");
        // Sample, then a worker finds the edge spent, then the ack wipes it.
        let late = [
            DemandRing { prog: 0 },
            DoorbellRing { prog: 0 },
            DoorbellConsume { prog: 0 },
            tick,
            DemandSuppressed { prog: 0 },
            DemandAck { prog: 0 },
            DoorbellSleep { prog: 0 },
        ];
        let v = Oracle::replay(&HOME, &late).unwrap_err();
        assert_eq!(v.index, 6);
        assert!(v.reason.contains("lost demand"), "{v:?}");
        // Another program's park is not this program's problem.
        Oracle::replay(&HOME, &[DemandSuppressed { prog: 0 }, DoorbellSleep { prog: 1 }])
            .expect("per-program rule");
    }

    #[test]
    fn doorbell_consume_without_a_ring_is_caught() {
        use ProtoEvent::*;
        let v = Oracle::replay(&HOME, &[DoorbellConsume { prog: 0 }]).unwrap_err();
        assert!(v.reason.contains("without a pending ring"), "{}", v.reason);
        // A consumed ring does not satisfy a second consume.
        let trace =
            [DoorbellRing { prog: 0 }, DoorbellConsume { prog: 0 }, DoorbellConsume { prog: 0 }];
        let v = Oracle::replay(&HOME, &trace).unwrap_err();
        assert!(v.reason.contains("without a pending ring"), "{}", v.reason);
    }

    #[test]
    fn rings_to_an_expired_programs_doorbell_are_advisory() {
        use ProtoEvent::*;
        // A surviving worker may ring the doorbell of a fenced co-runner
        // (its release targets the core's home program): harmless, since
        // nobody is listening.
        let trace = [Expired { prog: 1 }, DoorbellRing { prog: 1 }];
        Oracle::replay(&HOME, &trace).expect("advisory ring to a dead program");
    }

    #[test]
    fn expired_program_consumes_no_further_work() {
        use ProtoEvent::*;
        // A zombie stealing a batch after its fence.
        let trace = [Expired { prog: 1 }, StealBatch { prog: 1, worker: 0, observed: 4, taken: 2 }];
        let v = Oracle::replay(&HOME, &trace).unwrap_err();
        assert!(v.reason.contains("post-fence activity by expired prog 1"), "{}", v.reason);
        // A zombie executing a legitimately spawned task after its fence:
        // W1/W2 would both stay clean, only the post-fence rule objects.
        let trace =
            [TaskSpawn { prog: 1, id: 0 }, Expired { prog: 1 }, TaskExec { prog: 1, id: 0 }];
        let v = Oracle::replay(&HOME, &trace).unwrap_err();
        assert!(v.reason.contains("post-fence activity by expired prog 1"), "{}", v.reason);
        // The same work *before* the fence is fine.
        let trace =
            [TaskSpawn { prog: 1, id: 0 }, TaskExec { prog: 1, id: 0 }, Expired { prog: 1 }];
        Oracle::replay(&HOME, &trace).expect("pre-fence work is legal");
    }
}
