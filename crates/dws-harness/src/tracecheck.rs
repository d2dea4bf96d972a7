//! Causal task-lifecycle analysis over exported JSONL traces: the
//! library behind `dws-trace analyze`.
//!
//! A traced run (`rttrace`, or any program calling
//! [`dws_rt::export::to_jsonl`]) leaves one JSONL line per event. This
//! module reconstructs each task's span from its `Spawn` / `Enqueue` /
//! `ExecBegin` / `ExecEnd` events, keyed by the packed [`dws_rt::TaskId`], and
//! reports per program:
//!
//! * **sojourn** percentiles (spawn → exec-begin, exact over all spans,
//!   not log₂-bucketed like the live histogram);
//! * **request sojourn** percentiles for served traffic: `Admit` events
//!   carry the client-side submit timestamp, so `ExecBegin − submit` is
//!   the end-to-end latency a client of a serving program observed
//!   (DESIGN §13);
//! * **steal-chain depth**: how many lane migrations each task's spawn
//!   ancestry accumulated (a task spawned by a task that was itself
//!   stolen sits at depth ≥ 2);
//! * a **critical-path estimate**: the heaviest spawn-ancestry chain by
//!   summed execution time;
//! * the **W1/W2 identity rules** — every spawned task executes (W1),
//!   no task executes twice (W2) — the offline mirror of the rules
//!   `dws-check` enforces under schedule exploration.
//!
//! W1 is only *sound* on a lossless trace: a ring eviction can swallow
//! an `ExecBegin` and fake a lost task. Snapshots that report
//! `events_dropped` are therefore judged on W2 alone (duplicates are
//! positive evidence regardless of holes).

use std::collections::{BTreeMap, HashMap};

use dws_rt::trace::LANE_SHARED;
use dws_rt::{RtEvent, TimedEvent, TraceSnapshot};

/// One task's reconstructed lifecycle.
#[derive(Debug, Clone, Default)]
pub struct TaskSpan {
    /// Client-side submit timestamp (µs since trace epoch) for external
    /// requests, from the `Admit` event. `None` for ordinary spawned
    /// tasks.
    pub submit_t: Option<u64>,
    /// Spawn timestamp (µs since trace epoch), if captured. For admitted
    /// requests this is the admission (drain) instant — the lifecycle
    /// start inside the runtime.
    pub spawn_t: Option<u64>,
    /// Lane the spawn was recorded on ([`LANE_SHARED`] for injected
    /// tasks).
    pub spawn_lane: Option<u32>,
    /// First `ExecBegin` timestamp, if captured.
    pub exec_begin_t: Option<u64>,
    /// Matching `ExecEnd` timestamp, if captured.
    pub exec_end_t: Option<u64>,
    /// Lane of the first `ExecBegin`.
    pub exec_lane: Option<u32>,
    /// Number of `ExecBegin` events observed (> 1 is a W2 violation).
    pub exec_count: usize,
}

impl TaskSpan {
    /// Queue sojourn in µs (spawn → exec-begin), when both ends exist.
    pub fn sojourn_us(&self) -> Option<u64> {
        Some(self.exec_begin_t?.saturating_sub(self.spawn_t?))
    }

    /// End-to-end request sojourn in µs (client submit → exec-begin);
    /// `None` for tasks that did not arrive through the submission ring.
    pub fn request_sojourn_us(&self) -> Option<u64> {
        Some(self.exec_begin_t?.saturating_sub(self.submit_t?))
    }

    /// Did the task execute on a different lane than it was spawned on?
    /// `None` until both ends exist; spawns on the shared lane (injected
    /// tasks) always count as migrated — they necessarily crossed into a
    /// worker.
    pub fn migrated(&self) -> Option<bool> {
        Some(self.spawn_lane? != self.exec_lane?)
    }
}

/// The verdict and statistics for one program's event stream.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Program id (the JSONL `prog` field).
    pub prog: usize,
    /// Tasks with a captured `Spawn`.
    pub spawned: usize,
    /// Tasks with at least one captured `ExecBegin`.
    pub executed: usize,
    /// Executed tasks whose exec lane differs from their spawn lane.
    pub migrated: usize,
    /// Sojourn samples backing the percentiles.
    pub sojourn_count: usize,
    /// Exact sojourn p50 in µs (0 when no samples).
    pub sojourn_p50_us: u64,
    /// Exact sojourn p99 in µs.
    pub sojourn_p99_us: u64,
    /// Exact sojourn p99.9 in µs.
    pub sojourn_p999_us: u64,
    /// Requests admitted through the submission ring (tasks with an
    /// `Admit` event).
    pub admitted: usize,
    /// Request-sojourn samples backing the request percentiles.
    pub request_count: usize,
    /// Exact end-to-end request sojourn p50 in µs (client submit →
    /// exec-begin; 0 when no requests were served).
    pub request_p50_us: u64,
    /// Exact request sojourn p99 in µs.
    pub request_p99_us: u64,
    /// Exact request sojourn p99.9 in µs.
    pub request_p999_us: u64,
    /// Deepest steal chain (migrations along a spawn ancestry).
    pub steal_chain_max: usize,
    /// Mean steal-chain depth over executed tasks.
    pub steal_chain_mean: f64,
    /// Critical-path estimate: heaviest spawn-ancestry chain by summed
    /// execution time, in µs.
    pub critical_path_us: u64,
    /// Tasks on that heaviest chain.
    pub critical_path_len: usize,
    /// W1 violations: spawned but never executed.
    pub w1_unexecuted: usize,
    /// W2 violations: executed more than once.
    pub w2_duplicates: usize,
    /// Executed with no captured spawn (truncation, or an unstamped id).
    pub orphan_execs: usize,
    /// Events the ring dropped while recording (from the trailing
    /// metadata line); nonzero makes W1 unjudgeable.
    pub events_dropped: u64,
}

impl ProgramReport {
    /// Is W1 judgeable (no holes in the record)?
    pub fn sound(&self) -> bool {
        self.events_dropped == 0
    }

    /// Identity verdict: W2 always judged; W1 and orphans only on a
    /// lossless trace.
    pub fn clean(&self) -> bool {
        self.w2_duplicates == 0
            && (!self.sound() || (self.w1_unexecuted == 0 && self.orphan_execs == 0))
    }
}

/// Parses a JSONL export (one or more programs concatenated, as
/// `rttrace` writes) back into per-program snapshots. Trailing
/// `{"prog":…,"events_dropped":…}` metadata lines set `dropped`.
pub fn parse_jsonl(text: &str) -> Result<BTreeMap<usize, TraceSnapshot>, String> {
    let mut out: BTreeMap<usize, TraceSnapshot> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: serde_json::Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let prog =
            v["prog"].as_u64().ok_or_else(|| format!("line {}: missing prog field", i + 1))?
                as usize;
        let snap = out.entry(prog).or_default();
        if let Some(dropped) = v.get("events_dropped").and_then(|d| d.as_u64()) {
            snap.dropped += dropped;
            continue;
        }
        let ev: TimedEvent =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        snap.events.push(ev);
    }
    Ok(out)
}

/// Reconstructs per-task spans from one program's events.
pub fn spans(snapshot: &TraceSnapshot) -> HashMap<u64, TaskSpan> {
    let mut spans: HashMap<u64, TaskSpan> = HashMap::new();
    for ev in &snapshot.events {
        match ev.event {
            RtEvent::Spawn { id } => {
                let s = spans.entry(id).or_default();
                s.spawn_t = Some(ev.t_us);
                s.spawn_lane = Some(ev.lane);
            }
            // Admission is the spawn of an external request (the drain
            // instant), plus the client-side submit timestamp that
            // extends the lifecycle one hop earlier.
            RtEvent::Admit { id, submit_us } => {
                let s = spans.entry(id).or_default();
                s.submit_t = Some(submit_us);
                s.spawn_t = Some(ev.t_us);
                s.spawn_lane = Some(ev.lane);
            }
            RtEvent::ExecBegin { id, .. } => {
                let s = spans.entry(id).or_default();
                s.exec_count += 1;
                if s.exec_begin_t.is_none() {
                    s.exec_begin_t = Some(ev.t_us);
                    s.exec_lane = Some(ev.lane);
                }
            }
            RtEvent::ExecEnd { id, .. } => {
                let s = spans.entry(id).or_default();
                if s.exec_end_t.is_none() {
                    s.exec_end_t = Some(ev.t_us);
                }
            }
            _ => {}
        }
    }
    spans
}

/// Exact quantile by nearest rank (⌈qn⌉-th value) over a sorted slice
/// (0 when empty).
fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Causal parent of each task: the task whose exec interval on the
/// child's spawn lane contains the spawn instant — the task that was
/// *running there* when the child was pushed. Injected tasks (shared
/// lane) and tasks spawned outside any captured interval have no parent.
fn parents(spans: &HashMap<u64, TaskSpan>) -> HashMap<u64, u64> {
    // Per-lane exec intervals, sorted by begin time.
    let mut by_lane: HashMap<u32, Vec<(u64, u64, u64)>> = HashMap::new();
    for (&id, s) in spans {
        if let (Some(b), Some(lane)) = (s.exec_begin_t, s.exec_lane) {
            let e = s.exec_end_t.unwrap_or(u64::MAX);
            by_lane.entry(lane).or_default().push((b, e, id));
        }
    }
    for v in by_lane.values_mut() {
        v.sort_unstable();
    }
    let mut out = HashMap::new();
    for (&id, s) in spans {
        let (Some(t), Some(lane)) = (s.spawn_t, s.spawn_lane) else { continue };
        if lane == LANE_SHARED {
            continue;
        }
        let Some(intervals) = by_lane.get(&lane) else { continue };
        // Last interval starting at or before the spawn whose end covers
        // it. Join-style nesting means an enclosing interval is the
        // *innermost* among those; scan back a bounded window.
        let pos = intervals.partition_point(|&(b, _, _)| b <= t);
        for &(b, e, pid) in intervals[..pos].iter().rev().take(64) {
            if pid != id && b <= t && t <= e {
                out.insert(id, pid);
                break;
            }
        }
    }
    out
}

/// Analyzes one program's snapshot into a [`ProgramReport`].
pub fn analyze(prog: usize, snapshot: &TraceSnapshot) -> ProgramReport {
    let spans = spans(snapshot);
    let parent = parents(&spans);

    let spawned = spans.values().filter(|s| s.spawn_t.is_some()).count();
    let executed = spans.values().filter(|s| s.exec_count > 0).count();
    let migrated = spans.values().filter(|s| s.migrated() == Some(true)).count();
    let w1_unexecuted = spans.values().filter(|s| s.spawn_t.is_some() && s.exec_count == 0).count();
    let w2_duplicates = spans.values().filter(|s| s.exec_count > 1).count();
    let orphan_execs = spans.values().filter(|s| s.exec_count > 0 && s.spawn_t.is_none()).count();

    let mut sojourns: Vec<u64> = spans.values().filter_map(|s| s.sojourn_us()).collect();
    sojourns.sort_unstable();

    let admitted = spans.values().filter(|s| s.submit_t.is_some()).count();
    let mut requests: Vec<u64> = spans.values().filter_map(|s| s.request_sojourn_us()).collect();
    requests.sort_unstable();

    // Steal-chain depth and critical path walk the same parent chains;
    // memoize both to keep deep recursion-free.
    let mut depth: HashMap<u64, usize> = HashMap::new();
    let mut cp: HashMap<u64, (u64, usize)> = HashMap::new();
    for &id in spans.keys() {
        // Iterative walk up the ancestry until a memoized node or a root.
        let mut chain = Vec::new();
        let mut cur = id;
        while !depth.contains_key(&cur) {
            chain.push(cur);
            match parent.get(&cur) {
                Some(&p) if !chain.contains(&p) => cur = p,
                _ => break,
            }
        }
        for &n in chain.iter().rev() {
            let s = &spans[&n];
            let own_migrated = usize::from(s.migrated() == Some(true));
            let own_work = match (s.exec_begin_t, s.exec_end_t) {
                (Some(b), Some(e)) => e.saturating_sub(b),
                _ => 0,
            };
            let (pd, pcp, plen) = match parent.get(&n) {
                Some(p) => {
                    let d = depth.get(p).copied().unwrap_or(0);
                    let (c, l) = cp.get(p).copied().unwrap_or((0, 0));
                    (d, c, l)
                }
                None => (0, 0, 0),
            };
            depth.insert(n, pd + own_migrated);
            cp.insert(n, (pcp + own_work, plen + 1));
        }
    }
    let steal_chain_max = depth.values().copied().max().unwrap_or(0);
    let steal_chain_mean = if executed == 0 {
        0.0
    } else {
        spans
            .iter()
            .filter(|(_, s)| s.exec_count > 0)
            .map(|(id, _)| depth.get(id).copied().unwrap_or(0))
            .sum::<usize>() as f64
            / executed as f64
    };
    let (critical_path_us, critical_path_len) = cp.values().copied().max().unwrap_or((0, 0));

    ProgramReport {
        prog,
        spawned,
        executed,
        migrated,
        sojourn_count: sojourns.len(),
        sojourn_p50_us: quantile_us(&sojourns, 0.5),
        sojourn_p99_us: quantile_us(&sojourns, 0.99),
        sojourn_p999_us: quantile_us(&sojourns, 0.999),
        admitted,
        request_count: requests.len(),
        request_p50_us: quantile_us(&requests, 0.5),
        request_p99_us: quantile_us(&requests, 0.99),
        request_p999_us: quantile_us(&requests, 0.999),
        steal_chain_max,
        steal_chain_mean,
        critical_path_us,
        critical_path_len,
        w1_unexecuted,
        w2_duplicates,
        orphan_execs,
        events_dropped: snapshot.dropped,
    }
}

fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else {
        format!("{:.1}ms", us as f64 / 1_000.0)
    }
}

/// Renders one report as the `dws-trace analyze` text block.
pub fn render_report(r: &ProgramReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "program {}: {} spawned, {} executed ({} migrated)\n",
        r.prog, r.spawned, r.executed, r.migrated
    ));
    out.push_str(&format!(
        "  sojourn  p50 {} p99 {} p999 {}  ({} samples)\n",
        fmt_us(r.sojourn_p50_us),
        fmt_us(r.sojourn_p99_us),
        fmt_us(r.sojourn_p999_us),
        r.sojourn_count
    ));
    if r.admitted > 0 {
        out.push_str(&format!(
            "  request  p50 {} p99 {} p999 {}  ({} admitted, {} samples)\n",
            fmt_us(r.request_p50_us),
            fmt_us(r.request_p99_us),
            fmt_us(r.request_p999_us),
            r.admitted,
            r.request_count
        ));
    }
    out.push_str(&format!(
        "  steal-chain depth max {} mean {:.2}   critical path ~{} over {} tasks\n",
        r.steal_chain_max,
        r.steal_chain_mean,
        fmt_us(r.critical_path_us),
        r.critical_path_len
    ));
    if r.events_dropped > 0 {
        out.push_str(&format!(
            "  WARNING: {} events dropped — W1 unjudgeable on a lossy trace\n",
            r.events_dropped
        ));
    } else {
        out.push_str(&format!(
            "  W1 every spawned task executed: {}\n",
            if r.w1_unexecuted == 0 && r.orphan_execs == 0 {
                "OK".to_string()
            } else {
                format!(
                    "VIOLATED ({} unexecuted, {} orphan execs)",
                    r.w1_unexecuted, r.orphan_execs
                )
            }
        ));
    }
    out.push_str(&format!(
        "  W2 no task executed twice: {}\n",
        if r.w2_duplicates == 0 {
            "OK".to_string()
        } else {
            format!("VIOLATED ({} duplicates)", r.w2_duplicates)
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_rt::TaskId;

    fn ev(t_us: u64, lane: u32, event: RtEvent) -> TimedEvent {
        TimedEvent { t_us, lane, event }
    }

    fn id(prog: usize, worker: usize, seq: u64) -> u64 {
        TaskId::new(prog, worker, seq).as_u64()
    }

    /// Root task injected (shared lane), executed on worker 0; it spawns
    /// a child on lane 0 which is stolen to lane 1; the child spawns a
    /// grandchild executed locally on lane 1.
    fn three_task_snapshot() -> TraceSnapshot {
        let root = id(0, TaskId::EXTERNAL_WORKER, 0);
        let child = id(0, 0, 0);
        let grand = id(0, 1, 0);
        TraceSnapshot {
            events: vec![
                ev(1, LANE_SHARED, RtEvent::Spawn { id: root }),
                ev(1, LANE_SHARED, RtEvent::Enqueue { id: root }),
                ev(5, 0, RtEvent::ExecBegin { worker: 0, id: root }),
                ev(10, 0, RtEvent::Spawn { id: child }),
                ev(10, 0, RtEvent::Enqueue { id: child }),
                ev(40, 0, RtEvent::ExecEnd { worker: 0, id: root }),
                ev(60, 1, RtEvent::ExecBegin { worker: 1, id: child }),
                ev(70, 1, RtEvent::Spawn { id: grand }),
                ev(70, 1, RtEvent::Enqueue { id: grand }),
                ev(90, 1, RtEvent::ExecEnd { worker: 1, id: child }),
                ev(95, 1, RtEvent::ExecBegin { worker: 1, id: grand }),
                ev(100, 1, RtEvent::ExecEnd { worker: 1, id: grand }),
            ],
            dropped: 0,
        }
    }

    /// Two external requests admitted through the submission ring (the
    /// `Admit` event carries the client submit time), each executed once
    /// on a worker.
    fn serving_snapshot() -> TraceSnapshot {
        let a = id(0, TaskId::EXTERNAL_WORKER, 0);
        let b = id(0, TaskId::EXTERNAL_WORKER, 1);
        TraceSnapshot {
            events: vec![
                ev(20, LANE_SHARED, RtEvent::Admit { id: a, submit_us: 5 }),
                ev(20, LANE_SHARED, RtEvent::Enqueue { id: a }),
                ev(21, LANE_SHARED, RtEvent::Admit { id: b, submit_us: 9 }),
                ev(21, LANE_SHARED, RtEvent::Enqueue { id: b }),
                ev(30, 0, RtEvent::ExecBegin { worker: 0, id: a }),
                ev(35, 0, RtEvent::ExecEnd { worker: 0, id: a }),
                ev(50, 1, RtEvent::ExecBegin { worker: 1, id: b }),
                ev(58, 1, RtEvent::ExecEnd { worker: 1, id: b }),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn admits_extend_lifecycles_to_the_client_submit() {
        let served = spans(&serving_snapshot());
        let a = &served[&id(0, TaskId::EXTERNAL_WORKER, 0)];
        // Task sojourn starts at admission; request sojourn at submit.
        assert_eq!(a.sojourn_us(), Some(10));
        assert_eq!(a.request_sojourn_us(), Some(25));
        let b = &served[&id(0, TaskId::EXTERNAL_WORKER, 1)];
        assert_eq!(b.request_sojourn_us(), Some(41));
        // A plain spawned task has no request sojourn.
        let plain = spans(&three_task_snapshot());
        assert_eq!(plain[&id(0, 0, 0)].request_sojourn_us(), None);
    }

    #[test]
    fn serving_report_has_request_percentiles_and_stays_w1_clean() {
        let r = analyze(0, &serving_snapshot());
        // Admission counts as the spawn: admitted requests must not be
        // misjudged as W1 orphans.
        assert!(r.clean(), "{r:?}");
        assert_eq!((r.admitted, r.request_count), (2, 2));
        assert_eq!((r.request_p50_us, r.request_p99_us, r.request_p999_us), (25, 41, 41));
        let text = render_report(&r);
        assert!(
            text.contains("request  p50 25us p99 41us p999 41us  (2 admitted, 2 samples)"),
            "{text}"
        );
    }

    #[test]
    fn non_serving_report_omits_the_request_line() {
        let r = analyze(0, &three_task_snapshot());
        assert_eq!((r.admitted, r.request_count), (0, 0));
        assert!(!render_report(&r).contains("request "));
    }

    #[test]
    fn spans_reconstruct_lifecycles() {
        let snap = three_task_snapshot();
        let spans = spans(&snap);
        assert_eq!(spans.len(), 3);
        let child = &spans[&id(0, 0, 0)];
        assert_eq!(child.sojourn_us(), Some(50));
        assert_eq!(child.migrated(), Some(true));
        let grand = &spans[&id(0, 1, 0)];
        assert_eq!(grand.sojourn_us(), Some(25));
        assert_eq!(grand.migrated(), Some(false));
    }

    #[test]
    fn report_counts_migrations_chains_and_critical_path() {
        let r = analyze(0, &three_task_snapshot());
        assert_eq!((r.spawned, r.executed), (3, 3));
        // Root (shared→0) and child (0→1) migrated; grandchild local.
        assert_eq!(r.migrated, 2);
        assert!(r.clean(), "{r:?}");
        assert_eq!(r.w1_unexecuted, 0);
        assert_eq!(r.w2_duplicates, 0);
        // Child's parent is root (its spawn falls inside root's exec on
        // lane 0); grandchild's parent is child. Depth counts migrated
        // hops: root 1, child 2, grandchild 2.
        assert_eq!(r.steal_chain_max, 2);
        // Critical path: root 35 + child 30 + grandchild 5 = 70µs, 3 deep.
        assert_eq!((r.critical_path_us, r.critical_path_len), (70, 3));
        let text = render_report(&r);
        assert!(text.contains("W1 every spawned task executed: OK"));
        assert!(text.contains("W2 no task executed twice: OK"));
    }

    #[test]
    fn w1_catches_a_lost_task_on_lossless_traces_only() {
        let mut snap = three_task_snapshot();
        let grand = id(0, 1, 0);
        // Drop the grandchild's exec pair: spawned but never executed.
        snap.events.retain(|e| {
            !matches!(e.event,
                RtEvent::ExecBegin { id, .. } | RtEvent::ExecEnd { id, .. } if id == grand)
        });
        let r = analyze(0, &snap);
        assert_eq!(r.w1_unexecuted, 1);
        assert!(!r.clean());
        assert!(render_report(&r).contains("VIOLATED (1 unexecuted"));
        // The same trace with drops recorded is unjudgeable, not dirty.
        snap.dropped = 3;
        let r = analyze(0, &snap);
        assert!(r.clean(), "lossy trace must not fail W1");
        assert!(render_report(&r).contains("W1 unjudgeable"));
    }

    #[test]
    fn w2_catches_a_double_execution_even_on_lossy_traces() {
        let mut snap = three_task_snapshot();
        snap.events.push(ev(120, 0, RtEvent::ExecBegin { worker: 0, id: id(0, 1, 0) }));
        snap.dropped = 9; // holes do not excuse a duplicate
        let r = analyze(0, &snap);
        assert_eq!(r.w2_duplicates, 1);
        assert!(!r.clean());
        assert!(render_report(&r).contains("VIOLATED (1 duplicates)"));
    }

    #[test]
    fn jsonl_round_trips_through_the_exporter() {
        let snap = three_task_snapshot();
        let mut text = dws_rt::export::to_jsonl(0, &snap);
        let mut other = three_task_snapshot();
        other.dropped = 4;
        text.push_str(&dws_rt::export::to_jsonl(1, &other));
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[&0].events, snap.events);
        assert_eq!(parsed[&0].dropped, 0);
        assert_eq!(parsed[&1].dropped, 4);
        assert!(parse_jsonl("not json").is_err());
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_us(&sorted, 0.5), 500);
        assert_eq!(quantile_us(&sorted, 0.99), 990);
        assert_eq!(quantile_us(&sorted, 0.999), 999);
        assert_eq!(quantile_us(&[], 0.5), 0);
        assert_eq!(quantile_us(&[7], 0.999), 7);
    }
}
