//! What the two serving workloads share: the per-request log the handler
//! stamps, the open-loop generator, and the statistics of one offered
//! schedule.
//!
//! Sojourn is stamped here, in the handler, from each request's *due*
//! time. The runtime's own `request_sojourn` histogram is not read: it is
//! log2-bucketed and only fills with tracing on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dws_rt::{Request, SubmitError};

use super::Outcome;
use crate::host::{self, now_ns};
use crate::probe::{set_parent, worker_identity, Span, Tracer};
use crate::sched::{pace_until, Arrival};
use crate::stats::{median, quantile, steady_quantile};
use crate::work::burn_us;

/// Handler-side stamps, indexed by request id.
pub struct ReqLog {
    entry_ns: Vec<AtomicU64>,
    exit_ns: Vec<AtomicU64>,
    /// Requests whose handler ran more than once (a W2 violation).
    doubles: AtomicU64,
    tracer: Option<Arc<Tracer>>,
}

impl ReqLog {
    pub fn new(capacity: usize, tracer: Option<Arc<Tracer>>) -> Arc<ReqLog> {
        let zeros = |n| (0..n).map(|_| AtomicU64::new(0)).collect();
        Arc::new(ReqLog {
            entry_ns: zeros(capacity),
            exit_ns: zeros(capacity),
            doubles: AtomicU64::new(0),
            tracer,
        })
    }

    /// The request handler: stamp entry, burn the demand, stamp exit.
    pub fn handler(self: &Arc<Self>) -> impl Fn(Request) + Send + Sync + 'static {
        let log = Arc::clone(self);
        move |req: Request| {
            let i = req.req_id as usize;
            let entered =
                log.entry_ns[i].compare_exchange(0, now_ns(), Ordering::AcqRel, Ordering::Relaxed);
            if entered.is_err() {
                log.doubles.fetch_add(1, Ordering::Relaxed);
            }
            if let (Some(tr), Some((prog, core))) = (&log.tracer, worker_identity()) {
                tr.note_exec(prog, core);
            }
            burn_us(req.demand_us);
            log.exit_ns[i].store(now_ns(), Ordering::Release);
        }
    }

    fn exited(&self, id: u64) -> bool {
        self.exit_ns[id as usize].load(Ordering::Acquire) != 0
    }
}

/// Generator-side record of one offered request.
pub struct Offered {
    pub id: u64,
    pub due_ns: u64,
    pub submit_ns: u64,
    pub submitted_ns: u64,
    pub refused: Option<SubmitError>,
    /// Span id reserved for `rt.submit` (traced runs; else 0).
    span: u64,
}

/// Offers `schedule` open-loop: each request is submitted once at its due
/// time and never retried. Request ids count up from `first_id`. Returns
/// the records and the CPU seconds the generator itself used.
///
/// The generator is one thread of its own, pinned to the last CPU. Left to
/// float, it and the worker it wakes (through the coordinator) are stacked
/// on one CPU by the kernel's wake-affine placement in about half of all
/// runs, and the median sojourn doubles from run to run for reasons that
/// are the benchmark's, not the runtime's. For the same reason, with
/// `yield_after_submit` the generator yields once after each submit: the
/// coordinator it just woke is often placed on its CPU and would otherwise
/// wait out the spin toward the next due time. That is only right while
/// the CPUs are otherwise idle; beside a greedy batch program a yield gives
/// the CPU away for a whole time slice and the generator runs late.
pub fn offer(
    schedule: &[Arrival],
    first_id: u64,
    tracer: Option<&Tracer>,
    yield_after_submit: bool,
    mut submit: impl FnMut(u64, u64) -> Result<(), SubmitError> + Send,
) -> (Vec<Offered>, f64) {
    let generate = move || {
        dws_rt::affinity::pin_current_thread(host::nproc() - 1);
        let cpu0 = host::thread_cpu_s();
        let start_ns = now_ns() + 1_000_000;
        let mut out = Vec::with_capacity(schedule.len());
        for (i, a) in schedule.iter().enumerate() {
            let id = first_id + i as u64;
            let due_ns = start_ns + a.due_us * 1_000;
            pace_until(due_ns);
            let span = tracer.map_or(0, Tracer::new_id);
            // The doorbell ring made inside the submit call is its child.
            set_parent(span);
            let submit_ns = now_ns();
            let refused = submit(id, a.demand_us).err();
            let submitted_ns = now_ns();
            if yield_after_submit {
                std::thread::yield_now();
            }
            out.push(Offered { id, due_ns, submit_ns, submitted_ns, refused, span });
        }
        (out, host::thread_cpu_s() - cpu0)
    };
    std::thread::scope(|s| {
        let handle =
            std::thread::Builder::new().name("bench-generator".into()).spawn_scoped(s, generate);
        handle.expect("spawn the generator").join().expect("generator")
    })
}

/// Waits until every accepted request of `offered` has left its handler,
/// for at most `patience`.
pub fn settle(log: &ReqLog, offered: &[Offered], patience: Duration) {
    let deadline = Instant::now() + patience;
    for o in offered.iter().rev().filter(|o| o.refused.is_none()) {
        while !log.exited(o.id) {
            if Instant::now() > deadline {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// The statistics of one offered schedule (a rung, or a whole window).
pub struct RungStats {
    pub offered: u64,
    pub failed: u64,
    pub rate_per_s: f64,
    /// Due → handler entry, µs, of executed requests in due order.
    pub sojourn_us: Vec<f64>,
    /// Due → handler exit, µs, of the same requests.
    pub response_us: Vec<f64>,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Median sojourn of the last fifth over that of the first fifth.
    pub backlog_growth: f64,
    /// Median sojourn of the last fifth, µs.
    pub last_fifth_us: f64,
    /// Latest handler entry, seconds after the last due time.
    pub drain_s: f64,
}

impl RungStats {
    /// The serving limit: sojourn p99 within `limit_us`, no growing
    /// backlog, nearly nothing failed. A last fifth whose median is under a
    /// tenth of the limit is no backlog, whatever it is a multiple of: when
    /// the host's idle CPUs wake in 20 µs for the first seconds of a rung
    /// and in 150 µs for the last, the ratio says 4 and nothing is queued.
    pub fn passes(&self, limit_us: f64) -> bool {
        self.p99_us <= limit_us
            && (self.backlog_growth <= 2.0 || self.last_fifth_us <= limit_us / 10.0)
            && self.drain_s <= 1.0
            && self.failed as f64 <= 0.001 * self.offered as f64
    }
}

/// Evaluates `offered` against the handler log. Refused, never executed
/// and doubly executed requests all count as failed; the latter two are
/// also output errors (W1/W2) and land in `problems`.
pub fn rung_stats(log: &ReqLog, offered: &[Offered], problems: &mut Vec<String>) -> RungStats {
    let mut failed = 0;
    let mut lost = 0;
    let mut sojourn_us = Vec::with_capacity(offered.len());
    let mut response_us = Vec::with_capacity(offered.len());
    let mut last_entry_ns = 0;
    for o in offered {
        let entry = log.entry_ns[o.id as usize].load(Ordering::Acquire);
        if o.refused.is_some() {
            failed += 1;
            if entry != 0 {
                problems.push(format!("request {}: refused yet executed", o.id));
            }
            continue;
        }
        if entry == 0 {
            failed += 1;
            lost += 1;
            continue;
        }
        sojourn_us.push(entry.saturating_sub(o.due_ns) as f64 / 1e3);
        let exit = log.exit_ns[o.id as usize].load(Ordering::Acquire);
        response_us.push(exit.max(entry).saturating_sub(o.due_ns) as f64 / 1e3);
        last_entry_ns = last_entry_ns.max(entry);
    }
    if lost > 0 {
        problems.push(format!("{lost} accepted requests never executed (W1)"));
    }
    // Medians, not means: one burst of large demands in a fifth moves a
    // mean of heavy-tailed sojourns severalfold on a rung that is keeping up.
    let fifth = sojourn_us.len() / 5;
    let last_fifth_us = median(&sojourn_us[sojourn_us.len() - fifth..]);
    let backlog_growth =
        if fifth == 0 { 1.0 } else { last_fifth_us / median(&sojourn_us[..fifth]).max(1.0) };
    let (first_due, last_due) =
        (offered.first().map_or(0, |o| o.due_ns), offered.last().map_or(0, |o| o.due_ns));
    RungStats {
        offered: offered.len() as u64,
        failed,
        rate_per_s: sojourn_us.len() as f64 / ((last_due - first_due).max(1) as f64 / 1e9),
        p50_us: steady_quantile(&sojourn_us, 0.5),
        p99_us: steady_quantile(&sojourn_us, 0.99),
        sojourn_us,
        response_us,
        backlog_growth,
        last_fifth_us,
        drain_s: last_entry_ns.saturating_sub(last_due) as f64 / 1e9,
    }
}

/// Checks the exactly-once count for the whole log.
pub fn check_no_doubles(log: &ReqLog, problems: &mut Vec<String>) -> u64 {
    let doubles = log.doubles.load(Ordering::Relaxed);
    if doubles > 0 {
        problems.push(format!("{doubles} requests executed more than once (W2)"));
    }
    doubles
}

/// Generator and handler layer values of `offered`, and on the traced run
/// the four spans of each request: `gen.due → rt.submit → rt.dispatch →
/// handler.exec`, chained as parent and child under the request id.
pub fn record_request_layers(
    log: &ReqLog,
    offered: &[Offered],
    prog: usize,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) {
    let (mut late, mut submit, mut dispatch, mut exec) = (vec![], vec![], vec![], vec![]);
    for o in offered {
        late.push(o.submit_ns.saturating_sub(o.due_ns) as f64 / 1e3);
        submit.push((o.submitted_ns - o.submit_ns) as f64);
        let entry = log.entry_ns[o.id as usize].load(Ordering::Acquire);
        let exit = log.exit_ns[o.id as usize].load(Ordering::Acquire);
        if o.refused.is_some() || entry == 0 || exit == 0 {
            continue;
        }
        // A worker can enter the handler before `submit` has returned.
        dispatch.push(entry.saturating_sub(o.submitted_ns) as f64 / 1e3);
        exec.push((exit - entry) as f64 / 1e3);
        if let Some(tr) = tracer {
            let due = tr.span_at("gen.due", o.id, prog, 0, o.due_ns, o.submit_ns);
            tr.record(Span {
                id: o.span,
                parent: due,
                trace: o.id,
                name: "rt.submit",
                prog: prog as u32,
                t0_ns: o.submit_ns,
                t1_ns: o.submitted_ns,
                ok: true,
            });
            let d = tr.span_at(
                "rt.dispatch",
                o.id,
                prog,
                o.span,
                o.submitted_ns,
                entry.max(o.submitted_ns),
            );
            tr.span_at("handler.exec", o.id, prog, d, entry, exit);
        }
    }
    out.layer.insert("gen.late_us_p50", quantile(&late, 0.5));
    out.layer.insert("gen.late_us_p99", quantile(&late, 0.99));
    out.layer.insert("rt.submit_ns_p50", quantile(&submit, 0.5));
    out.layer.insert("rt.submit_ns_p99", quantile(&submit, 0.99));
    out.layer.insert("rt.dispatch_us_p50", quantile(&dispatch, 0.5));
    out.layer.insert("rt.dispatch_us_p99", quantile(&dispatch, 0.99));
    // Control: follows the demands, which the seed fixes.
    out.layer.insert("handler.exec_us_p50", quantile(&exec, 0.5));
}
