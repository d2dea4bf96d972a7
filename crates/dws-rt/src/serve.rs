//! Serving mode: the cross-process request path (DESIGN §13).
//!
//! A serving program attaches a fixed-capacity MPSC [`SubmitRing`] —
//! carved out of the shared shm segment by [`crate::shm::ShmTable`], or
//! heap-backed for in-process runs — and its coordinator drains the ring
//! into the [`dws_deque::Injector`] once per period. Each drained
//! [`Request`] becomes an ordinary external task (spawner
//! [`TaskId::EXTERNAL_WORKER`](dws_deque::TaskId::EXTERNAL_WORKER))
//! running the program's request handler, so the whole demand-aware
//! machinery (Eq. 1 wakes, batched steals, lifecycle tracing) applies to
//! open-loop traffic unchanged.
//!
//! Timeline of one request:
//!
//! ```text
//! client submit ──ring──▶ coordinator drain (Admit) ──injector──▶
//!   worker pickup (ExecBegin) ──▶ handler returns (ExecEnd)
//! ```
//!
//! `submit → ExecBegin` is the *end-to-end request sojourn* — the
//! headline tail-latency metric, one hop earlier than the task sojourn
//! (`spawn → ExecBegin`, which here starts at the drain). The client-side
//! submit timestamp rides inside the ring slot and then inside the
//! [`crate::job::JobRef`], so no side table is needed.
//!
//! Fencing: the ring carries the program's lease epoch. A client that
//! attached before a crash/re-register cycle submits with a stale epoch
//! and is rejected with [`SubmitError::Fenced`] instead of feeding a
//! reincarnated program requests from a dead conversation.

use std::sync::Arc;

use dws_deque::{Request, SubmitRing};

use crate::alloc_table::CoreTable;
use crate::job::HeapJob;
use crate::metrics::RtMetrics;
use crate::registry::Registry;
use crate::sync::Ordering;
use crate::trace::{now_us, RtEvent, LANE_SHARED};

// The ring presumes a client stalled between reserve and publish dead on
// its own timer; it must never be quicker to do so than the lease
// machinery is to declare a whole program dead.
const _: () = assert!(
    dws_deque::ABANDON_AFTER.as_nanos()
        >= crate::config::RuntimeConfig::LEASE_TIMEOUT_FLOOR.as_nanos()
);

/// The work a serving program performs per admitted request. Runs on a
/// worker like any spawned task; `Request::demand_us` conventionally
/// carries the service demand the generator sampled, but the handler is
/// free to interpret the payload however it likes.
pub type RequestHandler = Arc<dyn Fn(Request) + Send + Sync>;

/// Per-runtime serving state: where the ring lives and what to run per
/// request.
pub(crate) struct ServingState {
    /// Heap-backed ring used when the allocation table carves none (solo
    /// runs, in-process tables). Tables that host per-program rings in
    /// their shm segment ([`crate::shm::ShmTable`]) take precedence.
    owned: Option<SubmitRing>,
    /// The request handler, cloned into each admitted job.
    pub(crate) handler: RequestHandler,
}

impl ServingState {
    pub(crate) fn new(owned: Option<SubmitRing>, handler: RequestHandler) -> Self {
        ServingState { owned, handler }
    }

    /// The ring requests arrive on: the table's shm-resident ring for
    /// this program if it has one, else the runtime's own heap ring.
    pub(crate) fn ring<'a>(
        &'a self,
        table: &'a dyn CoreTable,
        prog: usize,
    ) -> Option<&'a SubmitRing> {
        table.submit_ring(prog).or(self.owned.as_ref())
    }
}

impl Registry {
    /// The submission ring serving this program, if any.
    pub(crate) fn submission_ring(&self) -> Option<&SubmitRing> {
        self.serving.as_ref()?.ring(&*self.table, self.prog_id)
    }

    /// One drain pass: moves up to `serve.drain_batch` requests from the
    /// submission ring into the injector, stamping each with an external
    /// [`TaskId`](dws_deque::TaskId) and carrying the client's submit
    /// timestamp through to the executing worker. Returns the number admitted. Run by the
    /// coordinator once per period; also callable directly (tests,
    /// manual pumping).
    pub(crate) fn drain_submissions(&self) -> usize {
        let Some(serving) = &self.serving else { return 0 };
        // A zombie's ring belongs to its successor incarnation (the
        // recycle reset it): draining would steal the successor's
        // requests. Park until re-armed or degraded.
        if self.table.zombie_fenced() {
            return 0;
        }
        let Some(ring) = serving.ring(&*self.table, self.prog_id) else { return 0 };
        let tracing = self.trace.enabled();
        let mut admitted = 0usize;
        ring.drain(self.config.serve.drain_batch, &mut |req| {
            let handler = Arc::clone(&serving.handler);
            let mut job = HeapJob::new(move || handler(req));
            job.task_id = self.next_external_id();
            // The submit timestamp always flows through (a copy, no
            // syscall); the spawn timestamp and lifecycle events follow
            // the usual tracing gate.
            job.submit_us = req.submit_us;
            if tracing {
                job.spawn_us = now_us();
                let id = job.task_id.as_u64();
                self.trace.record(LANE_SHARED, RtEvent::Admit { id, submit_us: req.submit_us });
                self.trace.record(LANE_SHARED, RtEvent::Enqueue { id });
            }
            self.injector.push(job);
            admitted += 1;
        });
        if admitted > 0 {
            RtMetrics::add(&self.metrics.requests_admitted, admitted as u64);
            self.ensure_progress();
        }
        // Mirror the ring's client-side reject counters so one metrics
        // snapshot carries both sides of the protocol. Stores, not adds:
        // the ring counters are already monotone totals.
        self.metrics.requests_dropped.store(ring.dropped(), Ordering::Relaxed);
        self.metrics.requests_fenced.store(ring.fenced(), Ordering::Relaxed);
        self.metrics.requests_abandoned.store(ring.abandoned(), Ordering::Relaxed);
        admitted
    }
}
