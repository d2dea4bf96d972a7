//! End-to-end tests of the serving request path (DESIGN §13): submission
//! ring → coordinator drain → injector → worker execution, with the
//! request lifecycle visible in metrics, telemetry and the trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dws_rt::{
    CoreTable, InProcessTable, Policy, Runtime, RuntimeConfig, ShmTable, SubmitError, TaskId,
};

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::yield_now();
    }
    done()
}

#[test]
fn solo_serving_executes_every_request_exactly_once() {
    let n = 200u64;
    let hits = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
    let seen = Arc::clone(&hits);
    let mut cfg = RuntimeConfig::new(2, Policy::Ws).with_serving();
    cfg.coordinator_period = Duration::from_millis(1);
    let rt = Runtime::serve(cfg, move |req| {
        seen[req.req_id as usize].fetch_add(1, Ordering::Relaxed);
    });
    assert!(rt.serving());
    for i in 0..n {
        // Retry on Full: this test wants every request through.
        while rt.submit(i, 5) == Err(SubmitError::Full) {
            rt.drain_submissions();
        }
    }
    assert!(
        wait_until(Duration::from_secs(10), || hits.iter().all(|h| h.load(Ordering::Relaxed) == 1)),
        "every request must execute exactly once"
    );
    let snap = rt.metrics();
    assert_eq!(snap.requests_admitted, n, "admission counter covers all requests");
    assert_eq!(snap.requests_fenced, 0);
}

#[test]
fn submit_admission_does_not_scale_with_the_coordinator_period() {
    // The event-driven control plane's serving edge (DESIGN §16): every
    // submit rings the coordinator's doorbell, so admission latency is
    // set by the wake path, not by `coordinator_period`. The period here
    // is ten minutes — far beyond the test's own deadline — so every
    // request that executes below *proves* a doorbell admission; before
    // edge-triggered wakes this test could only pass by waiting out the
    // polling tick.
    let n = 16u64;
    let done = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&done);
    let mut cfg = RuntimeConfig::new(2, Policy::Ws).with_serving();
    cfg.coordinator_period = Duration::from_secs(600);
    cfg.sleep_timeout = Some(Duration::from_millis(2));
    let rt = Runtime::serve(cfg, move |_req| {
        d.fetch_add(1, Ordering::Relaxed);
    });
    for i in 0..n {
        rt.submit(i, 1).expect("submit on an idle ring");
        assert!(
            wait_until(Duration::from_secs(5), || done.load(Ordering::Relaxed) > i),
            "request {i} sat in the ring waiting for a polling tick — submit doorbell lost"
        );
    }
    let snap = rt.metrics();
    assert_eq!(snap.requests_admitted, n);
    assert!(
        snap.doorbell_wakes >= 1,
        "admissions inside a 600 s period must come from doorbell wakes"
    );
}

#[test]
fn non_serving_runtime_has_no_ring() {
    let rt = Runtime::new(RuntimeConfig::new(2, Policy::Ws));
    assert!(!rt.serving());
    assert!(rt.submission_ring().is_none());
}

/// Forwards the seven required methods to an [`InProcessTable`] and keeps
/// the trait's doorbell defaults: a ring vanishes, a wait sleeps.
struct NoDoorbells(InProcessTable);

impl CoreTable for NoDoorbells {
    fn cores(&self) -> usize {
        self.0.cores()
    }
    fn max_programs(&self) -> usize {
        self.0.max_programs()
    }
    fn home(&self, core: usize) -> usize {
        self.0.home(core)
    }
    fn current(&self, core: usize) -> Option<usize> {
        self.0.current(core)
    }
    fn release(&self, core: usize, prog: usize) -> bool {
        self.0.release(core, prog)
    }
    fn try_acquire_free(&self, core: usize, prog: usize) -> bool {
        self.0.try_acquire_free(core, prog)
    }
    fn try_reclaim(&self, core: usize, prog: usize) -> bool {
        self.0.try_reclaim(core, prog)
    }
}

#[test]
fn full_ring_sheds_and_counts_drops() {
    // Tiny ring, manual pumping only: fill it, watch the overflow drop.
    // No doorbells, or each submission would wake the coordinator to drain
    // behind the test's back.
    let mut cfg = RuntimeConfig::new(2, Policy::Ws).with_serving_geometry(4, 64);
    cfg.coordinator_period = Duration::from_secs(3600); // never drains on its own
    let table = Arc::new(NoDoorbells(InProcessTable::new(2, 1)));
    let rt = Runtime::serve_with_table(cfg, table, 0, |_req| {});
    for i in 0..4 {
        rt.submit(i, 1).unwrap();
    }
    assert_eq!(rt.submit(99, 1), Err(SubmitError::Full));
    assert_eq!(rt.drain_submissions(), 4);
    let snap = rt.metrics();
    assert_eq!(snap.requests_admitted, 4);
    assert_eq!(snap.requests_dropped, 1, "the shed request is counted");
}

#[test]
fn traced_serving_emits_admit_events_and_request_sojourns() {
    let n = 50u64;
    let mut cfg = RuntimeConfig::new(2, Policy::Ws).with_serving().with_tracing();
    cfg.coordinator_period = Duration::from_millis(1);
    let done = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&done);
    let rt = Runtime::serve(cfg, move |_req| {
        d.fetch_add(1, Ordering::Relaxed);
    });
    for i in 0..n {
        while rt.submit(i, 5) == Err(SubmitError::Full) {
            rt.drain_submissions();
        }
    }
    assert!(
        wait_until(Duration::from_secs(10), || done.load(Ordering::Relaxed) == n),
        "all requests handled"
    );
    let snap = rt.trace_snapshot();
    let mut admits = 0u64;
    for ev in snap.events.iter() {
        if let dws_rt::RtEvent::Admit { id, submit_us } = ev.event {
            let tid = TaskId::from_u64(id);
            assert_eq!(tid.worker(), TaskId::EXTERNAL_WORKER, "admits use the external lane");
            assert!(submit_us > 0, "client submit timestamp flows into the event");
            admits += 1;
        }
    }
    assert_eq!(admits, n, "one Admit event per request");
    // The end-to-end sojourn histogram filled (tracing gates it).
    let hist = rt.histograms();
    assert_eq!(hist.request_sojourn.count(), n, "one request sojourn sample per request");
    // The admission counter reaches live telemetry frames.
    assert_eq!(rt.telemetry("serve").sample_now().counters.requests_admitted, n);
}

#[test]
fn shm_ring_serves_requests_from_another_mapping() {
    // Server process maps the table and serves; a "client" opens its own
    // mapping of the same file and submits through the shm ring — the
    // cross-process path, minus fork.
    let path = {
        let mut p = std::env::temp_dir();
        p.push(format!("dws-serving-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };
    let server_map = Arc::new(ShmTable::create_or_open(&path, 2, 2).unwrap());
    let client_map = ShmTable::create_or_open(&path, 2, 2).unwrap();

    let n = 64u64;
    let done = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&done);
    let mut cfg = RuntimeConfig::new(2, Policy::Dws).with_serving();
    cfg.coordinator_period = Duration::from_millis(1);
    cfg.sleep_timeout = Some(Duration::from_millis(2));
    let rt = Runtime::serve_with_table(cfg, server_map, 0, move |req| {
        d.fetch_add(req.demand_us, Ordering::Relaxed);
    });

    // The runtime's ring IS the shm ring (not a private heap fallback).
    let ring = client_map.submit_ring(0).expect("shm table carves rings");
    for i in 0..n {
        let req = dws_rt::Request { req_id: i, submit_us: 1 + i, demand_us: 1 };
        while ring.submit(req, ring.epoch()) == Err(SubmitError::Full) {
            std::thread::yield_now();
        }
    }
    assert!(
        wait_until(Duration::from_secs(10), || done.load(Ordering::Relaxed) == n),
        "requests submitted via the client mapping all executed"
    );
    assert_eq!(rt.metrics().requests_admitted, n);
    drop(rt);
    std::fs::remove_file(&path).unwrap();
}
