//! `ProbeTable` must add nothing and drop nothing. A `CoreTable` method
//! with a default body that the probe forgot to forward would compile and
//! silently turn, say, the shm ring into "no ring" — and the shm workload
//! into a no-op. These tests drive the same script through a bare table
//! and a probed one, and check every trait method reaches the inner table.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dws_rt::{
    AllocLedger, CoreTable, InProcessTable, SubmitRing, DOORBELL_DEMAND, DOORBELL_RELEASE,
    DOORBELL_SUBMIT,
};

use crate::probe::{ProbeTable, Tracer};

/// Acquire / release / reclaim / doorbell / reap script; returns every
/// result it observed, as text.
fn script(t: &dyn CoreTable) -> Vec<String> {
    let mut seen = Vec::new();
    let mut see = |what: &str, v: String| seen.push(format!("{what}={v}"));
    see("geometry", format!("{:?}", (t.cores(), t.max_programs(), t.home(0), t.home(3))));
    see("release(0,0)", t.release(0, 0).to_string());
    see("release(0,0) again", t.release(0, 0).to_string());
    see("free", format!("{:?}", t.free_cores()));
    see("acquire(0,1)", t.try_acquire_free(0, 1).to_string());
    see("acquire(0,0) taken", t.try_acquire_free(0, 0).to_string());
    see("reclaimable(0)", format!("{:?}", t.reclaimable_cores(0)));
    see("reclaim(0,1) not home", t.try_reclaim(0, 1).to_string());
    see("reclaim(0,0)", t.try_reclaim(0, 0).to_string());
    see("reclaim(0,0) already mine", t.try_reclaim(0, 0).to_string());
    see("current(0)", format!("{:?}", t.current(0)));
    see("used_by(1)", format!("{:?}", t.used_by(1)));
    see("owners", format!("{:?}", t.owners()));
    t.ring_doorbell(1, DOORBELL_RELEASE);
    t.ring_doorbell(1, DOORBELL_SUBMIT);
    see("wait(1)", t.wait_doorbell(1, Duration::from_secs(5)).to_string());
    see("wait(1) drained", t.wait_doorbell(1, Duration::from_millis(1)).to_string());
    see("wait(0) never rung", t.wait_doorbell(0, Duration::from_millis(1)).to_string());
    t.heartbeat(0);
    see("reapable before", format!("{:?}", t.reapable_programs(0, Duration::ZERO)));
    t.mark_dead(1);
    see("reapable after", format!("{:?}", t.reapable_programs(0, Duration::ZERO)));
    see("fence(1)", t.fence_expired(1).to_string());
    see("reap(2,1)", t.try_reap(2, 1).to_string());
    see("finish early", t.finish_reap(1).to_string());
    see("reap(3,1)", t.try_reap(3, 1).to_string());
    see("finish", t.finish_reap(1).to_string());
    see("free at end", format!("{:?}", t.free_cores()));
    see(
        "hooks",
        format!("{:?}", (t.check_health(), t.degraded(), t.zombie_fenced(), t.try_rearm(0))),
    );
    see("ring/ledger", format!("{:?}", (t.submit_ring(0).is_some(), t.alloc_ledger().is_some())));
    seen
}

#[test]
fn probe_changes_no_result() {
    let bare = InProcessTable::new(4, 2);
    let probed = ProbeTable::new(Arc::new(InProcessTable::new(4, 2)), Tracer::new(4, 2));
    let (a, b) = (script(&bare), script(&probed));
    assert_eq!(a, b);
    assert!(a.contains(&"reclaim(0,0)=true".to_string()) && a.contains(&"finish=true".to_string()));
    assert!(a.contains(&format!("wait(1)={}", DOORBELL_RELEASE | DOORBELL_SUBMIT)));
}

/// An inner table that logs every trait method it is asked for and
/// answers the hooks with values no default body gives.
struct Recording {
    calls: Mutex<Vec<&'static str>>,
    ring: SubmitRing,
    ledger: AllocLedger,
}

impl Recording {
    fn log(&self, name: &'static str) {
        self.calls.lock().unwrap().push(name);
    }
}

impl CoreTable for Recording {
    fn cores(&self) -> usize {
        self.log("cores");
        4
    }
    fn max_programs(&self) -> usize {
        self.log("max_programs");
        2
    }
    fn home(&self, _core: usize) -> usize {
        self.log("home");
        1
    }
    fn current(&self, _core: usize) -> Option<usize> {
        self.log("current");
        Some(1)
    }
    fn release(&self, _core: usize, _prog: usize) -> bool {
        self.log("release");
        true
    }
    fn try_acquire_free(&self, _core: usize, _prog: usize) -> bool {
        self.log("try_acquire_free");
        true
    }
    fn try_reclaim(&self, _core: usize, _prog: usize) -> bool {
        self.log("try_reclaim");
        true
    }
    fn free_cores(&self) -> Vec<usize> {
        self.log("free_cores");
        vec![7]
    }
    fn reclaimable_cores(&self, _prog: usize) -> Vec<usize> {
        self.log("reclaimable_cores");
        vec![8]
    }
    fn used_by(&self, _prog: usize) -> Vec<usize> {
        self.log("used_by");
        vec![9]
    }
    fn owners(&self) -> Vec<i64> {
        self.log("owners");
        vec![10]
    }
    fn heartbeat(&self, _prog: usize) {
        self.log("heartbeat");
    }
    fn mark_dead(&self, _prog: usize) {
        self.log("mark_dead");
    }
    fn reapable_programs(&self, _caller: usize, _timeout: Duration) -> Vec<usize> {
        self.log("reapable_programs");
        vec![1]
    }
    fn fence_expired(&self, _prog: usize) -> bool {
        self.log("fence_expired");
        true
    }
    fn try_reap(&self, _core: usize, _dead: usize) -> bool {
        self.log("try_reap");
        true
    }
    fn finish_reap(&self, _dead: usize) -> bool {
        self.log("finish_reap");
        true
    }
    fn check_health(&self) -> bool {
        self.log("check_health");
        false
    }
    fn degraded(&self) -> bool {
        self.log("degraded");
        true
    }
    fn submit_ring(&self, _prog: usize) -> Option<&SubmitRing> {
        self.log("submit_ring");
        Some(&self.ring)
    }
    fn alloc_ledger(&self) -> Option<&AllocLedger> {
        self.log("alloc_ledger");
        Some(&self.ledger)
    }
    fn bind_self(&self, _prog: usize) {
        self.log("bind_self");
    }
    fn zombie_fenced(&self) -> bool {
        self.log("zombie_fenced");
        true
    }
    fn try_rearm(&self, _prog: usize) -> bool {
        self.log("try_rearm");
        true
    }
    fn set_stall_timeout(&self, _timeout: Option<Duration>) {
        self.log("set_stall_timeout");
    }
    fn degrade_now(&self) {
        self.log("degrade_now");
    }
    fn ring_doorbell(&self, _prog: usize, _reason: u32) {
        self.log("ring_doorbell");
    }
    fn wait_doorbell(&self, _prog: usize, _timeout: Duration) -> u32 {
        self.log("wait_doorbell");
        DOORBELL_DEMAND
    }
}

#[test]
fn probe_forwards_every_method() {
    let inner = Arc::new(Recording {
        calls: Mutex::new(Vec::new()),
        ring: SubmitRing::with_capacity(4),
        ledger: AllocLedger::new(&InProcessTable::new(4, 2)),
    });
    let t = ProbeTable::new(Arc::clone(&inner) as Arc<dyn CoreTable>, Tracer::new(4, 2));

    // Each call must return what `Recording` returns, which no default
    // body of the trait does.
    assert_eq!((t.cores(), t.max_programs(), t.home(0), t.current(0)), (4, 2, 1, Some(1)));
    assert!(t.release(0, 0) && t.try_acquire_free(0, 0) && t.try_reclaim(0, 0));
    assert_eq!(t.free_cores(), [7]);
    assert_eq!(t.reclaimable_cores(0), [8]);
    assert_eq!(t.used_by(0), [9]);
    assert_eq!(t.owners(), [10]);
    t.heartbeat(0);
    t.mark_dead(0);
    assert_eq!(t.reapable_programs(0, Duration::ZERO), [1]);
    assert!(t.fence_expired(1) && t.try_reap(0, 1) && t.finish_reap(1));
    assert!(!t.check_health() && t.degraded());
    assert!(std::ptr::eq(t.submit_ring(0).unwrap(), &inner.ring));
    assert!(std::ptr::eq(t.alloc_ledger().unwrap(), &inner.ledger));
    t.bind_self(0);
    assert!(t.zombie_fenced() && t.try_rearm(0));
    t.set_stall_timeout(None);
    t.degrade_now();
    t.ring_doorbell(0, DOORBELL_DEMAND);
    assert_eq!(t.wait_doorbell(0, Duration::ZERO), DOORBELL_DEMAND);

    let expected = [
        "cores",
        "max_programs",
        "home",
        "current",
        "release",
        "try_acquire_free",
        "try_reclaim",
        "free_cores",
        "reclaimable_cores",
        "used_by",
        "owners",
        "heartbeat",
        "mark_dead",
        "reapable_programs",
        "fence_expired",
        "try_reap",
        "finish_reap",
        "check_health",
        "degraded",
        "submit_ring",
        "alloc_ledger",
        "bind_self",
        "zombie_fenced",
        "try_rearm",
        "set_stall_timeout",
        "degrade_now",
        "ring_doorbell",
        "wait_doorbell",
    ];
    assert_eq!(
        *inner.calls.lock().unwrap(),
        expected,
        "each method forwarded exactly once, in order"
    );
}

#[test]
fn probe_records_the_spans_the_layer_metrics_read() {
    let tracer = Tracer::new(4, 2);
    let t = ProbeTable::new(Arc::new(InProcessTable::new(4, 2)), Arc::clone(&tracer));
    assert!(t.release(0, 0));
    assert!(!t.release(0, 0));
    assert!(t.try_acquire_free(0, 0));
    t.ring_doorbell(0, DOORBELL_SUBMIT);
    assert_eq!(t.wait_doorbell(0, Duration::from_secs(5)), DOORBELL_SUBMIT);
    t.free_cores();
    assert_eq!(t.wait_doorbell(0, Duration::from_millis(1)), 0);
    tracer.note_exec(0, 0);

    let spans = tracer.spans();
    let named = |n: &str| spans.iter().filter(|s| s.name == n).collect::<Vec<_>>();
    assert_eq!(named("table.release").iter().map(|s| s.ok).collect::<Vec<_>>(), [true, false]);
    assert_eq!(named("table.acquire").len(), 1);
    assert_eq!(named("doorbell.ring").len(), 1);
    let wake = named("doorbell.ring_to_wake");
    assert_eq!(wake.len(), 1);
    assert_eq!(wake[0].parent, named("doorbell.ring")[0].id, "the ring caused the wake");
    // The pass runs from the first wait's return to the second wait's
    // entry, was caused by the wake, and the scan inside it is its child.
    let pass = named("coordinator.pass");
    assert_eq!(pass.len(), 1);
    assert_eq!(pass[0].parent, wake[0].id);
    assert_eq!(named("table.scan")[0].parent, pass[0].id);
    let grant = named("sleep.grant_to_exec");
    assert_eq!(grant.len(), 1);
    assert_eq!(grant[0].parent, named("table.acquire")[0].id);
    assert!(spans.iter().all(|s| s.t1_ns >= s.t0_ns));
    crate::probe::set_parent(0);
}
