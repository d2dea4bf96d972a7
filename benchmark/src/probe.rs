//! Measuring the runtime from outside: a forwarding [`ProbeTable`] around
//! the `Arc<dyn CoreTable>` handed to the runtime, stamps taken inside the
//! closures and handlers the benchmark passes in ([`OpStamps`]), and the
//! in-memory span store both write to ([`Tracer`]).
//!
//! Only traced runs install any of this except [`OpStamps`], which the
//! untraced runs need for `first_task_us_p50`.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dws_rt::{AllocLedger, CoreTable, SubmitRing};

use crate::host::now_ns;

/// One recorded interval. `trace` is the identifier the spans of one
/// operation share (request id, phase number, or program id for table and
/// doorbell calls); `parent` is the `id` of the span that caused this one
/// (0 = none).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub prog: u32,
    pub t0_ns: u64,
    pub t1_ns: u64,
    pub ok: bool,
}

thread_local! {
    /// The span under which this thread is currently working: the parent
    /// of any table or doorbell call it makes.
    static PARENT: Cell<u64> = const { Cell::new(0) };
    /// `(program, worker index)` parsed from a runtime worker's thread
    /// name, cached; `None` on any other thread.
    static WORKER: Cell<Option<Option<(usize, usize)>>> = const { Cell::new(None) };
}

/// Sets the calling thread's current parent span, returning the previous.
pub fn set_parent(id: u64) -> u64 {
    PARENT.with(|p| p.replace(id))
}

/// `(program, worker index)` of the calling thread if it is a runtime
/// worker. The runtime names its workers `dws-worker-<prog>-<index>` and
/// maps worker `i` to table core `i`; the name is the only public way to
/// learn which worker runs a closure.
pub fn worker_identity() -> Option<(usize, usize)> {
    WORKER.with(|w| {
        if let Some(cached) = w.get() {
            return cached;
        }
        let parsed = std::thread::current().name().and_then(|n| {
            let mut parts = n.strip_prefix("dws-worker-")?.split('-');
            Some((parts.next()?.parse().ok()?, parts.next()?.parse().ok()?))
        });
        w.set(Some(parsed));
        parsed
    })
}

const SHARDS: usize = 16;
/// Spans a shard has room for before its first reallocation: enough for a
/// traced window, so that no recording thread stalls on a copy.
const SHARD_CAPACITY: usize = 1 << 15;

/// A doorbell ring nobody has woken for yet.
#[derive(Clone, Copy)]
struct PendingRing {
    t0_ns: u64,
    span: u64,
}

/// A coordinator pass in progress: its `wait_doorbell` returned, the next
/// `wait_doorbell` has not been entered.
#[derive(Clone, Copy)]
struct OpenPass {
    t0_ns: u64,
    span: u64,
    cause: u64,
}

/// The span store of one traced run, plus the little cross-call state the
/// derived spans need (ring → wake, wake → next wait, grant → exec). One
/// `Tracer` is shared by every [`ProbeTable`] of a run, so mappings of the
/// same shm file seen through different handles still pair up.
pub struct Tracer {
    cores: usize,
    next_id: AtomicU64,
    shards: Vec<Mutex<Vec<Span>>>,
    pending_ring: Vec<Mutex<Option<PendingRing>>>,
    open_pass: Vec<Mutex<Option<OpenPass>>>,
    /// Per `(prog, core)`: instant and span of a successful acquire or
    /// reclaim no closure has run under yet (0 = none).
    grant_ns: Vec<AtomicU64>,
    grant_span: Vec<AtomicU64>,
    /// Calls to the read-only `current()`: counted, never timed — the
    /// worker loop makes one per task.
    pub current_calls: AtomicU64,
}

impl Tracer {
    pub fn new(cores: usize, programs: usize) -> Arc<Tracer> {
        let atomics = |n| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Arc::new(Tracer {
            cores,
            next_id: AtomicU64::new(1),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::with_capacity(SHARD_CAPACITY))).collect(),
            pending_ring: (0..programs).map(|_| Mutex::new(None)).collect(),
            open_pass: (0..programs).map(|_| Mutex::new(None)).collect(),
            grant_ns: atomics(cores * programs),
            grant_span: atomics(cores * programs),
            current_calls: AtomicU64::new(0),
        })
    }

    /// A fresh span id.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span.
    pub fn record(&self, span: Span) {
        let shard = (span.id as usize) % SHARDS;
        self.shards[shard].lock().expect("span shard").push(span);
    }

    /// Records `name` over `[t0_ns, t1_ns]` under a fresh id, which it returns.
    pub fn span_at(
        &self,
        name: &'static str,
        trace: u64,
        prog: usize,
        parent: u64,
        t0_ns: u64,
        t1_ns: u64,
    ) -> u64 {
        let id = self.new_id();
        self.record(Span { id, parent, trace, name, prog: prog as u32, t0_ns, t1_ns, ok: true });
        id
    }

    /// Called where a closure or handler starts on worker `core` of
    /// `prog`: closes a pending grant of that core into a
    /// `sleep.grant_to_exec` span.
    pub fn note_exec(&self, prog: usize, core: usize) {
        let i = prog * self.cores + core;
        if self.grant_ns[i].load(Ordering::Relaxed) == 0 {
            return;
        }
        let t0 = self.grant_ns[i].swap(0, Ordering::Acquire);
        if t0 != 0 {
            let parent = self.grant_span[i].load(Ordering::Relaxed);
            self.span_at("sleep.grant_to_exec", prog as u64, prog, parent, t0, now_ns());
        }
    }

    fn note_grant(&self, prog: usize, core: usize, span: u64, at_ns: u64) {
        let i = prog * self.cores + core;
        self.grant_span[i].store(span, Ordering::Relaxed);
        self.grant_ns[i].store(at_ns, Ordering::Release);
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> =
            self.shards.iter().flat_map(|s| s.lock().expect("span shard").clone()).collect();
        all.sort_by_key(|s| (s.t0_ns, s.id));
        all
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"prog\":{},\"t0_ns\":{},\"t1_ns\":{},\"ok\":{}}}",
            s.id, s.parent, s.trace, s.name, s.prog, s.t0_ns, s.t1_ns, s.ok
        )?;
    }
    out.flush()
}

/// Durations (µs) of the spans called `name`, in start order.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| (s.t1_ns - s.t0_ns) as f64 / 1e3).collect()
}

/// A `CoreTable` that forwards every method to `inner` and records one
/// span per mutating, scanning or doorbell call. It adds no behaviour: the
/// conformance test drives the same script through it and through a bare
/// table and demands identical results.
pub struct ProbeTable {
    inner: Arc<dyn CoreTable>,
    tracer: Arc<Tracer>,
}

impl ProbeTable {
    pub fn new(inner: Arc<dyn CoreTable>, tracer: Arc<Tracer>) -> ProbeTable {
        ProbeTable { inner, tracer }
    }

    /// Times `f` as a span called `name` on behalf of `prog`; `ok` says
    /// whether the call's result counts as a success. Returns the result
    /// and the span's id.
    fn call<R>(
        &self,
        name: &'static str,
        prog: usize,
        f: impl FnOnce() -> R,
        ok: impl FnOnce(&R) -> bool,
    ) -> (R, u64) {
        let t0_ns = now_ns();
        let r = f();
        let t1_ns = now_ns();
        let id = self.tracer.new_id();
        self.tracer.record(Span {
            id,
            parent: PARENT.with(Cell::get),
            trace: prog as u64,
            name,
            prog: prog as u32,
            t0_ns,
            t1_ns,
            ok: ok(&r),
        });
        (r, id)
    }
}

impl CoreTable for ProbeTable {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn max_programs(&self) -> usize {
        self.inner.max_programs()
    }

    fn home(&self, core: usize) -> usize {
        self.inner.home(core)
    }

    fn current(&self, core: usize) -> Option<usize> {
        self.tracer.current_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.current(core)
    }

    fn release(&self, core: usize, prog: usize) -> bool {
        self.call("table.release", prog, || self.inner.release(core, prog), |&ok| ok).0
    }

    fn try_acquire_free(&self, core: usize, prog: usize) -> bool {
        let (ok, span) =
            self.call("table.acquire", prog, || self.inner.try_acquire_free(core, prog), |&ok| ok);
        if ok {
            self.tracer.note_grant(prog, core, span, now_ns());
        }
        ok
    }

    fn try_reclaim(&self, core: usize, prog: usize) -> bool {
        let (ok, span) =
            self.call("table.reclaim", prog, || self.inner.try_reclaim(core, prog), |&ok| ok);
        if ok {
            self.tracer.note_grant(prog, core, span, now_ns());
        }
        ok
    }

    fn free_cores(&self) -> Vec<usize> {
        // A scan names no program; the pass it belongs to is its parent.
        self.call("table.scan", 0, || self.inner.free_cores(), |_| true).0
    }

    fn reclaimable_cores(&self, prog: usize) -> Vec<usize> {
        self.call("table.scan", prog, || self.inner.reclaimable_cores(prog), |_| true).0
    }

    fn used_by(&self, prog: usize) -> Vec<usize> {
        self.call("table.scan", prog, || self.inner.used_by(prog), |_| true).0
    }

    fn owners(&self) -> Vec<i64> {
        self.call("table.scan", 0, || self.inner.owners(), |_| true).0
    }

    fn heartbeat(&self, prog: usize) {
        self.call("table.heartbeat", prog, || self.inner.heartbeat(prog), |_| true);
    }

    fn mark_dead(&self, prog: usize) {
        self.inner.mark_dead(prog);
    }

    fn reapable_programs(&self, caller: usize, timeout: Duration) -> Vec<usize> {
        self.call(
            "table.reap_scan",
            caller,
            || self.inner.reapable_programs(caller, timeout),
            |_| true,
        )
        .0
    }

    fn fence_expired(&self, prog: usize) -> bool {
        self.inner.fence_expired(prog)
    }

    fn try_reap(&self, core: usize, dead: usize) -> bool {
        self.inner.try_reap(core, dead)
    }

    fn finish_reap(&self, dead: usize) -> bool {
        self.inner.finish_reap(dead)
    }

    fn check_health(&self) -> bool {
        self.inner.check_health()
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    fn submit_ring(&self, prog: usize) -> Option<&SubmitRing> {
        self.inner.submit_ring(prog)
    }

    fn alloc_ledger(&self) -> Option<&AllocLedger> {
        self.inner.alloc_ledger()
    }

    fn bind_self(&self, prog: usize) {
        self.inner.bind_self(prog);
    }

    fn zombie_fenced(&self) -> bool {
        self.inner.zombie_fenced()
    }

    fn try_rearm(&self, prog: usize) -> bool {
        self.inner.try_rearm(prog)
    }

    fn set_stall_timeout(&self, timeout: Option<Duration>) {
        self.inner.set_stall_timeout(timeout);
    }

    fn degrade_now(&self) {
        self.inner.degrade_now();
    }

    fn ring_doorbell(&self, prog: usize, reason: u32) {
        let span = self.tracer.new_id();
        let t0_ns = now_ns();
        // Noted before the ring itself: the waiter can wake, and look for
        // what woke it, before the inner call has returned here. The first
        // ring since the last wake is the one the coordinator wakes for;
        // later ones only add reason bits.
        if let Some(slot) = self.tracer.pending_ring.get(prog) {
            slot.lock().expect("pending ring").get_or_insert(PendingRing { t0_ns, span });
        }
        self.inner.ring_doorbell(prog, reason);
        self.tracer.record(Span {
            id: span,
            parent: PARENT.with(Cell::get),
            trace: prog as u64,
            name: "doorbell.ring",
            prog: prog as u32,
            t0_ns,
            t1_ns: now_ns(),
            ok: true,
        });
    }

    fn wait_doorbell(&self, prog: usize, timeout: Duration) -> u32 {
        let tr = &self.tracer;
        let Some(open) = tr.open_pass.get(prog) else {
            return self.inner.wait_doorbell(prog, timeout);
        };
        // Entering the wait ends the pass that the previous return began.
        if let Some(p) = open.lock().expect("open pass").take() {
            tr.record(Span {
                id: p.span,
                parent: p.cause,
                trace: prog as u64,
                name: "coordinator.pass",
                prog: prog as u32,
                t0_ns: p.t0_ns,
                t1_ns: now_ns(),
                ok: true,
            });
        }
        let reasons = self.inner.wait_doorbell(prog, timeout);
        let woke_ns = now_ns();
        let mut cause = 0;
        if reasons != 0 {
            if let Some(r) = tr.pending_ring[prog].lock().expect("pending ring").take() {
                cause = tr.span_at(
                    "doorbell.ring_to_wake",
                    prog as u64,
                    prog,
                    r.span,
                    r.t0_ns,
                    woke_ns,
                );
            }
        }
        let span = tr.new_id();
        *open.lock().expect("open pass") = Some(OpenPass { t0_ns: woke_ns, span, cause });
        // Table calls the coordinator makes from here on belong to this pass.
        set_parent(span);
        reasons
    }
}

/// Stamps one operation (a tree, a phase) collects from inside its
/// closures: when its first task started and when it first ran on `k`
/// distinct workers. Reset between operations of the same program.
pub struct OpStamps {
    k: u32,
    mask: AtomicU64,
    first_ns: AtomicU64,
    ramp_ns: AtomicU64,
    tracer: Option<Arc<Tracer>>,
}

impl OpStamps {
    /// `k`: distinct workers that count as "ramped" (`C/2 + 1`).
    pub fn new(k: u32, tracer: Option<Arc<Tracer>>) -> OpStamps {
        OpStamps {
            k,
            mask: AtomicU64::new(0),
            first_ns: AtomicU64::new(0),
            ramp_ns: AtomicU64::new(0),
            tracer,
        }
    }

    pub fn reset(&self) {
        self.mask.store(0, Ordering::Relaxed);
        self.first_ns.store(0, Ordering::Relaxed);
        self.ramp_ns.store(0, Ordering::Release);
    }

    /// Called where a task of the operation starts, on the worker running
    /// it. After a worker's first visit this is one relaxed load.
    pub fn visit(&self) {
        let Some((prog, idx)) = worker_identity() else { return };
        let bit = 1u64 << idx;
        if self.mask.load(Ordering::Relaxed) & bit == 0 {
            let prev = self.mask.fetch_or(bit, Ordering::AcqRel);
            if prev & bit == 0 {
                let now = now_ns();
                if prev == 0 {
                    self.first_ns.store(now, Ordering::Relaxed);
                }
                if (prev | bit).count_ones() == self.k {
                    self.ramp_ns.store(now, Ordering::Relaxed);
                }
            }
        }
        if let Some(tr) = &self.tracer {
            tr.note_exec(prog, idx);
        }
    }

    /// When the first task started (0 = never).
    pub fn first_ns(&self) -> u64 {
        self.first_ns.load(Ordering::Acquire)
    }

    /// When the `k`-th distinct worker started a task (0 = never).
    pub fn ramp_ns(&self) -> u64 {
        self.ramp_ns.load(Ordering::Acquire)
    }
}
