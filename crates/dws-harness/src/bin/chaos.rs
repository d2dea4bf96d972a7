//! `chaos` — seeded, replayable chaos engine against the real
//! shm-backed runtime: randomized fault schedules with the full
//! invariant stack asserted after every fault, and the MTTR
//! (mean-time-to-repair) of each schedule.
//!
//! Where `crash` runs two fixed scenarios, `chaos` *generates* fault
//! schedules from a seed. Each schedule is one fault class with
//! seeded parameters (timings, cohort sizes, kill delays), executed
//! against real co-running processes on a real mmap-backed
//! [`ShmTable`]; the class and every parameter derive from the
//! schedule seed alone, so any schedule replays exactly with
//! `--replay 0x<seed>`. Seven fault classes:
//!
//! * **pause** — `SIGSTOP` a co-runner so the stop straddles lease
//!   expiry (stall fencing armed), `SIGCONT` it after the survivor has
//!   reaped its cores, and require the resumed zombie to *discover the
//!   fence* (`zombies_fenced` ≥ 1) instead of corrupting the table;
//! * **kill** — `SIGKILL` a flooding co-runner mid-stride; the
//!   survivor fences the dead lease and reacquires every orphan;
//! * **stall** — a registrant stops heartbeating while its pid stays
//!   alive; the survivor stall-fences it, and the stalled program's
//!   own later table ops must all be refused (zombie self-fence);
//! * **churn** — an open-loop burst of 8–32 short-lived programs
//!   churning through the lease slots under [`Backoff`] retry, a
//!   seeded subset SIGKILLed mid-run (kill storm);
//! * **torn** — seeded garbage bytes written over the table header
//!   mid-run (optionally plus file deletion); the [`FailoverTable`]
//!   survivor must degrade to its private table and complete;
//! * **ring** — submission-ring clients killed between reserve and
//!   publish; the serving survivor abandons the tombstoned slots and
//!   drains everything that was actually published;
//! * **doorbell** — a spurious-ring storm against the event-driven
//!   control plane (DESIGN §16): co-processes hammer program 0's
//!   doorbell with rings that announce nothing while real clients
//!   publish through the shm ring, the coordinator period parked at
//!   ten minutes so *only* doorbell admissions can explain progress;
//!   storm ringers are SIGKILLed mid-ring and the doorbell must keep
//!   delivering (rings are advisory — a dead ringer cannot wedge the
//!   futex word), with admission accounting exact throughout.
//!
//! After every fault the harness asserts the invariant stack: the
//! table audit ([`ShmTable::audit`]: every slot FREE or owned at the
//! owner's ACTIVE lease epoch), replay-clean traces
//! ([`TracedTable::replay_check`]) where the survivor is traced,
//! admission accounting on the serving path, and metric
//! reconciliation (`leases_expired` / `cores_reaped` /
//! `zombies_fenced`). Each schedule prints its MTTR; any violation
//! prints its `--replay` seed and makes the run exit nonzero. The
//! per-class MTTR table of `BENCH_9.json` is frozen history (its emitter
//! last existed at commit `d686262`).
//!
//! ```text
//! cargo run --release --bin chaos                     # 28 schedules
//! cargo run --release --bin chaos -- --fast           # 7 (CI smoke)
//! cargo run --release --bin chaos -- --replay 0xBEEF  # one schedule, exactly
//! ```

use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dws_rt::{
    join, Backoff, CoreTable, FailoverTable, Policy, Request, Runtime, RuntimeConfig, ShmTable,
    TracedTable, DOORBELL_DEMAND, DOORBELL_SUBMIT,
};

const CORES: usize = 4;
const PERIOD: Duration = Duration::from_millis(10);
const LEASE_TIMEOUT: Duration = Duration::from_millis(100);
const STALL_TIMEOUT: Duration = Duration::from_millis(120);

/// Default schedule count: four visits to each of the seven classes.
const DEFAULT_SCHEDULES: usize = 28;
const FAST_SCHEDULES: usize = 7;
const ROOT_SEED: u64 = 0xC4A0_5BAD;

const CLASSES: [&str; 7] = ["pause", "kill", "stall", "churn", "torn", "ring", "doorbell"];

// ---------------------------------------------------------------------------
// Seeded PRNG: the schedule seed determines the class and every parameter.
// ---------------------------------------------------------------------------

/// splitmix64 — tiny, seedable, and good enough to decorrelate schedule
/// parameters; the same generator the simulator uses for workloads.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

fn class_of(seed: u64) -> &'static str {
    CLASSES[(seed % CLASSES.len() as u64) as usize]
}

// ---------------------------------------------------------------------------
// Shared process plumbing (the `crash` harness pattern).
// ---------------------------------------------------------------------------

fn table_path(class: &str, seed: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dws-chaos-{class}-{seed:x}-{}", std::process::id()));
    p
}

/// ~20 µs of real work per leaf.
fn burn() {
    let mut acc = 0u64;
    for i in 0..4_000u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc);
}

/// One fork-join round with 64 leaves — wide enough that every worker
/// stays fed and the queues read non-empty to the coordinator.
fn flood_round(rt: &Runtime) {
    rt.block_on(|| {
        fn rec(d: u32) {
            if d == 0 {
                burn();
                return;
            }
            join(|| rec(d - 1), || rec(d - 1));
        }
        rec(6)
    });
}

/// Survivor config: never voluntarily release a core, so the only table
/// transitions the survivor makes are reaps and (re)acquisitions.
fn survivor_config() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::new(CORES, Policy::Dws)
        .with_telemetry()
        .with_telemetry_tick(PERIOD)
        .with_lease_timeout(LEASE_TIMEOUT);
    cfg.coordinator_period = PERIOD;
    cfg.t_sleep = u32::MAX;
    cfg
}

/// Kills (SIGKILL) and reaps the child on every exit path, so a failed
/// assertion never leaks a process holding the table open.
struct ChildGuard(Option<Child>);

impl ChildGuard {
    fn pid(&self) -> i32 {
        self.0.as_ref().expect("child already reaped").id() as i32
    }

    fn kill_and_wait(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            // wait() turns the zombie into ESRCH for `kill(pid, 0)`.
            let _ = c.wait();
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

fn spawn_role(role: &str, path: &Path, extra: &[String]) -> ChildGuard {
    let exe = std::env::current_exe().expect("current_exe");
    let child = Command::new(exe)
        .args(["--role", role])
        .arg(path)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {role}: {e}"));
    ChildGuard(Some(child))
}

/// Reads one line of the child's stdout, panicking with context if the
/// pipe closes first.
fn read_line(reader: &mut impl BufRead, who: &str) -> String {
    let mut line = String::new();
    let n = reader.read_line(&mut line).unwrap_or_else(|e| panic!("read from {who}: {e}"));
    assert!(n > 0, "{who} closed its pipe without reporting");
    line.trim().to_string()
}

/// Polls the settled-state table audit until clean, panicking with the
/// last violation set if `deadline` passes first. Recovery is allowed
/// to be mid-transition when we first look — never at the deadline.
fn wait_audit_clean(shm: &ShmTable, deadline: Duration, ctx: &str) {
    let start = Instant::now();
    loop {
        match shm.audit() {
            Ok(()) => return,
            Err(errs) => {
                assert!(
                    start.elapsed() < deadline,
                    "{ctx}: table audit still dirty after {deadline:?}: {errs:?}"
                );
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Polls until the survivor owns every core and no program is reapable
/// (all dead/stalled leases fenced and fully reaped) — the settled end
/// state every recovery must reach.
fn wait_settled(table: &dyn CoreTable, survivor: usize, deadline: Duration, ctx: &str) {
    let start = Instant::now();
    loop {
        let owned = table.used_by(survivor).len();
        let reapable = table.reapable_programs(survivor, LEASE_TIMEOUT);
        if owned == CORES && reapable.is_empty() {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "{ctx}: not settled after {deadline:?} (owns {owned}/{CORES}, reapable {reapable:?})"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Recovery deadline: expiry detection (lease + stall), coordinator
/// alignment, fence + reap + reacquire ticks, plus slack for loaded CI
/// machines. Tick-precise bounds live in `check` (virtual time); this
/// harness only bounds wall clock loosely.
fn recovery_deadline() -> Duration {
    LEASE_TIMEOUT + STALL_TIMEOUT + 20 * PERIOD + Duration::from_millis(1_500)
}

// ---------------------------------------------------------------------------
// Child roles.
// ---------------------------------------------------------------------------

/// Flood-forever co-runner (prog 1) — the `kill` victim.
fn role_victim(path: &Path) -> ExitCode {
    let table = ShmTable::open_with_retry(path, CORES, 2, 20, Duration::from_millis(5))
        .expect("victim: open shared table");
    let prog = table.register().expect("victim: register");
    assert_eq!(prog, 1, "victim must be the second registrant");
    let mut cfg = RuntimeConfig::new(CORES, Policy::Dws);
    cfg.coordinator_period = PERIOD;
    cfg.t_sleep = u32::MAX;
    let rt = Runtime::with_table(cfg, Arc::new(table), prog);
    flood_round(&rt);
    println!("victim-ready");
    std::io::stdout().flush().expect("victim: flush");
    loop {
        flood_round(&rt);
    }
}

/// The `pause` victim: floods like `role_victim`, but after resuming
/// from SIGCONT it reports whether its runtime discovered the fence
/// (`zombies_fenced`) and whether it re-armed under a new epoch.
fn role_pause_victim(path: &Path) -> ExitCode {
    let table = ShmTable::open_with_retry(path, CORES, 2, 20, Duration::from_millis(5))
        .expect("pause-victim: open shared table");
    let prog = table.register().expect("pause-victim: register");
    assert_eq!(prog, 1, "pause victim must be the second registrant");
    let mut cfg = RuntimeConfig::new(CORES, Policy::Dws);
    cfg.coordinator_period = PERIOD;
    cfg.t_sleep = u32::MAX;
    let rt = Runtime::with_table(cfg, Arc::new(table), prog);
    flood_round(&rt);
    println!("victim-ready");
    std::io::stdout().flush().expect("pause-victim: flush");
    // The SIGSTOP lands somewhere in this loop. After SIGCONT the
    // coordinator's next heartbeat self-check discovers the fence.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        flood_round(&rt);
        let m = rt.metrics();
        if m.zombies_fenced > 0 {
            println!("victim-fenced rearmed={}", m.leases_rearmed);
            std::io::stdout().flush().expect("pause-victim: flush");
            return ExitCode::SUCCESS;
        }
        if Instant::now() > deadline {
            println!("victim-timeout");
            std::io::stdout().flush().expect("pause-victim: flush");
            return ExitCode::from(3);
        }
    }
}

/// The `stall` victim: registers with raw table ops (no runtime),
/// heartbeats for `beat_ms`, then goes silent while staying alive
/// (blocked on stdin). Woken by the parent, every table op it tries
/// must be refused — the zombie self-fence.
fn role_sloth(path: &Path, beat_ms: u64) -> ExitCode {
    let table = ShmTable::open_with_retry(path, CORES, 2, 20, Duration::from_millis(5))
        .expect("sloth: open shared table");
    let prog = table.register().expect("sloth: register");
    assert_eq!(prog, 1, "sloth must be the second registrant");
    let homes: Vec<usize> = (0..CORES).filter(|&c| table.home(c) == prog).collect();
    let stop = Instant::now() + Duration::from_millis(beat_ms);
    while Instant::now() < stop {
        table.heartbeat(prog);
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("sloth-stalled");
    std::io::stdout().flush().expect("sloth: flush");
    // Stalled-but-alive: no heartbeat, pid present. The parent writes a
    // line once the survivor has fenced and reaped us.
    let mut resume = String::new();
    std::io::stdin().read_line(&mut resume).expect("sloth: wait for resume");
    // Post-resume: every mutation path must refuse — self_check sees a
    // fenced/recycled lease behind the latched (prog, epoch) binding.
    let mut refused = true;
    for &c in &homes {
        refused &= !table.try_reclaim(c, prog);
        refused &= !table.release(c, prog);
    }
    for c in 0..CORES {
        refused &= !table.try_acquire_free(c, prog);
    }
    table.heartbeat(prog); // must be a no-op for a zombie
    if refused && table.zombie_fenced() {
        println!("sloth-fenced");
        std::io::stdout().flush().expect("sloth: flush");
        ExitCode::SUCCESS
    } else {
        println!("sloth-wrote refused={refused} zombie={}", table.zombie_fenced());
        std::io::stdout().flush().expect("sloth: flush");
        ExitCode::from(3)
    }
}

/// One churn-cohort member: registers under backoff retry (the table
/// has fewer lease slots than the cohort has members), floods for
/// `work_ms`, and exits without deregistering — its dead pid is the
/// survivor's cue to fence and recycle the lease.
fn role_member(path: &Path, programs: usize, work_ms: u64) -> ExitCode {
    let table = ShmTable::open_with_retry(path, CORES, programs, 40, Duration::from_millis(5))
        .expect("member: open shared table");
    let policy = Backoff::new(400, Duration::from_millis(2));
    let prog = match table.register_with_retry(policy) {
        Ok(p) => p,
        Err(e) => {
            println!("member-failed {e}");
            return ExitCode::from(3);
        }
    };
    println!("member-ready {prog}");
    std::io::stdout().flush().expect("member: flush");
    let mut cfg = RuntimeConfig::new(CORES, Policy::Dws).with_lease_timeout(LEASE_TIMEOUT);
    cfg.coordinator_period = PERIOD;
    let rt = Runtime::with_table(cfg, Arc::new(table), prog);
    let stop = Instant::now() + Duration::from_millis(work_ms);
    while Instant::now() < stop {
        flood_round(&rt);
    }
    ExitCode::SUCCESS
}

/// A submission-ring client: publishes `good` requests into program 0's
/// ring, reports, then (if doomed) claims one more slot and SIGKILLs
/// itself between reserve and publish — the exact wedge the consumer's
/// abandonment path exists to clear.
fn role_client(path: &Path, client_id: u64, good: u64, doomed: bool) -> ExitCode {
    let table = ShmTable::open_with_retry(path, CORES, 2, 20, Duration::from_millis(5))
        .expect("client: open shared table");
    let ring = table.submit_ring(0).expect("client: server ring");
    let epoch = ring.epoch();
    let mut published = 0u64;
    for i in 0..good {
        let req = Request { req_id: (client_id << 32) | i, submit_us: 0, demand_us: 50 };
        if ring.submit(req, epoch).is_ok() {
            published += 1;
        }
    }
    // Claim the doomed reservation *before* reporting: the parent kills
    // us as soon as it reads the line, and the whole point is to die with
    // a claimed-but-unpublished slot in the ring.
    if doomed {
        ring.reserve_abandon(epoch).expect("client: reserve");
    }
    println!("client-done {published}");
    std::io::stdout().flush().expect("client: flush");
    if doomed {
        // Die between reserve and publish: the claimed slot stays
        // unpublished forever.
        // SAFETY: plain SIGKILL aimed at ourselves.
        unsafe { libc::kill(std::process::id() as i32, libc::SIGKILL) };
    }
    ExitCode::SUCCESS
}

/// A spurious-ring storm process: hammers program 0's doorbell from its
/// own mapping with rings that announce nothing — `DOORBELL_SUBMIT`
/// without a publish, `DOORBELL_DEMAND` without a demand change — until
/// SIGKILLed. Rings are advisory, so the only damage a storm *could* do
/// is phantom admissions or a wedged coordinator; the parent asserts
/// neither happens.
fn role_ringer(path: &Path, gap_us: u64) -> ExitCode {
    let table = ShmTable::open_with_retry(path, CORES, 2, 20, Duration::from_millis(5))
        .expect("ringer: open shared table");
    println!("ringer-ready");
    std::io::stdout().flush().expect("ringer: flush");
    loop {
        table.ring_doorbell(0, DOORBELL_SUBMIT | DOORBELL_DEMAND);
        std::thread::sleep(Duration::from_micros(gap_us));
    }
}

/// A doorbell-era submission client: publishes `good` requests into
/// program 0's ring and rings `DOORBELL_SUBMIT` after each publish —
/// the cross-process edge-triggered admission path.
fn role_bell_client(path: &Path, client_id: u64, good: u64) -> ExitCode {
    let table = ShmTable::open_with_retry(path, CORES, 2, 20, Duration::from_millis(5))
        .expect("bell-client: open shared table");
    let ring = table.submit_ring(0).expect("bell-client: server ring");
    let epoch = ring.epoch();
    for i in 0..good {
        let req = Request { req_id: (client_id << 32) | i, submit_us: 0, demand_us: 50 };
        while ring.submit(req, epoch) == Err(dws_rt::SubmitError::Full) {
            std::thread::yield_now();
        }
        table.ring_doorbell(0, DOORBELL_SUBMIT);
    }
    println!("client-done {good}");
    std::io::stdout().flush().expect("bell-client: flush");
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Fault schedules (one per class), each fully derived from its seed.
// ---------------------------------------------------------------------------

struct Outcome {
    mttr: Duration,
    detail: String,
}

/// SIGSTOP straddling lease expiry: stop a live co-runner, let the
/// stall fence fire while it is stopped, resume it into fenced-ness.
fn run_pause(seed: u64) -> Outcome {
    let mut rng = Rng(seed ^ 0xA0);
    let warm = Duration::from_millis(rng.range(30, 120));
    let overhold = Duration::from_millis(rng.range(0, 60));
    let path = table_path("pause", seed);
    let _ = std::fs::remove_file(&path);

    let shm = Arc::new(ShmTable::create_or_open(&path, CORES, 2).expect("create table"));
    assert_eq!(shm.register().expect("register survivor"), 0);
    let traced = Arc::new(TracedTable::new(Arc::clone(&shm) as Arc<dyn CoreTable>, 1 << 16));
    traced.set_stall_timeout(Some(STALL_TIMEOUT));
    let rt = Arc::new(Runtime::with_table(
        survivor_config(),
        Arc::clone(&traced) as Arc<dyn CoreTable>,
        0,
    ));

    let mut guard = spawn_role("pause-victim", &path, &[]);
    let stdout = guard.0.as_mut().unwrap().stdout.take().expect("victim stdout");
    let mut reader = BufReader::new(stdout);
    assert_eq!(read_line(&mut reader, "pause-victim"), "victim-ready");

    let stop = Arc::new(AtomicBool::new(false));
    let flood = {
        let (rt, stop) = (Arc::clone(&rt), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                flood_round(&rt);
            }
        })
    };
    std::thread::sleep(warm);
    assert_eq!(traced.used_by(1).len(), 2, "victim must hold its 2 home cores when stopped");

    // SIGSTOP: all victim threads freeze, its heartbeat goes stale, its
    // pid stays alive — only the stall fence can expire it.
    // SAFETY: plain kill on a child we spawned.
    unsafe { libc::kill(guard.pid(), libc::SIGSTOP) };
    let stopped_at = Instant::now();

    let deadline = recovery_deadline();
    let mttr = loop {
        if traced.used_by(0).len() == CORES {
            break stopped_at.elapsed();
        }
        assert!(
            stopped_at.elapsed() <= deadline,
            "pause: survivor owns {}/{CORES} cores {:?} after SIGSTOP (budget {deadline:?})",
            traced.used_by(0).len(),
            stopped_at.elapsed(),
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    // Verify the trace *now*, while every table mutation since the stop
    // is provably the survivor's: after SIGCONT the victim re-arms under
    // a new epoch through its own untraced handle, so the trace stops
    // being a linearization of the shared table. The post-resume tail is
    // covered by the audit, settlement, and metric checks instead.
    let stats = traced.replay_check().expect("pause: recovery trace replays clean");
    // The stop straddled expiry by construction (the fence fired during
    // it); hold a little longer, then resume the zombie.
    std::thread::sleep(overhold);
    // SAFETY: as above.
    unsafe { libc::kill(guard.pid(), libc::SIGCONT) };

    let report = read_line(&mut reader, "pause-victim");
    assert!(
        report.starts_with("victim-fenced"),
        "resumed victim never discovered the fence: {report:?}"
    );
    guard.kill_and_wait();

    // Settle (the victim may have re-armed before the kill; its second
    // death is fenced through the ordinary dead-pid path).
    wait_settled(&*traced, 0, recovery_deadline(), "pause");
    stop.store(true, Ordering::Relaxed);
    flood.join().expect("flood thread");
    wait_audit_clean(&shm, Duration::from_secs(2), "pause");

    let m = rt.metrics();
    assert!(m.leases_expired >= 1, "no lease was ever fenced: {m:?}");
    assert!(m.cores_reaped >= 2, "the victim's cores were never reaped: {m:?}");
    let detail = format!(
        "warm {warm:?}, overhold {overhold:?}, {report}, {} trace events clean",
        stats.total()
    );
    drop(rt);
    let _ = std::fs::remove_file(&path);
    Outcome { mttr, detail }
}

/// SIGKILL mid-stride (the classic crash), seeded warm-up.
fn run_kill(seed: u64) -> Outcome {
    let mut rng = Rng(seed ^ 0xB1);
    let warm = Duration::from_millis(rng.range(25, 150));
    let path = table_path("kill", seed);
    let _ = std::fs::remove_file(&path);

    let shm = Arc::new(ShmTable::create_or_open(&path, CORES, 2).expect("create table"));
    assert_eq!(shm.register().expect("register survivor"), 0);
    let traced = Arc::new(TracedTable::new(Arc::clone(&shm) as Arc<dyn CoreTable>, 1 << 16));
    let rt = Arc::new(Runtime::with_table(
        survivor_config(),
        Arc::clone(&traced) as Arc<dyn CoreTable>,
        0,
    ));

    let mut guard = spawn_role("victim", &path, &[]);
    let stdout = guard.0.as_mut().unwrap().stdout.take().expect("victim stdout");
    let mut reader = BufReader::new(stdout);
    assert_eq!(read_line(&mut reader, "victim"), "victim-ready");

    let stop = Arc::new(AtomicBool::new(false));
    let flood = {
        let (rt, stop) = (Arc::clone(&rt), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                flood_round(&rt);
            }
        })
    };
    std::thread::sleep(warm);
    assert_eq!(traced.used_by(1).len(), 2, "victim must hold its 2 home cores when killed");

    let killed_at = Instant::now();
    guard.kill_and_wait();

    let deadline = recovery_deadline();
    let mttr = loop {
        if traced.used_by(0).len() == CORES {
            break killed_at.elapsed();
        }
        assert!(
            killed_at.elapsed() <= deadline,
            "kill: survivor owns {}/{CORES} cores {:?} after SIGKILL (budget {deadline:?})",
            traced.used_by(0).len(),
            killed_at.elapsed(),
        );
        std::thread::sleep(Duration::from_millis(2));
    };
    stop.store(true, Ordering::Relaxed);
    flood.join().expect("flood thread");

    let m = rt.metrics();
    assert_eq!(m.leases_expired, 1, "exactly one lease fenced: {m:?}");
    assert_eq!(m.cores_reaped, 2, "both stranded cores reaped: {m:?}");
    wait_audit_clean(&shm, Duration::from_secs(2), "kill");
    let stats = traced.replay_check().expect("kill: trace replays clean");
    assert_eq!(stats.reaps, 2, "replay saw both reap transitions: {stats:?}");
    let detail = format!("warm {warm:?}, {} trace events clean", stats.total());
    drop(rt);
    let _ = std::fs::remove_file(&path);
    Outcome { mttr, detail }
}

/// Heartbeat stall: the victim stays alive but silent; after the fence
/// its own writes must all be refused.
fn run_stall(seed: u64) -> Outcome {
    let mut rng = Rng(seed ^ 0xC2);
    let beat_ms = rng.range(40, 140);
    let path = table_path("stall", seed);
    let _ = std::fs::remove_file(&path);

    let shm = Arc::new(ShmTable::create_or_open(&path, CORES, 2).expect("create table"));
    assert_eq!(shm.register().expect("register survivor"), 0);
    let traced = Arc::new(TracedTable::new(Arc::clone(&shm) as Arc<dyn CoreTable>, 1 << 16));
    traced.set_stall_timeout(Some(STALL_TIMEOUT));
    let rt = Arc::new(Runtime::with_table(
        survivor_config(),
        Arc::clone(&traced) as Arc<dyn CoreTable>,
        0,
    ));

    let mut guard = spawn_role("sloth", &path, &[beat_ms.to_string()]);
    let stdout = guard.0.as_mut().unwrap().stdout.take().expect("sloth stdout");
    let mut reader = BufReader::new(stdout);

    let stop = Arc::new(AtomicBool::new(false));
    let flood = {
        let (rt, stop) = (Arc::clone(&rt), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                flood_round(&rt);
            }
        })
    };

    assert_eq!(read_line(&mut reader, "sloth"), "sloth-stalled");
    let stalled_at = Instant::now();

    // The survivor must stall-fence the silent-but-alive registrant and
    // take every core.
    let deadline = recovery_deadline();
    let mttr = loop {
        if traced.used_by(0).len() == CORES {
            break stalled_at.elapsed();
        }
        assert!(
            stalled_at.elapsed() <= deadline,
            "stall: survivor owns {}/{CORES} cores {:?} after the stall (budget {deadline:?})",
            traced.used_by(0).len(),
            stalled_at.elapsed(),
        );
        std::thread::sleep(Duration::from_millis(2));
    };

    // Wake the sloth; every table op it now tries must bounce off the
    // zombie self-fence.
    let stdin = guard.0.as_mut().unwrap().stdin.take().expect("sloth stdin");
    let mut stdin = stdin;
    writeln!(stdin, "resume").expect("wake the sloth");
    let report = read_line(&mut reader, "sloth");
    assert_eq!(report, "sloth-fenced", "post-fence write refused incompletely: {report:?}");
    guard.kill_and_wait();

    stop.store(true, Ordering::Relaxed);
    flood.join().expect("flood thread");
    wait_settled(&*traced, 0, recovery_deadline(), "stall");
    wait_audit_clean(&shm, Duration::from_secs(2), "stall");
    let m = rt.metrics();
    assert!(m.leases_expired >= 1, "the stalled lease was never fenced: {m:?}");
    let stats = traced.replay_check().expect("stall: trace replays clean");
    let detail = format!("beat {beat_ms} ms, {} trace events clean", stats.total());
    drop(rt);
    let _ = std::fs::remove_file(&path);
    Outcome { mttr, detail }
}

/// Open-loop churn of 8–32 short-lived programs through a 4-slot table,
/// with a seeded subset SIGKILLed mid-run.
fn run_churn(seed: u64, fast: bool) -> Outcome {
    let mut rng = Rng(seed ^ 0xD3);
    let programs = 4usize;
    let cohort = if fast { rng.range(8, 12) } else { rng.range(8, 32) } as usize;
    let path = table_path("churn", seed);
    let _ = std::fs::remove_file(&path);

    let shm = Arc::new(ShmTable::create_or_open(&path, CORES, programs).expect("create table"));
    assert_eq!(shm.register().expect("register survivor"), 0);
    let rt =
        Arc::new(Runtime::with_table(survivor_config(), Arc::clone(&shm) as Arc<dyn CoreTable>, 0));

    let stop = Arc::new(AtomicBool::new(false));
    let flood = {
        let (rt, stop) = (Arc::clone(&rt), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                flood_round(&rt);
            }
        })
    };

    // Open loop: arrivals at seeded instants, regardless of departures.
    // Each member needs [prog-count, work-ms]; a seeded third of the
    // cohort is killed mid-work instead of exiting cleanly.
    let mut members: Vec<(ChildGuard, Option<Instant>)> = Vec::new();
    let mut registered = 0usize;
    let mut kills = 0usize;
    for i in 0..cohort {
        let work_ms = rng.range(20, 80);
        let doomed = rng.chance(1, 3);
        let kill_after = Duration::from_millis(rng.range(5, 40));
        let guard = spawn_role("member", &path, &[programs.to_string(), work_ms.to_string()]);
        let kill_at = doomed.then(|| Instant::now() + kill_after);
        members.push((guard, kill_at));
        if i + 1 < cohort {
            std::thread::sleep(Duration::from_millis(rng.range(2, 25)));
        }
        // Fire due kills as we go (the storm overlaps the arrivals).
        for (g, k) in members.iter_mut() {
            if k.is_some_and(|at| Instant::now() >= at) {
                g.kill_and_wait();
                *k = None;
                kills += 1;
            }
        }
    }
    // Fire the remaining kills, then reap exits *promptly* (try_wait
    // poll, not in-order wait): a cleanly-exited member lingers as a
    // zombie process until waited, and `kill(pid, 0)` calls a zombie
    // alive — so an unwaited exit pins its lease unreapable and starves
    // every registrant behind it.
    for (g, k) in members.iter_mut() {
        if k.take().is_some() {
            g.kill_and_wait();
            kills += 1;
        }
    }
    let mut failed: Vec<String> = Vec::new();
    let mut pending: Vec<usize> = (0..members.len()).collect();
    let wait_deadline = Instant::now() + Duration::from_secs(60);
    while !pending.is_empty() {
        assert!(
            Instant::now() < wait_deadline,
            "churn: {} member(s) still running after 60s",
            pending.len()
        );
        pending.retain(|&i| {
            let Some(child) = members[i].0 .0.as_mut() else { return false };
            if child.try_wait().expect("try_wait member").is_none() {
                return true;
            }
            let mut c = members[i].0 .0.take().unwrap();
            let _ = c.wait();
            let mut line = String::new();
            if let Some(out) = c.stdout.take() {
                let _ = BufReader::new(out).read_line(&mut line);
            }
            // A member SIGKILLed before it finished registering prints
            // nothing — that is the storm working as intended, not a
            // failure. Only an explicit retry-exhaustion report counts.
            if line.starts_with("member-ready") {
                registered += 1;
            } else if line.starts_with("member-failed") {
                failed.push(line.trim().to_string());
            }
            false
        });
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        failed.is_empty(),
        "{} member(s) of {cohort} failed to register: {failed:?}",
        failed.len()
    );
    let last_death = Instant::now();

    // Everything is dead; the survivor must fence every leftover lease
    // and end up owning the whole machine.
    wait_settled(&*shm, 0, recovery_deadline(), "churn");
    let mttr = last_death.elapsed();
    stop.store(true, Ordering::Relaxed);
    flood.join().expect("flood thread");
    wait_audit_clean(&shm, Duration::from_secs(2), "churn");
    // Killed members certainly died holding a lease; each death is
    // fenced exactly once (by whichever coordinator got there first, so
    // the survivor's counter is a floor, not an equality).
    let m = rt.metrics();
    assert!(registered >= programs - 1, "churn never filled the table: {registered} registrations");
    let detail = format!(
        "cohort {cohort}, {registered} registrations through {} slots, {kills} SIGKILLed, \
         survivor fenced {} / reaped {}",
        programs - 1,
        m.leases_expired,
        m.cores_reaped
    );
    drop(rt);
    let _ = std::fs::remove_file(&path);
    Outcome { mttr, detail }
}

/// Torn header write (seeded garbage over magic+version, optionally
/// plus deletion): the failover survivor must degrade, not panic.
fn run_torn(seed: u64) -> Outcome {
    let mut rng = Rng(seed ^ 0xE4);
    let warm_rounds = rng.range(2, 6);
    let also_delete = rng.chance(1, 2);
    let path = table_path("torn", seed);
    let _ = std::fs::remove_file(&path);

    let shm = Arc::new(ShmTable::create_or_open(&path, CORES, 2).expect("create table"));
    let failover = Arc::new(FailoverTable::new(Arc::clone(&shm), &path));
    assert_eq!(failover.register().expect("register"), 0);
    let rt = Runtime::with_table(survivor_config(), Arc::clone(&failover) as Arc<dyn CoreTable>, 0);
    for _ in 0..warm_rounds {
        flood_round(&rt);
    }
    assert!(!rt.degraded(), "healthy table must not report degraded");

    // Garbage the header *in place* (no truncate — the mapping must stay
    // valid; shrinking it would SIGBUS the next load).
    let garbage: Vec<u8> = (0..16).map(|_| rng.next() as u8).collect();
    {
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).expect("reopen table");
        f.write_all(&garbage).expect("tear the header");
        f.sync_all().expect("sync corruption");
    }
    if also_delete {
        std::fs::remove_file(&path).expect("delete table");
    }
    let torn_at = Instant::now();

    let deadline = Duration::from_secs(5);
    while !rt.degraded() {
        assert!(torn_at.elapsed() < deadline, "torn: runtime never degraded");
        flood_round(&rt);
    }
    let mttr = torn_at.elapsed();

    // The run completes on the private fallback table, and telemetry
    // surfaces the degradation.
    for _ in 0..3 {
        flood_round(&rt);
    }
    let frame_deadline = Instant::now() + Duration::from_secs(2);
    loop {
        if rt.latest_frame().is_some_and(|f| f.counters.degraded == 1) {
            break;
        }
        assert!(Instant::now() < frame_deadline, "torn: telemetry never showed degraded=1");
        std::thread::sleep(Duration::from_millis(5));
    }
    let detail =
        format!("{warm_rounds} warm rounds, garbage {garbage:02x?}, deleted={also_delete}");
    drop(rt);
    let _ = std::fs::remove_file(&path);
    Outcome { mttr, detail }
}

/// Submission-ring clients killed between reserve and publish: the
/// serving survivor abandons the wedged slots and drains everything
/// that was actually published (admission accounting exact).
fn run_ring(seed: u64) -> Outcome {
    let mut rng = Rng(seed ^ 0xF5);
    let clients = rng.range(2, 5);
    let path = table_path("ring", seed);
    let _ = std::fs::remove_file(&path);

    let shm = Arc::new(ShmTable::create_or_open(&path, CORES, 2).expect("create table"));
    assert_eq!(shm.register().expect("register server"), 0);
    let handled = Arc::new(AtomicU64::new(0));
    let rt = {
        let handled = Arc::clone(&handled);
        Runtime::serve_with_table(
            survivor_config(),
            Arc::clone(&shm) as Arc<dyn CoreTable>,
            0,
            move |_req: Request| {
                burn();
                handled.fetch_add(1, Ordering::Relaxed);
            },
        )
    };

    let mut published = 0u64;
    let mut doomed_total = 0u64;
    let mut last_death = Instant::now();
    for c in 0..clients {
        let good = rng.range(5, 40);
        let doomed = c == 0 || rng.chance(1, 2); // at least one mid-publish death
        let mut guard = spawn_role(
            "client",
            &path,
            &[c.to_string(), good.to_string(), u64::from(doomed).to_string()],
        );
        let stdout = guard.0.as_mut().unwrap().stdout.take().expect("client stdout");
        let mut reader = BufReader::new(stdout);
        let line = read_line(&mut reader, "client");
        let n: u64 = line
            .strip_prefix("client-done ")
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unexpected client report {line:?}"));
        published += n;
        // The doomed client SIGKILLs itself between reserve and publish;
        // wait() observes the death either way.
        guard.kill_and_wait();
        if doomed {
            doomed_total += 1;
            last_death = Instant::now();
        }
    }

    // Every wedged reservation must be abandoned (un-wedging the ring)…
    let ring = shm.submit_ring(0).expect("server ring");
    let deadline = Duration::from_secs(5);
    while ring.abandoned() < doomed_total {
        assert!(
            last_death.elapsed() < deadline,
            "ring: only {}/{doomed_total} abandoned reservations reclaimed",
            ring.abandoned()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let mttr = last_death.elapsed();

    // …and every request that was actually published must be admitted
    // and executed exactly once — nothing lost behind the tombstones.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    while handled.load(Ordering::Relaxed) < published {
        assert!(
            Instant::now() < drain_deadline,
            "ring: {}/{published} published requests handled",
            handled.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(ring.abandoned(), doomed_total, "abandonment over-counted");

    // The ring still works: a probe from a fresh handle drains through.
    ring.submit(Request { req_id: u64::MAX, submit_us: 0, demand_us: 50 }, ring.epoch())
        .expect("post-recovery probe submit");
    let probe_deadline = Instant::now() + Duration::from_secs(5);
    while handled.load(Ordering::Relaxed) < published + 1 {
        assert!(Instant::now() < probe_deadline, "ring: probe request never handled");
        std::thread::sleep(Duration::from_millis(2));
    }
    wait_audit_clean(&shm, Duration::from_secs(2), "ring");

    let detail = format!(
        "{clients} clients, {published} published, {doomed_total} killed mid-publish, \
         {} abandoned",
        ring.abandoned()
    );
    drop(rt);
    let _ = std::fs::remove_file(&path);
    Outcome { mttr, detail }
}

/// Spurious-ring storm against the event-driven serving path: with the
/// coordinator period parked at ten minutes, every admission below is
/// doorbell-driven by construction. Storm ringers hammer the doorbell
/// with rings that announce nothing (the coordinator must wake, find an
/// empty ring, and go back to sleep without inventing admissions), real
/// clients publish-and-ring concurrently, and the storm is SIGKILLed
/// mid-ring — after which a probe proves the doorbell still delivers.
/// MTTR here is storm-death → probe-handled: how fast the control plane
/// returns to quiescent edge-triggered service.
fn run_doorbell(seed: u64) -> Outcome {
    let mut rng = Rng(seed ^ 0x96);
    let ringers = rng.range(1, 3);
    let clients = rng.range(2, 4);
    let gap_us = rng.range(50, 400);
    let path = table_path("doorbell", seed);
    let _ = std::fs::remove_file(&path);

    let shm = Arc::new(ShmTable::create_or_open(&path, CORES, 2).expect("create table"));
    assert_eq!(shm.register().expect("register server"), 0);
    // Ten-minute period: no polling tick fires inside this schedule, so
    // progress is attributable to doorbell wakes alone. Chores (lease
    // heartbeats) stop with the tick, but nothing else runs a
    // coordinator here, so no one can fence the server.
    let mut cfg =
        RuntimeConfig::new(CORES, Policy::Dws).with_lease_timeout(Duration::from_secs(600));
    cfg.coordinator_period = Duration::from_secs(600);
    cfg.sleep_timeout = Some(Duration::from_millis(2));
    let handled = Arc::new(AtomicU64::new(0));
    let rt = {
        let handled = Arc::clone(&handled);
        Runtime::serve_with_table(cfg, Arc::clone(&shm) as Arc<dyn CoreTable>, 0, move |_req| {
            burn();
            handled.fetch_add(1, Ordering::Relaxed);
        })
    };

    let mut storm: Vec<ChildGuard> = Vec::new();
    for _ in 0..ringers {
        let mut guard = spawn_role("ringer", &path, &[gap_us.to_string()]);
        let stdout = guard.0.as_mut().unwrap().stdout.take().expect("ringer stdout");
        assert_eq!(read_line(&mut BufReader::new(stdout), "ringer"), "ringer-ready");
        storm.push(guard);
    }

    let mut published = 0u64;
    for c in 0..clients {
        let good = rng.range(5, 40);
        let mut guard = spawn_role("bell-client", &path, &[c.to_string(), good.to_string()]);
        let stdout = guard.0.as_mut().unwrap().stdout.take().expect("bell-client stdout");
        let line = read_line(&mut BufReader::new(stdout), "bell-client");
        let n: u64 = line
            .strip_prefix("client-done ")
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unexpected bell-client report {line:?}"));
        published += n;
        guard.kill_and_wait();
    }

    // Everything published drains under the storm, with no polling tick
    // to fall back on.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    while handled.load(Ordering::Relaxed) < published {
        assert!(
            Instant::now() < drain_deadline,
            "doorbell: {}/{published} requests handled with the period parked — \
             submit doorbell lost under the storm",
            handled.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // SIGKILL the storm mid-ring: a ringer dying between the pending-word
    // store and the futex wake must leave nothing wedged.
    let killed_at = Instant::now();
    for g in storm.iter_mut() {
        g.kill_and_wait();
    }

    // Post-storm probe: the doorbell still delivers after its abusers die.
    let ring = shm.submit_ring(0).expect("server ring");
    ring.submit(Request { req_id: u64::MAX, submit_us: 0, demand_us: 50 }, ring.epoch())
        .expect("post-storm probe submit");
    shm.ring_doorbell(0, DOORBELL_SUBMIT);
    let probe_deadline = Instant::now() + Duration::from_secs(5);
    while handled.load(Ordering::Relaxed) < published + 1 {
        assert!(Instant::now() < probe_deadline, "doorbell: probe request never handled");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mttr = killed_at.elapsed();

    // Spurious rings woke the coordinator but admitted nothing: the
    // admission counter covers exactly what was published.
    let m = rt.metrics();
    assert_eq!(
        m.requests_admitted,
        published + 1,
        "spurious rings must not admit phantom requests: {m:?}"
    );
    assert!(m.doorbell_wakes >= 1, "a 10-minute period admitted without doorbell wakes: {m:?}");
    wait_audit_clean(&shm, Duration::from_secs(2), "doorbell");

    let detail = format!(
        "{ringers} ringer(s) at {gap_us} µs, {clients} clients, {published} published, \
         {} doorbell wakes, admissions exact",
        m.doorbell_wakes
    );
    drop(rt);
    let _ = std::fs::remove_file(&path);
    Outcome { mttr, detail }
}

fn run_schedule(seed: u64, fast: bool) -> Outcome {
    match class_of(seed) {
        "pause" => run_pause(seed),
        "kill" => run_kill(seed),
        "stall" => run_stall(seed),
        "churn" => run_churn(seed, fast),
        "torn" => run_torn(seed),
        "ring" => run_ring(seed),
        "doorbell" => run_doorbell(seed),
        other => unreachable!("unknown class {other}"),
    }
}

// ---------------------------------------------------------------------------
// Driver: schedule generation and the run loop.
// ---------------------------------------------------------------------------

/// Round-robin class coverage with seed-determined everything: for slot
/// `i` targeting class `i % 6`, take the first candidate from the root
/// stream whose own class matches. The schedule remains a pure function
/// of its seed (`--replay` needs nothing else), while a default run is
/// guaranteed to visit every class.
fn schedule_seeds(root: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng(root);
    (0..n)
        .map(|i| {
            let target = CLASSES[i % CLASSES.len()];
            loop {
                let candidate = rng.next();
                if class_of(candidate) == target {
                    break candidate;
                }
            }
        })
        .collect()
}

const USAGE: &str = "usage: chaos [--schedules N] [--seed HEX] [--replay HEX] [--fast]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Child-role dispatch (self-exec, as in `crash`).
    if args.first().map(String::as_str) == Some("--role") {
        let role = args.get(1).map(String::as_str).expect("role name");
        let path = PathBuf::from(args.get(2).expect("role needs the table path"));
        return match role {
            "victim" => role_victim(&path),
            "pause-victim" => role_pause_victim(&path),
            "sloth" => role_sloth(&path, args[3].parse().expect("sloth beat ms")),
            "member" => role_member(
                &path,
                args[3].parse().expect("member program count"),
                args[4].parse().expect("member work ms"),
            ),
            "client" => role_client(
                &path,
                args[3].parse().expect("client id"),
                args[4].parse().expect("client good count"),
                args[5] == "1",
            ),
            "ringer" => role_ringer(&path, args[3].parse().expect("ringer gap µs")),
            "bell-client" => role_bell_client(
                &path,
                args[3].parse().expect("bell-client id"),
                args[4].parse().expect("bell-client good count"),
            ),
            other => {
                eprintln!("unknown role {other}");
                ExitCode::from(2)
            }
        };
    }

    let mut schedules: Option<usize> = None;
    let mut root = ROOT_SEED;
    let mut replay: Option<u64> = None;
    let mut fast = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--schedules" => {
                i += 1;
                schedules = Some(args[i].parse().expect("--schedules: number"));
            }
            "--seed" => {
                i += 1;
                let s = args[i].trim_start_matches("0x");
                root = u64::from_str_radix(s, 16).expect("--seed: hex");
            }
            "--replay" => {
                i += 1;
                let s = args[i].trim_start_matches("0x");
                replay = Some(u64::from_str_radix(s, 16).expect("--replay: hex"));
            }
            "--fast" => fast = true,
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let seeds = match replay {
        Some(seed) => vec![seed],
        None => {
            let n = schedules.unwrap_or(if fast { FAST_SCHEDULES } else { DEFAULT_SCHEDULES });
            schedule_seeds(root, n)
        }
    };

    println!(
        "chaos: {} schedule(s), root seed {root:#x}, classes {}",
        seeds.len(),
        CLASSES.join("/")
    );
    let mut violations = 0usize;
    for (i, &seed) in seeds.iter().enumerate() {
        let class = class_of(seed);
        println!("[{:>2}/{}] schedule {seed:#018x} class={class}", i + 1, seeds.len());
        match catch_unwind(AssertUnwindSafe(|| run_schedule(seed, fast))) {
            Ok(out) => {
                println!("        repaired in {:?} — {}", out.mttr, out.detail);
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic>");
                violations += 1;
                eprintln!("        VIOLATION: {msg}");
                eprintln!("        reproduce: chaos --replay {seed:#x}");
            }
        }
    }

    if violations > 0 {
        eprintln!("chaos: {violations} schedule(s) violated invariants");
        return ExitCode::FAILURE;
    }
    println!("chaos: all {} schedule(s) PASS", seeds.len());
    ExitCode::SUCCESS
}
