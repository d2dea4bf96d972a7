//! `serve-corun-shm` — open loop (MMPP, burstiness 2) beside a closed
//! greedy batch. A serving program and a batch program share one
//! `ShmTable` file, each through its own mapping and `register()`; a third
//! mapping is the client, which submits straight into the serving
//! program's shm ring and rings its futex doorbell — the cross-process
//! path, minus the fork. The batch program runs 2^14-leaf trees of ≈30 µs
//! leaves back to back.
//!
//! Why it exists: the same layers used differently — shm CAS ladders, the
//! futex doorbell and the shm ring instead of the in-process ones, and
//! `try_reclaim` against a busy owner instead of `try_acquire_free`. And
//! it has a victim: serving latency bought by holding cores or reclaiming
//! harder shows up as lost batch throughput.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dws_rt::trace::now_us;
use dws_rt::{
    CoreTable, Policy, Request, Runtime, RuntimeConfig, ShmTable, SubmitError, DOORBELL_SUBMIT,
};
use dws_sim::ArrivalProcess;

use super::requests::{check_no_doubles, offer, record_request_layers, rung_stats, settle, ReqLog};
use super::{check_table_conserved, repeat_setup, CpuWindow, Env, Outcome};
use crate::probe::OpStamps;
use crate::sched::{arrivals, Arrival};
use crate::work::{Tree, ROUNDS_PER_US};

const SERVER: usize = 0;
const BATCH: usize = 1;
/// Nominal requests per second per home core of the serving program: the
/// calm state offers `1 / BURSTINESS` of it, a burst `BURSTINESS` times it,
/// which with the dwell times below is a mean of 0.75 of it.
///
/// Bursts stay at about a quarter of what the one home core can serve
/// (2000 rps of ≈118 µs). At 1500 and burstiness 4 they were at 0.7 of it:
/// every delay inside a burst was passed on to the rest of the burst, about
/// half of all requests queued for milliseconds, and the median sat on the
/// step between the two halves, where it moved by 25-30 % from one run of
/// the same code to the next. Here about three requests in four find the
/// server idle, the median is the wake path beside a busy batch plus the demand,
/// and the queueing of the bursts is what the tail reports.
const NOMINAL_RPS_PER_CORE: f64 = 1000.0;
const BURSTINESS: f64 = 2.0;
const CALM_DWELL_US: f64 = 10_000.0;
const BURST_DWELL_US: f64 = 2_000.0;
const BATCH_LEAVES: u32 = 1 << 14;
const BATCH_LEAF_ROUNDS: u64 = 30 * ROUNDS_PER_US;
const WARMUP_S: f64 = 0.3;
const WARMUP_LEAVES: u32 = 1 << 11;
const SETTLE: Duration = Duration::from_secs(15);

/// Everything one set-up builds; dropping it unmaps and removes the file.
struct Live {
    server: Runtime,
    batch: Runtime,
    /// The client's own mapping, behind the probe on traced runs.
    client: Arc<dyn CoreTable>,
    /// The same mapping, bare: `audit` is not part of `CoreTable`.
    client_shm: Arc<ShmTable>,
    log: Arc<ReqLog>,
    warm_n: u64,
    schedule: Vec<Arrival>,
    path: std::path::PathBuf,
}

impl Drop for Live {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// `ArrivalProcess::bursty` with dwell times a fifth of its preset's:
/// `rate / BURSTINESS` when calm, `rate × BURSTINESS` in a burst.
fn bursty(rate_per_sec: f64) -> ArrivalProcess {
    ArrivalProcess::Mmpp {
        calm_rate_per_sec: rate_per_sec / BURSTINESS,
        burst_rate_per_sec: rate_per_sec * BURSTINESS,
        calm_dwell_us: CALM_DWELL_US,
        burst_dwell_us: BURST_DWELL_US,
    }
}

fn open(path: &Path, cores: usize) -> Arc<ShmTable> {
    Arc::new(ShmTable::create_or_open(path, cores, 2).expect("map the shm table"))
}

pub fn run(env: &Env) -> Outcome {
    let tracer = env.tracer.as_deref();
    let stamps = OpStamps::new(env.ramp_workers(), env.tracer.clone());
    let leaves_done = AtomicU64::new(0);
    let batch_tree = Tree {
        seed: env.seed,
        leaves: BATCH_LEAVES,
        leaf_rounds: BATCH_LEAF_ROUNDS,
        stamp_span: 1,
        stamps: &stamps,
        leaves_done: Some(&leaves_done),
    };
    let batch_reference = batch_tree.serial_reference();
    let warm_tree = Tree { leaves: WARMUP_LEAVES, ..batch_tree };
    let warm_reference = warm_tree.serial_reference();
    // Submits as another process would: into the ring of the client's own
    // mapping, then the futex doorbell. Refused requests are not retried.
    let submit_via = |client: &dyn CoreTable, id: u64, demand_us: u64| -> Result<(), SubmitError> {
        let ring = client.submit_ring(SERVER).expect("the shm table carves a ring per program");
        ring.submit(Request { req_id: id, submit_us: now_us(), demand_us }, ring.epoch())?;
        client.ring_doorbell(SERVER, DOORBELL_SUBMIT);
        Ok(())
    };
    let offer_to = |live: &Live, schedule: &[Arrival], first_id: u64| {
        offer(schedule, first_id, tracer, false, |id, demand_us| {
            submit_via(&*live.client, id, demand_us)
        })
    };

    let mut setups = 0;
    let (live, setup_s) = repeat_setup(|| {
        setups += 1;
        std::fs::create_dir_all(&env.out_dir).expect("create the run directory");
        let path = env.out_dir.join(format!("table-{}-{setups}.shm", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let home_cores = env.cores.div_ceil(2);
        let rate = NOMINAL_RPS_PER_CORE * home_cores as f64;
        let schedule = arrivals(bursty(rate), env.seed, env.seconds);
        let warm = arrivals(bursty(rate), env.seed ^ 1, WARMUP_S);
        let log = ReqLog::new(warm.len() + schedule.len(), env.tracer.clone());

        // One mapping per participant, as separate processes would hold.
        let (server_map, batch_map, client_shm) =
            (open(&path, env.cores), open(&path, env.cores), open(&path, env.cores));
        assert_eq!(server_map.register().expect("register the server"), SERVER);
        assert_eq!(batch_map.register().expect("register the batch program"), BATCH);
        let config = || RuntimeConfig::new(env.cores, Policy::Dws);
        let server = Runtime::serve_with_table(
            config().with_serving(),
            env.wrap(server_map),
            SERVER,
            log.handler(),
        );
        let batch = Runtime::with_table(config(), env.wrap(batch_map), BATCH);
        let live = Live {
            server,
            batch,
            client: env.wrap(Arc::clone(&client_shm) as Arc<dyn CoreTable>),
            client_shm,
            log,
            warm_n: warm.len() as u64,
            schedule,
            path,
        };
        assert_eq!(live.batch.block_on(|| warm_tree.run()), warm_reference, "warm-up checksum");
        let (warmed, _) = offer_to(&live, &warm, 0);
        settle(&live.log, &warmed, SETTLE);
        live
    });

    // The batch program: trees back to back until told to stop.
    let stop = AtomicBool::new(false);
    let before = (live.server.metrics(), live.batch.metrics());
    let (offered, batch_trees, batch_bad, leaves, cpu_cores_used, window_s) =
        std::thread::scope(|s| {
            let batch = s.spawn(|| {
                let (mut trees, mut bad) = (0u64, 0u64);
                while !stop.load(Ordering::Acquire) {
                    stamps.reset();
                    bad += u64::from(live.batch.block_on(|| batch_tree.run()) != batch_reference);
                    trees += 1;
                }
                (trees, bad)
            });
            let leaves0 = leaves_done.load(Ordering::Relaxed);
            let cpu = CpuWindow::start();
            let (offered, generator_cpu_s) = offer_to(&live, &live.schedule, live.warm_n);
            let leaves = leaves_done.load(Ordering::Relaxed) - leaves0;
            let (cpu_cores_used, window_s) = cpu.end(generator_cpu_s);
            stop.store(true, Ordering::Release);
            settle(&live.log, &offered, SETTLE);
            let (trees, bad) = batch.join().expect("batch driver");
            (offered, trees, bad, leaves, cpu_cores_used, window_s)
        });

    let mut out = Outcome { setup_s, cpu_cores_used, window_s, ..Outcome::default() };
    out.counters.add_delta(&before.0, &live.server.metrics());
    out.counters.add_delta(&before.1, &live.batch.metrics());
    let stats = rung_stats(&live.log, &offered, &mut out.problems);
    out.attempted = stats.offered + batch_trees;
    out.failed = stats.failed + batch_bad + check_no_doubles(&live.log, &mut out.problems);
    if batch_bad > 0 {
        out.problems.push(format!("{batch_bad} batch trees: checksum mismatch"));
    }
    // `batch_leaves_per_s`: what the victim got done while the server was
    // being served.
    out.throughput_per_s = leaves as f64 / window_s;
    out.notes.push(format!(
        "{} requests at mean {:.0} rps, {batch_trees} batch trees of {BATCH_LEAVES} leaves",
        stats.offered, stats.rate_per_s
    ));
    record_request_layers(&live.log, &offered, SERVER, tracer, &mut out);
    let ring = live.client.submit_ring(SERVER).expect("server ring");
    out.layer
        .insert("ring.full_share", ring.dropped() as f64 / (live.warm_n + stats.offered) as f64);
    out.layer.insert("ring.abandoned", ring.abandoned() as f64);
    out.latency_us = stats.response_us;
    out.first_task_us = stats.sojourn_us;

    check_table_conserved(&*live.client, &mut out.problems);
    if let Err(errors) = live.client_shm.audit() {
        out.problems.extend(errors.into_iter().map(|e| format!("shm audit: {e}")));
    }
    let path = live.path.clone();
    drop(live);
    if path.exists() {
        out.problems.push(format!("shm file {} was not removed", path.display()));
    }
    out
}
