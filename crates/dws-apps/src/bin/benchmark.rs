//! Standalone benchmark program — the paper's actual deployment unit.
//!
//! Each invocation is one "work-stealing program": it builds a DWS
//! runtime, optionally attaches to a shared core-allocation table file
//! (`--table`), and runs one Table-2 kernel repeatedly, printing per-run
//! kernel times (the input is built before the timer starts) and the
//! Eq. 2 mean. Launch two of these with the same `--table` to co-run
//! real processes exactly as the paper does:
//!
//! ```sh
//! cargo build --release -p dws-apps --bin benchmark
//! T=/dev/shm/dws-table
//! ./target/release/benchmark --bench mergesort --policy dws --table $T --programs 2 --reps 5 &
//! ./target/release/benchmark --bench fft       --policy dws --table $T --programs 2 --reps 5 &
//! wait
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use dws_apps::common::{random_u64s, random_vec, Matrix};
use dws_apps::{cholesky, fft, ge, heat, lu, mergesort, pnn, sor};
use dws_rt::{CoreTable, Policy, Runtime, RuntimeConfig, ShmTable};

const USAGE: &str = "usage: benchmark --bench <fft|pnn|cholesky|lu|ge|heat|sor|mergesort> \
                     [--policy ws|abp|ep|dws|dws-nc] [--table PATH --programs M] \
                     [--workers N] [--reps R] [--size small|medium|large]";

const BENCHES: [&str; 8] = ["fft", "pnn", "cholesky", "lu", "ge", "heat", "sor", "mergesort"];

struct Args {
    bench: String,
    policy: Policy,
    table: Option<std::path::PathBuf>,
    programs: usize,
    workers: usize,
    reps: usize,
    scale: usize,
}

/// Prints the usage line and exits 2: the answer to any argument this
/// program cannot run with.
fn usage_exit() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        bench: "mergesort".into(),
        policy: Policy::Dws,
        table: None,
        programs: 2,
        workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        reps: 3,
        scale: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage_exit());
        // Zero workers, programs or reps has nothing to run or to average.
        let mut count =
            || val().parse().ok().filter(|&n: &usize| n > 0).unwrap_or_else(|| usage_exit());
        match flag.as_str() {
            "--bench" => {
                args.bench = val();
                if !BENCHES.contains(&args.bench.as_str()) {
                    usage_exit();
                }
            }
            "--policy" => {
                args.policy = match val().to_lowercase().as_str() {
                    "ws" => Policy::Ws,
                    "abp" => Policy::Abp,
                    "ep" => Policy::Ep,
                    "dws" => Policy::Dws,
                    "dws-nc" | "nc" => Policy::DwsNc,
                    _ => usage_exit(),
                }
            }
            "--table" => args.table = Some(val().into()),
            "--programs" => args.programs = count(),
            "--workers" => args.workers = count(),
            "--reps" => args.reps = count(),
            "--size" => {
                args.scale = match val().as_str() {
                    "small" => 1,
                    "medium" => 4,
                    "large" => 16,
                    _ => usage_exit(),
                }
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            _ => usage_exit(),
        }
    }
    args
}

/// Runs `kernel` on `rt` and times it alone.
fn timed<R: Send>(rt: &Runtime, kernel: impl FnOnce() -> R + Send) -> (R, Duration) {
    let t0 = Instant::now();
    let out = rt.block_on(kernel);
    (out, t0.elapsed())
}

/// One repetition of the chosen kernel. The input is built first, outside
/// the timer; returns a checksum, to keep the optimizer honest, and the
/// kernel's time.
fn run_once(bench: &str, scale: usize, rt: &Runtime, rep: u64) -> (f64, Duration) {
    match bench {
        "fft" => {
            let n = 4096 * scale;
            let x: Vec<fft::Complex> =
                random_vec(n, rep).into_iter().zip(random_vec(n, rep + 1)).collect();
            let (y, dt) = timed(rt, || fft::fft_parallel(&x, 256));
            (y[0].0, dt)
        }
        "pnn" => {
            let net = pnn::Pnn::random(16, 64 * scale, 4, 7);
            let batch: Vec<Vec<f64>> = (0..32).map(|i| random_vec(16, rep + i)).collect();
            let (out, dt) = timed(rt, || net.batch_parallel(&batch));
            (out[0][0], dt)
        }
        "cholesky" => {
            let a = Matrix::spd(64 * scale, rep);
            let (l, dt) = timed(rt, || cholesky::cholesky_parallel(&a, 8));
            (l.get(0, 0), dt)
        }
        "lu" => {
            let a = lu::dominant_matrix(64 * scale, rep);
            let (f, dt) = timed(rt, || lu::lu_parallel(&a, 8));
            (f.get(0, 0), dt)
        }
        "ge" => {
            let a = lu::dominant_matrix(64 * scale, rep);
            let b = random_vec(64 * scale, rep + 2);
            let (x, dt) = timed(rt, || ge::ge_parallel(&a, &b, 8));
            (x[0], dt)
        }
        "heat" => {
            let g = heat::Grid::hot_plate(64 * scale, 64 * scale);
            let (out, dt) = timed(rt, || heat::heat_parallel(&g, 30, 8));
            (out.mean_interior(), dt)
        }
        "sor" => {
            let g = heat::Grid::hot_plate(64 * scale, 64 * scale);
            let (out, dt) = timed(rt, || sor::sor_parallel(&g, 30, sor::DEFAULT_OMEGA, 8));
            (out.mean_interior(), dt)
        }
        "mergesort" => {
            // Paper input: 4E6 numbers at "large".
            let n = 250_000 * scale;
            let mut v = random_u64s(n, rep);
            let ((), dt) = timed(rt, || mergesort::mergesort_parallel(&mut v, 2048));
            (v[n / 2] as f64, dt)
        }
        _ => unreachable!("parse_args admits only BENCHES"),
    }
}

fn main() {
    let args = parse_args();

    let rt = match &args.table {
        Some(path) => {
            let table = ShmTable::create_or_open(path, args.workers, args.programs)
                .expect("open shared table");
            let prog_id = table.register().expect("register program");
            eprintln!("[{}] registered as program {prog_id} in {}", args.bench, path.display());
            Runtime::with_table(
                RuntimeConfig::new(args.workers, args.policy),
                Arc::new(table) as Arc<dyn CoreTable>,
                prog_id,
            )
        }
        None => Runtime::new(RuntimeConfig::new(args.workers, args.policy)),
    };

    let mut times = Vec::with_capacity(args.reps);
    let mut checksum = 0.0;
    for rep in 0..args.reps {
        let (sum, dt) = run_once(&args.bench, args.scale, &rt, rep as u64);
        checksum += sum;
        times.push(dt.as_secs_f64() * 1e3);
        println!("[{}] run {} took {:.2} ms", args.bench, rep + 1, dt.as_secs_f64() * 1e3);
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let m = rt.metrics();
    println!(
        "[{}] mean {:.2} ms over {} runs (policy {}, checksum {:.3e})",
        args.bench,
        mean,
        times.len(),
        rt.effective_policy(),
        checksum
    );
    println!(
        "[{}] metrics: jobs={} steals={}/{} sleeps={} wakes={} acquired={} reclaimed={} released={}",
        args.bench,
        m.jobs_executed,
        m.steals_ok,
        m.steals_failed,
        m.sleeps,
        m.wakes,
        m.cores_acquired,
        m.cores_reclaimed,
        m.cores_released
    );
}
