//! `check` — deterministic schedule exploration of the DWS sleep /
//! wake / reclaim protocol (the `dws-check` front end).
//!
//! Runs the Table-1 protocol model (two co-running programs, four cores,
//! per-program coordinator + workers) under the virtual-time scheduler
//! and reports how much of the schedule space was covered. On a failure
//! it prints the seed and the linearized protocol event trace, and exits
//! nonzero; `--replay <seed>` reproduces that exact interleaving.
//!
//! ```text
//! cargo run --release --bin check                     # 10k random schedules
//! cargo run --release --bin check -- --dfs            # bounded exhaustive DFS
//! cargo run --release --bin check -- --faults         # + fault injection
//! cargo run --release --bin check -- --bug double-reclaim   # mutation demo
//! cargo run --release --bin check -- --replay 0x2a9f41c3    # reproduce
//! ```

use std::process::ExitCode;
use std::time::Instant;

use dws_check::model::{self, Bug, ModelConfig};
use dws_check::{CheckOptions, Env, Explorer, FaultPlan, RunResult};

struct Cli {
    iters: u64,
    seed: u64,
    replay: Option<u64>,
    dfs: bool,
    max_steps: u64,
    faults: bool,
    small: bool,
    crash: bool,
    serving: bool,
    pause: bool,
    doorbell: bool,
    fast: bool,
    bug: Option<Bug>,
}

const USAGE: &str = "usage: check [OPTIONS]
  --iters <n>      random schedules to explore (default 10000)
  --seed <s>       base seed for the random source (default 0xD0C5)
  --replay <s>     re-run one seed and print its full event trace
  --dfs            bounded exhaustive DFS instead of random exploration
                   (--iters caps the number of schedules)
  --max-steps <n>  per-run scheduling-step budget (default 20000)
  --faults         enable aggressive fault injection (delayed/spurious
                   wakes, preemption storms, dropped steals)
  --small          1-core-per-program model instead of the standard
                   2-program/4-core one
  --crash          SIGKILL one co-runner mid-run: explores the kill
                   against releases, reclaims and the survivor's
                   lease-fence/reap pass
  --serving        program 0 also serves external requests through the
                   model submission ring (client -> ring -> coordinator
                   drain -> queue -> exec), checked by the admission
                   ledger
  --pause          SIGSTOP one co-runner mid-run and SIGCONT it later:
                   explores the stall against the survivor's
                   stall-fence/reap pass, including the resumed
                   zombie's duty to refuse all further table activity
  --doorbell       event-driven control plane: coordinators park on a
                   per-program doorbell (release/demand/submit edges
                   ring it, the period is only the fallback heartbeat),
                   checked by the doorbell rules (a sleep never begins
                   with a ring pending, nor over a swallowed demand)
  --fast           coarser atomicity (loads are not yield points); much
                   higher schedule throughput
  --bug <name>     seed a protocol mutation (the run SHOULD fail; exits 0
                   only if the checker catches it):
                     double-reclaim   stale-snapshot double reclaim
                     reap-alive       fence without confirming death
                                      (implies --crash)
                     over-steal       batched take ignores the steal-half
                                      quota and drains whole queues
                     lost-batch       a multi-task batch drops its last
                                      task on the floor (caught only by
                                      the W1 task-identity rule)
                     reap-strand      the reaper drains the survivor's
                                      queue, stranding parked tasks
                                      (implies --crash; W1-only)
                     dropped-submit   the coordinator's drain pops a
                                      ringed request but never admits it
                                      (implies --serving; caught only by
                                      the admission ledger)
                     leaked-core-seconds
                                      the reap path frees the core but
                                      never bills the dead program's
                                      final interval (implies --crash;
                                      caught only by the core-seconds
                                      conservation rule)
                     zombie-write     a SIGCONTed program skips the
                                      post-resume fence check and its
                                      table CAS incorrectly succeeds
                                      (implies --pause; caught only by
                                      the post-fence rule)
                     lost-wake        a doorbell ring notifies without
                                      persisting the pending word, so a
                                      ring between waits evaporates
                                      (implies --doorbell; caught only
                                      by the doorbell wake rule)
                     late-ack         the coordinator re-arms the
                                      demand-rise edge after sampling
                                      N_b, swallowing a demand that
                                      found the edge spent (implies
                                      --doorbell; caught only by the
                                      doorbell demand rule)";

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        iters: 10_000,
        seed: 0xD0C5,
        replay: None,
        dfs: false,
        max_steps: 20_000,
        faults: false,
        small: false,
        crash: false,
        serving: false,
        pause: false,
        doorbell: false,
        fast: false,
        bug: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let num = |args: &[String], i: usize| -> Result<u64, String> {
        let v = args.get(i + 1).ok_or_else(|| format!("{} needs a value", args[i]))?;
        let v = v.trim();
        let parsed = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        };
        parsed.map_err(|_| format!("bad number for {}: {v}", args[i]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                cli.iters = num(&args, i)?;
                i += 1;
            }
            "--seed" => {
                cli.seed = num(&args, i)?;
                i += 1;
            }
            "--replay" => {
                cli.replay = Some(num(&args, i)?);
                i += 1;
            }
            "--max-steps" => {
                cli.max_steps = num(&args, i)?;
                i += 1;
            }
            "--dfs" => cli.dfs = true,
            "--faults" => cli.faults = true,
            "--small" => cli.small = true,
            "--crash" => cli.crash = true,
            "--serving" => cli.serving = true,
            "--pause" => cli.pause = true,
            "--doorbell" => cli.doorbell = true,
            "--fast" => cli.fast = true,
            "--bug" => {
                let v = args.get(i + 1).ok_or("--bug needs a value")?;
                cli.bug = Some(match v.as_str() {
                    "double-reclaim" => Bug::DoubleReclaim,
                    "reap-alive" => {
                        cli.crash = true;
                        Bug::ReapAlive
                    }
                    "over-steal" => Bug::OverSteal,
                    "lost-batch" => Bug::LostBatch,
                    "reap-strand" => {
                        cli.crash = true;
                        Bug::ReapStrand
                    }
                    "dropped-submit" => {
                        cli.serving = true;
                        Bug::DroppedSubmit
                    }
                    "leaked-core-seconds" => {
                        cli.crash = true;
                        Bug::LeakedCoreSeconds
                    }
                    "zombie-write" => {
                        cli.pause = true;
                        Bug::ZombieWrite
                    }
                    "lost-wake" => {
                        cli.doorbell = true;
                        Bug::LostWake
                    }
                    "late-ack" => {
                        cli.doorbell = true;
                        Bug::LateAck
                    }
                    other => return Err(format!("unknown bug `{other}`")),
                });
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    Ok(cli)
}

fn print_failure(r: &RunResult) {
    println!("FAIL  seed 0x{:x}  ({} steps, {} virtual ns)", r.seed, r.steps, r.virtual_ns);
    println!("  {}", r.failure.as_deref().unwrap_or("(no failure message)"));
    println!("  protocol events ({}):", r.events.len());
    for (i, e) in r.events.iter().enumerate() {
        println!("    {i:4}  {e:?}");
    }
    println!("\nreproduce with:  check --replay 0x{:x}{}", r.seed, replay_flags());
}

// --replay re-derives the schedule from the seed, so the model/fault
// flags must match; remind the user which ones were active.
fn replay_flags() -> String {
    let mut s = String::new();
    for flag in
        ["--faults", "--small", "--crash", "--serving", "--pause", "--doorbell", "--fast", "--dfs"]
    {
        if std::env::args().any(|a| a == flag) {
            s.push(' ');
            s.push_str(flag);
        }
    }
    if let Some(i) = std::env::args().position(|a| a == "--bug") {
        if let Some(v) = std::env::args().nth(i + 1) {
            s.push_str(" --bug ");
            s.push_str(&v);
        }
    }
    s
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if [cli.small, cli.crash, cli.serving, cli.pause, cli.doorbell].iter().filter(|&&f| f).count()
        > 1
    {
        eprintln!(
            "error: --small, --crash, --serving, --pause and --doorbell are mutually exclusive"
        );
        return ExitCode::from(2);
    }
    let cfg = match (cli.small, cli.crash, cli.serving, cli.pause, cli.doorbell) {
        (_, true, _, _, _) => ModelConfig::crash(),
        (true, _, _, _, _) => ModelConfig::small(),
        (_, _, true, _, _) => ModelConfig::serving(),
        (_, _, _, true, _) => ModelConfig::pause(),
        (_, _, _, _, true) => ModelConfig::doorbell(),
        _ => ModelConfig::standard(),
    };
    let cfg = match cli.bug {
        Some(b) => {
            let mut cfg = cfg.with_bug(b);
            if b == Bug::DoubleReclaim {
                // The reclaim race needs the dense sleep/wake episodes of
                // single-task takes; batching drains the queues too fast
                // to provoke it within bounded exploration (the mutation
                // test pins the same limit).
                cfg.steal_batch_limit = 1;
            }
            if b == Bug::ReapStrand {
                // The survivor needs tasks still parked when the reap
                // lands (~lease after the crash), or there is nothing
                // to strand (the mutation test pins the same shape).
                cfg.tasks = vec![40, 30];
            }
            cfg
        }
        None => cfg,
    };
    let opts = CheckOptions {
        max_steps: cli.max_steps,
        faults: if cli.faults { FaultPlan::aggressive() } else { FaultPlan::default() },
        yield_on_loads: !cli.fast,
        ..CheckOptions::default()
    };
    let model_cfg = cfg.clone();
    let explorer =
        Explorer::new(opts, move |env: &Env, seed| model::spawn_model(env, &model_cfg, seed));

    println!(
        "model: {} programs x {} cores{}{}{}{}{}{}{}",
        cfg.home().iter().max().map_or(1, |m| m + 1),
        cfg.home().len(),
        match cfg.crash {
            Some(v) => format!(", SIGKILL prog {v} at {} virtual ns", cfg.crash_at_ns),
            None => String::new(),
        },
        match cfg.pause {
            Some(v) => format!(
                ", SIGSTOP prog {v} over {}..{} virtual ns",
                cfg.pause_at_ns, cfg.resume_at_ns
            ),
            None => String::new(),
        },
        if cfg.is_serving() {
            format!(
                ", serving {} requests through a {}-slot ring",
                cfg.submits[0], cfg.ring_capacity
            )
        } else {
            String::new()
        },
        if cfg.doorbell { ", doorbell control plane" } else { "" },
        if cli.faults { ", aggressive faults" } else { "" },
        if cli.fast { ", fast (coarse loads)" } else { "" },
        match cli.bug {
            Some(Bug::DoubleReclaim) => ", seeded bug: double-reclaim (single-task takes)",
            Some(Bug::ReapAlive) => ", seeded bug: reap-alive",
            Some(Bug::OverSteal) => ", seeded bug: over-steal",
            Some(Bug::LostBatch) => ", seeded bug: lost-batch (W1 ledger)",
            Some(Bug::ReapStrand) => ", seeded bug: reap-strand (W1 ledger)",
            Some(Bug::DroppedSubmit) => ", seeded bug: dropped-submit (admission ledger)",
            Some(Bug::LeakedCoreSeconds) => {
                ", seeded bug: leaked-core-seconds (conservation ledger)"
            }
            Some(Bug::ZombieWrite) => ", seeded bug: zombie-write (post-fence rule)",
            Some(Bug::LostWake) => ", seeded bug: lost-wake (doorbell wake rule)",
            Some(Bug::LateAck) => ", seeded bug: late-ack (doorbell demand rule)",
            None => "",
        },
    );

    if let Some(seed) = cli.replay {
        let r = explorer.run_seed(seed);
        match &r.failure {
            Some(_) => {
                print_failure(&r);
                return ExitCode::FAILURE;
            }
            None => {
                println!(
                    "PASS  seed 0x{seed:x}  ({} steps, {} virtual ns, {} events)",
                    r.steps,
                    r.virtual_ns,
                    r.events.len()
                );
                return ExitCode::SUCCESS;
            }
        }
    }

    let start = Instant::now();
    let report =
        if cli.dfs { explorer.dfs(cli.iters) } else { explorer.random(cli.seed, cli.iters) };
    let dt = start.elapsed();
    let rate = report.schedules as f64 / dt.as_secs_f64().max(1e-9);
    println!(
        "{}: {} schedules ({} distinct) in {:.2?}  [{:.0}/s]",
        if cli.dfs { "dfs" } else { "random" },
        report.schedules,
        report.distinct,
        dt,
        rate,
    );

    match report.failing() {
        None if cli.bug.is_some() => {
            println!("MISSED: the seeded bug survived exploration");
            ExitCode::FAILURE
        }
        None => {
            println!("PASS: no protocol violation found");
            ExitCode::SUCCESS
        }
        Some(r) if cli.bug.is_some() => {
            print_failure(r);
            println!("CAUGHT: the seeded bug was detected (exit 0 for mutation runs)");
            ExitCode::SUCCESS
        }
        Some(r) => {
            print_failure(r);
            ExitCode::FAILURE
        }
    }
}
