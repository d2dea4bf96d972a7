//! True cross-process co-running: two OS processes share the mmap'd
//! core-allocation table exactly as the paper's deployment does (§3.4).

use std::process::{Child, Command, Stdio};

fn bench_bin() -> &'static str {
    env!("CARGO_BIN_EXE_benchmark")
}

fn spawn_bench(bench: &str, table: &std::path::Path, reps: usize) -> Child {
    Command::new(bench_bin())
        .args([
            "--bench",
            bench,
            "--policy",
            "dws",
            "--table",
            table.to_str().unwrap(),
            "--programs",
            "2",
            "--workers",
            "2",
            "--reps",
            &reps.to_string(),
            "--size",
            "small",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn benchmark process")
}

#[test]
fn two_processes_corun_through_the_shared_table() {
    let mut table = std::env::temp_dir();
    table.push(format!("dws-xproc-{}", std::process::id()));
    let _ = std::fs::remove_file(&table);

    let a = spawn_bench("mergesort", &table, 2);
    let b = spawn_bench("fft", &table, 2);

    let out_a = a.wait_with_output().expect("wait a");
    let out_b = b.wait_with_output().expect("wait b");
    let (sa, sb) = (
        String::from_utf8_lossy(&out_a.stdout).to_string(),
        String::from_utf8_lossy(&out_b.stdout).to_string(),
    );
    assert!(
        out_a.status.success(),
        "mergesort process failed: {sa}\n{}",
        String::from_utf8_lossy(&out_a.stderr)
    );
    assert!(
        out_b.status.success(),
        "fft process failed: {sb}\n{}",
        String::from_utf8_lossy(&out_b.stderr)
    );
    assert!(sa.contains("mean"), "no mean reported: {sa}");
    assert!(sb.contains("mean"), "no mean reported: {sb}");
    // Both registered distinct program ids (0 and 1) in the shared table.
    let regs: Vec<String> =
        [&out_a, &out_b].iter().map(|o| String::from_utf8_lossy(&o.stderr).to_string()).collect();
    let mut ids: Vec<bool> = vec![false; 2];
    for r in &regs {
        for (id, slot) in ids.iter_mut().enumerate() {
            if r.contains(&format!("registered as program {id}")) {
                *slot = true;
            }
        }
    }
    assert!(ids[0] && ids[1], "both program slots must be taken: {regs:?}");

    std::fs::remove_file(&table).ok();
}

#[test]
fn solo_process_runs_every_benchmark() {
    for bench in ["fft", "pnn", "cholesky", "lu", "ge", "heat", "sor", "mergesort"] {
        let out = Command::new(bench_bin())
            .args(["--bench", bench, "--policy", "ws", "--workers", "2", "--reps", "1"])
            .output()
            .expect("run benchmark");
        assert!(out.status.success(), "{bench} failed: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("mean"), "{bench}: {stdout}");
    }
}

#[test]
fn bad_arguments_fail_cleanly() {
    let cases: [&[&str]; 8] = [
        &["--bench", "nonexistent", "--reps", "1"],
        &["--policy", "nope"],
        &["--size", "huge"],
        &["--frobnicate"],
        &["--reps"],
        &["--reps", "many"],
        &["--reps", "0"],
        &["--workers", "0"],
    ];
    for args in cases {
        let out = Command::new(bench_bin()).args(args).output().expect("run benchmark");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: benchmark"), "{args:?}: {stderr}");
    }
}
