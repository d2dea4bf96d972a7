//! The figure binaries' `--quick` stdout, byte for byte against
//! `tests/golden/<bin>.txt`. The simulator is deterministic, so a
//! mismatch means a change moved a figure. A change that means to do so
//! regenerates the file and says why:
//!
//! ```sh
//! cargo run --release -p dws-harness --bin fig4 -- --quick > tests/golden/fig4.txt
//! ```

use std::path::PathBuf;
use std::process::Command;

fn assert_golden(exe: &str, name: &str) {
    let out = Command::new(exe).arg("--quick").output().unwrap();
    assert!(out.status.success(), "{name} --quick: {}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).unwrap();
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
        .join(format!("{name}.txt"));
    let want = std::fs::read_to_string(&path).unwrap();
    if got == want {
        return;
    }
    let (got, want): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let line = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i));
    let Some(i) = line else {
        panic!("{}: same lines, different line endings", path.display());
    };
    let end = "<end of output>";
    panic!(
        "{}:{}: first differing line\n  golden: {}\n  now:    {}",
        path.display(),
        i + 1,
        want.get(i).unwrap_or(&end),
        got.get(i).unwrap_or(&end)
    );
}

#[test]
fn fig4_quick_is_golden() {
    assert_golden(env!("CARGO_BIN_EXE_fig4"), "fig4");
}

#[test]
fn fig5_quick_is_golden() {
    assert_golden(env!("CARGO_BIN_EXE_fig5"), "fig5");
}

#[test]
fn fig6_quick_is_golden() {
    assert_golden(env!("CARGO_BIN_EXE_fig6"), "fig6");
}

#[test]
fn multiprog_quick_is_golden() {
    assert_golden(env!("CARGO_BIN_EXE_multiprog"), "multiprog");
}

#[test]
fn single_program_quick_is_golden() {
    assert_golden(env!("CARGO_BIN_EXE_single_program"), "single_program");
}
