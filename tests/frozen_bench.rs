//! The committed `BENCH_N.json` documents are frozen history: one-off
//! studies whose generators are gone (BENCH_3/5/6 last existed at commit
//! `98d63dc`, BENCH_8/9/10 at `d686262`). Each is pinned by byte length
//! and 64-bit FNV-1a hash, so any edit fails, and a `BENCH_*.json` at the
//! repo root without a pin fails, naming the file.

use std::fs;
use std::path::PathBuf;

use serde_json::Value;

/// File name, byte length and FNV-1a hash of each frozen document.
const PINS: &[(&str, usize, u64)] = &[
    ("BENCH_3.json", 861, 0x758f_3243_1f8d_c831),
    ("BENCH_5.json", 619, 0xa751_3f3c_dfcb_bb29),
    ("BENCH_6.json", 592, 0x46ea_96fd_4b03_27bb),
    ("BENCH_8.json", 9441, 0xc09a_c737_05a3_4f54),
    ("BENCH_9.json", 948, 0xac67_4deb_883f_48c1),
    ("BENCH_10.json", 1500, 0x8434_cad8_7793_a903),
];

fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn committed(name: &str) -> Value {
    let text = fs::read_to_string(repo_root().join(name)).unwrap();
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn frozen_documents_match_their_pins() {
    let mut errors = Vec::new();
    for entry in fs::read_dir(repo_root()).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_")
            && name.ends_with(".json")
            && !PINS.iter().any(|p| p.0 == name)
        {
            errors.push(format!("{name}: not a pinned frozen document"));
        }
    }
    for &(name, len, hash) in PINS {
        let Ok(bytes) = fs::read(repo_root().join(name)) else {
            errors.push(format!("{name}: missing"));
            continue;
        };
        let (got_len, got_hash) = (bytes.len(), fnv1a64(&bytes));
        if (got_len, got_hash) != (len, hash) {
            errors.push(format!(
                "{name}: {got_len} bytes, hash {got_hash:#018x}; pinned {len} bytes, {hash:#018x}"
            ));
        }
    }
    errors.sort();
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

/// What the generators asserted beyond shape.
#[test]
fn frozen_headlines_hold() {
    // BENCH_8: the ledger accounts for every core-µs at every sweep point.
    let doc = committed("BENCH_8.json");
    let cores = doc["config"]["cores"].as_u64().unwrap();
    for pt in doc["results"]["sweep"].as_array().unwrap() {
        let n = |key: &str| pt[key].as_u64().unwrap();
        assert_eq!(
            n("core_us_total") + n("free_core_us"),
            cores * n("elapsed_us"),
            "BENCH_8.json: core time not conserved at {} programs",
            n("programs")
        );
    }
    // BENCH_9: a chaos run with violations is a bug report.
    let violations = committed("BENCH_9.json")["results"]["violations"].as_u64();
    assert_eq!(violations, Some(0), "BENCH_9.json: violations");
    // BENCH_10: the doorbell won both headline comparisons.
    let doc = committed("BENCH_10.json");
    for key in ["doorbell_beats_polling_wake", "doorbell_unfloors_request_p99"] {
        assert_eq!(doc["results"]["headline"][key], Value::Bool(true), "BENCH_10.json: {key}");
    }
}
