//! Support crate for the Criterion benchmark targets (see `benches/`),
//! plus the schemas of the committed `BENCH_N.json` documents at the repo
//! root.
//!
//! All six documents (`BENCH_3/5/6/8/9/10.json`) are frozen history:
//! one-off studies whose generators last existed at commit `d686262`.
//! [`FROZEN`] records the fields each must carry, and a unit test checks
//! every committed document against it. The benchmarks regenerate the
//! paper's figures and measure the runtime substrates; run them with
//! `cargo bench --workspace`.

use serde::value::Value;

/// Current bench-document schema version, shared by every `BENCH_N.json`.
/// Bump on breaking layout change.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

fn is_int(v: &Value) -> bool {
    matches!(v, Value::U64(_) | Value::I64(_))
}

fn is_num(v: &Value) -> bool {
    matches!(v, Value::U64(_) | Value::I64(_) | Value::F64(_))
}

fn require(cond: bool, errors: &mut Vec<String>, what: &str) {
    if !cond {
        errors.push(what.to_string());
    }
}

/// The JSON type a frozen document must carry at one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// An integer.
    Int,
    /// Any number, integer or float.
    Num,
    /// `true` or `false`.
    Bool,
    /// A string.
    Str,
}

impl FieldType {
    fn admits(self, v: &Value) -> bool {
        match self {
            FieldType::Int => is_int(v),
            FieldType::Num => is_num(v),
            FieldType::Bool => matches!(v, Value::Bool(_)),
            FieldType::Str => matches!(v, Value::String(_)),
        }
    }

    fn name(self) -> &'static str {
        match self {
            FieldType::Int => "an integer",
            FieldType::Num => "numeric",
            FieldType::Bool => "a bool",
            FieldType::Str => "a string",
        }
    }
}

/// A committed bench document whose generator is retired: its `bench`
/// kind, the PR that emitted it, and the dotted paths it must carry,
/// grouped by type. A `*` segment stands for every element of a
/// non-empty array.
#[derive(Debug)]
pub struct Frozen {
    /// The document's `bench` field.
    pub kind: &'static str,
    /// The document's `pr` field (the `N` of `BENCH_N.json`).
    pub pr: u64,
    /// Required paths, grouped by the type each must hold.
    pub fields: &'static [(FieldType, &'static [&'static str])],
}

use FieldType::{Bool, Int, Num, Str};

/// The frozen documents. Their numbers are quoted in EXPERIMENTS.md; the
/// generators of BENCH_3/5/6 last existed at commit `98d63dc`, those of
/// BENCH_8/9/10 at `d686262`.
pub const FROZEN: &[Frozen] = &[
    Frozen {
        kind: "telemetry-trajectory",
        pr: 3,
        fields: &[
            (
                Int,
                &[
                    "config.cores",
                    "config.fib_n",
                    "config.iters",
                    "config.reps",
                    "config.telemetry_tick_ms",
                    "results.per_program.*.prog",
                    "results.per_program.*.jobs",
                    "results.per_program.*.steals_ok",
                    "results.per_program.*.steals_failed",
                    "results.per_program.*.sleeps",
                    "results.per_program.*.wakes",
                    "results.per_program.*.cores_acquired",
                    "results.per_program.*.cores_reclaimed",
                    "results.per_program.*.cores_released",
                    "results.per_program.*.frames",
                    "results.per_program.*.frames_evicted",
                    "results.steal_latency_ns.p50",
                    "results.steal_latency_ns.p99",
                    "results.wake_to_first_task_ns.p50",
                    "results.wake_to_first_task_ns.p99",
                    "results.telemetry.frames",
                    "results.telemetry.frames_evicted",
                ],
            ),
            (
                Num,
                &[
                    "results.makespan_ms",
                    "results.throughput_jobs_per_s",
                    "results.telemetry.makespan_off_ms",
                    "results.telemetry.makespan_on_ms",
                    "results.telemetry.overhead_pct",
                ],
            ),
            (Bool, &["results.telemetry.endpoint_ok"]),
            (Str, &["results.per_program.*.label"]),
        ],
    },
    Frozen {
        kind: "batched-stealing",
        pr: 5,
        fields: &[
            (
                Int,
                &[
                    "config.cores",
                    "config.fib_n",
                    "config.iters",
                    "config.reps",
                    "config.steal_batch_limit",
                    "results.steals_ok_off",
                    "results.steals_ok_on",
                    "results.steals_failed_off",
                    "results.steals_failed_on",
                    "results.tasks_stolen_on",
                    "results.per_program.*.prog",
                    "results.per_program.*.jobs",
                    "results.per_program.*.steals_ok",
                    "results.per_program.*.steals_failed",
                    "results.per_program.*.tasks_stolen",
                ],
            ),
            (
                Num,
                &[
                    "results.makespan_off_ms",
                    "results.makespan_on_ms",
                    "results.speedup_pct",
                    "results.mean_batch_on",
                ],
            ),
            (Str, &["results.per_program.*.label"]),
        ],
    },
    Frozen {
        kind: "task-trace",
        pr: 6,
        fields: &[
            (
                Int,
                &[
                    "config.cores",
                    "config.fib_n",
                    "config.iters",
                    "config.reps",
                    "config.trace_capacity",
                    "results.per_program.*.prog",
                    "results.per_program.*.jobs",
                    "results.per_program.*.sojourn_samples",
                    "results.per_program.*.sojourn_p50_ns",
                    "results.per_program.*.sojourn_p99_ns",
                    "results.per_program.*.sojourn_p999_ns",
                ],
            ),
            (
                Num,
                &[
                    "results.makespan_off_ms",
                    "results.makespan_on_ms",
                    "results.overhead_pct",
                    "results.budget_pct",
                ],
            ),
            (Bool, &["results.within_budget"]),
            (Str, &["results.per_program.*.label"]),
        ],
    },
    Frozen {
        kind: "fairness-trajectory",
        pr: 8,
        fields: &[
            (
                Int,
                &[
                    "config.cores",
                    "config.sockets",
                    "config.duration_us",
                    "config.seed",
                    "results.sweep.*.programs",
                    "results.sweep.*.elapsed_us",
                    "results.sweep.*.core_us_total",
                    "results.sweep.*.free_core_us",
                    "results.sweep.*.alloc_samples",
                    "results.sweep.*.alloc_p50_ns",
                    "results.sweep.*.alloc_p99_ns",
                    "results.sweep.*.release_p50_ns",
                    "results.sweep.*.release_p99_ns",
                    "results.sweep.*.per_program.*.prog",
                    "results.sweep.*.per_program.*.core_us",
                    "results.sweep.*.per_program.*.alloc_p99_ns",
                ],
            ),
            (
                Num,
                &[
                    "results.sweep.*.jain_index",
                    "results.sweep.*.per_program.*.share_received",
                    "results.sweep.*.per_program.*.share_entitled",
                ],
            ),
            (Str, &["results.sweep.*.per_program.*.label"]),
        ],
    },
    Frozen {
        kind: "chaos-mttr",
        pr: 9,
        fields: &[
            (
                Int,
                &[
                    "config.schedules",
                    "config.seed",
                    "config.cores",
                    "config.lease_timeout_ms",
                    "config.stall_timeout_ms",
                    "results.schedules_run",
                    "results.violations",
                    "results.per_class.*.runs",
                    "results.per_class.*.mttr_min_ns",
                    "results.per_class.*.mttr_p50_ns",
                    "results.per_class.*.mttr_p99_ns",
                    "results.per_class.*.mttr_max_ns",
                ],
            ),
            (Str, &["results.per_class.*.class"]),
        ],
    },
    Frozen {
        kind: "control-plane",
        pr: 10,
        fields: &[
            (
                Int,
                &[
                    "config.cores",
                    "config.coordinator_period_ms",
                    "config.t_sleep_ms",
                    "config.probes",
                    "config.duration_ms",
                    "config.ring_capacity",
                    "config.drain_batch",
                    "config.seed",
                    "results.arms.*.doorbell_wakes",
                    "results.arms.*.wake_p50_us",
                    "results.arms.*.wake_p99_us",
                    "results.arms.*.per_program.*.prog",
                    "results.arms.*.per_program.*.offered",
                    "results.arms.*.per_program.*.submitted",
                    "results.arms.*.per_program.*.shed",
                    "results.arms.*.per_program.*.fenced",
                    "results.arms.*.per_program.*.admitted",
                    "results.arms.*.per_program.*.request_p50_us",
                    "results.arms.*.per_program.*.request_p99_us",
                    "results.arms.*.per_program.*.request_p999_us",
                    "results.headline.polling_wake_p99_us",
                    "results.headline.doorbell_wake_p99_us",
                    "results.headline.polling_request_p99_us",
                    "results.headline.doorbell_request_p99_us",
                    "results.headline.coordinator_period_us",
                ],
            ),
            (
                Num,
                &[
                    "config.rate_per_sec",
                    "config.burstiness",
                    "config.demand_min_us",
                    "config.demand_max_us",
                    "config.demand_alpha",
                    "results.arms.*.throughput_req_per_s",
                ],
            ),
            (
                Bool,
                &[
                    "results.arms.*.event_driven",
                    "results.headline.doorbell_beats_polling_wake",
                    "results.headline.doorbell_unfloors_request_p99",
                ],
            ),
            (Str, &["results.arms.*.arm", "results.arms.*.per_program.*.label"]),
        ],
    },
];

/// Validates a frozen document against its [`FROZEN`] row: the header
/// (`bench`, `pr`, `schema_version == 1`), a full-length run
/// (`config.fast == false` — a smoke run is not a measurement), and every
/// listed path present with its type. Returns every violation found, not
/// just the first; each names the path it is about.
pub fn validate_frozen(row: &Frozen, doc: &Value) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    let e = &mut errors;

    require(doc["bench"].as_str() == Some(row.kind), e, "bench name mismatch");
    require(
        doc["schema_version"].as_u64() == Some(BENCH_SCHEMA_VERSION),
        e,
        "schema_version mismatch",
    );
    require(doc["pr"].as_u64() == Some(row.pr), e, &format!("pr must be {}", row.pr));
    require(
        doc["config"]["fast"] == Value::Bool(false),
        e,
        "config.fast must be false (a smoke run is not a measurement)",
    );
    for &(ty, paths) in row.fields {
        for path in paths {
            let segments: Vec<&str> = path.split('.').collect();
            check_path(doc, "", &segments, ty, e);
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Follows `rest` down from `v` (reached at path `at`), expanding `*` over
/// array elements, and checks the leaf against `ty`.
fn check_path(v: &Value, at: &str, rest: &[&str], ty: FieldType, e: &mut Vec<String>) {
    let Some((&seg, rest)) = rest.split_first() else {
        require(ty.admits(v), e, &format!("{at} must be {}", ty.name()));
        return;
    };
    let dot = if at.is_empty() { "" } else { "." };
    if seg == "*" {
        match v.as_array() {
            Some(items) if !items.is_empty() => {
                for (i, item) in items.iter().enumerate() {
                    check_path(item, &format!("{at}{dot}{i}"), rest, ty, e);
                }
            }
            _ => {
                // Reported once, not once per path under the array.
                let msg = format!("{at} must be a non-empty array");
                if !e.contains(&msg) {
                    e.push(msg);
                }
            }
        }
    } else {
        check_path(&v[seg], &format!("{at}{dot}{seg}"), rest, ty, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::{Path, PathBuf};

    fn valid_doc() -> Value {
        serde_json::from_str(
            r#"{
              "bench": "telemetry-trajectory",
              "schema_version": 1,
              "pr": 3,
              "config": {"cores": 4, "fib_n": 23, "iters": 12, "reps": 3,
                         "telemetry_tick_ms": 10, "fast": false},
              "results": {
                "makespan_ms": 812.5,
                "throughput_jobs_per_s": 120345.6,
                "per_program": [
                  {"prog": 0, "label": "p0", "jobs": 1000, "steals_ok": 10,
                   "steals_failed": 3, "sleeps": 5, "wakes": 5,
                   "cores_acquired": 2, "cores_reclaimed": 1,
                   "cores_released": 3, "frames": 80, "frames_evicted": 0}
                ],
                "steal_latency_ns": {"p50": 2048, "p99": 65536},
                "wake_to_first_task_ns": {"p50": 4096, "p99": 262144},
                "telemetry": {"makespan_off_ms": 800.0, "makespan_on_ms": 812.5,
                              "overhead_pct": 1.56, "frames": 160,
                              "frames_evicted": 0, "endpoint_ok": true}
              }
            }"#,
        )
        .unwrap()
    }

    fn set(doc: &mut Value, path: &[&str], v: Value) {
        let mut cur = doc;
        for (i, key) in path.iter().enumerate() {
            let Value::Object(pairs) = cur else { panic!("not an object at {key}") };
            let slot =
                pairs.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("missing {key}"));
            if i == path.len() - 1 {
                slot.1 = v;
                return;
            }
            cur = &mut slot.1;
        }
    }

    /// Deletes the field at a dotted path whose numeric segments index
    /// arrays.
    fn remove(doc: &mut Value, path: &str) {
        let (parent, leaf) = path.rsplit_once('.').unwrap_or(("", path));
        let mut cur = doc;
        for seg in parent.split('.').filter(|s| !s.is_empty()) {
            cur = match cur {
                Value::Array(items) => &mut items[seg.parse::<usize>().unwrap()],
                Value::Object(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == seg).unwrap().1,
                _ => panic!("cannot descend into {seg} of {path}"),
            };
        }
        let Value::Object(pairs) = cur else { panic!("{path}: parent is not an object") };
        let before = pairs.len();
        pairs.retain(|(k, _)| k != leaf);
        assert_eq!(pairs.len(), before - 1, "{path} was not present");
    }

    fn frozen(pr: u64) -> &'static Frozen {
        FROZEN.iter().find(|row| row.pr == pr).unwrap()
    }

    fn valid_bench5_doc() -> Value {
        serde_json::from_str(
            r#"{
              "bench": "batched-stealing",
              "schema_version": 1,
              "pr": 5,
              "config": {"cores": 4, "fib_n": 27, "iters": 30, "reps": 3,
                         "steal_batch_limit": 8, "fast": false},
              "results": {
                "makespan_off_ms": 900.0,
                "makespan_on_ms": 850.0,
                "speedup_pct": 5.56,
                "steals_ok_off": 5000,
                "steals_ok_on": 1200,
                "steals_failed_off": 800,
                "steals_failed_on": 300,
                "tasks_stolen_on": 4800,
                "mean_batch_on": 4.0,
                "per_program": [
                  {"prog": 0, "label": "p0", "jobs": 30, "steals_ok": 600,
                   "steals_failed": 150, "tasks_stolen": 2400}
                ]
              }
            }"#,
        )
        .unwrap()
    }

    fn valid_bench6_doc() -> Value {
        serde_json::from_str(
            r#"{
              "bench": "task-trace",
              "schema_version": 1,
              "pr": 6,
              "config": {"cores": 4, "fib_n": 27, "iters": 30, "reps": 3,
                         "trace_capacity": 65536, "fast": false},
              "results": {
                "makespan_off_ms": 800.0,
                "makespan_on_ms": 812.0,
                "overhead_pct": 1.5,
                "budget_pct": 3.0,
                "within_budget": true,
                "per_program": [
                  {"prog": 0, "label": "p0", "jobs": 30,
                   "sojourn_samples": 120000, "sojourn_p50_ns": 1024,
                   "sojourn_p99_ns": 65536, "sojourn_p999_ns": 524288}
                ]
              }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn valid_document_passes() {
        assert_eq!(validate_frozen(frozen(3), &valid_doc()), Ok(()));
    }

    #[test]
    fn wrong_bench_name_fails() {
        let mut doc = valid_doc();
        set(&mut doc, &["bench"], Value::String("other".into()));
        assert!(validate_frozen(frozen(3), &doc).is_err());
    }

    #[test]
    fn non_numeric_overhead_fails_with_a_named_path() {
        let mut doc = valid_doc();
        set(&mut doc, &["results", "telemetry", "overhead_pct"], Value::String("2%".into()));
        let errs = validate_frozen(frozen(3), &doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("results.telemetry.overhead_pct")), "{errs:?}");
    }

    #[test]
    fn missing_per_program_fields_fail() {
        let mut doc = valid_doc();
        set(&mut doc, &["results", "per_program"], Value::Array(vec![]));
        let errs = validate_frozen(frozen(3), &doc).unwrap_err();
        assert_eq!(errs, ["results.per_program must be a non-empty array"], "reported once");
    }

    #[test]
    fn integer_makespan_is_accepted() {
        // Numbers may land as ints when they happen to be whole.
        let mut doc = valid_doc();
        set(&mut doc, &["results", "makespan_ms"], Value::U64(812));
        assert_eq!(validate_frozen(frozen(3), &doc), Ok(()));
    }

    #[test]
    fn valid_bench5_document_passes() {
        assert_eq!(validate_frozen(frozen(5), &valid_bench5_doc()), Ok(()));
    }

    #[test]
    fn bench5_rejects_bench3_document_and_vice_versa() {
        assert!(validate_frozen(frozen(5), &valid_doc()).is_err());
        assert!(validate_frozen(frozen(3), &valid_bench5_doc()).is_err());
    }

    #[test]
    fn bench5_missing_batch_limit_fails() {
        let mut doc = valid_bench5_doc();
        set(&mut doc, &["config", "steal_batch_limit"], Value::String("8".into()));
        let errs = validate_frozen(frozen(5), &doc).unwrap_err();
        assert!(errs.iter().any(|m| m.contains("config.steal_batch_limit")), "{errs:?}");
    }

    #[test]
    fn valid_bench6_document_passes() {
        assert_eq!(validate_frozen(frozen(6), &valid_bench6_doc()), Ok(()));
    }

    #[test]
    fn bench6_rejects_other_schemas_and_vice_versa() {
        assert!(validate_frozen(frozen(6), &valid_doc()).is_err());
        assert!(validate_frozen(frozen(6), &valid_bench5_doc()).is_err());
        assert!(validate_frozen(frozen(3), &valid_bench6_doc()).is_err());
        assert!(validate_frozen(frozen(5), &valid_bench6_doc()).is_err());
    }

    /// The repo root, where the committed documents live.
    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    fn committed(pr: u64) -> Value {
        let path = repo_root().join(format!("BENCH_{pr}.json"));
        serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap()
    }

    /// What is wrong with the document in file `name`: its `bench` kind
    /// must have a [`FROZEN`] row, and it must pass [`validate_frozen`].
    /// Every error names the file.
    fn document_errors(name: &str, doc: &Value) -> Vec<String> {
        let kind = doc["bench"].as_str().unwrap_or("(none)");
        let Some(row) = FROZEN.iter().find(|row| row.kind == kind) else {
            return vec![format!("{name}: unknown bench kind `{kind}`")];
        };
        let errors = validate_frozen(row, doc).err().unwrap_or_default();
        errors.into_iter().map(|e| format!("{name}: {e}")).collect()
    }

    /// Every `BENCH_*.json` file under `dir`, sorted, and the errors of
    /// all of them.
    fn directory_errors(dir: &Path) -> (Vec<String>, Vec<String>) {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
            .collect();
        names.sort();
        let mut errors = Vec::new();
        for name in &names {
            match serde_json::from_str(&fs::read_to_string(dir.join(name)).unwrap()) {
                Ok(doc) => errors.extend(document_errors(name, &doc)),
                Err(err) => errors.push(format!("{name}: unparseable: {err:?}")),
            }
        }
        (names, errors)
    }

    /// Row `pr` refuses every other committed document, and every other
    /// row refuses document `pr`.
    fn rows_tell_documents_apart(pr: u64) {
        for other in FROZEN.iter().filter(|row| row.pr != pr) {
            assert!(validate_frozen(frozen(pr), &committed(other.pr)).is_err(), "{}", other.pr);
            assert!(validate_frozen(other, &committed(pr)).is_err(), "{}", other.pr);
        }
    }

    #[test]
    fn committed_bench_documents_are_valid() {
        let (names, errors) = directory_errors(&repo_root());
        assert_eq!(errors, Vec::<String>::new());
        let mut expected: Vec<String> =
            FROZEN.iter().map(|row| format!("BENCH_{}.json", row.pr)).collect();
        expected.sort();
        assert_eq!(names, expected, "one committed document per FROZEN row");

        // What the generators asserted beyond shape. BENCH_8: the ledger
        // accounts for every core-µs at every sweep point.
        let doc = committed(8);
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
        assert_eq!(committed(9)["results"]["violations"].as_u64(), Some(0), "BENCH_9.json");
        // BENCH_10: the doorbell won both headline comparisons.
        let doc = committed(10);
        for key in ["doorbell_beats_polling_wake", "doorbell_unfloors_request_p99"] {
            let verdict = &doc["results"]["headline"][key];
            assert_eq!(verdict, &Value::Bool(true), "BENCH_10.json: {key}");
        }
    }

    #[test]
    fn committed_frozen_documents_pass() {
        for row in FROZEN {
            assert_eq!(validate_frozen(row, &committed(row.pr)), Ok(()), "BENCH_{}.json", row.pr);
        }
    }

    #[test]
    fn known_kinds_route_to_their_own_schema() {
        // A bare header of each known kind must produce that row's errors
        // (missing paths), never the unknown-kind error or a pr mismatch.
        for (kind, pr) in [
            ("telemetry-trajectory", 3),
            ("batched-stealing", 5),
            ("task-trace", 6),
            ("fairness-trajectory", 8),
            ("chaos-mttr", 9),
            ("control-plane", 10),
        ] {
            let doc: Value = serde_json::from_str(&format!(
                r#"{{"bench": "{kind}", "schema_version": 1, "pr": {pr}}}"#
            ))
            .unwrap();
            let errs = document_errors("BENCH_0.json", &doc);
            assert!(!errs.is_empty(), "{kind} passed as a bare header");
            assert!(
                !errs.iter().any(|m| m.contains("unknown bench kind")),
                "{kind} fell through: {errs:?}"
            );
            assert!(!errs.iter().any(|m| m.contains("pr must be")), "{kind} wrong pr: {errs:?}");
        }
    }

    #[test]
    fn unknown_bench_kind_is_a_failure_not_a_fallthrough() {
        // `serving-tail` is BENCH_7's retired kind, deleted with its file.
        let dir = std::env::temp_dir().join(format!("dws-bench-docs-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::copy(repo_root().join("BENCH_3.json"), dir.join("BENCH_3.json")).unwrap();
        fs::write(dir.join("BENCH_7.json"), r#"{"bench": "serving-tail", "pr": 7}"#).unwrap();
        let (names, errors) = directory_errors(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(names, ["BENCH_3.json", "BENCH_7.json"]);
        assert_eq!(errors, ["BENCH_7.json: unknown bench kind `serving-tail`"]);
    }

    #[test]
    fn missing_bench_kind_is_a_failure() {
        let doc: Value = serde_json::from_str(r#"{"schema_version": 1}"#).unwrap();
        assert_eq!(
            document_errors("BENCH_4.json", &doc),
            ["BENCH_4.json: unknown bench kind `(none)`"]
        );
    }

    #[test]
    fn frozen_document_missing_any_listed_path_fails_naming_it() {
        for row in FROZEN {
            let name = format!("BENCH_{}.json", row.pr);
            let doc = committed(row.pr);
            for &(_, paths) in row.fields {
                for path in paths {
                    let concrete = path.replace('*', "0");
                    let mut doc = doc.clone();
                    remove(&mut doc, &concrete);
                    let errs = document_errors(&name, &doc);
                    let named = format!("{name}: {concrete} must be");
                    assert!(errs.iter().any(|m| m.starts_with(&named)), "{named}: {errs:?}");
                }
            }
        }
    }

    #[test]
    fn frozen_document_with_a_wrong_pr_fails() {
        let mut doc = valid_bench6_doc();
        set(&mut doc, &["pr"], Value::U64(7));
        let errs = validate_frozen(frozen(6), &doc).unwrap_err();
        assert_eq!(errs, ["pr must be 6"]);
    }

    #[test]
    fn frozen_smoke_run_fails() {
        for row in FROZEN {
            let mut doc = committed(row.pr);
            set(&mut doc, &["config", "fast"], Value::Bool(true));
            let errs = validate_frozen(row, &doc).unwrap_err();
            assert!(errs.iter().any(|m| m.contains("config.fast must be false")), "{errs:?}");
        }
    }

    #[test]
    fn valid_bench8_document_passes() {
        assert_eq!(validate_frozen(frozen(8), &committed(8)), Ok(()));
    }

    #[test]
    fn bench8_rejects_other_schemas_and_vice_versa() {
        rows_tell_documents_apart(8);
    }

    #[test]
    fn valid_bench9_document_passes() {
        assert_eq!(validate_frozen(frozen(9), &committed(9)), Ok(()));
    }

    #[test]
    fn bench9_rejects_other_schemas_and_vice_versa() {
        rows_tell_documents_apart(9);
    }

    #[test]
    fn valid_bench10_document_passes() {
        assert_eq!(validate_frozen(frozen(10), &committed(10)), Ok(()));
    }

    #[test]
    fn bench10_rejects_other_schemas_and_vice_versa() {
        rows_tell_documents_apart(10);
    }
}
