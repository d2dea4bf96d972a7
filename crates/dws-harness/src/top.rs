//! Terminal rendering for `dws-top`: turns [`TelemetryFrame`]s into an
//! ANSI dashboard of a live co-run — per-program core-ownership bars,
//! queue depth, the coordinator's Eq. 1 plan vs. the wakes actually
//! delivered, and drop counters.
//!
//! The renderers are pure (frames in, `String` out) so they are unit
//! tested without a terminal; the `dws-top` binary owns the screen
//! clearing and the refresh loop.

use dws_rt::TelemetryFrame;

/// ANSI sequence the `dws-top` refresh loop prints before each redraw:
/// cursor home, then clear to end of screen.
pub const ANSI_REFRESH: &str = "\x1b[H\x1b[J";

const BOLD: &str = "\x1b[1m";
const DIM: &str = "\x1b[2m";
const RED: &str = "\x1b[31m";
const GREEN: &str = "\x1b[32m";
const CYAN: &str = "\x1b[36m";
const RESET: &str = "\x1b[0m";

fn paint(color: bool, code: &str, text: &str) -> String {
    if color {
        format!("{code}{text}{RESET}")
    } else {
        text.to_string()
    }
}

/// One character per table core: the owning program's digit, `.` when
/// free, `#` for owners past 9 (unlikely at paper scale).
pub fn core_strip(frame: &TelemetryFrame) -> String {
    frame
        .cores
        .iter()
        .map(|c| match c.owner {
            -1 => '.',
            p @ 0..=9 => (b'0' + p as u8) as char,
            _ => '#',
        })
        .collect()
}

/// `filled` of `total` as a fixed-width bar, e.g. `####----`.
pub fn bar(filled: usize, total: usize) -> String {
    let filled = filled.min(total);
    format!("{}{}", "#".repeat(filled), "-".repeat(total - filled))
}

fn fmt_ns(ns: u64) -> String {
    if ns == 0 {
        "-".to_string()
    } else if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{}ms", ns / 1_000_000)
    }
}

/// Renders one program's panel (multi-line, trailing newline).
pub fn render_program_panel(label: &str, f: &TelemetryFrame, color: bool) -> String {
    let mut out = String::new();
    let owned = f.cores_owned();
    let total = f.cores.len();
    let asleep = f.workers_asleep();
    let workers = f.workers.len();
    let c = &f.coord;
    let k = &f.counters;

    out.push_str(&format!(
        "{} (prog {}) · frame {} · t {} ms\n",
        paint(color, BOLD, label),
        f.prog,
        f.seq,
        f.t_us / 1_000,
    ));
    out.push_str(&format!(
        "  cores  {}  {owned}/{total} owned   awake {}/{workers}   queue {}\n",
        paint(color, GREEN, &bar(owned, total)),
        workers - asleep,
        f.queued_jobs(),
    ));
    out.push_str(&format!(
        "  coord  N_b {}  N_a {}  N_w {}   supply {}f+{}r   plan {}+{}   woken {}   decisions {}\n",
        c.n_b, c.n_a, c.n_w, c.n_f, c.n_r, c.planned_free, c.planned_reclaim, c.woken, c.decisions,
    ));
    if c.knob_period_us > 0 {
        // Live control-plane knobs (DESIGN §16.2): the configured
        // constants unless the adaptive controller retuned them. Absent
        // only in frames predating the knob gauges (period 0).
        out.push_str(&format!(
            "  knobs  T_SLEEP {}  period {}  batch {}   doorbell wakes {}   demand rings {}\n",
            c.knob_t_sleep,
            fmt_ns(c.knob_period_us.saturating_mul(1_000)),
            c.knob_steal_batch,
            k.doorbell_wakes,
            k.demand_rings,
        ));
    }
    // Mean steal batch size = tasks moved / successful steal ops.
    let mean_batch =
        if k.steals_ok == 0 { 0.0 } else { k.tasks_stolen as f64 / k.steals_ok as f64 };
    out.push_str(&format!(
        "  totals steals {} ok / {} fail ({} tasks, x̄ {:.1})   jobs {}   sleeps {}   wakes {}   released {}\n",
        k.steals_ok,
        k.steals_failed,
        k.tasks_stolen,
        mean_batch,
        k.jobs_executed,
        k.sleeps,
        k.wakes,
        k.cores_released,
    ));
    if k.requests_admitted > 0 || k.requests_dropped > 0 || k.requests_fenced > 0 {
        // Serving panel: ring admission totals plus the rolling
        // end-to-end request sojourn (client submit → exec-begin).
        out.push_str(&format!(
            "  serve  admitted {}  dropped {}  fenced {}   request p50 {} p99 {} p999 {}\n",
            k.requests_admitted,
            k.requests_dropped,
            k.requests_fenced,
            fmt_ns(f.latency.request_p50_ns),
            fmt_ns(f.latency.request_p99_ns),
            fmt_ns(f.latency.request_p999_ns),
        ));
    }
    if k.core_us_total > 0 {
        // Fairness panel (ledger-backed, so it only appears when the
        // runtime's table is ledger-wrapped): cumulative core-time, the
        // received machine share vs. the §3.1 static entitlement (home
        // cores / machine), and the Eq. 1 demand-satisfaction latencies.
        let home_cores = f.cores.iter().filter(|c| c.home == f.prog).count();
        let entitled = 100.0 * home_cores as f64 / total.max(1) as f64;
        let received = if f.t_us == 0 {
            0.0
        } else {
            100.0 * k.core_us_total as f64 / (f.t_us as f64 * total as f64)
        };
        out.push_str(&format!(
            "  fair   core-time {:.3}s   received {received:.1}% vs entitled {entitled:.1}%   \
             alloc p50 {} p99 {}   release p50 {} p99 {}\n",
            k.core_us_total as f64 / 1e6,
            fmt_ns(f.latency.alloc_p50_ns),
            fmt_ns(f.latency.alloc_p99_ns),
            fmt_ns(f.latency.release_p50_ns),
            fmt_ns(f.latency.release_p99_ns),
        ));
    }
    if k.degraded != 0 {
        out.push_str(&format!(
            "  {}  shared table lost — running on a private in-process table\n",
            paint(color, RED, "DEGRADED"),
        ));
    }
    if k.cores_reaped > 0 || k.leases_expired > 0 {
        out.push_str(&format!(
            "  reaper {} leases expired   {} cores reaped from dead co-runners\n",
            k.leases_expired, k.cores_reaped,
        ));
    }
    let l = &f.latency;
    out.push_str(&format!(
        "  lat    steal p50 {} p99 {}   wake p50 {} p99 {}   sojourn p50 {} p99 {}",
        fmt_ns(l.steal_p50_ns),
        fmt_ns(l.steal_p99_ns),
        fmt_ns(l.wake_p50_ns),
        fmt_ns(l.wake_p99_ns),
        fmt_ns(l.sojourn_p50_ns),
        fmt_ns(l.sojourn_p99_ns),
    ));
    if k.events_dropped > 0 || k.frames_evicted > 0 {
        // Loud marker: a lossy ring means the panel (and any trace
        // export) is an undercount, not a complete record.
        out.push_str(&format!(
            "   {}",
            paint(
                color,
                RED,
                &format!("⚠ LOSSY dropped {} ev / {} frames", k.events_dropped, k.frames_evicted)
            ),
        ));
    }
    out.push('\n');
    out
}

/// Renders the full dashboard: a header, the table-global core-ownership
/// strip (taken from the first frame — all programs sharing a table see
/// the same slots), then one panel per `(label, frame)`.
pub fn render_top(panels: &[(String, TelemetryFrame)], color: bool) -> String {
    let mut out = String::new();
    out.push_str(&paint(color, CYAN, "dws-top — live DWS co-run telemetry"));
    out.push('\n');
    if let Some((_, first)) = panels.first() {
        out.push_str(&format!(
            "table  [{}]   {}\n",
            core_strip(first),
            paint(color, DIM, "(digit = owning program, . = free)"),
        ));
    }
    // Machine-wide fairness over the ledger integrals in view (absent
    // until some frame carries core-time, i.e. the table is ledgered).
    let shares: Vec<f64> = panels.iter().map(|(_, f)| f.counters.core_us_total as f64).collect();
    if shares.iter().any(|&s| s > 0.0) {
        out.push_str(&format!(
            "fair   Jain index {:.3} over {} programs\n",
            dws_rt::jain_fairness(&shares),
            shares.len(),
        ));
    }
    for (label, frame) in panels {
        out.push('\n');
        out.push_str(&render_program_panel(label, frame, color));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_rt::{CoordSample, CoreSample, CounterSample, LatencySample, WorkerSample};

    fn frame() -> TelemetryFrame {
        TelemetryFrame {
            t_us: 12_345,
            prog: 0,
            seq: 7,
            cores: vec![
                CoreSample { core: 0, home: 0, owner: 0 },
                CoreSample { core: 1, home: 0, owner: 1 },
                CoreSample { core: 2, home: 1, owner: -1 },
                CoreSample { core: 3, home: 1, owner: 1 },
            ],
            workers: vec![
                WorkerSample { worker: 0, asleep: false, queue: 5 },
                WorkerSample { worker: 1, asleep: true, queue: 0 },
            ],
            coord: CoordSample {
                n_b: 10,
                n_a: 2,
                n_f: 1,
                n_r: 1,
                n_w: 5,
                planned_free: 1,
                planned_reclaim: 1,
                woken: 2,
                decisions: 33,
                knob_t_sleep: 16,
                knob_period_us: 10_000,
                knob_steal_batch: 8,
            },
            counters: CounterSample {
                steals_ok: 40,
                steals_failed: 8,
                tasks_stolen: 100,
                ..Default::default()
            },
            latency: LatencySample {
                steal_p50_ns: 2_048,
                steal_p99_ns: 65_536,
                sojourn_p50_ns: 16_384,
                sojourn_p99_ns: 2_097_152,
                ..Default::default()
            },
        }
    }

    #[test]
    fn core_strip_maps_owners_to_chars() {
        assert_eq!(core_strip(&frame()), "01.1");
    }

    #[test]
    fn bar_is_fixed_width() {
        assert_eq!(bar(3, 8), "###-----");
        assert_eq!(bar(9, 4), "####", "overfull clamps");
    }

    #[test]
    fn panel_shows_plan_vs_actual_and_latency() {
        let text = render_program_panel("p0", &frame(), false);
        assert!(text.contains("1/4 owned"));
        assert!(text.contains("N_b 10"));
        assert!(text.contains("plan 1+1"));
        assert!(text.contains("woken 2"));
        assert!(text.contains("decisions 33"));
        assert!(text.contains(
            "knobs  T_SLEEP 16  period 10ms  batch 8   doorbell wakes 0   demand rings 0"
        ));
        assert!(text.contains("steal p50 2us p99 65us"));
        assert!(text.contains("sojourn p50 16us p99 2ms"), "{text}");
        assert!(!text.contains('\x1b'), "no ANSI codes without color");
    }

    #[test]
    fn knob_panel_tracks_adaptive_retuning_and_gates_on_legacy_frames() {
        let mut f = frame();
        f.coord.knob_t_sleep = 64;
        f.coord.knob_period_us = 1_250;
        f.coord.knob_steal_batch = 32;
        f.counters.doorbell_wakes = 41;
        f.counters.demand_rings = 7;
        let text = render_program_panel("p", &f, false);
        assert!(
            text.contains(
                "knobs  T_SLEEP 64  period 1ms  batch 32   doorbell wakes 41   demand rings 7"
            ),
            "{text}"
        );
        // A pre-knob frame (period 0) renders no knob line at all.
        f.coord.knob_period_us = 0;
        let text = render_program_panel("p", &f, false);
        assert!(!text.contains("knobs"), "{text}");
    }

    #[test]
    fn totals_show_tasks_moved_and_mean_batch() {
        let text = render_program_panel("p0", &frame(), false);
        assert!(text.contains("steals 40 ok / 8 fail (100 tasks, x̄ 2.5)"), "{text}");
        let mut f = frame();
        f.counters.steals_ok = 0;
        f.counters.tasks_stolen = 0;
        let text = render_program_panel("p0", &f, false);
        assert!(text.contains("(0 tasks, x̄ 0.0)"), "no-steal frame divides safely: {text}");
    }

    #[test]
    fn serving_panel_appears_only_for_serving_programs() {
        let f = frame();
        let text = render_program_panel("p", &f, false);
        assert!(!text.contains("serve"), "non-serving frame shows no serve line: {text}");
        let mut f = frame();
        f.counters.requests_admitted = 640;
        f.counters.requests_dropped = 3;
        f.counters.requests_fenced = 1;
        f.latency.request_p50_ns = 40_000;
        f.latency.request_p99_ns = 9_000_000;
        f.latency.request_p999_ns = 30_000_000;
        let text = render_program_panel("p", &f, false);
        assert!(
            text.contains("serve  admitted 640  dropped 3  fenced 1"),
            "admission totals shown: {text}"
        );
        assert!(text.contains("request p50 40us p99 9ms p999 30ms"), "{text}");
    }

    #[test]
    fn fairness_panel_appears_only_with_a_ledgered_table() {
        let f = frame();
        let text = render_program_panel("p", &f, false);
        assert!(!text.contains("fair"), "no ledger → no fairness panel: {text}");
        let mut f = frame();
        // 2.5 core-seconds over t=12.345ms on 4 cores would exceed the
        // machine; use a consistent value: 24 690µs = 50% of 4×12 345µs.
        f.counters.core_us_total = 24_690;
        f.latency.alloc_p50_ns = 50_000;
        f.latency.alloc_p99_ns = 3_000_000;
        f.latency.release_p50_ns = 80_000;
        f.latency.release_p99_ns = 12_000_000;
        let text = render_program_panel("p", &f, false);
        // Golden line: prog 0 is entitled to its 2 home cores of 4.
        assert!(
            text.contains(
                "fair   core-time 0.025s   received 50.0% vs entitled 50.0%   \
                 alloc p50 50us p99 3ms   release p50 80us p99 12ms"
            ),
            "{text}"
        );
    }

    #[test]
    fn full_render_shows_jain_index_over_ledgered_frames() {
        let mut fa = frame();
        let mut fb = frame();
        let no_ledger = render_top(&[("a".into(), fa.clone()), ("b".into(), fb.clone())], false);
        assert!(!no_ledger.contains("Jain"), "no ledger → no Jain line: {no_ledger}");
        fa.counters.core_us_total = 30_000;
        fb.counters.core_us_total = 10_000;
        let text = render_top(&[("a".into(), fa), ("b".into(), fb)], false);
        // (30+10)² / (2·(30²+10²)) = 1600/2000 = 0.8.
        assert!(text.contains("fair   Jain index 0.800 over 2 programs"), "{text}");
    }

    #[test]
    fn drops_are_surfaced_loudly() {
        let mut f = frame();
        let clean = render_program_panel("p", &f, false);
        assert!(!clean.contains("dropped") && !clean.contains("LOSSY"));
        f.counters.events_dropped = 9;
        let text = render_program_panel("p", &f, false);
        assert!(text.contains("⚠ LOSSY dropped 9 ev"), "{text}");
        f.counters.events_dropped = 0;
        f.counters.frames_evicted = 3;
        let text = render_program_panel("p", &f, false);
        assert!(text.contains("⚠ LOSSY dropped 0 ev / 3 frames"), "{text}");
        let colored = render_program_panel("p", &f, true);
        assert!(colored.contains("\x1b[31m⚠ LOSSY"), "lossy marker is red");
    }

    #[test]
    fn degradation_and_reaps_are_surfaced() {
        let mut f = frame();
        let text = render_program_panel("p", &f, false);
        assert!(!text.contains("DEGRADED"));
        assert!(!text.contains("reaper"));
        f.counters.degraded = 1;
        f.counters.leases_expired = 1;
        f.counters.cores_reaped = 2;
        let text = render_program_panel("p", &f, false);
        assert!(text.contains("DEGRADED"));
        assert!(text.contains("1 leases expired"));
        assert!(text.contains("2 cores reaped"));
        let colored = render_program_panel("p", &f, true);
        assert!(colored.contains("\x1b[31mDEGRADED"), "degraded marker is red");
    }

    #[test]
    fn full_render_includes_table_strip_and_every_panel() {
        let panels = [("a".to_string(), frame()), ("b".to_string(), frame())];
        let plain = render_top(&panels, false);
        assert!(plain.contains("[01.1]"));
        assert!(plain.contains("a (prog 0)"));
        assert!(plain.contains("b (prog 0)"));
        assert!(render_top(&panels, true).contains('\x1b'), "color mode emits ANSI");
    }
}
