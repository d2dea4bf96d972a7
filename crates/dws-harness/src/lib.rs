//! # dws-harness — regenerates every table and figure of the DWS paper
//!
//! The evaluation section of *"DWS: Demand-aware Work-Stealing in
//! Multi-programmed Multi-core Architectures"* contains:
//!
//! * **Table 2** — the benchmark list (`--bin table2`);
//! * **Fig. 4** — eight benchmark mixes under ABP / EP / DWS
//!   (`--bin fig4`);
//! * **Fig. 5** — the DWS-NC ablation (`--bin fig5`);
//! * **Fig. 6** — the T_SLEEP sweep on mix (1,8) (`--bin fig6`);
//! * **§4.4** — the single-program no-degradation claim
//!   (`--bin single_program`);
//! * `--bin all` runs everything and prints the text report (`--json`
//!   and `--svg` are per-figure flags; `all` refuses them).
//!
//! Measurements follow the paper's methodology (Fig. 3 / Eq. 2): co-run
//! benchmarks restart continuously so executions fully overlap, and each
//! reported time is the mean over completed runs, normalized to the
//! benchmark's solo all-cores baseline.
//!
//! All experiments run on the `dws-sim` deterministic model of the
//! paper's 16-core, 2-socket testbed, so results are exactly reproducible
//! from the seed (see DESIGN.md for the simulation-fidelity argument).

#![warn(missing_docs)]

pub mod corun;
pub mod fairness;
pub mod figures;
pub mod report;
pub mod serve_gen;
pub mod svg;
pub mod top;
pub mod tracecheck;

pub use corun::{run_mix, solo_baseline, solo_with_policy, Effort, MixResult};
pub use figures::{
    baselines, fig4, fig5, fig6, single_program, Fig4, Fig5, Fig6, MixRow, SinglePrograms,
};
pub use serve_gen::{burn_us, demand_handler, offer_load, LoadSpec, LoadStats};

/// Parses the common CLI flags shared by the figure binaries:
/// `--quick` (fewer runs), `--seed N`, `--json` (emit JSON to stdout).
pub struct CliOptions {
    /// Run lengths.
    pub effort: Effort,
    /// Simulator configuration (machine + cache + seed).
    pub sim: dws_sim::SimConfig,
    /// Emit JSON instead of the text table.
    pub json: bool,
    /// Also write an SVG chart to this path.
    pub svg: Option<std::path::PathBuf>,
}

impl CliOptions {
    /// Parses `std::env::args`.
    pub fn from_args() -> CliOptions {
        let args: Vec<String> = std::env::args().collect();
        Self::parse(&args[1..])
    }

    /// Parses the given argument list (testable).
    pub fn parse(args: &[String]) -> CliOptions {
        let mut effort = Effort::standard();
        let mut sim = dws_sim::SimConfig::default();
        let mut json = false;
        let mut svg = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => effort = Effort::quick(),
                "--json" => json = true,
                "--svg" => {
                    i += 1;
                    svg = Some(std::path::PathBuf::from(args.get(i).expect("--svg needs a path")));
                }
                "--seed" => {
                    i += 1;
                    sim.seed =
                        args.get(i).and_then(|s| s.parse().ok()).expect("--seed needs an integer");
                }
                "--runs" => {
                    i += 1;
                    effort.min_runs =
                        args.get(i).and_then(|s| s.parse().ok()).expect("--runs needs an integer");
                }
                other => panic!(
                    "unknown flag {other}; known: --quick --json --svg PATH --seed N --runs N"
                ),
            }
            i += 1;
        }
        CliOptions { effort, sim, json, svg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn default_options() {
        let o = CliOptions::parse(&[]);
        assert!(!o.json);
        assert_eq!(o.effort.min_runs, Effort::standard().min_runs);
        assert_eq!(o.sim.machine.cores, 16);
    }

    #[test]
    fn flags_are_parsed() {
        let o = CliOptions::parse(&s(&["--quick", "--json", "--seed", "99", "--runs", "7"]));
        assert!(o.json);
        assert_eq!(o.sim.seed, 99);
        assert_eq!(o.effort.min_runs, 7);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_rejected() {
        CliOptions::parse(&s(&["--frobnicate"]));
    }
}
