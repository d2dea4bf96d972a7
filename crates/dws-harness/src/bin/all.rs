//! Runs every experiment (Table 2, Fig. 4, Fig. 5, Fig. 6, §4.4) and
//! prints the full text report. Text only: `--json` and `--svg` belong to
//! the per-figure binaries, and `all` refuses them.

use dws_harness::{fig4, fig5, fig6, single_program, CliOptions};

fn main() {
    let opts = CliOptions::from_args();
    if opts.json || opts.svg.is_some() {
        eprintln!(
            "all prints the text report only; for --json or --svg run a per-figure binary \
             (fig4, fig5, fig6, single_program)"
        );
        std::process::exit(2);
    }
    println!("{}", dws_harness::report::render_table2());
    let f4 = fig4(&opts.sim, opts.effort);
    println!("{}", dws_harness::report::render_fig4(&f4));
    let f5 = fig5(&opts.sim, opts.effort);
    println!("{}", dws_harness::report::render_fig5(&f5));
    let f6 = fig6(&opts.sim, opts.effort);
    println!("{}", dws_harness::report::render_fig6(&f6));
    let sp = single_program(&opts.sim, opts.effort);
    print!("{}", dws_harness::report::render_single(&sp));
}
