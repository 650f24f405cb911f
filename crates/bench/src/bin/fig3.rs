//! Regenerates Fig. 3: FDR vs energy per classification at 64 electrodes.
//!
//! Runs a Table I pass for the FDR axis (subset + coarser time scale by
//! default; use `--full` for the whole cohort) and the TX2 cost models
//! for the energy axis.
//!
//! ```text
//! cargo run -p laelaps-bench --release --bin fig3 -- [--full] [--scale N] [--seed N]
//! ```

use laelaps_bench::args_or_exit;
use laelaps_eval::experiments::{render_fig3, run_fig3, run_table1, Table1Options};

fn main() {
    let args = args_or_exit(
        "fig3 [--full] [--scale N] [--seed N]",
        &["--scale", "--seed"],
        &["--full"],
    )
    .flags_only();
    let mut options = Table1Options::default();
    if !args.present("--full") {
        // Default: a representative six-patient subset around the median
        // electrode count, at a coarser time scale.
        options.ids = Some(vec!["P2", "P3", "P7", "P8", "P13", "P17"]);
        options.time_scale = 2400.0;
    }
    options.time_scale = args.parsed("--scale", options.time_scale);
    options.seed = args.parsed("--seed", options.seed);
    eprintln!(
        "running Fig. 3 FDR pass (scale 1/{}) ...",
        options.time_scale
    );
    let table1 = run_table1(&options);
    let points = run_fig3(&table1);
    println!("{}", render_fig3(&points));
}
