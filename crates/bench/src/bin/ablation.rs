//! Regenerates the §IV-B `tr = 0` ablation: Laelaps with and without the
//! tuned Δ threshold, against the SVM reference.
//!
//! ```text
//! cargo run -p laelaps-bench --release --bin ablation -- [--full] [--scale N]
//! ```

use laelaps_bench::args_or_exit;
use laelaps_eval::experiments::{render_ablation, run_table1, summarize_ablation, Table1Options};

fn main() {
    let args =
        args_or_exit("ablation [--full] [--scale N]", &["--scale"], &["--full"]).flags_only();
    let mut options = Table1Options::default();
    if !args.present("--full") {
        options.ids = Some(vec!["P2", "P6", "P8", "P16"]);
        options.time_scale = 2400.0;
    }
    options.time_scale = args.parsed("--scale", options.time_scale);
    eprintln!("running ablation pass (scale 1/{}) ...", options.time_scale);
    let table1 = run_table1(&options);
    println!("{}", render_ablation(&summarize_ablation(&table1)));
}
