//! Regenerates Table II: time and energy per classification event on the
//! simulated Tegra X2 (Max-Q) for 24 and 128 electrodes.
//!
//! ```text
//! cargo run -p laelaps-bench --release --bin table2
//! ```

use laelaps_bench::args_or_exit;
use laelaps_eval::experiments::{render_table2, run_table2};

fn main() {
    args_or_exit("table2", &[], &[]).flags_only();
    println!("{}", render_table2(&run_table2()));
}
