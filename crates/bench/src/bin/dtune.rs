//! Regenerates the §IV-B dimension-tuning experiment: shrink d from the
//! 10 kbit golden model while training-set performance is preserved.
//!
//! ```text
//! cargo run -p laelaps-bench --release --bin dtune -- [--ids P1,P5] [--scale N]
//! ```

use laelaps_bench::args_or_exit;
use laelaps_eval::experiments::{render_dtune, run_dtune_patient};
use laelaps_ieeg::synth::{cohort_subset, CohortOptions};

fn main() {
    let args = args_or_exit(
        "dtune [--ids P1,P5,..] [--scale N]",
        &["--ids", "--scale"],
        &[],
    )
    .flags_only();
    let cohort = CohortOptions {
        time_scale: args.parsed("--scale", 2400.0),
        ..CohortOptions::default()
    };
    let ids: Vec<&str> = args
        .value("--ids")
        .map_or(vec!["P3", "P5", "P11", "P17"], |s| s.split(',').collect());
    let profiles = cohort_subset(&cohort, &ids);
    let mut results = Vec::new();
    for profile in &profiles {
        eprintln!("tuning {} ...", profile.info.id);
        match run_dtune_patient(profile) {
            Ok(r) => results.push(r),
            Err(e) => eprintln!("  {}: {e}", profile.info.id),
        }
    }
    println!("{}", render_dtune(&results));
}
