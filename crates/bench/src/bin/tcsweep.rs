//! Extension experiment: the detection-delay / robustness trade-off of
//! the postprocessing vote (the paper fixes tc = 10 and names delay
//! reduction as future work).
//!
//! ```text
//! cargo run -p laelaps-bench --release --bin tcsweep -- [--ids P3,P5] [--scale N]
//! ```

use laelaps_bench::args_or_exit;
use laelaps_core::tuning::tune_tr;
use laelaps_eval::experiments::{render_tc_sweep, run_tc_sweep, PatientStream};
use laelaps_eval::runner::{run_laelaps_test, train_laelaps, PreparedPatient};
use laelaps_ieeg::synth::{cohort_subset, CohortOptions};

fn main() {
    let args = args_or_exit(
        "tcsweep [--ids P1,P5,..] [--scale N]",
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
        .map_or(vec!["P3", "P8", "P11", "P17"], |s| s.split(',').collect());
    let mut streams = Vec::new();
    for profile in cohort_subset(&cohort, &ids) {
        eprintln!("preparing {} ...", profile.info.id);
        let prep = match PreparedPatient::new(&profile) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("  {}: {e}", profile.info.id);
                continue;
            }
        };
        let dim = (profile.info.laelaps_d_kbit * 1000.0) as usize;
        let (model, replay) = train_laelaps(&prep, dim).expect("training succeeds");
        let run = run_laelaps_test(&model, &prep).expect("test run succeeds");
        streams.push(PatientStream {
            classifications: run.classifications,
            times_secs: run.times_secs,
            spans: prep.test_seizure_spans(),
            equivalent_hours: prep.test_equivalent_hours,
            tr: tune_tr(&replay, 0.0),
        });
    }
    let points = run_tc_sweep(&streams, &[2, 4, 6, 8, 10, 12]);
    println!("{}", render_tc_sweep(&points));
}
