//! Regenerates Table I: per-patient delay / FDR / sensitivity for Laelaps
//! and the three baselines on the synthetic 18-patient cohort.
//!
//! ```text
//! cargo run -p laelaps-bench --release --bin table1 -- \
//!     [--scale 1800] [--seed 2019] [--ids P1,P5,P14] [--no-baselines] [--dim 2000] \
//!     [--threads N]
//! ```

use laelaps_bench::args_or_exit;
use laelaps_eval::experiments::{render_table1, run_table1, Table1Options};
use laelaps_ieeg::PATIENTS;

const USAGE: &str = "table1 [--scale N] [--seed N] [--ids P1,P5,..] [--no-baselines] \
                     [--dim D] [--threads N]";

fn main() {
    let args = args_or_exit(
        USAGE,
        &["--scale", "--seed", "--dim", "--ids", "--threads"],
        &["--no-baselines"],
    )
    .flags_only();
    let mut options = Table1Options::default();
    options.time_scale = args.parsed("--scale", options.time_scale);
    options.seed = args.parsed("--seed", options.seed);
    if args.present("--dim") {
        options.dim_override = Some(args.parsed("--dim", 0));
    }
    if let Some(s) = args.value("--ids") {
        let ids: Vec<&'static str> = s
            .split(',')
            .map(|want| {
                PATIENTS
                    .iter()
                    .map(|p| p.id)
                    .find(|id| *id == want)
                    .unwrap_or_else(|| args.usage_error(&format!("unknown patient id {want:?}")))
            })
            .collect();
        options.ids = Some(ids);
    }
    options.with_baselines = !args.present("--no-baselines");
    options.threads = args.parsed("--threads", options.threads);

    eprintln!(
        "running Table I: scale 1/{}, seed {}, {} patients, baselines: {}",
        options.time_scale,
        options.seed,
        options.ids.as_ref().map_or(PATIENTS.len(), |v| v.len()),
        options.with_baselines
    );
    let started = std::time::Instant::now();
    let result = run_table1(&options);
    eprintln!(
        "done in {:.1}s (alpha = {:.2})",
        started.elapsed().as_secs_f64(),
        result.alpha
    );
    println!("{}", render_table1(&result));
}
