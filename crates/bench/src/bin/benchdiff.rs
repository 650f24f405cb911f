//! `benchdiff` — the repository's performance gate: runs the benchmark
//! at a base commit and at this checkout on the same machine, and judges
//! every end-to-end metric against its own bound.
//!
//! ```text
//! cargo run --release -p laelaps-bench --bin benchdiff -- \
//!     --base <rev> [--allow-regression]
//! ```
//!
//! `BENCHMARK.json` at the repository root says what to run (`command`,
//! `run_seconds`, the gated `workloads`) and how to judge it (the
//! `end_to_end` metrics, each with its `better` direction and `bound`).
//! The base commit is checked out in a detached git worktree under
//! `target/`, with this checkout's committed `perfbench/` and
//! `BENCHMARK.json` laid over it, so only the code under test differs.
//! When this checkout's `perfbench/` does not build against the base (it
//! calls an API the change added or altered), the base is rebuilt with
//! its own committed `perfbench/`, and the table and verdict say that the
//! two sides ran different benchmark sources.
//! Both sides are built first. Each workload then runs [`PAIRS`] pairs,
//! seeds 1 to [`PAIRS`], alternating which side goes first; a run is
//! `command --workload W --seed S --seconds <run_seconds> --trace 0`
//! from its tree's root, and its result is its last line of stdout.
//!
//! Each (workload, metric) row shows both sides' medians and quartiles,
//! the change, the bound, the pairs the head won and the verdict. A
//! metric *regressed* when the head median is worse than the base median
//! by more than the bound. When the base runs' interquartile range,
//! relative to their median, is wider than the bound, the row reads
//! `unresolved` and fails only if every head run is worse than every
//! base run. Lost frames are judged as `delivered_frac`, by its bound.
//! The gate sees only a step larger than a metric's bound between the
//! base and the head; steps below it add up across changes unseen.
//!
//! Exit codes:
//! - 0: pass.
//! - 1: a regression. `--allow-regression` turns a metric regression
//!   into 0 and still prints the table. It never excuses a head run that
//!   exits non-zero or is not `correct`. CI passes it when the change's
//!   commit message carries `[bench: allow-regression]`.
//! - 2: the gate cannot judge: a usage error, a side that does not
//!   build, or a base run that fails or is not `correct`. The run stops
//!   at the first broken run; a broken head run is first matched by a
//!   base run at its seed, so a fault that breaks both sides is a 2
//!   whichever side ran first.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use laelaps_bench::args_or_exit;
use laelaps_bench::json::Json;

/// Pairs of runs per workload; pair `i` runs seed `i`, from 1.
const PAIRS: u64 = 10;
/// The base commit's worktree, relative to the repository root.
const BASE_TREE: &str = "target/benchdiff-base";
/// The two sides, in the index order of every `[_; 2]` below.
const SIDES: [&str; 2] = ["base", "head"];

const USAGE: &str = "benchdiff --base <rev> [--allow-regression]";

/// What `BENCHMARK.json` says to run and how to judge it.
struct Bench {
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

/// One gated end-to-end metric.
struct Metric {
    name: String,
    higher_is_better: bool,
    /// The largest tolerated change for the worse, relative to the base
    /// median.
    bound: f64,
}

/// `doc[key]` read as `kind`.
fn get<'a, T>(doc: &'a Json, key: &str, kind: fn(&'a Json) -> Option<T>) -> Result<T, String> {
    doc.get(key)
        .and_then(kind)
        .ok_or_else(|| format!("{key:?} is missing or of the wrong type"))
}

impl Bench {
    fn parse(text: &str) -> Result<Bench, String> {
        let doc = Json::parse(text)?;
        let command = get(&doc, "command", Json::as_array)?
            .iter()
            .map(|word| word.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .filter(|words| !words.is_empty())
            .ok_or("\"command\" is not a list of words")?;
        let workloads = get(&doc, "workloads", Json::as_array)?
            .iter()
            .map(|w| get(w, "name", Json::as_str).map(str::to_string))
            .collect::<Result<_, _>>()?;
        let metrics = get(&doc, "end_to_end", Json::as_array)?
            .iter()
            .map(|m| {
                let name = get(m, "name", Json::as_str)?.to_string();
                let higher_is_better = match get(m, "better", Json::as_str)? {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("{name}: \"better\" is {other:?}")),
                };
                let bound = get(m, "bound", Json::as_f64)?;
                if !(bound >= 0.0 && bound.is_finite()) {
                    return Err(format!("{name}: bad bound {bound}"));
                }
                Ok(Metric {
                    name,
                    higher_is_better,
                    bound,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Bench {
            command,
            run_seconds: get(&doc, "run_seconds", Json::as_f64)?,
            workloads,
            metrics,
        })
    }

    /// `command` is a `cargo run … --` line; building is the same line
    /// with `build` in place of `run` and without the program's arguments.
    fn build_line(&self) -> Result<Vec<String>, String> {
        let mut line: Vec<String> = self
            .command
            .iter()
            .take_while(|w| *w != "--")
            .cloned()
            .collect();
        match line.iter().position(|w| w == "run") {
            Some(run) if line[0] == "cargo" => line[run] = "build".to_string(),
            _ => return Err(format!("{:?} is not a `cargo run` line", self.command)),
        }
        Ok(line)
    }
}

/// One benchmark run's result line.
struct Run {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

impl Run {
    /// Parses `{"correct", "metrics": {name: {"value", "unit"}}}` out of
    /// the result line, which also carries `attempted` and `failed`
    /// (lost chunks, which `delivered_frac` already reports).
    fn parse(line: &str) -> Result<Run, String> {
        let doc = Json::parse(line)?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err("no \"metrics\" object".to_string());
        };
        Ok(Run {
            correct: get(&doc, "correct", Json::as_bool)?,
            metrics: metrics
                .iter()
                .map(|(name, m)| Ok((name.clone(), get(m, "value", Json::as_f64)?)))
                .collect::<Result<_, String>>()?,
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .filter(|v| v.is_finite())
    }
}

/// A run's result, or why it has none (the process failed, or its last
/// line is not a result).
type Outcome = Result<Run, String>;

/// One workload's runs: its name, then the base and head runs, each in
/// seed order.
type Runs = (String, [Vec<Outcome>; 2]);

/// One (workload, metric) line of the table.
struct Row {
    workload: String,
    metric: String,
    /// First quartile, median and third quartile of each side.
    quartiles: [[f64; 3]; 2],
    /// Head median relative to the base median, signed.
    change: f64,
    bound: f64,
    /// Pairs in which the head did better, of [`PAIRS`].
    won: usize,
    verdict: &'static str,
    fails: bool,
}

/// Quartiles by linear interpolation between order statistics.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// `value` relative to `reference`, signed.
fn relative(value: f64, reference: f64) -> f64 {
    if value == reference {
        0.0
    } else {
        (value - reference) / reference.abs()
    }
}

/// Judges one metric over one workload's values (each side non-empty,
/// in seed order, so `base[i]` and `head[i]` are pair `i`).
fn judge(metric: &Metric, workload: &str, base: &[f64], head: &[f64]) -> Row {
    // `worse(a, b)`: a is worse than b in the metric's direction.
    let worse = |a: f64, b: f64| (a < b) == metric.higher_is_better && a != b;
    let (b, h) = (quartiles(base), quartiles(head));
    let change = relative(h[1], b[1]);
    let worse_by = if metric.higher_is_better {
        -change
    } else {
        change
    };
    let (verdict, fails) = if relative(b[2], b[1]) - relative(b[0], b[1]) > metric.bound {
        match head.iter().all(|&x| base.iter().all(|&y| worse(x, y))) {
            true => ("unresolved, every head run worse", true),
            false => ("unresolved", false),
        }
    } else if worse_by > metric.bound {
        ("REGRESSED", true)
    } else {
        ("ok", false)
    };
    Row {
        workload: workload.to_string(),
        metric: metric.name.clone(),
        quartiles: [b, h],
        change,
        bound: metric.bound,
        won: base.iter().zip(head).filter(|(&b, &h)| worse(b, h)).count(),
        verdict,
        fails,
    }
}

/// Decides the gate over every workload's runs: the table, the exit
/// code, and why.
fn decide(metrics: &[Metric], all: &[Runs], allow_regression: bool) -> (Vec<Row>, u8, String) {
    let mut rows = Vec::new();
    for (workload, sides) in all {
        // Every run must have exited cleanly, be `correct` and report
        // every gated metric. A broken base run cannot be judged (exit
        // 2); a broken head run fails (exit 1).
        let mut runs: [Vec<&Run>; 2] = [Vec::new(), Vec::new()];
        for (side, outcomes) in sides.iter().enumerate() {
            let broken = |why: String| (Vec::new(), 2 - side as u8, format!("{workload}: {why}"));
            if outcomes.is_empty() {
                return broken(format!("no {} run", SIDES[side]));
            }
            for (outcome, seed) in outcomes.iter().zip(1..) {
                let run = format!("{} run (seed {seed})", SIDES[side]);
                match outcome {
                    Err(e) => return broken(format!("{run} failed: {e}")),
                    Ok(r) if !r.correct => return broken(format!("{run} is not correct")),
                    Ok(r) => match metrics.iter().find(|m| r.metric(&m.name).is_none()) {
                        Some(m) => return broken(format!("{run} reports no {}", m.name)),
                        None => runs[side].push(r),
                    },
                }
            }
        }
        let [base, head] = runs;
        for metric in metrics {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metric(&metric.name)).collect()
            };
            rows.push(judge(metric, workload, &values(&base), &values(&head)));
        }
    }
    let regressed: Vec<String> = rows
        .iter()
        .filter(|r| r.fails)
        .map(|r| format!("{} {}", r.workload, r.metric))
        .collect();
    let (code, reason) = if regressed.is_empty() {
        (0, "no metric regressed".to_string())
    } else if allow_regression {
        (
            0,
            format!("allowed by --allow-regression: {}", regressed.join(", ")),
        )
    } else {
        (1, format!("regressed: {}", regressed.join(", ")))
    };
    (rows, code, reason)
}

fn print_table(rows: &[Row]) {
    let fmt = |v: f64| match v.abs() >= 1000.0 {
        true => format!("{v:.0}"),
        false => format!("{v:.4}"),
    };
    let cell = |q: &[f64; 3]| format!("{} [{}–{}]", fmt(q[1]), fmt(q[0]), fmt(q[2]));
    let header = [
        "workload",
        "metric",
        "base median [q1–q3]",
        "head median [q1–q3]",
        "change",
        "bound",
        "won",
        "verdict",
    ];
    let lines = rows.iter().map(|r| {
        [
            r.workload.clone(),
            r.metric.clone(),
            cell(&r.quartiles[0]),
            cell(&r.quartiles[1]),
            format!("{:+.1}%", r.change * 100.0),
            format!("{:.0}%", r.bound * 100.0),
            format!("{}/{PAIRS}", r.won),
            r.verdict.to_string(),
        ]
    });
    for [w, m, b, h, c, bound, won, v] in std::iter::once(header.map(String::from)).chain(lines) {
        println!("{w:<12} {m:<22} {b:>30} {h:>30} {c:>8} {bound:>6} {won:>6}  {v}");
    }
}

/// Runs `git` in `dir` and returns its trimmed stdout.
fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(args)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).trim().to_string();
    match out.status.success() {
        true => Ok(text(&out.stdout)),
        false => Err(format!("git {}: {}", args.join(" "), text(&out.stderr))),
    }
}

/// Checks out `rev` at [`BASE_TREE`], with `overlay`'s benchmark laid
/// over it. A stale tree left by a killed run is cleared first.
fn add_worktree(repo: &Path, rev: &str, overlay: &str) -> Result<PathBuf, String> {
    remove_worktree(repo);
    let dir = repo.join(BASE_TREE);
    let path = dir.to_str().ok_or("worktree path is not UTF-8")?;
    git(repo, &["worktree", "add", "--detach", "--quiet", path, rev])?;
    git(
        &dir,
        &["checkout", overlay, "--", "perfbench", "BENCHMARK.json"],
    )?;
    Ok(dir)
}

fn remove_worktree(repo: &Path) {
    let _ = git(repo, &["worktree", "remove", "--force", BASE_TREE]);
    let _ = std::fs::remove_dir_all(repo.join(BASE_TREE));
    let _ = git(repo, &["worktree", "prune"]);
}

/// Runs `line` plus `args` from `tree`, which builds into its own
/// default target directory, and returns its stdout, or its exit status
/// and the tail of its stderr.
fn run_in(tree: &Path, line: &[String], args: &[&str]) -> Result<String, String> {
    let out = Command::new(&line[0])
        .args(&line[1..])
        .args(args)
        .current_dir(tree)
        .env_remove("CARGO_TARGET_DIR")
        .output()
        .map_err(|e| format!("{}: {e}", line[0]))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let lines: Vec<&str> = stderr.trim_end().lines().collect();
        let tail = lines[lines.len().saturating_sub(20)..].join("\n");
        return Err(format!("{}\n{tail}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// One run of `workload` at `seed` from `tree`, logged to stderr.
fn run_once(tree: &Path, side: &str, bench: &Bench, workload: &str, seed: u64) -> Outcome {
    let started = Instant::now();
    let outcome = run_in(
        tree,
        &bench.command,
        &[
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &bench.run_seconds.to_string(),
            "--trace",
            "0",
        ],
    )
    .and_then(|stdout| {
        let last = stdout.trim_end().lines().last().unwrap_or("");
        Run::parse(last).map_err(|e| format!("result line {last:?}: {e}"))
    });
    let status = match &outcome {
        Ok(r) if r.correct => "correct",
        Ok(_) => "NOT CORRECT",
        Err(_) => "FAILED",
    };
    let secs = started.elapsed().as_secs_f64();
    eprintln!("benchdiff: {workload} seed {seed} {side}: {status} in {secs:.1} s");
    outcome
}

/// Sets up the base worktree, measures, and removes the worktree again
/// whatever happened. `Err` is a failure to judge at all (exit 2).
fn gate(base_rev: &str, allow_regression: bool) -> Result<(Vec<Row>, u8, String), String> {
    let repo = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?);
    let path = repo.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bench = Bench::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let base_rev = git(
        &repo,
        &["rev-parse", "--verify", &format!("{base_rev}^{{commit}}")],
    )?;
    let head_rev = git(&repo, &["rev-parse", "HEAD"])?;
    eprintln!(
        "benchdiff: base {base_rev}, head the checkout at {}",
        repo.display()
    );
    let decision = add_worktree(&repo, &base_rev, &head_rev).and_then(|base_tree| {
        let trees = [base_tree.as_path(), repo.as_path()];
        let note = build(&bench, trees, &base_rev)?;
        let (rows, code, mut reason) = run_pairs(&bench, allow_regression, |side, w, seed| {
            run_once(trees[side], SIDES[side], &bench, w, seed)
        });
        if let Some(note) = note {
            reason = format!("{reason}; {note}");
        }
        Ok((rows, code, reason))
    });
    remove_worktree(&repo);
    decision
}

/// Builds both sides. When this checkout's `perfbench/` does not build
/// at the base, puts the base's own back and builds again, and returns
/// a note saying so.
fn build(bench: &Bench, trees: [&Path; 2], base_rev: &str) -> Result<Option<&'static str>, String> {
    let line = bench.build_line()?;
    let build = |side: usize| {
        eprintln!(
            "benchdiff: building {} in {} ...",
            SIDES[side],
            trees[side].display()
        );
        run_in(trees[side], &line, &[])
    };
    build(1).map_err(|e| format!("head does not build: {e}"))?;
    let Err(e) = build(0) else {
        return Ok(None);
    };
    eprintln!("benchdiff: the head's perfbench/ does not build at the base: {e}");
    git(
        trees[0],
        &["checkout", "--no-overlay", base_rev, "--", "perfbench"],
    )?;
    build(0).map_err(|e| format!("base does not build, with either perfbench/: {e}"))?;
    let note = "NOTE: the base ran its own perfbench/, since the head's does not build at it";
    eprintln!("benchdiff: {note}");
    Ok(Some(note))
}

/// Runs every pair, `run(side, workload, seed)` giving one run's
/// outcome, and decides. A broken run decides the gate, so the pairs
/// stop there; a broken head run is first matched by a base run at its
/// seed, since a base that breaks too means the gate cannot judge.
fn run_pairs(
    bench: &Bench,
    allow_regression: bool,
    mut run: impl FnMut(usize, &str, u64) -> Outcome,
) -> (Vec<Row>, u8, String) {
    let mut all: Vec<Runs> = Vec::new();
    for workload in &bench.workloads {
        all.push((workload.clone(), [Vec::new(), Vec::new()]));
        let sides = &mut all.last_mut().expect("just pushed").1;
        for seed in 1..=PAIRS {
            // Odd seeds run the base first, even seeds the head.
            let order = if seed % 2 == 1 { [0, 1] } else { [1, 0] };
            for side in order {
                let outcome = run(side, workload, seed);
                let sound = matches!(&outcome, Ok(r) if r.correct);
                sides[side].push(outcome);
                if !sound {
                    if sides[0].len() < sides[1].len() {
                        sides[0].push(run(0, workload, seed));
                    }
                    return decide(&bench.metrics, &all, allow_regression);
                }
            }
        }
    }
    decide(&bench.metrics, &all, allow_regression)
}

fn main() -> ExitCode {
    let args = args_or_exit(USAGE, &["--base"], &["--allow-regression"]).flags_only();
    let Some(base) = args.value("--base") else {
        args.usage_error("--base <rev> is required");
    };
    let started = Instant::now();
    let (rows, code, reason) =
        gate(base, args.present("--allow-regression")).unwrap_or_else(|e| (Vec::new(), 2, e));
    if !rows.is_empty() {
        print_table(&rows);
    }
    let verdict = ["PASS", "FAIL", "cannot judge"][code as usize];
    let wall = started.elapsed().as_secs_f64();
    println!("benchdiff: {verdict}: {reason} ({wall:.0} s wall)");
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: name.to_string(),
            higher_is_better,
            bound,
        }
    }

    /// Ten values around `center`, spread ±2%, times `factor`.
    fn around(center: f64, factor: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * factor * (1.0 + (i as f64 - 4.5) / 225.0))
            .collect()
    }

    /// A correct run reporting `fps` = 100.
    fn run() -> Run {
        Run {
            correct: true,
            metrics: vec![("fps".to_string(), 100.0)],
        }
    }

    /// Ten correct runs of one workload per side.
    fn sound() -> [Vec<Outcome>; 2] {
        [
            (0..10).map(|_| Ok(run())).collect(),
            (0..10).map(|_| Ok(run())).collect(),
        ]
    }

    /// The (side, seed) runs that [`run_pairs`] made over one workload,
    /// and its exit code, when the runs at `broken` are not correct.
    fn pairs_with(broken: &[(usize, u64)]) -> (Vec<(usize, u64)>, u8) {
        let bench = Bench {
            command: Vec::new(),
            run_seconds: 1.0,
            workloads: vec!["w".to_string()],
            metrics: vec![metric("fps", true, 0.25)],
        };
        let mut ran = Vec::new();
        let (_, code, _) = run_pairs(&bench, true, |side, _, seed| {
            ran.push((side, seed));
            let correct = !broken.contains(&(side, seed));
            Ok(Run { correct, ..run() })
        });
        (ran, code)
    }

    fn exit_of(sides: [Vec<Outcome>; 2], allow_regression: bool) -> u8 {
        let all = [("w".to_string(), sides)];
        decide(&[metric("fps", true, 0.25)], &all, allow_regression).1
    }

    #[test]
    fn a_change_within_the_bound_passes_both_ways() {
        for higher_is_better in [true, false] {
            for factor in [0.8, 1.0, 1.2] {
                let row = judge(
                    &metric("m", higher_is_better, 0.25),
                    "w",
                    &around(100.0, 1.0),
                    &around(100.0, factor),
                );
                assert_eq!(row.verdict, "ok", "{higher_is_better} {factor}");
            }
        }
    }

    #[test]
    fn a_change_beyond_the_bound_fails_only_for_the_worse() {
        let higher = metric("frames_per_s", true, 0.25);
        let lower = metric("cpu_us_per_frame", false, 0.25);
        let (base, slower, faster) = (around(100.0, 1.0), around(100.0, 0.7), around(100.0, 1.3));

        let row = judge(&higher, "w", &base, &slower);
        assert_eq!((row.verdict, row.won), ("REGRESSED", 0));
        assert!((row.change + 0.3).abs() < 1e-9);
        assert_eq!(judge(&lower, "w", &base, &faster).verdict, "REGRESSED");
        // Improvements beyond the bound pass.
        assert_eq!(judge(&higher, "w", &base, &faster).verdict, "ok");
        let row = judge(&lower, "w", &base, &slower);
        assert_eq!((row.verdict, row.won), ("ok", 10));
    }

    #[test]
    fn a_wide_base_spread_is_unresolved_unless_every_head_run_is_worse() {
        let m = metric("rss_mb", false, 0.25);
        let base = [60.0, 62.0, 64.0, 66.0, 90.0, 92.0, 94.0, 96.0, 98.0, 99.0];
        // The median is 40% worse, but the runs overlap.
        let head: Vec<f64> = base.iter().map(|v| v * 1.4).collect();
        assert_eq!(judge(&m, "w", &base, &head).verdict, "unresolved");
        let head: Vec<f64> = (100..110).map(f64::from).collect();
        assert_eq!(
            judge(&m, "w", &base, &head).verdict,
            "unresolved, every head run worse"
        );
    }

    #[test]
    fn a_metric_regression_fails_unless_allowed() {
        let mut sides = sound();
        for run in sides[1].iter_mut().flatten() {
            run.metrics[0].1 = 50.0;
        }
        let all = [("w".to_string(), sides)];
        let (rows, code, _) = decide(&[metric("fps", true, 0.25)], &all, false);
        assert_eq!((rows.len(), code), (1, 1));
        let (rows, code, _) = decide(&[metric("fps", true, 0.25)], &all, true);
        assert_eq!(
            (rows.len(), code),
            (1, 0),
            "an allowed regression still prints"
        );
        assert_eq!(exit_of(sound(), false), 0);
    }

    #[test]
    fn a_broken_head_fails_even_when_allowed_and_a_broken_base_cannot_be_judged() {
        for (side, code) in [(1, 1), (0, 2)] {
            let mut sides = sound();
            sides[side][3].as_mut().unwrap().correct = false;
            assert_eq!(exit_of(sides, true), code);
            let mut sides = sound();
            sides[side] = vec![Err("exit status: 101".to_string())];
            assert_eq!(exit_of(sides, true), code);
            let mut sides = sound();
            sides[side][0].as_mut().unwrap().metrics.clear();
            assert_eq!(exit_of(sides, true), code);
        }
        // Which side is blamed does not hang on which side ran first:
        // even seeds run the head first, odd seeds the base.
        let (ran, code) = pairs_with(&[]);
        assert_eq!((ran.len(), code), (20, 0));
        for seed in [2, 3] {
            let at_seed = |ran: &[(usize, u64)]| ran.iter().filter(|r| r.1 == seed).count();
            let (ran, code) = pairs_with(&[(1, seed)]);
            assert_eq!((code, at_seed(&ran), ran.last().unwrap().1), (1, 2, seed));
            let (ran, code) = pairs_with(&[(0, seed), (1, seed)]);
            assert_eq!((code, ran.last().unwrap().1), (2, seed), "seed {seed}");
        }
    }

    #[test]
    fn lost_frames_are_judged_by_delivered_frac_and_its_bound() {
        let delivered = metric("delivered_frac", true, 0.01);
        let base = [1.0; 10];
        assert_eq!(judge(&delivered, "w", &base, &[0.995; 10]).verdict, "ok");
        let row = judge(&delivered, "w", &base, &[0.98; 10]);
        assert_eq!(row.verdict, "REGRESSED");
    }

    #[test]
    fn the_committed_benchmark_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let bench = Bench::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert!(!bench.workloads.is_empty() && bench.run_seconds > 0.0);
        assert_eq!(bench.metrics.len(), 6);
        assert!(bench.metrics.iter().all(|m| m.bound > 0.0));
        let build = bench.build_line().unwrap();
        assert_eq!(build[1], "build");
        assert!(!build.iter().any(|w| w == "--"));
    }

    #[test]
    fn parses_a_real_result_line() {
        let line = r#"{"correct":true,"attempted":4097,"failed":0,"metrics":{"frames_per_s":{"value":524274.657996366,"unit":"1/s"},"window_latency_p50_ms":{"value":0.095188,"unit":"ms"},"cpu_us_per_frame":{"value":0.16695467090606692,"unit":"us"},"delivered_frac":{"value":1,"unit":"frac"},"rss_mb":{"value":196.419584,"unit":"MB"},"setup_s":{"value":0.184447047,"unit":"s"}}}"#;
        let run = Run::parse(line).unwrap();
        assert!(run.correct);
        assert_eq!(run.metrics.len(), 6);
        assert_eq!(run.metric("rss_mb"), Some(196.419584));
        assert!(Run::parse("perfbench: deploy-tcp failed").is_err());
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }
}
