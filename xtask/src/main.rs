//! `cargo xtask lint` — the repo-invariant static pass for the lock-free
//! hot path. Text/syntax-level only (no rustc plugin, no external deps),
//! so it runs in seconds on any checkout and in the CI `analysis` job.
//!
//! Rules (see `CONCURRENCY.md` for the rationale):
//!
//! 1. **safety-comment** — every `unsafe` block, fn, or impl in crate
//!    sources must be immediately preceded by (or carry on the same
//!    line) a `// SAFETY:` comment explaining why the obligation holds.
//! 2. **hot-path-clock** — no clock read (`Instant::now()`,
//!    `SystemTime::now()`, or a stored instant's `.elapsed()`) in the
//!    drain path (`core::{detector,encoder,lbp,am,postprocess}` and the
//!    encoder kernel, `serve::{ring,ready,session,service,stats,swapgate,
//!    health}`, `telemetry::{hist,seqlock,cell,topk,stage,trace,rate,
//!    recorder}`) and in the wire codec (`serve::wire`, which decodes
//!    every chunk on the TCP path): timing goes through `telemetry::Clock`
//!    marks, which
//!    hold no instant when timing and tracing are off. `telemetry::clock`
//!    is the one module that reads the clock, so it is deliberately
//!    outside the rule's file list; its raw read is private, so other
//!    crates read it only through a mark, a close, or the snapshot-side
//!    `Clock::per_sec`. The health evaluator measures time
//!    in ticks and sleeps on a condvar timeout, so it carries the same
//!    no-clock guarantee.
//! 3. **facade-import** — modules migrated to the `laelaps_check::sync`
//!    facade must not re-import `std::sync::atomic` / `std::thread` /
//!    `std::sync::{Mutex, Condvar, ...}` (outside `#[cfg(test)]` code):
//!    a stray std primitive would be invisible to the model checker.
//! 4. **seqcst-justification** — `SeqCst` appears only with an adjacent
//!    `// SeqCst:` comment justifying why acquire/release is not enough
//!    (the model checker approximates `SeqCst` as `AcqRel`, so relying
//!    on the total order silently weakens checking).
//!
//! Every file the rule lists name must exist: a deleted or renamed file
//! fails the lint instead of silently dropping out of its rule.
//!
//! Known text-level limitations: block comments (`/* */`) and string
//! literals containing rule tokens can confuse the scan; the workspace
//! avoids both around synchronization code.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files (workspace-relative, `/`-separated) under rule 2: the drain
/// path every frame takes and the codec every TCP chunk crosses, where a
/// stray clock read costs ~20–60 ns per read and defeats the
/// telemetry-off guarantee.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/detector.rs",
    "crates/core/src/encoder.rs",
    "crates/core/src/encoder/kernel.rs",
    "crates/core/src/lbp.rs",
    "crates/core/src/am.rs",
    "crates/core/src/postprocess.rs",
    "crates/serve/src/ring.rs",
    "crates/serve/src/ready.rs",
    "crates/serve/src/session.rs",
    "crates/serve/src/service.rs",
    "crates/serve/src/stats.rs",
    "crates/serve/src/swapgate.rs",
    "crates/serve/src/health.rs",
    "crates/serve/src/wire.rs",
    "crates/telemetry/src/hist.rs",
    "crates/telemetry/src/seqlock.rs",
    "crates/telemetry/src/cell.rs",
    "crates/telemetry/src/topk.rs",
    "crates/telemetry/src/stage.rs",
    "crates/telemetry/src/trace.rs",
    "crates/telemetry/src/rate.rs",
    "crates/telemetry/src/recorder.rs",
];

/// Clock reads rule 2 forbids on the hot path: a fresh instant, or the
/// time elapsed since a stored one.
const CLOCK_READS: &[&str] = &["Instant::now()", "SystemTime::now()", ".elapsed()"];

/// Files under rule 3: everything migrated to the `laelaps_check::sync`
/// facade. Keep in sync with `CONCURRENCY.md`.
const FACADE_FILES: &[&str] = &[
    "crates/serve/src/ring.rs",
    "crates/serve/src/ready.rs",
    "crates/serve/src/session.rs",
    "crates/serve/src/service.rs",
    "crates/serve/src/stats.rs",
    "crates/serve/src/swapgate.rs",
    "crates/serve/src/health.rs",
    "crates/telemetry/src/lib.rs",
    "crates/telemetry/src/hist.rs",
    "crates/telemetry/src/rate.rs",
    "crates/telemetry/src/trace.rs",
    "crates/telemetry/src/recorder.rs",
    "crates/telemetry/src/seqlock.rs",
    "crates/telemetry/src/cell.rs",
    "crates/telemetry/src/topk.rs",
    "crates/eval/src/pool.rs",
];

/// The file lists above, by name, for the existence check.
const LINT_LISTS: &[(&str, &[&str])] = &[
    ("HOT_PATH_FILES", HOT_PATH_FILES),
    ("FACADE_FILES", FACADE_FILES),
];

/// One rule violation at a specific line.
#[derive(Debug, PartialEq)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next();
    match command.as_deref() {
        Some("lint") => {}
        other => {
            eprintln!(
                "usage: cargo xtask lint [--root <dir>]\n(unknown command: {:?})",
                other.unwrap_or("<none>")
            );
            return ExitCode::FAILURE;
        }
    }
    let mut root = workspace_root();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root requires a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let missing = missing_listed_files(&root, LINT_LISTS);
    if !missing.is_empty() {
        for entry in &missing {
            println!("{entry}");
        }
        println!(
            "xtask lint: {} listed file(s) missing — update the list in xtask/src/main.rs",
            missing.len()
        );
        return ExitCode::FAILURE;
    }
    let files = collect_sources(&root);
    if files.is_empty() {
        eprintln!(
            "xtask lint: no crate sources found under {}",
            root.display()
        );
        return ExitCode::FAILURE;
    }
    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let Ok(content) = std::fs::read_to_string(path) else {
            eprintln!("xtask lint: unreadable file {}", path.display());
            return ExitCode::FAILURE;
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        scanned += 1;
        violations.extend(lint_source(&rel, &content));
    }
    if violations.is_empty() {
        println!("xtask lint: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!(
            "xtask lint: {} violation(s) in {scanned} files",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

/// The workspace root: xtask always runs via `cargo xtask`, so the
/// manifest dir's parent is the workspace.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

/// Entries of `lists` that name no file under `root`, one message each.
fn missing_listed_files(root: &Path, lists: &[(&str, &[&str])]) -> Vec<String> {
    lists
        .iter()
        .flat_map(|(list, files)| {
            files
                .iter()
                .filter(|rel| !root.join(rel).is_file())
                .map(move |rel| format!("{list} names {rel}, which does not exist"))
        })
        .collect()
}

/// Every `.rs` file under `crates/**/src` (the library sources the rules
/// govern; `tests/`, `benches/`, and `xtask` itself are out of scope).
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let inside_src = path.components().any(|c| c.as_os_str() == "src");
            if path.is_dir() {
                // Walk crate directories looking for src/ trees; once
                // inside one, take everything.
                if inside_src || entry.file_name() == "src" || path.join("src").is_dir() {
                    stack.push(path);
                }
            } else if inside_src && path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Runs every rule over one file's text. Pure, so the rules are
/// unit-testable against seeded-violation fixtures.
fn lint_source(rel_path: &str, content: &str) -> Vec<Violation> {
    let lines: Vec<&str> = content.lines().collect();
    let test_tail = test_module_start(&lines);
    let hot_path = HOT_PATH_FILES.contains(&rel_path);
    let facade = FACADE_FILES.contains(&rel_path);
    let mut out = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let code = strip_line_comment(raw);
        if code.trim().is_empty() {
            continue;
        }
        let in_tests = idx >= test_tail;

        // Rule 1: unsafe needs an adjacent SAFETY comment.
        if has_token(code, "unsafe")
            && !raw.contains("SAFETY:")
            && !preceding_comment_contains(&lines, idx, "SAFETY:")
        {
            out.push(Violation {
                file: rel_path.to_string(),
                line: line_no,
                rule: "safety-comment",
                message: "`unsafe` without an immediately preceding `// SAFETY:` comment"
                    .to_string(),
            });
        }

        // Rule 2: no direct clock reads on the hot path.
        let clock_read = CLOCK_READS.iter().find(|read| code.contains(*read));
        if let Some(read) = clock_read.filter(|_| hot_path && !in_tests) {
            out.push(Violation {
                file: rel_path.to_string(),
                line: line_no,
                rule: "hot-path-clock",
                message: format!(
                    "`{read}` on the hot path — time through a `telemetry::Clock` mark \
                     and close, which read no clock with timing and tracing off"
                ),
            });
        }

        // Rule 3: facade-migrated modules must not re-import std
        // concurrency primitives (test modules may).
        if facade && !in_tests {
            let trimmed = code.trim_start();
            if trimmed.starts_with("use std::sync::atomic")
                || trimmed.starts_with("use std::thread")
                || trimmed.starts_with("use std::sync::{")
                || trimmed.starts_with("use std::sync::Mutex")
                || trimmed.starts_with("use std::sync::Condvar")
            {
                out.push(Violation {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: "facade-import",
                    message: format!(
                        "std concurrency import in a facade-migrated module \
                         (use `laelaps_check::sync`): `{}`",
                        trimmed.trim_end()
                    ),
                });
            }
        }

        // Rule 4: SeqCst needs a written justification.
        if code.contains("SeqCst")
            && !raw.contains("SeqCst:")
            && !preceding_comment_contains(&lines, idx, "SeqCst:")
        {
            out.push(Violation {
                file: rel_path.to_string(),
                line: line_no,
                rule: "seqcst-justification",
                message: "`SeqCst` without an adjacent `// SeqCst:` justification \
                          comment (the model checker treats SeqCst as AcqRel)"
                    .to_string(),
            });
        }
    }
    out
}

/// First line of the `#[cfg(test)]`-gated tail of a file (everything at
/// or after the attribute is test-only), or `usize::MAX` if none.
fn test_module_start(lines: &[&str]) -> usize {
    lines
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(usize::MAX)
}

/// The code part of a line: everything before a `//` comment marker.
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Whether `code` contains `token` as a standalone word (so
/// `unsafe_op_in_unsafe_fn` does not count as `unsafe`).
fn has_token(code: &str, token: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let left_ok = start == 0 || !is_ident_char(bytes[start - 1]);
        let right_ok = end == bytes.len() || !is_ident_char(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether the comment block immediately above line `idx` (consecutive
/// `//`-only lines, walking upward) contains `needle`.
fn preceding_comment_contains(lines: &[&str], idx: usize, needle: &str) -> bool {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let trimmed = lines[i].trim_start();
        if trimmed.starts_with("//") {
            if trimmed.contains(needle) {
                return true;
            }
        } else {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        lint_source(rel, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn clean_unsafe_with_safety_comment_passes() {
        let src = "\
// SAFETY: the slot is exclusively owned here.
unsafe { ptr.read() }
";
        assert!(rules_hit("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn seeded_unsafe_without_safety_comment_fails() {
        let src = "\
fn f(ptr: *const u8) -> u8 {
    unsafe { ptr.read() }
}
";
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", src),
            vec!["safety-comment"]
        );
    }

    #[test]
    fn unsafe_impl_needs_a_safety_comment_too() {
        let src = "unsafe impl Sync for Ring {}\n";
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", src),
            vec!["safety-comment"]
        );
    }

    #[test]
    fn lint_attribute_is_not_an_unsafe_token() {
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\n";
        assert!(rules_hit("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn comment_mentions_of_unsafe_are_ignored() {
        let src = "// this API has no unsafe code\nlet x = 1;\n";
        assert!(rules_hit("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn seeded_clock_read_on_the_hot_path_fails() {
        let src = "let t = Instant::now();\n";
        assert_eq!(
            rules_hit("crates/serve/src/ring.rs", src),
            vec!["hot-path-clock"]
        );
        // The same line is fine off the hot path...
        assert!(rules_hit("crates/serve/src/net.rs", src).is_empty());
        // ...and fine inside the hot-path file's test module.
        let tested = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(rules_hit("crates/serve/src/ring.rs", &tested).is_empty());
    }

    #[test]
    fn seeded_elapsed_and_system_time_reads_on_the_hot_path_fail() {
        // A stored instant's `.elapsed()` reads the clock just as
        // `Instant::now()` does; so does the wall clock.
        for src in [
            "let us = self.epoch.elapsed().as_micros();\n",
            "let t = SystemTime::now();\n",
        ] {
            assert_eq!(
                rules_hit("crates/serve/src/session.rs", src),
                vec!["hot-path-clock"],
                "{src} must be flagged"
            );
            assert!(rules_hit("crates/serve/src/net.rs", src).is_empty());
            let tested = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            assert!(rules_hit("crates/serve/src/session.rs", &tested).is_empty());
        }
    }

    #[test]
    fn seeded_clock_reads_in_the_telemetry_recording_modules_fail() {
        // Stage histograms, the tracer, its flight recorder and the rate
        // meter record on the hot path and read no clock: their instants
        // come from the clock module's marks.
        for file in [
            "crates/telemetry/src/stage.rs",
            "crates/telemetry/src/trace.rs",
            "crates/telemetry/src/rate.rs",
            "crates/telemetry/src/recorder.rs",
        ] {
            for src in ["let t = Instant::now();\n", "let d = start.elapsed();\n"] {
                assert_eq!(
                    rules_hit(file, src),
                    vec!["hot-path-clock"],
                    "{file} must be under the clock rule"
                );
            }
        }
        // The clock module is the one place that reads the clock.
        assert!(rules_hit(
            "crates/telemetry/src/clock.rs",
            "let us = self.epoch.elapsed();\n"
        )
        .is_empty());
    }

    #[test]
    fn seeded_std_import_in_facade_module_fails() {
        for import in [
            "use std::sync::atomic::{AtomicU64, Ordering};",
            "use std::thread::JoinHandle;",
            "use std::sync::{Arc, Mutex};",
        ] {
            assert_eq!(
                rules_hit("crates/serve/src/session.rs", &format!("{import}\n")),
                vec!["facade-import"],
                "{import} must be flagged"
            );
        }
        // Non-migrated modules may import std primitives freely.
        assert!(rules_hit(
            "crates/serve/src/net.rs",
            "use std::sync::atomic::AtomicU64;\n"
        )
        .is_empty());
        // Facade modules may use std in their test tails.
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicU64;\n}\n";
        assert!(rules_hit("crates/serve/src/session.rs", src).is_empty());
    }

    #[test]
    fn seeded_violations_in_the_ready_queue_fail() {
        // Every push schedules through the ready queue: its flag protocol
        // is what the model checker has to see, and it runs per chunk.
        let file = "crates/serve/src/ready.rs";
        assert_eq!(
            rules_hit(file, "use std::sync::atomic::{AtomicBool, Ordering};\n"),
            vec!["facade-import"],
            "{file} must be under the facade rule"
        );
        assert_eq!(
            rules_hit(file, "let t = Instant::now();\n"),
            vec!["hot-path-clock"],
            "{file} must be under the clock rule"
        );
    }

    #[test]
    fn seeded_violations_in_the_health_modules_fail() {
        // The SLO engine promises tick-counted time (no wall clock) and
        // facade-only synchronization; its file sits under rules 2 and 3.
        let file = "crates/serve/src/health.rs";
        assert_eq!(
            rules_hit(file, "let t = Instant::now();\n"),
            vec!["hot-path-clock"],
            "{file} must be under the clock rule"
        );
        assert_eq!(
            rules_hit(file, "use std::sync::atomic::{AtomicU64, Ordering};\n"),
            vec!["facade-import"],
            "{file} must be under the facade rule"
        );
    }

    #[test]
    fn seeded_violations_in_the_session_observability_modules_fail() {
        // The per-session cell and the TopK heavy-hitter sketch promise
        // zero clock reads (the EWMA is fed already-measured micros,
        // the drain tick is a pass counter) and facade-only atomics —
        // both files sit under rules 2 and 3.
        for file in [
            "crates/telemetry/src/cell.rs",
            "crates/telemetry/src/topk.rs",
        ] {
            assert_eq!(
                rules_hit(file, "let t = Instant::now();\n"),
                vec!["hot-path-clock"],
                "{file} must be under the clock rule"
            );
            assert_eq!(
                rules_hit(file, "use std::sync::atomic::{AtomicU64, Ordering};\n"),
                vec!["facade-import"],
                "{file} must be under the facade rule"
            );
        }
    }

    #[test]
    fn seeded_clock_read_in_the_encoder_fails() {
        // Every frame of every session runs the encoder; a clock read
        // there would be paid per frame with telemetry off.
        for file in [
            "crates/core/src/encoder.rs",
            "crates/core/src/encoder/kernel.rs",
        ] {
            assert_eq!(
                rules_hit(file, "let t = Instant::now();\n"),
                vec!["hot-path-clock"],
                "{file} must be under the clock rule"
            );
        }
    }

    #[test]
    fn seeded_clock_read_in_the_detector_fails() {
        // The rest of the drain path: the detector around the encoder,
        // the LBP extractors, the associative memory and the
        // postprocessor run on every frame or window too.
        for file in [
            "crates/core/src/detector.rs",
            "crates/core/src/lbp.rs",
            "crates/core/src/am.rs",
            "crates/core/src/postprocess.rs",
        ] {
            assert_eq!(
                rules_hit(file, "let t = Instant::now();\n"),
                vec!["hot-path-clock"],
                "{file} must be under the clock rule"
            );
        }
    }

    #[test]
    fn seeded_clock_read_in_the_wire_codec_fails() {
        // The codec decodes every chunk on the TCP path and times its
        // decode only through the `Clock` mark the reader opens; the
        // connection code around it (`net.rs`) stays off the list.
        let file = "crates/serve/src/wire.rs";
        for src in ["let t = Instant::now();\n", "let d = start.elapsed();\n"] {
            assert_eq!(
                rules_hit(file, src),
                vec!["hot-path-clock"],
                "{file} must be under the clock rule"
            );
            assert!(rules_hit("crates/serve/src/net.rs", src).is_empty());
        }
    }

    #[test]
    fn a_listed_file_that_is_missing_fails() {
        let root = workspace_root();
        let lists: &[(&str, &[&str])] = &[(
            "HOT_PATH_FILES",
            &["crates/core/src/detector.rs", "crates/core/src/gone.rs"],
        )];
        assert_eq!(
            missing_listed_files(&root, lists),
            vec!["HOT_PATH_FILES names crates/core/src/gone.rs, which does not exist"]
        );
        // The real lists name only files that exist.
        assert_eq!(
            missing_listed_files(&root, LINT_LISTS),
            Vec::<String>::new()
        );
    }

    #[test]
    fn seeded_std_import_in_a_trace_module_fails() {
        // The tracer, the flight recorder and the seqlocked slot under
        // it are facade-migrated too: the slot's protocol is exactly
        // what the model checker needs to see, so a std atomic sneaking
        // in must fail the lint.
        for file in [
            "crates/telemetry/src/trace.rs",
            "crates/telemetry/src/recorder.rs",
            "crates/telemetry/src/seqlock.rs",
        ] {
            assert_eq!(
                rules_hit(file, "use std::sync::atomic::{AtomicU64, Ordering};\n"),
                vec!["facade-import"],
                "{file} must be under the facade rule"
            );
        }
    }

    #[test]
    fn seeded_unjustified_seqcst_fails() {
        let src = "x.store(1, Ordering::SeqCst);\n";
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", src),
            vec!["seqcst-justification"]
        );
        let justified = "\
// SeqCst: this flag participates in a cross-variable total order.
x.store(1, Ordering::SeqCst);
";
        assert!(rules_hit("crates/x/src/lib.rs", justified).is_empty());
    }

    #[test]
    fn the_checked_workspace_is_currently_clean() {
        // End-to-end sanity over the real tree: the repo must pass its
        // own lint (CI runs the binary; this keeps `cargo test` honest).
        let root = workspace_root();
        let files = collect_sources(&root);
        assert!(
            files.len() > 10,
            "source walk found too few files: {files:?}"
        );
        let mut all = Vec::new();
        for path in files {
            let content = std::fs::read_to_string(&path).unwrap();
            let rel = path
                .strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            all.extend(lint_source(&rel, &content));
        }
        assert!(all.is_empty(), "lint violations in the tree:\n{all:#?}");
    }
}
