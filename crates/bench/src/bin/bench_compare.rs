//! Regression gate: diff freshly produced `BENCH_<scenario>.json` artifacts
//! against checked-in baselines. Virtual time is compared *exactly* — the
//! simulation is deterministic, so any drift in a phase total, critical-path
//! length, counter, or makespan is a real behavior change. Host wall-clock
//! is hardware-dependent and only bounded: the candidate median may not
//! exceed `baseline × factor + slack`.
//!
//! ```text
//! cargo run -p rp-bench --release --bin bench_compare -- \
//!     --baseline DIR --candidate DIR [--host-factor F] [--scenario NAME]...
//! ```
//!
//! Exits 1 on any drift, listing every moved field, and 2 on usage errors
//! or an artifact that is missing, unreadable or not valid JSON. To accept
//! an intentional change, re-baseline: `bench_suite --out-dir .` at the
//! repo root and commit the updated artifacts (see EXPERIMENTS.md).

use std::path::{Path, PathBuf};

use rp_bench::diff::{diff_documents, DEFAULT_EPS};
use rp_bench::harness::{artifact_file_name, compare_artifacts, SCENARIO_NAMES};
use rp_sim::json;

fn dir_arg(args: &[String], flag: &str) -> Option<PathBuf> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_dir = dir_arg(&args, "--baseline").unwrap_or_else(|| {
        eprintln!("usage: bench_compare --baseline DIR --candidate DIR [--host-factor F]");
        std::process::exit(2);
    });
    let candidate_dir = dir_arg(&args, "--candidate").unwrap_or_else(|| {
        eprintln!("usage: bench_compare --baseline DIR --candidate DIR [--host-factor F]");
        std::process::exit(2);
    });
    let host_factor: f64 = args
        .iter()
        .position(|a| a == "--host-factor")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(4.0);
    let mut scenarios: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--scenario")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
    if scenarios.is_empty() {
        scenarios = SCENARIO_NAMES.iter().map(|s| s.to_string()).collect();
    }

    let read = |dir: &Path, name: &str| -> Result<String, String> {
        let path = dir.join(artifact_file_name(name));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
        Ok(text)
    };

    let mut drifted: Vec<String> = Vec::new();
    let mut unreadable = false;
    for name in &scenarios {
        match (read(&baseline_dir, name), read(&candidate_dir, name)) {
            (Ok(b), Ok(c)) => match compare_artifacts(&b, &c, host_factor) {
                Ok(()) => println!("  {name:<18} OK"),
                Err(errs) => {
                    drifted.push(name.clone());
                    println!("  {name:<18} DRIFT ({} difference(s))", errs.len());
                    for e in errs {
                        println!("      {e}");
                    }
                    // Attribute the drift: which phase / critical-path
                    // segment / counter moved, and by how much.
                    match diff_documents(&b, &c) {
                        Ok(d) => {
                            for line in d.render_table(DEFAULT_EPS).lines() {
                                println!("      {line}");
                            }
                        }
                        Err(e) => println!("      (trace_diff attribution unavailable: {e})"),
                    }
                }
            },
            (b, c) => {
                unreadable = true;
                for r in [b, c] {
                    if let Err(e) = r {
                        println!("  {name:<18} ERROR: {e}");
                    }
                }
            }
        }
    }
    if unreadable {
        println!("bench_compare: FAILED — artifacts missing, unreadable or malformed (see above)");
        std::process::exit(2);
    }
    if !drifted.is_empty() {
        println!(
            "bench_compare: FAILED — virtual drift in [{}]; the attribution above names \
             the moved fields (expected vs got) and phases. If the change is intentional, \
             re-baseline per EXPERIMENTS.md",
            drifted.join(", ")
        );
        std::process::exit(1);
    }
    println!("bench_compare: all scenarios match the baselines");
}
