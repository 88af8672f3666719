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
//! or an artifact that is missing, unreadable or not valid JSON. A usage
//! error (an unknown flag, a flag without its value, a `--host-factor`
//! that is not a finite number > 0, an unknown scenario) compares nothing. To accept
//! an intentional change, re-baseline: `bench_suite --out-dir .` at the
//! repo root and commit the updated artifacts (see EXPERIMENTS.md).

use std::path::{Path, PathBuf};

use rp_bench::diff::{diff_documents, DEFAULT_EPS};
use rp_bench::harness::{artifact_file_name, compare_artifacts, SCENARIO_NAMES};
use rp_sim::json;

const USAGE: &str = "usage: bench_compare --baseline DIR --candidate DIR [--host-factor F] \
                     [--scenario NAME]...";

struct Args {
    baseline_dir: PathBuf,
    candidate_dir: PathBuf,
    host_factor: f64,
    scenarios: Vec<String>,
}

/// Parse the command line; any malformed or unknown argument is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut baseline_dir = None;
    let mut candidate_dir = None;
    let mut host_factor = 4.0;
    let mut scenarios = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                let dir = it.next().ok_or("--baseline needs a directory")?;
                baseline_dir = Some(PathBuf::from(dir));
            }
            "--candidate" => {
                let dir = it.next().ok_or("--candidate needs a directory")?;
                candidate_dir = Some(PathBuf::from(dir));
            }
            "--host-factor" => {
                let v = it.next().ok_or("--host-factor needs a number")?;
                host_factor = v
                    .parse::<f64>()
                    .ok()
                    .filter(|f| f.is_finite() && *f > 0.0)
                    .ok_or(format!("--host-factor {v:?} is not a finite number > 0"))?;
            }
            "--scenario" => {
                let name = it.next().ok_or("--scenario needs a name")?;
                if !SCENARIO_NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown scenario {name:?} (expected one of {SCENARIO_NAMES:?})"
                    ));
                }
                scenarios.push(name.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if scenarios.is_empty() {
        scenarios = SCENARIO_NAMES.iter().map(|s| s.to_string()).collect();
    }
    Ok(Args {
        baseline_dir: baseline_dir.ok_or("--baseline is required")?,
        candidate_dir: candidate_dir.ok_or("--candidate is required")?,
        host_factor,
        scenarios,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        baseline_dir,
        candidate_dir,
        host_factor,
        scenarios,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("bench_compare: {e}\n{USAGE}");
        std::process::exit(2);
    });

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
