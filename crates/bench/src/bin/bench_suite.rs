//! Run the benchmark suite and emit schema-versioned `BENCH_<scenario>.json`
//! artifacts (virtual phase totals + critical-path breakdown + counters +
//! host wall-clock stats).
//!
//! ```text
//! cargo run -p rp-bench --release --bin bench_suite -- \
//!     [--quick] [--out-dir DIR] [--scenario NAME]... [--markdown]
//! ```
//!
//! `--quick` runs 1 repetition per scenario (CI); the default is 5 for
//! meaningful median/p95 host statistics. `--scenario` limits the run to
//! the named scenario(s); `--markdown` also prints each report as a
//! GitHub table for pasting into PR descriptions. `--help` prints the
//! usage and exits; any other argument is an error (exit 2), so a typo
//! never runs the suite and overwrites baselines.

use std::path::PathBuf;
use std::process::ExitCode;

use rp_bench::harness::{artifact_file_name, bench_scenario, SCENARIO_NAMES};

const USAGE: &str =
    "usage: bench_suite [--quick] [--out-dir DIR] [--scenario NAME]... [--markdown]";

struct Args {
    quick: bool,
    markdown: bool,
    out_dir: PathBuf,
    scenarios: Vec<String>,
}

/// Parse the command line; `Ok(None)` means `--help` was requested.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        quick: false,
        markdown: false,
        out_dir: PathBuf::from("."),
        scenarios: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--quick" => parsed.quick = true,
            "--markdown" => parsed.markdown = true,
            "--out-dir" => {
                let dir = it.next().ok_or("--out-dir needs a directory")?;
                parsed.out_dir = PathBuf::from(dir);
            }
            "--scenario" => {
                let name = it.next().ok_or("--scenario needs a name")?;
                if !SCENARIO_NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown scenario {name:?} (expected one of {SCENARIO_NAMES:?})"
                    ));
                }
                parsed.scenarios.push(name.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.scenarios.is_empty() {
        parsed.scenarios = SCENARIO_NAMES
            .iter()
            // The 10k-unit scale run is the one deliberately slow scenario;
            // quick (CI) runs cover the family via scale_1k only. Request
            // it explicitly with --scenario scale_10k.
            .filter(|s| !(parsed.quick && **s == "scale_10k"))
            .map(|s| s.to_string())
            .collect();
    }
    Ok(Some(parsed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        quick,
        markdown,
        out_dir,
        scenarios,
    } = match parse_args(&args) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("bench_suite: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let reps = if quick { 1 } else { 5 };

    std::fs::create_dir_all(&out_dir).expect("create out dir");
    println!(
        "== bench suite: {} scenario(s), {reps} rep(s) ==",
        scenarios.len()
    );
    for name in &scenarios {
        let art = bench_scenario(name, reps);
        let path = out_dir.join(artifact_file_name(name));
        std::fs::write(&path, art.to_json()).expect("write artifact");
        let throughput = art
            .events_per_sec()
            .map(|eps| format!("  ({eps:.0} events/s)"))
            .unwrap_or_default();
        println!(
            "  {name:<18} median {:8.1} ms over {reps} rep(s){throughput}  -> {}",
            art.median_ms(),
            path.display()
        );
        if markdown {
            println!("\n{}", art.markdown);
        }
    }
    ExitCode::SUCCESS
}
