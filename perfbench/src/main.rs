//! Host-cost benchmark of the pilot simulator, driven from outside through
//! the public APIs of `rp_sim`, `rp_pilot`, `rp_yarn`, `rp_hdfs`,
//! `rp_mapreduce` and `rp_spark`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bag_plain|bag_traced|mode1_pipeline|fault_grid> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` before anything is timed. One
//! untimed warm-up repetition runs first; then repetitions run until
//! `--seconds` have passed. Host times are scaled to a reference host by a
//! calibration kernel run between repetitions (see `calib.rs`). `--trace 0` reports the end-to-end metrics
//! from untraced repetitions; `--trace 1` alternates untraced and traced
//! repetitions, reports the per-layer metrics, and writes the traced
//! repetitions' spans to `perfbench/out/`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/METRICS.md` for what each metric measures.

mod alloc;
mod bags;
mod calib;
mod clock;
mod grid;
mod pipeline;
mod rep;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use clock::Clock;
use rep::Rep;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["bag_plain", "bag_traced", "mode1_pipeline", "fault_grid"];

const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("report_s", "s"),
    ("peak_heap_mb", "MB"),
    ("allocs_per_unit", "count"),
];

const PER_LAYER: [(&str, &str); 34] = [
    ("engine.events_per_unit", "count"),
    ("engine.drain_allocs_per_event", "count"),
    ("engine.drain_bytes_per_event", "B"),
    ("engine.slab_peak", "count"),
    ("engine.drain_s", "s"),
    ("engine.probe_events_per_s", "1/s"),
    ("um.submit_s", "s"),
    ("um.submit_allocs_per_unit", "count"),
    ("pilot.submit_s", "s"),
    ("um.rebinds", "count"),
    ("store.docs_written", "count"),
    ("store.polls", "count"),
    ("store.msgs_dropped", "count"),
    ("store.msgs_duplicated", "count"),
    ("store.dedup_ratio", "ratio"),
    ("store.lease_renewals", "count"),
    ("store.fence_rejections", "count"),
    ("agent.heartbeats", "count"),
    ("agent.completions_per_done", "ratio"),
    ("yarn.apps", "count"),
    ("yarn.probe_s", "s"),
    ("hdfs.load_s", "s"),
    ("mapreduce.tasks", "count"),
    ("link.probe_s", "s"),
    ("spark.jobs_done", "count"),
    ("obs.spans_per_unit", "count"),
    ("obs.peak_live_spans", "count"),
    ("obs.symbols", "count"),
    ("obs.tax", "ratio"),
    ("obs.export_s", "s"),
    ("obs.export_bytes", "B"),
    ("obs.critpath_s", "s"),
    ("obs.profile_s", "s"),
    ("failed_frac", "ratio"),
];

/// Settings that switch the simulator's engine mode, thread count or
/// flight recorder; the benchmark measures the defaults only.
const PINNED_ENV: [&str; 3] = ["RP_ENGINE_MODE", "RP_THREADS", "RP_TELEMETRY"];

/// Fewest measured repetitions of each kind, even past `--seconds`.
const MIN_REPS: usize = 3;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|w| **w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}; one of {WORKLOADS:?}"))?;
                workload = Some(*w);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => unreachable!("flag checked above"),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

enum Input {
    Bag(bags::BagInput),
    Pipeline(pipeline::PipelineInput),
    Grid(grid::GridInput),
}

/// Which repetition to run: the workload's own, or (for `bag_traced`'s
/// `obs.tax`) the same bag on an untraced engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Untraced,
    Traced,
    PlainEngine,
}

struct Bench {
    workload: &'static str,
    seed: u64,
    input: Input,
    clock: Clock,
    run: u32,
}

impl Bench {
    fn rep(&mut self, kind: Kind) -> Rep {
        self.run += 1;
        self.clock.start_run(self.run, kind != Kind::Untraced);
        match &self.input {
            Input::Bag(b) => {
                let obs_engine = self.workload == "bag_traced" && kind != Kind::PlainEngine;
                bags::rep(b, &mut self.clock, obs_engine)
            }
            Input::Pipeline(p) => pipeline::rep(p, &mut self.clock),
            Input::Grid(g) => grid::rep(g, &mut self.clock),
        }
    }

    /// The isolation probes of a traced repetition, keyed by metric.
    fn probes(&mut self, events: u64) -> Vec<(&'static str, f64)> {
        self.clock.start_run(self.run, true);
        match self.workload {
            "bag_plain" => vec![(
                "engine.probe_events_per_s",
                bags::engine_probe(self.seed, events, &mut self.clock),
            )],
            "mode1_pipeline" => vec![
                (
                    "yarn.probe_s",
                    pipeline::yarn_probe(self.seed, &mut self.clock),
                ),
                (
                    "link.probe_s",
                    pipeline::link_probe(self.seed, &mut self.clock),
                ),
            ],
            _ => Vec::new(),
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64, if_empty: f64) -> f64 {
    if den == 0.0 {
        if_empty
    } else {
        num / den
    }
}

/// The exact part of a repetition: everything that must repeat bit for
/// bit across repetitions of one seed. Allocation counts are exact only
/// in untraced repetitions, where the benchmark itself keeps no spans.
fn exact(rep: &Rep, with_allocs: bool) -> String {
    let mut s = format!("{} {:?} {}", rep.drain_events, rep.counts, rep.fingerprint);
    if with_allocs {
        s += &phase_allocs(rep);
    }
    s
}

/// Allocations (count/bytes) by phase; `other` is the rest of the
/// repetition, such as the completion callback's registration.
fn phase_allocs(rep: &Rep) -> String {
    let phases = [
        ("setup", rep.setup_allocs),
        ("submit", rep.submit_allocs),
        ("drain", rep.drain_allocs),
        ("report", rep.report_allocs),
    ];
    let mut other = rep.allocs;
    let mut s = String::new();
    for (name, a) in phases {
        other = other.since(a);
        s += &format!("{name}={}/{}B ", a.allocs, a.bytes);
    }
    s + &format!("other={}/{}B", other.allocs, other.bytes)
}

fn end_to_end(reps: &[Rep]) -> BTreeMap<&'static str, f64> {
    let r0 = &reps[0];
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(reps.iter().map(|r| r.setup_s).collect()));
    m.insert(
        "units_per_s",
        median(reps.iter().map(|r| r.done as f64 / r.work_s).collect()),
    );
    m.insert(
        "report_s",
        median(reps.iter().map(|r| r.report_s).collect()),
    );
    m.insert(
        "peak_heap_mb",
        median(reps.iter().map(|r| r.peak_bytes as f64 / 1e6).collect()),
    );
    m.insert("allocs_per_unit", r0.allocs.allocs as f64 / r0.units as f64);
    m
}

fn per_layer(
    untraced: &[Rep],
    traced: &[Rep],
    plain_engine: &[Rep],
    probes: &BTreeMap<&'static str, Vec<f64>>,
) -> BTreeMap<&'static str, f64> {
    let r = &untraced[0];
    let c = |k: &str| r.counts.get(k).copied().unwrap_or(0.0);
    let units = r.units as f64;
    let med = |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| median(reps.iter().map(f).collect());
    let timed = |k: &'static str| med(traced, &|t: &Rep| t.times.get(k).copied().unwrap_or(0.0));
    let mut m = BTreeMap::new();
    m.insert("engine.events_per_unit", c("engine.events") / units);
    m.insert(
        "engine.drain_allocs_per_event",
        ratio(r.drain_allocs.allocs as f64, r.drain_events as f64, 0.0),
    );
    m.insert(
        "engine.drain_bytes_per_event",
        ratio(r.drain_allocs.bytes as f64, r.drain_events as f64, 0.0),
    );
    m.insert("engine.slab_peak", c("engine.slab_peak"));
    m.insert("engine.drain_s", med(traced, &|t| t.drain_s));
    m.insert("um.submit_s", med(traced, &|t| t.submit_s));
    m.insert(
        "um.submit_allocs_per_unit",
        r.submit_allocs.allocs as f64 / units,
    );
    m.insert("pilot.submit_s", timed("pilot.submit_s"));
    for k in [
        "um.rebinds",
        "store.docs_written",
        "store.polls",
        "store.msgs_dropped",
        "store.msgs_duplicated",
        "store.lease_renewals",
        "store.fence_rejections",
        "agent.heartbeats",
        "yarn.apps",
        "mapreduce.tasks",
        "spark.jobs_done",
        "obs.peak_live_spans",
        "obs.symbols",
        "obs.export_bytes",
    ] {
        m.insert(k, c(k));
    }
    // Vacuously exactly-once when nothing was duplicated.
    m.insert(
        "store.dedup_ratio",
        ratio(
            c("store.dup_applies_ignored"),
            c("store.msgs_duplicated"),
            1.0,
        ),
    );
    m.insert(
        "agent.completions_per_done",
        ratio(c("agent.units_completed"), r.done as f64, 0.0),
    );
    m.insert("hdfs.load_s", timed("hdfs.load_s"));
    m.insert("obs.spans_per_unit", c("obs.spans") / units);
    for k in ["obs.export_s", "obs.critpath_s", "obs.profile_s"] {
        m.insert(k, timed(k));
    }
    if !plain_engine.is_empty() {
        m.insert(
            "obs.tax",
            med(traced, &|t| t.drain_s) / med(plain_engine, &|t| t.drain_s),
        );
    }
    for (k, v) in probes {
        m.insert(k, median(v.clone()));
    }
    let (ops, failed) = attempted_failed(untraced);
    m.insert("failed_frac", failed as f64 / ops as f64);
    m
}

/// Operations attempted and failed: those of one repetition. Every
/// measured repetition re-runs the same operations with the same outcome
/// (the exact-count check confirms it), so the count does not depend on
/// how many repetitions fit in `--seconds`.
fn attempted_failed(reps: &[Rep]) -> (u64, u64) {
    (reps[0].ops, reps[0].failed)
}

fn main() -> ExitCode {
    let pinned: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !pinned.is_empty() {
        eprintln!("perfbench: unset {pinned:?}; the benchmark measures the default engine only");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // A caught panic is counted and listed by the fault grid; keep the
    // default hook from printing each one.
    std::panic::set_hook(Box::new(|_| {}));

    let input = match args.workload {
        "bag_plain" | "bag_traced" => Input::Bag(bags::input(args.seed)),
        "mode1_pipeline" => Input::Pipeline(pipeline::input(args.seed)),
        _ => Input::Grid(grid::input(args.seed)),
    };
    let mut bench = Bench {
        workload: args.workload,
        seed: args.seed,
        input,
        clock: Clock::new(),
        run: 0,
    };
    let mut problems: Vec<String> = Vec::new();
    // Calibration kernel times, one before the warm-up and one after each
    // repetition.
    let mut kernel = vec![calib::kernel_s()];

    // Warm-up: lazy initialisation and first-touch costs stay out of the
    // measured repetitions. Its virtual results are the reference.
    let warm = bench.rep(Kind::Untraced);
    kernel.push(calib::kernel_s());
    problems.extend(warm.problems.iter().cloned());
    let fingerprint = warm.fingerprint.clone();
    let probe_events = warm.counts.get("engine.events").copied().unwrap_or(0.0) as u64;

    let mut kinds = vec![Kind::Untraced];
    if args.trace {
        kinds.push(Kind::Traced);
        if args.workload == "bag_traced" {
            kinds.push(Kind::PlainEngine);
        }
    }
    let mut reps: BTreeMap<Kind, Vec<Rep>> = BTreeMap::new();
    let mut probes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut cycles = 0;
    while cycles < MIN_REPS || Instant::now() < deadline {
        for &kind in &kinds {
            let mut rep = bench.rep(kind);
            let measured = if kind == Kind::Traced {
                bench.probes(probe_events)
            } else {
                Vec::new()
            };
            let before = kernel[kernel.len() - 1];
            let after = calib::kernel_s();
            kernel.push(after);
            let f = calib::factor(before, after);
            rep.scale_times(f);
            // Probe times scale like the repetition's; probe rates inversely.
            for (k, v) in measured {
                let v = if k.ends_with("_per_s") { v / f } else { v * f };
                probes.entry(k).or_default().push(v);
            }
            reps.entry(kind).or_default().push(rep);
        }
        cycles += 1;
    }

    // Every repetition of a kind must agree exactly; traced repetitions
    // must reproduce the untraced virtual results.
    for (kind, list) in &reps {
        for r in list {
            problems.extend(r.problems.iter().cloned());
        }
        let with_allocs = *kind == Kind::Untraced;
        let first = exact(&list[0], with_allocs);
        if let Some(bad) = list.iter().position(|r| exact(r, with_allocs) != first) {
            problems.push(format!(
                "{kind:?} repetition {bad} differs from repetition 0:\n  {first}\n  {}",
                exact(&list[bad], with_allocs)
            ));
        }
    }
    let untraced = &reps[&Kind::Untraced];
    if untraced[0].fingerprint != fingerprint {
        problems.push("virtual results differ from the warm-up repetition".into());
    }
    if let Some(traced) = reps.get(&Kind::Traced) {
        if traced[0].fingerprint != fingerprint || traced[0].counts != untraced[0].counts {
            problems.push("the traced pass changed the virtual results".into());
        }
    }

    println!("workload: {} seed: {}", args.workload, args.seed);
    println!("fingerprint: {fingerprint}");
    println!("allocations by phase: {}", phase_allocs(&untraced[0]));
    println!(
        "calibration kernel: median {:.6} s over {} passes (reference {} s)",
        median(kernel.clone()),
        kernel.len(),
        calib::REFERENCE_S
    );
    for (kind, list) in &reps {
        println!("{kind:?} repetitions: {}", list.len());
    }
    for p in &problems {
        println!("problem: {p}");
    }

    let (metrics, units): (BTreeMap<&str, f64>, &[(&str, &str)]) = if args.trace {
        let traced = &reps[&Kind::Traced];
        let plain = reps
            .get(&Kind::PlainEngine)
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        let med_total = |v: &[Rep]| median(v.iter().map(|r| r.total_s).collect());
        let overhead = med_total(traced) / med_total(untraced) - 1.0;
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/{}-seed{}.json",
            args.workload, args.seed
        ));
        if let Err(e) = bench.clock.write_json(&path, overhead) {
            println!("problem: writing {}: {e}", path.display());
            problems.push(e.to_string());
        }
        println!(
            "spans: {} (traced-pass overhead {:.4})",
            path.display(),
            overhead
        );
        (per_layer(untraced, traced, plain, &probes), &PER_LAYER)
    } else {
        (end_to_end(untraced), &END_TO_END)
    };

    let (attempted, failed) = attempted_failed(untraced);
    let mut body = Vec::new();
    for (name, unit) in units {
        let v = metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        body.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
