//! Golden-trace suite: pins the span stream emitted by fixed-seed runs so
//! any change to instrumentation, span taxonomy, or scheduling order shows
//! up as a diff here — the observability counterpart of `determinism.rs`.
//!
//! Three layers:
//!   1. structural invariants every exported stream must satisfy (stable
//!      sequential ids, monotone begins, `end >= begin`, well-nestedness);
//!   2. golden name-census + pinned prefix of the fixed-seed Mode I and
//!      Mode II mixed runs;
//!   3. a 3×3 seed/intensity fault matrix proving the invariants survive
//!      crash-requeue (retried attempts append `unit.scheduling` spans,
//!      abandoned open spans never reach the Chrome export).

use std::collections::BTreeMap;

use hadoop_hpc::pilot::*;
use hadoop_hpc::sim::{
    validate_chrome_json, Attr, Engine, FaultPlan, SimDuration, SimTime, Span, SpanId, Trace,
};

/// The `determinism.rs` mixed workload, but traced: a 2-node pilot with the
/// given access mode running 12 heterogeneous Compute units to completion,
/// then canceled so every lifecycle span closes.
fn traced_mixed(seed: u64, machine: &str, access: AccessMode) -> Engine {
    let mut e = Engine::with_trace(seed);
    let session = Session::new(SessionConfig::test_profile());
    let pm = PilotManager::new(&session);
    let pilot = pm
        .submit(
            &mut e,
            PilotDescription::new(machine, 2, SimDuration::from_secs(7200)).with_access(access),
        )
        .unwrap();
    let mut um = UnitManager::new(&session, UmScheduler::Direct);
    um.add_pilot(&pilot);
    let units = um.submit_units(
        &mut e,
        (0..12)
            .map(|i| {
                ComputeUnitDescription::new(
                    format!("u{i}"),
                    1 + (i % 4),
                    WorkSpec::Compute {
                        core_seconds: 30.0 + i as f64,
                        read_mb: 5.0 * i as f64,
                        write_mb: 2.0 * i as f64,
                        io: if i % 2 == 0 {
                            UnitIoTarget::Lustre
                        } else {
                            UnitIoTarget::LocalDisk
                        },
                    },
                )
            })
            .collect(),
    );
    while units.iter().any(|u| !u.state().is_final()) {
        assert!(e.step(), "simulation stalled with live units");
    }
    pm.cancel(&mut e, &pilot);
    e.run();
    e
}

fn name_counts(tr: &Trace) -> BTreeMap<&str, usize> {
    let mut counts = BTreeMap::new();
    for s in tr.iter_spans() {
        *counts.entry(tr.span_name(s)).or_insert(0) += 1;
    }
    counts
}

/// Direct children of `root`, in id order.
fn children(tr: &Trace, root: SpanId) -> Vec<&Span> {
    tr.iter_spans().filter(|s| s.parent == Some(root)).collect()
}

/// Structural invariants every exported span stream must satisfy.
fn assert_span_invariants(tr: &Trace) {
    let spans: Vec<&Span> = tr.iter_spans().collect();
    for (i, s) in spans.iter().enumerate() {
        let name = tr.span_name(s);
        // Ids are assigned sequentially from 1 in begin order.
        assert_eq!(s.id.0, i as u64 + 1, "non-sequential id for {name:?}");
        if i > 0 {
            assert!(
                spans[i - 1].begin <= s.begin,
                "begin times must be monotone in id order: {:?} then {:?}",
                tr.span_name(spans[i - 1]),
                name
            );
        }
        if let Some(end) = s.end {
            assert!(end >= s.begin, "{name:?} ends before it begins");
        }
        if let Some(p) = s.parent {
            assert!(p.0 >= 1 && p.0 < s.id.0, "{name:?}: parent after child");
            let parent = spans[p.0 as usize - 1];
            assert!(
                parent.begin <= s.begin,
                "{:?} begins before its parent {:?}",
                name,
                tr.span_name(parent)
            );
            if let (Some(ce), Some(pe)) = (s.end, parent.end) {
                assert!(
                    ce <= pe,
                    "{:?} outlives its parent {:?} ({} > {})",
                    name,
                    tr.span_name(parent),
                    ce,
                    pe
                );
            }
        }
    }
}

/// Per-unit taxonomy: every `unit.run` root owns the canonical phase
/// children, and the single `unit.compute` sits inside the `unit.exec`
/// interval.
fn assert_unit_taxonomy(tr: &Trace, min_scheduling: usize) {
    let roots: Vec<&Span> = tr
        .iter_spans()
        .filter(|s| tr.span_name(s) == "unit.run" && s.parent.is_none())
        .collect();
    assert!(!roots.is_empty());
    for root in roots {
        let kids = children(tr, root.id);
        let count = |n: &str| kids.iter().filter(|s| tr.span_name(s) == n).count();
        assert!(
            count("unit.scheduling") >= min_scheduling,
            "unit {:?}: expected >= {min_scheduling} scheduling spans, got {}",
            root.attrs,
            count("unit.scheduling")
        );
        assert_eq!(count("unit.stage_in"), 1, "unit {:?}", root.attrs);
        assert_eq!(count("unit.stage_out"), 1, "unit {:?}", root.attrs);
        assert_eq!(count("unit.exec"), 1, "unit {:?}", root.attrs);
        let exec = kids
            .iter()
            .find(|s| tr.span_name(s) == "unit.exec")
            .unwrap();
        let computes = children(tr, exec.id);
        assert_eq!(computes.len(), 1, "unit {:?}", root.attrs);
        assert_eq!(tr.span_name(computes[0]), "unit.compute");
        assert!(computes[0].begin >= exec.begin);
        assert!(computes[0].end.unwrap() <= exec.end.unwrap());
    }
}

#[test]
fn mode_i_golden_span_stream() {
    let e = traced_mixed(
        42,
        "xsede.stampede",
        AccessMode::YarnModeI { with_hdfs: true },
    );
    let tr = &e.trace;
    assert_span_invariants(tr);

    // Census: the full stream of the fixed-seed run, by span name.
    let expected: BTreeMap<&str, usize> = [
        ("hdfs.startup", 1),
        ("pilot.bootstrap", 1),
        ("pilot.queue_wait", 1),
        ("pilot.run", 1),
        ("unit.compute", 12),
        ("unit.exec", 12),
        ("unit.run", 12),
        ("unit.scheduling", 24), // UM hand-off + agent scheduling, no retries
        ("unit.stage_in", 12),
        ("unit.stage_out", 12),
        ("yarn.am_allocation", 12),
        ("yarn.container_allocation", 12),
        ("yarn.startup", 1),
    ]
    .into_iter()
    .collect();
    assert_eq!(name_counts(tr), expected);
    assert_eq!(tr.span_count(), 113);

    // Pinned prefix: the pilot root opens the stream, every unit.run root
    // immediately opens its first scheduling child.
    let prefix: Vec<&str> = tr.iter_spans().take(6).map(|s| tr.span_name(s)).collect();
    assert_eq!(
        prefix,
        [
            "pilot.run",
            "pilot.queue_wait",
            "unit.run",
            "unit.scheduling",
            "unit.run",
            "unit.scheduling",
        ]
    );

    // Mode I nests the framework bootstrap: yarn.startup under
    // pilot.bootstrap, hdfs.startup under yarn.startup.
    let find = |n: &str| tr.iter_spans().find(|s| tr.span_name(s) == n).unwrap();
    let bootstrap = find("pilot.bootstrap");
    let yarn = find("yarn.startup");
    let hdfs = find("hdfs.startup");
    assert_eq!(yarn.parent, Some(bootstrap.id));
    assert_eq!(hdfs.parent, Some(yarn.id));

    // A clean run abandons nothing: the export carries every span.
    assert_eq!(tr.live_spans(), 0);
    assert_unit_taxonomy(tr, 2);
    let stats = validate_chrome_json(&tr.to_chrome_json()).unwrap();
    assert_eq!(stats.begins, tr.span_count());
    assert_eq!(stats.ends, tr.span_count());
}

#[test]
fn mode_ii_golden_span_stream() {
    let e = traced_mixed(42, "xsede.wrangler", AccessMode::YarnModeII);
    let tr = &e.trace;
    assert_span_invariants(tr);

    // Mode II connects to the dedicated cluster's YARN: same census as
    // Mode I minus the HDFS deployment.
    let counts = name_counts(tr);
    assert_eq!(counts.get("hdfs.startup"), None);
    assert_eq!(counts["yarn.startup"], 1);
    assert_eq!(counts["pilot.run"], 1);
    assert_eq!(counts["unit.run"], 12);
    assert_eq!(counts["unit.compute"], 12);
    assert_eq!(counts["yarn.am_allocation"], 12);
    assert_eq!(counts["yarn.container_allocation"], 12);
    assert_eq!(tr.span_count(), 112);

    assert_eq!(tr.live_spans(), 0);
    assert_unit_taxonomy(tr, 2);
    let stats = validate_chrome_json(&tr.to_chrome_json()).unwrap();
    assert_eq!(stats.begins, tr.span_count());
}

/// The ci.sh smoke matrix, traced: 3 seeds × 3 fault intensities through a
/// plain 4-node pilot running 8 sleep units. Crash-requeue must never
/// corrupt the span stream — retried attempts append scheduling spans,
/// killed attempts leave their spans open, and the Chrome export stays
/// balanced because open spans are excluded.
#[test]
fn fault_matrix_span_invariants_survive_crash_requeue() {
    let mut saw_retry = false;
    let mut saw_abandoned = false;
    for seed in [1u64, 2, 3] {
        for intensity in [2usize, 6, 12] {
            let plan = FaultPlan::generate(seed, SimDuration::from_secs(1800), 4, intensity);
            let mut e = Engine::with_trace(seed);
            let session = Session::new(SessionConfig::test_profile());
            let pm = PilotManager::new(&session);
            let pilot = pm
                .submit(
                    &mut e,
                    PilotDescription::new("xsede.stampede", 4, SimDuration::from_secs(14_400)),
                )
                .unwrap();
            install_faults(&mut e, &plan, &pilot);
            let mut um = UnitManager::new(&session, UmScheduler::Direct);
            um.add_pilot(&pilot);
            let units = um.submit_units(
                &mut e,
                (0..8)
                    .map(|i| {
                        ComputeUnitDescription::new(
                            format!("u{i}"),
                            1,
                            WorkSpec::Sleep(SimDuration::from_secs(150)),
                        )
                    })
                    .collect(),
            );
            while units.iter().any(|u| !u.state().is_final()) {
                assert!(e.step(), "seed={seed} intensity={intensity}: stalled");
            }
            pm.cancel(&mut e, &pilot);
            e.run();

            let tr = &e.trace;
            assert_span_invariants(tr);

            // Every retried unit's extra attempts show up as extra
            // scheduling spans under its unchanged root.
            for u in &units {
                let root = tr
                    .iter_spans()
                    .find(|s| {
                        tr.span_name(s) == "unit.run"
                            && tr.attr(s, "unit") == Some(Attr::U64(u.id().0))
                    })
                    .expect("every unit has a root span");
                let sched = children(tr, root.id)
                    .iter()
                    .filter(|s| tr.span_name(s) == "unit.scheduling")
                    .count();
                assert_eq!(
                    sched,
                    1 + u.attempts() as usize,
                    "seed={seed} intensity={intensity} {:?}: attempts={}",
                    u.id(),
                    u.attempts()
                );
                if u.attempts() > 1 {
                    saw_retry = true;
                }
            }

            // Abandoned (still-open) spans never reach the export: the
            // Chrome document stays parseable and balanced.
            let open = tr.live_spans();
            if open > 0 {
                saw_abandoned = true;
            }
            let stats = validate_chrome_json(&tr.to_chrome_json())
                .unwrap_or_else(|err| panic!("seed={seed} intensity={intensity}: {err}"));
            assert_eq!(stats.begins, tr.span_count() - open);
            assert_eq!(stats.ends, tr.span_count() - open);
        }
    }
    assert!(saw_retry, "matrix must exercise at least one crash-requeue");
    assert!(
        saw_abandoned,
        "matrix must exercise at least one abandoned span"
    );
}

/// Compare `actual` with `tests/golden/<name>` byte for byte. Regenerate
/// (only for an intended change of the export format) with
/// `REGEN_GOLDEN=1 cargo test --test observability`.
fn check_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expect = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (REGEN_GOLDEN=1 creates it)", path.display()));
    if actual != expect {
        let at = actual
            .bytes()
            .zip(expect.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(actual.len().min(expect.len()));
        let from = at.saturating_sub(80);
        panic!(
            "{name}: export differs from the golden at byte {at}\n  got:    {:?}\n  golden: {:?}",
            &actual[from..(at + 80).min(actual.len())],
            &expect[from..(at + 80).min(expect.len())]
        );
    }
}

#[test]
fn mode_i_chrome_export_matches_golden() {
    let e = traced_mixed(
        42,
        "xsede.stampede",
        AccessMode::YarnModeI { with_hdfs: true },
    );
    check_golden("chrome_mode_i.json", &e.trace.to_chrome_json());
}

#[test]
fn mode_ii_chrome_export_matches_golden() {
    let e = traced_mixed(42, "xsede.wrangler", AccessMode::YarnModeII);
    check_golden("chrome_mode_ii.json", &e.trace.to_chrome_json());
}

/// Every escaping and attribute case of the exporter in one small trace:
/// quotes, backslashes, newlines, tabs and other control characters in
/// messages, names and attribute values; integer attributes (small and
/// beyond 32 bits); owned-text attributes; an abandoned span, which the
/// export omits.
#[test]
fn hand_built_chrome_export_matches_golden() {
    let mut t = Trace::enabled();
    t.record(SimTime(1), "pilot", "launch \"x\" \\ path");
    t.record(
        SimTime(2),
        "agent",
        "line1\nline2\tcol\rret\u{1}bell\u{1f}\u{7f}é",
    );
    t.record_line(
        SimTime(2),
        "pilot",
        |f, id, state| write!(f, "{:?} -> {}", SpanId(id), ["Done"][state as usize]),
        7,
        0,
    );
    let root = t.span_begin(SimTime(0), "unit", "unit.run", SpanId::NONE);
    t.span_attr_u64(root, "unit", 42);
    t.span_attr_text(root, "name", "u\"42\"\n\u{2}");
    t.span_attr_u64(root, "pilot", 0);
    let child = t.span_begin(SimTime(5), "unit", "unit.\"stage_in\"", root);
    t.span_attr_u64(child, "bytes", u64::MAX);
    t.span_attr_u64(child, "cores", 1 << 31);
    t.span_attr(child, "mode", "I");
    t.span_end(SimTime(9), child);
    let abandoned = t.span_begin(SimTime(10), "agent", "unit.exec", root);
    t.span_attr_u64(abandoned, "cores", 3);
    t.span_end(SimTime(20), root);
    let other = t.span_begin(SimTime(21), "a\tcat", "pilot.run", SpanId::NONE);
    t.span_end(SimTime(30), other);
    let json = t.to_chrome_json();
    validate_chrome_json(&json).unwrap();
    check_golden("chrome_hand_built.json", &json);
}
