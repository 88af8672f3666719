//! Fixture tests: every rule family must demonstrably fire on a known-bad
//! snippet and stay silent on the known-good equivalent. This is the
//! executable proof that the lint pass actually guards the invariants it
//! claims to — a rule that cannot fail is not a rule.

use rp_analyze::report::Report;
use rp_analyze::scan::{FileKind, SourceFile};
use rp_analyze::{baseline, hazards, locks, spans, states};

fn lib_file(rel: &str, src: &str) -> SourceFile {
    SourceFile::from_source(rel, FileKind::Lib, src)
}

fn fatal_rules(report: &Report) -> Vec<&'static str> {
    report
        .findings
        .iter()
        .filter(|f| f.fatal)
        .map(|f| f.rule)
        .collect()
}

/// A miniature lifecycle in the same shape as crates/core/src/states.rs.
const MACHINE_SRC: &str = r#"
pub enum DemoState {
    New,
    Running,
    Done,
    Failed,
}

impl DemoState {
    pub fn is_final(self) -> bool {
        matches!(self, DemoState::Done | DemoState::Failed)
    }
    pub fn can_transition_to(self, next: DemoState) -> bool {
        match (self, next) {
            (DemoState::New, DemoState::Running) => true,
            (DemoState::Running, DemoState::Done) => true,
            (s, DemoState::Failed) => !s.is_final(),
            _ => false,
        }
    }
}
"#;

#[test]
fn state_machine_parses_the_fixture_table() {
    let files = vec![lib_file("states.rs", MACHINE_SRC)];
    let machines = states::parse_machines(&files);
    assert_eq!(machines.len(), 1);
    let m = &machines[0];
    assert_eq!(m.name, "DemoState");
    assert_eq!(m.variants.len(), 4);
    assert!(m.finals.contains("Done") && m.finals.contains("Failed"));
    assert!(m.allows("New", "Running"));
    assert!(m.allows("Running", "Failed")); // wildcard
    assert!(!m.allows("Done", "Failed")); // final is terminal
    assert!(!m.allows("New", "Done")); // no skipping
}

#[test]
fn state_machine_fires_on_illegal_chain() {
    let bad = r#"
fn drive(engine: &mut Engine, u: UnitHandle) {
    u.advance(engine, DemoState::New);
    u.advance(engine, DemoState::Done); // skips Running
}
"#;
    let files = vec![lib_file("states.rs", MACHINE_SRC), lib_file("bad.rs", bad)];
    let machines = states::parse_machines(&files);
    let mut report = Report::default();
    states::check(&files, &machines, &mut report);
    assert!(
        fatal_rules(&report).contains(&"state-machine"),
        "expected an illegal-transition finding: {}",
        report.render_text()
    );
    assert!(report
        .findings
        .iter()
        .any(|f| f.fatal && f.message.contains("New -> Done")));
}

#[test]
fn state_machine_fires_on_dead_table_edge() {
    // Only New -> Running is exercised; Running -> Done is dead, and so is
    // the wildcard -> Failed edge.
    let partial = r#"
fn drive(engine: &mut Engine, u: UnitHandle) {
    u.advance(engine, DemoState::New);
    u.advance(engine, DemoState::Running);
}
"#;
    let files = vec![
        lib_file("states.rs", MACHINE_SRC),
        lib_file("partial.rs", partial),
    ];
    let machines = states::parse_machines(&files);
    let mut report = Report::default();
    states::check(&files, &machines, &mut report);
    assert!(report
        .findings
        .iter()
        .any(|f| f.fatal && f.message.contains("dead transition") && f.message.contains("Done")));
}

#[test]
fn state_machine_silent_on_fully_exercised_lifecycle() {
    // Chains cover both explicit edges; a positive assert and a literal
    // advance cover the wildcard target.
    let good = r#"
fn drive(engine: &mut Engine, u: UnitHandle) {
    u.advance(engine, DemoState::New);
    u.advance(engine, DemoState::Running);
    u.advance(engine, DemoState::Done);
}
fn fail_path(engine: &mut Engine, v: UnitHandle) {
    v.advance(engine, DemoState::Failed);
}
fn check() {
    assert!(DemoState::Running.can_transition_to(DemoState::Failed));
}
"#;
    let files = vec![
        lib_file("states.rs", MACHINE_SRC),
        lib_file("good.rs", good),
    ];
    let machines = states::parse_machines(&files);
    let mut report = Report::default();
    states::check(&files, &machines, &mut report);
    assert_eq!(
        report.fatal_count(),
        0,
        "expected silence: {}",
        report.render_text()
    );
}

#[test]
fn state_machine_waiver_downgrades_finding() {
    let waived = r#"
fn drive(engine: &mut Engine, u: UnitHandle) {
    u.advance(engine, DemoState::New);
    // rp-lint: allow(state-machine): fixture exercises the panic path
    u.advance(engine, DemoState::Done);
}
"#;
    let files = vec![
        lib_file("states.rs", MACHINE_SRC),
        lib_file("waived.rs", waived),
    ];
    let machines = states::parse_machines(&files);
    let mut report = Report::default();
    states::check(&files, &machines, &mut report);
    // The illegal-transition finding is downgraded to waived. (This tiny
    // fixture still reports dead table edges — only the waiver behaviour
    // is under test here.)
    assert!(report
        .findings
        .iter()
        .any(|f| f.waived && f.message.contains("illegal")));
    assert!(!report
        .findings
        .iter()
        .any(|f| f.fatal && f.message.contains("illegal")));
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rp_analyze_fixture_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp root");
    dir
}

#[test]
fn lock_order_fires_on_unblessed_nesting_and_inversion_cycle() {
    let bad = r#"
fn ab(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock().expect("a");
    let gb = b.lock().expect("b");
}
fn ba(a: &Mutex<u32>, b: &Mutex<u32>) {
    let gb = b.lock().expect("b");
    let ga = a.lock().expect("a");
}
"#;
    let files = vec![lib_file("crates/x/src/pair.rs", bad)];
    let root = temp_root("lock_bad");
    let mut report = Report::default();
    let edges = locks::check(&files, &root, false, &mut report).expect("lock check");
    assert_eq!(edges.len(), 2, "both orderings observed");
    // Both edges unblessed (no lockorder.toml in temp root) => fatal, and
    // the a->b->a cycle is reported as a potential deadlock.
    assert!(report
        .findings
        .iter()
        .any(|f| f.fatal && f.message.contains("not blessed")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.fatal && f.message.contains("cycle")));
}

#[test]
fn lock_order_silent_on_blessed_acyclic_nesting() {
    let nested = r#"
fn ab(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock().expect("a");
    let gb = b.lock().expect("b");
}
"#;
    let files = vec![lib_file("crates/x/src/pair.rs", nested)];
    let root = temp_root("lock_good");
    let mut report = Report::default();
    // Bless first, then check: the same edge must now pass.
    locks::check(&files, &root, true, &mut report).expect("bless");
    locks::check(&files, &root, false, &mut report).expect("recheck");
    assert_eq!(report.fatal_count(), 0, "{}", report.render_text());
}

#[test]
fn lock_order_sequential_locks_record_no_edge() {
    // Guards dropped before the next acquisition: no nesting.
    let seq = r#"
fn one_at_a_time(a: &Mutex<u32>, b: &Mutex<u32>) {
    {
        let ga = a.lock().expect("a");
    }
    let gb = b.lock().expect("b");
}
fn temporaries(a: &Mutex<u32>, b: &Mutex<u32>) {
    *a.lock().expect("a") += 1;
    *b.lock().expect("b") += 1;
}
fn explicit_drop(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock().expect("a");
    drop(ga);
    let gb = b.lock().expect("b");
}
"#;
    let files = vec![lib_file("crates/x/src/seq.rs", seq)];
    let root = temp_root("lock_seq");
    let mut report = Report::default();
    let edges = locks::check(&files, &root, false, &mut report).expect("lock check");
    assert!(edges.is_empty(), "edges: {edges:?}");
    assert_eq!(report.fatal_count(), 0);
}

#[test]
fn wallclock_fires_in_lib_and_not_in_tests_or_waivers() {
    let bad = "fn t() -> u64 { let t0 = Instant::now(); 0 }\n";
    let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { let t0 = Instant::now(); }\n}\n";
    let waived = "fn t() {\n    // rp-lint: allow(wallclock): measuring the host on purpose\n    let t0 = Instant::now();\n}\n";
    let mut report = Report::default();
    hazards::check_wallclock(&[lib_file("bad.rs", bad)], &mut report);
    assert_eq!(report.fatal_count(), 1);

    let mut report = Report::default();
    hazards::check_wallclock(&[lib_file("t.rs", test_only)], &mut report);
    assert_eq!(report.fatal_count(), 0);

    let mut report = Report::default();
    hazards::check_wallclock(&[lib_file("w.rs", waived)], &mut report);
    assert_eq!(report.fatal_count(), 0);
    assert!(report.findings.iter().any(|f| f.waived));
}

#[test]
fn wallclock_allows_bench_crate_and_string_mentions() {
    let bench = "fn t() { let t0 = Instant::now(); }\n";
    let string_only = r#"fn t() { let s = "Instant::now()"; }"#;
    let mut report = Report::default();
    hazards::check_wallclock(
        &[
            lib_file("crates/bench/src/lib.rs", bench),
            lib_file("doc.rs", string_only),
        ],
        &mut report,
    );
    assert_eq!(report.fatal_count(), 0, "{}", report.render_text());
}

#[test]
fn wallclock_allows_only_the_telemetry_module_in_sim_core() {
    let clocky = "fn t() { let t0 = Instant::now(); }\n";
    let mut report = Report::default();
    hazards::check_wallclock(
        &[lib_file("crates/sim-core/src/telemetry.rs", clocky)],
        &mut report,
    );
    assert_eq!(report.fatal_count(), 0, "{}", report.render_text());

    // Any other sim-core module reading the host clock is still flagged:
    // the flight recorder is the single allowed wall-clock site.
    let mut report = Report::default();
    hazards::check_wallclock(
        &[lib_file("crates/sim-core/src/engine.rs", clocky)],
        &mut report,
    );
    assert_eq!(report.fatal_count(), 1, "{}", report.render_text());
}

#[test]
fn hash_iter_fires_on_iteration_not_on_keyed_access() {
    let bad = r#"
fn summarize(m: &HashMap<String, u64>) -> u64 {
    let mut total = 0;
    for (k, v) in m {
        total += v;
    }
    total
}
"#;
    let good = r#"
fn lookup(m: &HashMap<String, u64>, key: &str) -> u64 {
    m.get(key).copied().unwrap_or(0)
}
"#;
    let mut report = Report::default();
    hazards::check_hash_iter(&[lib_file("bad.rs", bad)], &mut report);
    assert_eq!(report.fatal_count(), 1, "{}", report.render_text());

    let mut report = Report::default();
    hazards::check_hash_iter(&[lib_file("good.rs", good)], &mut report);
    assert_eq!(report.fatal_count(), 0, "{}", report.render_text());
}

#[test]
fn hash_iter_fires_on_method_iteration_of_tracked_let_binding() {
    let bad = r#"
fn collect_all() -> Vec<u64> {
    let mut seen = HashMap::new();
    seen.insert(1u64, 2u64);
    seen.values().cloned().collect()
}
"#;
    let btree_ok = r#"
fn collect_all() -> Vec<u64> {
    let mut seen = BTreeMap::new();
    seen.insert(1u64, 2u64);
    seen.values().cloned().collect()
}
"#;
    let mut report = Report::default();
    hazards::check_hash_iter(&[lib_file("bad.rs", bad)], &mut report);
    assert_eq!(report.fatal_count(), 1, "{}", report.render_text());

    let mut report = Report::default();
    hazards::check_hash_iter(&[lib_file("ok.rs", btree_ok)], &mut report);
    assert_eq!(report.fatal_count(), 0, "{}", report.render_text());
}

#[test]
fn par_hazard_fires_on_relaxed_atomics_and_thread_identity() {
    let relaxed = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    let tls = "thread_local! {\n    static SCRATCH: Cell<u64> = const { Cell::new(0) };\n}\n";
    let tid = "fn tag() -> ThreadId { std::thread::current().id() }\n";
    let mut report = Report::default();
    hazards::check_par_hazard(
        &[
            lib_file("crates/sim-core/src/a.rs", relaxed),
            lib_file("crates/core/src/b.rs", tls),
            lib_file("crates/sim-core/src/c.rs", tid),
        ],
        &mut report,
    );
    // `tid` hits twice (ThreadId + thread::current); the others once each.
    assert_eq!(report.fatal_count(), 4, "{}", report.render_text());
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("Relaxed")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("thread_local!")));
}

#[test]
fn par_hazard_scoped_to_sim_crates_and_honors_waivers_and_tests() {
    // Same hazards outside the simulation crates: out of scope.
    let elsewhere = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    // Acquire/release ordering in scope: fine.
    let acq = "fn read(c: &AtomicU64) -> u64 { c.load(Ordering::Acquire) }\n";
    // Waived and test-only uses: reported but not fatal / skipped.
    let waived = "fn bump(c: &AtomicU64) {\n    // rp-lint: allow(par-hazard): order-insensitive counter\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
    let test_only = "#[cfg(test)]\nmod tests {\n    fn t(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n}\n";
    let mut report = Report::default();
    hazards::check_par_hazard(
        &[
            lib_file("crates/analyze/src/elsewhere.rs", elsewhere),
            lib_file("crates/sim-core/src/acq.rs", acq),
            lib_file("crates/sim-core/src/waived.rs", waived),
            lib_file("crates/core/src/test_only.rs", test_only),
        ],
        &mut report,
    );
    assert_eq!(report.fatal_count(), 0, "{}", report.render_text());
    assert!(report.findings.iter().any(|f| f.waived));
}

#[test]
fn unwrap_ratchet_fails_above_baseline_and_notes_below() {
    let two = "fn a(x: Option<u32>) -> u32 { x.unwrap() + x.expect(\"set\") }\n";
    let files = vec![lib_file("crates/x/src/two.rs", two)];

    // No baseline => budget 0 => fatal.
    let root = temp_root("ratchet_none");
    let mut report = Report::default();
    hazards::check_unwrap_ratchet(&files, &root, false, &mut report).expect("check");
    assert_eq!(report.fatal_count(), 1);
    assert!(report.findings[0]
        .message
        .contains("exceeds the baseline of 0"));

    // Bless, then recheck: exact budget => silence.
    let root = temp_root("ratchet_exact");
    let mut report = Report::default();
    hazards::check_unwrap_ratchet(&files, &root, true, &mut report).expect("bless");
    hazards::check_unwrap_ratchet(&files, &root, false, &mut report).expect("recheck");
    assert_eq!(report.fatal_count(), 0, "{}", report.render_text());

    // Budget higher than reality => note, not error.
    let mut generous = std::collections::BTreeMap::new();
    generous.insert("crates/x/src/two.rs".to_string(), 5u32);
    baseline::write_unwrap_baseline(&root.join("lint_baseline.toml"), &generous).expect("write");
    let mut report = Report::default();
    hazards::check_unwrap_ratchet(&files, &root, false, &mut report).expect("recheck");
    assert_eq!(report.fatal_count(), 0);
    assert!(report
        .findings
        .iter()
        .any(|f| !f.fatal && f.message.contains("below the baseline")));
}

#[test]
fn unwrap_ratchet_ignores_test_code() {
    let test_only =
        "#[cfg(test)]\nmod tests {\n    fn t(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
    let root = temp_root("ratchet_test");
    let mut report = Report::default();
    hazards::check_unwrap_ratchet(&[lib_file("t.rs", test_only)], &root, false, &mut report)
        .expect("check");
    assert_eq!(report.fatal_count(), 0, "{}", report.render_text());
}

#[test]
fn span_balance_fires_on_leaked_and_discarded_spans() {
    let leaked = r#"
fn run(engine: &mut Engine) {
    let span = engine.trace.span_begin(engine.now(), "cat", "name", None);
    engine.trace.span_attr(engine.now(), span, "k", "v");
}
"#;
    let discarded = r#"
fn run(engine: &mut Engine) {
    engine.trace.span_begin(engine.now(), "cat", "name", None);
}
"#;
    let mut report = Report::default();
    spans::check(&[lib_file("leak.rs", leaked)], &mut report);
    assert_eq!(report.fatal_count(), 1, "{}", report.render_text());
    assert!(report.findings[0]
        .message
        .contains("never passed to span_end"));

    let mut report = Report::default();
    spans::check(&[lib_file("drop.rs", discarded)], &mut report);
    assert_eq!(report.fatal_count(), 1, "{}", report.render_text());
    assert!(report.findings[0].message.contains("discarded"));
}

#[test]
fn span_balance_fires_on_spans_only_fed_to_typed_attr_setters() {
    // The typed setters take the id like `span_attr` does; feeding them
    // is not an ownership escape, so both leaks must be flagged.
    let leaked = r#"
fn run(engine: &mut Engine, unit: &Unit) {
    let span = engine.trace.span_begin(engine.now(), "cat", "name", None);
    engine.trace.span_attr_u64(span, "unit", unit.id);
    engine.trace.span_attr_text(span, "name", &unit.name);
}
fn typed_only(engine: &mut Engine) {
    let span = engine.trace.span_begin(engine.now(), "cat", "name", None);
    engine.trace.span_attr_u64(span, "cores", 4);
}
"#;
    let mut report = Report::default();
    spans::check(&[lib_file("typed_leak.rs", leaked)], &mut report);
    assert_eq!(report.fatal_count(), 2, "{}", report.render_text());
    assert!(report
        .findings
        .iter()
        .all(|f| f.message.contains("never passed to span_end")));
}

#[test]
fn span_balance_silent_on_ended_stored_or_escaping_spans() {
    let good = r#"
fn ended(engine: &mut Engine) {
    let span = engine.trace.span_begin(engine.now(), "cat", "name", None);
    engine.trace.span_end(engine.now(), span);
}
fn ended_in_closure(engine: &mut Engine) {
    let span = engine.trace.span_begin(engine.now(), "cat", "name", None);
    engine.schedule_now(move |eng| {
        eng.trace.span_end(eng.now(), span);
    });
}
fn stored(engine: &mut Engine, rec: &mut Record) {
    rec.span_open = engine.trace.span_begin(engine.now(), "cat", "name", None);
}
fn stored_via_let(engine: &mut Engine, rec: &mut Record) {
    let span = engine.trace.span_begin(engine.now(), "cat", "name", None);
    rec.span_open = Some(span);
}
fn returned(engine: &mut Engine) -> SpanId {
    engine.trace.span_begin(engine.now(), "cat", "name", None)
}
"#;
    let mut report = Report::default();
    spans::check(&[lib_file("good.rs", good)], &mut report);
    assert_eq!(report.fatal_count(), 0, "{}", report.render_text());
}

#[test]
fn span_balance_waiver_downgrades() {
    let waived = r#"
fn run(engine: &mut Engine) {
    // rp-lint: allow(span-balance): root span intentionally outlives the run
    let span = engine.trace.span_begin(engine.now(), "cat", "name", None);
    engine.trace.span_attr(engine.now(), span, "k", "v");
}
"#;
    let mut report = Report::default();
    spans::check(&[lib_file("w.rs", waived)], &mut report);
    assert_eq!(report.fatal_count(), 0, "{}", report.render_text());
    assert!(report.findings.iter().any(|f| f.waived));
}

// ---- effect-origin (over the workspace fn table) and waiver hygiene ----

use rp_analyze::callgraph::CallGraph;
use rp_analyze::{effects, waivers};

/// Run a call-graph rule over a set of (path, source) fixtures.
fn run_graph_rule(
    srcs: &[(&str, &str)],
    rule: fn(&[SourceFile], &CallGraph, &mut Report),
) -> Report {
    let files: Vec<SourceFile> = srcs.iter().map(|(rel, s)| lib_file(rel, s)).collect();
    let graph = CallGraph::build(&files);
    let mut report = Report::default();
    rule(&files, &graph, &mut report);
    report
}

#[test]
fn effect_origin_fires_on_origin_less_emission() {
    let bad = r#"
fn report(engine: &mut Engine, store: &CoordinationStore) {
    store.roundtrip(engine, move |eng| done(eng));
}
"#;
    let report = run_graph_rule(&[("crates/core/src/side.rs", bad)], effects::check);
    assert!(
        fatal_rules(&report).contains(&"effect-origin"),
        "origin-less roundtrip must be fatal: {}",
        report.render_text()
    );
}

#[test]
fn effect_origin_fires_on_literal_epoch_and_fabricated_origin() {
    let bad = r#"
fn report(engine: &mut Engine, store: &CoordinationStore, pilot: PilotId) {
    store.roundtrip_from(engine, pilot, 0, move |eng| done(eng));
}
fn fabricate(engine: &mut Engine, store: &CoordinationStore) {
    let origin = Some((PilotId(3), 0));
    store.stash(origin);
}
"#;
    let report = run_graph_rule(&[("crates/core/src/side.rs", bad)], effects::check);
    let fatals = fatal_rules(&report);
    assert_eq!(
        fatals.iter().filter(|r| **r == "effect-origin").count(),
        2,
        "literal epoch and fabricated tuple must both be fatal: {}",
        report.render_text()
    );
}

#[test]
fn effect_origin_fires_on_redispatch_before_revoke() {
    let bad = r#"
impl UnitManager {
    fn monitor_tick(&self, engine: &mut Engine, id: PilotId) {
        self.handle_pilot_loss(engine, id, "gap");
        store.revoke_lease(engine, id);
    }
}
"#;
    let report = run_graph_rule(&[("crates/core/src/manager.rs", bad)], effects::check);
    assert!(
        fatal_rules(&report).contains(&"effect-origin"),
        "re-dispatch before revoke must be fatal: {}",
        report.render_text()
    );
}

#[test]
fn effect_origin_silent_on_threaded_origin_and_revoke_first() {
    let good = r#"
fn report(engine: &mut Engine, store: &CoordinationStore, pilot: PilotId, epoch: u64) {
    store.roundtrip_from(engine, pilot, epoch, move |eng| done(eng));
}
"#;
    let good_manager = r#"
impl UnitManager {
    fn monitor_tick(&self, engine: &mut Engine, id: PilotId) {
        store.revoke_lease(engine, id);
        self.handle_pilot_loss(engine, id, "lease expired");
    }
}
"#;
    let report = run_graph_rule(
        &[
            ("crates/core/src/side.rs", good),
            ("crates/core/src/manager.rs", good_manager),
        ],
        effects::check,
    );
    assert_eq!(report.fatal_count(), 0, "{}", report.render_text());
}

#[test]
fn effect_origin_waiver_downgrades() {
    let waived = r#"
fn report(engine: &mut Engine, store: &CoordinationStore) {
    // rp-lint: allow(effect-origin): bootstrap write before any lease exists
    store.roundtrip(engine, move |eng| done(eng));
}
"#;
    let report = run_graph_rule(&[("crates/core/src/w.rs", waived)], effects::check);
    assert_eq!(report.fatal_count(), 0, "{}", report.render_text());
    assert!(report
        .findings
        .iter()
        .any(|f| f.waived && f.rule == "effect-origin"));
}

#[test]
fn stale_waiver_flags_dead_and_unknown_waivers_only() {
    // One live waiver (suppresses a real wallclock finding), one dead
    // (nothing on its line fires), one with a typo'd rule name.
    let src = r#"
fn run() {
    // rp-lint: allow(wallclock): host timing is the point here
    let t = Instant::now();
    // rp-lint: allow(wallclock): nothing here reads the clock anymore
    let x = 1;
    // rp-lint: allow(wallclcok): typo never worked
    let y = Instant::now();
}
"#;
    let files = vec![lib_file("crates/core/src/x.rs", src)];
    let mut report = Report::default();
    hazards::check_wallclock(&files, &mut report);
    waivers::check_stale(&files, &mut report);
    let stale: Vec<&String> = report
        .findings
        .iter()
        .filter(|f| f.rule == "stale-waiver")
        .map(|f| &f.message)
        .collect();
    assert_eq!(stale.len(), 2, "{}", report.render_text());
    assert!(stale.iter().any(|m| m.contains("no longer matches")));
    assert!(stale.iter().any(|m| m.contains("unknown rule `wallclcok`")));
    // Stale findings are info-level: they never fail the pass alone...
    assert!(report
        .findings
        .iter()
        .filter(|f| f.rule == "stale-waiver")
        .all(|f| !f.fatal));
    // ...and the live waiver is not flagged.
    assert!(!stale.iter().any(|m| m.contains("host timing")));
}

#[test]
fn waiver_inventory_lists_file_line_rules_and_reason() {
    let src = r#"
fn run() {
    // rp-lint: allow(wallclock, hash-iter): measured on the host by design
    let t = Instant::now();
}
"#;
    let files = vec![lib_file("crates/core/src/x.rs", src)];
    let entries = waivers::collect(&files);
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].file, "crates/core/src/x.rs");
    assert_eq!(entries[0].line, 3);
    assert_eq!(entries[0].rules, vec!["wallclock", "hash-iter"]);
    assert_eq!(entries[0].reason, "measured on the host by design");
    let rendered = waivers::render(&entries);
    assert!(rendered.contains("crates/core/src/x.rs:3"));
    assert!(rendered.contains("measured on the host by design"));
    assert!(rendered.contains("1 waiver(s)"));
}
