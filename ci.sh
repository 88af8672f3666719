#!/usr/bin/env bash
# Local CI: formatting, release build, full test suite, lints, trace
# artifact validation, the benchmark suite + regression gate against the
# checked-in BENCH_*.json baselines, and a machine-checkable fixed-seed
# fault-matrix smoke run. Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> cargo clippy -D warnings (+ todo/dbg_macro)"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::todo -W clippy::dbg_macro

echo "==> rp_lint static-analysis pass (state machines, lock order, determinism)"
RP_LINT_OUT="${RP_LINT_OUT:-target/rp_lint.json}"
cargo run --release -q -p rp-analyze --bin rp_lint -- --json > "$RP_LINT_OUT"
python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
assert d["version"] == 1, d["version"]
# The fencing and waiver-hygiene rules must actually be wired into the
# pass — a refactor that drops one would otherwise fail silently forever.
assert {"effect-origin", "stale-waiver"} <= set(d["rules"]), d["rules"]
# The rules that policed the retired parallel engine stay retired.
assert not {"prep-purity", "lookahead-coverage"} & set(d["rules"]), d["rules"]
assert {"rule", "file", "line", "message", "waived", "fatal"} <= set(
    d["findings"][0]) if d["findings"] else True
assert d["summary"]["fatal"] == 0, (
    "rp_lint reported fatal findings:\n" + "\n".join(
        "  %(rule)s %(file)s:%(line)d %(message)s" % f
        for f in d["findings"] if f["fatal"]))
print("--- rp_lint: %(total)d finding(s), %(fatal)d fatal, %(waived)d waived"
      % d["summary"])
' "$RP_LINT_OUT"

echo "==> lifecycle DOT artifacts are fresh"
cargo run --release -q -p rp-analyze --bin rp_lint -- --emit-dot target/lifecycles > /dev/null
for dot in pilot_states unit_states; do
    cmp -s "target/lifecycles/$dot.dot" "docs/lifecycles/$dot.dot" || {
        echo "docs/lifecycles/$dot.dot is stale; regenerate with:"
        echo "  cargo run -p rp-analyze --bin rp_lint -- --emit-dot docs/lifecycles"
        exit 1
    }
done

echo "==> traced quickstart + Perfetto artifact validation"
TRACE_OUT="${TRACE_OUT:-target/quickstart_trace.json}"
cargo run --release -q --example quickstart -- --trace-out "$TRACE_OUT" > /dev/null
cargo run --release -q -p rp-bench --bin trace_validate -- "$TRACE_OUT"

echo "==> bench_suite rejects bad input without writing a file"
# --help prints the usage and exits 0; an unknown flag exits non-zero.
# Neither may run the suite, so neither may write a BENCH_*.json.
BAD_INPUT_DIR="$(mktemp -d)"
REPO_ROOT="$PWD"
bench_suite_in_tmp() {
    (cd "$BAD_INPUT_DIR" && cargo run --release -q --manifest-path "$REPO_ROOT/Cargo.toml" \
        -p rp-bench --bin bench_suite -- "$@")
}
bench_suite_in_tmp --help > /dev/null
if bench_suite_in_tmp --bogus > /dev/null 2>&1; then
    echo "bench_suite --bogus exited 0"
    exit 1
fi
if [ -n "$(ls -A "$BAD_INPUT_DIR")" ]; then
    echo "bench_suite --help/--bogus wrote files: $(ls -A "$BAD_INPUT_DIR")"
    exit 1
fi
rmdir "$BAD_INPUT_DIR"

echo "==> bench suite (quick) + regression gate"
BENCH_OUT="${BENCH_OUT:-target/bench}"
cargo run --release -q -p rp-bench --bin bench_suite -- --quick --out-dir "$BENCH_OUT"
baselines_present=true
for s in fig5_startup fig5_unit_startup fig6_kmeans fault_matrix pilot_loss partition_heal scale_1k scale_10k; do
    [ -f "BENCH_$s.json" ] || baselines_present=false
done
if $baselines_present; then
    # scale_10k is excluded: the quick suite deliberately skips the one
    # slow scenario, so the candidate dir has no artifact to diff. The
    # full-reps invocation in EXPERIMENTS.md still regenerates (and a
    # manual bench_compare without --scenario still gates) all eight.
    cargo run --release -q -p rp-bench --bin bench_compare -- \
        --baseline . --candidate "$BENCH_OUT" \
        --scenario fig5_startup --scenario fig5_unit_startup \
        --scenario fig6_kmeans --scenario fault_matrix \
        --scenario pilot_loss --scenario partition_heal --scenario scale_1k
else
    echo "    (no checked-in baselines; seeding BENCH_*.json from this run"
    echo "     — run 'bench_suite --out-dir .' without --quick for real host stats)"
    cp "$BENCH_OUT"/BENCH_*.json .
fi

echo "==> telemetry differential tier (recorder on == recorder off)"
cargo test --release -q --test telemetry

echo "==> trace_diff attribution smoke (self-diff clean, perturbation attributed)"
# A baseline diffed against itself must be clean (exit 0)...
if [ -f BENCH_fault_matrix.json ]; then
    cargo run --release -q -p rp-bench --bin trace_diff -- \
        BENCH_fault_matrix.json BENCH_fault_matrix.json > /dev/null
fi
# ...and the integration tier proves a perturbed run (longer sleeps) is
# attributed to the compute phase, with the chrome reduction cross-checked
# against Trace::name_totals.
cargo test --release -q -p rp-bench --test trace_diff

echo "==> fault-matrix smoke (3 seeds x 3 intensities, JSON-checked)"
for seed in 1 2 3; do
    for intensity in 2 6 12; do
        cargo run --release -q --example fault_injection "$seed" "$intensity" --json \
            | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
assert d["injected"] == d["planned"], (d["injected"], d["planned"])
assert d["done"] + d["failed"] == d["units"], d
# Every unit survives moderate fault schedules; heavy ones may exhaust
# the retry budget but must never lose more than the budget allows.
if d["intensity"] <= 6:
    assert d["failed"] == 0, d
assert all(u["attempts"] <= 4 for u in d["unit_states"]), d
assert d["makespan_s"] > 0, d
print("--- seed=%d intensity=%d: %d/%d done, %d retried, %d faults, makespan %.0fs"
      % (d["seed"], d["intensity"], d["done"], d["units"],
         d["retried"], d["injected"], d["makespan_s"]))
'
    done
done

echo "==> chaos soak (quick: 8 seeds over the mixed fault + lossy-store grid)"
CHAOS_SEEDS=8 cargo test --release -q --test chaos

echo "==> scale smoke (1k units: bounded working set + bit-identical replay)"
SCALE_UNITS=1000 cargo test --release -q --test scale

echo "==> benchmark smoke (mode1_pipeline, 1 s: correct, no failed unit)"
# Runs the BENCHMARK.json command on the Mode I workload; its own build
# directory (.bench_build, git-ignored) keeps it apart from target/.
CARGO_TARGET_DIR=.bench_build cargo run --release --quiet --offline \
    --manifest-path perfbench/Cargo.toml -- \
    --workload mode1_pipeline --seed 1 --seconds 1 --trace 0 \
    | tail -n 1 | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
assert d["correct"] is True, d
assert d["failed"] == 0, d
print("--- mode1_pipeline: %d units, %.0f units/s, %.0f allocs/unit"
      % (d["attempted"], d["metrics"]["units_per_s"]["value"],
         d["metrics"]["allocs_per_unit"]["value"]))
'

echo "==> benchmark smoke (bag_traced per-layer, 1 s: intern table bounded by vocabulary)"
# Traced bag with the per-layer report: typed span attributes keep ids,
# counts and unit names out of the intern table, so its size is set by
# the span/attribute vocabulary, not by the 50k units of history.
CARGO_TARGET_DIR=.bench_build cargo run --release --quiet --offline \
    --manifest-path perfbench/Cargo.toml -- \
    --workload bag_traced --seed 1 --seconds 1 --trace 1 \
    | tail -n 1 | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
assert d["correct"] is True, d
assert d["failed"] == 0, d
symbols = d["metrics"]["obs.symbols"]["value"]
assert symbols <= 64, "obs.symbols = %d: the intern table grows with history" % symbols
print("--- bag_traced: %d units, %d symbols, export %.3f s, obs.tax %.2f"
      % (d["attempted"], symbols, d["metrics"]["obs.export_s"]["value"],
         d["metrics"]["obs.tax"]["value"]))
'

echo "==> pilot-kill smoke (failover to the surviving pilot, JSON-checked)"
cargo run --release -q --example fault_injection 5 --pilot-kill --json \
    | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
assert d["mode"] == "pilot_kill", d
assert d["kinds"] == ["NodeCrash", "NodeSlowdown", "ContainerKill",
                      "LinkDegrade", "StagingError", "PilotKill",
                      "Partition"], d["kinds"]
assert d["injected"] == d["planned"] == 1, d
assert d["done"] == d["units"] and d["failed"] == 0, d
assert d["rebound"] >= 1, d
print("--- pilot-kill: %d/%d done, %d re-bound, makespan %.0fs"
      % (d["done"], d["units"], d["rebound"], d["makespan_s"]))
'

echo "==> partition smoke (split-brain: self-fence, re-bind, stale-epoch rejection)"
cargo run --release -q --example fault_injection 5 --partition 600 --json \
    | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
assert d["mode"] == "partition", d
assert d["injected"] == d["planned"] == 1, d
assert d["done"] == d["units"] and d["failed"] == 0, d
assert d["rebound"] >= 1, d
assert d["partition_windows"] >= 1, d
# The zombie must have written under a stale epoch after the heal, and
# every one of those writes must have been fenced (held, then rejected).
assert d["fence_rejections"] >= 1, d
assert d["partition_holds"] >= d["fence_rejections"], d
assert d["lease_renewals"] >= 1, d
print("--- partition: %d/%d done, %d re-bound, %d held, %d fenced, makespan %.0fs"
      % (d["done"], d["units"], d["rebound"], d["partition_holds"],
         d["fence_rejections"], d["makespan_s"]))
'

if [ "${CI_SCALE:-0}" = "1" ]; then
    echo "==> CI_SCALE=1: 100k-unit scale tier (same assertions, full volume)"
    SCALE_UNITS=100000 cargo test --release -q --test scale
fi

if [ "${CI_SANITIZE:-0}" = "1" ]; then
    echo "==> CI_SANITIZE=1: chaos soak under ThreadSanitizer (nightly)"
    # The sanitizer needs a nightly toolchain and a rebuilt std; both may be
    # unavailable offline. A missing/broken toolchain is a skip, not a
    # failure — but if the sanitized tests themselves run and fail, we fail.
    if cargo +nightly --version > /dev/null 2>&1; then
        if RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly build -Z build-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
                --release -q -p rp-pilot 2> /dev/null; then
            RUSTFLAGS="-Zsanitizer=thread" CHAOS_SEEDS=4 \
                cargo +nightly test -Z build-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
                    --release -q --test chaos
            # The split-brain grid (partitions + leases + fencing) under
            # TSan at 8 seeds: lease renewal and held-message replay must
            # be data-race free too.
            RUSTFLAGS="-Zsanitizer=thread" CHAOS_SEEDS=8 \
                cargo +nightly test -Z build-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
                    --release -q --test chaos partition_heal_grid
        else
            echo "    (nightly build-std unavailable — likely offline; skipping)"
        fi
    else
        echo "    (no nightly toolchain installed; skipping sanitizer stage)"
    fi
fi

echo "==> OK"
