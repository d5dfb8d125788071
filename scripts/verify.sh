#!/usr/bin/env bash
# Full verification gate: build, tests (unit + integration + property +
# doctests), lints, and docs, all with warnings denied. CI and local
# pre-push both run exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

# First-party packages (the third_party/ vendored crates are workspace
# members too, so formatting must be scoped per package).
FMT_PACKAGES=(incdx incdx-analysis incdx-atpg incdx-bench incdx-core
    incdx-fault incdx-gen incdx-lint incdx-netlist incdx-opt incdx-serve
    incdx-sim)

fmt_args=()
for p in "${FMT_PACKAGES[@]}"; do fmt_args+=(-p "$p"); done

echo "==> rustfmt (first-party packages, --check)"
cargo fmt --check "${fmt_args[@]}"

echo "==> panic audit: denied panicking constructs in first-party non-test code"
# A real parser (brace-aware `#[cfg(test)]` skipping, strict tier for
# incdx-core) replacing the old awk gate, which silently stopped at the
# *first* `#[cfg(test)]` occurrence. Same scanner runs as an in-tree
# test (crates/lint/tests/panic_gate.rs).
cargo run -q -p incdx-lint --bin panic_audit

echo "==> build (release, all targets)"
cargo build --workspace --release --all-targets

echo "==> tests (workspace)"
cargo test --workspace --release -q

echo "==> perfbench: build + tests (its own workspace and lockfile)"
# perfbench reads RectifyConfig fields and implements the engine's
# Evaluator and Traversal traits, so an engine API change can break its
# build; --locked also fails if its lockfile would need rewriting.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> clippy (all targets, -D warnings)"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> rustdoc (no deps, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --release

echo "==> lint: example netlists + generated suite (--deny error)"
cargo run -q -p incdx-bench --release --bin lint -- \
    examples/netlists/*.bench --suite --deny error >/dev/null

# Runs one bench binary under --audit: the audit layer must be engaged,
# and no report line may show zero checks or a nonzero violation count.
audit_smoke() {
    local bin="$1" out
    shift
    echo "==> smoke: engine invariant audit ($bin --audit $*)"
    out="$(cargo run -p incdx-bench --release --bin "$bin" -- "$@" --audit 2>/dev/null)"
    echo "$out" | grep -q '"evaluator":"audit+' \
        || { echo "$bin --audit did not engage the audit layer" >&2; exit 1; }
    if echo "$out" | grep -q '"audit":{"checks":0'; then
        echo "$bin --audit performed zero checks" >&2; exit 1
    fi
    if echo "$out" | grep -q '"violations":[1-9]'; then
        echo "$bin --audit reported violations" >&2; exit 1
    fi
}

audit_smoke table2 --circuits c432a --trials 1 --vectors 256 --time-limit 10
# Exhaustive stuck-at search closes most last-slot leaves from their
# parent's screening scores without preparing them; under --audit each
# such leaf is replayed from scratch, so this run checks the shortcut
# on the mode where it fires (one report line per fault count).
audit_smoke table1 --circuits c17 --trials 1 --vectors 256 --time-limit 10

echo "==> smoke: JSON report emission"
out="$(cargo run -p incdx-bench --release --bin table2 -- \
    --circuits c432a --trials 1 --vectors 256 --time-limit 5 2>/dev/null)"
echo "$out" | grep -q '"report":"rectify"' \
    || { echo "table2 emitted no RectifyReport JSON" >&2; exit 1; }

# Reduces a run's JSON records to sorted "label solutions distinct_sites
# solutions_fp" lines — the solution sets the resilience smokes compare.
solution_set() {
    grep '"report":"rectify"' \
        | sed -E 's/.*"label":"([^"]*)".*"solutions":([0-9]+),"distinct_sites":([0-9]+),"solutions_fp":([0-9]+).*/\1 \2 \3 \4/' \
        | sort
}

echo "==> smoke: chaos recovery reproduces the chaos-off solution set"
clean_out="$(cargo run -p incdx-bench --release --bin table2 -- \
    --circuits c432a --trials 1 --vectors 256 --time-limit 60 --json 2>/dev/null)"
chaos_out="$(cargo run -p incdx-bench --release --bin table2 -- \
    --circuits c432a --trials 1 --vectors 256 --time-limit 60 --json \
    --chaos 7,0.05 2>/dev/null)"
clean_set="$(echo "$clean_out" | solution_set)"
[ -n "$clean_set" ] || { echo "chaos-off table2 run emitted no reports" >&2; exit 1; }
if [ "$clean_set" != "$(echo "$chaos_out" | solution_set)" ]; then
    echo "table2 --chaos 7,0.05 diverged from the chaos-off solution set" >&2
    exit 1
fi

echo "==> smoke: checkpoint/resume determinism"
ckpt="$(mktemp)"
# --max-nodes 1 is a deterministic stop, so the checkpoint is
# reproducible; resuming without the budget must land on the same
# solution set the unlimited run above found for that trial.
cargo run -p incdx-bench --release --bin table2 -- \
    --circuits c432a --trials 1 --vectors 256 --time-limit 60 \
    --max-nodes 1 --checkpoint "$ckpt" >/dev/null 2>&1 \
    || { echo "table2 --max-nodes 1 --checkpoint failed" >&2; exit 1; }
[ -s "$ckpt" ] || { echo "table2 --max-nodes 1 wrote no checkpoint" >&2; exit 1; }
resumed_set="$(cargo run -p incdx-bench --release --bin table2 -- \
    --time-limit 60 --resume "$ckpt" 2>/dev/null | solution_set)"
[ -n "$resumed_set" ] || { echo "table2 --resume emitted no report" >&2; exit 1; }
resumed_label="${resumed_set%% *}"
if [ "$resumed_set" != "$(echo "$clean_set" | grep "^$resumed_label ")" ]; then
    echo "resumed run diverged from the unlimited run for $resumed_label" >&2
    exit 1
fi
rm -f "$ckpt"

echo "==> smoke: best-first traversal"
bf_out="$(cargo run -p incdx-bench --release --bin ablation_traversal -- \
    --traversal best-first --circuits c432a --trials 1 --vectors 256 \
    --time-limit 10 --json 2>/dev/null)"
echo "$bf_out" | grep -q '"traversal":"best-first"' \
    || { echo "ablation_traversal --traversal best-first emitted no report" >&2; exit 1; }

echo "==> smoke: incremental resimulation bench"
bench_out="$(mktemp)"
BENCH_CIRCUITS=c432a BENCH_EXPERIMENTS=fig2_rounds BENCH_VECTORS=256 \
    BENCH_TIME_LIMIT=10 BENCH_OUT="$bench_out" bash scripts/bench.sh \
    >/dev/null 2>&1 || { echo "bench.sh smoke failed" >&2; exit 1; }
grep -q '"words_simulated"' "$bench_out" \
    || { echo "bench.sh wrote no per-circuit word counts" >&2; exit 1; }
rm -f "$bench_out"

echo "==> smoke: sparse SIMD kernel bench (BENCH_MODE=simd)"
simd_out="$(mktemp)"
BENCH_MODE=simd BENCH_CIRCUITS=c432a BENCH_VECTORS=1024 BENCH_REPEATS=1 \
    BENCH_TIME_LIMIT=10 BENCH_OUT="$simd_out" bash scripts/bench.sh \
    >/dev/null 2>&1 || { echo "bench.sh simd smoke failed" >&2; exit 1; }
grep -q '"results_identical":true' "$simd_out" \
    || { echo "simd bench did not certify sparse == dense results" >&2; exit 1; }
grep -q '"blocks_skipped"' "$simd_out" \
    || { echo "simd bench wrote no sparse-kernel counters" >&2; exit 1; }
rm -f "$simd_out"

echo "==> smoke: hierarchical diagnosis reproduces the flat solution set"
# The two-level engine's contract: exhaustive hierarchical runs report
# exactly the flat solution set (phase 3 + merge), with the abstraction
# telemetry attached where the map had leverage.
flat_set="$(cargo run -p incdx-bench --release --bin table2 -- \
    --circuits c432a --trials 1 --vectors 256 --time-limit 60 --flat \
    --json 2>/dev/null | solution_set)"
[ -n "$flat_set" ] || { echo "table2 --flat emitted no reports" >&2; exit 1; }
hier_out="$(cargo run -p incdx-bench --release --bin table2 -- \
    --circuits c432a --trials 1 --vectors 256 --time-limit 60 --hierarchical \
    --json 2>/dev/null)"
if [ "$flat_set" != "$(echo "$hier_out" | solution_set)" ]; then
    echo "table2 --hierarchical diverged from the --flat solution set" >&2
    exit 1
fi
echo "$hier_out" | grep -q '"abstraction":{' \
    || { echo "hierarchical run reported no abstraction telemetry" >&2; exit 1; }

echo "==> smoke: hierarchical scale bench (BENCH_MODE=hierarchical)"
hier_bench_out="$(mktemp)"
BENCH_MODE=hierarchical BENCH_CIRCUITS=parity256 BENCH_TRIALS=1 \
    BENCH_VECTORS=256 BENCH_BUDGET=2000 BENCH_TIME_LIMIT=30 \
    BENCH_OUT="$hier_bench_out" bash scripts/bench.sh \
    >/dev/null 2>&1 || { echo "bench.sh hierarchical smoke failed" >&2; exit 1; }
grep -q '"hier_solves_where_flat_exhausts"' "$hier_bench_out" \
    || { echo "hierarchical bench wrote no per-circuit comparison" >&2; exit 1; }
rm -f "$hier_bench_out"

echo "==> smoke: sparse kernel criterion microbench"
sparse_bench_out="$(cargo bench -p incdx-bench --bench sparse 2>/dev/null)"
echo "$sparse_bench_out" | grep -q 'masked_popcount_16k/sparse' \
    || { echo "criterion sparse microbench emitted no measurements" >&2; exit 1; }

echo "verify: OK"
