#!/usr/bin/env bash
# Before/after benchmark of the event-driven incremental resimulation
# engine. Runs the table1 (stuck-at) and fig2_rounds (DEDC) workloads
# twice — once with --no-incremental (full cone resimulation, no matrix
# cache) and once with the incremental engine — and aggregates the
# per-run RectifyReport JSON records into BENCH_incremental.json at the
# repo root: wall time and simulated words per circuit, plus the
# full/incremental words ratio. Results are bit-identical between the
# two modes; only the amount of simulation work differs.
#
# The defaults deliberately use one trial and a generous time limit: every
# run then ends at a *deterministic* budget (node/round caps), so the two
# modes traverse identical trees and the words ratio compares equal work —
# a clock-truncated run would only compare throughput.
#
# A second mode, `BENCH_MODE=simd`, benchmarks the hierarchical sparse
# simulation kernel: the fig2_rounds workload runs once with --no-sparse
# (dense masked popcounts over every word) and once with --sparse (block
# summaries skip all-zero blocks). The two runs are bit-identical — the
# script asserts the solution fingerprints match — so the wall-time
# delta is pure kernel throughput. BENCH_simd.json records wall and CPU
# seconds per mode (the speedup is computed from CPU seconds, which a
# contended core cannot distort), per-circuit engine seconds, and the
# sparse-kernel counters (blocks_skipped, sparse_rows, dense_fallbacks).
# Each kernel runs BENCH_REPEATS times (default 5), interleaved with
# the other kernel pairwise, and times are summed,
# damping scheduler noise; simd mode also defaults to 4096 vectors —
# at the suite default of 1024 a row holds only four 256-vector blocks,
# so there is nothing for the block summary to skip.
#
# A third mode, `BENCH_MODE=hierarchical`, benchmarks two-level
# hierarchical diagnosis at scale: the hier_scale binary runs paired
# flat/hierarchical first-solution trials (identical injections, stems
# of collapsed super-gates as fault sites) under one shared node budget
# on c6288-scale circuits from crates/gen (c6288a plus the generated
# parity2048 / sec256). BENCH_hierarchical.json records, per circuit,
# the abstraction leverage (abstract gates, collapse ratio) and each
# mode's solved count, summed nodes and wall time, plus the number of
# trials where the hierarchical run solved inside a budget the flat
# search exhausted — the mode's headline claim.
#
# Environment overrides (defaults reproduce the committed benchmarks):
#   BENCH_MODE         incremental | simd | hierarchical  (default incremental)
#   BENCH_REPEATS      simd mode: runs per kernel, summed  (default 5)
#   BENCH_CIRCUITS     comma-separated suite circuits   (default c432a,c880a;
#                      hierarchical: c6288a,parity2048,sec256)
#   BENCH_EXPERIMENTS  space-separated subset to run    (default "table1 fig2_rounds")
#   BENCH_TRIALS       trials per cell                  (default 1; hierarchical: 3)
#   BENCH_VECTORS      test vectors per run             (default 1024; simd: 4096;
#                      hierarchical: 256)
#   BENCH_BUDGET       hierarchical mode: shared node budget per run (default 2000)
#   BENCH_SEED         master seed                      (default 2002)
#   BENCH_TIME_LIMIT   per-run limit, seconds           (default 600)
#   BENCH_OUT          output path (default BENCH_<mode>.json)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${BENCH_MODE:-incremental}"
if [ "$MODE" = hierarchical ]; then
    CIRCUITS="${BENCH_CIRCUITS:-c6288a,parity2048,sec256}"
else
    CIRCUITS="${BENCH_CIRCUITS:-c432a,c880a}"
fi
EXPERIMENTS="${BENCH_EXPERIMENTS:-table1 fig2_rounds}"
if [ "$MODE" = hierarchical ]; then
    TRIALS="${BENCH_TRIALS:-3}"
else
    TRIALS="${BENCH_TRIALS:-1}"
fi
if [ "$MODE" = simd ]; then
    VECTORS="${BENCH_VECTORS:-4096}"
elif [ "$MODE" = hierarchical ]; then
    # 256 vectors excite and discriminate the paired injections while
    # keeping three budget-bound runs per circuit affordable.
    VECTORS="${BENCH_VECTORS:-256}"
else
    VECTORS="${BENCH_VECTORS:-1024}"
fi
REPEATS="${BENCH_REPEATS:-5}"
SEED="${BENCH_SEED:-2002}"
TIME_LIMIT="${BENCH_TIME_LIMIT:-600}"
case "$MODE" in
    incremental) OUT="${BENCH_OUT:-BENCH_incremental.json}" ;;
    simd)        OUT="${BENCH_OUT:-BENCH_simd.json}" ;;
    hierarchical) OUT="${BENCH_OUT:-BENCH_hierarchical.json}" ;;
    *) echo "unknown BENCH_MODE $MODE (incremental|simd|hierarchical)" >&2; exit 2 ;;
esac

echo "==> build (release)"
cargo build --release -p incdx-bench

# Cargo builds into $CARGO_TARGET_DIR when it is set.
bin="${CARGO_TARGET_DIR:-target}/release"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if [ "$MODE" = simd ]; then
    # $1=run name, $2=kernel flag. Captures the JSON records and prints
    # the run's wall seconds (fig2_rounds benches one circuit per
    # invocation).
    # One fig2_rounds invocation; appends its records to $tmp/$1.jsonl
    # and its "<wall_s> <user_s> <sys_s>" line to $tmp/$1.times. CPU
    # seconds (user+sys) are immune to other processes stealing the
    # core; wall time is recorded alongside for context. Dense and
    # sparse invocations are interleaved pairwise so both kernels
    # sample the same machine conditions.
    run_one() {
        local name="$1" flag="$2" ckt="$3" rep="$4" t0 t1
        t0=$(date +%s.%N)
        local TIMEFORMAT='%U %S'
        { time "$bin/fig2_rounds" --circuits "$ckt" --vectors "$VECTORS" \
            --seed "$SEED" --time-limit "$TIME_LIMIT" \
            --json "$flag" | grep '"report":"rectify"' \
            | sed "s/\"label\":\"/&r$rep\//" >> "$tmp/$name.jsonl"
        } 2> "$tmp/one.cpu"
        t1=$(date +%s.%N)
        { awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f ", b-a}'
          cat "$tmp/one.cpu"; } >> "$tmp/$name.times"
    }
    # Sums "$tmp/$1.times" into "<wall_s> <cpu_s>".
    sum_times() {
        awk '{w += $1; c += $2 + $3} END {printf "%.3f %.3f", w, c}' "$tmp/$1.times"
    }
    # Sorted "label solutions distinct_sites" fingerprint — the sparse
    # kernel must not change what the search finds.
    fingerprint() {
        sed -E 's/.*"label":"([^"]*)".*"solutions":([0-9]+),"distinct_sites":([0-9]+).*/\1 \2 \3/' \
            "$1" | sort
    }
    # Sums diagnosis+correction engine seconds for one circuit across a
    # run's JSON records (labels are r<rep>/fig2_rounds/<circuit>/...).
    engine_s() {
        awk -v c="$2" '{
            if (match($0, /"label":"[^"]*"/)) {
                label = substr($0, RSTART + 10, RLENGTH - 11)
                split(label, p, "/")
            }
            if (p[3] != c) next
            while (match($0, /"(diagnosis|correction)":[0-9.]+/)) {
                s = substr($0, RSTART, RLENGTH); sub(/.*:/, "", s); t += s + 0
                $0 = substr($0, RSTART + RLENGTH)
            }
        } END { printf "%.3f", t }' "$1"
    }
    # Sums one numeric counter field across a run's JSON records.
    sum_field() {
        awk -v f="\"$2\":" '{
            while (match($0, f "[0-9]+")) {
                s = substr($0, RSTART, RLENGTH); sub(/.*:/, "", s); total += s + 0
                $0 = substr($0, RSTART + RLENGTH)
            }
        } END { print total + 0 }' "$1"
    }
    : > "$tmp/dense.jsonl"; : > "$tmp/dense.times"
    : > "$tmp/sparse.jsonl"; : > "$tmp/sparse.times"
    for rep in $(seq "$REPEATS"); do
        for ckt in ${CIRCUITS//,/ }; do
            echo "==> fig2_rounds $ckt r$rep (dense, then sparse)"
            run_one dense --no-sparse "$ckt" "$rep"
            run_one sparse --sparse "$ckt" "$rep"
        done
    done
    read -r dense_wall dense_cpu <<< "$(sum_times dense)"
    read -r sparse_wall sparse_cpu <<< "$(sum_times sparse)"
    if [ "$(fingerprint "$tmp/dense.jsonl")" != "$(fingerprint "$tmp/sparse.jsonl")" ]; then
        echo "sparse-kernel run diverged from the dense solution set" >&2
        exit 1
    fi
    blocks_skipped=$(sum_field "$tmp/sparse.jsonl" blocks_skipped)
    sparse_rows=$(sum_field "$tmp/sparse.jsonl" sparse_rows)
    dense_fallbacks=$(sum_field "$tmp/sparse.jsonl" dense_fallbacks)
    speedup=$(awk -v d="$dense_cpu" -v s="$sparse_cpu" \
        'BEGIN{if (s > 0) printf "%.2f", d/s; else print "null"}')
    per_circuit=""
    first_ckt=1
    for ckt in ${CIRCUITS//,/ }; do
        de=$(engine_s "$tmp/dense.jsonl" "$ckt")
        se=$(engine_s "$tmp/sparse.jsonl" "$ckt")
        [ "$first_ckt" -eq 1 ] || per_circuit="$per_circuit,"
        first_ckt=0
        per_circuit="$per_circuit{\"circuit\":\"$ckt\",\"engine_s\":{\"dense\":$de,\"sparse\":$se}}"
        echo "    $ckt engine: dense=${de}s sparse=${se}s" >&2
    done
    printf '{"bench":"sparse_simd_kernel","seed":%s,"repeats":%s,"vectors":%s,"circuits":[%s],"wall_s":{"dense":%s,"sparse":%s},"cpu_s":{"dense":%s,"sparse":%s},"speedup":%s,"counters":{"blocks_skipped":%s,"sparse_rows":%s,"dense_fallbacks":%s},"results_identical":true}\n' \
        "$SEED" "$REPEATS" "$VECTORS" "$per_circuit" "$dense_wall" "$sparse_wall" \
        "$dense_cpu" "$sparse_cpu" \
        "$speedup" "$blocks_skipped" "$sparse_rows" "$dense_fallbacks" > "$OUT"
    echo "    wall: dense=${dense_wall}s sparse=${sparse_wall}s" >&2
    echo "    cpu:  dense=${dense_cpu}s sparse=${sparse_cpu}s speedup=${speedup}x" >&2
    echo "    counters: blocks_skipped=$blocks_skipped sparse_rows=$sparse_rows dense_fallbacks=$dense_fallbacks" >&2
    echo "wrote $OUT"
    exit 0
fi

if [ "$MODE" = hierarchical ]; then
    BUDGET="${BENCH_BUDGET:-2000}"
    log="$tmp/hier.jsonl"
    echo "==> hier_scale (paired flat/hierarchical, node budget $BUDGET)"
    "$bin/hier_scale" --circuits "$CIRCUITS" --trials "$TRIALS" \
        --vectors "$VECTORS" --seed "$SEED" --time-limit "$TIME_LIMIT" \
        --max-nodes "$BUDGET" --json | grep '"report":"hier_scale"' > "$log"

    # Per circuit: static leverage, per-mode aggregates, and the count of
    # trials where the hierarchical run solved inside a budget the flat
    # search exhausted (the mode's headline).
    awk '{
        c = m = ""; t = g = s = nd = w = ag = 0; cr = 1.0
        if (match($0, /"circuit":"[^"]*"/)) c = substr($0, RSTART + 11, RLENGTH - 12)
        if (match($0, /"mode":"[^"]*"/)) m = substr($0, RSTART + 8, RLENGTH - 9)
        if (match($0, /"trial":[0-9]+/)) { x = substr($0, RSTART, RLENGTH); sub(/.*:/, "", x); t = x + 0 }
        if (match($0, /"gates":[0-9]+/)) { x = substr($0, RSTART, RLENGTH); sub(/.*:/, "", x); g = x + 0 }
        if (match($0, /"solved":true/)) s = 1
        if (match($0, /"nodes":[0-9]+/)) { x = substr($0, RSTART, RLENGTH); sub(/.*:/, "", x); nd = x + 0 }
        if (match($0, /"wall_ms":[0-9]+/)) { x = substr($0, RSTART, RLENGTH); sub(/.*:/, "", x); w = x + 0 }
        if (match($0, /"abstract_gates":[0-9]+/)) { x = substr($0, RSTART, RLENGTH); sub(/.*:/, "", x); ag = x + 0 }
        if (match($0, /"collapse_ratio":[0-9.]+/)) { x = substr($0, RSTART, RLENGTH); sub(/.*:/, "", x); cr = x + 0 }
        if (c == "" || m == "") next
        runs[c "/" m]++; solved[c "/" m] += s
        nodes[c "/" m] += nd; wall[c "/" m] += w
        gates[c] = g
        if (m == "hierarchical") { agates[c] = ag; ratio[c] = cr }
        ok[c "/" t "/" m] = s
        seen[c "/" t] = c
    } END {
        for (k in seen) {
            split(k, p, "/")
            if (!ok[p[1] "/" p[2] "/flat"] && ok[p[1] "/" p[2] "/hierarchical"])
                win[p[1]]++
        }
        for (c in gates)
            printf "%s %d %d %.4f %d %d %d %d %d %d %d %d %d\n", c, gates[c], \
                agates[c], ratio[c], \
                solved[c "/flat"], runs[c "/flat"], nodes[c "/flat"], wall[c "/flat"], \
                solved[c "/hierarchical"], runs[c "/hierarchical"], \
                nodes[c "/hierarchical"], wall[c "/hierarchical"], win[c] + 0
    }' "$log" | sort > "$tmp/hier.agg"

    {
        printf '{"bench":"hierarchical_scale","seed":%s,"trials":%s,"vectors":%s,"budget":%s,"faults":2' \
            "$SEED" "$TRIALS" "$VECTORS" "$BUDGET"
        printf ',"circuits":['
        first_ckt=1
        for ckt in ${CIRCUITS//,/ }; do
            line="$(awk -v c="$ckt" '$1==c' "$tmp/hier.agg")"
            [ -n "$line" ] || continue
            read -r _ g ag cr fs fr fn fw hs hr hn hw win <<< "$line"
            [ "$first_ckt" -eq 1 ] || printf ','
            first_ckt=0
            printf '{"circuit":"%s","gates":%s,"abstract_gates":%s,"collapse_ratio":%s' \
                "$ckt" "$g" "$ag" "$cr"
            printf ',"flat":{"solved":%s,"runs":%s,"nodes":%s,"wall_ms":%s}' \
                "$fs" "$fr" "$fn" "$fw"
            printf ',"hierarchical":{"solved":%s,"runs":%s,"nodes":%s,"wall_ms":%s}' \
                "$hs" "$hr" "$hn" "$hw"
            printf ',"hier_solves_where_flat_exhausts":%s}' "$win"
            echo "    $ckt: ratio=$cr flat ${fs}/${fr} (${fn} nodes) hier ${hs}/${hr} (${hn} nodes) wins=$win" >&2
        done
        printf ']}\n'
    } > "$OUT"
    echo "wrote $OUT"
    exit 0
fi

# Runs one experiment binary in one mode, capturing its JSON records and
# wall time. $1=experiment $2=mode(full|incremental) $3=extra flag
run_mode() {
    local exp="$1" mode="$2" flag="$3" t0 t1
    local log="$tmp/$exp.$mode.jsonl"
    echo "==> $exp ($mode)"
    t0=$(date +%s.%N)
    case "$exp" in
        table1)
            "$bin/table1" --circuits "$CIRCUITS" --trials "$TRIALS" \
                --vectors "$VECTORS" --seed "$SEED" --time-limit "$TIME_LIMIT" \
                --json $flag | grep '"report":"rectify"' > "$log" ;;
        fig2_rounds)
            # fig2_rounds benches one circuit per invocation.
            : > "$log"
            local ckt
            for ckt in ${CIRCUITS//,/ }; do
                "$bin/fig2_rounds" --circuits "$ckt" --vectors "$VECTORS" \
                    --seed "$SEED" --time-limit "$TIME_LIMIT" \
                    --json $flag | grep '"report":"rectify"' >> "$log"
            done ;;
        *) echo "unknown experiment $exp" >&2; exit 2 ;;
    esac
    t1=$(date +%s.%N)
    echo "$t0 $t1" > "$tmp/$exp.$mode.time"
}

for exp in $EXPERIMENTS; do
    run_mode "$exp" full "--no-incremental"
    run_mode "$exp" incremental "--incremental"
done

# Aggregate the one-line JSON records: per (experiment, circuit, mode),
# sum simulated words; per (experiment, mode), wall seconds.
awk_extract() { # $1=jsonl file → lines "circuit words"
    awk '{
        label = ""; words = 0
        if (match($0, /"label":"[^"]*"/)) {
            label = substr($0, RSTART + 9, RLENGTH - 10)
            split(label, parts, "/")
        }
        if (match($0, /"simulation":\{"words":[0-9]+/)) {
            s = substr($0, RSTART, RLENGTH)
            sub(/.*:/, "", s); words = s + 0
        }
        if (label != "") print parts[2], words
    }' "$1"
}

{
    printf '{"bench":"incremental_resimulation","seed":%s,"trials":%s,"vectors":%s' \
        "$SEED" "$TRIALS" "$VECTORS"
    printf ',"experiments":['
    first_exp=1
    for exp in $EXPERIMENTS; do
        [ "$first_exp" -eq 1 ] || printf ','
        first_exp=0
        read -r f0 f1 < "$tmp/$exp.full.time"
        read -r i0 i1 < "$tmp/$exp.incremental.time"
        full_wall=$(awk -v a="$f0" -v b="$f1" 'BEGIN{printf "%.3f", b-a}')
        inc_wall=$(awk -v a="$i0" -v b="$i1" 'BEGIN{printf "%.3f", b-a}')
        printf '{"experiment":"%s","wall_s":{"full":%s,"incremental":%s},"circuits":[' \
            "$exp" "$full_wall" "$inc_wall"
        first_ckt=1
        for ckt in ${CIRCUITS//,/ }; do
            fw=$(awk_extract "$tmp/$exp.full.jsonl" | awk -v c="$ckt" '$1==c{s+=$2}END{print s+0}')
            iw=$(awk_extract "$tmp/$exp.incremental.jsonl" | awk -v c="$ckt" '$1==c{s+=$2}END{print s+0}')
            ratio=$(awk -v f="$fw" -v i="$iw" 'BEGIN{if (i > 0) printf "%.2f", f/i; else printf "null"}')
            [ "$first_ckt" -eq 1 ] || printf ','
            first_ckt=0
            printf '{"circuit":"%s","words_simulated":{"full":%s,"incremental":%s},"ratio":%s}' \
                "$ckt" "$fw" "$iw" "$ratio"
            echo "    $exp/$ckt: words full=$fw incremental=$iw (ratio $ratio)" >&2
        done
        printf ']}'
        echo "    $exp wall: full=${full_wall}s incremental=${inc_wall}s" >&2
    done
    printf ']}\n'
} > "$OUT"

echo "wrote $OUT"
