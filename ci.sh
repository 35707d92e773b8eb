#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
# Codec regressions (e.g. the content-length and bare-\r bugs fixed in
# the net crate) are exactly the kind of thing `clippy -D warnings` plus
# the proptest suites catch mechanically — run this before every push.
#
# `ci.sh bench-snapshot` refreshes the committed bench snapshots in quick
# mode (WLA_BENCH_QUICK=1, ~seconds instead of minutes):
#   BENCH_static.json  — callgraph, static-pipeline, url-provenance, and
#                        corpus-stream benches;
#   BENCH_dynamic.json — the crawl-study benches (seed oracle vs interned
#                        pipeline vs parallel pool) and the simhash kernel.
# Quick-mode numbers are noisier than a full `cargo bench` run — use them
# for order-of-magnitude regression spotting, and EXPERIMENTS.md for the
# measured full-mode ablations.
#
# `ci.sh bench-check` re-runs the same quick snapshots into temp files and
# fails, with a printed diff, if any bench present in a committed snapshot
# got slower than its allowance: 25% for the static microbenches, 50% for
# the end-to-end crawl runs (whole-pipeline wall times swing more with
# host load, and the seed-vs-parallel sides of the speedup ratio swing
# together). Real regressions — an accidental re-allocation in the decode
# path, a per-visit parse sneaking back in — clear both bars.
set -euo pipefail
cd "$(dirname "$0")"

STATIC_BENCHES="--bench callgraph --bench static_pipeline --bench url_provenance --bench corpus_stream --bench http_loop"
DYNAMIC_BENCHES="--bench crawl --bench simhash"

run_quick_benches() {
    # TSV (id<TAB>median_ns), one line per bench, sorted. Two passes with
    # a per-bench minimum: shared boxes swing their CPU allotment between
    # runs, and the min is the statistic least sensitive to that noise —
    # a real regression slows the best case too.
    local tsv=$1
    shift
    rm -f "$tsv.raw"
    local pass
    for pass in 1 2; do
        WLA_BENCH_QUICK=1 WLA_BENCH_JSON="$tsv.raw" \
            cargo bench -q -p wla-bench "$@"
    done
    awk -F'\t' '
        !($1 in best) || $2 + 0 < best[$1] + 0 { best[$1] = $2 }
        END { for (id in best) printf "%s\t%s\n", id, best[id] }
    ' "$tsv.raw" | LC_ALL=C sort > "$tsv"
    rm -f "$tsv.raw"
}

tsv_to_json() {
    awk -F'\t' '
        BEGIN { print "{" }
        { lines[NR] = sprintf("  \"%s\": %s", $1, $2) }
        END {
            for (i = 1; i <= NR; i++)
                print lines[i] (i < NR ? "," : "")
            print "}"
        }' "$1"
}

snapshot_one() {
    # $1 = snapshot file; the rest are the bench flags for its suite.
    local json=$1
    shift
    local tsv
    tsv=$(mktemp)
    run_quick_benches "$tsv" "$@"
    tsv_to_json "$tsv" > "$json"
    rm -f "$tsv"
    echo "wrote $json ($(grep -c '":' "$json") benches)"
}

bench_snapshot() {
    echo "== bench snapshot (quick mode) =="
    # shellcheck disable=SC2086
    snapshot_one BENCH_static.json $STATIC_BENCHES
    # shellcheck disable=SC2086
    snapshot_one BENCH_dynamic.json $DYNAMIC_BENCHES
}

check_one() {
    # $1 = committed snapshot; $2 = regression allowance (e.g. 1.25);
    # the rest are the bench flags for its suite.
    local json=$1 limit=$2
    shift 2
    [[ -f "$json" ]] || { echo "bench-check: no committed $json"; exit 1; }
    local tsv
    tsv=$(mktemp)
    run_quick_benches "$tsv" "$@"
    # Compare every committed entry against the fresh run; entries only on
    # one side (added or retired benches) are reported but never fail.
    awk -F'\t' -v limit="$limit" '
        NR == FNR { fresh[$1] = $2; next }
        /":/ {
            line = $0
            gsub(/^[ ]*"|",?$/, "", line)
            split(line, kv, /": /)
            id = kv[1]; old = kv[2] + 0
            if (!(id in fresh)) { printf "  retired   %-40s (baseline %.0f ns)\n", id, old; next }
            new = fresh[id] + 0
            ratio = (old > 0) ? new / old : 1
            verdict = (ratio > limit) ? "REGRESSED" : "ok"
            printf "  %-9s %-40s %12.0f -> %12.0f ns (%+.1f%%)\n", verdict, id, old, new, (ratio - 1) * 100
            if (ratio > limit) bad++
            seen[id] = 1
        }
        END {
            for (id in fresh) if (!(id in seen)) printf "  new       %-40s %12.0f ns\n", id, fresh[id] + 0
            exit bad > 0 ? 1 : 0
        }' "$tsv" "$json" || { rm -f "$tsv"; echo "bench-check: FAILED (regression above allowance in $json)"; exit 1; }
    rm -f "$tsv"
    echo "bench-check: $json within its allowance"
}

trusted_decode_gate() {
    # The trusted-decode acceptance bars, gated on the same snapshot
    # check_one just verified: the `None` preset must decode valid shards
    # ≥1.3x faster than full verification (measured ~1.5x; the floor
    # leaves quick-mode headroom), the stored lookup table must beat the
    # linear type-table scan by ≥3x (measured ~8x), and hash-layout vtable
    # binding must beat binary search on the hierarchy-heavy fixture by
    # ≥1.2x (measured ~1.8x).
    awk -F'": ' '
        /"static_pipeline\/decode_zero_copy"/          { all = $2 + 0 }
        /"static_pipeline\/decode_trusted"/            { trusted = $2 + 0 }
        /"callgraph\/type_by_name_lut"/                { lut = $2 + 0 }
        /"callgraph\/type_by_name_linear_scan"/        { scan = $2 + 0 }
        /"callgraph\/vtable_bind_hash"/                { vh = $2 + 0 }
        /"callgraph\/vtable_bind_binary_search"/       { vb = $2 + 0 }
        END {
            if (all == 0 || trusted == 0 || lut == 0 || scan == 0 || vh == 0 || vb == 0) {
                print "  trusted-decode gate: bench rows missing"; exit 1
            }
            bad = 0
            printf "  trusted-decode  decode_zero_copy / decode_trusted = %.2fx (floor 1.3x)\n", all / trusted
            if (all / trusted < 1.3) bad = 1
            printf "  trusted-decode  linear_scan / type_by_name_lut   = %.1fx (floor 3x)\n", scan / lut
            if (scan / lut < 3) bad = 1
            printf "  trusted-decode  binary_search / vtable_bind_hash = %.2fx (floor 1.2x)\n", vb / vh
            if (vb / vh < 1.2) bad = 1
            exit bad
        }' BENCH_static.json || { echo "bench-check: FAILED (trusted-decode fast path below its floor)"; exit 1; }
}

saturation_gate() {
    # The http_loop acceptance bar: the nonblocking server must clear 5x
    # the thread-per-connection oracle's req/s with 64 concurrent
    # keep-alive clients (pipelined framing — the serial ping-pong shape
    # is client-scheduling-bound on small hosts and reported alongside).
    # check_one has already verified the fresh run sits within 25% of the
    # committed snapshot, so gating on the snapshot gates the live server.
    awk -F'": ' '
        /"http_loop\/oracle_close_64"/   { oracle = $2 + 0 }
        /"http_loop\/nb_pipelined_64"/   { nb = $2 + 0 }
        END {
            if (oracle == 0 || nb == 0) { print "  saturation gate: http_loop benches missing"; exit 1 }
            ratio = oracle / nb
            printf "  saturation   oracle_close_64 / nb_pipelined_64 = %.1fx (floor 5x)\n", ratio
            exit ratio >= 5 ? 0 : 1
        }' BENCH_static.json || { echo "bench-check: FAILED (nonblocking server below 5x oracle saturation)"; exit 1; }
}

bench_check() {
    echo "== bench check (quick mode regression gate) =="
    # shellcheck disable=SC2086
    check_one BENCH_static.json 1.25 $STATIC_BENCHES
    saturation_gate
    trusted_decode_gate
    # shellcheck disable=SC2086
    check_one BENCH_dynamic.json 1.50 $DYNAMIC_BENCHES
}

case "${1:-}" in
bench-snapshot)
    bench_snapshot
    exit 0
    ;;
bench-check)
    bench_check
    exit 0
    ;;
esac

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== benchmark crate =="
# benchmark/ is a workspace of its own that compiles against the crates'
# public API; build and test it here so an API change that breaks it
# fails CI rather than the benchmark run.
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== corruption suites under the VerifyPreset::All default =="
# The trusted-decode presets must never leak into corruption-facing paths:
# re-run the corruption/equivalence suites (their decoders go through the
# defaults) plus the pin that full verification IS the default everywhere.
cargo test -q --test robustness --test decode_equivalence
cargo test -q --test verify_preset_equivalence full_verification_is_the_default

echo "== cargo build --benches (smoke) =="
bench_start=$SECONDS
cargo build --benches --workspace -q
bench_secs=$((SECONDS - bench_start))

echo "== wla serve --smoke =="
cargo run -q --bin wla -- serve --smoke

echo "ci: all green (bench smoke build: ${bench_secs}s)"
