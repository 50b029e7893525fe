#!/usr/bin/env bash
# CI gate for the QGTC reproduction workspace — named, timed, selectable stages.
#
# Runs the full verification ladder; every stage must pass. Works fully
# offline: all external dependencies are path shims under shims/.
#
# Usage:
#   ./ci.sh                        # the full ladder
#   QGTC_CI_STAGE=clippy ./ci.sh   # exactly one stage
#   QGTC_CI_FAST=1 ./ci.sh        # quick local iteration: skips the release
#                                  # build and the perf probes (perfsmoke)
#
# Stages, in order:
#   fmt                    rustfmt --check over the workspace
#   clippy                 clippy with -D warnings, all targets
#   env-guard              no .rs file under crates/ reads the environment
#                          (`env::var`) except those under crates/bench/ and
#                          crates/kernels/src/tiling.rs (QGTC_TUNE_FILE): the
#                          config is the library's only selector
#   build-release          cargo build --release            [skipped in FAST]
#   test                   cargo test --workspace (superset of tier-1)
#   partition-determinism  the sharded-partitioner == serial-oracle proptests
#                          under RAYON_NUM_THREADS in {1, 2, 8}
#   backend                every popcount body's production kernel (the
#                          broadcast kernel on avx512, the legacy kernel on
#                          portable) == serial-oracle conformance suites
#                          (backend_conformance, fused_gemm_props) under
#                          RAYON_NUM_THREADS in {1, 2, 8}, plus the tiny-scale
#                          body race (the race — and only the race — is
#                          skipped in FAST)
#   transitions            the one-pass layer transition (epilogue row pass,
#                          lane range scan, byte-code quantize-pack, transposing
#                          repack) == the four-pass composition and the packing
#                          and quantized-path oracles, the in-kernel epilogue ==
#                          the epilogue applied to the serial oracle's
#                          accumulator, and no accumulator matrix on the
#                          models' default path, bitwise, under
#                          RAYON_NUM_THREADS in {1, 2, 8}
#   chaos                  fault-injection chaos proptests (recoverable plans
#                          recover bitwise, unrecoverable ones fail typed)
#                          and the whole qgtc-core unit suite, under
#                          RAYON_NUM_THREADS in {1, 2, 8}; FAST shrinks the
#                          proptest case counts via QGTC_CI_FAST
#   condense               condensed-adjacency conformance proptests (condensed
#                          == skip == serial oracle bitwise, kernel through
#                          serving) under RAYON_NUM_THREADS in {1, 2, 8}, plus
#                          a tiny condense-threshold tune -> probe round trip
#                          against the freshly tuned table (the tune+probe —
#                          and only they — are skipped in FAST; FAST also
#                          shrinks the proptest case counts via QGTC_CI_FAST)
#   serving                served-vs-epoch-oracle equivalence tests under
#                          RAYON_NUM_THREADS in {1, 2, 8}, plus the tiny-scale
#                          serving-session probe (the probe — and only it —
#                          is skipped in FAST)
#   qgtcbench              the end-to-end benchmark's own tests, including the
#                          --quick smoke of all four workloads; it is a
#                          package outside the workspace, so no other stage
#                          builds it against the current library API
#   bench-compile          criterion benches must compile
#   examples               examples + bins must build, and the self-checking
#                          examples (quickstart, cluster_gcn_inference,
#                          quantized_path, serving_session) must run green in
#                          release: each asserts its quantize-pack, GEMM,
#                          epilogue and serving results bitwise through the
#                          public surface, so a panic on those paths fails CI
#   perfsmoke              perfsmoke's five default probes at tiny scale
#                          (zero-word skip, modeled transfer/compute overlap,
#                          sharded partitioner, backend race, serving
#                          session), each report checked by the validator
#                          benchcheck runs  [skipped in FAST]
#   benchcheck             committed BENCH_*.json files parse, carry exactly
#                          the keys their spec names, record the spec's bars
#                          for their scale and clear them; the committed
#                          TUNE_gemm.json validates strictly (condense
#                          threshold plus its metadata)
#   doc                    cargo doc with zero warnings
#
# Every tiny-scale perf report (the backend, condense and serving stages'
# single probes and the perfsmoke stage) lands in one directory,
# target/perfsmoke-tiny (TINY_REPORTS below).
#
# A wall-clock summary table of the executed stages prints at the end.
set -euo pipefail
cd "$(dirname "$0")"

FAST="${QGTC_CI_FAST:-0}"
ONLY="${QGTC_CI_STAGE:-}"
TINY_REPORTS=target/perfsmoke-tiny
KNOWN_STAGES="fmt clippy env-guard build-release test partition-determinism backend transitions chaos condense serving qgtcbench bench-compile examples perfsmoke benchcheck doc"

# Surface the stage menu up front instead of failing silently later: an unknown
# QGTC_CI_STAGE aborts immediately with the list, and an unset one announces
# the full ladder (with the same list) before running it.
if [[ -n "$ONLY" && " $KNOWN_STAGES " != *" $ONLY "* ]]; then
    echo "ci.sh: unknown stage '$ONLY'" >&2
    echo "ci.sh: available stages: $KNOWN_STAGES" >&2
    exit 1
fi
if [[ -z "$ONLY" ]]; then
    echo "ci.sh: QGTC_CI_STAGE not set — running every stage: $KNOWN_STAGES"
else
    echo "ci.sh: running stage '$ONLY'"
fi

STAGE_NAMES=()
STAGE_SECS=()
STAGE_NOTES=()

selected() {
    [[ -z "$ONLY" || "$ONLY" == "$1" ]]
}

record() { # name seconds note
    STAGE_NAMES+=("$1")
    STAGE_SECS+=("$2")
    STAGE_NOTES+=("$3")
}

stage() { # name command...
    local name="$1"
    shift
    selected "$name" || return 0
    echo
    echo "==> [$name] $*"
    local start=$SECONDS
    "$@"
    record "$name" "$((SECONDS - start))" "ok"
}

skip_stage() { # name reason
    selected "$1" || return 0
    echo
    echo "==> [$1] skipped ($2)"
    record "$1" 0 "skipped: $2"
}

partition_determinism() {
    # The proptests compare shard widths within one process; the pool's thread
    # count is fixed per process, so sweep it across processes here.
    local threads
    for threads in 1 2 8; do
        echo "--- RAYON_NUM_THREADS=$threads"
        env RAYON_NUM_THREADS="$threads" cargo test --test partition_parallel_props -q
    done
}

backend_stage() {
    # Conformance: every available popcount body (portable, and avx512 where
    # the host has VPOPCNTDQ) on the kernel it runs in production must match
    # the serial oracle bitwise and the zero-word census's statistics — GEMM,
    # skip path, sparse aggregation, epilogue, the broadcast kernel's shape
    # edges and its pooled and inline row paths — across the thread-pool
    # widths the models run under.  Conformance always runs; only the timing
    # race is elided in FAST.
    local threads
    for threads in 1 2 8; do
        echo "--- RAYON_NUM_THREADS=$threads"
        env RAYON_NUM_THREADS="$threads" cargo test --test backend_conformance -q
        env RAYON_NUM_THREADS="$threads" cargo test --test fused_gemm_props -q
    done
    if [[ "$FAST" == "1" ]]; then
        echo "--- backend race skipped (QGTC_CI_FAST=1)"
    else
        echo "--- backend race (tiny scale)"
        env QGTC_SCALE=tiny QGTC_PERFSMOKE_PROBE=backend \
            cargo run --release -p qgtc-bench --bin perfsmoke -- "$TINY_REPORTS"
    fi
}

transitions_stage() {
    # The layer-transition contract: the one-pass epilogue, the byte-code
    # quantize-pack and the transposing repack must match their oracles bitwise
    # whatever the width of the pool that ran the GEMM feeding them, and so
    # must the epilogue the GEMM runs on its own row blocks, which must leave
    # no accumulator matrix behind.
    local threads
    for threads in 1 2 8; do
        echo "--- RAYON_NUM_THREADS=$threads"
        env RAYON_NUM_THREADS="$threads" cargo test --test transition_props -q
        env RAYON_NUM_THREADS="$threads" cargo test --test packing_props -q
        env RAYON_NUM_THREADS="$threads" cargo test --test quantized_path_props -q
        env RAYON_NUM_THREADS="$threads" cargo test --test kernel_epilogue_props -q
        env RAYON_NUM_THREADS="$threads" cargo test --test no_accumulator_matrix -q
    done
}

chaos_stage() {
    # Fault determinism is keyed on (site, batch, attempt), never on thread
    # identity — so the whole chaos suite must pass unchanged at every pool
    # width, and so must qgtc-core's unit tests: the epoch loop, the serving
    # session's fault tests and the fault and config tests all run through
    # the one supervisor (the loop runs on the calling thread; only the GEMMs
    # inside it use the pool). QGTC_CI_FAST (exported to the test process)
    # shrinks the proptest case counts for quick iteration.
    local threads
    for threads in 1 2 8; do
        echo "--- RAYON_NUM_THREADS=$threads"
        env RAYON_NUM_THREADS="$threads" QGTC_CI_FAST="$FAST" \
            cargo test --test chaos_pipeline -q
        env RAYON_NUM_THREADS="$threads" cargo test -p qgtc-core --lib -q
    done
}

condense_stage() {
    # The condensed-path contract: the TC-GNN-style condensed kernel must be
    # bitwise identical to the zero-word-skip kernel and the serial oracle —
    # at the kernel level across adversarial sparsity patterns, and end to end
    # through the epoch and the serving session — at every pool width.
    # QGTC_CI_FAST (exported to the test process) shrinks the proptest case
    # counts.
    local threads
    for threads in 1 2 8; do
        echo "--- RAYON_NUM_THREADS=$threads"
        env RAYON_NUM_THREADS="$threads" QGTC_CI_FAST="$FAST" \
            cargo test --test condense_props -q
    done
    if [[ "$FAST" == "1" ]]; then
        echo "--- condense-threshold tuner + probe skipped (QGTC_CI_FAST=1)"
    else
        # Tune the Auto decision threshold at tiny scale into a scratch table,
        # then point the adjacency-path race at it: this exercises the full
        # tune-then-dispatch loop (the skip-vs-condensed race, the threshold
        # placement, the table parse, the Auto resolution) without touching
        # the committed full-scale TUNE_gemm.json.
        echo "--- condense-threshold tuner (tiny scale)"
        env QGTC_SCALE=tiny \
            QGTC_TUNE_OUT=target/TUNE_gemm.tiny.json \
            cargo run --release -p qgtc-bench --bin tilingtune
        echo "--- condense probe (tiny scale, freshly tuned threshold)"
        env QGTC_SCALE=tiny \
            QGTC_PERFSMOKE_PROBE=condense \
            QGTC_TUNE_FILE=target/TUNE_gemm.tiny.json \
            cargo run --release -p qgtc-bench --bin perfsmoke -- "$TINY_REPORTS"
    fi
}

serving_stage() {
    # The serving contract: a long-lived QgtcSession must answer bitwise what
    # the one-shot epoch pipeline computes — on every profile, after any
    # request history, at every thread-pool width — and its payload cache and
    # buffer pool must never leak stale state into a response.
    local threads
    for threads in 1 2 8; do
        echo "--- RAYON_NUM_THREADS=$threads"
        env RAYON_NUM_THREADS="$threads" cargo test --test serving_equivalence -q
    done
    if [[ "$FAST" == "1" ]]; then
        echo "--- serving probe skipped (QGTC_CI_FAST=1)"
    else
        echo "--- serving probe (tiny scale)"
        env QGTC_SCALE=tiny QGTC_PERFSMOKE_PROBE=serving \
            cargo run --release -p qgtc-bench --bin perfsmoke -- "$TINY_REPORTS"
    fi
}

perfsmoke_tiny() {
    # The five default probes (see crates/bench/src/bin/perfsmoke.rs); each
    # report's gates and bars come from its spec in
    # crates/bench/src/benchjson.rs, at their tiny-scale values.  perfsmoke
    # fails unless every report it wrote passes the validator benchcheck runs.
    env QGTC_SCALE=tiny cargo run --release -p qgtc-bench --bin perfsmoke -- "$TINY_REPORTS"
}

examples_stage() {
    # Every example and bin must build; the self-checking examples must also
    # run (under a second together in release on a 2-core host).  They assert
    # bit-exactness internally, so a broken pack, kernel or epilogue panics
    # here through the public API rather than only inside the test suites.
    cargo build --workspace --examples --bins
    local example
    for example in quickstart cluster_gcn_inference quantized_path serving_session; do
        echo "--- example $example"
        cargo run --release -q --example "$example" >/dev/null
    done
}

env_guard() {
    # A QgtcConfig field is the one selector of each choice; the tune table's
    # path is the one variable the library reads.  The bench crate's drivers
    # read their own scale and output knobs.
    local hits
    hits=$(grep -rn --include='*.rs' 'env::var' crates |
        grep -v -e '^crates/bench/' -e '^crates/kernels/src/tiling\.rs:' || true)
    if [[ -n "$hits" ]]; then
        echo "$hits"
        echo "env::var outside crates/bench/ and crates/kernels/src/tiling.rs" >&2
        return 1
    fi
}

doc_no_warnings() {
    # cargo doc exits 0 even with rustdoc warnings; capture and grep to enforce
    # the zero-warning docs gate.
    local doc_output
    doc_output=$(cargo doc --workspace --no-deps 2>&1)
    if grep -q "^warning" <<<"$doc_output"; then
        grep -A4 "^warning" <<<"$doc_output"
        echo "cargo doc produced warnings" >&2
        return 1
    fi
}

stage fmt cargo fmt --all --check
stage clippy cargo clippy --workspace --all-targets -- -D warnings
stage env-guard env_guard
if [[ "$FAST" == "1" ]]; then
    skip_stage build-release "QGTC_CI_FAST=1"
else
    stage build-release cargo build --release
fi
stage test cargo test --workspace -q # superset of the tier-1 `cargo test -q`
stage partition-determinism partition_determinism
stage backend backend_stage
stage transitions transitions_stage
stage chaos chaos_stage
stage condense condense_stage
stage serving serving_stage
stage qgtcbench cargo test --offline --manifest-path crates/bench/src/bin/qgtcbench/Cargo.toml
stage bench-compile cargo bench --no-run --workspace
stage examples examples_stage
if [[ "$FAST" == "1" ]]; then
    skip_stage perfsmoke "QGTC_CI_FAST=1"
else
    stage perfsmoke perfsmoke_tiny
fi
stage benchcheck cargo run -q -p qgtc-bench --bin benchcheck
stage doc doc_no_warnings

# Backstop against KNOWN_STAGES drifting from the stage calls above: a
# selected stage that passed the membership check but never actually ran (or
# was skipped) would otherwise exit green having verified nothing.
if [[ "${#STAGE_NAMES[@]}" -eq 0 ]]; then
    echo "ci.sh: stage '$ONLY' passed the name check but no stage ran — KNOWN_STAGES is out of sync with the stage calls" >&2
    exit 1
fi

echo
echo "== CI stage timing =="
total=0
for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-22s %4ss  %s\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "${STAGE_NOTES[$i]}"
    total=$((total + STAGE_SECS[i]))
done
printf '  %-22s %4ss\n' "total" "$total"

echo
echo "CI green."
