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
#                          and quantized-path oracles, bitwise, under
#                          RAYON_NUM_THREADS in {1, 2, 8}
#   chaos                  fault-injection chaos proptests (recoverable plans
#                          recover bitwise, unrecoverable ones fail typed),
#                          the streamed-pipeline suite and the qgtc-core
#                          executor unit tests, all under RAYON_NUM_THREADS in
#                          {1, 2, 8}; FAST shrinks the proptest case counts via
#                          QGTC_CI_FAST
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
#   examples               examples + bins must build
#   perfsmoke              tiny-scale perf gates: fused GEMM, streamed
#                          pipeline, sharded partitioner, fault-supervisor
#                          overhead, serving session  [skipped in FAST]
#   benchcheck             committed BENCH_*.json files parse, carry the
#                          expected keys, and clear their committed bars;
#                          the committed TUNE_gemm.json validates strictly
#                          (condense threshold plus its metadata)
#   doc                    cargo doc with zero warnings
#
# A wall-clock summary table of the executed stages prints at the end.
set -euo pipefail
cd "$(dirname "$0")"

FAST="${QGTC_CI_FAST:-0}"
ONLY="${QGTC_CI_STAGE:-}"
KNOWN_STAGES="fmt clippy build-release test partition-determinism backend transitions chaos condense serving qgtcbench bench-compile examples perfsmoke benchcheck doc"

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
        env QGTC_SCALE=tiny \
            QGTC_PERFSMOKE_PROBE=backend \
            QGTC_BACKEND_OUT=target/BENCH_backend.tiny.json \
            cargo run --release -p qgtc-bench --bin perfsmoke
    fi
}

transitions_stage() {
    # The layer-transition contract: the one-pass epilogue, the byte-code
    # quantize-pack and the transposing repack must match their oracles bitwise
    # whatever the width of the pool that ran the GEMM feeding them.
    local threads
    for threads in 1 2 8; do
        echo "--- RAYON_NUM_THREADS=$threads"
        env RAYON_NUM_THREADS="$threads" cargo test --test transition_props -q
        env RAYON_NUM_THREADS="$threads" cargo test --test packing_props -q
        env RAYON_NUM_THREADS="$threads" cargo test --test quantized_path_props -q
    done
}

chaos_stage() {
    # Fault determinism is keyed on (site, batch, attempt), never on thread
    # identity — so the whole chaos suite must pass unchanged at every pool
    # width, and so must the executor tests: the one batch loop prepares
    # inline on a one-thread pool and on producer shards otherwise (its unit
    # tests force the threaded branch at every width). QGTC_CI_FAST (exported
    # to the test process) shrinks the proptest case counts for quick
    # iteration.
    local threads
    for threads in 1 2 8; do
        echo "--- RAYON_NUM_THREADS=$threads"
        env RAYON_NUM_THREADS="$threads" QGTC_CI_FAST="$FAST" \
            cargo test --test chaos_pipeline -q
        env RAYON_NUM_THREADS="$threads" cargo test --test streamed_pipeline -q
        env RAYON_NUM_THREADS="$threads" cargo test -p qgtc-core --lib -q pipeline
    done
}

condense_stage() {
    # The condensed-path contract: the TC-GNN-style condensed kernel must be
    # bitwise identical to the zero-word-skip kernel and the serial oracle —
    # at the kernel level across adversarial sparsity patterns, and end to end
    # through both epoch executors and the serving session — at every pool
    # width. QGTC_CI_FAST (exported to the test process) shrinks the proptest
    # case counts.
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
            QGTC_CONDENSE_OUT=target/BENCH_condense.tiny.json \
            cargo run --release -p qgtc-bench --bin perfsmoke
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
        env QGTC_SCALE=tiny \
            QGTC_PERFSMOKE_PROBE=serving \
            QGTC_SERVING_OUT=target/BENCH_serving.tiny.json \
            cargo run --release -p qgtc-bench --bin perfsmoke
    fi
}

perfsmoke_tiny() {
    # Perf gates (see crates/bench/src/bin/perfsmoke.rs):
    #  * fused GEMM must not be slower than the plane-by-plane composition on
    #    the largest tiny-scale shape (full scale enforces 2x; committed
    #    BENCH_gemm.json);
    #  * the streamed batch pipeline must not be slower than the serial epoch
    #    loop and its modeled transfer/compute overlap must clear the scale's
    #    bar (1.0x tiny, 1.3x full; committed BENCH_pipeline.json);
    #  * the sharded partitioner must be bitwise identical to the serial oracle
    #    on all six profiles and not slower (5% tolerance; full scale also
    #    enforces a 1.5x modeled shard speedup on the largest profile;
    #    committed BENCH_partition.json);
    #  * the supervised streamed executor (checksums + fault supervisor, faults
    #    disabled) must be bitwise identical to the raw executor and not slower
    #    (15% tolerance tiny; full scale enforces the 5% overhead budget;
    #    committed BENCH_faults.json);
    #  * the serving session must replay the epoch oracle bitwise, serve cache
    #    hits bitwise-identically, run warm drains allocation-free, and clear
    #    the throughput + cache-hit-rate bars (committed BENCH_serving.json).
    env QGTC_SCALE=tiny \
        QGTC_PERFSMOKE_OUT=target/BENCH_gemm.tiny.json \
        QGTC_PIPELINE_OUT=target/BENCH_pipeline.tiny.json \
        QGTC_PARTITION_OUT=target/BENCH_partition.tiny.json \
        QGTC_BACKEND_OUT=target/BENCH_backend.tiny.json \
        QGTC_FAULTS_OUT=target/BENCH_faults.tiny.json \
        QGTC_SERVING_OUT=target/BENCH_serving.tiny.json \
        cargo run --release -p qgtc-bench --bin perfsmoke
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
stage examples cargo build --workspace --examples --bins
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
