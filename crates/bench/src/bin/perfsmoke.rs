//! perfsmoke: the probes behind the committed `BENCH_*.json` perf reports.
//!
//! Each probe is one function from the scale to its report's measured
//! fields, and [`PROBES`] lists them by name (probe `<name>` writes
//! `BENCH_<name>.json`).  A probe sets its workload up, asserts every lane
//! against its oracle before any timing, and times each lane as the minimum
//! of 3 calls after a warm-up call.  Everything else about a report — its
//! `bench` id, its keys and its gates with their bars — is declared once, in
//! `qgtc_bench::benchjson::BENCH_SPECS`: perfsmoke completes each report from
//! its spec, writes it to `<out_dir>/<file>` with the one serializer, then
//! runs `validate_bench_report` on the text it wrote (the check `benchcheck`
//! runs on the committed files) and exits non-zero if any report fails it.
//!
//! The probes:
//!
//! * `gemm` — **zero-word skipping**: the legacy kernel on the detected body
//!   with and without skipping, on a block-diagonal adjacency whose packed
//!   words are ≥90% zero, both asserted bitwise equal to the serial oracle.
//! * `pipeline` — the epoch's **modeled transfer/compute overlap**: one
//!   Cluster GCN 2-bit epoch per fig7 dataset, its per-batch counters composed
//!   serially and overlapped at 4 staging buffers (no timing).
//! * `partition` — the **sharded partitioner** against the serial sweep on
//!   the six Table-1 profiles, asserted bitwise identical before timing.
//! * `backend` — every available **popcount body** raced on the kernel it
//!   runs in production (the broadcast kernel on AVX-512, the legacy kernel on
//!   the portable body), on the headline GEMM and one aggregation per profile,
//!   each asserted equal to the portable body (bits and word statistics).
//! * `serving` — a long-lived **serving session** per fig7 dataset under the
//!   open-loop load, after asserting that a full sweep replays the epoch
//!   oracle, that cache hits answer bitwise like misses, that the weights are
//!   quantized once and that warm drains allocate nothing fresh.
//! * `condense` — the **adjacency-path race**: the condensed kernel against
//!   the legacy kernel with and without skipping, on a fragmented-sparsity
//!   sweep and one aggregation per profile, each asserted against the serial
//!   oracle; it gates the condensed kernel on the sweep and the `Auto`
//!   heuristic on the profiles.
//!
//! Usage: `cargo run --release -p qgtc-bench --bin perfsmoke [out_dir]`
//! (`out_dir` defaults to the current directory and is created if missing).
//!
//! * `QGTC_SCALE=tiny|fast|paper` — problem sizes (default `fast`; any other
//!   value exits with status 2).  `tiny` is the CI setting; the committed
//!   reports are `fast` runs.
//! * `QGTC_PERFSMOKE_PROBE=<name>` — run only that probe; any other name
//!   exits with status 2 and the list.  Unset, every probe but `condense`
//!   runs.

use qgtc_bench::benchjson::{validate_bench_report, BenchSpec, JsonValue, BENCH_SPECS};
use qgtc_bench::report::fmt3;
use qgtc_bench::{json_obj, scale_from_env, BenchScale};
use qgtc_bitmat::condense::{aggregate_adj_features_condensed, CondensedAdjacency};
use qgtc_bitmat::fused::{
    any_bit_gemm_fused_with_body, any_bit_gemm_fused_with_stats, PopcountBody,
};
use qgtc_bitmat::gemm::any_bit_gemm_serial;
use qgtc_bitmat::{BitMatrixLayout, StackedBitMatrix};
use qgtc_core::{run_epoch, run_open_loop, LoadGenerator, ModelKind, QgtcConfig, QgtcSession};
use qgtc_graph::DatasetProfile;
use qgtc_kernels::tile_reuse::random_feature_codes;
use qgtc_kernels::{adjacency_sparsity_stats, resolve_adjacency_path, AdjacencyPath};
use qgtc_partition::{partition_kway, Parallelism, PartitionConfig};
use qgtc_tcsim::DeviceModel;
use qgtc_tensor::rng::random_uniform_matrix;
use qgtc_tensor::Matrix;
use std::path::PathBuf;
use std::time::Instant;

/// One probe: its name, whether it runs when `QGTC_PERFSMOKE_PROBE` is
/// unset, and the function measuring its report's fields.
struct Probe {
    name: &'static str,
    by_default: bool,
    run: fn(BenchScale) -> JsonValue,
}

const PROBES: [Probe; 6] = [
    Probe {
        name: "gemm",
        by_default: true,
        run: gemm_probe,
    },
    Probe {
        name: "pipeline",
        by_default: true,
        run: pipeline_probe,
    },
    Probe {
        name: "partition",
        by_default: true,
        run: partition_probe,
    },
    Probe {
        name: "backend",
        by_default: true,
        run: backend_probe,
    },
    Probe {
        name: "serving",
        by_default: true,
        run: serving_probe,
    },
    Probe {
        name: "condense",
        by_default: false,
        run: condense_probe,
    },
];

impl Probe {
    fn spec(&self) -> &'static BenchSpec {
        let file = format!("BENCH_{}.json", self.name);
        BENCH_SPECS
            .iter()
            .find(|spec| spec.file == file)
            .expect("every probe has a spec")
    }
}

/// The backend race's headline bit combination: the paper's running example
/// (3-bit × 2-bit).
const HEADLINE_A_BITS: u32 = 3;
const HEADLINE_B_BITS: u32 = 2;
/// Feature bitwidth for the aggregation shapes.
const AGG_BITS: u32 = 2;
/// Timed repetitions per measurement (after one warm-up call).
const REPS: u32 = 3;

/// Minimum wall time of `REPS` calls (after one warm-up), in nanoseconds.
fn time_min<F: FnMut()>(mut f: F) -> u128 {
    f();
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .min()
        .unwrap_or(0)
}

/// `num / den`, or 0 (which fails any gate) when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A ratio or time as the reports record it: three decimals.
fn dec3(value: f64) -> f64 {
    fmt3(value).parse().unwrap_or(value)
}

/// A gated value as the reports record it: cut, not rounded, to three
/// decimals, so the written value clears a bar of at most three decimals
/// exactly when the measured one does.
fn gated(value: f64) -> f64 {
    (value * 1e3).floor() / 1e3
}

/// Headline GEMM size and aggregation batch of `scale`.
fn shape_sizes(scale: BenchScale) -> (usize, usize) {
    match scale {
        BenchScale::Tiny => (256, 128),
        _ => (1024, 512),
    }
}

/// One Table-1 aggregation shape: a `batch`-node random adjacency at the
/// profile's average degree, and its 2-bit features.
fn profile_shape(
    profile: &DatasetProfile,
    batch: usize,
    seed: u64,
) -> (StackedBitMatrix, StackedBitMatrix) {
    let density = (profile.avg_degree() / batch as f64).clamp(0.005, 0.5) as f32;
    let adjacency =
        random_uniform_matrix(batch, batch, 0.0, 1.0, seed).map(|&v| (v < density) as u32 as f32);
    let features = random_feature_codes(batch, profile.feature_dim, AGG_BITS, seed + 1);
    (
        StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked),
        StackedBitMatrix::from_codes(&features, AGG_BITS, BitMatrixLayout::ColPacked),
    )
}

/// The zero-word-skip probe: a `nodes`-node adjacency made of dense 128-node
/// diagonal communities (the batched-subgraph shape, everything off-block
/// zero) with 2-bit features, where ≥90% of the packed K-loop words are zero.
fn gemm_probe(scale: BenchScale) -> JsonValue {
    let nodes = if scale == BenchScale::Tiny {
        2048
    } else {
        4096
    };
    let (block, feature_dim, seed) = (128usize, 128usize, 30u64);
    eprintln!("perfsmoke: zero-word-skip probe ({nodes} nodes)");
    let mut adjacency: Vec<f32> = vec![0.0; nodes * nodes];
    let pattern = random_uniform_matrix(block, block, 0.0, 1.0, seed);
    for start in (0..nodes).step_by(block) {
        let width = block.min(nodes - start);
        for i in 0..width {
            for j in 0..width {
                if pattern[(i, j)] < 0.3 {
                    adjacency[(start + i) * nodes + start + j] = 1.0;
                }
            }
        }
    }
    let adjacency = Matrix::from_vec(nodes, nodes, adjacency).expect("square");
    let features = random_feature_codes(nodes, feature_dim, AGG_BITS, seed + 1);
    let adj = StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked);
    let x = StackedBitMatrix::from_codes(&features, AGG_BITS, BitMatrixLayout::ColPacked);

    let oracle = any_bit_gemm_serial(&adj, &x);
    let (skipped_out, stats) = any_bit_gemm_fused_with_stats(&adj, &x, true);
    assert_eq!(
        skipped_out, oracle,
        "zero-word skipping diverged from the serial oracle"
    );
    assert_eq!(
        any_bit_gemm_fused_with_stats(&adj, &x, false).0,
        oracle,
        "the non-skipping kernel diverged from the serial oracle"
    );
    let noskip_ns = time_min(|| {
        let _ = any_bit_gemm_fused_with_stats(&adj, &x, false);
    });
    let skip_ns = time_min(|| {
        let _ = any_bit_gemm_fused_with_stats(&adj, &x, true);
    });
    let speedup = ratio(noskip_ns as f64, skip_ns as f64);
    json_obj! {
        "reps" => REPS,
        "sparse_skip_speedup" => gated(speedup),
        "sparse_skip_ratio" => gated(stats.skip_ratio()),
        "probes" => vec![json_obj! {
            "name" => format!("block-diagonal-{nodes}x{block}"),
            "m" => nodes,
            "k" => nodes,
            "n" => feature_dim,
            "block" => block,
            "skip_ratio" => dec3(stats.skip_ratio()),
            "noskip_ns_per_op" => noskip_ns,
            "skip_ns_per_op" => skip_ns,
            "speedup" => dec3(speedup),
        }],
    }
}

/// The modeled-overlap probe: one fig7 epoch (Cluster GCN, 2-bit) per
/// dataset at 4 staging buffers, read off its pipelined latency model.
/// Small batches maximise the number of pipeline stages; the result depends
/// only on recorded work, never on timing.
fn pipeline_probe(scale: BenchScale) -> JsonValue {
    let (dataset_scale, partitions, profiles) = match scale {
        BenchScale::Tiny => (
            0.01,
            12,
            vec![DatasetProfile::PROTEINS, DatasetProfile::BLOGCATALOG],
        ),
        _ => (0.02, 32, qgtc_bench::fast_dataset_set()),
    };
    let (batch_size, prefetch) = (2, 4usize);
    eprintln!("perfsmoke: modeled overlap probe ({partitions} partitions, prefetch {prefetch})");
    let (mut total_serial, mut total_overlapped) = (0.0, 0.0);
    let mut rows = Vec::new();
    for (profile, seed) in profiles.iter().zip((40u64..).step_by(2)) {
        let dataset = profile.materialize(dataset_scale, seed);
        let config =
            QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(partitions, batch_size);
        let report = run_epoch(&dataset, &config);
        let pipeline = DeviceModel::rtx3090().estimate_pipelined(&report.batch_costs, prefetch);
        let serial = pipeline.serial_ms();
        let overlapped = pipeline.overlapped_ms();
        total_serial += serial;
        total_overlapped += overlapped;
        rows.push(json_obj! {
            "dataset" => profile.name,
            "num_batches" => report.num_batches,
            "prefetch" => prefetch,
            "modeled_serial_ms" => dec3(serial),
            "modeled_overlapped_ms" => dec3(overlapped),
            "modeled_overlap_speedup" => dec3(ratio(serial, overlapped)),
        });
    }
    json_obj! {
        "workload" => "fig7 Cluster GCN 2-bit epoch",
        "modeled_overlap_speedup" => gated(ratio(total_serial, total_overlapped)),
        "note" => "the device model schedules each epoch's per-batch transfer and compute lanes \
                   at prefetch staging buffers (overlapped) and one after another (serial); both \
                   come from recorded counters, not timing",
        "datasets" => rows,
    }
}

/// The partitioner probe: per Table-1 profile, assert the sharded
/// partitioner matches the serial oracle bitwise (doubling as warm-up), then
/// time `reps` alternating runs of each (minimum wall-clock).
fn partition_probe(scale: BenchScale) -> JsonValue {
    let (dataset_scale, reps) = match scale {
        BenchScale::Tiny => (0.01, 2usize),
        _ => (0.05, 3),
    };
    let shards = 8usize;
    eprintln!(
        "perfsmoke: sharded partitioner probe (dataset scale {dataset_scale}, {shards} shards)"
    );
    let (mut total_serial, mut total_sharded) = (0.0, 0.0);
    let mut rows = Vec::new();
    for (profile, seed) in DatasetProfile::all().iter().zip((60u64..).step_by(2)) {
        let dataset = profile.materialize(dataset_scale, seed);
        let n = dataset.graph.num_nodes();
        // Keep the paper's partition granularity roughly: a few dozen nodes per part.
        let num_parts = (n / 64).clamp(4, 512).min(n);
        let serial_config =
            PartitionConfig::with_parts(num_parts).with_parallelism(Parallelism::Serial);
        let sharded_config =
            PartitionConfig::with_parts(num_parts).with_parallelism(Parallelism::Sharded(shards));
        let serial = partition_kway(&dataset.graph, &serial_config);
        let sharded = partition_kway(&dataset.graph, &sharded_config);
        assert_eq!(
            serial, sharded,
            "sharded partitioner must match the serial oracle bitwise on {}",
            profile.name
        );
        let mut serial_wall_ms = f64::INFINITY;
        let mut sharded_wall_ms = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            let _ = partition_kway(&dataset.graph, &serial_config);
            serial_wall_ms = serial_wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            let _ = partition_kway(&dataset.graph, &sharded_config);
            sharded_wall_ms = sharded_wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        }
        total_serial += serial_wall_ms;
        total_sharded += sharded_wall_ms;
        rows.push(json_obj! {
            "dataset" => profile.name,
            "nodes" => n,
            "edges" => dataset.graph.num_edges(),
            "num_parts" => num_parts,
            "shards" => shards,
            "serial_wall_ms" => dec3(serial_wall_ms),
            "sharded_wall_ms" => dec3(sharded_wall_ms),
            "wall_speedup" => dec3(ratio(serial_wall_ms, sharded_wall_ms)),
            "edge_cut" => sharded.edge_cut,
        });
    }
    json_obj! {
        "workload" => "multilevel k-way partitioner on the six Table-1 profiles",
        "reps" => reps,
        "shards" => shards,
        "wall_speedup" => gated(ratio(total_serial, total_sharded)),
        "note" => "wall times are host wall-clock, the minimum of reps runs after a warm-up; on a \
                   single-core host the sharded partitioner degenerates to the serial sweep \
                   (parity); the probe also asserts serial and sharded produce bitwise-identical \
                   partitionings on every profile",
        "datasets" => rows,
    }
}

/// Race every available popcount body on one operand pair, each on the kernel
/// it runs in production, after asserting all of them agree bitwise (result
/// *and* word statistics) with the portable body.  Returns the row, the
/// winner's speedup over the portable body and the winner's name.
fn race_backends(
    name: &str,
    a: &StackedBitMatrix,
    b: &StackedBitMatrix,
    skip_zero_words: bool,
) -> (JsonValue, f64, &'static str) {
    let run = |body| any_bit_gemm_fused_with_body(a, b, skip_zero_words, body);
    let (oracle, oracle_stats) = run(PopcountBody::Portable);
    let mut lanes = Vec::new();
    for body in PopcountBody::available() {
        let (out, stats) = run(body);
        assert_eq!(
            out,
            oracle,
            "{} disagrees with the portable body on {name}",
            body.name()
        );
        assert_eq!(
            stats,
            oracle_stats,
            "{} word stats disagree with the portable body on {name}",
            body.name()
        );
        let ns = time_min(|| {
            let _ = run(body);
        });
        lanes.push((body.name(), ns));
    }
    let portable_ns = lanes
        .iter()
        .find(|&&(body, _)| body == "portable")
        .map(|&(_, ns)| ns)
        .expect("portable always races");
    let (winner, winner_ns) = *lanes
        .iter()
        .min_by_key(|&&(_, ns)| ns)
        .expect("portable races");
    let speedup = ratio(portable_ns as f64, winner_ns as f64);
    let per_body = lanes
        .iter()
        .map(|&(body, ns)| (body.to_string(), JsonValue::from(ns)));
    let row = json_obj! {
        "name" => name,
        "m" => a.rows(),
        "k" => a.cols(),
        "n" => b.cols(),
        "a_bits" => a.bits(),
        "b_bits" => b.bits(),
        "winner" => winner,
        "portable_ns_per_op" => portable_ns,
        "winner_ns_per_op" => winner_ns,
        "speedup_vs_portable" => dec3(speedup),
        "backend_ns_per_op" => JsonValue::Obj(per_body.collect()),
    };
    (row, speedup, winner)
}

/// The backend race: every available popcount body head to head on one
/// Table-1 aggregation shape per profile (zero-word skipping on, as the
/// models run them) and on the headline GEMM.  Portable races too, so the
/// winner is ≥1.0× by construction; the gate catches a corrupted report.
fn backend_probe(scale: BenchScale) -> JsonValue {
    let (headline_size, batch) = shape_sizes(scale);
    let bodies: Vec<&str> = PopcountBody::available().iter().map(|b| b.name()).collect();
    eprintln!("perfsmoke: backend race (headline {headline_size}^3, bodies {bodies:?})");
    let mut rows = Vec::new();
    for (profile, seed) in DatasetProfile::all().iter().zip((80u64..).step_by(2)) {
        let (adj, x) = profile_shape(profile, batch, seed);
        rows.push(race_backends(profile.name, &adj, &x, true).0);
    }
    let a_codes = random_feature_codes(headline_size, headline_size, HEADLINE_A_BITS, 91);
    let b_codes = random_feature_codes(headline_size, headline_size, HEADLINE_B_BITS, 92);
    let a = StackedBitMatrix::from_codes(&a_codes, HEADLINE_A_BITS, BitMatrixLayout::RowPacked);
    let b = StackedBitMatrix::from_codes(&b_codes, HEADLINE_B_BITS, BitMatrixLayout::ColPacked);
    let name = format!("headline-{HEADLINE_A_BITS}x{HEADLINE_B_BITS}-{headline_size}");
    let (row, speedup, winner) = race_backends(&name, &a, &b, false);
    rows.push(row);
    json_obj! {
        "reps" => REPS,
        "host_backends" => bodies,
        "headline_winner" => winner,
        "winner_speedup_vs_portable" => gated(speedup),
        "note" => "each lane is one popcount body on its production kernel (avx512: the broadcast \
                   kernel; portable: the legacy kernel), asserted bitwise-equal to the portable \
                   body (result and word statistics) before timing; hosts without AVX-512 \
                   VPOPCNTDQ race the portable body alone",
        "shapes" => rows,
    }
}

/// One serving session's measurements.
struct Served {
    row: JsonValue,
    requests: usize,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    steady_fresh_delta: u64,
}

/// Serve one dataset: build a session, assert the serving correctness
/// contracts (oracle replay, hit == miss bitwise, once-per-session weight
/// quantization), warm the pool, then measure a second identical open-loop
/// pass, asserting it performed zero fresh pool-managed allocations.
fn serve_dataset(
    profile: &DatasetProfile,
    dataset_scale: f64,
    partitions: usize,
    load: &LoadGenerator,
    seed: u64,
) -> Served {
    let dataset = profile.materialize(dataset_scale, seed);
    let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(partitions, 2);
    let mut session =
        QgtcSession::new(&dataset, &config).expect("no faults configured: session builds");

    // 1. One request over every node replays the epoch oracle: identical cost
    //    counters, one execution per batch, weights quantized once (at build).
    let nodes: Vec<usize> = (0..dataset.graph.num_nodes()).collect();
    let cold = session.infer(&nodes).expect("healthy serve");
    let epoch = run_epoch(&dataset, &config);
    assert_eq!(
        session.cost_snapshot(),
        epoch.cost,
        "a full-sweep request must record exactly one epoch of work on {}",
        profile.name
    );
    assert_eq!(session.stats().batches_executed as usize, epoch.num_batches);
    assert_eq!(
        session.stats().weight_quantizations,
        epoch.weight_quantizations,
        "weights must be quantized once per session on {}",
        profile.name
    );
    // 2. A cache-hit replay is bitwise identical to the cold serve and skips
    //    every prepare.
    let warm = session.infer(&nodes).expect("healthy serve");
    assert_eq!(
        cold.logits, warm.logits,
        "cache hits must serve bitwise-identical logits on {}",
        profile.name
    );
    assert_eq!(
        session.stats().cache_hits,
        epoch.num_batches as u64,
        "the replay must come entirely from the payload cache on {}",
        profile.name
    );
    session.recycle_response(cold);
    session.recycle_response(warm);

    // Warm the pool against the worst-case burst: drain grouping in the open
    // loop follows *measured* wall time, so a slow drain can leave the entire
    // trace in flight at once.  Submitting the whole trace and draining it
    // once sizes the pool for that bound, making the zero-allocation gate
    // below deterministic.
    for index in 0..load.requests {
        let mut buffer = session.request_buffer();
        load.fill_request(index, dataset.graph.num_nodes(), &mut buffer);
        session.submit(buffer).expect("healthy serve");
    }
    for response in session.drain().expect("healthy serve") {
        session.recycle_response(response);
    }
    // Warm-up open-loop pass, then the measured one over identical traffic.
    run_open_loop(&mut session, load).expect("healthy serve");
    let warm_allocations = session.stats().pool.fresh_allocations;
    let summary = run_open_loop(&mut session, load).expect("healthy serve");
    let steady_fresh_delta = session.stats().pool.fresh_allocations - warm_allocations;
    assert_eq!(
        steady_fresh_delta, 0,
        "warm serving must run entirely on recycled buffers on {}",
        profile.name
    );
    assert_eq!(
        session.stats().weight_quantizations,
        epoch.weight_quantizations,
        "traffic must never re-quantize the session's weights on {}",
        profile.name
    );

    let stats = session.stats();
    Served {
        row: json_obj! {
            "dataset" => profile.name,
            "num_batches" => session.num_batches(),
            "requests" => summary.requests,
            "p50_ms" => dec3(summary.p50_ms),
            "p99_ms" => dec3(summary.p99_ms),
            "throughput_rps" => dec3(summary.throughput_rps),
            "cache_hits" => stats.cache_hits,
            "cache_misses" => stats.cache_misses,
            "cache_hit_rate" => dec3(ratio(
                stats.cache_hits as f64,
                (stats.cache_hits + stats.cache_misses) as f64,
            )),
            "steady_state_fresh_allocations" => steady_fresh_delta,
            "weight_quantizations" => stats.weight_quantizations,
        },
        requests: summary.requests,
        throughput_rps: summary.throughput_rps,
        p50_ms: summary.p50_ms,
        p99_ms: summary.p99_ms,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        steady_fresh_delta,
    }
}

/// The serving probe: open-loop latency and throughput of a long-lived
/// `QgtcSession` per fig7 dataset.  The hard correctness contracts are
/// asserted in [`serve_dataset`]; the bars on throughput, hit rate and the
/// recorded booleans catch a stale or hand-mangled committed report.
fn serving_probe(scale: BenchScale) -> JsonValue {
    let (dataset_scale, partitions, load, profiles) = match scale {
        BenchScale::Tiny => (
            0.01,
            12,
            LoadGenerator {
                seed: 404,
                requests: 60,
                nodes_per_request: 8,
                interarrival_ms: 0.05,
            },
            vec![DatasetProfile::PROTEINS, DatasetProfile::BLOGCATALOG],
        ),
        _ => (
            0.02,
            32,
            LoadGenerator {
                seed: 404,
                requests: 200,
                nodes_per_request: 16,
                interarrival_ms: 0.1,
            },
            qgtc_bench::fast_dataset_set(),
        ),
    };
    eprintln!(
        "perfsmoke: serving-session probe ({partitions} partitions, {} requests x {} nodes)",
        load.requests, load.nodes_per_request,
    );
    let served: Vec<Served> = profiles
        .iter()
        .zip((140u64..).step_by(2))
        .map(|(profile, seed)| serve_dataset(profile, dataset_scale, partitions, &load, seed))
        .collect();
    let total_requests: usize = served.iter().map(|s| s.requests).sum();
    let total_virtual_s: f64 = served
        .iter()
        .map(|s| ratio(s.requests as f64, s.throughput_rps))
        .sum();
    let cache_hits: u64 = served.iter().map(|s| s.cache_hits).sum();
    let cache_misses: u64 = served.iter().map(|s| s.cache_misses).sum();
    let steady_total: u64 = served.iter().map(|s| s.steady_fresh_delta).sum();
    let worst = |ms: fn(&Served) -> f64| served.iter().map(ms).fold(0.0f64, f64::max);
    json_obj! {
        "workload" => "fig7 Cluster GCN 2-bit open-loop serving (one long-lived session per dataset)",
        "reps" => REPS,
        "requests_per_dataset" => load.requests,
        "nodes_per_request" => load.nodes_per_request,
        "interarrival_ms" => dec3(load.interarrival_ms),
        "p50_ms" => dec3(worst(|s| s.p50_ms)),
        "p99_ms" => dec3(worst(|s| s.p99_ms)),
        "throughput_rps" => gated(ratio(total_requests as f64, total_virtual_s)),
        "cache_hit_rate" => gated(ratio(cache_hits as f64, (cache_hits + cache_misses) as f64)),
        "cache_hits" => cache_hits,
        "steady_state_fresh_allocations" => steady_total,
        // Asserted in `serve_dataset`, recorded so a committed report edited
        // to 0 fails its bar of 1.
        "pool_steady_state_ok" => u64::from(steady_total == 0),
        "weights_quantized_once_ok" => 1u64,
        "oracle_match_ok" => 1u64,
        "note" => "before timing, each session is asserted to replay the epoch oracle's cost \
                   counters exactly on a full-sweep request, to serve bitwise-identical logits \
                   from cache hits, to quantize its weights exactly once (at build), and to \
                   perform zero fresh pool-managed allocations on the warm (measured) open-loop \
                   pass; latency is arrival-to-response on the open-loop virtual clock, so it \
                   includes queueing delay",
        "datasets" => served.into_iter().map(|s| s.row).collect::<Vec<_>>(),
    }
}

/// The fragmented-sparsity generator: every 16-row window shares `spread`
/// columns, one per contiguous 64-column region.  At partial spread the
/// nonzero words are scattered one-word spans — the span index skips most of
/// the K loop but pays its per-span setup on every surviving word, the skip
/// kernel's worst case and the workload condensation was built for.  At full
/// spread every K word is nonzero and the spans fuse into one contiguous run
/// per row, which is the skip kernel's *best* case — the stress row the Auto
/// heuristic must hand back to the skip path.
fn fragmented_sweep_adjacency(n: usize, spread: usize) -> StackedBitMatrix {
    let regions = (n / 64).max(1);
    let spread = spread.clamp(1, regions);
    let mut adjacency: Matrix<f32> = Matrix::zeros(n, n);
    for w in 0..n.div_ceil(16) {
        for s in 0..spread {
            // A window-dependent column inside each of `spread` regions,
            // striding regions so different windows hit different words.
            let region = (s * regions) / spread;
            let col = region * 64 + (w * 11 + s * 7) % 64;
            for r in w * 16..((w + 1) * 16).min(n) {
                adjacency.row_mut(r)[col] = 1.0;
            }
        }
    }
    StackedBitMatrix::from_binary_adjacency(&adjacency, BitMatrixLayout::RowPacked)
}

/// Race one adjacency: assert every candidate against the serial oracle, then
/// time the legacy kernel without and with zero-word skipping, condensed,
/// and the `Auto`-resolved lane (re-timed independently for the report; the
/// efficiency gate itself reads the fixed lanes' timings).  Returns the row,
/// the condensed speedup over skip, and the `Auto` efficiency: how close the
/// `Auto`-chosen lane came to the best fixed choice on the fixed lanes' own
/// timings (1.0 = the heuristic picked the winner), since re-timing the same
/// kernel at sub-millisecond sizes carries more noise than the gate's
/// tolerance.
fn probe_condense_shape(
    name: &str,
    adj: &StackedBitMatrix,
    x: &StackedBitMatrix,
) -> (JsonValue, f64, f64) {
    let body = PopcountBody::detect();
    let cond = CondensedAdjacency::from_stack(adj);

    let oracle = any_bit_gemm_serial(adj, x);
    assert_eq!(
        any_bit_gemm_fused_with_stats(adj, x, false).0,
        oracle,
        "plain fused aggregation diverged from the serial oracle on {name}"
    );
    let (skip_out, _) = any_bit_gemm_fused_with_stats(adj, x, true);
    assert_eq!(
        skip_out, oracle,
        "zero-word-skip aggregation diverged from the serial oracle on {name}"
    );
    let (cond_out, _) = aggregate_adj_features_condensed(&cond, x, body);
    assert_eq!(
        cond_out, oracle,
        "condensed aggregation diverged from the serial oracle on {name}"
    );

    let plain_ns = time_min(|| {
        let _ = any_bit_gemm_fused_with_stats(adj, x, false);
    });
    let skip_ns = time_min(|| {
        let _ = any_bit_gemm_fused_with_stats(adj, x, true);
    });
    // The condensed translation is built once at prepare time and amortized by
    // the payload cache, so the race times the kernel over the prebuilt form.
    let condensed_ns = time_min(|| {
        let _ = aggregate_adj_features_condensed(&cond, x, body);
    });
    let auto_path = resolve_adjacency_path(AdjacencyPath::Auto, adj);
    let (auto_ns, chosen_ns) = match auto_path {
        AdjacencyPath::Condensed => (
            time_min(|| {
                let _ = aggregate_adj_features_condensed(&cond, x, body);
            }),
            condensed_ns,
        ),
        _ => (
            time_min(|| {
                let _ = any_bit_gemm_fused_with_stats(adj, x, true);
            }),
            skip_ns,
        ),
    };
    let condensed_vs_skip = ratio(skip_ns as f64, condensed_ns as f64);
    let auto_efficiency = ratio(skip_ns.min(condensed_ns) as f64, chosen_ns as f64);
    let sparsity = adjacency_sparsity_stats(adj);
    let row = json_obj! {
        "name" => name,
        "m" => adj.rows(),
        "n" => x.cols(),
        "plain_ns" => plain_ns,
        "skip_ns" => skip_ns,
        "condensed_ns" => condensed_ns,
        "auto_ns" => auto_ns,
        "auto_path" => auto_path.name(),
        "condensed_vs_skip" => dec3(condensed_vs_skip),
        "auto_efficiency" => dec3(auto_efficiency),
        "condensation_ratio" => dec3(cond.condensation_ratio()),
        "nonzero_word_ratio" => dec3(sparsity.nonzero_word_ratio()),
        "fragmentation" => dec3(sparsity.fragmentation()),
    };
    (row, condensed_vs_skip, auto_efficiency)
}

/// The adjacency-path race: condensed vs zero-word-skip vs plain fused on the
/// fragmented-sparsity sweep plus every Table-1 profile shape.  The gated
/// headline is the best sweep row: condensation must beat the span index
/// decisively somewhere on the fragmentation axis, while the full-spread
/// stress row documents where skip recovers and `Auto` must hand the batch
/// back.  On the profile shapes `Auto` must not mispredict.
fn condense_probe(scale: BenchScale) -> JsonValue {
    let (frag_nodes, frag_dim) = match scale {
        BenchScale::Tiny => (512usize, 64usize),
        _ => (4096, 128),
    };
    let batch = shape_sizes(scale).1;
    eprintln!(
        "perfsmoke: adjacency-path race (fragmented {frag_nodes}x{frag_dim}, body {}, condense \
         threshold {})",
        PopcountBody::detect().name(),
        qgtc_kernels::condense_threshold(),
    );
    let mut rows = Vec::new();
    let regions = frag_nodes / 64;
    let (mut fragmented_speedup, mut fragmented_probe) = (0.0f64, "");
    for (label, spread) in [
        ("fragmented-25", regions / 4),
        ("fragmented-50", regions / 2),
        ("fragmented-100", regions),
    ] {
        let adj = fragmented_sweep_adjacency(frag_nodes, spread.max(1));
        let features = random_feature_codes(frag_nodes, frag_dim, AGG_BITS, 200 + spread as u64);
        let x = StackedBitMatrix::from_codes(&features, AGG_BITS, BitMatrixLayout::ColPacked);
        let (row, condensed_vs_skip, _) = probe_condense_shape(label, &adj, &x);
        if condensed_vs_skip > fragmented_speedup {
            (fragmented_speedup, fragmented_probe) = (condensed_vs_skip, label);
        }
        rows.push(row);
    }
    let mut auto_worst_efficiency = f64::INFINITY;
    for (profile, seed) in DatasetProfile::all().iter().zip((240u64..).step_by(2)) {
        let (adj, x) = profile_shape(profile, batch, seed);
        let (row, _, auto_efficiency) = probe_condense_shape(profile.name, &adj, &x);
        auto_worst_efficiency = auto_worst_efficiency.min(auto_efficiency);
        rows.push(row);
    }
    json_obj! {
        "reps" => REPS,
        "body" => PopcountBody::detect().name(),
        "condense_threshold" => dec3(qgtc_kernels::condense_threshold()),
        "fragmented_speedup" => gated(fragmented_speedup),
        "fragmented_probe" => fragmented_probe,
        "auto_worst_efficiency" => gated(auto_worst_efficiency),
        "note" => "plain = fused kernel without skipping; skip = the zero-word-skip kernel; \
                   condensed = the TC-GNN-style condensed walk over the prepare-time \
                   CondensedAdjacency (translation built once per payload, amortized by the \
                   serving cache, excluded from the timed region); fragmented_speedup = condensed \
                   vs skip on the best fragmented-sweep row (fragmented_probe names it; the \
                   full-spread row is skip's best case and stays as an ungated stress row); \
                   auto_efficiency compares the Auto-chosen lane against the best fixed lane on \
                   the fixed lanes' own timings, so it gates mispredictions without double-timing \
                   noise (auto_ns is the independently re-timed dispatch, informational); every \
                   candidate is asserted bitwise equal to the portable plane-by-plane oracle \
                   before timing",
        "shapes" => rows,
    }
}

fn main() {
    let scale = scale_from_env();
    let out_dir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".to_string()));
    let selected: Vec<&Probe> = match std::env::var("QGTC_PERFSMOKE_PROBE") {
        Err(_) => PROBES.iter().filter(|probe| probe.by_default).collect(),
        Ok(name) => match PROBES.iter().find(|probe| probe.name == name) {
            Some(probe) => vec![probe],
            None => {
                let names: Vec<&str> = PROBES.iter().map(|probe| probe.name).collect();
                eprintln!(
                    "perfsmoke FAIL: unknown QGTC_PERFSMOKE_PROBE {name:?}; valid probes: {}",
                    names.join(", ")
                );
                std::process::exit(2);
            }
        },
    };
    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfsmoke FAIL: cannot create {}: {err}", out_dir.display());
        std::process::exit(1);
    }
    let mut failed = false;
    for probe in selected {
        let spec = probe.spec();
        let path = out_dir.join(spec.file);
        let verdict = spec
            .report(scale, (probe.run)(scale))
            .to_json()
            .and_then(|text| {
                std::fs::write(&path, &text)
                    .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
                eprintln!("perfsmoke: wrote {}", path.display());
                validate_bench_report(spec, &text)
            });
        match verdict {
            Ok(summary) => eprintln!("perfsmoke OK: {summary}"),
            Err(reason) => {
                eprintln!("perfsmoke FAIL: {reason}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_probe_writes_its_own_spec() {
        let files: Vec<&str> = PROBES.iter().map(|probe| probe.spec().file).collect();
        let specs: Vec<&str> = BENCH_SPECS.iter().map(|spec| spec.file).collect();
        assert_eq!(files, specs);
    }
}
