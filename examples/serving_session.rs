//! The serving front end: a long-lived `QgtcSession` under request traffic.
//!
//! Builds one session over a scaled-down Proteins dataset (partition plan and
//! quantized weights built exactly once), serves a few hand-rolled requests to
//! show coalescing and the payload cache, then drives the session with the
//! deterministic open-loop load generator and prints the latency distribution
//! plus the cache/pool counters the `BENCH_serving.json` gate rests on.
//!
//! Run with: `cargo run --release --example serving_session`

use qgtc_repro::core::serve::{run_open_loop, LoadGenerator, QgtcSession};
use qgtc_repro::core::{ModelKind, QgtcConfig, QgtcError};

use qgtc_repro::graph::DatasetProfile;

fn main() -> Result<(), QgtcError> {
    let dataset = DatasetProfile::PROTEINS.materialize(0.03, 42);
    let config = QgtcConfig::qgtc(ModelKind::ClusterGcn, 2).with_partitions(16, 4);
    let mut session = QgtcSession::new(&dataset, &config)?;
    println!(
        "session: {} nodes in {} batches, weights quantized {} time(s) at build",
        dataset.graph.num_nodes(),
        session.num_batches(),
        session.stats().weight_quantizations,
    );

    // Three overlapping requests, submitted together: drain coalesces them, so
    // each touched batch is prepared and executed once.
    session.submit(vec![0, 1, 2, 3])?;
    session.submit(vec![2, 3, 4, 5])?;
    session.submit(vec![4, 5, 0, 1])?;
    let responses = session.drain()?;
    for response in &responses {
        println!(
            "ticket {} -> {} logit rows ({} degraded)",
            response.ticket,
            response.logits.rows(),
            response.degraded.len(),
        );
    }
    for response in responses {
        session.recycle_response(response);
    }
    let stats = session.stats();
    println!(
        "coalescing: {} batch touches collapsed into {} executions; cache {} hits / {} misses",
        stats.batch_touches, stats.batches_executed, stats.cache_hits, stats.cache_misses,
    );

    // Open-loop traffic: arrivals on a fixed virtual clock, so latency includes
    // queueing delay whenever the session falls behind the arrival rate.
    let load = LoadGenerator {
        seed: 7,
        requests: 200,
        nodes_per_request: 12,
        interarrival_ms: 0.05,
    };
    run_open_loop(&mut session, &load)?; // warm-up: sizes every pool buffer
    let warm_allocations = session.stats().pool.fresh_allocations;
    let summary = run_open_loop(&mut session, &load)?;
    let stats = session.stats();
    println!(
        "\nopen loop: {} requests  p50 {:.3} ms  p99 {:.3} ms  {:.0} req/s",
        summary.requests, summary.p50_ms, summary.p99_ms, summary.throughput_rps,
    );
    println!(
        "steady state: {} payload-cache hits (each a prepare skipped), {} fresh pool allocations \
         during the measured pass, weights still quantized {} time(s)",
        stats.cache_hits,
        stats.pool.fresh_allocations - warm_allocations,
        stats.weight_quantizations,
    );
    Ok(())
}
