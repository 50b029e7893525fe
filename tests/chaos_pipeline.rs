//! Chaos suite for the fault-injection harness: random recoverable fault plans
//! over all six Table-1 dataset profiles must leave the epoch output **bitwise
//! identical** to a fault-free run, while unrecoverable plans must surface a
//! typed [`QgtcError`] — never a hang, never a panic.  Each check runs both
//! ways into the one batch loop: `try_run_epoch`, which plans inline, and
//! `try_run_epoch_with_plan` over a plan built beforehand (the call the
//! end-to-end benchmark times), which must tally identical `fault_stats`.
//! Serving sessions are checked under a backend loss too: it holds for every
//! batch at or above its index, however often a batch is served.
//!
//! Fault firing is keyed on `(site, batch, attempt)`, so the whole suite is
//! deterministic at any thread count; `ci.sh`'s chaos stage re-runs it under
//! `RAYON_NUM_THREADS` ∈ {1, 2, 8}. `QGTC_CI_FAST=1` shrinks the proptest case
//! counts for the timed CI gate.  The fault spec grammar itself is fuzzed
//! here too: any string parses to a plan or `InvalidFaultSpec`, and any plan
//! round-trips through `Display` and `FaultPlan::parse`.

use proptest::prelude::*;
use qgtc_repro::bitmat::fused::PopcountBody;
use qgtc_repro::core::serve::QgtcSession;
use qgtc_repro::core::{
    run_epoch, try_build_plan, try_run_epoch, try_run_epoch_with_plan, BackendChoice, EpochReport,
    FaultKind, FaultPlan, FaultSite, FaultSpec, FaultStats, ModelKind, QgtcConfig, QgtcError,
};
use qgtc_repro::graph::{DatasetProfile, LoadedDataset};
use qgtc_repro::kernels::backend::resolve_auto;

const SITES: [FaultSite; 4] = [
    FaultSite::Prepare,
    FaultSite::Deposit,
    FaultSite::Take,
    FaultSite::Dispatch,
];

fn chaos_cases() -> ProptestConfig {
    let fast = std::env::var("QGTC_CI_FAST").is_ok_and(|v| v == "1");
    ProptestConfig::with_cases(if fast { 6 } else { 24 })
}

fn profile_dataset(profile_idx: usize) -> (&'static str, LoadedDataset) {
    let profiles = DatasetProfile::all();
    let profile = profiles[profile_idx % profiles.len()].clone();
    (profile.name, profile.materialize_tiny(31))
}

/// The epoch under `config` both ways into the batch loop: planned inline,
/// then over a plan built fault-free beforehand.
fn both_ways(dataset: &LoadedDataset, config: &QgtcConfig) -> [Result<EpochReport, QgtcError>; 2] {
    let mut clean = config.clone();
    clean.fault_plan = FaultPlan::default();
    let (plan, _) = try_build_plan(dataset, &clean).expect("the clean config plans");
    [
        try_run_epoch(dataset, config),
        try_run_epoch_with_plan(dataset, config, &plan),
    ]
}

fn tiny_config() -> QgtcConfig {
    // Pin the body `Auto` resolves to, so `fault_stats` attribute a loss to a
    // named body; every body is bitwise identical.
    QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)
        .with_partitions(12, 2)
        .with_backend(resolve_auto())
}

proptest! {
    #![proptest_config(chaos_cases())]

    // Any plan of transient/corruption faults within the retry budget recovers
    // to bitwise-identical output both ways, with identical stats.
    #[test]
    fn recoverable_plans_recover_bitwise_on_both_executors(
        profile_idx in 0usize..6,
        raw_specs in proptest::collection::vec(
            (0usize..4, 0usize..2, 0usize..8, 1u32..3),
            1..5,
        ),
    ) {
        let (name, dataset) = profile_dataset(profile_idx);
        let config = tiny_config();
        let clean = run_epoch(&dataset, &config);

        let specs = raw_specs
            .iter()
            .map(|&(site, kind, batch, attempts)| FaultSpec {
                site: SITES[site],
                kind: if kind == 0 { FaultKind::Transient } else { FaultKind::Corruption },
                batch,
                attempts,
            })
            .collect();
        let faulty = config.clone().with_fault_plan(FaultPlan::new(specs));

        let [inline, given] = both_ways(&dataset, &faulty);
        let inline = inline.unwrap_or_else(|err| panic!("{name}: must recover: {err}"));
        let given = given.unwrap_or_else(|err| panic!("{name}: given plan must recover: {err}"));

        for report in [&inline, &given] {
            prop_assert_eq!(&report.cost, &clean.cost);
            prop_assert_eq!(&report.batch_costs, &clean.batch_costs);
            prop_assert_eq!(report.num_batches, clean.num_batches);
            prop_assert_eq!(report.num_nodes, clean.num_nodes);
            prop_assert_eq!(report.modeled_ms, clean.modeled_ms);
            // Recoverable plans never degrade the backend.
            prop_assert_eq!(report.fault_stats.degraded, 0);
        }
        // Fault accounting is keyed on (site, batch, attempt), so both ways
        // must tally identically at any thread count.
        prop_assert_eq!(inline.fault_stats, given.fault_stats);
        // Every retry cycle of a recovered epoch must be absorbed.
        prop_assert_eq!(inline.fault_stats.retried, inline.fault_stats.recovered);
    }

    // A fault outliving the retry budget surfaces as a typed error both ways.
    #[test]
    fn exhausted_retry_budgets_fail_typed_on_both_executors(
        profile_idx in 0usize..6,
        site_idx in 0usize..4,
        kind_idx in 0usize..2,
    ) {
        let (name, dataset) = profile_dataset(profile_idx);
        let kind = if kind_idx == 0 { FaultKind::Transient } else { FaultKind::Corruption };
        let mut site = SITES[site_idx];
        if kind == FaultKind::Corruption && site == FaultSite::Deposit {
            // Deposit-site corruption strikes exactly once per deposit, and the
            // consumer's repair never re-deposits — so it is recoverable by
            // construction at any `attempts` and cannot exhaust the budget.
            site = FaultSite::Take;
        }
        let spec = FaultSpec {
            site,
            kind,
            batch: 0,
            // Past the retry budget of 3: attempts 0..=3 all fail.
            attempts: 3 + 2,
        };
        let faulty = tiny_config().with_fault_plan(FaultPlan::new(vec![spec]));
        for result in both_ways(&dataset, &faulty) {
            match result {
                Err(QgtcError::BatchFailed { batch, site: failed_at, attempts, .. }) => {
                    prop_assert_eq!(batch, 0);
                    prop_assert_eq!(failed_at, site);
                    // The budget is 1 + 3 attempts.
                    prop_assert_eq!(attempts, 4);
                }
                other => prop_assert!(false, "{name}: expected BatchFailed, got {other:?}"),
            }
        }
    }

    // Seeded always-recoverable plans (the perfsmoke probe's generator) recover
    // bitwise from any seed.
    #[test]
    fn seeded_plans_recover_bitwise(seed in 0u64..10_000) {
        let dataset = DatasetProfile::PROTEINS.materialize_tiny(31);
        let config = tiny_config();
        let clean = run_epoch(&dataset, &config);
        let plan = FaultPlan::seeded_transient(seed, clean.num_batches, 2);
        let faulty = config.with_fault_plan(plan);
        let [inline, given] =
            both_ways(&dataset, &faulty).map(|r| r.expect("seeded plans are recoverable"));
        for report in [&inline, &given] {
            prop_assert_eq!(&report.cost, &clean.cost);
            prop_assert_eq!(&report.batch_costs, &clean.batch_costs);
        }
        prop_assert_eq!(inline.fault_stats, given.fault_stats);
    }
}

#[test]
fn backend_loss_degrades_to_portable_and_preserves_output() {
    let dataset = DatasetProfile::BLOGCATALOG.materialize_tiny(31);
    let config = tiny_config();
    let clean = run_epoch(&dataset, &config);
    let faulty = config.with_fault_plan(FaultPlan::parse("gemm:backend-loss:1").expect("valid"));

    if faulty.backend() == BackendChoice::Portable {
        // No AVX-512 on this host: the chain starts at its end.
        for result in both_ways(&dataset, &faulty) {
            assert!(
                matches!(
                    result,
                    Err(QgtcError::BackendLost {
                        backend: "portable",
                        batch: 1
                    })
                ),
                "got {result:?}"
            );
        }
        return;
    }
    for report in both_ways(&dataset, &faulty) {
        let report = report.expect("loss must degrade, not fail");
        assert_eq!(report.fault_stats.injected, 1);
        assert_eq!(report.fault_stats.degraded, 1);
        assert_eq!(report.fault_stats.degraded_backend, Some("portable"));
        // The conformance contract makes every backend bitwise identical, so a
        // degraded epoch still reproduces the clean output exactly.
        assert_eq!(report.cost, clean.cost);
        assert_eq!(report.batch_costs, clean.batch_costs);
    }
}

#[test]
fn gemm_corruption_recovers_bitwise_on_the_portable_body() {
    // The retry path must hold with the legacy kernel pinned on: a corrupted
    // dispatch re-runs on the portable body, and the recovered epoch must
    // still match a clean run on the detected body — the broadcast kernel
    // where AVX-512 runs — bitwise (every body is bitwise identical by
    // contract).
    let dataset = DatasetProfile::PPI.materialize_tiny(31);
    let clean = run_epoch(&dataset, &tiny_config());
    let portable = tiny_config().with_backend(BackendChoice::Portable);
    let portable_clean = run_epoch(&dataset, &portable);
    assert_eq!(portable_clean.cost, clean.cost);
    assert_eq!(portable_clean.batch_costs, clean.batch_costs);

    let faulty = portable.with_fault_plan(FaultPlan::parse("gemm:corrupt:1:2").expect("valid"));
    for report in both_ways(&dataset, &faulty) {
        let report = report.expect("two corruptions fit the retry budget");
        assert_eq!(report.fault_stats.injected, 2);
        assert_eq!(report.fault_stats.retried, 2);
        assert_eq!(report.fault_stats.recovered, 2);
        assert_eq!(report.fault_stats.degraded, 0);
        assert_eq!(report.cost, clean.cost);
        assert_eq!(report.batch_costs, clean.batch_costs);
    }
}

#[test]
fn backend_loss_on_portable_exhausts_the_fallback_chain() {
    let dataset = DatasetProfile::BLOGCATALOG.materialize_tiny(31);
    let faulty = tiny_config()
        .with_backend(BackendChoice::Portable)
        .with_fault_plan(FaultPlan::parse("gemm:backend-loss:0").expect("valid"));
    for result in both_ways(&dataset, &faulty) {
        match result {
            Err(QgtcError::BackendLost { backend, batch }) => {
                assert_eq!(backend, "portable");
                assert_eq!(batch, 0);
            }
            other => panic!("expected BackendLost, got {other:?}"),
        }
    }
}

fn all_nodes(dataset: &LoadedDataset) -> Vec<usize> {
    (0..dataset.graph.num_nodes()).collect()
}

#[test]
fn serving_a_backend_loss_again_keeps_answering_on_the_fallback() {
    let dataset = DatasetProfile::PROTEINS.materialize_tiny(31);
    let config = tiny_config();
    if config.backend() == BackendChoice::Portable {
        // No AVX-512 on this host: the chain starts at its end, which the
        // portable test below covers.
        return;
    }
    let nodes = all_nodes(&dataset);
    let mut clean = QgtcSession::new(&dataset, &config).expect("clean session");
    let clean = clean.infer(&nodes).expect("clean sweep");
    let faulty = config.with_fault_plan(FaultPlan::parse("gemm:backend-loss:0").expect("valid"));
    let mut session = QgtcSession::new(&dataset, &faulty).expect("the plan stage has no fault");
    // Serving batch 0 again must not lose the fallback body too.
    for sweep in 0..2 {
        let response = session.infer(&nodes).expect("a loss degrades, not errors");
        let degraded = response.degraded.len();
        assert_eq!(degraded, 0, "sweep {sweep}: {degraded} rows degraded");
        assert_eq!(response.logits, clean.logits, "sweep {sweep}");
    }
}

#[test]
fn serving_a_portable_backend_loss_degrades_every_batch_on_every_request() {
    let dataset = DatasetProfile::PROTEINS.materialize_tiny(31);
    let faulty = tiny_config()
        .with_backend(BackendChoice::Portable)
        .with_fault_plan(FaultPlan::parse("gemm:backend-loss:0").expect("valid"));
    let mut session = QgtcSession::new(&dataset, &faulty).expect("the plan stage has no fault");
    let nodes = all_nodes(&dataset);
    for request in 1..=2u64 {
        // No backend is left from batch 0 on, so no batch runs.
        let response = session.infer(&nodes).expect("a loss degrades, not errors");
        assert_eq!(response.degraded.len(), nodes.len());
        assert!(response.logits.data().iter().all(|&v| v == 0.0));
        let stats = session.stats();
        assert_eq!(
            stats.degraded_batches,
            request * session.num_batches() as u64
        );
        assert_eq!(stats.batches_executed, 0);
    }
}

#[test]
fn partition_faults_retry_then_fail_typed() {
    let dataset = DatasetProfile::ARTIST.materialize_tiny(31);
    let config = tiny_config();
    let clean = run_epoch(&dataset, &config);

    // Two failing attempts fit the budget of 3: full recovery.
    let transient = config
        .clone()
        .with_fault_plan(FaultPlan::parse("partition:transient:0:2").expect("valid"));
    let report = try_run_epoch(&dataset, &transient).expect("partition transients recover");
    assert_eq!(report.fault_stats.injected, 2);
    assert_eq!(report.fault_stats.retried, 2);
    assert_eq!(report.fault_stats.recovered, 2);
    assert_eq!(report.cost, clean.cost);

    // Losing the partitioner's execution resource is unrecoverable.
    let loss = config.with_fault_plan(FaultPlan::parse("partition:backend-loss").expect("valid"));
    let planned = try_build_plan(&dataset, &loss).map(|_| ());
    let epoch = try_run_epoch(&dataset, &loss).map(|_| ());
    for result in [planned, epoch] {
        assert_eq!(result, Err(QgtcError::PartitionFailed { attempts: 1 }));
    }
}

#[test]
fn known_plan_produces_exact_stats() {
    let dataset = DatasetProfile::PROTEINS.materialize_tiny(31);
    let faulty =
        tiny_config().with_fault_plan(FaultPlan::parse("prepare:transient:0:1").expect("valid"));
    for report in both_ways(&dataset, &faulty) {
        let report = report.expect("one transient recovers");
        assert_eq!(report.fault_stats.injected, 1);
        assert_eq!(report.fault_stats.retried, 1);
        assert_eq!(report.fault_stats.recovered, 1);
        assert_eq!(report.fault_stats.degraded, 0);
        assert_eq!(report.fault_stats.degraded_backend, None);
    }
}

/// One transient fault at each site that can fire.
const ONE_TRANSIENT_PER_SITE: [&str; 5] = [
    "partition:transient",
    "prepare:transient:0:1",
    "deposit:transient:0:1",
    "take:transient:0:1",
    "gemm:transient:0:1",
];

#[test]
fn one_transient_at_each_site_is_recovered_once() {
    let dataset = DatasetProfile::PROTEINS.materialize_tiny(31);
    for spec in ONE_TRANSIENT_PER_SITE {
        let faulty = tiny_config().with_fault_plan(FaultPlan::parse(spec).expect("valid"));
        let report = try_run_epoch(&dataset, &faulty).expect(spec);
        assert_eq!(report.fault_stats.recovered, 1, "{spec}");
    }
}

/// A session tallies its plan's faults as an epoch does: after one
/// full-sweep request, which runs every batch once, its counters equal the
/// epoch's `fault_stats` under the same config (a session names no
/// `degraded_backend`).  Without a plan they stay zero.
#[test]
fn a_full_sweep_session_tallies_the_epochs_faults() {
    let dataset = DatasetProfile::PROTEINS.materialize_tiny(31);
    let nodes: Vec<usize> = (0..dataset.graph.num_nodes()).collect();
    let config = tiny_config();
    let mut clean = QgtcSession::new(&dataset, &config).expect("session builds");
    clean.infer(&nodes).expect("healthy serve");
    assert_eq!(clean.stats().faults, FaultStats::default());
    for spec in ONE_TRANSIENT_PER_SITE
        .into_iter()
        .chain(["gemm:backend-loss:1"])
    {
        let faulty = tiny_config().with_fault_plan(FaultPlan::parse(spec).expect("valid"));
        let epoch = try_run_epoch(&dataset, &faulty).expect(spec).fault_stats;
        let mut session = QgtcSession::new(&dataset, &faulty).expect(spec);
        session.infer(&nodes).expect(spec);
        let served = session.stats().faults;
        assert!(served.injected > 0, "{spec}: the fault fired");
        let unattributed = FaultStats {
            degraded_backend: None,
            ..epoch
        };
        assert_eq!(served, unattributed, "{spec}");
    }
}

/// An explicit backend whose body this host cannot run is `InvalidConfig`
/// from the entry points, before partitioning; where the host runs it, the
/// same config succeeds.
#[test]
fn an_explicit_backend_the_host_lacks_is_invalid_config() {
    let dataset = DatasetProfile::PROTEINS.materialize_tiny(31);
    let config = tiny_config().with_backend(BackendChoice::Avx512);
    let epoch = try_run_epoch(&dataset, &config);
    let session = QgtcSession::new(&dataset, &config);
    if PopcountBody::Avx512.is_available() {
        assert!(epoch.is_ok());
        assert!(session.is_ok());
    } else {
        let names_the_body =
            |err| matches!(err, Some(QgtcError::InvalidConfig(m)) if m.contains("avx512"));
        assert!(names_the_body(epoch.err()));
        assert!(names_the_body(session.err()));
    }
}

#[test]
fn try_build_plan_rejects_degenerate_configs_typed() {
    let dataset = DatasetProfile::ARTIST.materialize_tiny(31);

    let mut zero_batch = tiny_config();
    zero_batch.batch_size = 0;
    assert!(matches!(
        try_build_plan(&dataset, &zero_batch),
        Err(QgtcError::InvalidConfig(_))
    ));

    let mut zero_parts = tiny_config();
    zero_parts.num_partitions = 0;
    assert!(matches!(
        try_build_plan(&dataset, &zero_parts),
        Err(QgtcError::InvalidConfig(_))
    ));

    // More partitions than nodes: the partitioner's own typed error surfaces.
    let too_many = tiny_config().with_partitions(dataset.graph.num_nodes() + 1, 2);
    assert!(matches!(
        try_build_plan(&dataset, &too_many),
        Err(QgtcError::Partition(_))
    ));

    // And a valid config yields a plan whose batch count the epoch uses.
    let (batcher, shards) = try_build_plan(&dataset, &tiny_config()).expect("valid config");
    assert!(batcher.num_batches() >= 1);
    assert!(shards >= 1);
}

#[test]
fn non_finite_features_are_a_typed_error_naming_the_first_one() {
    let clean = DatasetProfile::PROTEINS.materialize_tiny(31);
    let config = tiny_config();
    let (plan, _) = try_build_plan(&clean, &config).expect("clean features plan");
    let cols = clean.features.cols();
    for (bad, node, column) in [
        (f32::NAN, 7, 3),
        (f32::INFINITY, 0, 0),
        (f32::NEG_INFINITY, clean.graph.num_nodes() - 1, cols - 1),
    ] {
        let mut dataset = clean.clone();
        // A later bad value is not the one reported.
        dataset.features[(clean.graph.num_nodes() - 1, cols - 1)] = f32::NAN;
        dataset.features[(node, column)] = bad;
        let expected = QgtcError::NonFiniteFeature { node, column };
        assert_eq!(
            try_build_plan(&dataset, &config).map(|_| ()),
            Err(expected.clone())
        );
        assert_eq!(
            try_run_epoch(&dataset, &config).map(|_| ()),
            Err(expected.clone())
        );
        // A given plan skips the plan stage's scan; the pack's calibration
        // catches the value and reports the same one.
        assert_eq!(
            try_run_epoch_with_plan(&dataset, &config, &plan).map(|_| ()),
            Err(expected.clone())
        );
        // The dense baseline packs nothing; its batch scan reports the same one.
        let dgl = QgtcConfig::dgl_baseline(ModelKind::ClusterGcn).with_partitions(12, 2);
        assert_eq!(
            try_run_epoch_with_plan(&dataset, &dgl, &plan).map(|_| ()),
            Err(expected.clone())
        );
        assert_eq!(
            QgtcSession::new(&dataset, &config).map(|_| ()).unwrap_err(),
            expected
        );
        assert!(expected.to_string().contains(&format!("node {node}")));
    }
}

#[test]
fn finite_features_too_wide_for_f32_are_a_typed_error() {
    // ±2e38 are finite, but their difference is not: no batch holding both
    // could be given a finite quantization scale.
    let mut dataset = DatasetProfile::PROTEINS.materialize_tiny(31);
    let config = tiny_config();
    let (plan, _) = try_build_plan(&dataset, &config).expect("clean features plan");
    dataset.features[(0, 0)] = -2e38;
    dataset.features[(1, 1)] = 2e38;
    let expected = QgtcError::FeatureRangeOverflow {
        min: -2e38,
        max: 2e38,
    };
    assert_eq!(
        try_build_plan(&dataset, &config).map(|_| ()),
        Err(expected.clone())
    );
    assert_eq!(
        try_run_epoch(&dataset, &config).map(|_| ()),
        Err(expected.clone())
    );
    assert_eq!(
        try_run_epoch_with_plan(&dataset, &config, &plan).map(|_| ()),
        Err(expected.clone())
    );
    assert_eq!(
        QgtcSession::new(&dataset, &config).map(|_| ()).unwrap_err(),
        expected
    );
    // Huge values of one sign still span a representable range.
    let mut one_sided = DatasetProfile::PROTEINS.materialize_tiny(31);
    one_sided.features.data_mut().fill(3e38);
    one_sided.features[(0, 0)] = 2e38;
    assert!(try_build_plan(&one_sided, &config).is_ok());
}

/// Features the plan stage accepts (range `[0, 1.7e38]`) whose aggregated
/// activations overflow `f32`: three neighbours at the top code already sum
/// past `f32::MAX` in the first epilogue.
fn overflowing_dataset() -> LoadedDataset {
    let mut dataset = DatasetProfile::PROTEINS.materialize_tiny(31);
    dataset.features.data_mut().fill(1.7e38);
    dataset.features[(0, 0)] = 0.0;
    dataset
}

#[test]
fn overflowing_activations_fail_the_epoch_typed_on_both_executors() {
    let dataset = overflowing_dataset();
    let config = tiny_config();
    assert!(try_build_plan(&dataset, &config).is_ok());
    for result in both_ways(&dataset, &config) {
        match result {
            Err(err @ QgtcError::NonFiniteActivations { .. }) => {
                assert!(err.to_string().contains("overflowed"), "{err}");
            }
            other => panic!("expected NonFiniteActivations, got {other:?}"),
        }
    }
}

#[test]
fn serving_degrades_a_batch_whose_activations_overflow() {
    let dataset = overflowing_dataset();
    let config = tiny_config();
    let mut session = QgtcSession::new(&dataset, &config).expect("the plan stage accepts it");
    let nodes: Vec<usize> = (0..dataset.graph.num_nodes()).collect();
    let response = session
        .infer(&nodes)
        .expect("a failed batch degrades, not errors");
    assert!(!response.degraded.is_empty());
    assert!(session.stats().degraded_batches > 0);
    for (row, node) in nodes.iter().enumerate() {
        if response.degraded.contains(node) {
            assert!(response.logits.row(row).iter().all(|&v| v == 0.0));
        }
    }
    // The session survives: a second request is answered the same way.
    let again = session.infer(&nodes).expect("session still serving");
    assert_eq!(again.degraded, response.degraded);
}

#[test]
fn malformed_fault_env_spec_is_a_typed_error_not_a_silent_noop() {
    assert!(matches!(
        FaultPlan::parse("gemm:meltdown"),
        Err(QgtcError::InvalidFaultSpec(_))
    ));
}

/// Candidate words for each field of a `site:kind:batch:attempts` entry
/// (`|`-separated): the grammar's own words, numbers at and past the field
/// widths, and junk. Fields past the fourth reuse the last list.
const SPEC_FIELDS: [&str; 4] = [
    "prepare|deposit|take|gemm|dispatch|partition|PREPARE|| prepare|x|💥",
    "transient|backend-loss|corrupt|corruption|melted||é",
    "0|7|18446744073709551615|18446744073709551616|-1|+2|0x10||x",
    "1|3|4294967295|4294967296|-1|1e3|| 2|💥",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Entries of zero to five fields drawn from the grammar's words and junk,
    // with junk bytes spliced in anywhere, never panic the parser: they are
    // a plan that re-renders to itself, or `InvalidFaultSpec`.
    #[test]
    fn fault_spec_parser_returns_a_plan_or_a_typed_error_on_any_input(
        entries in proptest::collection::vec(proptest::collection::vec(any::<usize>(), 0..6), 0..5),
        bytes in proptest::collection::vec(any::<u8>(), 0..8),
        splice in any::<usize>(),
    ) {
        let entries: Vec<String> = entries
            .iter()
            .map(|fields| {
                let words: Vec<&str> = fields
                    .iter()
                    .enumerate()
                    .map(|(slot, &pick)| {
                        let words: Vec<&str> = SPEC_FIELDS[slot.min(3)].split('|').collect();
                        words[pick % words.len()]
                    })
                    .collect();
                words.join(":")
            })
            .collect();
        let mut spec = entries.join(",");
        let mut at = splice % (spec.len() + 1);
        while !spec.is_char_boundary(at) {
            at -= 1;
        }
        spec.insert_str(at, &String::from_utf8_lossy(&bytes));
        match FaultPlan::parse(&spec) {
            Ok(plan) => {
                let rendered: Vec<String> = plan.specs().iter().map(ToString::to_string).collect();
                prop_assert_eq!(FaultPlan::parse(&rendered.join(",")).ok(), Some(plan));
            }
            Err(QgtcError::InvalidFaultSpec(_)) => {}
            Err(other) => prop_assert!(false, "{spec:?}: {other:?}"),
        }
    }

    // Any plan of arbitrary specs round-trips through `Display` and `parse`.
    #[test]
    fn fault_plans_round_trip_through_display_and_parse(
        specs in proptest::collection::vec(
            (0usize..5, 0usize..3, any::<usize>(), any::<u32>()),
            0..8,
        ),
    ) {
        const ALL_SITES: [FaultSite; 5] = [
            FaultSite::Prepare,
            FaultSite::Deposit,
            FaultSite::Take,
            FaultSite::Dispatch,
            FaultSite::Partition,
        ];
        const KINDS: [FaultKind; 3] =
            [FaultKind::Transient, FaultKind::BackendLoss, FaultKind::Corruption];
        let plan = FaultPlan::new(
            specs
                .iter()
                .map(|&(site, kind, batch, attempts)| FaultSpec {
                    site: ALL_SITES[site],
                    kind: KINDS[kind],
                    batch,
                    attempts,
                })
                .collect(),
        );
        let rendered: Vec<String> = plan.specs().iter().map(ToString::to_string).collect();
        prop_assert_eq!(FaultPlan::parse(&rendered.join(",")).ok(), Some(plan));
    }
}
