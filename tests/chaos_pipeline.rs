//! Chaos suite for the fault-injection harness: random recoverable fault plans
//! over all six Table-1 dataset profiles must leave both executors' epoch output
//! **bitwise identical** to a fault-free run (with identical `fault_stats`
//! between the serial and streamed executors), while unrecoverable plans must
//! surface a typed [`QgtcError`] — never a hang, never a panic.
//!
//! Fault firing is keyed on `(site, batch, attempt)`, so the whole suite is
//! deterministic at any thread count; `ci.sh`'s chaos stage re-runs it under
//! `RAYON_NUM_THREADS` ∈ {1, 2, 8}. `QGTC_CI_FAST=1` shrinks the proptest case
//! counts for the timed CI gate.

use proptest::prelude::*;
use qgtc_repro::core::fault::FAULTS_ENV;
use qgtc_repro::core::serve::QgtcSession;
use qgtc_repro::core::{
    run_epoch, try_build_plan, try_run_epoch, try_run_epoch_streamed, BackendChoice, FaultKind,
    FaultPlan, FaultSite, FaultSpec, ModelKind, QgtcConfig, QgtcError,
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

fn tiny_config() -> QgtcConfig {
    // Pin the body `Auto` resolves to, so `fault_stats` attribute a loss to a
    // named body; every body is bitwise identical.
    QgtcConfig::qgtc(ModelKind::ClusterGcn, 2)
        .with_partitions(12, 2)
        .with_prefetch(4)
        .with_backend(resolve_auto())
}

proptest! {
    #![proptest_config(chaos_cases())]

    // Any plan of transient/corruption faults within the retry budget recovers
    // to bitwise-identical output on both executors, with identical stats.
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

        let serial = try_run_epoch(&dataset, &faulty);
        let streamed = try_run_epoch_streamed(&dataset, &faulty);
        let serial = serial.unwrap_or_else(|err| panic!("{name}: serial must recover: {err}"));
        let streamed =
            streamed.unwrap_or_else(|err| panic!("{name}: streamed must recover: {err}"));

        for report in [&serial, &streamed] {
            prop_assert_eq!(&report.cost, &clean.cost);
            prop_assert_eq!(&report.batch_costs, &clean.batch_costs);
            prop_assert_eq!(report.num_batches, clean.num_batches);
            prop_assert_eq!(report.num_nodes, clean.num_nodes);
            prop_assert_eq!(report.modeled_ms, clean.modeled_ms);
            // Recoverable plans never degrade the backend.
            prop_assert_eq!(report.fault_stats.degraded, 0);
        }
        // Fault accounting is keyed on (site, batch, attempt), so the two
        // executors must tally identically at any thread count.
        prop_assert_eq!(serial.fault_stats, streamed.fault_stats);
        // Every retry cycle of a recovered epoch must be absorbed.
        prop_assert_eq!(serial.fault_stats.retried, serial.fault_stats.recovered);
    }

    // A fault outliving the retry budget surfaces as a typed error — from both
    // executors, without hanging either stage of the streamed pipeline.
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
            // One past the budget: attempts 0..=max_batch_retries all fail.
            attempts: 3 + 2,
        };
        let faulty = tiny_config().with_fault_plan(FaultPlan::new(vec![spec]));
        for result in [
            try_run_epoch(&dataset, &faulty),
            try_run_epoch_streamed(&dataset, &faulty),
        ] {
            match result {
                Err(QgtcError::BatchFailed { batch, attempts, .. }) => {
                    prop_assert_eq!(batch, 0);
                    // The budget is 1 + max_batch_retries attempts.
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
        let serial = try_run_epoch(&dataset, &faulty).expect("seeded plans are recoverable");
        let streamed =
            try_run_epoch_streamed(&dataset, &faulty).expect("seeded plans are recoverable");
        prop_assert_eq!(&serial.cost, &clean.cost);
        prop_assert_eq!(&streamed.cost, &clean.cost);
        prop_assert_eq!(&serial.batch_costs, &clean.batch_costs);
        prop_assert_eq!(&streamed.batch_costs, &clean.batch_costs);
        prop_assert_eq!(serial.fault_stats, streamed.fault_stats);
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
        for result in [
            try_run_epoch(&dataset, &faulty),
            try_run_epoch_streamed(&dataset, &faulty),
        ] {
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
    let serial = try_run_epoch(&dataset, &faulty).expect("loss must degrade, not fail");
    let streamed = try_run_epoch_streamed(&dataset, &faulty).expect("loss must degrade");
    for report in [&serial, &streamed] {
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
    let serial = try_run_epoch(&dataset, &faulty).expect("two corruptions fit the retry budget");
    let streamed = try_run_epoch_streamed(&dataset, &faulty).expect("streamed must recover too");
    for report in [&serial, &streamed] {
        assert_eq!(report.fault_stats.injected, 2);
        assert_eq!(report.fault_stats.retried, 2);
        assert_eq!(report.fault_stats.recovered, 2);
        assert_eq!(report.fault_stats.degraded, 0);
        assert_eq!(report.cost, clean.cost);
        assert_eq!(report.batch_costs, clean.batch_costs);
    }
    assert_eq!(serial.fault_stats, streamed.fault_stats);
}

#[test]
fn backend_loss_on_portable_exhausts_the_fallback_chain() {
    let dataset = DatasetProfile::BLOGCATALOG.materialize_tiny(31);
    let faulty = tiny_config()
        .with_backend(BackendChoice::Portable)
        .with_fault_plan(FaultPlan::parse("gemm:backend-loss:0").expect("valid"));
    for result in [
        try_run_epoch(&dataset, &faulty),
        try_run_epoch_streamed(&dataset, &faulty),
    ] {
        match result {
            Err(QgtcError::BackendLost { backend, batch }) => {
                assert_eq!(backend, "portable");
                assert_eq!(batch, 0);
            }
            other => panic!("expected BackendLost, got {other:?}"),
        }
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
    for result in [
        try_run_epoch(&dataset, &loss),
        try_run_epoch_streamed(&dataset, &loss),
    ] {
        assert!(
            matches!(result, Err(QgtcError::PartitionFailed { attempts: 1 })),
            "got {result:?}"
        );
    }
}

#[test]
fn known_plan_produces_exact_stats() {
    let dataset = DatasetProfile::PROTEINS.materialize_tiny(31);
    let faulty =
        tiny_config().with_fault_plan(FaultPlan::parse("prepare:transient:0:1").expect("valid"));
    let serial = try_run_epoch(&dataset, &faulty).expect("one transient recovers");
    let streamed = try_run_epoch_streamed(&dataset, &faulty).expect("one transient recovers");
    for report in [&serial, &streamed] {
        assert_eq!(report.fault_stats.injected, 1);
        assert_eq!(report.fault_stats.retried, 1);
        assert_eq!(report.fault_stats.recovered, 1);
        assert_eq!(report.fault_stats.degraded, 0);
        assert_eq!(report.fault_stats.degraded_backend, None);
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
    for result in [
        try_run_epoch(&dataset, &config),
        try_run_epoch_streamed(&dataset, &config),
    ] {
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
    // The env path itself is covered by `FaultPlan::parse` unit tests (env
    // mutation races parallel test threads); here we pin the config-plan
    // precedence contract: an explicit plan wins over any env spec.
    assert_eq!(FAULTS_ENV, "QGTC_FAULTS");
    assert!(matches!(
        FaultPlan::parse("gemm:meltdown"),
        Err(QgtcError::InvalidFaultSpec(_))
    ));
}
