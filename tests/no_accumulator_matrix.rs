//! The models' default forward passes materialise no `m × n` `i64`
//! accumulator matrix.
//!
//! Every GEMM of a low-bit forward runs its epilogue inside the kernel's row
//! blocks, so only `f32` rows leave the kernel.  This pins that with the
//! process-wide counter `qgtc_bitmat::fused::accumulator_matrices`, through
//! the dense and the prepared entries of both models, at a batch size whose
//! GEMMs run on the pool (~950 rows) and one whose GEMMs run inline
//! (~120 rows), on every popcount body this host runs.  The counter is
//! process-wide, so this binary holds this one test only.

use qgtc_repro::bitmat::fused::{accumulator_matrices, PopcountBody};
use qgtc_repro::gnn::models::{GnnModel, QuantizationSetting};
use qgtc_repro::gnn::{BatchedGinModel, ClusterGcnModel};
use qgtc_repro::graph::generate::{stochastic_block_model, SbmParams};
use qgtc_repro::graph::{CsrGraph, DenseSubgraph};
use qgtc_repro::kernels::backend::BackendChoice;
use qgtc_repro::kernels::bmm::{qgtc_bmm, KernelConfig};
use qgtc_repro::kernels::packing::PreparedBatch;
use qgtc_repro::tcsim::CostTracker;
use qgtc_repro::tensor::rng::random_uniform_matrix;

#[test]
fn default_forwards_materialise_no_accumulator_matrix() {
    for nodes in [950, 120] {
        let (coo, _) = stochastic_block_model(
            SbmParams {
                num_nodes: nodes,
                num_blocks: 8,
                intra_degree: 8.0,
                inter_degree: 0.5,
            },
            nodes as u64,
        );
        let graph = CsrGraph::from_coo(&coo);
        let all: Vec<usize> = (0..nodes).collect();
        let subgraph = DenseSubgraph::extract(&graph, &all);
        let features = random_uniform_matrix(nodes, 64, -1.0, 1.0, 3);
        let models = [
            ("GCN", GnnModel::ClusterGcn(ClusterGcnModel::new(64, 8, 5))),
            ("GIN", GnnModel::BatchedGin(BatchedGinModel::new(64, 8, 5))),
        ];
        for body in PopcountBody::available() {
            let config = KernelConfig {
                backend: match body {
                    PopcountBody::Portable => BackendChoice::Portable,
                    PopcountBody::Avx512 => BackendChoice::Avx512,
                },
                ..KernelConfig::default()
            };
            for bits in [2, 4] {
                let setting = QuantizationSetting::Quantized { bits };
                for (name, model) in &models {
                    let context = format!("{name}, {nodes} rows, {body:?}, {bits}-bit");
                    let before = accumulator_matrices();
                    let tracker = CostTracker::new();
                    let dense = match model {
                        GnnModel::ClusterGcn(m) => m.forward_quantized_batch(
                            &subgraph, &features, setting, &config, &tracker,
                        ),
                        GnnModel::BatchedGin(m) => m.forward_quantized_batch(
                            &subgraph, &features, setting, &config, &tracker,
                        ),
                    };
                    assert_eq!(accumulator_matrices(), before, "dense entry: {context}");

                    let prepared =
                        PreparedBatch::pack_quantized(0, subgraph.clone(), features.clone(), bits);
                    let before = accumulator_matrices();
                    let via_prepared = model.forward_prepared_quantized(
                        &prepared,
                        setting,
                        None,
                        &config,
                        &CostTracker::new(),
                    );
                    assert_eq!(accumulator_matrices(), before, "prepared entry: {context}");
                    assert_eq!(via_prepared.logits, dense.logits, "{context}");
                }
            }
        }
    }

    // The counter does see a plain product.
    let tracker = CostTracker::new();
    let stack = |rows, cols, layout| {
        let codes = random_uniform_matrix(rows, cols, 0.0, 3.9, 9).map(|&v| v as u32);
        qgtc_repro::bitmat::StackedBitMatrix::from_codes(&codes, 2, layout)
    };
    use qgtc_repro::bitmat::BitMatrixLayout::{ColPacked, RowPacked};
    let before = accumulator_matrices();
    let _ = qgtc_bmm(
        &stack(8, 64, RowPacked),
        &stack(64, 4, ColPacked),
        &KernelConfig::default(),
        &tracker,
    );
    assert_eq!(accumulator_matrices(), before + 1);
}
