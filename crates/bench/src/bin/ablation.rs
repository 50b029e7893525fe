//! Kernel-optimisation ablation: end-to-end modeled latency of the QGTC path with
//! each optimisation disabled in turn (complements Figures 8 and 10 with an
//! end-to-end view).
//!
//! Usage: `cargo run -p qgtc-bench --release --bin ablation`

use qgtc_bench::report::{fmt3, Table};
use qgtc_bench::{ablation_kernel_optimisations, scale_from_env};
use qgtc_graph::DatasetProfile;

fn main() {
    let scale = scale_from_env().experiment();
    let profile = DatasetProfile::PROTEINS;
    eprintln!(
        "Ablation on {} (scale {}): QGTC 4-bit Cluster GCN",
        profile.name, scale.dataset_scale
    );

    let rows = ablation_kernel_optimisations(&profile, &scale, 29);
    let baseline = rows[0].modeled_ms;
    let mut table = Table::new(
        "Kernel optimisation ablation (Cluster GCN, 4-bit)",
        &["configuration", "modeled latency (ms)", "slowdown vs full"],
    );
    for row in &rows {
        table.add_row(vec![
            row.label.clone(),
            fmt3(row.modeled_ms),
            format!("{:.3}x", row.modeled_ms / baseline),
        ]);
    }
    table.print();
}
