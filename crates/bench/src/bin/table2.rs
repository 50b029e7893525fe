//! Table 2: model accuracy versus quantization bitwidth (quantization-aware training
//! of a GCN on the two Type-III datasets).
//!
//! Usage: `cargo run -p qgtc-bench --release --bin table2`

use qgtc_bench::report::{fmt3, Table};
use qgtc_bench::{scale_from_env, table2_accuracy};

fn main() {
    let scale = scale_from_env().experiment();
    eprintln!("Table 2: accuracy vs quantization bitwidth (synthetic community graphs)");

    let rows = table2_accuracy(&scale, 21);
    let mut table = Table::new(
        "Table 2: test accuracy after quantization-aware training",
        &["dataset", "bits", "test accuracy"],
    );
    for row in &rows {
        let bits_label = if row.bits == 32 {
            "FP32".to_string()
        } else {
            format!("{} bits", row.bits)
        };
        table.add_row(vec![
            row.dataset.clone(),
            bits_label,
            fmt3(row.test_accuracy),
        ]);
    }
    table.print();
    println!(
        "Expected shape (paper): FP32 ~= 16-bit ~= 8-bit > 4-bit >> 2-bit. Absolute values differ because the graphs are synthetic."
    );
}
