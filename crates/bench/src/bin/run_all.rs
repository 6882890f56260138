//! Run every experiment binary in sequence (quick defaults).
//!
//! `cargo run --release -p dbsherlock-bench --bin run_all [-- --full]`

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "corpus_summary",
    "fig7_single_models",
    "fig8_merged_models",
    "fig9_perfxplain",
    "table2_domain_knowledge",
    "fig10_compound",
    "table3_user_study",
    "table4_tpce",
    "fig11_overfitting",
    "table5_robustness",
    "table5b_corrupted_telemetry",
    "table6_ablation",
    "fig12_parameters",
    "fig13_kappa",
    "table7_auto_detection",
    "table8_synthetic_domain",
];

fn main() {
    let passthrough: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .expect("executable directory");
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n################ {name} ################");
        let status = Command::new(exe_dir.join(name)).args(&passthrough).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name} exited with {s}");
                failures.push(*name);
            }
            Err(e) => {
                eprintln!("could not launch {name}: {e} (build binaries first: cargo build --release -p dbsherlock-bench --bins)");
                failures.push(*name);
            }
        }
    }
    if failures.is_empty() {
        println!("\nAll {} experiments completed.", EXPERIMENTS.len());
    } else {
        eprintln!("\nFailed experiments: {failures:?}");
        std::process::exit(1);
    }
}
