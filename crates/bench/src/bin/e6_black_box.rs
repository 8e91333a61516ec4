//! E6 — Definition 5 / Figure 2: black-box substitution. Replacing the
//! value of one write yields a run with an identical trace and identical
//! storage structure (per-component block sources, indices, and sizes at
//! every step); only the block contents differ.

use rsb_bench::{banner, print_table};
use rsb_coding::Value;
use rsb_lowerbound::substitution_experiment;
use rsb_registers::{Abd, Adaptive, Coded, RegisterConfig, RegisterProtocol, Safe};

fn run_for<P: RegisterProtocol>(proto: &P, writers: usize, seeds: &[u64]) -> Vec<Vec<String>> {
    let len = proto.config().value_len;
    let values: Vec<Value> = (1..=writers as u64)
        .map(|s| Value::seeded(s, len))
        .collect();
    seeds
        .iter()
        .map(|&seed| {
            let report = substitution_experiment(
                proto,
                &values,
                seed as usize % writers,
                Value::seeded(1_000 + seed, len),
                seed,
                200_000,
            );
            vec![
                proto.name().to_string(),
                seed.to_string(),
                report.steps.to_string(),
                report.structural_match.to_string(),
                report.trace_match.to_string(),
            ]
        })
        .collect()
}

fn main() {
    banner(
        "E6 (Definition 5, Figure 2)",
        "value substitution preserves the whole structural run",
    );
    let header = vec!["protocol", "seed", "steps", "structure=", "trace="];
    let cfg = RegisterConfig::paper(2, 3, 96).unwrap();
    let seeds = [0u64, 1, 2, 3, 4];
    let mut rows = Vec::new();
    rows.extend(run_for(&Adaptive::new(cfg), 3, &seeds));
    rows.extend(run_for(&Coded::new(cfg), 3, &seeds));
    rows.extend(run_for(&Safe::new(cfg), 3, &seeds));
    rows.extend(run_for(&Abd::new(cfg), 3, &seeds));
    print_table(
        "three concurrent writers, one value substituted",
        &header,
        &rows,
    );
    println!("paper: all four protocols are black-box coding algorithms — every row true/true.");
}
