//! E2 — Theorem 2 / Corollary 3: the adaptive algorithm's base-object
//! storage never exceeds `(c+1)·n·D/k` while `c < k − 1`, and never
//! `2·n·D` (= Vp + Vf caps; the paper states the looser `(2f+k)²·D`); it
//! switches from coding to replication as `c` crosses `k`.

use rsb_bench::{banner, experiments, print_table};
use rsb_registers::{theorem2_bound_bits, Adaptive, RegisterConfig};

fn main() {
    banner(
        "E2 (Theorem 2, Corollary 3)",
        "adaptive storage ≤ min((c+1)(2f+k)D/k, 2(2f+k)D); measured vs formula",
    );
    let header = vec!["f", "k", "c", "peak_obj_bits", "formula_bits", "within"];
    for (f, k, d_bytes) in [(2usize, 4usize, 128usize), (2, 6, 128), (4, 8, 256)] {
        let cfg = RegisterConfig::paper(f, k, d_bytes).unwrap();
        let proto = Adaptive::new(cfg);
        let rows: Vec<Vec<String>> = [1usize, 2, 3, 4, 6, 8, 12]
            .iter()
            .map(|&c| {
                let row = experiments::measure_storage(&proto, c, 2, 7_000 + c as u64);
                let bound = theorem2_bound_bits(&cfg, c);
                vec![
                    f.to_string(),
                    k.to_string(),
                    c.to_string(),
                    row.peak_object_bits.to_string(),
                    bound.to_string(),
                    (row.peak_object_bits <= bound).to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("n = {}, D = {} bits", cfg.n, cfg.data_bits()),
            &header,
            &rows,
        );
    }
    println!("paper: measured ≤ formula everywhere; growth is linear in c until c ≈ k, then flat.");
}
