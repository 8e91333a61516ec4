//! E4 — the Θ(min(f, c)·D) dichotomy as a measured crossover: peak
//! base-object storage vs concurrency for replication (flat `O(fD)`),
//! pure coding (`O(cD)`), and the adaptive algorithm (the min of both,
//! crossing over at `c ≈ k = f`).

use rsb_bench::{banner, experiments, print_table};
use rsb_registers::{Abd, Adaptive, Coded, RegisterConfig};

fn main() {
    banner(
        "E4 (the Θ(min(f,c)·D) message)",
        "peak storage vs c: abd flat, coded linear, adaptive = min",
    );
    let header = vec!["c", "abd_bits", "coded_bits", "adaptive_bits"];
    for f in [2usize, 4, 8] {
        let k = f;
        let d_bytes = 128;
        let abd = Abd::new(RegisterConfig::new(2 * f + 1, f, 1, d_bytes).unwrap());
        let coded = Coded::new(RegisterConfig::paper(f, k, d_bytes).unwrap());
        let adaptive = Adaptive::new(RegisterConfig::paper(f, k, d_bytes).unwrap());
        let rows: Vec<Vec<String>> = [1usize, 2, 3, 4, 6, 8, 12, 16, 24, 32]
            .iter()
            .map(|&c| {
                let a = experiments::measure_storage(&abd, c, 2, 1_000 + c as u64);
                let o = experiments::measure_storage(&coded, c, 2, 2_000 + c as u64);
                let d = experiments::measure_storage(&adaptive, c, 2, 3_000 + c as u64);
                vec![
                    c.to_string(),
                    a.peak_object_bits.to_string(),
                    o.peak_object_bits.to_string(),
                    d.peak_object_bits.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("f = k = {f}, D = {} bits", 8 * d_bytes),
            &header,
            &rows,
        );
    }
    println!("paper: crossover where the coded column passes the abd column lands at c ≈ f.");
}
