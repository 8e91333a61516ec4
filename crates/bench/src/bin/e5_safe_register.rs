//! E5 — Appendix E / Corollary 7: the safe register costs a constant
//! `n·D/k = (2f/k+1)·D` bits at any concurrency, is wait-free, and the
//! lower-bound adversary cannot blow it up — the `Ω(min(f,c)·D)` bound is
//! specific to regular semantics.

use rsb_bench::{banner, experiments, print_table};
use rsb_lowerbound::AdversaryParams;
use rsb_registers::{RegisterConfig, Safe};

fn main() {
    banner(
        "E5 (Appendix E, Corollary 7)",
        "safe register: constant n·D/k storage, wait-free, escapes Ad",
    );
    let header = vec!["f", "k", "c", "peak_obj_bits", "formula_bits", "exact"];
    let mut rows = Vec::new();
    for (f, k) in [(1usize, 2usize), (2, 2), (2, 4), (4, 8)] {
        let cfg = RegisterConfig::paper(f, k, 128).unwrap();
        let proto = Safe::new(cfg);
        let formula = (cfg.n as u64) * 8 * (cfg.value_len.div_ceil(cfg.k) as u64);
        for c in [1usize, 4, 16] {
            let row = experiments::measure_storage(&proto, c, 2, 5_000 + c as u64);
            rows.push(vec![
                f.to_string(),
                k.to_string(),
                c.to_string(),
                row.peak_object_bits.to_string(),
                formula.to_string(),
                (row.peak_object_bits == formula).to_string(),
            ]);
        }
    }
    print_table("safe register, D = 1024 bits", &header, &rows);

    // The adversary stalls instead of winning.
    let cfg = RegisterConfig::paper(2, 4, 128).unwrap();
    let proto = Safe::new(cfg);
    let params = AdversaryParams {
        ell_bits: 600,
        data_bits: cfg.data_bits(),
        f: cfg.f,
        concurrency: 6,
    };
    let report = experiments::adversary_blowup(&proto, 6, params, 10_000_000);
    println!(
        "adversary Ad vs safe register: outcome {:?}, object storage {} bits (constant)",
        report.outcome, report.storage_at_stop.object_bits
    );
    println!("paper: storage exactly n·D/k at every c; Ad stalls without certifying the bound.");
}
