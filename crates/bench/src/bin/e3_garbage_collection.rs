//! E3 — Lemma 8: after a finite burst of writes by correct writers, the
//! adaptive algorithm's storage is garbage-collected down to
//! `(2f+k)·D/k` bits (one piece per base object; up to `f` straggler
//! objects may even end empty when a write's GC overtakes its update).

use rsb_bench::{banner, experiments, print_table};
use rsb_registers::{resting_bound_bits, Adaptive, RegisterConfig};

fn main() {
    banner(
        "E3 (Lemma 8)",
        "finite writes ⇒ storage shrinks to (2f+k)·D/k bits",
    );
    let header = vec![
        "f",
        "k",
        "c",
        "peak_obj_bits",
        "resting_obj_bits",
        "bound_bits",
        "within",
    ];
    let mut rows = Vec::new();
    for (f, k) in [(1usize, 2usize), (2, 2), (2, 4), (3, 3)] {
        let cfg = RegisterConfig::paper(f, k, 128).unwrap();
        let proto = Adaptive::new(cfg);
        let bound = resting_bound_bits(&cfg);
        for c in [1usize, 2, 4, 8] {
            let row = experiments::measure_storage(&proto, c, 2, 9_000 + c as u64);
            rows.push(vec![
                f.to_string(),
                k.to_string(),
                c.to_string(),
                row.peak_object_bits.to_string(),
                row.resting_object_bits.to_string(),
                bound.to_string(),
                (row.resting_object_bits <= bound).to_string(),
            ]);
        }
    }
    print_table("adaptive, D = 1024 bits", &header, &rows);
    println!("paper: resting ≤ (2f+k)·D/k in every configuration, independent of the burst's c.");
}
