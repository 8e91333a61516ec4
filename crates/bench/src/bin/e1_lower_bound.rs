//! E1 — Theorem 1 / Lemma 3: under the adversary `Ad` with `ℓ = D/2`,
//! every black-box protocol reaches `|F| > f` or `|C⁺| = c`, certifying
//! storage `≥ min((f+1)·D/2, c·(D/2+1))` — i.e. `Ω(min(f, c)·D)`.

use rsb_bench::{banner, experiments, print_table};
use rsb_lowerbound::AdversaryParams;
use rsb_registers::{Abd, Adaptive, Coded, RegisterConfig, RegisterProtocol};

fn sweep<P: RegisterProtocol>(proto: &P, cs: &[usize]) -> Vec<Vec<String>> {
    cs.iter()
        .map(|&c| {
            let cfg = proto.config();
            let params = AdversaryParams::theorem1(cfg.data_bits(), cfg.f, c);
            let report = experiments::adversary_blowup(proto, c, params, 10_000_000);
            vec![
                proto.name().to_string(),
                c.to_string(),
                format!("{:?}", report.outcome),
                report.frozen_count.to_string(),
                report.cplus_count.to_string(),
                report.certified_bits.to_string(),
                report.guaranteed_bits.to_string(),
                report.certifies_bound().to_string(),
            ]
        })
        .collect()
}

fn main() {
    banner(
        "E1 (Theorem 1, Lemma 3)",
        "adversary Ad drives storage to Ω(min(f,c)·D); ℓ = D/2",
    );
    let header = vec![
        "protocol",
        "c",
        "outcome",
        "|F|",
        "|C+|",
        "certified",
        "Θ-bound",
        "certified≥bound",
    ];
    let cs = [1usize, 2, 4, 8, 16];

    for (f, d_bytes) in [(1usize, 1024usize), (2, 1024), (4, 2048)] {
        let abd = Abd::new(RegisterConfig::new(2 * f + 1, f, 1, d_bytes).unwrap());
        let coded = Coded::new(RegisterConfig::paper(f, 4 * f, d_bytes).unwrap());
        let adaptive = Adaptive::new(RegisterConfig::paper(f, f.max(2), d_bytes).unwrap());
        let mut rows = sweep(&abd, &cs);
        rows.extend(sweep(&coded, &cs));
        rows.extend(sweep(&adaptive, &cs));
        print_table(
            &format!("f = {f}, D = {} bits", 8 * d_bytes),
            &header,
            &rows,
        );
    }
    println!("paper: every run certifies the bound (last column true).");
}
