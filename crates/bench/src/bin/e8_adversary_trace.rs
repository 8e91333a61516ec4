//! E8 — Figure 3: a step-by-step trace of the adversary `Ad` working over
//! four concurrent writers, showing the freezing of base objects (`F`)
//! and the migration of writes between `C⁻` and `C⁺`, exactly the
//! scenario the paper's figure illustrates (with `2D/5 < ℓ < D`).

use rsb_bench::banner;
use rsb_coding::Value;
use rsb_fpsm::{OpRequest, Scheduler};
use rsb_lowerbound::{AdversaryAd, AdversaryParams, Snapshot};
use rsb_registers::{Coded, RegisterConfig, RegisterProtocol};

fn main() {
    banner(
        "E8 (Figure 3)",
        "adversary trace: freezing and C⁻/C⁺ transitions, 4 writers, 2D/5 < ℓ < D",
    );
    // Pure-coded protocol, k = 8 pieces of D/8 bits; ℓ = D/2 ∈ (2D/5, D):
    // an object freezes after 3 new pieces (plus v₀'s), a write enters C⁺
    // after 5 pieces — the same dynamics the paper's figure walks through.
    let cfg = RegisterConfig::paper(2, 8, 160).unwrap(); // n = 12, D = 1280
    let proto = Coded::new(cfg);
    let mut sim = proto.new_sim();
    for i in 0..4u64 {
        let w = proto.add_client(&mut sim);
        sim.invoke(w, OpRequest::Write(Value::seeded(i + 1, 160)))
            .expect("fresh writers");
    }
    let params = AdversaryParams::theorem1(cfg.data_bits(), cfg.f, 4);
    println!(
        "n = {}, D = {} bits, ℓ = {} bits, piece = {} bits",
        cfg.n,
        params.data_bits,
        params.ell_bits,
        params.data_bits / cfg.k as u64
    );
    println!();

    let mut ad = AdversaryAd::new(params);
    let mut step = 0u64;
    let mut last = Snapshot::capture(&sim, &params);
    while let Some(ev) = Scheduler::<_, _>::next_event(&mut ad, &sim) {
        sim.step(ev).expect("adversary picks enabled events");
        step += 1;
        let snap = Snapshot::capture(&sim, &params);
        if snap.frozen != last.frozen || snap.cplus != last.cplus {
            let frozen: Vec<String> = snap
                .frozen
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            let cplus: Vec<String> = snap
                .cplus
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            let contributed: Vec<String> = snap
                .contributed
                .iter()
                .map(|(op, bits)| format!("{op}:{bits}"))
                .collect();
            println!(
                "t={step:<5} {ev:?}\n         F = {{{}}}  C+ = {{{}}}  ‖S(t,w)‖ = {{{}}}",
                frozen.join(", "),
                cplus.join(", "),
                contributed.join(", ")
            );
            last = snap;
        }
    }
    println!();
    println!(
        "stopped: {:?} after {step} events; storage {}",
        ad.outcome().unwrap(),
        sim.storage_cost()
    );
    println!("paper (Fig. 3): blocks accumulate until objects freeze (join F) and writes");
    println!("cross the D−ℓ threshold into C⁺; overwrites can move a write back to C⁻.");
}
