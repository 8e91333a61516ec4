//! End-to-end lower-bound sweeps: the Theorem-1 dichotomy certifies for a
//! grid of protocols and parameters, and the Θ(min(f,c)·D) shape emerges
//! from measured storage.

use rsb_bench::experiments;
use rsb_coding::Value;
use rsb_fpsm::OpRequest;
use rsb_lowerbound::{AdversaryAd, AdversaryParams};
use rsb_registers::{Abd, Adaptive, Coded, RegisterConfig, RegisterProtocol};

#[test]
fn dichotomy_certifies_across_grid() {
    for f in [1usize, 2] {
        for c in [1usize, 2, 4, 6] {
            let d_bytes = 64;
            let abd = Abd::new(RegisterConfig::new(2 * f + 1, f, 1, d_bytes).unwrap());
            let coded = Coded::new(RegisterConfig::paper(f, 4, d_bytes).unwrap());
            let adaptive = Adaptive::new(RegisterConfig::paper(f, 2, d_bytes).unwrap());
            for report in [
                experiments::adversary_blowup(
                    &abd,
                    c,
                    AdversaryParams::theorem1(8 * d_bytes as u64, f, c),
                    2_000_000,
                ),
                experiments::adversary_blowup(
                    &coded,
                    c,
                    AdversaryParams::theorem1(8 * d_bytes as u64, f, c),
                    2_000_000,
                ),
                experiments::adversary_blowup(
                    &adaptive,
                    c,
                    AdversaryParams::theorem1(8 * d_bytes as u64, f, c),
                    2_000_000,
                ),
            ] {
                assert!(report.certifies_bound(), "f={f} c={c}: {report:?}");
            }
        }
    }
}

/// Peak object bits at `c = 1, 4, 8`, each run seeded `seed ^ c`.
fn peaks_over_c<P: RegisterProtocol>(proto: &P, seed: u64) -> Vec<u64> {
    [1usize, 4, 8]
        .iter()
        .map(|&c| experiments::measure_storage(proto, c, 2, seed ^ c as u64).peak_object_bits)
        .collect()
}

#[test]
fn coded_storage_grows_with_c_and_abd_does_not() {
    let f = 3;
    let abd = Abd::new(RegisterConfig::new(2 * f + 1, f, 1, 64).unwrap());
    let coded = Coded::new(RegisterConfig::paper(f, f, 64).unwrap());
    let abd_peaks = peaks_over_c(&abd, 50);
    let coded_peaks = peaks_over_c(&coded, 60);
    // ABD flat.
    assert_eq!(abd_peaks[0], abd_peaks[2]);
    // Coded at c = 8 strictly above c = 1 (the concurrency cost).
    assert!(coded_peaks[2] > coded_peaks[0], "{coded_peaks:?}");
}

#[test]
fn adaptive_tracks_the_min_side() {
    // For large c the adaptive peak must stay below pure coding's peak
    // (it flattens at 2nD instead of growing with c).
    let f = 4;
    let coded = Coded::new(RegisterConfig::paper(f, f, 64).unwrap());
    let adaptive = Adaptive::new(RegisterConfig::paper(f, f, 64).unwrap());
    let c = 24;
    let coded_peak = experiments::measure_storage(&coded, c, 2, 70).peak_object_bits;
    let adaptive_peak = experiments::measure_storage(&adaptive, c, 2, 80).peak_object_bits;
    assert!(
        adaptive_peak < coded_peak,
        "adaptive {adaptive_peak} should beat coded {coded_peak} at c = {c}"
    );
}

#[test]
// The expectation spells out both arms of the theorem's min even though the
// winner is statically known; keep the formula legible.
#[allow(clippy::unnecessary_min_or_max)]
fn guaranteed_bits_formula_matches_theorem1() {
    // min((f+1)·D/2, c·(D/2+1)) with ℓ = D/2.
    let params = AdversaryParams::theorem1(1024, 3, 2);
    assert_eq!(params.guaranteed_bits(), (4 * 512).min(2 * (512 + 1)));
    let params = AdversaryParams::theorem1(1024, 1, 50);
    assert_eq!(params.guaranteed_bits(), 2 * 512);
}

#[test]
fn substitution_holds_under_adversarial_schedule_too() {
    // Definition 5 quantifies over ALL runs; check it along an
    // adversary-driven run, not just random ones.
    use rsb_fpsm::Scheduler;
    let cfg = RegisterConfig::paper(1, 2, 32).unwrap();
    let proto = Coded::new(cfg);
    let values: Vec<Value> = (1..=3).map(|s| Value::seeded(s, 32)).collect();

    let build = |vals: &[Value]| {
        let mut sim = proto.new_sim();
        for v in vals {
            let w = proto.add_client(&mut sim);
            sim.invoke(w, OpRequest::Write(v.clone())).unwrap();
        }
        sim
    };
    let mut substituted = values.clone();
    substituted[2] = Value::seeded(77, 32);

    let params = AdversaryParams::theorem1(cfg.data_bits(), cfg.f, 3);
    let mut sim_a = build(&values);
    let mut sim_b = build(&substituted);
    let mut ad = AdversaryAd::new(params);
    // Drive run A with Ad; replay the identical event sequence on run B.
    for _ in 0..100_000 {
        match Scheduler::<_, _>::next_event(&mut ad, &sim_a) {
            Some(ev) => {
                sim_a.step(ev).unwrap();
                sim_b.step(ev).expect("black-box runs stay in lockstep");
            }
            None => break,
        }
    }
    // Identical structure: same per-component sources/sizes.
    let structure = |sim: &rsb_fpsm::Simulation<_, _>| {
        sim.component_blocks()
            .into_iter()
            .map(|(c, b)| (format!("{c:?}"), b))
            .collect::<Vec<_>>()
    };
    assert_eq!(structure(&sim_a), structure(&sim_b));
    assert_eq!(sim_a.storage_cost(), sim_b.storage_cost());
}
