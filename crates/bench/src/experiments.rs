//! Experiment drivers regenerating the paper's quantitative claims.
//!
//! Each function here backs one experiment (E1–E5, named on each item);
//! the binaries print the resulting rows.

use rsb_coding::Value;
use rsb_fpsm::{run, FairScheduler, OpRequest};
use rsb_lowerbound::{run_blowup, AdversaryParams, BlowupReport};
use rsb_registers::RegisterProtocol;
use rsb_workloads::{run_scenario, Scenario};

/// One row of a storage-vs-concurrency sweep (experiments E2–E5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageRow {
    /// Peak bits stored in base objects over the run — the quantity
    /// Theorem 2 bounds.
    pub peak_object_bits: u64,
    /// Steady-state object bits after quiescence and drain.
    pub resting_object_bits: u64,
}

/// Runs a write-burst at concurrency `c` and measures storage peaks plus
/// the post-quiescence resting state.
pub fn measure_storage<P: RegisterProtocol>(
    proto: &P,
    c: usize,
    writes_each: usize,
    seed: u64,
) -> StorageRow {
    let scenario = Scenario::write_burst(c, writes_each, seed);
    let mut out = run_scenario(proto, &scenario);
    // Drain stragglers so the resting state is the true steady state.
    let mut fair = FairScheduler::new();
    run(&mut out.sim, &mut fair, 10_000_000);
    StorageRow {
        peak_object_bits: out.peak_cost.object_bits,
        resting_object_bits: out.sim.storage_cost().object_bits,
    }
}

/// Invokes `c` concurrent writes on a fresh simulation and unleashes the
/// adversary `Ad` (experiment E1).
pub fn adversary_blowup<P: RegisterProtocol>(
    proto: &P,
    c: usize,
    params: AdversaryParams,
    max_steps: u64,
) -> BlowupReport {
    let mut sim = proto.new_sim();
    let len = proto.config().value_len;
    for i in 0..c {
        let w = proto.add_client(&mut sim);
        sim.invoke(w, OpRequest::Write(Value::seeded(i as u64 + 1, len)))
            .expect("fresh clients accept writes");
    }
    run_blowup(&mut sim, params, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsb_registers::{resting_bound_bits, theorem2_bound_bits, Abd, Adaptive, RegisterConfig};

    #[test]
    fn adaptive_peak_respects_theorem2() {
        for (f, k) in [(2usize, 2usize), (1, 4)] {
            let cfg = RegisterConfig::paper(f, k, 64).unwrap();
            let proto = Adaptive::new(cfg);
            for c in [1usize, 2, 4] {
                let row = measure_storage(&proto, c, 2, 17);
                let bound = theorem2_bound_bits(&cfg, c);
                assert!(
                    row.peak_object_bits <= bound,
                    "f={f} k={k} c={c}: peak {} > bound {bound}",
                    row.peak_object_bits
                );
                // Lemma 8: storage shrinks to one piece per object. Up to
                // f straggler objects may have had the write's own GC
                // overtake its update (the update is then ignored as
                // stale), leaving them empty — still within the bound.
                let piece_bits = 8 * (cfg.value_len.div_ceil(cfg.k) as u64);
                let bound = resting_bound_bits(&cfg);
                assert!(row.resting_object_bits <= bound);
                assert!(
                    row.resting_object_bits >= bound - cfg.f as u64 * piece_bits,
                    "resting {} below the (n−f)-object floor",
                    row.resting_object_bits
                );
            }
        }
    }

    #[test]
    fn abd_storage_is_flat_in_c() {
        let cfg = RegisterConfig::new(5, 2, 1, 64).unwrap();
        let proto = Abd::new(cfg);
        let seed: u64 = 3;
        let peaks: Vec<u64> = [1usize, 3, 5]
            .iter()
            .map(|&c| measure_storage(&proto, c, 2, seed ^ c as u64).peak_object_bits)
            .collect();
        let first = peaks[0];
        assert!(peaks.iter().all(|&p| p == first));
        assert_eq!(first, 5 * 512); // n replicas of D bits
    }
}
