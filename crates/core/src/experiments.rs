//! Experiment drivers regenerating the paper's quantitative claims.
//!
//! Each function here backs one experiment (E1–E4, named on each item);
//! the `rsb-bench` binaries print the resulting rows.

use rsb_coding::Value;
use rsb_fpsm::{run, FairScheduler, OpRequest, StorageCost};
use rsb_lowerbound::{run_blowup, AdversaryParams, BlowupReport};
use rsb_registers::{RegisterConfig, RegisterProtocol};
use rsb_workloads::{run_scenario, Scenario};

/// One row of a storage-vs-concurrency sweep (experiments E2/E4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageRow {
    /// The concurrency level `c` (concurrent writers).
    pub c: usize,
    /// Peak bits stored in base objects over the run — the quantity
    /// Theorem 2 bounds.
    pub peak_object_bits: u64,
    /// Peak total storage (Definition 2: objects + clients + channels).
    pub peak_total_bits: u64,
    /// Steady-state object bits after quiescence and drain.
    pub resting_object_bits: u64,
    /// Scheduler events executed.
    pub steps: u64,
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
        c,
        peak_object_bits: out.peak_cost.object_bits,
        peak_total_bits: out.peak_bits,
        resting_object_bits: out.sim.storage_cost().object_bits,
        steps: out.steps,
    }
}

/// Sweeps the concurrency level (experiment E4's x-axis).
pub fn storage_sweep<P: RegisterProtocol>(
    proto: &P,
    concurrencies: &[usize],
    writes_each: usize,
    seed: u64,
) -> Vec<StorageRow> {
    concurrencies
        .iter()
        .map(|&c| measure_storage(proto, c, writes_each, seed ^ (c as u64)))
        .collect()
}

/// The Theorem-2 storage formula for the adaptive algorithm's base-object
/// storage: `(c+1)·n·D/k` when `c < k − 1` (Lemma 6: each object holds at
/// most `c+1` pieces and `Vf` stays empty), else `2·n·D` (each object
/// holds at most `k` pieces in `Vp` plus `k` in `Vf` — the tight form of
/// Lemma 7's `(2f+k)²·D`). With `k = Θ(f)` both sides are
/// `O(min(f, c)·D)`.
pub fn theorem2_bound_bits(cfg: &RegisterConfig, c: usize) -> u64 {
    let n = cfg.n as u64;
    let piece_bits = 8 * (cfg.value_len.div_ceil(cfg.k) as u64);
    if c + 1 < cfg.k {
        (c as u64 + 1) * n * piece_bits
    } else {
        n * 2 * cfg.k as u64 * piece_bits
    }
}

/// The Lemma-8 resting storage: `(2f+k)·D/k` (one piece per object).
pub fn resting_bound_bits(cfg: &RegisterConfig) -> u64 {
    let piece_bits = 8 * (cfg.value_len.div_ceil(cfg.k) as u64);
    cfg.n as u64 * piece_bits
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

/// One row of the garbage-collection experiment (E3): storage before and
/// after quiescence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcRow {
    /// Concurrency during the burst.
    pub c: usize,
    /// Peak object bits during the burst.
    pub peak_object_bits: u64,
    /// Object bits after all writes completed and all RMWs landed.
    pub resting_object_bits: u64,
    /// The Lemma-8 bound `(2f+k)·D/k`.
    pub bound_bits: u64,
}

/// Runs the E3 garbage-collection experiment.
pub fn gc_experiment<P: RegisterProtocol>(proto: &P, c: usize, seed: u64) -> GcRow {
    let row = measure_storage(proto, c, 2, seed);
    GcRow {
        c,
        peak_object_bits: row.peak_object_bits,
        resting_object_bits: row.resting_object_bits,
        bound_bits: resting_bound_bits(proto.config()),
    }
}

/// Storage snapshot formatted for tables.
pub fn fmt_cost(cost: &StorageCost) -> String {
    format!(
        "{} (obj {}, cli {}, ch {})",
        cost.total(),
        cost.object_bits,
        cost.client_bits,
        cost.inflight_param_bits + cost.inflight_resp_bits
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsb_registers::{Abd, Adaptive, RegisterConfig};

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
        let rows = storage_sweep(&proto, &[1, 3, 5], 2, 3);
        let first = rows[0].peak_object_bits;
        assert!(rows.iter().all(|r| r.peak_object_bits == first));
        assert_eq!(first, 5 * 512); // n replicas of D bits
    }

    #[test]
    fn bounds_formulae() {
        let cfg = RegisterConfig::paper(1, 4, 64).unwrap(); // n=6, D=512
                                                            // piece = 128 bits; coded side (c=1 < k−1): 2·6·128 = 1536.
        assert_eq!(theorem2_bound_bits(&cfg, 1), 1536);
        // Saturated side (c ≥ k−1): 2·n·D = 6144.
        assert_eq!(theorem2_bound_bits(&cfg, 5), 6144);
        assert_eq!(resting_bound_bits(&cfg), 6 * 128);
    }
}
