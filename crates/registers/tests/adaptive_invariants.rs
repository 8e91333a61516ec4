//! Schedule-exploration tests of the adaptive algorithm's central
//! invariants along random interleavings:
//!
//! * **Invariant 1** (availability): at every point, for every set `S` of
//!   `n − f` base objects, some timestamp `ts' ≥ max{storedTS(bo) | bo ∈ S}`
//!   has at least `k` distinct pieces within `S` — the reason reads can
//!   always reconstruct the latest-or-newer value;
//! * **Theorem 2** (capacity): base-object storage never exceeds the
//!   adaptive bound at any point in any schedule.

use proptest::prelude::*;
use rsb_coding::Value;
use rsb_fpsm::{OpRequest, RandomScheduler, Scheduler, Simulation};
use rsb_registers::adaptive::{AdaptiveClient, AdaptiveObject};
use rsb_registers::{theorem2_bound_bits, Adaptive, RegisterConfig, RegisterProtocol, Timestamp};

/// All (n−f)-subsets of `0..n` (n small in these tests).
fn quorums(n: usize, q: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut subset: Vec<usize> = Vec::new();
    fn rec(start: usize, n: usize, q: usize, subset: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if subset.len() == q {
            out.push(subset.clone());
            return;
        }
        for i in start..n {
            subset.push(i);
            rec(i + 1, n, q, subset, out);
            subset.pop();
        }
    }
    rec(0, n, q, &mut subset, &mut out);
    out
}

fn check_invariant1(
    sim: &Simulation<AdaptiveObject, AdaptiveClient>,
    cfg: &RegisterConfig,
) -> Result<(), String> {
    for quorum in quorums(cfg.n, cfg.quorum()) {
        let mut max_stored = Timestamp::ZERO;
        let mut pieces: std::collections::HashMap<Timestamp, std::collections::HashSet<u32>> =
            std::collections::HashMap::default();
        for &i in &quorum {
            let st = sim.object_state(rsb_fpsm::ObjectId(i));
            max_stored = max_stored.max(st.stored_ts());
            for c in st.vp().iter().chain(st.vf().iter()) {
                pieces
                    .entry(c.ts)
                    .or_default()
                    .insert(c.piece.block.index());
            }
        }
        let ok = pieces
            .iter()
            .any(|(ts, idxs)| *ts >= max_stored && idxs.len() >= cfg.k);
        if !ok {
            return Err(format!(
                "quorum {quorum:?}: no ts ≥ {max_stored} with {} distinct pieces",
                cfg.k
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1 and the Theorem-2 capacity bound hold at EVERY step of
    /// random schedules with concurrent writers.
    #[test]
    fn availability_and_capacity_along_schedules(
        seed in any::<u64>(),
        writers in 1usize..5,
    ) {
        let cfg = RegisterConfig::paper(1, 2, 16).unwrap(); // n = 4, q = 3
        let proto = Adaptive::new(cfg);
        let mut sim = proto.new_sim();
        for i in 0..writers {
            let w = proto.add_client(&mut sim);
            sim.invoke(w, OpRequest::Write(Value::seeded(i as u64 + 1, 16))).unwrap();
        }
        let mut sched = RandomScheduler::new(seed);
        let bound = theorem2_bound_bits(&cfg, writers);
        for _ in 0..3_000 {
            check_invariant1(&sim, &cfg).map_err(TestCaseError::fail)?;
            let object_bits = sim.storage_cost().object_bits;
            prop_assert!(
                object_bits <= bound,
                "object storage {object_bits} exceeded Theorem-2 bound {bound}"
            );
            match Scheduler::<_, _>::next_event(&mut sched, &sim) {
                Some(ev) => sim.step(ev).unwrap(),
                None => break,
            }
        }
    }

    /// Timestamp watermarks are monotone per object along any schedule.
    #[test]
    fn stored_ts_is_monotone(seed in any::<u64>()) {
        let cfg = RegisterConfig::paper(1, 2, 16).unwrap();
        let proto = Adaptive::new(cfg);
        let mut sim = proto.new_sim();
        for i in 0..3 {
            let w = proto.add_client(&mut sim);
            sim.invoke(w, OpRequest::Write(Value::seeded(i as u64 + 1, 16))).unwrap();
        }
        let mut sched = RandomScheduler::new(seed);
        let mut last: Vec<Timestamp> = (0..cfg.n)
            .map(|i| sim.object_state(rsb_fpsm::ObjectId(i)).stored_ts())
            .collect();
        for _ in 0..2_000 {
            match Scheduler::<_, _>::next_event(&mut sched, &sim) {
                Some(ev) => sim.step(ev).unwrap(),
                None => break,
            }
            for (i, prev) in last.iter_mut().enumerate() {
                let now = sim.object_state(rsb_fpsm::ObjectId(i)).stored_ts();
                prop_assert!(now >= *prev, "storedTS went backwards on bo{i}");
                *prev = now;
            }
        }
    }
}

#[test]
fn invariant1_also_holds_with_straggling_updates() {
    // Sequential writes but a scheduler that leaves stragglers: after each
    // completed write, the invariant must hold even before drain.
    let cfg = RegisterConfig::paper(2, 2, 32).unwrap(); // n = 6
    let proto = Adaptive::new(cfg);
    let mut sim = proto.new_sim();
    let w = proto.add_client(&mut sim);
    for round in 0..4u64 {
        sim.invoke(w, OpRequest::Write(Value::seeded(round + 1, 32)))
            .unwrap();
        // Drive with a biased scheduler: always the *newest* enabled event,
        // maximizing stragglers.
        for _ in 0..100_000 {
            if sim.history().iter().all(rsb_fpsm::OpRecord::is_complete) {
                break;
            }
            let evs = sim.enabled_events();
            let ev = *evs.last().expect("something enabled while op pending");
            sim.step(ev).unwrap();
            check_invariant1(&sim, &cfg).unwrap();
        }
    }
}
