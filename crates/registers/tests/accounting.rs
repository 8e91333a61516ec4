//! The storage-cost figures cannot drift from the blocks they count.
//!
//! The simulator keeps Definition 2's cost incrementally from
//! `Payload::block_bits` and `ClientLogic::stored_bits`, which every
//! protocol type overrides to add sizes up without building a block list.
//! Here each category is re-derived after *every* action from the lists
//! themselves (`component_blocks`), under random schedules with object and
//! client crashes — an override that disagreed with its list would show.

use rsb_coding::Value;
use rsb_fpsm::{
    ClientId, Component, ObjectId, OpRequest, RandomScheduler, Scheduler, Simulation, StorageCost,
};
use rsb_registers::{Abd, AbdAtomic, Adaptive, Coded, RegisterConfig, RegisterProtocol, Safe};

const SEEDS: u64 = 24;
const ACTIONS: u64 = 400;
const CLIENTS: usize = 3;

/// SplitMix64: the test's own choices (who invokes what, who crashes when).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn assert_cost_is_the_sum_of_the_blocks<P: RegisterProtocol>(
    sim: &Simulation<P::Object, P::Client>,
    context: &str,
) {
    let mut summed = StorageCost::default();
    for (component, blocks) in sim.component_blocks() {
        let bits: u64 = blocks.iter().map(|b| b.bits).sum();
        match component {
            Component::Object(_) => summed.object_bits += bits,
            Component::Client(_) => summed.client_bits += bits,
            Component::RmwParam { .. } => summed.inflight_param_bits += bits,
            Component::RmwResponse { .. } => summed.inflight_resp_bits += bits,
        }
    }
    assert_eq!(sim.storage_cost(), summed, "{context}");
}

/// One random run: `CLIENTS` clients keep invoking reads and writes, a
/// random scheduler picks among the enabled events, up to `f` objects and
/// one client crash along the way.
fn run_one<P: RegisterProtocol>(proto: &P, seed: u64) {
    let cfg = *proto.config();
    let mut rng = seed;
    let mut sim = proto.new_sim();
    let clients: Vec<ClientId> = (0..CLIENTS).map(|_| proto.add_client(&mut sim)).collect();
    let mut scheduler = RandomScheduler::new(seed);
    let mut crashes: Vec<(u64, Option<ObjectId>)> = (0..cfg.f)
        .map(|_| {
            let object = ObjectId((next(&mut rng) % cfg.n as u64) as usize);
            (next(&mut rng) % ACTIONS, Some(object))
        })
        .collect();
    crashes.push((next(&mut rng) % ACTIONS, None));
    let context =
        |what: &str, at: u64| format!("{} {cfg:?} seed {seed}: after {what} {at}", proto.name());
    assert_cost_is_the_sum_of_the_blocks::<P>(&sim, &context("start", 0));
    for action in 0..ACTIONS {
        for &(_, target) in crashes.iter().filter(|(at, _)| *at == action) {
            match target {
                Some(object) => sim.crash_object(object),
                None => sim.crash_client(clients[0]),
            }
        }
        for &client in &clients {
            let idle = sim.outstanding_op(client).is_none() && !sim.client_crashed(client);
            if idle && next(&mut rng).is_multiple_of(4) {
                let req = if next(&mut rng).is_multiple_of(2) {
                    OpRequest::Write(Value::seeded(next(&mut rng), cfg.value_len))
                } else {
                    OpRequest::Read
                };
                sim.invoke(client, req).expect("an idle live client");
                assert_cost_is_the_sum_of_the_blocks::<P>(&sim, &context("invoke", action));
            }
        }
        if let Some(event) = scheduler.next_event(&sim) {
            sim.step(event).expect("an enabled event applies");
            assert_cost_is_the_sum_of_the_blocks::<P>(&sim, &context("event", action));
        }
    }
}

fn run_all<P: RegisterProtocol>(proto: &P) {
    for seed in 0..SEEDS {
        run_one(proto, seed);
    }
}

/// The benchmark's `(n, f, k)` for each protocol family, at a value length
/// `k` does not divide (so a tail shard is in play) and at one it does.
fn configs(n: usize, f: usize, k: usize) -> [RegisterConfig; 2] {
    [30, 64].map(|len| RegisterConfig::new(n, f, k, len).expect("a valid configuration"))
}

#[test]
fn abd_cost_is_the_sum_of_its_blocks() {
    for cfg in configs(3, 1, 1) {
        run_all(&Abd::new(cfg));
    }
}

#[test]
fn abd_atomic_cost_is_the_sum_of_its_blocks() {
    for cfg in configs(3, 1, 1) {
        run_all(&AbdAtomic::new(cfg));
    }
}

#[test]
fn safe_cost_is_the_sum_of_its_blocks() {
    for cfg in configs(7, 1, 4).into_iter().chain(configs(6, 2, 2)) {
        run_all(&Safe::new(cfg));
    }
}

#[test]
fn coded_cost_is_the_sum_of_its_blocks() {
    for cfg in configs(7, 1, 4).into_iter().chain(configs(6, 2, 2)) {
        run_all(&Coded::new(cfg));
    }
}

#[test]
fn adaptive_cost_is_the_sum_of_its_blocks() {
    for cfg in configs(7, 1, 4).into_iter().chain(configs(6, 2, 2)) {
        run_all(&Adaptive::new(cfg));
    }
}
