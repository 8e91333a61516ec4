//! `Simulation::drain` is the fair step loop, fused.
//!
//! The store runs every hold through `drain`, which takes an RMW out of
//! the in-flight table once, applies it and delivers its response in one
//! pass; the experiments, the model checker and the adversary step one
//! event at a time. Both must be the same run of the paper's model: the
//! same events in the same order, at the same logical times, with the
//! same Definition-2 costs, peaks and storage series. Here each protocol
//! runs one random script twice — once driven by `drain`, once by
//! `while let Some(e) = first_enabled_event() { step(e) }` — with random
//! invocations, randomly scheduled events before each drive (so a drive
//! starts from responses parked mid-table), up to `f` crashed objects and
//! one crashed client, and storage sampling on.

use rsb_coding::Value;
use rsb_fpsm::{ClientId, ObjectId, OpRecord, OpRequest, StorageCost};
use rsb_registers::{Abd, AbdAtomic, Adaptive, Coded, RegisterConfig, RegisterProtocol, Safe};

const SEEDS: u64 = 16;
const ROUNDS: u64 = 24;
const CLIENTS: usize = 4;

/// SplitMix64: the script's choices (who invokes what, which events run
/// first, who crashes when).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How each round's backlog is run to the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    Drain,
    Step,
}

/// Everything a run shows the checkers and the cost model.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    history: Vec<OpRecord>,
    time: u64,
    events: u64,
    cost: StorageCost,
    peak_cost: StorageCost,
    peak_bits: u64,
    series: Vec<(u64, u64)>,
}

fn run<P: RegisterProtocol>(proto: &P, seed: u64, driver: Driver) -> Run {
    let cfg = *proto.config();
    let mut rng = seed;
    let mut sim = proto.new_sim();
    sim.enable_storage_sampling();
    let clients: Vec<ClientId> = (0..CLIENTS).map(|_| proto.add_client(&mut sim)).collect();
    let object_crashes: Vec<(u64, ObjectId)> = (0..next(&mut rng) % (cfg.f as u64 + 1))
        .map(|_| {
            let at = next(&mut rng) % ROUNDS;
            (at, ObjectId((next(&mut rng) % cfg.n as u64) as usize))
        })
        .collect();
    let client_crash = next(&mut rng) % ROUNDS;
    let mut events = 0;
    for round in 0..ROUNDS {
        for &client in &clients {
            let idle = sim.outstanding_op(client).is_none() && !sim.client_crashed(client);
            if idle && !next(&mut rng).is_multiple_of(3) {
                let req = if next(&mut rng).is_multiple_of(2) {
                    OpRequest::Write(Value::seeded(next(&mut rng), cfg.value_len))
                } else {
                    OpRequest::Read
                };
                sim.invoke(client, req).expect("an idle live client");
            }
        }
        // A few events in random order first: the drive then meets
        // applied responses and triggered RMWs anywhere in the table.
        for _ in 0..next(&mut rng) % 8 {
            let enabled = sim.enabled_events();
            if enabled.is_empty() {
                break;
            }
            let event = enabled[(next(&mut rng) % enabled.len() as u64) as usize];
            sim.step(event).expect("an enabled event applies");
            events += 1;
        }
        // Crashes land with RMWs in flight: a crashed object's stay
        // triggered, and a crashed client's responses stay undelivered.
        for &(_, object) in object_crashes.iter().filter(|(at, _)| *at == round) {
            sim.crash_object(object);
        }
        if round == client_crash {
            let busy = clients
                .iter()
                .copied()
                .find(|&c| sim.outstanding_op(c).is_some());
            sim.crash_client(busy.unwrap_or(clients[0]));
        }
        match driver {
            Driver::Drain => {
                let before = sim.time();
                sim.drain();
                events += sim.time() - before;
            }
            Driver::Step => {
                while let Some(event) = sim.first_enabled_event() {
                    sim.step(event).expect("an enabled event applies");
                    events += 1;
                }
            }
        }
        assert!(!sim.has_enabled_event(), "{driver:?} left an event enabled");
    }
    Run {
        history: sim.full_history(),
        time: sim.time(),
        events,
        cost: sim.storage_cost(),
        peak_cost: sim.peak_storage_cost(),
        peak_bits: sim.peak_storage_bits(),
        series: sim.storage_series().to_vec(),
    }
}

fn assert_drain_matches_stepping<P: RegisterProtocol>(proto: &P) {
    for seed in 0..SEEDS {
        let drained = run(proto, seed, Driver::Drain);
        let stepped = run(proto, seed, Driver::Step);
        let context = format!("{} {:?} seed {seed}", proto.name(), proto.config());
        assert_eq!(drained.history, stepped.history, "{context}: history");
        assert_eq!(drained.time, stepped.time, "{context}: time");
        assert_eq!(drained.events, stepped.events, "{context}: events");
        assert_eq!(drained.cost, stepped.cost, "{context}: storage cost");
        assert_eq!(drained.peak_cost, stepped.peak_cost, "{context}: peaks");
        assert_eq!(drained.peak_bits, stepped.peak_bits, "{context}: peak bits");
        assert_eq!(drained.series, stepped.series, "{context}: storage series");
        // Each event is one tick of logical time; the rest are invocations.
        let invocations = drained.history.len() as u64;
        assert_eq!(drained.time, drained.events + invocations, "{context}");
    }
}

/// A replicated shape and the coded ones: `k` dividing the value's length
/// and not.
fn config(n: usize, f: usize, k: usize) -> RegisterConfig {
    RegisterConfig::new(n, f, k, 30).expect("a valid configuration")
}

#[test]
fn abd_drain_matches_stepping() {
    assert_drain_matches_stepping(&Abd::new(config(3, 1, 1)));
}

#[test]
fn abd_atomic_drain_matches_stepping() {
    assert_drain_matches_stepping(&AbdAtomic::new(config(3, 1, 1)));
}

#[test]
fn safe_drain_matches_stepping() {
    assert_drain_matches_stepping(&Safe::new(config(6, 2, 2)));
    assert_drain_matches_stepping(&Safe::new(config(7, 1, 4)));
}

#[test]
fn coded_drain_matches_stepping() {
    assert_drain_matches_stepping(&Coded::new(config(6, 2, 2)));
    assert_drain_matches_stepping(&Coded::new(config(7, 1, 4)));
}

#[test]
fn adaptive_drain_matches_stepping() {
    assert_drain_matches_stepping(&Adaptive::new(config(6, 2, 2)));
    assert_drain_matches_stepping(&Adaptive::new(config(7, 1, 4)));
}
