//! Quickstart: emulate a fault-tolerant register over simulated storage
//! nodes with the paper's adaptive algorithm, write a value, crash `f`
//! nodes, and read it back.
//!
//! ```sh
//! cargo run -p rsb-registers --example quickstart
//! ```

use rsb_coding::Value;
use rsb_fpsm::{run, run_to_completion, FairScheduler, ObjectId, OpRequest, OpResult};
use rsb_registers::{resting_bound_bits, Adaptive, RegisterConfig, RegisterProtocol};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Tolerate f = 2 storage-node crashes using a k = 2 erasure code over
    // 1 KiB values; the paper's canonical deployment has n = 2f + k = 6
    // base objects.
    let config = RegisterConfig::paper(2, 2, 1024)?;
    let register = Adaptive::new(config);
    let mut sim = register.new_sim();
    let writer = register.add_client(&mut sim);
    let reader = register.add_client(&mut sim);

    println!(
        "deployment: n = {}, f = {}, k = {}, D = {} bits",
        config.n,
        config.f,
        config.k,
        config.data_bits()
    );

    // Write.
    let v = Value::seeded(2016, 1024);
    sim.invoke(writer, OpRequest::Write(v.clone()))?;
    assert!(run_to_completion(&mut sim, 1_000_000));
    println!("write completed; storage now: {}", sim.storage_cost());

    // Drain straggler RMWs, then observe the garbage-collected steady
    // state: one D/k piece per node (Lemma 8).
    let mut fair = FairScheduler::new();
    run(&mut sim, &mut fair, 1_000_000);
    println!(
        "resting storage after GC: {} bits (bound {} bits = n·D/k)",
        sim.storage_cost().object_bits,
        resting_bound_bits(&config),
    );

    // Crash any f nodes.
    sim.crash_object(ObjectId(0));
    sim.crash_object(ObjectId(4));
    println!("crashed bo0 and bo4");

    // Read — still succeeds, and returns the written value.
    sim.invoke(reader, OpRequest::Read)?;
    assert!(run_to_completion(&mut sim, 1_000_000));
    let got = sim.history().last().unwrap().result.clone().unwrap();
    assert_eq!(got, OpResult::Read(v));
    println!(
        "read returned the written value despite {} crashed nodes",
        config.f
    );
    Ok(())
}
