//! Fault-injection walkthrough: storage nodes crash mid-operation, a
//! writer crashes mid-write, and the register keeps serving reads with
//! its advertised consistency.
//!
//! ```sh
//! cargo run -p rsb-bench --example failure_recovery
//! ```

use rsb_bench::verify::{self, Guarantee};
use rsb_consistency::LivenessLevel;
use rsb_fpsm::ObjectId;
use rsb_registers::{Adaptive, RegisterConfig, Safe};
use rsb_workloads::{run_scenario, FailurePlan, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = RegisterConfig::paper(2, 3, 512)?; // n = 7, f = 2, k = 3
    let proto = Adaptive::new(cfg);

    // Scenario: 3 writers x 3 writes, 2 readers x 3 reads, with two
    // storage nodes crashing mid-run.
    let mut scenario = Scenario::mixed(3, 2, 3, 42);
    scenario.failures = FailurePlan {
        object_crashes: vec![(50, ObjectId(1)), (200, ObjectId(5))],
        client_crashes: vec![(120, 0)], // writer 0 dies mid-write
    };
    let out = run_scenario(&proto, &scenario);
    println!(
        "scenario finished: {} ops, {} events, {} crashed clients, completed = {}",
        out.sim.history().len(),
        out.steps,
        out.crashed_clients.len(),
        out.completed
    );
    println!(
        "peak storage: {} bits; final: {}",
        out.peak_bits,
        out.sim.storage_cost()
    );

    // Verify the run: strong regularity + FW-termination (crashed writer
    // excused).
    verify::check_outcome(
        &proto,
        &out,
        Guarantee::StronglyRegular,
        LivenessLevel::FwTerminating,
    )?;
    println!("history verified: strongly regular, FW-terminating");

    // The same scenario on the safe register is wait-free but only safe.
    let safe = Safe::new(cfg);
    let out = run_scenario(&safe, &scenario);
    verify::check_outcome(
        &safe,
        &out,
        Guarantee::StronglySafe,
        LivenessLevel::WaitFree,
    )?;
    println!("safe register verified: strongly safe, wait-free");
    Ok(())
}
