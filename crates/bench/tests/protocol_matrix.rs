//! Cross-crate integration: every protocol × scenario shape × checker,
//! over multiple seeds, with and without failure injection.

use rsb_bench::verify::{check_outcome, Guarantee};
use rsb_consistency::LivenessLevel;
use rsb_fpsm::ObjectId;
use rsb_registers::{Abd, Adaptive, Coded, RegisterConfig, RegisterProtocol, Safe};
use rsb_workloads::{run_scenario, FailurePlan, Scenario};

fn verify_protocol<P: RegisterProtocol>(
    proto: &P,
    guarantee: Guarantee,
    liveness: LivenessLevel,
    scenario: &Scenario,
) {
    let out = run_scenario(proto, scenario);
    assert!(
        out.completed,
        "{}: scenario did not complete in {} steps (seed {})",
        proto.name(),
        out.steps,
        scenario.seed
    );
    check_outcome(proto, &out, guarantee, liveness).unwrap_or_else(|e| {
        panic!("{} seed {}: {e}", proto.name(), scenario.seed);
    });
}

#[test]
fn adaptive_matrix() {
    let cfg = RegisterConfig::paper(2, 3, 64).unwrap();
    let proto = Adaptive::new(cfg);
    for seed in 0..6u64 {
        let scenario = Scenario::mixed(3, 2, 2, seed);
        verify_protocol(
            &proto,
            Guarantee::StronglyRegular,
            LivenessLevel::FwTerminating,
            &scenario,
        );
    }
}

#[test]
fn abd_matrix() {
    let cfg = RegisterConfig::new(5, 2, 1, 32).unwrap();
    let proto = Abd::new(cfg);
    for seed in 0..6u64 {
        let scenario = Scenario::mixed(3, 2, 2, 100 + seed);
        verify_protocol(
            &proto,
            Guarantee::StronglyRegular,
            LivenessLevel::WaitFree,
            &scenario,
        );
    }
}

#[test]
fn coded_matrix() {
    let cfg = RegisterConfig::paper(1, 2, 32).unwrap();
    let proto = Coded::new(cfg);
    for seed in 0..6u64 {
        let scenario = Scenario::mixed(2, 2, 2, 200 + seed);
        verify_protocol(
            &proto,
            Guarantee::StronglyRegular,
            LivenessLevel::FwTerminating,
            &scenario,
        );
    }
}

#[test]
fn safe_matrix() {
    let cfg = RegisterConfig::paper(2, 2, 32).unwrap();
    let proto = Safe::new(cfg);
    for seed in 0..6u64 {
        let scenario = Scenario::mixed(3, 3, 2, 300 + seed);
        verify_protocol(
            &proto,
            Guarantee::StronglySafe,
            LivenessLevel::WaitFree,
            &scenario,
        );
    }
}

#[test]
fn adaptive_with_object_failures() {
    let cfg = RegisterConfig::paper(2, 2, 64).unwrap(); // n = 6, f = 2
    let proto = Adaptive::new(cfg);
    for seed in 0..4u64 {
        let mut scenario = Scenario::mixed(2, 2, 2, 400 + seed);
        scenario.failures = FailurePlan {
            object_crashes: vec![(30, ObjectId(0)), (90, ObjectId(3))],
            client_crashes: vec![],
        };
        verify_protocol(
            &proto,
            Guarantee::StronglyRegular,
            LivenessLevel::FwTerminating,
            &scenario,
        );
    }
}

#[test]
fn safe_with_client_and_object_failures() {
    let cfg = RegisterConfig::paper(1, 2, 32).unwrap(); // n = 4
    let proto = Safe::new(cfg);
    for seed in 0..4u64 {
        let mut scenario = Scenario::mixed(3, 2, 2, 500 + seed);
        scenario.failures = FailurePlan {
            object_crashes: vec![(40, ObjectId(2))],
            client_crashes: vec![(60, 0)],
        };
        let out = run_scenario(&proto, &scenario);
        assert!(out.completed, "seed {seed}");
        check_outcome(
            &proto,
            &out,
            Guarantee::StronglySafe,
            LivenessLevel::WaitFree,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn all_protocols_weakly_regular_too() {
    // Weak regularity (the lower bound's condition) is implied by every
    // protocol's guarantee except the safe register's.
    let cfg = RegisterConfig::paper(1, 2, 32).unwrap();
    for seed in 0..3u64 {
        let scenario = Scenario::mixed(2, 2, 2, 600 + seed);
        let p = Adaptive::new(cfg);
        let out = run_scenario(&p, &scenario);
        check_outcome(&p, &out, Guarantee::WeaklyRegular, LivenessLevel::LockFree).unwrap();
        let p = Coded::new(cfg);
        let out = run_scenario(&p, &scenario);
        check_outcome(&p, &out, Guarantee::WeaklyRegular, LivenessLevel::LockFree).unwrap();
    }
}

#[test]
fn larger_cluster_smoke() {
    // A wider deployment: n = 14, f = 4, k = 6.
    let cfg = RegisterConfig::paper(4, 6, 96).unwrap();
    let proto = Adaptive::new(cfg);
    let scenario = Scenario::mixed(4, 2, 1, 777);
    verify_protocol(
        &proto,
        Guarantee::StronglyRegular,
        LivenessLevel::FwTerminating,
        &scenario,
    );
}
