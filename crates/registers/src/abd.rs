//! ABD-style full-replication register — the paper's `O(fD)` baseline
//! (its citation \[4\], Attiya–Bar-Noy–Dolev, adapted to multi-writer).
//!
//! Every base object stores one timestamped full replica; a write reads
//! timestamps from a quorum, then stores the value with a higher timestamp
//! on a quorum; a read collects replicas from a quorum and returns the one
//! with the highest timestamp. Without reader write-back this satisfies
//! strong regularity (MWRegWO — the paper notes exactly this in Appendix
//! A) but not atomicity.
//!
//! Storage: exactly `n` replicas = `n·D` bits at all times, independent of
//! concurrency — the replication side of the `Θ(min(f, c)·D)` dichotomy.

use crate::common::{QuorumRound, RegisterConfig, TaggedBlock, Timestamp, INITIAL_OP};
use crate::protocol::RegisterProtocol;
use rsb_coding::{Block, Value};
use rsb_fpsm::{
    BlockInstance, ClientId, ClientLogic, Effects, ObjectState, OpId, OpRequest, OpResult, Payload,
    RmwId, Simulation,
};

/// Base-object state: one timestamped full replica.
#[derive(Debug, Clone)]
pub struct AbdObject {
    ts: Timestamp,
    replica: TaggedBlock,
}

impl AbdObject {
    /// Initial state holding `v₀`.
    pub fn initial(replica: TaggedBlock) -> Self {
        AbdObject {
            ts: Timestamp::ZERO,
            replica,
        }
    }

    /// The replica's timestamp.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }
}

/// RMWs of the ABD emulation.
#[derive(Debug, Clone)]
pub enum AbdRmw {
    /// Write round 1: fetch the stored timestamp (metadata only).
    ReadTs,
    /// Read round: fetch timestamp and replica.
    ReadValue,
    /// Write round 2: conditionally overwrite with a newer replica.
    Store {
        /// The write's timestamp.
        ts: Timestamp,
        /// The full replica.
        replica: TaggedBlock,
    },
}

impl AbdRmw {
    fn replica(&self) -> Option<&TaggedBlock> {
        match self {
            AbdRmw::ReadTs | AbdRmw::ReadValue => None,
            AbdRmw::Store { replica, .. } => Some(replica),
        }
    }
}

impl Payload for AbdRmw {
    fn blocks(&self) -> Vec<BlockInstance> {
        self.replica()
            .map(TaggedBlock::instance)
            .into_iter()
            .collect()
    }

    fn block_bits(&self) -> u64 {
        self.replica().map_or(0, TaggedBlock::bits)
    }
}

/// Responses of the ABD emulation.
#[derive(Debug, Clone)]
pub enum AbdResp {
    /// Ack for `Store`.
    Ack,
    /// Timestamp only.
    Ts(Timestamp),
    /// Timestamp plus replica.
    State {
        /// The stored timestamp.
        ts: Timestamp,
        /// The stored replica.
        replica: TaggedBlock,
    },
}

impl AbdResp {
    fn replica(&self) -> Option<&TaggedBlock> {
        match self {
            AbdResp::Ack | AbdResp::Ts(_) => None,
            AbdResp::State { replica, .. } => Some(replica),
        }
    }
}

impl Payload for AbdResp {
    fn blocks(&self) -> Vec<BlockInstance> {
        self.replica()
            .map(TaggedBlock::instance)
            .into_iter()
            .collect()
    }

    fn block_bits(&self) -> u64 {
        self.replica().map_or(0, TaggedBlock::bits)
    }
}

impl Payload for AbdObject {
    fn blocks(&self) -> Vec<BlockInstance> {
        vec![self.replica.instance()]
    }

    fn block_bits(&self) -> u64 {
        self.replica.bits()
    }
}

/// The replicas a reader has collected so far — what a client holds.
fn collected(round: &QuorumRound<(Timestamp, TaggedBlock)>) -> impl Iterator<Item = &TaggedBlock> {
    round.responses().iter().map(|(_, (_, replica))| replica)
}

/// Triggers `Store { ts, replica }` on all `n` objects.
fn broadcast_store(
    n: usize,
    eff: &mut Effects<AbdObject>,
    ts: Timestamp,
    replica: &TaggedBlock,
) -> QuorumRound<()> {
    QuorumRound::broadcast(n, eff, |_| AbdRmw::Store {
        ts,
        replica: replica.clone(),
    })
}

impl ObjectState for AbdObject {
    type Rmw = AbdRmw;
    type Resp = AbdResp;

    fn apply(&mut self, _client: ClientId, rmw: &AbdRmw) -> AbdResp {
        match rmw {
            AbdRmw::ReadTs => AbdResp::Ts(self.ts),
            AbdRmw::ReadValue => AbdResp::State {
                ts: self.ts,
                replica: self.replica.clone(),
            },
            AbdRmw::Store { ts, replica } => {
                if *ts > self.ts {
                    self.ts = *ts;
                    self.replica = replica.clone();
                }
                AbdResp::Ack
            }
        }
    }
}

/// Per-operation phase of the ABD client.
#[derive(Debug)]
enum Phase {
    Idle,
    WriteReadTs {
        round: QuorumRound<Timestamp>,
    },
    WriteStore {
        round: QuorumRound<()>,
    },
    Read {
        round: QuorumRound<(Timestamp, TaggedBlock)>,
    },
}

/// Client automaton of the ABD emulation.
#[derive(Debug)]
pub struct AbdClient {
    cfg: RegisterConfig,
    me: ClientId,
    phase: Phase,
    value: Option<Value>,
    current_op: Option<OpId>,
}

impl AbdClient {
    /// Creates the automaton for client `me`.
    pub fn new(cfg: RegisterConfig, me: ClientId) -> Self {
        AbdClient {
            cfg,
            me,
            phase: Phase::Idle,
            value: None,
            current_op: None,
        }
    }
}

impl ClientLogic for AbdClient {
    type State = AbdObject;

    fn on_invoke(&mut self, op: OpId, req: OpRequest, eff: &mut Effects<AbdObject>) {
        self.current_op = Some(op);
        match req {
            OpRequest::Write(v) => {
                self.value = Some(v);
                let round = QuorumRound::broadcast(self.cfg.n, eff, |_| AbdRmw::ReadTs);
                self.phase = Phase::WriteReadTs { round };
            }
            OpRequest::Read => {
                let round = QuorumRound::broadcast(self.cfg.n, eff, |_| AbdRmw::ReadValue);
                self.phase = Phase::Read { round };
            }
        }
    }

    fn on_response(&mut self, op: OpId, rmw: RmwId, resp: AbdResp, eff: &mut Effects<AbdObject>) {
        if self.current_op != Some(op) {
            return;
        }
        match &mut self.phase {
            Phase::Idle => {}
            Phase::WriteReadTs { round } => {
                let AbdResp::Ts(ts) = resp else { return };
                if !round.accept(rmw, ts) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    let max = round
                        .responses()
                        .iter()
                        .map(|(_, ts)| *ts)
                        .max()
                        .expect("quorum is nonempty");
                    let ts = Timestamp::new(max.num + 1, self.me);
                    let v = self.value.take().expect("write holds a value");
                    let replica = TaggedBlock::new(op, Block::replica(0, &v));
                    let round = broadcast_store(self.cfg.n, eff, ts, &replica);
                    self.phase = Phase::WriteStore { round };
                }
            }
            Phase::WriteStore { round } => {
                if !round.accept(rmw, ()) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    self.phase = Phase::Idle;
                    self.current_op = None;
                    eff.complete(OpResult::Write);
                }
            }
            Phase::Read { round } => {
                let AbdResp::State { ts, replica } = resp else {
                    return;
                };
                if !round.accept(rmw, (ts, replica)) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    let (_, best) = round
                        .responses()
                        .iter()
                        .max_by_key(|(_, (ts, _))| *ts)
                        .expect("quorum is nonempty");
                    let value = best.1.block.to_value();
                    self.phase = Phase::Idle;
                    self.current_op = None;
                    eff.complete(OpResult::Read(value));
                }
            }
        }
    }

    fn stored_blocks(&self) -> Vec<BlockInstance> {
        match &self.phase {
            Phase::Read { round } => collected(round).map(TaggedBlock::instance).collect(),
            _ => Vec::new(),
        }
    }

    fn stored_bits(&self) -> u64 {
        match &self.phase {
            Phase::Read { round } => collected(round).map(TaggedBlock::bits).sum(),
            _ => 0,
        }
    }
}

/// Factory for the ABD protocol.
#[derive(Debug, Clone)]
pub struct Abd {
    cfg: RegisterConfig,
}

impl Abd {
    /// Creates the protocol. ABD needs only `n > 2f`; the `k` in `cfg` is
    /// ignored (replication is the `k = 1` code).
    pub fn new(cfg: RegisterConfig) -> Self {
        Abd { cfg }
    }
}

impl RegisterProtocol for Abd {
    type Object = AbdObject;
    type Client = AbdClient;

    fn name(&self) -> &'static str {
        "abd"
    }

    fn config(&self) -> &RegisterConfig {
        &self.cfg
    }

    fn new_sim(&self) -> Simulation<AbdObject, AbdClient> {
        let v0 = self.cfg.initial_value();
        Simulation::new(self.cfg.n, move |_| {
            AbdObject::initial(TaggedBlock::new(INITIAL_OP, Block::replica(0, &v0)))
        })
    }

    fn add_client(&self, sim: &mut Simulation<AbdObject, AbdClient>) -> ClientId {
        let id = ClientId(sim.client_count());
        sim.add_client(AbdClient::new(self.cfg, id))
    }
}

/// Per-operation phase of the atomic ABD client.
#[derive(Debug)]
enum AtomicPhase {
    Idle,
    WriteReadTs {
        round: QuorumRound<Timestamp>,
    },
    WriteStore {
        round: QuorumRound<()>,
    },
    ReadCollect {
        round: QuorumRound<(Timestamp, TaggedBlock)>,
    },
    ReadWriteBack {
        round: QuorumRound<()>,
        value: Value,
    },
}

/// Client automaton of **atomic** (linearizable) ABD: identical to
/// [`AbdClient`] except that a read performs a write-back round —
/// re-storing the maximal `(ts, replica)` it collected on a quorum —
/// before returning. This is the classical fix for the new/old read
/// inversion that plain regular ABD permits; the paper's Section 2 notes
/// regularity is strictly weaker than atomicity, and this client (with
/// `rsb_consistency::check_atomicity`) makes the gap testable.
///
/// The write-back relays blocks produced by the *observed write's* oracle,
/// so block source tags are preserved (readers never act as sources).
#[derive(Debug)]
pub struct AbdAtomicClient {
    cfg: RegisterConfig,
    me: ClientId,
    phase: AtomicPhase,
    value: Option<Value>,
    current_op: Option<OpId>,
}

impl AbdAtomicClient {
    /// Creates the automaton for client `me`.
    pub fn new(cfg: RegisterConfig, me: ClientId) -> Self {
        AbdAtomicClient {
            cfg,
            me,
            phase: AtomicPhase::Idle,
            value: None,
            current_op: None,
        }
    }
}

impl ClientLogic for AbdAtomicClient {
    type State = AbdObject;

    fn on_invoke(&mut self, op: OpId, req: OpRequest, eff: &mut Effects<AbdObject>) {
        self.current_op = Some(op);
        match req {
            OpRequest::Write(v) => {
                self.value = Some(v);
                let round = QuorumRound::broadcast(self.cfg.n, eff, |_| AbdRmw::ReadTs);
                self.phase = AtomicPhase::WriteReadTs { round };
            }
            OpRequest::Read => {
                let round = QuorumRound::broadcast(self.cfg.n, eff, |_| AbdRmw::ReadValue);
                self.phase = AtomicPhase::ReadCollect { round };
            }
        }
    }

    fn on_response(&mut self, op: OpId, rmw: RmwId, resp: AbdResp, eff: &mut Effects<AbdObject>) {
        if self.current_op != Some(op) {
            return;
        }
        let quorum = self.cfg.quorum();
        match &mut self.phase {
            AtomicPhase::Idle => {}
            AtomicPhase::WriteReadTs { round } => {
                let AbdResp::Ts(ts) = resp else { return };
                if !round.accept(rmw, ts) {
                    return;
                }
                if round.count() >= quorum {
                    let max = round
                        .responses()
                        .iter()
                        .map(|(_, ts)| *ts)
                        .max()
                        .expect("quorum is nonempty");
                    let ts = Timestamp::new(max.num + 1, self.me);
                    let v = self.value.take().expect("write holds a value");
                    let replica = TaggedBlock::new(op, Block::replica(0, &v));
                    let round = broadcast_store(self.cfg.n, eff, ts, &replica);
                    self.phase = AtomicPhase::WriteStore { round };
                }
            }
            AtomicPhase::WriteStore { round } => {
                if !round.accept(rmw, ()) {
                    return;
                }
                if round.count() >= quorum {
                    self.phase = AtomicPhase::Idle;
                    self.current_op = None;
                    eff.complete(OpResult::Write);
                }
            }
            AtomicPhase::ReadCollect { round } => {
                let AbdResp::State { ts, replica } = resp else {
                    return;
                };
                if !round.accept(rmw, (ts, replica)) {
                    return;
                }
                if round.count() >= quorum {
                    let (_, (best_ts, best)) = round
                        .responses()
                        .iter()
                        .max_by_key(|(_, (ts, _))| *ts)
                        .expect("quorum is nonempty")
                        .clone();
                    let value = best.block.to_value();
                    // Write-back round: make the observed value as durable
                    // as a write before returning (relaying its blocks
                    // with the ORIGINAL source tag).
                    let round = broadcast_store(self.cfg.n, eff, best_ts, &best);
                    self.phase = AtomicPhase::ReadWriteBack { round, value };
                }
            }
            AtomicPhase::ReadWriteBack { round, value } => {
                if !round.accept(rmw, ()) {
                    return;
                }
                if round.count() >= quorum {
                    let value = value.clone();
                    self.phase = AtomicPhase::Idle;
                    self.current_op = None;
                    eff.complete(OpResult::Read(value));
                }
            }
        }
    }

    fn stored_blocks(&self) -> Vec<BlockInstance> {
        match &self.phase {
            AtomicPhase::ReadCollect { round } => {
                collected(round).map(TaggedBlock::instance).collect()
            }
            _ => Vec::new(),
        }
    }

    fn stored_bits(&self) -> u64 {
        match &self.phase {
            AtomicPhase::ReadCollect { round } => collected(round).map(TaggedBlock::bits).sum(),
            _ => 0,
        }
    }
}

/// Factory for atomic (linearizable) ABD with reader write-back.
#[derive(Debug, Clone)]
pub struct AbdAtomic {
    cfg: RegisterConfig,
}

impl AbdAtomic {
    /// Creates the protocol; same requirements as [`Abd`].
    pub fn new(cfg: RegisterConfig) -> Self {
        AbdAtomic { cfg }
    }
}

impl RegisterProtocol for AbdAtomic {
    type Object = AbdObject;
    type Client = AbdAtomicClient;

    fn name(&self) -> &'static str {
        "abd-atomic"
    }

    fn config(&self) -> &RegisterConfig {
        &self.cfg
    }

    fn new_sim(&self) -> Simulation<AbdObject, AbdAtomicClient> {
        let v0 = self.cfg.initial_value();
        Simulation::new(self.cfg.n, move |_| {
            AbdObject::initial(TaggedBlock::new(INITIAL_OP, Block::replica(0, &v0)))
        })
    }

    fn add_client(&self, sim: &mut Simulation<AbdObject, AbdAtomicClient>) -> ClientId {
        let id = ClientId(sim.client_count());
        sim.add_client(AbdAtomicClient::new(self.cfg, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsb_fpsm::{run_to_completion, run_until, ObjectId, RandomScheduler};

    fn proto(f: usize, len: usize) -> Abd {
        Abd::new(RegisterConfig::new(2 * f + 1, f, 1, len).unwrap())
    }

    #[test]
    fn write_read_roundtrip() {
        let p = proto(1, 40);
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        let r = p.add_client(&mut sim);
        let v = Value::seeded(3, 40);
        sim.invoke(w, OpRequest::Write(v.clone())).unwrap();
        assert!(run_to_completion(&mut sim, 10_000));
        sim.invoke(r, OpRequest::Read).unwrap();
        assert!(run_to_completion(&mut sim, 10_000));
        assert_eq!(
            sim.history().last().unwrap().result,
            Some(OpResult::Read(v))
        );
    }

    #[test]
    fn storage_is_exactly_n_replicas_at_rest() {
        let p = proto(2, 100);
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        sim.invoke(w, OpRequest::Write(Value::seeded(1, 100)))
            .unwrap();
        assert!(run_to_completion(&mut sim, 10_000));
        let mut fair = rsb_fpsm::FairScheduler::new();
        rsb_fpsm::run(&mut sim, &mut fair, 10_000);
        assert_eq!(sim.storage_cost().object_bits, 5 * 800);
    }

    #[test]
    fn concurrent_writers_settle_on_one_value() {
        let p = proto(1, 16);
        let mut sim = p.new_sim();
        let ws: Vec<_> = (0..3).map(|_| p.add_client(&mut sim)).collect();
        for (i, &w) in ws.iter().enumerate() {
            sim.invoke(w, OpRequest::Write(Value::seeded(i as u64, 16)))
                .unwrap();
        }
        let mut sched = RandomScheduler::new(11);
        assert!(run_until(&mut sim, &mut sched, 50_000, |s| s
            .history()
            .iter()
            .all(rsb_fpsm::OpRecord::is_complete)));
        let r = p.add_client(&mut sim);
        sim.invoke(r, OpRequest::Read).unwrap();
        assert!(run_to_completion(&mut sim, 10_000));
        let got = sim.history().last().unwrap().result.clone().unwrap();
        let got = got.read_value().unwrap().clone();
        assert!((0..3).map(|s| Value::seeded(s, 16)).any(|v| v == got));
    }

    #[test]
    fn tolerates_f_crashes() {
        let p = proto(2, 8); // n = 5
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        sim.crash_object(ObjectId(1));
        sim.crash_object(ObjectId(2));
        let v = Value::seeded(4, 8);
        sim.invoke(w, OpRequest::Write(v.clone())).unwrap();
        assert!(run_to_completion(&mut sim, 10_000));
        let r = p.add_client(&mut sim);
        sim.invoke(r, OpRequest::Read).unwrap();
        assert!(run_to_completion(&mut sim, 10_000));
        assert_eq!(
            sim.history().last().unwrap().result,
            Some(OpResult::Read(v))
        );
    }
}
