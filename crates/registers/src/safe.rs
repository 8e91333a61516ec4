//! The Appendix-E algorithm: a wait-free, strongly *safe* MWMR register
//! with constant storage `n·D/k = (2f/k + 1)·D` bits.
//!
//! Each base object stores exactly one timestamped piece. A write reads
//! timestamps from a quorum, then conditionally overwrites each object's
//! piece; a read samples a quorum once and returns a decoded value if some
//! timestamp has `k` distinct pieces, else `v₀` (legal under safety, since
//! that can only happen when writes are concurrent with the read).
//!
//! Its existence proves the paper's lower bound is specific to *regular*
//! semantics (Corollary 7): safe registers escape `Ω(min(f, c)·D)`.

use crate::common::{
    best_decodable, Chunk, QuorumRound, RegisterConfig, TaggedBlock, Timestamp, INITIAL_OP,
};
use crate::protocol::RegisterProtocol;
use rsb_coding::{Block, Code, ReedSolomon};
use rsb_fpsm::{
    BlockInstance, ClientId, ClientLogic, Effects, ObjectId, ObjectState, OpId, OpRequest,
    OpResult, Payload, RmwId, Simulation,
};

/// Base-object state: exactly one timestamped piece (Algorithm 4).
#[derive(Debug, Clone)]
pub struct SafeObject {
    chunk: Chunk,
}

impl SafeObject {
    /// Initial state holding piece `i` of `v₀` at timestamp `⟨0, 0⟩`.
    pub fn initial(piece: TaggedBlock) -> Self {
        SafeObject {
            chunk: Chunk::new(Timestamp::ZERO, piece),
        }
    }

    /// The stored chunk.
    pub fn chunk(&self) -> &Chunk {
        &self.chunk
    }
}

/// RMWs of the safe register (Algorithm 5).
#[derive(Debug, Clone)]
pub enum SafeRmw {
    /// Write round 1: fetch the stored timestamp (metadata only).
    ReadTs,
    /// Read round: fetch the stored chunk.
    ReadChunk,
    /// Write round 2: the `update` routine (lines 10–12) — overwrite iff
    /// the new timestamp is larger.
    Store {
        /// The write's timestamp.
        ts: Timestamp,
        /// Piece `i` for this object.
        piece: TaggedBlock,
    },
}

impl SafeRmw {
    fn piece(&self) -> Option<&TaggedBlock> {
        match self {
            SafeRmw::ReadTs | SafeRmw::ReadChunk => None,
            SafeRmw::Store { piece, .. } => Some(piece),
        }
    }
}

impl Payload for SafeRmw {
    fn blocks(&self) -> Vec<BlockInstance> {
        self.piece()
            .map(TaggedBlock::instance)
            .into_iter()
            .collect()
    }

    fn block_bits(&self) -> u64 {
        self.piece().map_or(0, TaggedBlock::bits)
    }
}

/// Responses of the safe register's RMWs.
#[derive(Debug, Clone)]
pub enum SafeResp {
    /// Ack for `Store`.
    Ack,
    /// Timestamp only.
    Ts(Timestamp),
    /// The stored chunk.
    Data(Chunk),
}

impl SafeResp {
    fn chunk(&self) -> Option<&Chunk> {
        match self {
            SafeResp::Ack | SafeResp::Ts(_) => None,
            SafeResp::Data(c) => Some(c),
        }
    }
}

impl Payload for SafeResp {
    fn blocks(&self) -> Vec<BlockInstance> {
        self.chunk().map(Chunk::instance).into_iter().collect()
    }

    fn block_bits(&self) -> u64 {
        self.chunk().map_or(0, Chunk::bits)
    }
}

impl Payload for SafeObject {
    fn blocks(&self) -> Vec<BlockInstance> {
        vec![self.chunk.instance()]
    }

    fn block_bits(&self) -> u64 {
        self.chunk.bits()
    }
}

impl ObjectState for SafeObject {
    type Rmw = SafeRmw;
    type Resp = SafeResp;

    fn apply(&mut self, _client: ClientId, rmw: &SafeRmw) -> SafeResp {
        match rmw {
            SafeRmw::ReadTs => SafeResp::Ts(self.chunk.ts),
            SafeRmw::ReadChunk => SafeResp::Data(self.chunk.clone()),
            SafeRmw::Store { ts, piece } => {
                if *ts > self.chunk.ts {
                    self.chunk = Chunk::new(*ts, piece.clone());
                }
                SafeResp::Ack
            }
        }
    }
}

/// Per-operation phase of the safe-register client.
#[derive(Debug)]
enum Phase {
    Idle,
    WriteReadTs { round: QuorumRound<Timestamp> },
    WriteStore { round: QuorumRound<()> },
    Read { round: QuorumRound<Chunk> },
}

/// Client automaton of the safe register (Algorithm 5).
#[derive(Debug)]
pub struct SafeClient {
    cfg: RegisterConfig,
    code: ReedSolomon,
    me: ClientId,
    phase: Phase,
    write_set: Vec<Block>,
    current_op: Option<OpId>,
}

impl SafeClient {
    /// Creates the automaton for client `me`.
    pub fn new(cfg: RegisterConfig, me: ClientId) -> Self {
        let code = cfg.code().expect("validated config builds a code");
        SafeClient {
            cfg,
            code,
            me,
            phase: Phase::Idle,
            write_set: Vec::new(),
            current_op: None,
        }
    }

    /// The chunks a reader has collected so far: what the client holds,
    /// and what it decodes from.
    fn collected(&self) -> impl Iterator<Item = &Chunk> {
        let responses = match &self.phase {
            Phase::Read { round } => round.responses(),
            _ => &[],
        };
        responses.iter().map(|(_, chunk)| chunk)
    }
}

impl ClientLogic for SafeClient {
    type State = SafeObject;

    fn on_invoke(&mut self, op: OpId, req: OpRequest, eff: &mut Effects<SafeObject>) {
        self.current_op = Some(op);
        match req {
            OpRequest::Write(v) => {
                self.write_set = self.code.encode(&v);
                let round = QuorumRound::broadcast(self.cfg.n, eff, |_| SafeRmw::ReadTs);
                self.phase = Phase::WriteReadTs { round };
            }
            OpRequest::Read => {
                let round = QuorumRound::broadcast(self.cfg.n, eff, |_| SafeRmw::ReadChunk);
                self.phase = Phase::Read { round };
            }
        }
    }

    fn on_response(&mut self, op: OpId, rmw: RmwId, resp: SafeResp, eff: &mut Effects<SafeObject>) {
        if self.current_op != Some(op) {
            return;
        }
        match &mut self.phase {
            Phase::Idle => {}
            Phase::WriteReadTs { round } => {
                let SafeResp::Ts(ts) = resp else { return };
                if !round.accept(rmw, ts) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    // Line 4: ts ← ⟨max + 1, j⟩.
                    let max = round
                        .responses()
                        .iter()
                        .map(|(_, ts)| *ts)
                        .max()
                        .expect("quorum is nonempty");
                    let ts = Timestamp::new(max.num + 1, self.me);
                    // Lines 5–6: store piece i at boᵢ.
                    let round = QuorumRound::broadcast(self.cfg.n, eff, |i| SafeRmw::Store {
                        ts,
                        piece: TaggedBlock::new(op, self.write_set[i].clone()),
                    });
                    self.phase = Phase::WriteStore { round };
                }
            }
            Phase::WriteStore { round } => {
                if !round.accept(rmw, ()) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    self.phase = Phase::Idle;
                    self.write_set.clear();
                    self.current_op = None;
                    eff.complete(OpResult::Write);
                }
            }
            Phase::Read { round } => {
                let SafeResp::Data(chunk) = resp else { return };
                if !round.accept(rmw, chunk) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    // Lines 15–18: decode if some ts has k pieces, else v₀.
                    let value = match best_decodable(self.collected(), Timestamp::ZERO, self.cfg.k)
                    {
                        Some((_, blocks)) => self
                            .code
                            .decode(&blocks)
                            .expect("k distinct pieces of one write decode"),
                        None => self.cfg.initial_value(),
                    };
                    self.phase = Phase::Idle;
                    self.current_op = None;
                    eff.complete(OpResult::Read(value));
                }
            }
        }
    }

    fn stored_blocks(&self) -> Vec<BlockInstance> {
        self.collected().map(Chunk::instance).collect()
    }

    fn stored_bits(&self) -> u64 {
        self.collected().map(Chunk::bits).sum()
    }
}

/// Factory for the safe-register protocol.
#[derive(Debug, Clone)]
pub struct Safe {
    cfg: RegisterConfig,
    initial_blocks: Vec<Block>,
}

impl Safe {
    /// Creates the protocol for a validated configuration.
    pub fn new(cfg: RegisterConfig) -> Self {
        let code = cfg.code().expect("validated config builds a code");
        let initial_blocks = code.encode(&cfg.initial_value());
        Safe {
            cfg,
            initial_blocks,
        }
    }
}

impl RegisterProtocol for Safe {
    type Object = SafeObject;
    type Client = SafeClient;

    fn name(&self) -> &'static str {
        "safe"
    }

    fn config(&self) -> &RegisterConfig {
        &self.cfg
    }

    fn new_sim(&self) -> Simulation<SafeObject, SafeClient> {
        let blocks = self.initial_blocks.clone();
        Simulation::new(self.cfg.n, move |obj: ObjectId| {
            SafeObject::initial(TaggedBlock::new(INITIAL_OP, blocks[obj.0].clone()))
        })
    }

    fn add_client(&self, sim: &mut Simulation<SafeObject, SafeClient>) -> ClientId {
        let id = ClientId(sim.client_count());
        sim.add_client(SafeClient::new(self.cfg, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsb_coding::Value;
    use rsb_fpsm::{run_to_completion, run_until, RandomScheduler};

    fn proto(f: usize, k: usize, len: usize) -> Safe {
        Safe::new(RegisterConfig::paper(f, k, len).unwrap())
    }

    #[test]
    fn quiet_write_then_read() {
        let p = proto(1, 2, 30);
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        let r = p.add_client(&mut sim);
        let v = Value::seeded(8, 30);
        sim.invoke(w, OpRequest::Write(v.clone())).unwrap();
        assert!(run_to_completion(&mut sim, 10_000));
        // Drain stragglers so all n objects hold the new pieces.
        let mut fair = rsb_fpsm::FairScheduler::new();
        rsb_fpsm::run(&mut sim, &mut fair, 10_000);
        sim.invoke(r, OpRequest::Read).unwrap();
        assert!(run_to_completion(&mut sim, 10_000));
        assert_eq!(
            sim.history().last().unwrap().result,
            Some(OpResult::Read(v))
        );
    }

    #[test]
    fn storage_is_constant_n_over_k() {
        let p = proto(2, 2, 64); // n = 6, piece 32 B = 256 bits
        let mut sim = p.new_sim();
        let ws: Vec<_> = (0..4).map(|_| p.add_client(&mut sim)).collect();
        let expected = 6 * 256;
        assert_eq!(sim.storage_cost().object_bits, expected);
        for (i, &w) in ws.iter().enumerate() {
            sim.invoke(w, OpRequest::Write(Value::seeded(i as u64, 64)))
                .unwrap();
        }
        let mut sched = RandomScheduler::new(3);
        assert!(run_until(&mut sim, &mut sched, 100_000, |s| s
            .history()
            .iter()
            .all(rsb_fpsm::OpRecord::is_complete)));
        let mut fair = rsb_fpsm::FairScheduler::new();
        rsb_fpsm::run(&mut sim, &mut fair, 100_000);
        // Object storage never grows beyond n pieces.
        assert_eq!(sim.storage_cost().object_bits, expected);
        assert_eq!(sim.peak_storage_cost().object_bits, expected);
    }

    #[test]
    fn read_with_no_concurrent_writes_returns_last_value() {
        let p = proto(1, 3, 60);
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        let r = p.add_client(&mut sim);
        for seed in 0..3 {
            sim.invoke(w, OpRequest::Write(Value::seeded(seed, 60)))
                .unwrap();
            assert!(run_to_completion(&mut sim, 10_000));
            let mut fair = rsb_fpsm::FairScheduler::new();
            rsb_fpsm::run(&mut sim, &mut fair, 10_000);
        }
        sim.invoke(r, OpRequest::Read).unwrap();
        assert!(run_to_completion(&mut sim, 10_000));
        assert_eq!(
            sim.history().last().unwrap().result,
            Some(OpResult::Read(Value::seeded(2, 60)))
        );
    }

    #[test]
    fn reads_are_wait_free_even_with_stuck_writers() {
        // A writer stuck mid-round-2 partially overwrites pieces; the read
        // must still return (possibly v₀) after ONE round — wait-freedom.
        let p = proto(1, 2, 16); // n = 4
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        let r = p.add_client(&mut sim);
        sim.invoke(w, OpRequest::Write(Value::seeded(1, 16)))
            .unwrap();
        // Run the writer's first round and exactly one Store apply+deliver.
        let mut fair = rsb_fpsm::FairScheduler::new();
        for _ in 0..10 {
            if let Some(ev) =
                rsb_fpsm::Scheduler::<SafeObject, SafeClient>::next_event(&mut fair, &sim)
            {
                sim.step(ev).unwrap();
            }
        }
        sim.crash_client(w);
        let read_op = sim.invoke(r, OpRequest::Read).unwrap();
        let mut fair = rsb_fpsm::FairScheduler::new();
        assert!(run_until(&mut sim, &mut fair, 10_000, |s| {
            s.op_record(read_op).is_complete()
        }));
        let got = sim.history().last().unwrap().result.clone().unwrap();
        let got = got.read_value().unwrap().clone();
        assert!(got == Value::zeroed(16) || got == Value::seeded(1, 16));
    }
}
