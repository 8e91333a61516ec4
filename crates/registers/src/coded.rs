//! A pure erasure-coded register with no replication fallback — the
//! `O(c·D)` baseline.
//!
//! This protocol mirrors the behaviour of the asynchronous code-based
//! algorithms the paper surveys ([5, 6, 8, 9]): base objects accumulate one
//! piece per concurrent write (garbage-collected only once a newer write is
//! known complete), so the storage grows linearly with the concurrency
//! level — exactly the effect the lower bound says is unavoidable unless
//! you pay `f + 1` full replicas instead.
//!
//! Structurally it is the adaptive algorithm of Section 5 with `Vf`
//! removed and the `|Vp| < k` capacity check dropped; reads are
//! FW-terminating (they may loop while new writes keep landing).
//!
//! The encoder's blocks are moved into one tagged list that a write's
//! `n` `Store` RMWs share, each naming its target object's index in it;
//! a `Store` is charged for piece `i` alone, as if it carried only that.

use crate::common::{
    best_decodable, chunk_bits, retain_from, tagged_pieces, Chunk, QuorumRound, RegisterConfig,
    TaggedBlock, Timestamp, INITIAL_OP,
};
use crate::protocol::RegisterProtocol;
use rsb_coding::{Block, Code, ReedSolomon};
use rsb_fpsm::{
    BlockInstance, ClientId, ClientLogic, Effects, ObjectId, ObjectState, OpId, OpRequest,
    OpResult, Payload, RmwId, Simulation,
};
use std::sync::Arc;

/// Base-object state: watermark plus an unbounded piece set.
///
/// The set has room for one write beside the one it supersedes — what a
/// write with no concurrency needs; only concurrent writes grow it. The
/// set's bits are kept beside it, so the simulator's per-event measure of
/// the object is a load.
#[derive(Debug, Clone)]
pub struct CodedObject {
    stored_ts: Timestamp,
    vp: Vec<Chunk>,
    bits: u64,
}

impl CodedObject {
    /// Initial state: piece `i` of `v₀`.
    pub fn initial(piece: TaggedBlock) -> Self {
        let bits = piece.bits();
        let mut vp = Vec::with_capacity(2);
        vp.push(Chunk::new(Timestamp::ZERO, piece));
        CodedObject {
            stored_ts: Timestamp::ZERO,
            vp,
            bits,
        }
    }

    /// The watermark.
    pub fn stored_ts(&self) -> Timestamp {
        self.stored_ts
    }

    /// The piece set.
    pub fn vp(&self) -> &[Chunk] {
        &self.vp
    }
}

/// RMWs of the pure-coded protocol.
#[derive(Debug, Clone)]
pub enum CodedRmw {
    /// Write round 1: fetch timestamps (metadata only).
    ReadTs,
    /// Read round: fetch watermark and pieces.
    ReadValue,
    /// Write round 2: store a piece, dropping pieces below the writer's
    /// watermark.
    Store {
        /// The write's timestamp.
        ts: Timestamp,
        /// The watermark seen in round 1.
        seen_stored_ts: Timestamp,
        /// All `n` pieces of the written value, one list shared by the
        /// write's stores; piece `index` is this object's.
        pieces: Arc<[TaggedBlock]>,
        /// The target object's index.
        index: u32,
    },
    /// Write round 3: garbage-collect below the completed write.
    Gc {
        /// The write's timestamp.
        ts: Timestamp,
    },
}

impl CodedRmw {
    fn piece(&self) -> Option<&TaggedBlock> {
        match self {
            CodedRmw::ReadTs | CodedRmw::ReadValue | CodedRmw::Gc { .. } => None,
            CodedRmw::Store { pieces, index, .. } => Some(&pieces[*index as usize]),
        }
    }
}

impl Payload for CodedRmw {
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

/// Responses of the pure-coded protocol.
#[derive(Debug, Clone)]
pub enum CodedResp {
    /// Ack for `Store`/`Gc`.
    Ack,
    /// Watermark and maximal chunk timestamp (metadata only).
    Ts {
        /// The object's watermark.
        stored_ts: Timestamp,
        /// The maximal piece timestamp.
        max_chunk_ts: Timestamp,
    },
    /// Watermark plus pieces.
    State {
        /// The object's watermark.
        stored_ts: Timestamp,
        /// All stored pieces.
        chunks: Vec<Chunk>,
        /// The bits of `chunks`, as the object had them cached.
        bits: u64,
    },
}

impl CodedResp {
    fn chunks(&self) -> &[Chunk] {
        match self {
            CodedResp::Ack | CodedResp::Ts { .. } => &[],
            CodedResp::State { chunks, .. } => chunks,
        }
    }
}

impl Payload for CodedResp {
    fn blocks(&self) -> Vec<BlockInstance> {
        self.chunks().iter().map(Chunk::instance).collect()
    }

    fn block_bits(&self) -> u64 {
        let bits = match self {
            CodedResp::Ack | CodedResp::Ts { .. } => 0,
            CodedResp::State { bits, .. } => *bits,
        };
        debug_assert_eq!(bits, chunk_bits(self.chunks()), "cached response bits");
        bits
    }
}

impl Payload for CodedObject {
    fn blocks(&self) -> Vec<BlockInstance> {
        self.vp.iter().map(Chunk::instance).collect()
    }

    fn block_bits(&self) -> u64 {
        debug_assert_eq!(self.bits, chunk_bits(&self.vp), "cached object bits");
        self.bits
    }
}

impl ObjectState for CodedObject {
    type Rmw = CodedRmw;
    type Resp = CodedResp;

    fn apply(&mut self, _client: ClientId, rmw: &CodedRmw) -> CodedResp {
        match rmw {
            CodedRmw::ReadTs => {
                let max = self
                    .vp
                    .iter()
                    .map(|c| c.ts)
                    .max()
                    .unwrap_or(self.stored_ts)
                    .max(self.stored_ts);
                CodedResp::Ts {
                    stored_ts: self.stored_ts,
                    max_chunk_ts: max,
                }
            }
            CodedRmw::ReadValue => CodedResp::State {
                stored_ts: self.stored_ts,
                chunks: self.vp.clone(),
                bits: self.bits,
            },
            CodedRmw::Store {
                ts,
                seen_stored_ts,
                pieces,
                index,
            } => {
                if *ts > self.stored_ts {
                    // Drop pieces the writer knows are superseded, then
                    // append — with NO capacity bound: one piece per
                    // concurrent write survives. Growth is one chunk at
                    // a time, so a set never holds more room than its
                    // busiest moment needed.
                    retain_from(&mut self.vp, *seen_stored_ts, &mut self.bits);
                    self.vp.reserve_exact(1);
                    let piece = &pieces[*index as usize];
                    self.bits += piece.bits();
                    self.vp.push(Chunk::new(*ts, piece.clone()));
                    self.stored_ts = self.stored_ts.max(*seen_stored_ts);
                }
                CodedResp::Ack
            }
            CodedRmw::Gc { ts } => {
                retain_from(&mut self.vp, *ts, &mut self.bits);
                self.stored_ts = self.stored_ts.max(*ts);
                CodedResp::Ack
            }
        }
    }
}

/// Per-operation phase of the pure-coded client.
#[derive(Debug)]
enum Phase {
    Idle,
    WriteReadTs {
        round: QuorumRound<(Timestamp, Timestamp)>,
        /// The encoder's blocks (`WriteSet`), tagged, until round 2
        /// hands them to the stores.
        pieces: Arc<[TaggedBlock]>,
    },
    WriteStore {
        round: QuorumRound<()>,
        ts: Timestamp,
    },
    WriteGc {
        round: QuorumRound<()>,
    },
    Read {
        round: QuorumRound<(Timestamp, Vec<Chunk>)>,
        /// The bits of the chunks collected this round.
        bits: u64,
    },
}

/// Client automaton of the pure-coded protocol.
#[derive(Debug)]
pub struct CodedClient {
    cfg: RegisterConfig,
    /// The protocol's code, shared by all its clients.
    code: Arc<ReedSolomon>,
    me: ClientId,
    phase: Phase,
    current_op: Option<OpId>,
}

impl CodedClient {
    /// Creates the automaton for client `me`, encoding and decoding with
    /// `code` (the `k`-of-`n` code of `cfg`).
    pub fn new(cfg: RegisterConfig, code: Arc<ReedSolomon>, me: ClientId) -> Self {
        CodedClient {
            cfg,
            code,
            me,
            phase: Phase::Idle,
            current_op: None,
        }
    }

    fn trigger_read_value(
        &self,
        eff: &mut Effects<CodedObject>,
    ) -> QuorumRound<(Timestamp, Vec<Chunk>)> {
        QuorumRound::broadcast(self.cfg.n, eff, |_| CodedRmw::ReadValue)
    }

    /// The chunks a reader has collected so far this round: what the
    /// client holds, and what it decodes from.
    fn collected(&self) -> impl Iterator<Item = &Chunk> {
        let responses = match &self.phase {
            Phase::Read { round, .. } => round.responses(),
            _ => &[],
        };
        responses.iter().flat_map(|(_, (_, chunks))| chunks)
    }
}

impl ClientLogic for CodedClient {
    type State = CodedObject;

    fn on_invoke(&mut self, op: OpId, req: OpRequest, eff: &mut Effects<CodedObject>) {
        self.current_op = Some(op);
        match req {
            OpRequest::Write(v) => {
                let pieces = tagged_pieces(&self.code, op, &v);
                let round = QuorumRound::broadcast(self.cfg.n, eff, |_| CodedRmw::ReadTs);
                self.phase = Phase::WriteReadTs { round, pieces };
            }
            OpRequest::Read => {
                let round = self.trigger_read_value(eff);
                self.phase = Phase::Read { round, bits: 0 };
            }
        }
    }

    fn on_response(
        &mut self,
        op: OpId,
        rmw: RmwId,
        resp: CodedResp,
        eff: &mut Effects<CodedObject>,
    ) {
        if self.current_op != Some(op) {
            return;
        }
        match &mut self.phase {
            Phase::Idle => {}
            Phase::WriteReadTs { round, pieces } => {
                let CodedResp::Ts {
                    stored_ts,
                    max_chunk_ts,
                } = resp
                else {
                    return;
                };
                if !round.accept(rmw, (stored_ts, max_chunk_ts)) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    let max_any = round
                        .responses()
                        .iter()
                        .map(|(_, (st, mc))| (*st).max(*mc))
                        .max()
                        .expect("quorum is nonempty");
                    let ts = Timestamp::new(max_any.num + 1, self.me);
                    let seen_stored_ts = round
                        .responses()
                        .iter()
                        .map(|(_, (st, _))| *st)
                        .max()
                        .expect("quorum is nonempty");
                    // The stores hold the write's last references to its
                    // pieces.
                    let pieces = Arc::clone(pieces);
                    let round = QuorumRound::broadcast(self.cfg.n, eff, |i| CodedRmw::Store {
                        ts,
                        seen_stored_ts,
                        pieces: Arc::clone(&pieces),
                        index: i as u32,
                    });
                    self.phase = Phase::WriteStore { round, ts };
                }
            }
            Phase::WriteStore { round, ts } => {
                if !round.accept(rmw, ()) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    let ts = *ts;
                    let round = QuorumRound::broadcast(self.cfg.n, eff, |_| CodedRmw::Gc { ts });
                    self.phase = Phase::WriteGc { round };
                }
            }
            Phase::WriteGc { round } => {
                if !round.accept(rmw, ()) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    self.phase = Phase::Idle;
                    self.current_op = None;
                    eff.complete(OpResult::Write);
                }
            }
            Phase::Read { round, bits } => {
                let CodedResp::State {
                    stored_ts,
                    chunks,
                    bits: resp_bits,
                } = resp
                else {
                    return;
                };
                if !round.accept(rmw, (stored_ts, chunks)) {
                    return;
                }
                *bits += resp_bits;
                if round.count() >= self.cfg.quorum() {
                    let min_ts = round
                        .responses()
                        .iter()
                        .map(|(_, (ts, _))| *ts)
                        .max()
                        .expect("quorum is nonempty");
                    if let Some((_, blocks)) = best_decodable(self.collected(), min_ts, self.cfg.k)
                    {
                        let value = self
                            .code
                            .decode(&blocks)
                            .expect("k distinct pieces of one write decode");
                        self.phase = Phase::Idle;
                        self.current_op = None;
                        eff.complete(OpResult::Read(value));
                    } else {
                        let round = self.trigger_read_value(eff);
                        self.phase = Phase::Read { round, bits: 0 };
                    }
                }
            }
        }
    }

    fn stored_blocks(&self) -> Vec<BlockInstance> {
        self.collected().map(Chunk::instance).collect()
    }

    fn stored_bits(&self) -> u64 {
        let bits = match self.phase {
            Phase::Read { bits, .. } => bits,
            _ => 0,
        };
        debug_assert_eq!(bits, chunk_bits(self.collected()), "cached reader bits");
        bits
    }
}

/// Factory for the pure-coded protocol.
#[derive(Debug, Clone)]
pub struct Coded {
    cfg: RegisterConfig,
    /// The one code every client of the protocol encodes and decodes with.
    code: Arc<ReedSolomon>,
    initial_blocks: Vec<Block>,
}

impl Coded {
    /// Creates the protocol for a validated configuration.
    pub fn new(cfg: RegisterConfig) -> Self {
        let code = cfg.code().expect("validated config builds a code");
        let initial_blocks = code.encode(&cfg.initial_value());
        Coded {
            cfg,
            code: Arc::new(code),
            initial_blocks,
        }
    }
}

impl RegisterProtocol for Coded {
    type Object = CodedObject;
    type Client = CodedClient;

    fn name(&self) -> &'static str {
        "coded"
    }

    fn config(&self) -> &RegisterConfig {
        &self.cfg
    }

    fn new_sim(&self) -> Simulation<CodedObject, CodedClient> {
        let blocks = self.initial_blocks.clone();
        Simulation::new(self.cfg.n, move |obj: ObjectId| {
            CodedObject::initial(TaggedBlock::new(INITIAL_OP, blocks[obj.0].clone()))
        })
    }

    fn add_client(&self, sim: &mut Simulation<CodedObject, CodedClient>) -> ClientId {
        let id = ClientId(sim.client_count());
        sim.add_client(CodedClient::new(self.cfg, Arc::clone(&self.code), id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsb_coding::Value;
    use rsb_fpsm::{run_to_completion, run_until, RandomScheduler};

    fn proto(f: usize, k: usize, len: usize) -> Coded {
        Coded::new(RegisterConfig::paper(f, k, len).unwrap())
    }

    #[test]
    fn write_read_roundtrip() {
        let p = proto(1, 2, 32);
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        let r = p.add_client(&mut sim);
        let v = Value::seeded(2, 32);
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
    fn object_piece_count_grows_with_concurrency() {
        // c concurrent writers stuck after their Store applies leave c + 1
        // pieces (theirs + the initial value's) on touched objects.
        let c = 4;
        let p = proto(2, 3, 30); // n = 7
        let mut sim = p.new_sim();
        let ws: Vec<_> = (0..c).map(|_| p.add_client(&mut sim)).collect();
        for (i, &w) in ws.iter().enumerate() {
            sim.invoke(w, OpRequest::Write(Value::seeded(i as u64, 30)))
                .unwrap();
        }
        // Run everything EXCEPT GC applies: stop each writer after its
        // Store quorum but before its Gc RMWs apply. Simplest adversarial
        // proxy: run fair until all Stores applied, then inspect peak.
        let mut sched = RandomScheduler::new(5);
        run_until(&mut sim, &mut sched, 200_000, |s| {
            s.history().iter().all(rsb_fpsm::OpRecord::is_complete)
        });
        // After completion + GC the steady state shrinks again, but the
        // PEAK object storage must have exceeded c/2 pieces per object on
        // average — the concurrency cost.
        let piece_bits = 8 * 10; // 30 B value, k = 3 → 10 B pieces
        assert!(
            sim.peak_storage_cost().object_bits > (p.config().n as u64) * piece_bits,
            "peak {} did not exceed one piece per object",
            sim.peak_storage_cost().object_bits
        );
    }

    #[test]
    fn concurrent_writers_complete_and_read_sees_one() {
        for seed in 0..4u64 {
            let p = proto(1, 2, 24);
            let mut sim = p.new_sim();
            let ws: Vec<_> = (0..3).map(|_| p.add_client(&mut sim)).collect();
            for (i, &w) in ws.iter().enumerate() {
                sim.invoke(w, OpRequest::Write(Value::seeded(i as u64 + 1, 24)))
                    .unwrap();
            }
            let mut sched = RandomScheduler::new(seed);
            assert!(run_until(&mut sim, &mut sched, 200_000, |s| s
                .history()
                .iter()
                .all(rsb_fpsm::OpRecord::is_complete)));
            let r = p.add_client(&mut sim);
            sim.invoke(r, OpRequest::Read).unwrap();
            assert!(run_to_completion(&mut sim, 200_000));
            let got = sim.history().last().unwrap().result.clone().unwrap();
            let got = got.read_value().unwrap().clone();
            assert!((1..=3).map(|s| Value::seeded(s, 24)).any(|v| v == got));
        }
    }

    #[test]
    fn gc_restores_minimum_after_quiescence() {
        let p = proto(1, 2, 16); // n = 4, piece 8 B = 64 bits
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        for seed in 0..3 {
            sim.invoke(w, OpRequest::Write(Value::seeded(seed, 16)))
                .unwrap();
            assert!(run_to_completion(&mut sim, 10_000));
        }
        let mut fair = rsb_fpsm::FairScheduler::new();
        rsb_fpsm::run(&mut sim, &mut fair, 10_000);
        assert_eq!(sim.storage_cost().object_bits, 4 * 64);
    }
}
