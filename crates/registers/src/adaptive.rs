//! The paper's Section-5 algorithm: a strongly regular, FW-terminating
//! MWMR register combining erasure coding with adaptive fallback to
//! replication, with storage cost `O(min(f, c) · D)`.
//!
//! Each base object `boᵢ` holds three fields (Algorithm 1):
//!
//! * `Vp` — a set of timestamped code *pieces* (the `i`-th piece of each
//!   recent write), capped at `k` entries;
//! * `Vf` — at most one timestamped *full replica* (stored as `k` pieces),
//!   used when `Vp` is full — i.e. when concurrency exceeds `k`;
//! * `storedTS` — a timestamp watermark: updates below it are ignored and
//!   pieces below it are garbage-collectable.
//!
//! A write performs three rounds (Algorithm 2): read-timestamp, update,
//! and garbage-collect; a read repeatedly samples the objects until some
//! timestamp `≥ storedTS` has `k` decodable pieces (FW-termination: reads
//! are only required to return once writes stop).
//!
//! Deviations from the pseudocode, none affecting the proofs:
//!
//! * The write's first round uses a timestamp-only RMW (`ReadTs`) rather
//!   than the block-carrying `readValue`, since the write uses nothing but
//!   the maximal timestamp; this keeps in-flight channel bits (which the
//!   paper's Definition 2 charges) proportional to the Theorem-2 bound.
//! * The update RMW carries the object's own piece plus the `k` pieces
//!   forming a full replica (`WriteSet` restricted to what line 36/38 can
//!   store), not all `n` pieces.

use crate::common::{
    best_decodable, Chunk, QuorumRound, RegisterConfig, TaggedBlock, Timestamp, INITIAL_OP,
};
use crate::protocol::RegisterProtocol;
use rsb_coding::{Block, Code, ReedSolomon};
use rsb_fpsm::{
    BlockInstance, ClientId, ClientLogic, Effects, ObjectId, ObjectState, OpId, OpRequest,
    OpResult, Payload, RmwId, Simulation,
};
use std::sync::Arc;

/// Base-object state: `⟨storedTS, Vp, Vf⟩` (Algorithm 1 line 8).
#[derive(Debug, Clone)]
pub struct AdaptiveObject {
    k: usize,
    stored_ts: Timestamp,
    vp: Vec<Chunk>,
    vf: Vec<Chunk>,
}

impl AdaptiveObject {
    /// The initial state of object `i`: `Vp = {⟨ts₀, piece i of v₀⟩}`.
    pub fn initial(k: usize, initial_piece: TaggedBlock) -> Self {
        AdaptiveObject {
            k,
            stored_ts: Timestamp::ZERO,
            vp: vec![Chunk::new(Timestamp::ZERO, initial_piece)],
            vf: Vec::new(),
        }
    }

    /// The `storedTS` watermark.
    pub fn stored_ts(&self) -> Timestamp {
        self.stored_ts
    }

    /// The piece set `Vp`.
    pub fn vp(&self) -> &[Chunk] {
        &self.vp
    }

    /// The full-replica set `Vf`.
    pub fn vf(&self) -> &[Chunk] {
        &self.vf
    }

    /// `Vp ∪ Vf`: every chunk the object stores.
    fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.vp.iter().chain(&self.vf)
    }
}

/// RMWs of the adaptive algorithm.
#[derive(Debug, Clone)]
pub enum AdaptiveRmw {
    /// Write round 1: fetch the object's maximal known timestamp.
    ReadTs,
    /// Read round: fetch `storedTS` and all chunks (`Vp ∪ Vf`).
    ReadValue,
    /// Write round 2 (the `update` routine, lines 32–39).
    Update {
        /// The write's timestamp.
        ts: Timestamp,
        /// The `storedTS` the writer saw in round 1.
        seen_stored_ts: Timestamp,
        /// Piece `i` of the written value, for this object's `Vp`.
        piece: TaggedBlock,
        /// Pieces `0..k`, forming a full replica for `Vf` if needed; one
        /// list shared by the `n` updates of a write.
        full: Arc<[TaggedBlock]>,
    },
    /// Write round 3 (the `GC` routine, lines 40–45).
    Gc {
        /// The write's timestamp.
        ts: Timestamp,
        /// Piece `i`, kept as the single remnant if `Vf` held the replica.
        piece: TaggedBlock,
    },
}

impl AdaptiveRmw {
    /// The pieces the parameters carry: the object's own, then the replica's.
    fn pieces(&self) -> impl Iterator<Item = &TaggedBlock> {
        let (piece, full): (_, &[TaggedBlock]) = match self {
            AdaptiveRmw::ReadTs | AdaptiveRmw::ReadValue => (None, &[]),
            AdaptiveRmw::Update { piece, full, .. } => (Some(piece), full),
            AdaptiveRmw::Gc { piece, .. } => (Some(piece), &[]),
        };
        piece.into_iter().chain(full)
    }
}

impl Payload for AdaptiveRmw {
    fn blocks(&self) -> Vec<BlockInstance> {
        self.pieces().map(TaggedBlock::instance).collect()
    }

    fn block_bits(&self) -> u64 {
        self.pieces().map(TaggedBlock::bits).sum()
    }
}

/// Responses of the adaptive algorithm's RMWs.
#[derive(Debug, Clone)]
pub enum AdaptiveResp {
    /// Ack for `Update`/`Gc`.
    Ack,
    /// Response to `ReadTs` — metadata only. Carries the object's
    /// `storedTS` and the maximal chunk timestamp separately: the former
    /// feeds the propagated watermark (Algorithm 2 line 9), the latter
    /// only the fresh-timestamp computation (line 6). Conflating them
    /// would let an incomplete write's timestamp become the watermark.
    Ts {
        /// The object's `storedTS` field.
        stored_ts: Timestamp,
        /// `max{ts | ⟨ts, ·⟩ ∈ Vp ∪ Vf}` (or `storedTS` if none).
        max_chunk_ts: Timestamp,
    },
    /// Response to `ReadValue`: watermark plus all chunks.
    State {
        /// The object's `storedTS`.
        stored_ts: Timestamp,
        /// `Vp ∪ Vf`.
        chunks: Vec<Chunk>,
    },
}

impl AdaptiveResp {
    fn chunks(&self) -> &[Chunk] {
        match self {
            AdaptiveResp::Ack | AdaptiveResp::Ts { .. } => &[],
            AdaptiveResp::State { chunks, .. } => chunks,
        }
    }
}

impl Payload for AdaptiveResp {
    fn blocks(&self) -> Vec<BlockInstance> {
        self.chunks().iter().map(Chunk::instance).collect()
    }

    fn block_bits(&self) -> u64 {
        self.chunks().iter().map(Chunk::bits).sum()
    }
}

impl Payload for AdaptiveObject {
    fn blocks(&self) -> Vec<BlockInstance> {
        self.chunks().map(Chunk::instance).collect()
    }

    fn block_bits(&self) -> u64 {
        self.chunks().map(Chunk::bits).sum()
    }
}

impl ObjectState for AdaptiveObject {
    type Rmw = AdaptiveRmw;
    type Resp = AdaptiveResp;

    fn apply(&mut self, _client: ClientId, rmw: &AdaptiveRmw) -> AdaptiveResp {
        match rmw {
            AdaptiveRmw::ReadTs => {
                let mut max = self.stored_ts;
                for c in self.chunks() {
                    max = max.max(c.ts);
                }
                AdaptiveResp::Ts {
                    stored_ts: self.stored_ts,
                    max_chunk_ts: max,
                }
            }
            AdaptiveRmw::ReadValue => AdaptiveResp::State {
                stored_ts: self.stored_ts,
                chunks: self.chunks().cloned().collect(),
            },
            AdaptiveRmw::Update {
                ts,
                seen_stored_ts,
                piece,
                full,
            } => {
                // Line 33: stale updates are ignored entirely.
                if *ts > self.stored_ts {
                    if self.vp.len() < self.k {
                        // Line 36: drop pieces below the writer's watermark,
                        // then store this write's piece.
                        self.vp.retain(|c| c.ts >= *seen_stored_ts);
                        self.vp.push(Chunk::new(*ts, piece.clone()));
                    } else if self.vf.is_empty() || self.vf.iter().any(|c| c.ts < *ts) {
                        // Lines 37–38: fall back to a full replica.
                        self.vf = full.iter().map(|p| Chunk::new(*ts, p.clone())).collect();
                    }
                    // Line 39: propagate the watermark.
                    self.stored_ts = self.stored_ts.max(*seen_stored_ts);
                }
                AdaptiveResp::Ack
            }
            AdaptiveRmw::Gc { ts, piece } => {
                // Lines 41–42: drop everything older than the completed write.
                self.vp.retain(|c| c.ts >= *ts);
                self.vf.retain(|c| c.ts >= *ts);
                // Lines 43–44: shrink my full replica to a single piece.
                if self.vf.iter().any(|c| c.ts == *ts) {
                    self.vf = vec![Chunk::new(*ts, piece.clone())];
                }
                // Line 45.
                self.stored_ts = self.stored_ts.max(*ts);
                AdaptiveResp::Ack
            }
        }
    }
}

/// Per-operation client phase.
#[derive(Debug)]
enum Phase {
    Idle,
    /// Write round 1: collecting `(storedTS, max chunk ts)` pairs.
    WriteReadTs {
        round: QuorumRound<(Timestamp, Timestamp)>,
    },
    /// Write round 2: collecting update acks.
    WriteUpdate {
        round: QuorumRound<()>,
        ts: Timestamp,
    },
    /// Write round 3: collecting GC acks.
    WriteGc {
        round: QuorumRound<()>,
    },
    /// Read: collecting `State` responses, possibly over many rounds.
    Read {
        round: QuorumRound<(Timestamp, Vec<Chunk>)>,
    },
}

/// Client automaton of the adaptive algorithm (Algorithm 2).
#[derive(Debug)]
pub struct AdaptiveClient {
    cfg: RegisterConfig,
    code: ReedSolomon,
    me: ClientId,
    phase: Phase,
    /// The encoder-oracle output of the current write (`WriteSet`); free
    /// per the cost model (it is the writer's own oracle state).
    write_set: Vec<Block>,
    current_op: Option<OpId>,
}

impl AdaptiveClient {
    /// Creates the automaton for client `me`.
    pub fn new(cfg: RegisterConfig, me: ClientId) -> Self {
        let code = cfg.code().expect("validated config builds a code");
        AdaptiveClient {
            cfg,
            code,
            me,
            phase: Phase::Idle,
            write_set: Vec::new(),
            current_op: None,
        }
    }

    fn trigger_read_value(
        &self,
        eff: &mut Effects<AdaptiveObject>,
    ) -> QuorumRound<(Timestamp, Vec<Chunk>)> {
        QuorumRound::broadcast(self.cfg.n, eff, |_| AdaptiveRmw::ReadValue)
    }

    /// The chunks a reader has collected so far this round: what the
    /// client holds, and what it decodes from.
    fn collected(&self) -> impl Iterator<Item = &Chunk> {
        let responses = match &self.phase {
            Phase::Read { round } => round.responses(),
            _ => &[],
        };
        responses.iter().flat_map(|(_, (_, chunks))| chunks)
    }
}

impl ClientLogic for AdaptiveClient {
    type State = AdaptiveObject;

    fn on_invoke(&mut self, op: OpId, req: OpRequest, eff: &mut Effects<AdaptiveObject>) {
        self.current_op = Some(op);
        match req {
            OpRequest::Write(v) => {
                // Line 4: WriteSet ← encode(v).
                self.write_set = self.code.encode(&v);
                // Round 1 (line 5): read timestamps.
                let round = QuorumRound::broadcast(self.cfg.n, eff, |_| AdaptiveRmw::ReadTs);
                self.phase = Phase::WriteReadTs { round };
            }
            OpRequest::Read => {
                // Line 17: first readValue round.
                let round = self.trigger_read_value(eff);
                self.phase = Phase::Read { round };
            }
        }
    }

    fn on_response(
        &mut self,
        op: OpId,
        rmw: RmwId,
        resp: AdaptiveResp,
        eff: &mut Effects<AdaptiveObject>,
    ) {
        if self.current_op != Some(op) {
            return; // straggler from a completed operation
        }
        match &mut self.phase {
            Phase::Idle => {}
            Phase::WriteReadTs { round } => {
                let AdaptiveResp::Ts {
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
                    // Line 6: the fresh timestamp dominates everything seen.
                    let max_any = round
                        .responses()
                        .iter()
                        .map(|(_, (st, mc))| (*st).max(*mc))
                        .max()
                        .expect("quorum is nonempty");
                    let ts = Timestamp::new(max_any.num + 1, self.me);
                    // Line 9: the watermark we propagate is the max
                    // *storedTS* only (completed-write knowledge).
                    let seen_stored_ts = round
                        .responses()
                        .iter()
                        .map(|(_, (st, _))| *st)
                        .max()
                        .expect("quorum is nonempty");
                    // Round 2 (lines 8–10): update all objects.
                    let full: Arc<[TaggedBlock]> = self.write_set[..self.cfg.k]
                        .iter()
                        .map(|b| TaggedBlock::new(op, b.clone()))
                        .collect();
                    let round = QuorumRound::broadcast(self.cfg.n, eff, |i| AdaptiveRmw::Update {
                        ts,
                        seen_stored_ts,
                        piece: TaggedBlock::new(op, self.write_set[i].clone()),
                        full: Arc::clone(&full),
                    });
                    self.phase = Phase::WriteUpdate { round, ts };
                }
            }
            Phase::WriteUpdate { round, ts } => {
                if !round.accept(rmw, ()) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    let ts = *ts;
                    // Round 3 (lines 11–13): garbage collect.
                    let round = QuorumRound::broadcast(self.cfg.n, eff, |i| AdaptiveRmw::Gc {
                        ts,
                        piece: TaggedBlock::new(op, self.write_set[i].clone()),
                    });
                    self.phase = Phase::WriteGc { round };
                }
            }
            Phase::WriteGc { round } => {
                if !round.accept(rmw, ()) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    // Line 14.
                    self.phase = Phase::Idle;
                    self.write_set.clear();
                    self.current_op = None;
                    eff.complete(OpResult::Write);
                }
            }
            Phase::Read { round } => {
                let AdaptiveResp::State { stored_ts, chunks } = resp else {
                    return;
                };
                if !round.accept(rmw, (stored_ts, chunks)) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    // Lines 18–21: look for a decodable timestamp at or
                    // above the quorum's watermark.
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
                        // Line 19: sample again.
                        let round = self.trigger_read_value(eff);
                        self.phase = Phase::Read { round };
                    }
                }
            }
        }
    }

    fn stored_blocks(&self) -> Vec<BlockInstance> {
        // A reader mid-round holds the chunks it has collected; those are
        // charged (the write set is the writer's own oracle and is free).
        self.collected().map(Chunk::instance).collect()
    }

    fn stored_bits(&self) -> u64 {
        self.collected().map(Chunk::bits).sum()
    }
}

/// Factory for the adaptive protocol: builds simulations and clients.
#[derive(Debug, Clone)]
pub struct Adaptive {
    cfg: RegisterConfig,
    initial_blocks: Vec<Block>,
}

impl Adaptive {
    /// Creates the protocol for a validated configuration.
    pub fn new(cfg: RegisterConfig) -> Self {
        let code = cfg.code().expect("validated config builds a code");
        let initial_blocks = code.encode(&cfg.initial_value());
        Adaptive {
            cfg,
            initial_blocks,
        }
    }
}

impl RegisterProtocol for Adaptive {
    type Object = AdaptiveObject;
    type Client = AdaptiveClient;

    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn config(&self) -> &RegisterConfig {
        &self.cfg
    }

    fn new_sim(&self) -> Simulation<AdaptiveObject, AdaptiveClient> {
        let k = self.cfg.k;
        let blocks = self.initial_blocks.clone();
        Simulation::new(self.cfg.n, move |obj: ObjectId| {
            AdaptiveObject::initial(k, TaggedBlock::new(INITIAL_OP, blocks[obj.0].clone()))
        })
    }

    fn add_client(&self, sim: &mut Simulation<AdaptiveObject, AdaptiveClient>) -> ClientId {
        let id = ClientId(sim.client_count());
        sim.add_client(AdaptiveClient::new(self.cfg, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsb_coding::Value;
    use rsb_fpsm::{run_to_completion, run_until, FairScheduler, RandomScheduler};

    fn proto(f: usize, k: usize, len: usize) -> Adaptive {
        Adaptive::new(RegisterConfig::paper(f, k, len).unwrap())
    }

    #[test]
    fn solo_write_then_read() {
        let p = proto(1, 2, 32);
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        let r = p.add_client(&mut sim);
        let v = Value::seeded(5, 32);
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
    fn read_before_any_write_returns_v0() {
        let p = proto(2, 2, 16);
        let mut sim = p.new_sim();
        let r = p.add_client(&mut sim);
        sim.invoke(r, OpRequest::Read).unwrap();
        assert!(run_to_completion(&mut sim, 10_000));
        assert_eq!(
            sim.history()[0].result,
            Some(OpResult::Read(Value::zeroed(16)))
        );
    }

    #[test]
    fn sequential_writes_read_latest() {
        let p = proto(1, 2, 24);
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        let r = p.add_client(&mut sim);
        for seed in 0..5 {
            sim.invoke(w, OpRequest::Write(Value::seeded(seed, 24)))
                .unwrap();
            assert!(run_to_completion(&mut sim, 10_000));
        }
        sim.invoke(r, OpRequest::Read).unwrap();
        assert!(run_to_completion(&mut sim, 10_000));
        assert_eq!(
            sim.history().last().unwrap().result,
            Some(OpResult::Read(Value::seeded(4, 24)))
        );
    }

    #[test]
    fn survives_f_object_crashes() {
        let p = proto(2, 2, 16); // n = 6
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        let r = p.add_client(&mut sim);
        sim.crash_object(ObjectId(0));
        sim.crash_object(ObjectId(3));
        let v = Value::seeded(9, 16);
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
    fn concurrent_writers_under_random_schedules() {
        for seed in 0..5u64 {
            let p = proto(1, 3, 20); // n = 5, k = 3
            let mut sim = p.new_sim();
            let writers: Vec<_> = (0..3).map(|_| p.add_client(&mut sim)).collect();
            for (i, &w) in writers.iter().enumerate() {
                sim.invoke(w, OpRequest::Write(Value::seeded(i as u64 + 1, 20)))
                    .unwrap();
            }
            let mut sched = RandomScheduler::new(seed);
            assert!(
                run_until(&mut sim, &mut sched, 100_000, |s| s
                    .history()
                    .iter()
                    .all(rsb_fpsm::OpRecord::is_complete)),
                "writes did not finish, seed {seed}"
            );
            // A subsequent read returns one of the written values.
            let r = p.add_client(&mut sim);
            sim.invoke(r, OpRequest::Read).unwrap();
            assert!(run_to_completion(&mut sim, 100_000));
            let got = sim.history().last().unwrap().result.clone().unwrap();
            let got = got.read_value().unwrap().clone();
            assert!(
                (1..=3).map(|s| Value::seeded(s, 20)).any(|v| v == got),
                "read returned an unwritten value"
            );
        }
    }

    #[test]
    fn storage_shrinks_after_quiescence_to_n_pieces() {
        // Lemma 8: finite writes, all complete ⇒ storage = (2f+k)·D/k.
        let p = proto(2, 2, 64); // n = 6, piece = 32 B = 256 bits
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        for seed in 0..4 {
            sim.invoke(w, OpRequest::Write(Value::seeded(seed, 64)))
                .unwrap();
            assert!(run_to_completion(&mut sim, 10_000));
        }
        // Drain stragglers so every triggered RMW lands.
        let mut fair = FairScheduler::new();
        rsb_fpsm::run(&mut sim, &mut fair, 100_000);
        let cost = sim.storage_cost();
        let expected = (p.config().n as u64) * p.config().data_bits() / p.config().k as u64;
        assert_eq!(cost.object_bits, expected);
        assert_eq!(cost.total(), expected);
    }

    #[test]
    fn vp_capacity_respected_and_vf_fallback_engages() {
        // k = 2, so a third concurrent writer must fall back to Vf.
        let p = proto(1, 2, 16); // n = 4
        let mut sim = p.new_sim();
        let writers: Vec<_> = (0..4).map(|_| p.add_client(&mut sim)).collect();
        for (i, &w) in writers.iter().enumerate() {
            sim.invoke(w, OpRequest::Write(Value::seeded(i as u64, 16)))
                .unwrap();
        }
        let mut sched = RandomScheduler::new(7);
        assert!(run_until(&mut sim, &mut sched, 100_000, |s| s
            .history()
            .iter()
            .all(rsb_fpsm::OpRecord::is_complete)));
        for i in 0..4 {
            let st = sim.object_state(ObjectId(i));
            assert!(st.vp().len() <= 2, "Vp exceeded k at bo{i}");
            // Vf holds at most one replica's worth of pieces.
            assert!(st.vf().len() <= 2, "Vf exceeded k pieces at bo{i}");
        }
    }
}
