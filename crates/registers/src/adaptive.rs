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
//! * The update RMW is charged for the object's own piece plus the `k`
//!   pieces forming a full replica (`WriteSet` restricted to what line
//!   36/38 can store), not all `n` pieces. In memory, a write's `n`
//!   updates and `n` GCs share one list of its tagged pieces, and each
//!   RMW names its target object's index in it (and an update also `k`);
//!   what an RMW is charged is unchanged by the sharing.

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

/// Base-object state: `⟨storedTS, Vp, Vf⟩` (Algorithm 1 line 8).
///
/// `Vp` holds at most `k` chunks, so it is allocated with room for `k`
/// once and never grows; `k` itself arrives with every update. `Vf` is
/// only ever replaced whole, so it is a boxed slice, with no room to grow.
/// The bits of `Vp ∪ Vf` are kept beside them, so the simulator's
/// per-event measure of the object is a load.
#[derive(Debug, Clone)]
pub struct AdaptiveObject {
    stored_ts: Timestamp,
    vp: Vec<Chunk>,
    vf: Box<[Chunk]>,
    bits: u64,
}

impl AdaptiveObject {
    /// The initial state of object `i`: `Vp = {⟨ts₀, piece i of v₀⟩}`.
    pub fn initial(k: usize, initial_piece: TaggedBlock) -> Self {
        let bits = initial_piece.bits();
        let mut vp = Vec::with_capacity(k);
        vp.push(Chunk::new(Timestamp::ZERO, initial_piece));
        AdaptiveObject {
            stored_ts: Timestamp::ZERO,
            vp,
            vf: Box::default(),
            bits,
        }
    }

    /// Replaces `Vf` whole, keeping the cached bits.
    fn set_vf(&mut self, vf: Box<[Chunk]>) {
        self.bits = self.bits - chunk_bits(&*self.vf) + chunk_bits(&*vf);
        self.vf = vf;
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
        /// All `n` pieces of the written value, one list shared by the
        /// write's updates and GCs. Piece `index` goes to this object's
        /// `Vp`; pieces `0..k` form the full replica for `Vf` if needed.
        pieces: Arc<[TaggedBlock]>,
        /// The target object's index.
        index: u32,
        /// The code's `k`: `Vp`'s capacity and the replica's length.
        k: u32,
    },
    /// Write round 3 (the `GC` routine, lines 40–45).
    Gc {
        /// The write's timestamp.
        ts: Timestamp,
        /// The write's shared piece list. Piece `index` is kept as the
        /// single remnant if `Vf` held the replica.
        pieces: Arc<[TaggedBlock]>,
        /// The target object's index.
        index: u32,
    },
}

impl AdaptiveRmw {
    /// The pieces the parameters are charged for: the object's own, then
    /// (for an update) the replica's.
    fn pieces(&self) -> impl Iterator<Item = &TaggedBlock> {
        let (own, full): (_, &[TaggedBlock]) = match self {
            AdaptiveRmw::ReadTs | AdaptiveRmw::ReadValue => (None, &[]),
            AdaptiveRmw::Update {
                pieces, index, k, ..
            } => (Some(&pieces[*index as usize]), &pieces[..*k as usize]),
            AdaptiveRmw::Gc { pieces, index, .. } => (Some(&pieces[*index as usize]), &[]),
        };
        own.into_iter().chain(full)
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
        /// The bits of `chunks`, as the object had them cached.
        bits: u64,
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
        let bits = match self {
            AdaptiveResp::Ack | AdaptiveResp::Ts { .. } => 0,
            AdaptiveResp::State { bits, .. } => *bits,
        };
        debug_assert_eq!(bits, chunk_bits(self.chunks()), "cached response bits");
        bits
    }
}

impl Payload for AdaptiveObject {
    fn blocks(&self) -> Vec<BlockInstance> {
        self.chunks().map(Chunk::instance).collect()
    }

    fn block_bits(&self) -> u64 {
        debug_assert_eq!(self.bits, chunk_bits(self.chunks()), "cached object bits");
        self.bits
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
                bits: self.bits,
            },
            AdaptiveRmw::Update {
                ts,
                seen_stored_ts,
                pieces,
                index,
                k,
            } => {
                let k = *k as usize;
                // Line 33: stale updates are ignored entirely.
                if *ts > self.stored_ts {
                    if self.vp.len() < k {
                        // Line 36: drop pieces below the writer's watermark,
                        // then store this write's piece. Room for `k` is
                        // there from creation on (a snapshot's exact-length
                        // clone regains it here, once).
                        retain_from(&mut self.vp, *seen_stored_ts, &mut self.bits);
                        self.vp.reserve_exact(k - self.vp.len());
                        let piece = &pieces[*index as usize];
                        self.bits += piece.bits();
                        self.vp.push(Chunk::new(*ts, piece.clone()));
                    } else if self.vf.is_empty() || self.vf.iter().any(|c| c.ts < *ts) {
                        // Lines 37–38: fall back to a full replica.
                        self.set_vf(
                            pieces[..k]
                                .iter()
                                .map(|p| Chunk::new(*ts, p.clone()))
                                .collect(),
                        );
                    }
                    // Line 39: propagate the watermark.
                    self.stored_ts = self.stored_ts.max(*seen_stored_ts);
                }
                AdaptiveResp::Ack
            }
            AdaptiveRmw::Gc { ts, pieces, index } => {
                // Lines 41–42: drop everything older than the completed write.
                retain_from(&mut self.vp, *ts, &mut self.bits);
                if self.vf.iter().any(|c| c.ts < *ts) {
                    self.set_vf(self.vf.iter().filter(|c| c.ts >= *ts).cloned().collect());
                }
                // Lines 43–44: shrink my full replica to a single piece.
                if self.vf.iter().any(|c| c.ts == *ts) {
                    self.set_vf(Box::new([Chunk::new(*ts, pieces[*index as usize].clone())]));
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
        /// The encoder-oracle output (`WriteSet`), tagged; free per the
        /// cost model (it is the writer's own oracle state).
        pieces: Arc<[TaggedBlock]>,
    },
    /// Write round 2: collecting update acks.
    WriteUpdate {
        round: QuorumRound<()>,
        ts: Timestamp,
        pieces: Arc<[TaggedBlock]>,
    },
    /// Write round 3: collecting GC acks.
    WriteGc {
        round: QuorumRound<()>,
    },
    /// Read: collecting `State` responses, possibly over many rounds.
    Read {
        round: QuorumRound<(Timestamp, Vec<Chunk>)>,
        /// The bits of the chunks collected this round.
        bits: u64,
    },
}

/// Client automaton of the adaptive algorithm (Algorithm 2).
#[derive(Debug)]
pub struct AdaptiveClient {
    cfg: RegisterConfig,
    /// The protocol's code, shared by all its clients.
    code: Arc<ReedSolomon>,
    me: ClientId,
    phase: Phase,
    current_op: Option<OpId>,
}

impl AdaptiveClient {
    /// Creates the automaton for client `me`, encoding and decoding with
    /// `code` (the `k`-of-`n` code of `cfg`).
    pub fn new(cfg: RegisterConfig, code: Arc<ReedSolomon>, me: ClientId) -> Self {
        AdaptiveClient {
            cfg,
            code,
            me,
            phase: Phase::Idle,
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
            Phase::Read { round, .. } => round.responses(),
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
                // Line 4: WriteSet ← encode(v), its blocks moved into the
                // one list every RMW of the write shares.
                let pieces = tagged_pieces(&self.code, op, &v);
                // Round 1 (line 5): read timestamps.
                let round = QuorumRound::broadcast(self.cfg.n, eff, |_| AdaptiveRmw::ReadTs);
                self.phase = Phase::WriteReadTs { round, pieces };
            }
            OpRequest::Read => {
                // Line 17: first readValue round.
                let round = self.trigger_read_value(eff);
                self.phase = Phase::Read { round, bits: 0 };
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
            Phase::WriteReadTs { round, pieces } => {
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
                    let pieces = Arc::clone(pieces);
                    let k = self.cfg.k as u32;
                    let round = QuorumRound::broadcast(self.cfg.n, eff, |i| AdaptiveRmw::Update {
                        ts,
                        seen_stored_ts,
                        pieces: Arc::clone(&pieces),
                        index: i as u32,
                        k,
                    });
                    self.phase = Phase::WriteUpdate { round, ts, pieces };
                }
            }
            Phase::WriteUpdate { round, ts, pieces } => {
                if !round.accept(rmw, ()) {
                    return;
                }
                if round.count() >= self.cfg.quorum() {
                    let ts = *ts;
                    // Round 3 (lines 11–13): garbage collect. The GCs hold
                    // the write's last references to its pieces.
                    let pieces = Arc::clone(pieces);
                    let round = QuorumRound::broadcast(self.cfg.n, eff, |i| AdaptiveRmw::Gc {
                        ts,
                        pieces: Arc::clone(&pieces),
                        index: i as u32,
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
                    self.current_op = None;
                    eff.complete(OpResult::Write);
                }
            }
            Phase::Read { round, bits } => {
                let AdaptiveResp::State {
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
                        self.phase = Phase::Read { round, bits: 0 };
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
        let bits = match self.phase {
            Phase::Read { bits, .. } => bits,
            _ => 0,
        };
        debug_assert_eq!(bits, chunk_bits(self.collected()), "cached reader bits");
        bits
    }
}

/// Factory for the adaptive protocol: builds simulations and clients.
#[derive(Debug, Clone)]
pub struct Adaptive {
    cfg: RegisterConfig,
    /// The one code every client of the protocol encodes and decodes with.
    code: Arc<ReedSolomon>,
    initial_blocks: Vec<Block>,
}

impl Adaptive {
    /// Creates the protocol for a validated configuration.
    pub fn new(cfg: RegisterConfig) -> Self {
        let code = cfg.code().expect("validated config builds a code");
        let initial_blocks = code.encode(&cfg.initial_value());
        Adaptive {
            cfg,
            code: Arc::new(code),
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
        sim.add_client(AdaptiveClient::new(self.cfg, Arc::clone(&self.code), id))
    }
}

/// The Theorem-2 storage formula for the adaptive algorithm's base-object
/// storage: `(c+1)·n·D/k` when `c < k − 1` (Lemma 6: each object holds at
/// most `c+1` pieces and `Vf` stays empty), else `2·n·D` (each object
/// holds at most `k` pieces in `Vp` plus `k` in `Vf` — the tight form of
/// Lemma 7's `(2f+k)²·D`). With `k = Θ(f)` both sides are
/// `O(min(f, c)·D)`.
pub fn theorem2_bound_bits(cfg: &RegisterConfig, c: usize) -> u64 {
    let n = cfg.n as u64;
    let piece_bits = 8 * (cfg.value_len.div_ceil(cfg.k) as u64);
    if c + 1 < cfg.k {
        (c as u64 + 1) * n * piece_bits
    } else {
        n * 2 * cfg.k as u64 * piece_bits
    }
}

/// The Lemma-8 resting storage: `(2f+k)·D/k` (one piece per object).
///
/// ```
/// use rsb_coding::Value;
/// use rsb_fpsm::{run, run_to_completion, FairScheduler, OpRequest};
/// use rsb_registers::{resting_bound_bits, Adaptive, RegisterConfig, RegisterProtocol};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = RegisterConfig::paper(2, 2, 1024)?;
/// let proto = Adaptive::new(cfg);
/// let mut sim = proto.new_sim();
/// let writer = proto.add_client(&mut sim);
/// sim.invoke(writer, OpRequest::Write(Value::seeded(7, 1024)))?;
/// assert!(run_to_completion(&mut sim, 100_000));
/// // Once the straggling RMWs land, garbage collection leaves at most
/// // one D/k piece per base object.
/// run(&mut sim, &mut FairScheduler::new(), 100_000);
/// assert!(sim.storage_cost().object_bits <= resting_bound_bits(&cfg));
/// # Ok(())
/// # }
/// ```
pub fn resting_bound_bits(cfg: &RegisterConfig) -> u64 {
    let piece_bits = 8 * (cfg.value_len.div_ceil(cfg.k) as u64);
    cfg.n as u64 * piece_bits
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
    fn a_writes_updates_and_gcs_share_the_encoders_pieces() {
        let p = proto(2, 2, 64); // n = 6, pieces of 32 B
        let mut sim = p.new_sim();
        let w = p.add_client(&mut sim);
        let v = Value::seeded(11, 64);
        let op = sim.invoke(w, OpRequest::Write(v.clone())).unwrap();
        // (round, object) → the list its RMW carried; 0 = update, 1 = GC.
        let mut seen: Vec<(usize, usize, Arc<[TaggedBlock]>)> = Vec::new();
        let mut note = |round: usize, obj: ObjectId, pieces: &Arc<[TaggedBlock]>, index: u32| {
            assert_eq!(index as usize, obj.0, "an RMW names its own object");
            if !seen.iter().any(|(r, o, _)| (*r, *o) == (round, obj.0)) {
                seen.push((round, obj.0, Arc::clone(pieces)));
            }
        };
        while let Some(ev) = sim.first_enabled_event() {
            sim.step(ev).unwrap();
            for info in sim.inflight_rmws() {
                match sim.triggered_params(info.rmw) {
                    Some(AdaptiveRmw::Update {
                        pieces, index, k, ..
                    }) => {
                        assert_eq!(*k, 2);
                        note(0, info.object, pieces, *index);
                    }
                    Some(AdaptiveRmw::Gc { pieces, index, .. }) => {
                        note(1, info.object, pieces, *index);
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(seen.len(), 12, "n updates and n GCs");
        let list = Arc::clone(&seen[0].2);
        assert!(
            seen.iter().all(|(_, _, l)| Arc::ptr_eq(l, &list)),
            "one list per write"
        );
        // The list holds the encoder's blocks as they came out of it:
        // systematic pieces are windows onto the written value, parity
        // pieces windows onto one parity buffer, row after row.
        assert_eq!(list.len(), 6);
        for (i, piece) in list.iter().enumerate() {
            assert_eq!((piece.source_op, piece.block.index() as usize), (op, i));
        }
        assert_eq!(list[0].block.data().as_ptr(), v.as_bytes().as_ptr());
        assert_eq!(list[1].block.data().as_ptr(), v.as_bytes()[32..].as_ptr());
        let parity = list[2].block.data().as_ptr();
        for (row, piece) in list[2..].iter().enumerate() {
            assert_eq!(piece.block.data().as_ptr(), parity.wrapping_add(32 * row));
        }
        // The finished write keeps nothing: only this test still holds
        // the list (the objects keep their own pieces, not the list).
        drop(seen);
        assert!(sim.is_quiescent());
        assert_eq!(Arc::strong_count(&list), 1);
    }

    #[test]
    fn vp_is_sized_to_k_once_and_never_reallocates() {
        // c = 4 concurrent writers against k = 2: Vp fills up and the
        // overflow goes to Vf, while each Vp keeps its first buffer.
        for seed in 0..5u64 {
            let p = proto(1, 2, 16); // n = 4
            let mut sim = p.new_sim();
            let buffers: Vec<*const Chunk> = (0..4)
                .map(|i| {
                    let vp = &sim.object_state(ObjectId(i)).vp;
                    assert_eq!(vp.capacity(), 2, "bo{i} is created with room for k");
                    vp.as_ptr()
                })
                .collect();
            let writers: Vec<_> = (0..4).map(|_| p.add_client(&mut sim)).collect();
            for (i, &w) in writers.iter().enumerate() {
                sim.invoke(w, OpRequest::Write(Value::seeded(i as u64, 16)))
                    .unwrap();
            }
            let mut sched = RandomScheduler::new(seed);
            let mut fullest = 0;
            while let Some(ev) = rsb_fpsm::Scheduler::next_event(&mut sched, &sim) {
                sim.step(ev).unwrap();
                for (i, &buffer) in buffers.iter().enumerate() {
                    let vp = &sim.object_state(ObjectId(i)).vp;
                    assert_eq!(vp.as_ptr(), buffer, "bo{i} reallocated Vp, seed {seed}");
                    assert_eq!(vp.capacity(), 2, "bo{i}, seed {seed}");
                    fullest = fullest.max(vp.len());
                }
            }
            assert!(sim.history().iter().all(rsb_fpsm::OpRecord::is_complete));
            assert_eq!(fullest, 2, "some Vp filled up, seed {seed}");
        }
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

    #[test]
    fn bounds_formulae() {
        let cfg = RegisterConfig::paper(1, 4, 64).unwrap(); // n=6, D=512
                                                            // piece = 128 bits; coded side (c=1 < k−1): 2·6·128 = 1536.
        assert_eq!(theorem2_bound_bits(&cfg, 1), 1536);
        // Saturated side (c ≥ k−1): 2·n·D = 6144.
        assert_eq!(theorem2_bound_bits(&cfg, 5), 6144);
        assert_eq!(resting_bound_bits(&cfg), 6 * 128);
    }
}
