//! Machinery shared by all register emulations: timestamps, tagged code
//! blocks, quorum-round tracking, and protocol configuration.

use rsb_coding::{Block, Code, CodingError, ReedSolomon, Value};
use rsb_fpsm::{BlockInstance, ClientId, Effects, ObjectId, ObjectState, OpId, RmwId};
use std::cmp::Reverse;
use std::sync::Arc;

/// The reserved operation id of the synthetic initial write `w₀` that
/// installed `v₀` "at time 0" (the paper's convention in Definition 8).
pub const INITIAL_OP: OpId = OpId(u64::MAX);

/// A logical timestamp `⟨num, client⟩ ∈ N × Π`, ordered lexicographically
/// (the paper's `TimeStamps` domain, Algorithm 1 line 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp {
    /// The sequence number.
    pub num: u64,
    /// The writer's client id, breaking ties.
    pub client: u64,
}

impl Timestamp {
    /// The initial timestamp `⟨0, 0⟩` associated with `v₀`.
    pub const ZERO: Timestamp = Timestamp { num: 0, client: 0 };

    /// Creates a timestamp.
    pub fn new(num: u64, client: ClientId) -> Self {
        Timestamp {
            num,
            client: client.0 as u64,
        }
    }

    /// The successor timestamp for a writer: `⟨num + 1, client⟩`.
    pub fn successor(self, client: ClientId) -> Timestamp {
        Timestamp {
            num: self.num + 1,
            client: client.0 as u64,
        }
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨{},{}⟩", self.num, self.client)
    }
}

/// A code block together with the operation whose encoder produced it —
/// the source tag of the paper's Definition 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedBlock {
    /// The producing write operation.
    pub source_op: OpId,
    /// The block itself.
    pub block: Block,
}

impl TaggedBlock {
    /// Creates a tagged block.
    pub fn new(source_op: OpId, block: Block) -> Self {
        TaggedBlock { source_op, block }
    }

    /// The accounting record for this block instance.
    pub fn instance(&self) -> BlockInstance {
        BlockInstance::new(self.source_op, self.block.index(), self.bits())
    }

    /// The bits this block instance is charged: `instance().bits`.
    pub fn bits(&self) -> u64 {
        self.block.size_bits()
    }
}

/// Encodes `v` and moves its blocks, tagged with the write `op`, into
/// one list for the write's RMWs to share: piece `i` is `E(v, i)`.
pub(crate) fn tagged_pieces(code: &ReedSolomon, op: OpId, v: &Value) -> Arc<[TaggedBlock]> {
    code.encode(v)
        .into_iter()
        .map(|b| TaggedBlock::new(op, b))
        .collect()
}

/// A timestamped code block — the paper's `Chunks = Pieces × TimeStamps`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// The write timestamp.
    pub ts: Timestamp,
    /// The tagged piece.
    pub piece: TaggedBlock,
}

impl Chunk {
    /// Creates a chunk.
    pub fn new(ts: Timestamp, piece: TaggedBlock) -> Self {
        Chunk { ts, piece }
    }

    /// The accounting record.
    pub fn instance(&self) -> BlockInstance {
        self.piece.instance()
    }

    /// The bits this chunk is charged: `instance().bits`.
    pub fn bits(&self) -> u64 {
        self.piece.bits()
    }
}

/// Total bits of `chunks`: what a cached `bits` field must equal.
pub(crate) fn chunk_bits<'a>(chunks: impl IntoIterator<Item = &'a Chunk>) -> u64 {
    chunks.into_iter().map(Chunk::bits).sum()
}

/// Keeps the chunks at or above `ts`, taking the bits of those it drops
/// off `bits`.
pub(crate) fn retain_from(chunks: &mut Vec<Chunk>, ts: Timestamp, bits: &mut u64) {
    chunks.retain(|c| {
        let keep = c.ts >= ts;
        if !keep {
            *bits -= c.bits();
        }
        keep
    });
}

/// Configuration shared by the register emulations.
///
/// The paper fixes `n = 2f + k`; we admit any `n ≥ 2f + k` (two
/// `(n−f)`-quorums then intersect in at least `k` base objects, which is
/// what every proof uses). `k = 1` degenerates to replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterConfig {
    /// Number of base objects.
    pub n: usize,
    /// Number of tolerated base-object crash failures.
    pub f: usize,
    /// Erasure-code reconstruction threshold.
    pub k: usize,
    /// Register value size in bytes (`D/8`).
    pub value_len: usize,
}

/// Errors constructing a protocol configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid register configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl RegisterConfig {
    /// Creates and validates a configuration.
    ///
    /// # Errors
    ///
    /// Requires `k ≥ 1`, `f ≥ 1`, `n ≥ 2f + k`, `n ≤ 256`, `value_len ≥ 1`.
    pub fn new(n: usize, f: usize, k: usize, value_len: usize) -> Result<Self, ConfigError> {
        if k == 0 {
            return Err(ConfigError("k must be ≥ 1".into()));
        }
        if f == 0 {
            return Err(ConfigError("f must be ≥ 1".into()));
        }
        if n < 2 * f + k {
            return Err(ConfigError(format!(
                "n ({n}) must be ≥ 2f + k ({})",
                2 * f + k
            )));
        }
        if n > 256 {
            return Err(ConfigError(format!("n ({n}) must be ≤ 256")));
        }
        if value_len == 0 {
            return Err(ConfigError("value length must be ≥ 1".into()));
        }
        Ok(RegisterConfig { n, f, k, value_len })
    }

    /// The paper's canonical shape: `n = 2f + k`.
    ///
    /// # Errors
    ///
    /// Same constraints as [`RegisterConfig::new`].
    pub fn paper(f: usize, k: usize, value_len: usize) -> Result<Self, ConfigError> {
        RegisterConfig::new(2 * f + k, f, k, value_len)
    }

    /// Quorum size `n − f`.
    pub fn quorum(&self) -> usize {
        self.n - self.f
    }

    /// The data size `D` in bits.
    pub fn data_bits(&self) -> u64 {
        8 * self.value_len as u64
    }

    /// The initial value `v₀` (all zeros).
    pub fn initial_value(&self) -> Value {
        Value::zeroed(self.value_len)
    }

    /// Builds the `k`-of-`n` Reed–Solomon code for this configuration.
    ///
    /// # Errors
    ///
    /// Propagates invalid parameters (cannot occur for validated configs).
    pub fn code(&self) -> Result<ReedSolomon, CodingError> {
        ReedSolomon::new(self.k, self.n, self.value_len)
    }
}

/// Tracks one round of "trigger RMWs on all `n` objects, await `n − f`
/// responses", the universal communication pattern of the algorithms.
///
/// A round's `n` RMWs are triggered back to back, so their ids are
/// consecutive: the one for object `i` is `first + i`. The round keeps
/// that first id, `n` and the responses, and allocates nothing but the
/// response list. Responses for RMW ids outside the round (stragglers
/// from earlier rounds or operations) and second deliveries for an object
/// already heard from are rejected by [`QuorumRound::accept`].
#[derive(Debug, Clone)]
pub struct QuorumRound<R> {
    first: RmwId,
    n: usize,
    responses: Vec<(ObjectId, R)>,
}

impl<R> QuorumRound<R> {
    /// Triggers `make(i)` on every object `i < n` and returns the round
    /// awaiting their responses, sized so that accepting them allocates
    /// nothing.
    pub fn broadcast<S: ObjectState>(
        n: usize,
        eff: &mut Effects<S>,
        mut make: impl FnMut(usize) -> S::Rmw,
    ) -> Self {
        let mut round = QuorumRound {
            first: RmwId(0),
            n,
            responses: Vec::with_capacity(n),
        };
        for i in 0..n {
            let id = eff.trigger(ObjectId(i), make(i));
            if i == 0 {
                round.first = id;
            }
            debug_assert_eq!(
                id.0,
                round.first.0 + i as u64,
                "broadcast ids are consecutive"
            );
        }
        round
    }

    /// Accepts a response if it belongs to this round and its object has
    /// not answered yet. Returns `true` if accepted.
    pub fn accept(&mut self, rmw: RmwId, resp: R) -> bool {
        let obj = match rmw.0.checked_sub(self.first.0) {
            Some(i) if i < self.n as u64 => ObjectId(i as usize),
            _ => return false,
        };
        // At most `n` entries: a scan is as cheap as a lookup table.
        if self.responses.iter().any(|(o, _)| *o == obj) {
            return false;
        }
        self.responses.push((obj, resp));
        true
    }

    /// Number of responses collected.
    pub fn count(&self) -> usize {
        self.responses.len()
    }

    /// The collected responses with their source objects.
    pub fn responses(&self) -> &[(ObjectId, R)] {
        &self.responses
    }

    /// Consumes the round, yielding the responses.
    pub fn into_responses(self) -> Vec<(ObjectId, R)> {
        self.responses
    }
}

/// Finds, among `chunks`, the highest timestamp `ts ≥ min_ts` for which at
/// least `k` blocks with distinct indices are present; returns that
/// timestamp with one block per distinct index, in index order — so a
/// decoder that takes the first `k` takes the systematic ones when they
/// are there, and the choice never depends on arrival or hash order.
///
/// This is the read-side test of both the adaptive algorithm (Algorithm 2
/// lines 18–21) and the safe register (Algorithm 5 lines 15–17).
pub fn best_decodable<'a>(
    chunks: impl IntoIterator<Item = &'a Chunk>,
    min_ts: Timestamp,
    k: usize,
) -> Option<(Timestamp, Vec<Block>)> {
    let mut candidates: Vec<&Chunk> = chunks.into_iter().filter(|c| c.ts >= min_ts).collect();
    candidates.sort_by_key(|c| (Reverse(c.ts), c.piece.block.index()));
    candidates.dedup_by_key(|c| (c.ts, c.piece.block.index()));
    candidates
        .chunk_by(|a, b| a.ts == b.ts)
        .find(|pieces| pieces.len() >= k)
        .map(|pieces| {
            let blocks = pieces.iter().map(|c| c.piece.block.clone()).collect();
            (pieces[0].ts, blocks)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsb_coding::{BlockIndex, Code};

    #[test]
    fn timestamp_order_is_lexicographic() {
        let a = Timestamp { num: 1, client: 9 };
        let b = Timestamp { num: 2, client: 0 };
        assert!(a < b);
        let c = Timestamp { num: 1, client: 10 };
        assert!(a < c);
        assert_eq!(
            Timestamp::ZERO.successor(ClientId(3)),
            Timestamp { num: 1, client: 3 }
        );
        assert_eq!(Timestamp::ZERO.to_string(), "⟨0,0⟩");
    }

    #[test]
    fn config_validation() {
        assert!(RegisterConfig::new(5, 2, 1, 8).is_ok());
        assert!(RegisterConfig::new(4, 2, 1, 8).is_err()); // n < 2f + k
        assert!(RegisterConfig::new(5, 0, 1, 8).is_err());
        assert!(RegisterConfig::new(5, 2, 0, 8).is_err());
        assert!(RegisterConfig::new(5, 2, 1, 0).is_err());
        let cfg = RegisterConfig::paper(2, 3, 16).unwrap();
        assert_eq!(cfg.n, 7);
        assert_eq!(cfg.quorum(), 5);
        assert_eq!(cfg.data_bits(), 128);
        assert_eq!(cfg.code().unwrap().reconstruction_threshold(), 3);
    }

    #[test]
    fn quorum_round_accepts_only_expected() {
        // Objects 0..3 were triggered as rmw7..rmw9.
        let mut round: QuorumRound<u32> = QuorumRound {
            first: RmwId(7),
            n: 3,
            responses: Vec::new(),
        };
        assert!(round.accept(RmwId(8), 10));
        assert!(!round.accept(RmwId(8), 10)); // double delivery rejected
        assert!(!round.accept(RmwId(6), 10)); // earlier round rejected
        assert!(!round.accept(RmwId(10), 10)); // later round rejected
        assert_eq!(round.count(), 1);
        assert!(round.accept(RmwId(7), 20));
        assert!(round.accept(RmwId(9), 30));
        let objects: Vec<ObjectId> = round.responses().iter().map(|(o, _)| *o).collect();
        assert_eq!(objects, [ObjectId(1), ObjectId(0), ObjectId(2)]);
        assert_eq!(round.into_responses().len(), 3);
    }

    fn chunk(ts: Timestamp, idx: BlockIndex, bytes: usize) -> Chunk {
        Chunk::new(
            ts,
            TaggedBlock::new(INITIAL_OP, Block::new(idx, vec![0u8; bytes])),
        )
    }

    #[test]
    fn best_decodable_picks_highest_complete_ts_in_index_order() {
        let t1 = Timestamp { num: 1, client: 0 };
        let t2 = Timestamp { num: 2, client: 0 };
        let t3 = Timestamp { num: 3, client: 0 };
        // Arrival order is scrambled: parity first, timestamps interleaved.
        let chunks = vec![
            chunk(t2, 3, 4),
            chunk(t1, 0, 4),
            chunk(t2, 1, 4),
            chunk(t3, 0, 4), // the highest timestamp, one piece short
            chunk(t1, 1, 4),
            chunk(t2, 0, 4),
            chunk(t2, 1, 4), // duplicate index does not help
        ];
        let (ts, blocks) = best_decodable(&chunks, Timestamp::ZERO, 2).unwrap();
        assert_eq!(ts, t2);
        let indices: Vec<BlockIndex> = blocks.iter().map(Block::index).collect();
        assert_eq!(indices, [0, 1, 3], "one block per index, systematic first");
        // Of two chunks with one timestamp and index, the first seen stays.
        let first = chunk(t1, 0, 4);
        let dup = vec![first.clone(), chunk(t1, 1, 4), chunk(t1, 0, 4)];
        let (_, blocks) = best_decodable(&dup, Timestamp::ZERO, 2).unwrap();
        assert_eq!(blocks[0].data().as_ptr(), first.piece.block.data().as_ptr());
    }

    #[test]
    fn best_decodable_respects_min_ts_and_k() {
        let t1 = Timestamp { num: 1, client: 0 };
        let t2 = Timestamp { num: 2, client: 0 };
        let chunks = vec![chunk(t1, 0, 4), chunk(t1, 1, 4), chunk(t2, 0, 4)];
        // t2 lacks k = 2 distinct pieces; t1 is below min_ts.
        assert!(best_decodable(&chunks, t2, 2).is_none());
        // Duplicate indices below k.
        assert!(best_decodable(&[chunk(t1, 0, 4), chunk(t1, 0, 4)], Timestamp::ZERO, 2).is_none());
    }

    #[test]
    fn tagged_block_instance_fields() {
        let tb = TaggedBlock::new(OpId(5), Block::new(3, vec![1, 2]));
        let inst = tb.instance();
        assert_eq!(inst.source_op, OpId(5));
        assert_eq!(inst.index, 3);
        assert_eq!(inst.bits, 16);
    }
}
