//! Line-level conformance tests of the base-object RMW semantics against
//! the paper's pseudocode (Algorithms 1–5), applied directly to object
//! states without a simulation in between.

use rsb_coding::{Block, Code, Value};
use rsb_fpsm::{ClientId, ObjectState, OpId};
use rsb_registers::abd::{AbdObject, AbdResp, AbdRmw};
use rsb_registers::adaptive::{AdaptiveObject, AdaptiveResp, AdaptiveRmw};
use rsb_registers::safe::{SafeObject, SafeResp, SafeRmw};
use rsb_registers::{RegisterConfig, TaggedBlock, Timestamp, INITIAL_OP};
use std::sync::Arc;

fn ts(num: u64, client: u64) -> Timestamp {
    Timestamp { num, client }
}

fn piece(op: u64, index: u32, bytes: usize) -> TaggedBlock {
    TaggedBlock::new(OpId(op), Block::new(index, vec![op as u8; bytes]))
}

/// The shared piece list of write `op`: its pieces `0..n`.
fn pieces(op: u64, n: usize, bytes: usize) -> Arc<[TaggedBlock]> {
    (0..n as u32).map(|i| piece(op, i, bytes)).collect()
}

const C: ClientId = ClientId(0);

/// Algorithm 3 line 33: updates with `ts ≤ storedTS` are ignored entirely.
#[test]
fn adaptive_stale_update_is_noop() {
    let mut bo = AdaptiveObject::initial(2, piece(u64::MAX, 0, 8));
    // Raise the watermark via GC.
    bo.apply(
        C,
        &AdaptiveRmw::Gc {
            ts: ts(5, 1),
            pieces: pieces(1, 1, 8),
            index: 0,
        },
    );
    assert_eq!(bo.stored_ts(), ts(5, 1));
    let before_vp = bo.vp().to_vec();
    bo.apply(
        C,
        &AdaptiveRmw::Update {
            ts: ts(5, 0), // ≤ storedTS (client 0 < client 1)
            seen_stored_ts: ts(0, 0),
            pieces: pieces(2, 2, 8),
            index: 0,
            k: 2,
        },
    );
    assert_eq!(bo.vp(), &before_vp[..], "stale update must not store");
    assert_eq!(
        bo.stored_ts(),
        ts(5, 1),
        "stale update must not move storedTS"
    );
}

/// Algorithm 3 line 36: below capacity, the piece lands in Vp and pieces
/// below the writer's watermark are pruned.
#[test]
fn adaptive_update_prunes_and_stores_in_vp() {
    let mut bo = AdaptiveObject::initial(3, piece(u64::MAX, 0, 8));
    bo.apply(
        C,
        &AdaptiveRmw::Update {
            ts: ts(1, 1),
            seen_stored_ts: ts(0, 0),
            pieces: pieces(1, 3, 8),
            index: 0,
            k: 3,
        },
    );
    assert_eq!(bo.vp().len(), 2); // v₀'s piece + the new one
                                  // A newer write knows ts(1,1) completed: its update prunes v₀ & w1? No
                                  // — only pieces strictly below the watermark ts(1,1): v₀'s ⟨0,0⟩ goes,
                                  // w1's ⟨1,1⟩ stays.
    bo.apply(
        C,
        &AdaptiveRmw::Update {
            ts: ts(2, 2),
            seen_stored_ts: ts(1, 1),
            pieces: pieces(2, 3, 8),
            index: 0,
            k: 3,
        },
    );
    let tss: Vec<Timestamp> = bo.vp().iter().map(|c| c.ts).collect();
    assert_eq!(tss, vec![ts(1, 1), ts(2, 2)]);
    assert_eq!(bo.stored_ts(), ts(1, 1), "line 39: watermark = seen");
    assert!(bo.vf().is_empty());
}

/// Algorithm 3 lines 37–38: at capacity the full replica goes to Vf, and
/// only a newer write may replace it.
#[test]
fn adaptive_vf_fallback_and_replacement() {
    let mut bo = AdaptiveObject::initial(1, piece(u64::MAX, 0, 8)); // k = 1: Vp full
    bo.apply(
        C,
        &AdaptiveRmw::Update {
            ts: ts(1, 1),
            seen_stored_ts: ts(0, 0),
            pieces: pieces(1, 1, 8),
            index: 0,
            k: 1,
        },
    );
    assert_eq!(bo.vf().len(), 1);
    assert_eq!(bo.vf()[0].ts, ts(1, 1));
    // An older concurrent write must NOT replace the newer replica.
    bo.apply(
        C,
        &AdaptiveRmw::Update {
            ts: ts(1, 0),
            seen_stored_ts: ts(0, 0),
            pieces: pieces(2, 1, 8),
            index: 0,
            k: 1,
        },
    );
    assert_eq!(bo.vf()[0].ts, ts(1, 1), "older write must not evict Vf");
    // A newer one does.
    bo.apply(
        C,
        &AdaptiveRmw::Update {
            ts: ts(2, 0),
            seen_stored_ts: ts(0, 0),
            pieces: pieces(3, 1, 8),
            index: 0,
            k: 1,
        },
    );
    assert_eq!(bo.vf()[0].ts, ts(2, 0));
}

/// Algorithm 3 lines 40–45: GC prunes both sets, shrinks my replica to a
/// single piece, and advances the watermark.
#[test]
fn adaptive_gc_semantics() {
    let mut bo = AdaptiveObject::initial(1, piece(u64::MAX, 0, 8));
    bo.apply(
        C,
        &AdaptiveRmw::Update {
            ts: ts(1, 1),
            seen_stored_ts: ts(0, 0),
            pieces: pieces(1, 1, 8),
            index: 0,
            k: 1,
        },
    );
    // GC of that same write: replica shrinks to one piece, v₀ pruned.
    bo.apply(
        C,
        &AdaptiveRmw::Gc {
            ts: ts(1, 1),
            pieces: pieces(1, 1, 8),
            index: 0,
        },
    );
    assert!(bo.vp().is_empty(), "v₀'s older piece is pruned");
    assert_eq!(bo.vf().len(), 1, "replica reduced to a single piece");
    assert_eq!(bo.stored_ts(), ts(1, 1));
    // GC of an unrelated write leaves a foreign Vf piece with equal ts
    // untouched but prunes strictly older content.
    bo.apply(
        C,
        &AdaptiveRmw::Gc {
            ts: ts(2, 2),
            pieces: pieces(9, 1, 8),
            index: 0,
        },
    );
    assert!(bo.vf().is_empty(), "older replica pruned by newer GC");
    assert_eq!(bo.stored_ts(), ts(2, 2));
}

/// Algorithm 2 read path data: `ReadValue` returns watermark + all chunks.
#[test]
fn adaptive_read_value_returns_everything() {
    let mut bo = AdaptiveObject::initial(2, piece(u64::MAX, 0, 8));
    bo.apply(
        C,
        &AdaptiveRmw::Update {
            ts: ts(1, 1),
            seen_stored_ts: ts(0, 0),
            pieces: pieces(1, 2, 8),
            index: 0,
            k: 2,
        },
    );
    let resp = bo.apply(C, &AdaptiveRmw::ReadValue);
    let AdaptiveResp::State {
        stored_ts, chunks, ..
    } = resp
    else {
        panic!("ReadValue must return State");
    };
    assert_eq!(stored_ts, Timestamp::ZERO);
    assert_eq!(chunks.len(), 2);
    // ReadTs reports storedTS and max chunk ts separately.
    let AdaptiveResp::Ts {
        stored_ts,
        max_chunk_ts,
    } = bo.apply(C, &AdaptiveRmw::ReadTs)
    else {
        panic!("ReadTs must return Ts");
    };
    assert_eq!(stored_ts, Timestamp::ZERO);
    assert_eq!(max_chunk_ts, ts(1, 1));
}

/// Algorithm 5 lines 10–12: the safe object overwrites only on larger ts.
#[test]
fn safe_store_is_monotone() {
    let mut bo = SafeObject::initial(piece(u64::MAX, 0, 8));
    bo.apply(
        C,
        &SafeRmw::Store {
            ts: ts(3, 0),
            piece: piece(1, 0, 8),
        },
    );
    assert_eq!(bo.chunk().ts, ts(3, 0));
    bo.apply(
        C,
        &SafeRmw::Store {
            ts: ts(2, 9),
            piece: piece(2, 0, 8),
        },
    );
    assert_eq!(bo.chunk().ts, ts(3, 0), "older store ignored");
    let SafeResp::Ts(t) = bo.apply(C, &SafeRmw::ReadTs) else {
        panic!("ReadTs returns Ts");
    };
    assert_eq!(t, ts(3, 0));
    let SafeResp::Data(chunk) = bo.apply(C, &SafeRmw::ReadChunk) else {
        panic!("ReadChunk returns Data");
    };
    assert_eq!(chunk.ts, ts(3, 0));
}

/// ABD object: conditional overwrite and full-replica reads.
#[test]
fn abd_store_semantics() {
    let mut bo = AbdObject::initial(TaggedBlock::new(INITIAL_OP, Block::new(0, vec![0u8; 8])));
    bo.apply(
        C,
        &AbdRmw::Store {
            ts: ts(1, 0),
            replica: piece(1, 0, 8),
        },
    );
    assert_eq!(bo.ts(), ts(1, 0));
    bo.apply(
        C,
        &AbdRmw::Store {
            ts: ts(1, 0),
            replica: piece(2, 0, 8),
        },
    );
    let AbdResp::State { ts: got, replica } = bo.apply(C, &AbdRmw::ReadValue) else {
        panic!("ReadValue returns State");
    };
    assert_eq!(got, ts(1, 0));
    assert_eq!(replica.source_op, OpId(1), "equal ts must not overwrite");
}

/// The initial configuration of every protocol decodes to v₀.
#[test]
fn initial_states_decode_to_v0() {
    let cfg = RegisterConfig::paper(2, 3, 30).unwrap();
    let code = cfg.code().unwrap();
    let blocks = code.encode(&cfg.initial_value());
    // Adaptive objects hold piece i; any k of them decode v₀.
    let subset: Vec<Block> = blocks[..3].to_vec();
    assert_eq!(code.decode(&subset).unwrap(), Value::zeroed(30));
}
