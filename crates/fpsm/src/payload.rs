//! Storage-cost accounting per Definition 2 of the paper.
//!
//! Information anywhere in the system is "a list of code blocks plus
//! meta-data"; only the code-block bits are charged. Every block instance
//! carries a *source tag* — the `(write operation, block index)` pair whose
//! encoder oracle produced it — realizing the paper's source function
//! (Definition 4) and enabling the per-write quantity `‖S(t, w)‖`
//! (Definition 6) used throughout the lower bound.

use crate::ids::OpId;
use rsb_coding::BlockIndex;
use serde::{Deserialize, Serialize};

/// One block instance somewhere in the system, reduced to what the
/// accounting needs: who produced it, which block number, how many bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockInstance {
    /// The write operation whose encoder oracle produced this block.
    pub source_op: OpId,
    /// The block number `i` such that the contents are `E(v, i)`.
    pub index: BlockIndex,
    /// The paper's `|e|` — block size in bits.
    pub bits: u64,
}

impl BlockInstance {
    /// Convenience constructor.
    pub fn new(source_op: OpId, index: BlockIndex, bits: u64) -> Self {
        BlockInstance {
            source_op,
            index,
            bits,
        }
    }
}

/// Anything whose storage footprint can be measured: base-object states,
/// client-held data, and RMW parameters/responses in flight.
///
/// Implementations must report **every** code-block instance they contain
/// and **only** code blocks — metadata (timestamps, counters, ids) is free
/// in the paper's cost model.
pub trait Payload: Clone + std::fmt::Debug + Send + 'static {
    /// All block instances contained in this component.
    fn blocks(&self) -> Vec<BlockInstance>;

    /// Total block bits (the summand of Definition 2): the sum of `bits`
    /// over [`Payload::blocks`]. The simulator calls this several times
    /// per event, so a type on a hot path overrides it to add the sizes up
    /// without building the list.
    fn block_bits(&self) -> u64 {
        self.blocks().iter().map(|b| b.bits).sum()
    }
}

/// The trivial payload for RMWs or responses that carry only metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetadataOnly;

impl Payload for MetadataOnly {
    fn blocks(&self) -> Vec<BlockInstance> {
        Vec::new()
    }

    fn block_bits(&self) -> u64 {
        0
    }
}

/// A storage-cost snapshot, broken down by where the bits reside.
///
/// The paper's Definition 2 charges all four categories (in-flight RMW
/// parameters are part of the triggering client's state; undelivered
/// responses are part of the base object's state). The breakdown lets
/// experiments report them separately as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StorageCost {
    /// Bits in blocks stored in base-object states.
    pub object_bits: u64,
    /// Bits in blocks held by clients (excluding their own oracle state).
    pub client_bits: u64,
    /// Bits in blocks inside triggered-but-not-yet-applied RMW parameters.
    pub inflight_param_bits: u64,
    /// Bits in blocks inside applied-but-not-yet-delivered RMW responses.
    pub inflight_resp_bits: u64,
}

impl StorageCost {
    /// The paper's storage cost at a point in time: the sum of all four
    /// categories.
    pub fn total(&self) -> u64 {
        self.object_bits + self.client_bits + self.inflight_param_bits + self.inflight_resp_bits
    }

    /// Pointwise maximum, used for peak tracking.
    pub fn max(self, other: StorageCost) -> StorageCost {
        // Peaks are tracked per category *and* as a total elsewhere; the
        // per-category max is useful for reporting worst cases per site.
        StorageCost {
            object_bits: self.object_bits.max(other.object_bits),
            client_bits: self.client_bits.max(other.client_bits),
            inflight_param_bits: self.inflight_param_bits.max(other.inflight_param_bits),
            inflight_resp_bits: self.inflight_resp_bits.max(other.inflight_resp_bits),
        }
    }
}

impl std::fmt::Display for StorageCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} bits (objects {}, clients {}, params {}, resps {})",
            self.total(),
            self.object_bits,
            self.client_bits,
            self.inflight_param_bits,
            self.inflight_resp_bits
        )
    }
}

/// Where a block instance lives — the paper's ordered component set `S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Stored in a base object's state.
    Object(crate::ids::ObjectId),
    /// Held by a client (outside its own oracle).
    Client(crate::ids::ClientId),
    /// In the parameters of a triggered, not-yet-applied RMW (charged to
    /// the triggering client per the paper's state definition).
    RmwParam {
        /// The in-flight RMW.
        rmw: crate::ids::RmwId,
        /// The client that triggered it.
        client: crate::ids::ClientId,
    },
    /// In the response of an applied, not-yet-delivered RMW (charged to the
    /// base object per the paper's state definition).
    RmwResponse {
        /// The in-flight RMW.
        rmw: crate::ids::RmwId,
        /// The base object it executed on.
        object: crate::ids::ObjectId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_total_and_display() {
        let c = StorageCost {
            object_bits: 100,
            client_bits: 20,
            inflight_param_bits: 3,
            inflight_resp_bits: 7,
        };
        assert_eq!(c.total(), 130);
        let s = c.to_string();
        assert!(s.contains("130 bits"));
    }

    #[test]
    fn cost_max_is_pointwise() {
        let a = StorageCost {
            object_bits: 10,
            client_bits: 0,
            inflight_param_bits: 5,
            inflight_resp_bits: 0,
        };
        let b = StorageCost {
            object_bits: 3,
            client_bits: 8,
            inflight_param_bits: 1,
            inflight_resp_bits: 2,
        };
        let m = a.max(b);
        assert_eq!(m.object_bits, 10);
        assert_eq!(m.client_bits, 8);
        assert_eq!(m.inflight_param_bits, 5);
        assert_eq!(m.inflight_resp_bits, 2);
    }

    #[test]
    fn metadata_only_is_free() {
        assert_eq!(MetadataOnly.block_bits(), 0);
        assert!(MetadataOnly.blocks().is_empty());
    }

    #[test]
    fn block_instance_fields() {
        let b = BlockInstance::new(OpId(4), 2, 64);
        assert_eq!(b.source_op, OpId(4));
        assert_eq!(b.index, 2);
        assert_eq!(b.bits, 64);
    }
}
