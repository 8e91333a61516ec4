//! Base objects: atomic read-modify-write shared-memory cells.

use crate::ids::ClientId;
use crate::payload::Payload;

/// The protocol-defined state of a base object, supporting arbitrary atomic
/// RMW access (the paper's model, Section 2).
///
/// An RMW is *triggered* by a client with parameters of type [`Self::Rmw`];
/// at some later point the scheduler lets it *take effect* atomically via
/// [`ObjectState::apply`], producing a response of type [`Self::Resp`]
/// which is eventually *delivered* back to the client.
///
/// Both the state itself and the RMW/response types implement [`Payload`]
/// so that every code-block bit in the system is accounted for (Definition
/// 2 of the paper charges in-flight parameters to the client and
/// in-flight responses to the base object).
pub trait ObjectState: Payload {
    /// Parameters of an RMW trigger.
    type Rmw: Payload;
    /// The RMW's response.
    type Resp: Payload;

    /// Atomically applies an RMW, mutating the state and producing the
    /// response. `client` identifies the triggering client (protocols use
    /// it for tie-breaking ids, never for covert data channels).
    fn apply(&mut self, client: ClientId, rmw: &Self::Rmw) -> Self::Resp;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::OpId;
    use crate::payload::{BlockInstance, MetadataOnly};

    /// A toy register storing one opaque block.
    #[derive(Debug, Clone, Default)]
    struct Cell {
        held: Option<BlockInstance>,
    }

    #[derive(Debug, Clone)]
    struct Put(BlockInstance);

    impl Payload for Put {
        fn blocks(&self) -> Vec<BlockInstance> {
            vec![self.0]
        }
    }

    impl Payload for Cell {
        fn blocks(&self) -> Vec<BlockInstance> {
            self.held.into_iter().collect()
        }
    }

    impl ObjectState for Cell {
        type Rmw = Put;
        type Resp = MetadataOnly;

        fn apply(&mut self, _client: ClientId, rmw: &Put) -> MetadataOnly {
            self.held = Some(rmw.0);
            MetadataOnly
        }
    }

    #[test]
    fn apply_mutates_and_accounts() {
        let mut cell = Cell::default();
        assert_eq!(cell.block_bits(), 0);
        let b = BlockInstance::new(OpId(1), 0, 128);
        cell.apply(ClientId(0), &Put(b));
        assert_eq!(cell.block_bits(), 128);
    }
}
