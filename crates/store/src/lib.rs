//! **rsb-store** — a sharded multi-register storage service over the
//! register emulations of `rsb-registers`.
//!
//! The paper studies a *single* reliable register; a storage service is
//! the natural composition: a keyspace hash-partitioned over `N`
//! independent shards, each shard hosting one register per key (all built
//! from one [`RegisterProtocol`](rsb_registers::RegisterProtocol)
//! emulation — ABD, safe, coded, or adaptive). Execution is
//! *run-to-completion*: keys live behind per-key locks, and the thread
//! that submits an operation takes its key's lock once and steps the
//! key's simulation until the operation returns, so the future it gets
//! back is already resolved. The store runs no thread of its own.
//! Per-key history can be bounded with a [`HistoryPolicy`], and quiescent
//! keys can rest in place ([`Store::evict_quiescent`] — one call, made by
//! the owner on its own schedule), giving back their idle clients and
//! slack buffers while keeping every bit the paper charges.
//!
//! # Client surface
//!
//! [`StoreClient`] is generic over a [`Transport`] — [`Loopback`]
//! (in-process, the default, what [`Store::client`] returns) or
//! [`TcpTransport`] (a versioned length-prefixed binary protocol over a
//! std `TcpStream`, served by [`Store::serve`] / [`StoreServer`]).
//! [`StoreClient::read`] / [`StoreClient::write`] return lightweight
//! futures backed by transport tickets (the result itself on loopback,
//! a place in the connection's reply queue over TCP, where whoever
//! waits reads the socket) — no external async runtime and no client
//! thread is needed anywhere:
//!
//! * **async** — the futures implement [`std::future::Future`] and can be
//!   awaited from any executor, or from the bundled executor-less
//!   [`block_on`];
//! * **blocking** — [`ReadFuture::wait`] / [`WriteFuture::wait`] (and the
//!   `*_blocking` shorthands) read the connection until the reply is in,
//!   or sleep while another caller does (over loopback there is nothing
//!   to wait for).
//!
//! # Metrics
//!
//! Per-shard and aggregate [`StoreMetrics`] expose operation counts,
//! bytes moved, and — because every shard is a storage-cost-accounted
//! simulation — the *live storage occupancy in bits*, so the paper's
//! space bounds (replication `O(fD)` vs coding's concurrency-dependent
//! blow-up) are observable on a running service.
//!
//! # Example
//!
//! ```
//! use rsb_store::{block_on, ProtocolSpec, Store, StoreConfig};
//! use rsb_registers::RegisterConfig;
//! use rsb_coding::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = StoreConfig::uniform(4, ProtocolSpec::Adaptive, RegisterConfig::paper(1, 2, 32)?);
//! let store = Store::start(cfg)?;
//! let client = store.client();
//!
//! let v = Value::seeded(7, 32);
//! block_on(client.write("user:42", v.clone()))?;
//! assert_eq!(block_on(client.read("user:42"))?, v);
//! assert_eq!(client.read_blocking("missing")?, Value::zeroed(32)); // v₀
//!
//! let m = store.metrics();
//! assert_eq!(m.totals().writes_completed, 1);
//! store.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod config;
mod future;
mod lockorder;
mod mcsync;
mod metrics;
// The wire paths and the flight recorder never panic outside their tests
// (`clippy.toml` exempts those); a justified exception is an `#[expect]`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
mod net;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
mod recorder;
mod shard;
mod store;

pub use config::{
    HistoryPolicy, ListenSpec, ProtocolSpec, ShardSpec, StoreConfig, StoreConfigError,
};
pub use future::{block_on, join_all, OpFuture, ReadFuture, WriteFuture};
pub use metrics::{LatencyHistogram, OpCounters, ShardMetrics, StoreMetrics};
pub use net::{
    frame, KeyMeta, Loopback, NextReply, OpTicket, ReplyQueue, StoreServer, TcpTransport, Transport,
};
pub use recorder::{FlightEvent, FlightEventKind, FlightRecorder};
pub use store::{BatchOp, KeyHistory, Store, StoreClient, StoreError};
