//! Store configuration: how many shards, and which register emulation
//! (with which parameters) backs each of them; the per-key history
//! bound; the optional TCP listen section; the flight-recorder window.
//!
//! There is no eviction setting: the store reclaims memory only when its
//! owner calls [`Store::evict_quiescent`](crate::Store::evict_quiescent),
//! which rests quiescent keys in place.

use rsb_registers::RegisterConfig;

/// Which register emulation a shard runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// ABD replication — strongly regular, wait-free, `O(fD)` storage.
    Abd,
    /// ABD with read write-back — atomic (linearizable).
    AbdAtomic,
    /// The Appendix-E safe register — constant `n·D/k` storage.
    Safe,
    /// The pure-coded baseline — `O(cD)` storage under concurrency.
    Coded,
    /// The Section-5 adaptive algorithm — coding that falls back to
    /// replication under concurrency.
    Adaptive,
}

impl ProtocolSpec {
    /// Short stable name, matching
    /// [`RegisterProtocol::name`](rsb_registers::RegisterProtocol::name).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolSpec::Abd => "abd",
            ProtocolSpec::AbdAtomic => "abd-atomic",
            ProtocolSpec::Safe => "safe",
            ProtocolSpec::Coded => "coded",
            ProtocolSpec::Adaptive => "adaptive",
        }
    }

    /// All specs, for sweeps.
    pub const ALL: [ProtocolSpec; 5] = [
        ProtocolSpec::Abd,
        ProtocolSpec::AbdAtomic,
        ProtocolSpec::Safe,
        ProtocolSpec::Coded,
        ProtocolSpec::Adaptive,
    ];
}

impl std::fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One shard's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// The register emulation backing every key on this shard.
    pub protocol: ProtocolSpec,
    /// The emulation's parameters (`n`, `f`, `k`, value length).
    pub register: RegisterConfig,
}

/// How a key's operation history is bounded over the register's lifetime.
///
/// The paper bounds the *storage* of a reliable register; the runtime
/// additionally accumulates per-key `OpRecord` history for the
/// consistency checkers, which grows without bound under sustained
/// traffic. A policy compacts settled records while keeping the frontier
/// writes a future read may still return, so truncated histories remain
/// acceptable to the regularity / atomicity checkers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryPolicy {
    /// Keep every record (the pre-compaction behaviour; default).
    Unbounded,
    /// Compact a key's history whenever it holds more than `N` live
    /// records — bounded memory under sustained traffic. A key-lock hold
    /// runs its operations to completion, so `TruncateAfter(1)` leaves
    /// only the frontier once each hold ends.
    TruncateAfter(usize),
}

/// Where (and how) [`Store::serve`](crate::Store::serve) exposes the
/// store over TCP.
///
/// Validated by [`StoreConfig::validate`] at start: a bad address or a
/// zero connection bound never gets as far as a bind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListenSpec {
    /// The address to bind, e.g. `"127.0.0.1:7400"` (use port `0` for an
    /// ephemeral port, reported by
    /// [`StoreServer::local_addr`](crate::StoreServer::local_addr)).
    pub addr: String,
    /// Maximum concurrent client connections; further connects are
    /// answered with a `Rejected` error frame and closed.
    pub backlog: usize,
}

impl ListenSpec {
    /// Default connection bound.
    pub const DEFAULT_BACKLOG: usize = 64;

    /// A spec for `addr` with the default backlog.
    pub fn new(addr: impl Into<String>) -> Self {
        ListenSpec {
            addr: addr.into(),
            backlog: Self::DEFAULT_BACKLOG,
        }
    }

    /// Overrides the concurrent-connection bound.
    pub fn with_backlog(mut self, backlog: usize) -> Self {
        self.backlog = backlog;
        self
    }
}

/// Errors validating a [`StoreConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreConfigError {
    /// The shard list is empty.
    NoShards,
    /// A truncate-after-N history bound of zero records.
    ZeroHistoryBound,
    /// A listen section with a zero connection bound.
    ZeroBacklog,
    /// A listen address that does not parse as a socket address.
    BadListenAddr(String),
    /// [`Store::serve`](crate::Store::serve) was called on a
    /// configuration with no listen section.
    MissingListen,
    /// A flight-recorder capacity of zero events.
    ZeroRecorderCapacity,
}

impl std::fmt::Display for StoreConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreConfigError::NoShards => write!(f, "a store needs at least one shard"),
            StoreConfigError::ZeroHistoryBound => {
                write!(f, "truncate-after-N needs a bound of at least 1 record")
            }
            StoreConfigError::ZeroBacklog => {
                write!(
                    f,
                    "a listen section needs a backlog of at least 1 connection"
                )
            }
            StoreConfigError::BadListenAddr(addr) => {
                write!(f, "listen address {addr:?} is not a valid socket address")
            }
            StoreConfigError::MissingListen => {
                write!(
                    f,
                    "serving requires a listen section (StoreConfig::with_listen)"
                )
            }
            StoreConfigError::ZeroRecorderCapacity => {
                write!(f, "the flight recorder needs capacity for at least 1 event")
            }
        }
    }
}

impl std::error::Error for StoreConfigError {}

/// Full store configuration.
///
/// Shards may run *different* protocols (e.g. hot shards on ABD
/// replication, cold ones on the adaptive coder) — the keyspace partition
/// is purely hash-based, so the choice is a placement policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Per-shard specifications; the keyspace is hashed over their count.
    pub shards: Vec<ShardSpec>,
    /// Per-key operation-history bound.
    pub history: HistoryPolicy,
    /// The TCP service surface, if any. `None` (the default) means
    /// in-process only; [`Store::serve`](crate::Store::serve) requires
    /// `Some`.
    pub listen: Option<ListenSpec>,
    /// Capacity, in events, of the store's flight recorder
    /// (overwrite-oldest; fixed memory of ~16 bytes per slot).
    pub recorder_capacity: usize,
}

impl StoreConfig {
    /// Default flight-recorder window.
    pub const DEFAULT_RECORDER_CAPACITY: usize = 1024;

    /// A homogeneous store: `shard_count` shards all running `protocol`
    /// with `register` parameters.
    pub fn uniform(shard_count: usize, protocol: ProtocolSpec, register: RegisterConfig) -> Self {
        StoreConfig {
            shards: vec![ShardSpec { protocol, register }; shard_count],
            history: HistoryPolicy::Unbounded,
            listen: None,
            recorder_capacity: Self::DEFAULT_RECORDER_CAPACITY,
        }
    }

    /// Overrides the per-key history policy.
    pub fn with_history(mut self, history: HistoryPolicy) -> Self {
        self.history = history;
        self
    }

    /// Adds a TCP listen section, enabling
    /// [`Store::serve`](crate::Store::serve).
    pub fn with_listen(mut self, listen: ListenSpec) -> Self {
        self.listen = Some(listen);
        self
    }

    /// Overrides the flight recorder's event window (tests shrink it to
    /// exercise wrap-around; long-lived servers may want more context).
    pub fn with_recorder_capacity(mut self, recorder_capacity: usize) -> Self {
        self.recorder_capacity = recorder_capacity;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Rejects an empty shard list, a zero truncate-after-N bound, a
    /// listen section with a zero backlog or an unparseable address, and
    /// a zero-capacity flight recorder.
    pub fn validate(&self) -> Result<(), StoreConfigError> {
        if self.shards.is_empty() {
            return Err(StoreConfigError::NoShards);
        }
        if self.history == HistoryPolicy::TruncateAfter(0) {
            return Err(StoreConfigError::ZeroHistoryBound);
        }
        if let Some(listen) = &self.listen {
            if listen.backlog == 0 {
                return Err(StoreConfigError::ZeroBacklog);
            }
            if listen.addr.parse::<std::net::SocketAddr>().is_err() {
                return Err(StoreConfigError::BadListenAddr(listen.addr.clone()));
            }
        }
        if self.recorder_capacity == 0 {
            return Err(StoreConfigError::ZeroRecorderCapacity);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_builds_and_validates() {
        let reg = RegisterConfig::paper(1, 2, 16).unwrap();
        let cfg = StoreConfig::uniform(8, ProtocolSpec::Abd, reg);
        assert_eq!(cfg.shards.len(), 8);
        assert!(cfg.validate().is_ok());
        let mut empty = cfg.clone();
        empty.shards.clear();
        assert_eq!(empty.validate(), Err(StoreConfigError::NoShards));
        assert_eq!(
            cfg.clone()
                .with_history(HistoryPolicy::TruncateAfter(0))
                .validate(),
            Err(StoreConfigError::ZeroHistoryBound)
        );
        assert_eq!(
            cfg.clone().with_recorder_capacity(0).validate(),
            Err(StoreConfigError::ZeroRecorderCapacity)
        );
        assert!(cfg
            .with_history(HistoryPolicy::TruncateAfter(1))
            .validate()
            .is_ok());
    }

    #[test]
    fn listen_sections_validate() {
        let reg = RegisterConfig::paper(1, 2, 16).unwrap();
        let cfg = StoreConfig::uniform(2, ProtocolSpec::Abd, reg);
        assert!(cfg.validate().is_ok(), "no listen section is fine");
        assert!(cfg
            .clone()
            .with_listen(ListenSpec::new("127.0.0.1:0"))
            .validate()
            .is_ok());
        assert_eq!(
            cfg.clone()
                .with_listen(ListenSpec::new("127.0.0.1:0").with_backlog(0))
                .validate(),
            Err(StoreConfigError::ZeroBacklog)
        );
        assert_eq!(
            cfg.with_listen(ListenSpec::new("not-an-addr")).validate(),
            Err(StoreConfigError::BadListenAddr("not-an-addr".into()))
        );
    }

    #[test]
    fn spec_names_are_stable() {
        let names: Vec<_> = ProtocolSpec::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["abd", "abd-atomic", "safe", "coded", "adaptive"]);
    }
}
