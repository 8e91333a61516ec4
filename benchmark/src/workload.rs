//! The four frozen workloads. Every value that shapes a workload is
//! spelled out here and echoed in the results file, so no metric depends
//! on a library default a later change could move unnoticed.

use crate::gen::Plan;
use rsb_registers::RegisterConfig;
use rsb_store::{HistoryPolicy, ProtocolSpec, StoreConfig};

/// Generator threads (closed loop: each waits for its replies), one TCP
/// connection each where TCP is used. The machine has two cores.
pub const THREADS: usize = 2;
pub const SHARDS: usize = 2;
pub const WRITE_FRACTION: f64 = 0.5;
/// A service configuration, not the library default: `Unbounded` keeps
/// every written value for ever.
pub const HISTORY: HistoryPolicy = HistoryPolicy::TruncateAfter(16);

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub protocol: ProtocolSpec,
    /// Base objects, tolerated crashes, code threshold, value bytes.
    pub n: usize,
    pub f: usize,
    pub k: usize,
    pub value_len: usize,
    pub keys: u32,
    pub zipf_theta: Option<f64>,
    pub tcp: bool,
    /// Ops per submission: 1 (`read`/`write` + `wait`) or a
    /// `submit_batch` of this many + `join_all`.
    pub batch: usize,
    /// Ops each generator thread runs before the clock starts (about
    /// three seconds' worth on the machine the baseline was taken on);
    /// the memory and storage metrics are read when they are done.
    pub fixed_ops: u64,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "abd-256b-tcp",
        protocol: ProtocolSpec::Abd,
        n: 3,
        f: 1,
        k: 1,
        value_len: 256,
        keys: 4096,
        zipf_theta: None,
        tcp: true,
        batch: 1,
        fixed_ops: 40_000,
        why: "the wire does most of the work (frame codec, two syscalls, reader and pump \
              thread handoffs); coding does nothing",
    },
    Workload {
        name: "abd-256b-tcp-batch16",
        protocol: ProtocolSpec::Abd,
        n: 3,
        f: 1,
        k: 1,
        value_len: 256,
        keys: 4096,
        zipf_theta: None,
        tcp: true,
        batch: 16,
        fixed_ops: 240_000,
        why: "the same wire layers used through BatchReq/BatchResp, one flush per 16 ops; \
              a single-op gain that costs the batch path shows here",
    },
    Workload {
        name: "coded-64k-loopback",
        protocol: ProtocolSpec::Coded,
        n: 7,
        f: 1,
        k: 4,
        value_len: 65536,
        keys: 256,
        zipf_theta: None,
        tcp: false,
        batch: 1,
        fixed_ops: 50_000,
        why: "RS encode on writes, decode on reads and 64 KiB copies dominate; no wire, \
              shard overhead small next to the payload",
    },
    Workload {
        name: "adaptive-1k-zipf-batch16",
        protocol: ProtocolSpec::Adaptive,
        n: 6,
        f: 2,
        k: 2,
        value_len: 1024,
        keys: 1024,
        zipf_theta: Some(0.99),
        tcp: false,
        batch: 16,
        fixed_ops: 128_000,
        why: "the paper's algorithm under real per-key concurrency (hot keys repeat inside \
              and across batches); simulator stepping, protocol logic and the ready queue \
              dominate, coding is light, no wire",
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn register(&self) -> RegisterConfig {
        RegisterConfig::new(self.n, self.f, self.k, self.value_len)
            .expect("the frozen register parameters are valid")
    }

    /// Everything but the listen address, which the TCP rig adds.
    pub fn store_config(&self) -> StoreConfig {
        StoreConfig::uniform(SHARDS, self.protocol, self.register()).with_history(HISTORY)
    }

    /// The generated inputs of one run of this workload.
    pub fn plan(&self, seed: u64) -> Plan {
        Plan::new(
            seed,
            THREADS,
            self.keys,
            self.zipf_theta,
            WRITE_FRACTION,
            self.value_len,
        )
    }

    /// `keys · D` in bits, the denominator of the storage ratios.
    pub fn user_bits(&self) -> f64 {
        f64::from(self.keys) * 8.0 * self.value_len as f64
    }

    /// The configuration echoed in every results file.
    pub fn config_json(&self) -> String {
        format!(
            "{{\"protocol\": \"{}\", \"n\": {}, \"f\": {}, \"k\": {}, \"value_len\": {}, \
             \"keys\": {}, \"key_distribution\": \"{}\", \"transport\": \"{}\", \"batch\": {}, \
             \"fixed_ops_per_thread\": {}, \"threads\": {THREADS}, \"shards\": {SHARDS}, \"write_fraction\": {WRITE_FRACTION}, \
             \"history\": \"TruncateAfter(16)\", \"loop\": \"closed\"}}",
            self.protocol.name(),
            self.n,
            self.f,
            self.k,
            self.value_len,
            self.keys,
            self.zipf_theta
                .map_or_else(|| "uniform".into(), |t| format!("zipf({t})")),
            if self.tcp { "tcp" } else { "loopback" },
            self.batch,
            self.fixed_ops,
        )
    }
}
