//! The benchmark's own input generator: a SplitMix64 stream, uniform and
//! zipf key sampling, pre-generated op streams and value pools.
//!
//! Everything here is a pure function of `--seed`, so the same seed gives
//! byte-identical inputs on every commit; the program under test only
//! ever sees the generated operations.

use rsb_coding::Value;
use rsb_store::BatchOp;
use std::sync::atomic::{AtomicU32, Ordering};

/// Values per generator thread. Thread `t`'s `i`-th write to a key uses
/// pool value `i % POOL`, so a key's retained history (16 records plus
/// what is in flight) never holds one value twice — the strong
/// regularity checker needs pairwise-distinct written values.
pub const POOL: usize = 64;

/// Ops in one thread's pre-generated stream; the timed loop cycles it.
pub const STREAM_LEN: usize = 1 << 18;

const POOL_MAGIC: [u8; 4] = *b"RSBP";

/// SplitMix64 (Steele, Lea, Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for `(seed, thread, purpose)`.
    pub fn stream(seed: u64, thread: usize, purpose: u64) -> Self {
        let mut root = SplitMix64::new(seed);
        let a = root.next_u64();
        let mut mixed = SplitMix64::new(a ^ ((thread as u64) << 32) ^ purpose);
        mixed.next_u64();
        mixed
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Key popularity: uniform, or zipf with key 0 the hottest.
#[derive(Debug, Clone)]
pub struct KeySampler {
    keys: u32,
    /// Cumulative zipf weights, normalised to end at 1.0.
    cdf: Option<Vec<f64>>,
}

impl KeySampler {
    pub fn new(keys: u32, zipf_theta: Option<f64>) -> Self {
        let cdf = zipf_theta.map(|theta| {
            let weights: Vec<f64> = (1..=keys).map(|r| f64::from(r).powf(-theta)).collect();
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect()
        });
        KeySampler { keys, cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        match &self.cdf {
            None => (rng.next_u64() % u64::from(self.keys)) as u32,
            Some(cdf) => {
                let u = rng.next_f64();
                (cdf.partition_point(|&c| c <= u) as u32).min(self.keys - 1)
            }
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub key: u32,
    pub write: bool,
}

/// One thread's op stream, packed as `key << 1 | write`.
pub fn op_stream(seed: u64, thread: usize, sampler: &KeySampler, write_fraction: f64) -> Vec<u32> {
    let mut rng = SplitMix64::stream(seed, thread, 0x6f70); // "op"
    (0..STREAM_LEN)
        .map(|_| {
            let key = sampler.sample(&mut rng);
            let write = rng.next_f64() < write_fraction;
            key << 1 | u32::from(write)
        })
        .collect()
}

/// One thread's pool of `POOL` distinct values of `len` bytes. The first
/// eight bytes are `RSBP`, the thread, the pool index and two zero bytes,
/// so a value read back names the pool slot it must equal.
pub fn value_pool(seed: u64, thread: usize, len: usize) -> Vec<Value> {
    assert!(len >= 8, "pool values carry an 8-byte header");
    assert!(thread < 256 && POOL <= 256);
    let mut rng = SplitMix64::stream(seed, thread, 0x7661); // "va"
    (0..POOL)
        .map(|idx| {
            let mut bytes = Vec::with_capacity(len);
            bytes.extend_from_slice(&POOL_MAGIC);
            bytes.extend_from_slice(&[thread as u8, idx as u8, 0, 0]);
            while bytes.len() < len {
                let word = rng.next_u64().to_le_bytes();
                let take = word.len().min(len - bytes.len());
                bytes.extend_from_slice(&word[..take]);
            }
            Value::from_bytes(bytes)
        })
        .collect()
}

/// The pool slot a value claims to be, from its header.
fn pool_slot(value: &Value) -> Option<(usize, usize)> {
    let b = value.as_bytes();
    (b.len() >= 8 && b[..4] == POOL_MAGIC).then(|| (b[4] as usize, b[5] as usize))
}

/// The generated inputs of one run, shared by every generator thread.
#[derive(Debug)]
pub struct Plan {
    pub keys: Vec<String>,
    pub value_len: usize,
    streams: Vec<Vec<u32>>,
    pools: Vec<Vec<Value>>,
    /// `written[t][k]`: writes thread `t` has issued to key `k` so far.
    /// Bumped before the write is submitted, read when a value comes
    /// back, so a read can tell "written to this key" from "some pool
    /// value".
    written: Vec<Vec<AtomicU32>>,
}

impl Plan {
    pub fn new(
        seed: u64,
        threads: usize,
        keys: u32,
        zipf_theta: Option<f64>,
        write_fraction: f64,
        value_len: usize,
    ) -> Self {
        let sampler = KeySampler::new(keys, zipf_theta);
        Plan {
            keys: (0..keys).map(|k| format!("k{k:05}")).collect(),
            value_len,
            streams: (0..threads)
                .map(|t| op_stream(seed, t, &sampler, write_fraction))
                .collect(),
            pools: (0..threads)
                .map(|t| value_pool(seed, t, value_len))
                .collect(),
            written: (0..threads)
                .map(|_| (0..keys).map(|_| AtomicU32::new(0)).collect())
                .collect(),
        }
    }

    pub fn cursor(&self, thread: usize) -> Cursor<'_> {
        Cursor {
            stream: &self.streams[thread],
            pos: 0,
        }
    }

    /// The value `thread` writes to `key` next; records the write as
    /// issued.
    pub fn next_value(&self, thread: usize, key: u32) -> Value {
        // Release pairs with the Acquire in `is_written_to`: a reader that
        // sees the value in the store also sees the bumped count.
        let nth = self.written[thread][key as usize].fetch_add(1, Ordering::Release);
        self.pools[thread][nth as usize % POOL].clone()
    }

    /// `op` as one member of a `submit_batch`, a write taking `thread`'s
    /// next value for the key.
    pub fn batch_op(&self, thread: usize, op: Op) -> BatchOp {
        let key = self.keys[op.key as usize].clone();
        if op.write {
            BatchOp::Write(key, self.next_value(thread, op.key))
        } else {
            BatchOp::Read(key)
        }
    }

    /// Whether `value` is the initial value or a pool value that some
    /// thread has written to `key`.
    pub fn is_written_to(&self, key: u32, value: &Value) -> bool {
        if value.len() != self.value_len {
            return false;
        }
        let Some((thread, idx)) = pool_slot(value) else {
            return value.as_bytes().iter().all(|&b| b == 0);
        };
        let Some(expected) = self.pools.get(thread).and_then(|p| p.get(idx)) else {
            return false;
        };
        let issued = self.written[thread][key as usize].load(Ordering::Acquire);
        issued as usize > idx && value == expected
    }
}

/// Cycles one thread's stream.
#[derive(Debug)]
pub struct Cursor<'a> {
    stream: &'a [u32],
    pos: usize,
}

impl Cursor<'_> {
    #[inline]
    pub fn next_op(&mut self) -> Op {
        let packed = self.stream[self.pos];
        self.pos += 1;
        if self.pos == self.stream.len() {
            self.pos = 0;
        }
        Op {
            key: packed >> 1,
            write: packed & 1 == 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64, theta: Option<f64>) -> Vec<u8> {
        let sampler = KeySampler::new(1024, theta);
        (0..2)
            .flat_map(|t| op_stream(seed, t, &sampler, 0.5))
            .flat_map(u32::to_le_bytes)
            .collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for theta in [None, Some(0.99)] {
            assert_eq!(stream_bytes(7, theta), stream_bytes(7, theta));
            assert_ne!(stream_bytes(7, theta), stream_bytes(8, theta));
        }
    }

    #[test]
    fn threads_get_different_streams() {
        let sampler = KeySampler::new(4096, None);
        assert_ne!(
            op_stream(1, 0, &sampler, 0.5),
            op_stream(1, 1, &sampler, 0.5)
        );
    }

    #[test]
    fn zipf_key_sequence_repeats_and_is_skewed() {
        let sampler = KeySampler::new(1024, Some(0.99));
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..50_000)
                .map(|_| sampler.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&k| k < 1024));
        let hottest = a.iter().filter(|&&k| k == 0).count() as f64 / a.len() as f64;
        // 1 / H(1024, 0.99) = 0.1307.
        assert!((0.11..0.15).contains(&hottest), "key 0 drew {hottest}");
    }

    #[test]
    fn write_fraction_is_half() {
        let sampler = KeySampler::new(256, None);
        let writes = op_stream(1, 0, &sampler, 0.5)
            .iter()
            .filter(|&&p| p & 1 == 1)
            .count() as f64;
        assert!((writes / STREAM_LEN as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn pool_values_are_distinct_seeded_and_self_describing() {
        let a = value_pool(1, 0, 256);
        assert_eq!(a, value_pool(1, 0, 256));
        assert_ne!(a, value_pool(2, 0, 256));
        let mut all: Vec<&Value> = a.iter().collect();
        let b = value_pool(1, 1, 256);
        all.extend(b.iter());
        for (i, v) in all.iter().enumerate() {
            assert_eq!(v.len(), 256);
            assert_eq!(pool_slot(v), Some((i / POOL, i % POOL)));
            assert!(all[..i].iter().all(|w| w != v));
        }
    }

    #[test]
    fn plan_accepts_only_values_written_to_the_key() {
        let plan = Plan::new(1, 2, 8, None, 0.5, 64);
        let v0 = Value::zeroed(64);
        assert!(plan.is_written_to(3, &v0));
        assert!(!plan.is_written_to(3, &Value::zeroed(63)));
        let first = plan.pools[1][0].clone();
        assert!(!plan.is_written_to(3, &first), "not written yet");
        assert_eq!(plan.next_value(1, 3), first);
        assert!(plan.is_written_to(3, &first));
        assert!(!plan.is_written_to(4, &first), "written to another key");
        let mut forged = first.as_bytes().to_vec();
        forged[63] ^= 1;
        assert!(!plan.is_written_to(3, &Value::from_bytes(forged)));
    }

    #[test]
    fn cursor_cycles_the_stream() {
        let plan = Plan::new(1, 1, 16, None, 0.5, 16);
        let mut c = plan.cursor(0);
        let first = c.next_op();
        for _ in 1..STREAM_LEN {
            c.next_op();
        }
        assert_eq!(c.next_op(), first);
    }
}
