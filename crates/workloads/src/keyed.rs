//! Keyed (multi-register) traffic generation for the sharded store.
//!
//! A [`KeyedScenario`] describes heavy multi-key traffic the way storage
//! benchmarks do: a key population with a popularity distribution
//! (uniform or zipfian), a read/write mix, and a value-size distribution.
//! Every client's operation stream is deterministic given the scenario
//! seed (clients get independent forked sub-seeds), and written values
//! are globally unique — the first 8 bytes pack `(client, sequence)` — so
//! the strong consistency checkers apply to recorded histories.

use crate::seeds::SeedSequence;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsb_coding::Value;

/// How keys are chosen per operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf-like popularity: key rank `i` (0-based) has weight
    /// `1/(i+1)^theta`. `theta = 0` degenerates to uniform; common
    /// benchmark skew is `theta ≈ 0.99`.
    Zipfian {
        /// The skew exponent.
        theta: f64,
    },
    /// Adversarial hot-set skew: a fraction `hot_fraction` of operations
    /// lands uniformly on the first `hot` keys, the rest uniformly on
    /// the remainder — the worst case for a sharded store, since every
    /// submitter of a hot key serializes on that key's lock.
    HotSpot {
        /// Number of hot keys (ranks `0..hot`).
        hot: usize,
        /// Probability an operation targets the hot set, in `[0, 1]`.
        hot_fraction: f64,
    },
}

/// How value payload sizes are drawn for writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueSizeDist {
    /// Every write the same size.
    Fixed(usize),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Smallest payload, in bytes (≥ 8 for value uniqueness).
        min: usize,
        /// Largest payload, in bytes.
        max: usize,
    },
    /// Mostly `small`, occasionally `large` — the classic metadata/blob
    /// mix.
    Bimodal {
        /// The common payload size.
        small: usize,
        /// The rare payload size.
        large: usize,
        /// Probability of drawing `large`, in `[0, 1]`.
        large_fraction: f64,
    },
}

impl ValueSizeDist {
    /// The largest size the distribution can draw.
    pub fn max_len(&self) -> usize {
        match *self {
            ValueSizeDist::Fixed(n) => n,
            ValueSizeDist::Uniform { max, .. } => max,
            ValueSizeDist::Bimodal { small, large, .. } => small.max(large),
        }
    }

    fn min_len(&self) -> usize {
        match *self {
            ValueSizeDist::Fixed(n) => n,
            ValueSizeDist::Uniform { min, .. } => min,
            ValueSizeDist::Bimodal { small, large, .. } => small.min(large),
        }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        match *self {
            ValueSizeDist::Fixed(n) => n,
            ValueSizeDist::Uniform { min, max } => rng.gen_range(min..=max),
            ValueSizeDist::Bimodal {
                small,
                large,
                large_fraction,
            } => {
                if rng.gen_bool(large_fraction) {
                    large
                } else {
                    small
                }
            }
        }
    }
}

/// A population of keys with a sampling distribution.
///
/// Keys are named `k000000`, `k000001`, … so independently generated
/// streams agree on the namespace.
#[derive(Debug, Clone)]
pub struct KeySpace {
    count: usize,
    /// Cumulative weights for zipfian sampling; empty for uniform.
    cumulative: Vec<f64>,
    /// Hot-set sampling parameters, if the distribution is `HotSpot`.
    hot_spot: Option<(usize, f64)>,
}

impl KeySpace {
    /// Builds a key space of `count` keys under `dist`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, a zipfian `theta` is negative, or a
    /// hot-spot configuration is out of range (`hot` must be in
    /// `1..=count`, `hot_fraction` in `[0, 1]`).
    pub fn new(count: usize, dist: KeyDist) -> Self {
        assert!(count > 0, "a key space needs at least one key");
        let mut hot_spot = None;
        let cumulative = match dist {
            KeyDist::Uniform => Vec::new(),
            KeyDist::Zipfian { theta } => {
                assert!(theta >= 0.0, "zipfian theta must be non-negative");
                let mut acc = 0.0;
                let mut cumulative = Vec::with_capacity(count);
                for i in 0..count {
                    acc += 1.0 / ((i + 1) as f64).powf(theta);
                    cumulative.push(acc);
                }
                cumulative
            }
            KeyDist::HotSpot { hot, hot_fraction } => {
                assert!(
                    (1..=count).contains(&hot),
                    "hot-set size must be in 1..=count"
                );
                assert!(
                    (0.0..=1.0).contains(&hot_fraction),
                    "hot_fraction must be in [0, 1]"
                );
                hot_spot = Some((hot, hot_fraction));
                Vec::new()
            }
        };
        KeySpace {
            count,
            cumulative,
            hot_spot,
        }
    }

    /// The theoretical probability of key rank `i` under the space's
    /// distribution (what empirical frequencies should converge to).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn probability(&self, i: usize) -> f64 {
        assert!(i < self.count, "key rank out of range");
        if let Some((hot, hot_fraction)) = self.hot_spot {
            // A hot set covering the whole space degenerates to uniform
            // (sampling ignores hot_fraction then — see `sample`).
            return if self.count == hot {
                1.0 / self.count as f64
            } else if i < hot {
                hot_fraction / hot as f64
            } else {
                (1.0 - hot_fraction) / (self.count - hot) as f64
            };
        }
        if self.cumulative.is_empty() {
            return 1.0 / self.count as f64;
        }
        let total = *self.cumulative.last().expect("non-empty cumulative");
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        (self.cumulative[i] - prev) / total
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the space is empty (never: construction requires ≥ 1 key).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The canonical name of key index `i`.
    pub fn name(&self, i: usize) -> String {
        format!("k{i:06}")
    }

    /// Parses a canonical key name back to its rank, or `None` when the
    /// key is not shaped `k<digits>` or its rank is outside this space —
    /// the defensive inverse of [`KeySpace::name`]. Use this instead of
    /// `key[1..].parse().unwrap()`: consumers (consistency spot-checks,
    /// hit-rate tables) must *skip or report* foreign keys, not panic on
    /// a future custom key distribution (or a multi-byte first char,
    /// where the slice itself panics).
    pub fn rank_of(&self, key: &str) -> Option<usize> {
        let rank = key_rank(key)?;
        (rank < self.count).then_some(rank)
    }

    /// Samples a key index.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        if let Some((hot, hot_fraction)) = self.hot_spot {
            return if self.count == hot || rng.gen_bool(hot_fraction) {
                rng.gen_range(0..hot)
            } else {
                rng.gen_range(hot..self.count)
            };
        }
        if self.cumulative.is_empty() {
            return rng.gen_range(0..self.count);
        }
        let total = *self.cumulative.last().expect("non-empty cumulative");
        // 53 high bits give a uniform double in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let target = unit * total;
        match self
            .cumulative
            .binary_search_by(|w| w.partial_cmp(&target).expect("weights are finite"))
        {
            Ok(i) | Err(i) => i.min(self.count - 1),
        }
    }
}

use rand::RngCore;

/// Parses a canonical `k<digits>` key name to its rank, or `None` for
/// any other shape (empty string, different prefix, non-digits, or a
/// value that overflows `usize`). Never panics, whatever the input.
pub fn key_rank(key: &str) -> Option<usize> {
    let digits = key.strip_prefix('k')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// A keyed multi-register traffic scenario.
#[derive(Debug, Clone)]
pub struct KeyedScenario {
    /// Concurrent clients.
    pub clients: usize,
    /// Operations each client performs.
    pub ops_per_client: usize,
    /// Key population size.
    pub keys: usize,
    /// Key popularity distribution.
    pub key_dist: KeyDist,
    /// Fraction of operations that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Value payload sizes for writes.
    pub value_sizes: ValueSizeDist,
    /// Master seed; fully determines every client's stream.
    pub seed: u64,
}

impl KeyedScenario {
    /// A uniform-key, fixed-size scenario — the baseline shape.
    pub fn uniform(
        clients: usize,
        ops_per_client: usize,
        keys: usize,
        read_fraction: f64,
        value_len: usize,
        seed: u64,
    ) -> Self {
        KeyedScenario {
            clients,
            ops_per_client,
            keys,
            key_dist: KeyDist::Uniform,
            read_fraction,
            value_sizes: ValueSizeDist::Fixed(value_len),
            seed,
        }
    }

    /// Switches key choice to zipfian with the given skew.
    pub fn with_zipf(mut self, theta: f64) -> Self {
        self.key_dist = KeyDist::Zipfian { theta };
        self
    }

    /// Switches key choice to an adversarial hot set: `hot_fraction` of
    /// operations land on the first `hot` keys.
    pub fn with_hot_spot(mut self, hot: usize, hot_fraction: f64) -> Self {
        self.key_dist = KeyDist::HotSpot { hot, hot_fraction };
        self
    }

    /// Switches the value-size distribution.
    pub fn with_value_sizes(mut self, sizes: ValueSizeDist) -> Self {
        self.value_sizes = sizes;
        self
    }

    /// Total operations across all clients.
    pub fn total_ops(&self) -> usize {
        self.clients * self.ops_per_client
    }

    /// The deterministic operation stream of one client.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range, the smallest drawable value
    /// size is under 8 bytes (uniqueness needs room for the tag), or
    /// `read_fraction` is outside `[0, 1]`.
    pub fn client_ops(&self, client: usize) -> KeyedOpStream {
        assert!(client < self.clients, "client index out of range");
        assert!(
            self.value_sizes.min_len() >= 8,
            "value sizes must be at least 8 bytes for write uniqueness"
        );
        assert!(
            (0.0..=1.0).contains(&self.read_fraction),
            "read_fraction must be in [0, 1]"
        );
        let seeds = SeedSequence::new(self.seed).fork(client as u64);
        let mut seeds = seeds;
        KeyedOpStream {
            space: KeySpace::new(self.keys, self.key_dist),
            read_fraction: self.read_fraction,
            value_sizes: self.value_sizes,
            rng: StdRng::seed_from_u64(seeds.next_seed()),
            filler: seeds.next_seed(),
            client: client as u32,
            remaining: self.ops_per_client,
            sequence: 0,
        }
    }
}

/// What one keyed operation does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyedAction {
    /// Read the key's register.
    Read,
    /// Write this value to the key's register.
    Write(Value),
}

/// One operation of a keyed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedOp {
    /// The target key (canonical `k######` name).
    pub key: String,
    /// Read, or write with a payload.
    pub action: KeyedAction,
}

/// Deterministic iterator over one client's keyed operations.
#[derive(Debug, Clone)]
pub struct KeyedOpStream {
    space: KeySpace,
    read_fraction: f64,
    value_sizes: ValueSizeDist,
    rng: StdRng,
    filler: u64,
    client: u32,
    remaining: usize,
    sequence: u32,
}

impl KeyedOpStream {
    /// Builds a write payload of `len` bytes whose first 8 bytes pack
    /// `(client, sequence)` — globally unique across the scenario.
    fn next_value(&mut self, len: usize) -> Value {
        self.sequence += 1;
        let mut bytes = Vec::with_capacity(len);
        bytes.extend_from_slice(&self.client.to_le_bytes());
        bytes.extend_from_slice(&self.sequence.to_le_bytes());
        let mut state = self.filler ^ u64::from(self.sequence);
        while bytes.len() < len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            bytes.push((state >> 33) as u8);
        }
        Value::from_bytes(bytes)
    }
}

impl Iterator for KeyedOpStream {
    type Item = KeyedOp;

    fn next(&mut self) -> Option<KeyedOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let key = self.space.name(self.space.sample(&mut self.rng));
        let action = if self.rng.gen_bool(self.read_fraction) {
            KeyedAction::Read
        } else {
            let len = self.value_sizes.sample(&mut self.rng);
            KeyedAction::Write(self.next_value(len))
        };
        Some(KeyedOp { key, action })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn scenario() -> KeyedScenario {
        KeyedScenario::uniform(4, 100, 32, 0.5, 16, 7)
    }

    #[test]
    fn streams_are_deterministic() {
        let s = scenario();
        let a: Vec<KeyedOp> = s.client_ops(2).collect();
        let b: Vec<KeyedOp> = s.client_ops(2).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn clients_get_distinct_streams_and_unique_writes() {
        let s = scenario();
        let mut written: HashSet<Value> = HashSet::new();
        for client in 0..s.clients {
            for op in s.client_ops(client) {
                if let KeyedAction::Write(v) = op.action {
                    assert!(written.insert(v), "write values must be globally unique");
                }
            }
        }
        assert!(written.len() > 100, "roughly half of 400 ops are writes");
    }

    #[test]
    fn read_fraction_is_respected() {
        let s = KeyedScenario::uniform(1, 2000, 8, 0.9, 16, 3);
        let reads = s
            .client_ops(0)
            .filter(|op| op.action == KeyedAction::Read)
            .count();
        assert!((1700..=2000).contains(&reads), "got {reads} reads");
    }

    #[test]
    fn zipfian_skews_towards_low_ranks() {
        let s = KeyedScenario::uniform(1, 4000, 64, 0.0, 16, 5).with_zipf(0.99);
        let mut counts: HashMap<String, usize> = HashMap::new();
        for op in s.client_ops(0) {
            *counts.entry(op.key).or_default() += 1;
        }
        let top = counts.get("k000000").copied().unwrap_or(0);
        let uniform_share = 4000 / 64;
        assert!(
            top > 3 * uniform_share,
            "rank-0 key should be heavily favored: {top} vs uniform {uniform_share}"
        );
        // Uniform control: no key gets that kind of share.
        let u = KeyedScenario::uniform(1, 4000, 64, 0.0, 16, 5);
        let mut ucounts: HashMap<String, usize> = HashMap::new();
        for op in u.client_ops(0) {
            *ucounts.entry(op.key).or_default() += 1;
        }
        let umax = ucounts.values().copied().max().unwrap_or(0);
        assert!(umax < top, "uniform max {umax} < zipf top {top}");
    }

    #[test]
    fn zipf_empirical_frequencies_match_theta() {
        // Deterministic: fixed seed, large sample. The empirical
        // frequency of each of the top ranks must match the configured
        // theta's theoretical weight within a generous tolerance, and
        // the harmonic normalization must make all weights sum to 1.
        let theta = 0.99;
        let keys = 64;
        let samples = 40_000;
        let s = KeyedScenario::uniform(1, samples, keys, 0.0, 16, 77).with_zipf(theta);
        let space = KeySpace::new(keys, KeyDist::Zipfian { theta });
        let total_prob: f64 = (0..keys).map(|i| space.probability(i)).sum();
        assert!((total_prob - 1.0).abs() < 1e-9, "probabilities sum to 1");

        let mut counts = vec![0usize; keys];
        for op in s.client_ops(0) {
            let rank = space.rank_of(&op.key).expect("canonical k###### name");
            counts[rank] += 1;
        }
        for (rank, &count) in counts.iter().take(8).enumerate() {
            let expected = space.probability(rank);
            let got = count as f64 / samples as f64;
            assert!(
                (got - expected).abs() < 0.25 * expected + 0.002,
                "rank {rank}: empirical {got:.4} vs theoretical {expected:.4} (theta {theta})"
            );
        }
        // Skew direction: ranks must be (weakly) less popular going down
        // the long tail in aggregate.
        let head: usize = counts[..8].iter().sum();
        let tail: usize = counts[keys - 8..].iter().sum();
        assert!(head > 4 * tail, "head {head} should dwarf tail {tail}");
    }

    #[test]
    fn hot_spot_concentrates_traffic() {
        let s = KeyedScenario::uniform(1, 8000, 32, 0.0, 16, 13).with_hot_spot(2, 0.9);
        let space = KeySpace::new(
            32,
            KeyDist::HotSpot {
                hot: 2,
                hot_fraction: 0.9,
            },
        );
        assert!((space.probability(0) - 0.45).abs() < 1e-9);
        assert!((space.probability(5) - (0.1 / 30.0)).abs() < 1e-9);
        let mut hot_hits = 0usize;
        for op in s.client_ops(0) {
            // Defensive parse: a foreign key would be skipped, not panic.
            if space.rank_of(&op.key).is_some_and(|rank| rank < 2) {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / 8000.0;
        assert!((frac - 0.9).abs() < 0.02, "hot fraction {frac} ≈ 0.9");
    }

    #[test]
    fn hot_spot_covering_the_whole_space_degenerates_to_uniform() {
        // When hot == count, sampling ignores hot_fraction (the "cold"
        // range is empty); probability() must agree and still sum to 1.
        let space = KeySpace::new(
            4,
            KeyDist::HotSpot {
                hot: 4,
                hot_fraction: 0.5,
            },
        );
        for i in 0..4 {
            assert!((space.probability(i) - 0.25).abs() < 1e-9);
        }
        let total: f64 = (0..4).map(|i| space.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn key_rank_parses_canonical_names_and_rejects_everything_else() {
        let space = KeySpace::new(32, KeyDist::Uniform);
        for i in [0usize, 1, 7, 31] {
            assert_eq!(key_rank(&space.name(i)), Some(i));
            assert_eq!(space.rank_of(&space.name(i)), Some(i));
        }
        // Unpadded canonical-ish names still parse.
        assert_eq!(key_rank("k7"), Some(7));
        // Foreign shapes must come back as None, never panic — including
        // the multi-byte first char that would make `key[1..]` itself
        // panic on a byte-offset boundary.
        for foreign in [
            "",
            "k",
            "x000001",
            "k-1",
            "k1.5",
            "kabc",
            "k1a",
            "user:42",
            "é42",
            "k99999999999999999999999999",
        ] {
            assert_eq!(key_rank(foreign), None, "key {foreign:?}");
        }
        // In-space check: rank must also be inside the population.
        assert_eq!(space.rank_of("k000031"), Some(31));
        assert_eq!(space.rank_of("k000032"), None);
    }

    #[test]
    fn value_size_distributions_sample_in_range() {
        let sizes = ValueSizeDist::Uniform { min: 8, max: 32 };
        let s = KeyedScenario::uniform(1, 500, 4, 0.0, 16, 9).with_value_sizes(sizes);
        for op in s.client_ops(0) {
            if let KeyedAction::Write(v) = op.action {
                assert!((8..=32).contains(&v.len()));
            }
        }
        let bimodal = ValueSizeDist::Bimodal {
            small: 16,
            large: 256,
            large_fraction: 0.1,
        };
        let s = KeyedScenario::uniform(1, 500, 4, 0.0, 16, 9).with_value_sizes(bimodal);
        let mut larges = 0;
        for op in s.client_ops(0) {
            if let KeyedAction::Write(v) = op.action {
                assert!(v.len() == 16 || v.len() == 256);
                if v.len() == 256 {
                    larges += 1;
                }
            }
        }
        assert!((10..=120).contains(&larges), "got {larges} large writes");
    }
}
