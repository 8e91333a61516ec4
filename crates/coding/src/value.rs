//! The value domain `V` of the emulated register.

use bytes::Bytes;

/// A register value `v ∈ V`.
///
/// The paper measures data size as `D = log₂|V|` bits; we realize `V` as the
/// set of byte strings of a fixed length `D/8`, so a [`Value`] of `len`
/// bytes has `D = 8·len` bits. Values are cheaply cloneable (refcounted).
///
/// ```
/// use rsb_coding::Value;
/// let v = Value::from_bytes(vec![1, 2, 3, 4]);
/// assert_eq!(v.size_bits(), 32);
/// ```
///
/// Equality is by content, but two values sharing one buffer are equal
/// without reading it: a read that returns the very buffer a write stored
/// compares in O(1). Hashing and ordering read the content.
#[derive(Clone, Eq, PartialOrd, Ord)]
pub struct Value(Bytes);

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // `Arc::ptr_eq`'s shortcut does not reach through `Bytes` to the
        // unsized `[u8]`, so the same-buffer test is made here.
        let (a, b) = (self.as_bytes(), other.as_bytes());
        (a.as_ptr() == b.as_ptr() && a.len() == b.len()) || a == b
    }
}

impl Value {
    /// Creates a value from raw bytes.
    pub fn from_bytes(bytes: impl Into<Bytes>) -> Self {
        Value(bytes.into())
    }

    /// Creates a zero-filled value of `len` bytes — a convenient `v₀`.
    pub fn zeroed(len: usize) -> Self {
        Value(Bytes::from(vec![0u8; len]))
    }

    /// Creates a deterministic pseudo-random value of `len` bytes from a
    /// seed, for workloads and tests. Distinct seeds give distinct values
    /// (for `len ≥ 8` the seed is embedded verbatim in the prefix).
    pub fn seeded(seed: u64, len: usize) -> Self {
        let mut out = Vec::with_capacity(len);
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        for i in 0..len {
            if i < 8 {
                out.push((seed >> (8 * i)) as u8);
            } else {
                // SplitMix64 step.
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                out.push((z ^ (z >> 31)) as u8);
            }
        }
        Value(Bytes::from(out))
    }

    /// The value's shared buffer (cloning it is O(1)).
    pub(crate) fn buffer(&self) -> &Bytes {
        &self.0
    }

    /// The raw bytes of the value.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes (`D / 8`).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the value is empty (a degenerate zero-bit domain).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The paper's `D`: the size of the value in bits.
    pub fn size_bits(&self) -> u64 {
        8 * self.0.len() as u64
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Print a short fingerprint, not kilobytes of data.
        let prefix: Vec<u8> = self.0.iter().take(8).copied().collect();
        write!(f, "Value({} B, {:02x?}…)", self.0.len(), prefix)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::from_bytes(v)
    }
}

impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Self {
        Value::from_bytes(v.to_vec())
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_bits_is_eight_per_byte() {
        assert_eq!(Value::zeroed(128).size_bits(), 1024);
        assert_eq!(Value::from_bytes(vec![]).size_bits(), 0);
    }

    #[test]
    fn seeded_values_are_deterministic_and_distinct() {
        let a = Value::seeded(1, 64);
        let b = Value::seeded(1, 64);
        let c = Value::seeded(2, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn seeded_distinct_for_small_lengths() {
        // Seeds below 2^(8·len) embed verbatim, so they stay distinct.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..200u64 {
            assert!(seen.insert(Value::seeded(seed, 2)));
        }
    }

    #[test]
    fn equality_shortcuts_a_shared_buffer_and_compares_content_otherwise() {
        let v = Value::seeded(3, 64);
        let shared = v.clone();
        assert_eq!(shared.as_bytes().as_ptr(), v.as_bytes().as_ptr());
        assert_eq!(v, shared, "same buffer");
        let copy = Value::from(v.as_bytes());
        assert_ne!(copy.as_bytes().as_ptr(), v.as_bytes().as_ptr());
        assert_eq!(v, copy, "equal content in another buffer");
        assert_ne!(v, Value::seeded(4, 64), "same length, other content");
        assert_ne!(v, Value::seeded(3, 63), "other length");
        assert_ne!(Value::seeded(3, 63), v, "other length, either side");
    }

    #[test]
    fn debug_is_short() {
        let v = Value::zeroed(4096);
        let dbg = format!("{v:?}");
        assert!(dbg.len() < 100);
        assert!(dbg.contains("4096"));
    }

    #[test]
    fn conversions() {
        let v: Value = vec![1u8, 2, 3].into();
        assert_eq!(v.as_ref(), &[1, 2, 3]);
        let w: Value = (&[9u8, 9][..]).into();
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
    }
}
