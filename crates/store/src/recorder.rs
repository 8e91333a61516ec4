//! Flight recorder: a lock-free, fixed-capacity ring of structured
//! events, cheap enough to leave on in production.
//!
//! Every noteworthy store event (submit, evict, compaction, wire decode error, connection open/close, rejection) is
//! stamped with a monotonically-increasing sequence number and packed
//! into one atomic word; when the ring wraps, the oldest events are
//! overwritten. [`FlightRecorder::dump`] snapshots the surviving window
//! without stopping writers — the post-incident "what just happened"
//! view that per-shard counters cannot give.

use crate::mcsync::{AtomicU64, Ordering};

/// Widest detail payload an event word can carry (40 bits); larger
/// values are clamped on record.
const DETAIL_BITS: u32 = 40;
const DETAIL_MASK: u64 = (1 << DETAIL_BITS) - 1;
/// Shard field sentinel for store-wide events (connection churn, wire
/// decode errors) that have no home shard.
const NO_SHARD: u64 = u16::MAX as u64;
/// Per-slot sequence-word sentinel: a writer owns the slot and its
/// payload is mid-write. Unreachable as a published value (`seq + 1`)
/// until 2⁶⁴−1 events have been recorded.
const CLAIMED: u64 = u64::MAX;

/// What happened, for one recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A read was accepted by the submit path.
    SubmitRead,
    /// A write was accepted by the submit path; detail is the payload
    /// length in bytes.
    SubmitWrite,
    /// A quiescent key was rested in place by
    /// [`Store::evict_quiescent`](crate::Store::evict_quiescent); detail
    /// is its object bits at rest.
    Evict,
    /// History compaction dropped records; detail is how many.
    Compaction,
    /// A connection's frame stream failed to decode; the connection was
    /// closed.
    DecodeError,
    /// A TCP connection completed its handshake.
    ConnOpen,
    /// A TCP connection closed (cleanly or not).
    ConnClose,
    /// A submission was rejected (simulation refusal or server at
    /// connection capacity).
    Rejected,
}

impl FlightEventKind {
    fn from_code(code: u8) -> Option<FlightEventKind> {
        Some(match code {
            0 => FlightEventKind::SubmitRead,
            1 => FlightEventKind::SubmitWrite,
            2 => FlightEventKind::Evict,
            3 => FlightEventKind::Compaction,
            4 => FlightEventKind::DecodeError,
            5 => FlightEventKind::ConnOpen,
            6 => FlightEventKind::ConnClose,
            7 => FlightEventKind::Rejected,
            _ => return None,
        })
    }

    fn code(self) -> u8 {
        match self {
            FlightEventKind::SubmitRead => 0,
            FlightEventKind::SubmitWrite => 1,
            FlightEventKind::Evict => 2,
            FlightEventKind::Compaction => 3,
            FlightEventKind::DecodeError => 4,
            FlightEventKind::ConnOpen => 5,
            FlightEventKind::ConnClose => 6,
            FlightEventKind::Rejected => 7,
        }
    }

    /// Short fixed label for dump tables.
    pub fn label(self) -> &'static str {
        match self {
            FlightEventKind::SubmitRead => "submit-read",
            FlightEventKind::SubmitWrite => "submit-write",
            FlightEventKind::Evict => "evict",
            FlightEventKind::Compaction => "compaction",
            FlightEventKind::DecodeError => "decode-error",
            FlightEventKind::ConnOpen => "conn-open",
            FlightEventKind::ConnClose => "conn-close",
            FlightEventKind::Rejected => "rejected",
        }
    }
}

/// One recovered ring entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number, assigned at record time. A dump's
    /// sequence numbers are gapless over the surviving window except for
    /// events dropped under same-slot write contention.
    pub seq: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// Home shard of the event, or `None` for store-wide events
    /// (connection churn, decode errors, capacity rejections).
    pub shard: Option<usize>,
    /// Kind-specific payload (bytes, bits, dropped records, victim
    /// shard), clamped to 40 bits.
    pub detail: u64,
}

/// Fixed-capacity, overwrite-oldest ring of [`FlightEvent`]s.
///
/// Recording is one relaxed fetch-add, one acquire/release swap, and
/// two release stores — no locks, no allocation — so it stays on in
/// production and inside benches. A slot is claimed (sequence word
/// swapped to the `CLAIMED` sentinel), its payload written, then published
/// (sequence word set); [`Self::dump`] re-reads the sequence word
/// around the payload and drops entries it caught mid-write, so a torn
/// or misattributed pair is never returned. A writer whose swap finds
/// the slot already claimed drops its event instead of racing the
/// owner. Under extreme same-slot contention a dump may therefore miss
/// an event — the recorder trades that sliver of completeness for a
/// wait-free hot path.
#[derive(Debug)]
pub struct FlightRecorder {
    head: AtomicU64,
    /// Per-slot published sequence number plus one; 0 means "never
    /// written", [`CLAIMED`] means a writer owns the slot.
    seqs: Vec<AtomicU64>,
    /// Per-slot packed payload: kind (8 bits) | shard (16 bits,
    /// `NO_SHARD` sentinel) | detail (40 bits).
    words: Vec<AtomicU64>,
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` most-recent events
    /// (`capacity` ≥ 1; enforced by config validation upstream, clamped
    /// here for safety). Public so the model-checking harness in
    /// `crates/mc` can drive a standalone ring.
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder {
            head: AtomicU64::new(0),
            seqs: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            words: (0..cap).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.seqs.len()
    }

    /// Total events ever recorded (not just the surviving window).
    pub fn recorded(&self) -> u64 {
        // Relaxed: a monitoring total. Any reader that observed an event via
        // `dump`'s acquire loads already happens-after that event's
        // `fetch_add`, so even a relaxed load here returns a count covering it;
        // nothing else pairs with head.
        self.head.load(Ordering::Relaxed)
    }

    /// Records one event; the hot-path entry point. Returns the event's
    /// sequence number (callers on the hot path ignore it; the
    /// model-checking harness uses it to pin dumped payloads to the
    /// exact `record` call that claimed each sequence).
    ///
    /// The slot claim is a `swap`, not a plain store: two writers can
    /// race for one ring slot once the sequence space wraps, and with a
    /// store-claim a delayed writer could publish its sequence number
    /// over the other writer's payload — a mixed pair `dump` cannot
    /// detect (found by the `crates/mc` interleaving harness). The loser
    /// of the swap drops its event instead: under same-slot contention
    /// the ring may miss an event, but never misattributes one.
    pub fn record(&self, kind: FlightEventKind, shard: Option<usize>, detail: u64) -> u64 {
        // Relaxed: sequence allocation only: the RMW is atomic regardless of
        // ordering, and payload publication is ordered by the per-slot release
        // stores below, not by head.
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (seq % self.seqs.len() as u64) as usize;
        let shard_field = match shard {
            Some(s) => (s as u64).min(NO_SHARD - 1),
            None => NO_SHARD,
        };
        let word =
            (u64::from(kind.code()) << 56) | (shard_field << DETAIL_BITS) | (detail & DETAIL_MASK);
        // Claim, write payload, publish — dump() rejects the slot while
        // the sequence word is zero/claimed or changes across its
        // payload read.
        if self.seqs[idx].swap(CLAIMED, Ordering::AcqRel) == CLAIMED {
            // Another writer owns this slot mid-write; writing anyway
            // could pair its sequence number with our payload.
            return seq;
        }
        self.words[idx].store(word, Ordering::Release);
        self.seqs[idx].store(seq + 1, Ordering::Release);
        seq
    }

    /// Snapshots the surviving window, oldest first, without stopping
    /// writers. Entries caught mid-overwrite are skipped; the returned
    /// sequence numbers are strictly increasing.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let mut events = Vec::with_capacity(self.seqs.len());
        for idx in 0..self.seqs.len() {
            let before = self.seqs[idx].load(Ordering::Acquire);
            if before == 0 || before == CLAIMED {
                continue;
            }
            let word = self.words[idx].load(Ordering::Acquire);
            let after = self.seqs[idx].load(Ordering::Acquire);
            if before != after {
                continue; // torn: a writer republished mid-read
            }
            let code = (word >> 56) as u8;
            let Some(kind) = FlightEventKind::from_code(code) else {
                continue;
            };
            let shard_field = (word >> DETAIL_BITS) & NO_SHARD;
            events.push(FlightEvent {
                seq: before - 1,
                kind,
                shard: (shard_field != NO_SHARD).then_some(shard_field as usize),
                detail: word & DETAIL_MASK,
            });
        }
        events.sort_unstable_by_key(|e| e.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_is_gapless_and_ordered_before_wrap() {
        let r = FlightRecorder::new(64);
        for i in 0..40u64 {
            r.record(FlightEventKind::SubmitRead, Some(3), i);
        }
        let dump = r.dump();
        assert_eq!(dump.len(), 40);
        for (i, e) in dump.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.kind, FlightEventKind::SubmitRead);
            assert_eq!(e.shard, Some(3));
            assert_eq!(e.detail, i as u64);
        }
        assert_eq!(r.recorded(), 40);
    }

    #[test]
    fn ring_overwrites_oldest_and_stays_gapless() {
        let r = FlightRecorder::new(8);
        for i in 0..27u64 {
            r.record(FlightEventKind::SubmitWrite, Some(0), i);
        }
        let dump = r.dump();
        assert_eq!(dump.len(), 8, "window is the ring capacity");
        let seqs: Vec<u64> = dump.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (19..27).collect::<Vec<u64>>());
        assert_eq!(r.recorded(), 27);
    }

    #[test]
    fn store_wide_events_have_no_shard_and_details_clamp() {
        let r = FlightRecorder::new(4);
        r.record(FlightEventKind::ConnOpen, None, 0);
        r.record(FlightEventKind::Compaction, Some(1), u64::MAX);
        let dump = r.dump();
        assert_eq!(dump[0].shard, None);
        assert_eq!(dump[0].kind, FlightEventKind::ConnOpen);
        assert_eq!(dump[1].detail, DETAIL_MASK, "detail clamps to 40 bits");
        assert_eq!(dump[1].shard, Some(1));
    }

    #[test]
    fn kind_codes_round_trip() {
        for code in 0..=7u8 {
            let kind = FlightEventKind::from_code(code).expect("known code");
            assert_eq!(kind.code(), code);
            assert!(!kind.label().is_empty());
        }
        assert_eq!(FlightEventKind::from_code(8), None);
    }

    #[test]
    fn concurrent_recording_never_tears() {
        let r = std::sync::Arc::new(FlightRecorder::new(32));
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for i in 0..2000u64 {
                        r.record(FlightEventKind::Compaction, Some(t), i);
                        if i % 64 == 0 {
                            // Dumps interleave with writers; every entry
                            // returned must be internally consistent.
                            for e in r.dump() {
                                assert_eq!(e.kind, FlightEventKind::Compaction);
                                assert!(e.shard.is_some_and(|s| s < 4));
                                assert!(e.detail < 2000);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 8000);
        let final_dump = r.dump();
        assert!(final_dump.len() <= 32);
        let seqs: Vec<u64> = final_dump.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seqs, sorted, "strictly increasing sequence numbers");
    }
}
