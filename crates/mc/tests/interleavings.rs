//! Interleaving-harness tests: exhaustive (bounded-preemption)
//! exploration of the store's lock-free hot structures, running on the
//! `rsb-mcsync` virtual-thread shim (the `mc` cargo feature swaps the
//! real atomics/locks inside `rsb-store`/`rsb-registers` for modelled
//! ones).

use rsb_mc::{sched, thread as vthread};
use rsb_registers::ReadyQueue;
use rsb_store::{FlightEventKind, FlightRecorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};

fn quick(preemption_bound: usize) -> sched::Config {
    sched::Config {
        preemption_bound,
        max_schedules: 300_000,
        max_steps: 50_000,
    }
}

// ---------------------------------------------------------------------------
// FlightRecorder: the claim → write-payload → publish seqlock.
// ---------------------------------------------------------------------------

/// Two writers record concurrently while the root thread dumps mid-race:
/// every dumped entry must be one of the exact payloads some `record`
/// call wrote — never a torn pairing — and the quiescent dump is gapless.
#[test]
fn recorder_claim_write_publish_never_tears() {
    let report = sched::model(&quick(3), || {
        let rec = Arc::new(FlightRecorder::new(4));
        let r1 = Arc::clone(&rec);
        let r2 = Arc::clone(&rec);
        let w1 = vthread::spawn(move || {
            r1.record(FlightEventKind::SubmitRead, Some(1), 11);
        });
        let w2 = vthread::spawn(move || {
            r2.record(FlightEventKind::SubmitWrite, Some(2), 22);
        });
        // Concurrent dump: whatever survives must be internally intact.
        for e in rec.dump() {
            let intact = match e.kind {
                FlightEventKind::SubmitRead => e.shard == Some(1) && e.detail == 11,
                FlightEventKind::SubmitWrite => e.shard == Some(2) && e.detail == 22,
                _ => false,
            };
            assert!(intact, "torn or foreign event escaped dump(): {e:?}");
        }
        w1.join().unwrap();
        w2.join().unwrap();
        // Quiescent dump: both events, gapless strictly-increasing seqs.
        let quiet = rec.dump();
        assert_eq!(quiet.len(), 2);
        let seqs: Vec<u64> = quiet.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1], "sequence numbers are dense");
        assert_eq!(rec.recorded(), 2);
    })
    .expect("seqlock must hold on every interleaving");
    assert!(report.complete, "schedule space must be exhausted");
    assert!(
        report.schedules > 10,
        "expected many distinct interleavings, got {}",
        report.schedules
    );
}

/// Ring wrap-around: two writers share both slots of a capacity-2 ring.
/// `record` returns the claimed sequence number, which pins every dumped
/// payload to the exact call that claimed it — a dump may *skip* an
/// entry caught mid-overwrite, but may never mix one call's sequence
/// with another call's payload.
#[test]
fn recorder_wraparound_skips_but_never_mixes() {
    let report = sched::model(&quick(3), || {
        let rec = Arc::new(FlightRecorder::new(2));
        let log = Arc::new(StdMutex::new(Vec::<(u64, u64)>::new()));
        let handles: Vec<_> = (0..2u64)
            .map(|w| {
                let rec = Arc::clone(&rec);
                let log = Arc::clone(&log);
                vthread::spawn(move || {
                    for k in 0..2u64 {
                        let detail = 10 * (w + 1) + k;
                        let seq = rec.record(FlightEventKind::Steal, Some(w as usize), detail);
                        log.lock().unwrap().push((seq, detail));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 4);
        assert_eq!(rec.recorded(), 4);
        let mut last_seq = None;
        for e in rec.dump() {
            assert!(
                log.contains(&(e.seq, e.detail)),
                "dump mixed sequence {} with payload {} (never recorded together)",
                e.seq,
                e.detail
            );
            assert!(last_seq < Some(e.seq), "dump must be strictly increasing");
            last_seq = Some(e.seq);
        }
    })
    .expect("wrap-around seqlock must hold on every interleaving");
    assert!(report.complete);
}

// ---------------------------------------------------------------------------
// ReadyQueue: claim / pop / pop_half ownership and the dirty-requeue
// protocol.
// ---------------------------------------------------------------------------

/// A home driver drains with `pop` while a thief grabs `pop_half`: at
/// quiescence every slot ran exactly once — nothing lost, nothing run
/// twice, no slot owned by two drivers.
#[test]
fn ready_queue_steal_half_conserves_work() {
    let report = sched::model(&quick(3), || {
        let q = Arc::new(ReadyQueue::new());
        for _ in 0..4 {
            let s = q.register_slot();
            q.enqueue(s);
        }
        let qa = Arc::clone(&q);
        let ran_a = Arc::new(StdMutex::new(Vec::new()));
        let ra = Arc::clone(&ran_a);
        let home = vthread::spawn(move || {
            while let Some(s) = qa.pop() {
                ra.lock().unwrap().push(s);
                qa.finish(s, false);
            }
        });
        let qb = Arc::clone(&q);
        let ran_b = Arc::new(StdMutex::new(Vec::new()));
        let rb = Arc::clone(&ran_b);
        let thief = vthread::spawn(move || {
            let batch = qb.pop_half();
            assert!(batch.len() <= 2, "a thief takes at most half");
            for &s in &batch {
                rb.lock().unwrap().push(s);
                qb.finish(s, false);
            }
        });
        home.join().unwrap();
        thief.join().unwrap();
        let mut all: Vec<usize> = ran_a.lock().unwrap().clone();
        all.extend(ran_b.lock().unwrap().iter().copied());
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3], "each slot runs exactly once");
        assert!(q.is_empty());
    })
    .expect("work conservation must hold on every interleaving");
    assert!(report.complete);
    assert!(report.schedules > 10);
}

/// An enqueue racing a running slot must never be lost: `Running` flips
/// to `RunningDirty` and `finish` re-enqueues. Across the explored
/// schedules both resolutions of the race (enqueue lands before the pop,
/// or during the run) must actually occur.
#[test]
fn ready_queue_dirty_requeue_never_loses_a_wakeup() {
    let once = Arc::new(AtomicU64::new(0));
    let twice = Arc::new(AtomicU64::new(0));
    let once_in = Arc::clone(&once);
    let twice_in = Arc::clone(&twice);
    let report = sched::model(&quick(3), move || {
        let q = Arc::new(ReadyQueue::new());
        let slot = q.register_slot();
        q.enqueue(slot);
        let qw = Arc::clone(&q);
        let runs = Arc::new(StdMutex::new(0u32));
        let runs_w = Arc::clone(&runs);
        let worker = vthread::spawn(move || {
            while let Some(s) = qw.pop() {
                *runs_w.lock().unwrap() += 1;
                qw.finish(s, false);
            }
        });
        // Races the worker's pop/run/finish window.
        q.enqueue(slot);
        worker.join().unwrap();
        // The slot may still be queued if the re-enqueue landed after the
        // worker saw an empty queue; a late driver pass must drain it.
        while let Some(s) = q.pop() {
            *runs.lock().unwrap() += 1;
            q.finish(s, false);
        }
        let runs = *runs.lock().unwrap();
        assert!(
            runs == 1 || runs == 2,
            "slot must run once (coalesced) or twice (dirty), ran {runs}"
        );
        assert!(q.is_empty());
        match runs {
            // audit:allow(atomics-relaxed) — outcome tally read after the
            // model run completes; the DPOR harness serializes the rest.
            1 => once_in.fetch_add(1, Ordering::Relaxed),
            // audit:allow(atomics-relaxed) — outcome tally read after the
            // model run completes; the DPOR harness serializes the rest.
            _ => twice_in.fetch_add(1, Ordering::Relaxed),
        };
    })
    .expect("wakeups must never be lost");
    assert!(report.complete);
    assert!(
        // audit:allow(atomics-relaxed) — outcome tally read after the
        // model run completes; the DPOR harness serializes the rest.
        once.load(Ordering::Relaxed) > 0 && twice.load(Ordering::Relaxed) > 0,
        "both race resolutions must be exercised (coalesced {}, dirty {})",
        // audit:allow(atomics-relaxed) — outcome tally read after the
        // model run completes; the DPOR harness serializes the rest.
        once.load(Ordering::Relaxed),
        // audit:allow(atomics-relaxed) — outcome tally read after the
        // model run completes; the DPOR harness serializes the rest.
        twice.load(Ordering::Relaxed)
    );
}

/// Run-to-completion submitters against the pool: two submitters each
/// add work to both slots and `claim` them (running a slot they get,
/// dirtying one that is owned — the enqueue-while-running transition),
/// while a home driver `pop`s and a thief `pop_half`s whatever the
/// finishing owners re-queued. On every interleaving a slot is never run
/// by two threads at once, and no work is stranded: each submission is
/// followed by a run of its slot — by its submitter, or out of the queue
/// its owner's `finish` put it back on (which is why that `finish` must
/// wake a driver; the late pass below stands in for the woken one).
#[test]
fn ready_queue_claim_never_strands_work_or_shares_a_slot() {
    /// One key's bookkeeping, touched only between the queue's (modelled)
    /// lock operations — the only scheduling points.
    #[derive(Default)]
    struct Tally {
        pending: u32,
        done: u32,
        running: bool,
    }
    type Keys = Vec<(usize, StdMutex<Tally>)>;
    fn run(q: &ReadyQueue, keys: &Keys, slot: usize) {
        let mut t = keys[slot].1.lock().unwrap();
        assert!(!t.running, "slot {slot} owned twice");
        t.running = true;
        t.done += std::mem::take(&mut t.pending);
        t.running = false;
        drop(t);
        q.finish(slot, false);
    }
    let report = sched::model(&quick(2), || {
        let q = Arc::new(ReadyQueue::new());
        let keys: Arc<Keys> = Arc::new(
            (0..2)
                .map(|_| (q.register_slot(), StdMutex::default()))
                .collect(),
        );
        let submitters: Vec<_> = (0..2usize)
            .map(|t| {
                let (q, keys) = (Arc::clone(&q), Arc::clone(&keys));
                vthread::spawn(move || {
                    for k in 0..2 {
                        let (slot, tally) = &keys[(k + t) % 2];
                        tally.lock().unwrap().pending += 1;
                        if q.claim(*slot) {
                            run(&q, &keys, *slot);
                        }
                    }
                })
            })
            .collect();
        let pool = {
            let (q, keys) = (Arc::clone(&q), Arc::clone(&keys));
            vthread::spawn(move || {
                // A thief's batch, then a home driver's drain.
                for s in q.pop_half() {
                    run(&q, &keys, s);
                }
                while let Some(s) = q.pop() {
                    run(&q, &keys, s);
                }
            })
        };
        for h in submitters {
            h.join().unwrap();
        }
        pool.join().unwrap();
        // Slots re-queued after the drivers looked: a late driver pass.
        while let Some(s) = q.pop() {
            run(&q, &keys, s);
        }
        for (slot, tally) in keys.iter() {
            assert_eq!(tally.lock().unwrap().done, 2, "stranded work");
            assert!(q.claim(*slot), "slot {slot} left owned");
            assert!(!q.finish(*slot, false));
        }
        assert!(q.is_empty());
    })
    .expect("claim/finish must conserve work on every interleaving");
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules > 100, "got {}", report.schedules);
}
