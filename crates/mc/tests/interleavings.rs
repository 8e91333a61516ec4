//! Interleaving-harness tests: exhaustive (bounded-preemption)
//! exploration of the store's hand-rolled concurrency — the flight
//! recorder's seqlock and the governor rendezvous — running on the
//! `rsb-mcsync` virtual-thread shim (the `mc` cargo feature swaps the
//! real atomics/locks inside `rsb-store` for modelled ones).

use rsb_mc::sync::{Condvar, Mutex};
use rsb_mc::{sched, thread as vthread};
use rsb_store::{FlightEventKind, FlightRecorder, GovernorSignal};
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
                        let seq = rec.record(FlightEventKind::Compaction, Some(w as usize), detail);
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
// GovernorSignal: submitter nudge × governor park × halt.
// ---------------------------------------------------------------------------

/// What the model's governor pass does: publish how much of the
/// submitters' work it has seen, and wake whoever waits for that.
struct Sweeps {
    due: Mutex<u64>,
    swept: Mutex<u64>,
    progress: Condvar,
}

impl Sweeps {
    fn new() -> Arc<Self> {
        Arc::new(Sweeps {
            due: Mutex::new(0),
            swept: Mutex::new(0),
            progress: Condvar::new(),
        })
    }

    /// A submitter's due-check falling due, then its nudge.
    fn submit(&self, signal: &GovernorSignal) {
        *self.due.lock() += 1;
        signal.nudge();
    }

    fn pass(&self) {
        let due = *self.due.lock();
        *self.swept.lock() = due;
        self.progress.notify_all();
    }

    fn swept(&self) -> u64 {
        *self.swept.lock()
    }
}

fn spawn_governor(signal: &Arc<GovernorSignal>, sweeps: &Arc<Sweeps>) -> vthread::JoinHandle<()> {
    let (signal, sweeps) = (Arc::clone(signal), Arc::clone(sweeps));
    vthread::spawn(move || signal.run(None, || sweeps.pass()))
}

/// A pass that fell due is never lost: with no stop in sight, a nudge —
/// whether it lands before the governor first parks, while it is parked,
/// or while it is mid-pass — is followed by a pass that sees the
/// submitter's work. A lost nudge leaves the governor parked and the
/// root waiting on it: a deadlock, which the model reports.
#[test]
fn governor_nudge_is_never_lost() {
    let report = sched::model(&quick(3), || {
        let signal = Arc::new(GovernorSignal::default());
        let sweeps = Sweeps::new();
        let governor = spawn_governor(&signal, &sweeps);
        let submitter = {
            let (signal, sweeps) = (Arc::clone(&signal), Arc::clone(&sweeps));
            vthread::spawn(move || {
                sweeps.submit(&signal);
                sweeps.submit(&signal);
            })
        };
        {
            let mut swept = sweeps.swept.lock();
            while *swept < 2 {
                sweeps.progress.wait(&mut swept);
            }
        }
        submitter.join().unwrap();
        signal.request_stop();
        governor.join().unwrap();
    })
    .expect("every requested pass must run without a stop to force it");
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules > 10, "got {}", report.schedules);
}

/// A pass due at stop time still runs before the governor exits, and the
/// stop is always observed: the submitter's nudge races the governor's
/// start-up and park, `halt` follows it, and on every interleaving the
/// governor terminates having swept what was due — even when it is first
/// scheduled after the stop request.
#[test]
fn governor_pass_due_at_stop_time_still_runs() {
    let report = sched::model(&quick(3), || {
        let signal = Arc::new(GovernorSignal::default());
        let sweeps = Sweeps::new();
        let governor = spawn_governor(&signal, &sweeps);
        let submitter = {
            let (signal, sweeps) = (Arc::clone(&signal), Arc::clone(&sweeps));
            vthread::spawn(move || sweeps.submit(&signal))
        };
        submitter.join().unwrap();
        signal.request_stop();
        governor.join().unwrap();
        assert_eq!(sweeps.swept(), 1, "the pass due at stop time was skipped");
        assert!(signal.is_stopped());
    })
    .expect("stop must always be observed");
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules > 10, "got {}", report.schedules);
}

/// The same with the stop racing the submitter: whatever the order, the
/// governor exits (a missed stop would deadlock the join), and its last
/// pass starts after the stop flag is up.
#[test]
fn governor_observes_a_stop_racing_a_nudge() {
    let report = sched::model(&quick(3), || {
        let signal = Arc::new(GovernorSignal::default());
        let sweeps = Sweeps::new();
        let governor = spawn_governor(&signal, &sweeps);
        let submitter = {
            let (signal, sweeps) = (Arc::clone(&signal), Arc::clone(&sweeps));
            vthread::spawn(move || sweeps.submit(&signal))
        };
        signal.request_stop();
        governor.join().unwrap();
        submitter.join().unwrap();
    })
    .expect("stop must always be observed");
    assert!(report.complete, "schedule space must be exhausted");
}
