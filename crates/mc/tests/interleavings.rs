//! Interleaving-harness tests: exhaustive (bounded-preemption)
//! exploration of the store's hand-rolled concurrency — the flight
//! recorder's seqlock and the TCP client's reader hand-over — running
//! on the `rsb-mcsync` virtual-thread shim
//! (the `mc` cargo feature swaps the real atomics/locks inside
//! `rsb-store` for modelled ones).

use rsb_mc::sync::{Condvar, Mutex};
use rsb_mc::{sched, thread as vthread};
use rsb_store::{FlightEventKind, FlightRecorder, NextReply, ReplyQueue, StoreError};
use std::sync::{Arc, Mutex as StdMutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

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
// ReplyQueue: whoever waits for a reply reads the connection.
// ---------------------------------------------------------------------------

/// The model's connection: the read half is the id of the last reply
/// read, and the server has already answered everything, in order —
/// reply `n` carries `10 n`. A read past the last request is filed under
/// no slot and kills the connection, so a caller that reads when it has
/// no business to fails the run too.
type Replies = ReplyQueue<u64, u64>;

fn answered(last: &mut u64, _deadline: Option<Instant>) -> NextReply<u64> {
    *last += 1;
    NextReply::Reply(*last, *last * 10)
}

fn two_requests() -> (Arc<Replies>, u64, u64) {
    let replies = Arc::new(ReplyQueue::new(0));
    let a = replies.push(1).expect("a live connection");
    let b = replies.push(1).expect("a live connection");
    (replies, a, b)
}

/// Two callers wait on one connection. Whichever finds nobody reading
/// reads; the other sleeps. On every interleaving both return with their
/// own reply: the reader, leaving with its reply, hands the role on. A
/// lost hand-over leaves the sleeper asleep with its request unanswered
/// and nobody reading — a deadlock, which the model reports.
#[test]
fn reply_queue_two_waiters_both_return() {
    let report = sched::model(&quick(3), || {
        let (replies, a, b) = two_requests();
        let other = {
            let replies = Arc::clone(&replies);
            vthread::spawn(move || replies.wait(b, None, answered, |r| *r))
        };
        assert_eq!(replies.wait(a, None, answered, |r| *r), Ok(10));
        assert_eq!(other.join().unwrap(), Ok(20));
        assert_eq!(replies.error(), None, "nobody read past the last request");
    })
    .expect("both waiters must return on every interleaving");
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules > 10, "got {}", report.schedules);
}

/// Three waiters: the role passes down the line. A leader that leaves
/// wakes *one* successor, not everybody, so each hand-over must pick a
/// caller that is really asleep with its request unanswered — one woken
/// in vain, or none, and somebody sleeps for ever.
#[test]
fn reply_queue_three_waiters_pass_the_role_down_the_line() {
    let report = sched::model(&quick(3), || {
        let (replies, a, b) = two_requests();
        let c = replies.push(1).expect("a live connection");
        let others: Vec<_> = [(b, 20), (c, 30)]
            .into_iter()
            .map(|(id, reply)| {
                let replies = Arc::clone(&replies);
                vthread::spawn(move || {
                    assert_eq!(replies.wait(id, None, answered, |r| *r), Ok(reply));
                })
            })
            .collect();
        assert_eq!(replies.wait(a, None, answered, |r| *r), Ok(10));
        for other in others {
            other.join().unwrap();
        }
        assert_eq!(replies.error(), None);
    })
    .expect("all three waiters must return on every interleaving");
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules > 100, "got {}", report.schedules);
}

/// A submitter over the window reads replies to make room and stops as
/// soon as there is some — with a waiter asleep whose reply has not come
/// yet. Stopping must hand the role on, or that waiter sleeps for ever.
#[test]
fn reply_queue_a_submitter_making_room_hands_the_role_on() {
    let report = sched::model(&quick(3), || {
        // The first request's ticket was dropped unwaited; only the
        // window makes anybody read its reply.
        let (replies, a, b) = two_requests();
        replies.abandon(a);
        let waiter = {
            let replies = Arc::clone(&replies);
            vthread::spawn(move || replies.wait(b, None, answered, |r| *r))
        };
        assert_eq!(replies.make_room(1, None, answered), Ok(()));
        assert_eq!(waiter.join().unwrap(), Ok(20));
        assert_eq!(replies.error(), None);
    })
    .expect("the waiter must return on every interleaving");
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules > 10, "got {}", report.schedules);
}

/// What a polled future leaves behind: a flag to raise, and a condvar so
/// the model's executor can park until it is.
#[derive(Default)]
struct Raised {
    flag: Mutex<bool>,
    raised: Condvar,
}

impl Wake for Raised {
    fn wake(self: Arc<Self>) {
        *self.flag.lock() = true;
        self.raised.notify_all();
    }
}

impl Raised {
    /// `block_on`'s park: until woken, consuming the wake.
    fn park(&self) {
        let mut flag = self.flag.lock();
        while !*flag {
            self.raised.wait(&mut flag);
        }
        *flag = false;
    }
}

/// A future polled while another caller reads leaves a waker and is
/// pending. That caller's reply comes first, so it leaves with the
/// future's reply still outstanding — and must wake the future, which
/// then reads for itself. A waker registered after the reader's
/// hand-over (a check of "somebody is reading" not made under the same
/// lock hold as the registration) is never woken: the executor parks for
/// good, and the model reports the deadlock.
#[test]
fn reply_queue_wakes_a_future_left_behind_by_the_reader() {
    let report = sched::model(&quick(3), || {
        let (replies, a, b) = two_requests();
        let reader = {
            let replies = Arc::clone(&replies);
            vthread::spawn(move || replies.wait(a, None, answered, |r| *r))
        };
        let raised = Arc::new(Raised::default());
        let waker = Waker::from(Arc::clone(&raised));
        let mut cx = Context::from_waker(&waker);
        let outcome = loop {
            match replies.poll(b, &mut cx, None, answered, |r| *r) {
                Poll::Ready(outcome) => break outcome,
                Poll::Pending => raised.park(),
            }
        };
        assert_eq!(outcome, Ok(20));
        assert_eq!(reader.join().unwrap(), Ok(10));
        assert_eq!(replies.error(), None);
    })
    .expect("the future must be woken on every interleaving");
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules > 10, "got {}", report.schedules);
}

/// The connection dies under the reader while another caller sleeps:
/// both fail with the connection's error — the sleeper is woken to find
/// it — and so does a later submission.
#[test]
fn reply_queue_death_fails_the_reader_and_the_sleeper() {
    let report = sched::model(&quick(3), || {
        let (replies, a, b) = two_requests();
        let gone = || StoreError::Io("gone".into());
        let broken = move |_: &mut u64, _: Option<Instant>| NextReply::<u64>::Dead(gone());
        let other = {
            let replies = Arc::clone(&replies);
            vthread::spawn(move || replies.wait(b, None, broken, |r| *r))
        };
        assert_eq!(replies.wait(a, None, broken, |r| *r), Err(gone()));
        assert_eq!(other.join().unwrap(), Err(gone()));
        assert_eq!(replies.push(1), Err(gone()));
    })
    .expect("a dead connection must fail every waiter");
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.schedules > 10, "got {}", report.schedules);
}
