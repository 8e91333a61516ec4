//! The checker checking itself: known-good patterns must survive every
//! schedule; known-bad patterns must be caught with a deterministic,
//! replayable counterexample.

use rsb_mcsync::{sched, sync, thread};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn quick() -> sched::Config {
    sched::Config {
        preemption_bound: 3,
        max_schedules: 100_000,
        max_steps: 10_000,
    }
}

#[test]
fn atomic_fetch_add_is_race_free() {
    let report = sched::model(&quick(), || {
        let c = Arc::new(sync::AtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            // Relaxed: modelled access: the checker serializes every step; the
            // race (or its absence) is the test.
            c2.fetch_add(1, Ordering::Relaxed);
        });
        // Relaxed: modelled access: the checker serializes every step; the race
        // (or its absence) is the test.
        c.fetch_add(1, Ordering::Relaxed);
        t.join().unwrap();
        // Relaxed: modelled access: the checker serializes every step; the race
        // (or its absence) is the test.
        assert_eq!(c.load(Ordering::Relaxed), 2);
    })
    .expect("fetch_add must be safe under every interleaving");
    assert!(report.complete, "space must be exhausted");
    assert!(report.schedules > 1, "must explore more than one schedule");
}

#[test]
fn load_store_increment_loses_updates_and_replays() {
    // The classic lost update: read-modify-write split into a load and a
    // store. The model must find the interleaving where both threads
    // load 0, and the counterexample must replay deterministically.
    let body = || {
        let c = Arc::new(sync::AtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            // Relaxed: modelled access: the checker serializes every step; the
            // race (or its absence) is the test.
            let v = c2.load(Ordering::Relaxed);
            // Relaxed: modelled access: the checker serializes every step; the
            // race (or its absence) is the test.
            c2.store(v + 1, Ordering::Relaxed);
        });
        // Relaxed: modelled access: the checker serializes every step; the race
        // (or its absence) is the test.
        let v = c.load(Ordering::Relaxed);
        // Relaxed: modelled access: the checker serializes every step; the race
        // (or its absence) is the test.
        c.store(v + 1, Ordering::Relaxed);
        t.join().unwrap();
        // Relaxed: modelled access: the checker serializes every step; the race
        // (or its absence) is the test.
        assert_eq!(c.load(Ordering::Relaxed), 2, "lost update");
    };
    let err = sched::model(&quick(), body).expect_err("model must find the lost update");
    assert!(err.message.contains("lost update"), "got: {}", err.message);
    let replayed = sched::replay(&err.decisions, 10_000, body)
        .expect("replaying the counterexample must fail again");
    assert!(replayed.contains("lost update"), "got: {replayed}");

    // Determinism across runs: a second exploration finds the same
    // counterexample schedule.
    let err2 = sched::model(&quick(), body).expect_err("second run must fail too");
    assert_eq!(err.decisions, err2.decisions);
    assert_eq!(err.schedules_before, err2.schedules_before);
}

#[test]
fn mutexed_increment_is_race_free() {
    let report = sched::model(&quick(), || {
        let c = Arc::new(sync::Mutex::new(0u64));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            let mut g = c2.lock();
            let v = *g;
            *g = v + 1;
        });
        {
            let mut g = c.lock();
            let v = *g;
            *g = v + 1;
        }
        t.join().unwrap();
        assert_eq!(*c.lock(), 2);
    })
    .expect("mutexed RMW must be safe under every interleaving");
    assert!(report.complete);
}

#[test]
fn inverted_lock_pair_deadlocks() {
    let err = sched::model(&quick(), || {
        let a = Arc::new(sync::Mutex::new(()));
        let b = Arc::new(sync::Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock();
            let _gb = b2.lock();
        });
        let gb = b.lock();
        let ga = a.lock();
        drop((gb, ga));
        t.join().unwrap();
    })
    .expect_err("ABBA locking must deadlock in some schedule");
    assert!(err.message.contains("deadlock"), "got: {}", err.message);
}

#[test]
fn condvar_handoff_has_no_lost_wakeup() {
    // Proper monitor usage: the predicate is checked under the lock, so
    // notify-before-wait cannot strand the waiter in any schedule.
    let report = sched::model(&quick(), || {
        let pair = Arc::new((sync::Mutex::new(false), sync::Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cv) = &*p2;
            *lock.lock() = true;
            cv.notify_one();
        });
        let (lock, cv) = &*pair;
        {
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        }
        t.join().unwrap();
    })
    .expect("guarded condvar wait must never hang");
    assert!(report.complete);
}

#[test]
fn condvar_unguarded_wait_is_caught_as_deadlock() {
    // Broken monitor usage: waiting without re-checking the flag misses
    // the notify that fired before the wait began.
    let err = sched::model(&quick(), || {
        let pair = Arc::new((sync::Mutex::new(()), sync::Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            p2.1.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut g = lock.lock();
        cv.wait(&mut g);
        drop(g);
        t.join().unwrap();
    })
    .expect_err("unguarded wait must deadlock in the notify-first schedule");
    assert!(err.message.contains("deadlock"), "got: {}", err.message);
}

#[test]
fn preemption_bound_scales_coverage() {
    let count = |bound: usize| {
        let cfg = sched::Config {
            preemption_bound: bound,
            max_schedules: 100_000,
            max_steps: 10_000,
        };
        let report = sched::model(&cfg, || {
            let c = Arc::new(sync::AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = thread::spawn(move || {
                for _ in 0..3 {
                    // Relaxed: modelled access: the checker serializes every
                    // step; the race (or its absence) is the test.
                    c2.fetch_add(1, Ordering::Relaxed);
                }
            });
            for _ in 0..3 {
                // Relaxed: modelled access: the checker serializes every step;
                // the race (or its absence) is the test.
                c.fetch_add(1, Ordering::Relaxed);
            }
            t.join().unwrap();
            // Relaxed: modelled access: the checker serializes every step; the
            // race (or its absence) is the test.
            assert_eq!(c.load(Ordering::Relaxed), 6);
        })
        .expect("race-free");
        assert!(report.complete);
        report.schedules
    };
    let (s0, s1, s2) = (count(0), count(1), count(2));
    assert!(
        s0 < s1 && s1 < s2,
        "coverage must grow with the bound: {s0} {s1} {s2}"
    );
}

#[test]
fn passthrough_outside_model_is_transparent() {
    // No controller: the wrappers behave exactly like std/parking_lot.
    let c = sync::AtomicU64::new(41);
    // Relaxed: modelled access: the checker serializes every step; the race (or
    // its absence) is the test.
    assert_eq!(c.fetch_add(1, Ordering::Relaxed), 41);
    // Relaxed: modelled access: the checker serializes every step; the race (or
    // its absence) is the test.
    assert_eq!(c.load(Ordering::Relaxed), 42);
    let m = sync::Mutex::new(7);
    *m.lock() += 1;
    assert_eq!(*m.lock(), 8);
    let t = thread::spawn(|| 5u32);
    assert_eq!(t.join().unwrap(), 5);
}
