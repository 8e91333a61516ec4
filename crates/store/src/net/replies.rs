//! Who reads a shared connection: whichever caller needs a reply and
//! finds nobody reading.
//!
//! The server answers a connection's requests in the order it received
//! them, so the replies still owed are a queue, not a table: a request
//! appends a slot as it is written, a reply fills the oldest unanswered
//! slot. [`ReplyQueue`] holds that queue and the connection's read half
//! under one mutex. A caller after a reply looks under the lock:
//!
//! * its reply is there — take it;
//! * nobody is reading — take the read half *out of* the state (that is
//!   what "reading" means: the state has no source) and lead: read reply
//!   after reply with the lock released, file each under its request and
//!   wake that request's waiters, until its own is in; then put the read
//!   half back and hand the role on;
//! * somebody is reading — sleep, or leave a waker.
//!
//! **The hand-over.** Whoever puts the read half back — it got its
//! reply, its deadline passed, it only wanted room in the window, it
//! polled and read one reply — wakes one sleeper whose request is still
//! unanswered, and every waker, so that waiters are never left with
//! nobody reading; a sleeper whose deadline passes does the same if it
//! finds the read half idle, since it may be the very successor the last
//! leader chose. Sleepers are spread over a few
//! condvars by request id, so a reply wakes its own waiters and a
//! hand-over one successor, not the crowd. With a single user per
//! connection nobody ever sleeps and no condvar is touched.
//!
//! The type is generic over the read half `R` and the reply `T` and is
//! handed "read the next reply" as a closure, so the socket stays outside
//! it and `crates/mc/tests/interleavings.rs` can exhaust its
//! interleavings on the real code (`mc` feature).

use crate::mcsync::{Condvar, Mutex, MutexGuard};
use crate::store::StoreError;
use rsb_registers::lockorder::{ranks, tracked_lock, Tracked};
use std::collections::VecDeque;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// What one attempt to read the next reply came back with.
#[derive(Debug)]
pub enum NextReply<T> {
    /// A reply, and the id of the request it says it answers.
    Reply(u64, T),
    /// The reader's deadline passed with the stream idle between two
    /// replies; the stream is intact.
    Quiet,
    /// The connection is finished, for this reason.
    Dead(StoreError),
}

/// How many condvars a queue's sleepers are spread over. Threads that
/// share a connection hold nearby request ids, so up to this many of
/// them sleep apart and a reply wakes one thread.
const LANES: usize = 16;

/// One request's place in the queue.
#[derive(Debug)]
struct Slot<T> {
    /// The reply, once filed — unless every part was given up first.
    reply: Option<T>,
    /// Parts (one per operation of a batch) neither taken nor given up.
    takers: u32,
    /// Callers asleep until this request is answered.
    sleepers: u32,
}

#[derive(Debug)]
struct Inner<R, T> {
    /// The request id of `slots[0]`. Ids count up from 1 in the order
    /// requests are written (0 is the wire's connection-level id).
    first: u64,
    slots: VecDeque<Slot<T>>,
    /// How many of the front slots have been answered; the oldest
    /// unanswered request is `slots[answered]`.
    answered: usize,
    /// The read half; `None` while a caller reads from it.
    source: Option<R>,
    /// Callers asleep, over all slots: a connection nobody sleeps on never
    /// looks for a successor, nor pays for a notify (a system call on
    /// `std`'s condvar).
    sleepers: usize,
    /// Futures to poll again when a reply is filed or the role is free.
    wakers: Vec<Waker>,
    /// The connection's terminal error, once it has one.
    dead: Option<StoreError>,
}

impl<R, T> Inner<R, T> {
    fn slot_mut(&mut self, id: u64) -> Option<(usize, &mut Slot<T>)> {
        let index = usize::try_from(id.checked_sub(self.first)?).ok()?;
        Some((index, self.slots.get_mut(index)?))
    }

    /// The oldest unanswered request's id (the next id, if there is none).
    fn oldest_unanswered(&self) -> u64 {
        self.first + self.answered as u64
    }

    /// One part of request `id` is done with its slot.
    fn release(&mut self, id: u64) {
        if let Some((_, slot)) = self.slot_mut(id) {
            slot.takers = slot.takers.saturating_sub(1);
            if slot.takers == 0 {
                slot.reply = None;
            }
        }
        self.retire();
    }

    /// Answered slots nobody needs any more leave the front of the queue.
    fn retire(&mut self) {
        while self.answered > 0 && self.slots.front().is_some_and(|s| s.takers == 0) {
            self.slots.pop_front();
            self.first += 1;
            self.answered -= 1;
        }
    }

    /// The outcome of one part of request `id`, if it is decided: what
    /// `take` makes of the reply, or the connection's error. A decided
    /// part is released.
    fn claim<O>(
        &mut self,
        id: u64,
        take: &mut impl FnMut(&mut T) -> O,
    ) -> Option<Result<O, StoreError>> {
        let answered = self.answered;
        let outcome = match self.slot_mut(id) {
            Some((index, slot)) if index < answered => match slot.reply.as_mut() {
                Some(reply) => Ok(take(reply)),
                None => Err(StoreError::Io("reply already taken".into())),
            },
            Some(_) => Err(self.dead.clone()?),
            None => Err(StoreError::Io("no such request in flight".into())),
        };
        self.release(id);
        Some(outcome)
    }

    /// Files a reply under the oldest unanswered request; tells whether
    /// anybody sleeps on it.
    fn file(&mut self, id: u64, reply: T) -> Result<bool, StoreError> {
        let oldest = self.oldest_unanswered();
        let Some(slot) = self.slots.get_mut(self.answered) else {
            return Err(StoreError::Decode(format!(
                "reply to request {id} with no request unanswered"
            )));
        };
        if id != oldest {
            return Err(StoreError::Decode(format!(
                "reply to request {id} while request {oldest} is the oldest unanswered"
            )));
        }
        if slot.takers > 0 {
            slot.reply = Some(reply);
        }
        let slept_on = slot.sleepers > 0;
        self.answered += 1;
        // An abandoned request's slot goes as its late reply lands.
        self.retire();
        Ok(slept_on)
    }

    fn kill(&mut self, err: StoreError) {
        self.dead.get_or_insert(err);
    }
}

/// The replies a connection still owes its callers, and whose turn it is
/// to read them.
#[derive(Debug)]
pub struct ReplyQueue<R, T> {
    replies: Mutex<Inner<R, T>>,
    /// Where callers sleep until a request is answered: request `id`'s on
    /// `lanes[id % LANES]`.
    lanes: [Condvar; LANES],
}

type Guard<'a, R, T> = Tracked<MutexGuard<'a, Inner<R, T>>>;

impl<R, T> ReplyQueue<R, T> {
    /// An empty queue over the read half `source`.
    pub fn new(source: R) -> Self {
        ReplyQueue {
            replies: Mutex::new(Inner {
                first: 1,
                slots: VecDeque::new(),
                answered: 0,
                source: Some(source),
                sleepers: 0,
                wakers: Vec::new(),
                dead: None,
            }),
            lanes: std::array::from_fn(|_| Condvar::new()),
        }
    }

    fn lock(&self) -> Guard<'_, R, T> {
        tracked_lock(ranks::NET_STATE, "net_state", || self.replies.lock())
    }

    fn lane(&self, id: u64) -> &Condvar {
        &self.lanes[(id % LANES as u64) as usize]
    }

    /// Wakes `wakers` with the lock released.
    fn unlock_and_wake(st: Guard<'_, R, T>, wakers: Vec<Waker>) {
        drop(st);
        wakers.into_iter().for_each(Waker::wake);
    }

    /// Appends the slot of a request about to be written, `parts`
    /// operations wide, and returns the id to send it under. Call it
    /// with the write half held, so slots are queued in wire order.
    ///
    /// # Errors
    ///
    /// The connection's terminal error, if it has died.
    pub fn push(&self, parts: u32) -> Result<u64, StoreError> {
        let mut st = self.lock();
        if let Some(err) = &st.dead {
            return Err(err.clone());
        }
        st.slots.push_back(Slot {
            reply: None,
            takers: parts,
            sleepers: 0,
        });
        Ok(st.first + st.slots.len() as u64 - 1)
    }

    /// The connection's terminal error, if it has died.
    pub fn error(&self) -> Option<StoreError> {
        self.lock().dead.clone()
    }

    /// Declares the connection dead (the first error stands): requests
    /// still unanswered fail with `err`, and so does every later `push`.
    pub fn fail_all(&self, err: StoreError) {
        let mut st = self.lock();
        st.kill(err);
        let wakers = self.hand_over(&mut st);
        Self::unlock_and_wake(st, wakers);
    }

    /// Gives up one part of request `id` without its reply (a dropped
    /// ticket, a deadline): the reply is discarded when it lands.
    pub fn abandon(&self, id: u64) {
        self.lock().release(id);
    }

    /// With nobody reading: wakes one sleeper whose request is still
    /// unanswered to take the role — every sleeper if the connection is
    /// dead — and hands back every waker, to be woken with the lock
    /// released.
    fn hand_over(&self, st: &mut Inner<R, T>) -> Vec<Waker> {
        if st.sleepers > 0 {
            if st.dead.is_some() {
                self.lanes.iter().for_each(|lane| {
                    lane.notify_all();
                });
            } else if let Some(index) = (st.answered..st.slots.len())
                .find(|&i| st.slots.get(i).is_some_and(|slot| slot.sleepers > 0))
            {
                self.lane(st.first + index as u64).notify_all();
            }
        }
        std::mem::take(&mut st.wakers)
    }

    /// Sleeps until request `id` is answered or the role is handed to
    /// one of its sleepers, for `left` at most.
    fn sleep_on(&self, st: &mut Guard<'_, R, T>, id: u64, left: Option<std::time::Duration>) {
        let Some((_, slot)) = st.slot_mut(id) else {
            return;
        };
        slot.sleepers += 1;
        st.sleepers += 1;
        match left {
            Some(left) => {
                let _ = self.lane(id).wait_for(st.raw_mut(), left);
            }
            None => self.lane(id).wait(st.raw_mut()),
        }
        st.sleepers -= 1;
        if let Some((_, slot)) = st.slot_mut(id) {
            slot.sleepers = slot.sleepers.saturating_sub(1);
        }
    }

    /// Leads: reads replies from `source`, filing each and waking its
    /// waiters, until `done` yields or a read comes back quiet (`None`);
    /// then puts the read half back and hands the role on.
    fn lead<O>(
        &self,
        mut source: R,
        deadline: Option<Instant>,
        read_next: &mut impl FnMut(&mut R, Option<Instant>) -> NextReply<T>,
        done: &mut impl FnMut(&mut Inner<R, T>) -> Option<O>,
    ) -> Option<O> {
        loop {
            let next = read_next(&mut source, deadline);
            let mut st = self.lock();
            let quiet = matches!(next, NextReply::Quiet);
            match next {
                NextReply::Reply(id, reply) => match st.file(id, reply) {
                    Ok(true) => {
                        self.lane(id).notify_all();
                    }
                    Ok(false) => {}
                    Err(err) => st.kill(err),
                },
                NextReply::Quiet => {}
                NextReply::Dead(err) => st.kill(err),
            }
            let out = done(&mut st);
            if out.is_some() || quiet || st.dead.is_some() {
                st.source = Some(source);
                let wakers = self.hand_over(&mut st);
                Self::unlock_and_wake(st, wakers);
                return out;
            }
            let wakers = std::mem::take(&mut st.wakers);
            Self::unlock_and_wake(st, wakers);
        }
    }

    /// Blocks until `done` yields: leads if nobody does, else sleeps on
    /// the request `awaited` names. `None` once `deadline` passes.
    fn block_until<O>(
        &self,
        deadline: Option<Instant>,
        mut read_next: impl FnMut(&mut R, Option<Instant>) -> NextReply<T>,
        awaited: impl Fn(&Inner<R, T>) -> u64,
        mut done: impl FnMut(&mut Inner<R, T>) -> Option<O>,
    ) -> Option<O> {
        let mut st = self.lock();
        loop {
            if let Some(out) = done(&mut st) {
                return Some(out);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                // This caller may be the successor the last leader woke:
                // giving up without leading, it passes the role on in turn.
                let wakers = match st.source {
                    Some(_) => self.hand_over(&mut st),
                    None => Vec::new(),
                };
                Self::unlock_and_wake(st, wakers);
                return None;
            }
            if let Some(source) = st.source.take() {
                drop(st);
                return self.lead(source, deadline, &mut read_next, &mut done);
            }
            let id = awaited(&st);
            self.sleep_on(&mut st, id, left);
        }
    }

    /// Blocks until one part of request `id` is decided and returns what
    /// `take` makes of its reply. `read_next` is handed `deadline` and
    /// must give up (with [`NextReply::Quiet`]) once it passes.
    ///
    /// # Errors
    ///
    /// The connection's terminal error; [`StoreError::Timeout`] once
    /// `deadline` passes, sleeping or reading — the part is then given
    /// up, as by [`ReplyQueue::abandon`].
    pub fn wait<O>(
        &self,
        id: u64,
        deadline: Option<Instant>,
        read_next: impl FnMut(&mut R, Option<Instant>) -> NextReply<T>,
        mut take: impl FnMut(&mut T) -> O,
    ) -> Result<O, StoreError> {
        self.block_until(deadline, read_next, |_| id, |st| st.claim(id, &mut take))
            .unwrap_or_else(|| {
                self.abandon(id);
                Err(StoreError::Timeout)
            })
    }

    /// Future-style [`ReplyQueue::wait`]: ready with the part's outcome,
    /// or pending with the waker left behind when somebody else is
    /// reading. When nobody is, this call reads — it blocks for up to one
    /// reply, or until `deadline` — and, should the reply not be its own,
    /// wakes its own waker so it is polled again.
    pub fn poll<O>(
        &self,
        id: u64,
        cx: &mut Context<'_>,
        deadline: Option<Instant>,
        mut read_next: impl FnMut(&mut R, Option<Instant>) -> NextReply<T>,
        mut take: impl FnMut(&mut T) -> O,
    ) -> Poll<Result<O, StoreError>> {
        let source = {
            let mut st = self.lock();
            if let Some(out) = st.claim(id, &mut take) {
                return Poll::Ready(out);
            }
            // The check and the registration share one lock hold: the
            // leader's hand-over cannot fall between them.
            let Some(source) = st.source.take() else {
                if !st.wakers.iter().any(|w| w.will_wake(cx.waker())) {
                    st.wakers.push(cx.waker().clone());
                }
                return Poll::Pending;
            };
            source
        };
        // One reply's worth of leading: `done` yields whatever it finds.
        let mut look = |st: &mut Inner<R, T>| Some(st.claim(id, &mut take));
        if let Some(Some(out)) = self.lead(source, deadline, &mut read_next, &mut look) {
            return Poll::Ready(out);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.abandon(id);
            return Poll::Ready(Err(StoreError::Timeout));
        }
        cx.waker().wake_by_ref();
        Poll::Pending
    }

    /// Blocks until at most `window` requests are unanswered, reading
    /// replies if nobody else does — what a submitter calls before it
    /// writes more.
    ///
    /// # Errors
    ///
    /// The connection's terminal error; [`StoreError::Timeout`] once
    /// `deadline` passes.
    pub fn make_room(
        &self,
        window: usize,
        deadline: Option<Instant>,
        read_next: impl FnMut(&mut R, Option<Instant>) -> NextReply<T>,
    ) -> Result<(), StoreError> {
        self.block_until(
            deadline,
            read_next,
            // Every reply makes room, so the next one is the one to hear of.
            Inner::oldest_unanswered,
            |st| match &st.dead {
                Some(err) => Some(Err(err.clone())),
                None => (st.slots.len() - st.answered <= window).then_some(Ok(())),
            },
        )
        .unwrap_or(Err(StoreError::Timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::task::Wake;
    use std::time::Duration;

    /// A read half that plays back a script, then stays quiet.
    type Script = VecDeque<NextReply<u32>>;

    fn queue(script: impl IntoIterator<Item = NextReply<u32>>) -> ReplyQueue<Script, u32> {
        ReplyQueue::new(script.into_iter().collect())
    }

    fn play(script: &mut Script, _: Option<Instant>) -> NextReply<u32> {
        script.pop_front().unwrap_or(NextReply::Quiet)
    }

    /// Far enough away that only a bug reaches it — as `Timeout`, not a hang.
    fn later() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    impl<R, T> ReplyQueue<R, T> {
        /// (slots held, of them unanswered).
        fn held(&self) -> (usize, usize) {
            let st = self.lock();
            (st.slots.len(), st.slots.len() - st.answered)
        }
    }

    #[test]
    fn replies_are_filed_in_request_order_and_found_by_id() {
        let q = queue((1..=3).map(|id| NextReply::Reply(id, id as u32 * 10)));
        let ids: Vec<u64> = (0..3).map(|_| q.push(1).unwrap()).collect();
        assert_eq!(ids, [1, 2, 3]);
        // The last request's waiter reads all three replies…
        assert_eq!(q.wait(3, Some(later()), play, |r| *r), Ok(30));
        assert_eq!(q.held(), (3, 0), "slots leave from the front only");
        // …so the others find theirs without reading (the script is spent).
        assert_eq!(q.wait(1, Some(later()), play, |r| *r), Ok(10));
        assert_eq!(q.wait(2, Some(later()), play, |r| *r), Ok(20));
        assert_eq!(q.held(), (0, 0));
    }

    #[test]
    fn an_abandoned_request_goes_when_its_late_reply_lands() {
        let q = queue([NextReply::Reply(1, 10), NextReply::Reply(2, 20)]);
        let (a, b) = (q.push(1).unwrap(), q.push(1).unwrap());
        q.abandon(a);
        // The reply is still owed, so the slot keeps the queue in step.
        assert_eq!(q.held(), (2, 2));
        // The next caller gets its own reply, not the stale one.
        assert_eq!(q.wait(b, Some(later()), play, |r| *r), Ok(20));
        assert_eq!(q.held(), (0, 0));
    }

    #[test]
    fn every_part_of_a_batch_takes_its_share_once() {
        let q: ReplyQueue<VecDeque<NextReply<Vec<u32>>>, Vec<u32>> =
            ReplyQueue::new([NextReply::Reply(1, vec![7, 8, 9])].into());
        let id = q.push(3).unwrap();
        let play =
            |s: &mut VecDeque<NextReply<Vec<u32>>>, _| s.pop_front().unwrap_or(NextReply::Quiet);
        for part in [2usize, 0] {
            assert_eq!(
                q.wait(id, Some(later()), play, |r| r[part]),
                Ok([7, 8, 9][part])
            );
            assert_eq!(q.held(), (1, 0), "the slot stays while a part is out");
        }
        q.abandon(id);
        assert_eq!(q.held(), (0, 0));
    }

    #[test]
    fn a_reply_out_of_turn_kills_the_connection() {
        let q = queue([NextReply::Reply(2, 20)]);
        let (a, b) = (q.push(1).unwrap(), q.push(1).unwrap());
        let err = q.wait(a, Some(later()), play, |r| *r).unwrap_err();
        assert!(
            matches!(&err, StoreError::Decode(msg) if msg.contains("request 2") && msg.contains("request 1")),
            "got {err:?}"
        );
        assert_eq!(q.wait(b, Some(later()), play, |r| *r), Err(err.clone()));
        assert_eq!(q.error(), Some(err.clone()));
        assert_eq!(q.push(1), Err(err));
    }

    #[test]
    fn a_reply_that_arrived_outlives_the_connection() {
        let q = queue([
            NextReply::Reply(1, 10),
            NextReply::Dead(StoreError::Io("gone".into())),
        ]);
        let (a, b) = (q.push(1).unwrap(), q.push(1).unwrap());
        assert_eq!(
            q.wait(b, Some(later()), play, |r| *r),
            Err(StoreError::Io("gone".into()))
        );
        assert_eq!(q.wait(a, Some(later()), play, |r| *r), Ok(10));
        // The first error stands.
        q.fail_all(StoreError::ShutDown);
        assert_eq!(q.error(), Some(StoreError::Io("gone".into())));
    }

    #[test]
    fn a_quiet_deadline_fails_its_waiter_only() {
        let q = queue([]);
        let (a, b) = (q.push(1).unwrap(), q.push(1).unwrap());
        let deadline = Instant::now() + Duration::from_millis(5);
        let idle_until_deadline = |_: &mut Script, deadline: Option<Instant>| {
            std::thread::sleep(deadline.unwrap().saturating_duration_since(Instant::now()));
            NextReply::Quiet
        };
        let waited = q.wait(a, Some(deadline), idle_until_deadline, |r| *r);
        assert_eq!(waited, Err(StoreError::Timeout));
        assert_eq!(q.error(), None);
        // The timed-out request is abandoned, not forgotten: its reply
        // is still owed and still comes first.
        assert_eq!(q.held(), (2, 2));
        let mut late: Script = [NextReply::Reply(1, 10), NextReply::Reply(2, 20)].into();
        assert_eq!(
            q.wait(
                b,
                Some(later()),
                |_, deadline| play(&mut late, deadline),
                |r| *r
            ),
            Ok(20)
        );
        assert_eq!(q.held(), (0, 0));
    }

    #[test]
    fn make_room_reads_down_to_the_window_and_no_further() {
        let q = queue((1..=5).map(|id| NextReply::Reply(id, id as u32)));
        for _ in 0..5 {
            q.push(1).unwrap();
        }
        assert_eq!(q.make_room(5, Some(later()), play), Ok(()));
        assert_eq!(q.held(), (5, 5));
        assert_eq!(q.make_room(2, Some(later()), play), Ok(()));
        assert_eq!(q.held(), (5, 2));
        assert_eq!(q.make_room(0, Some(later()), play), Ok(()));
        // One more request, and no reply to come: the deadline decides.
        q.push(1).unwrap();
        let soon = Some(Instant::now() + Duration::from_millis(5));
        assert_eq!(q.make_room(0, soon, play), Err(StoreError::Timeout));
        q.fail_all(StoreError::ShutDown);
        assert_eq!(
            q.make_room(0, Some(later()), play),
            Err(StoreError::ShutDown)
        );
    }

    #[test]
    fn a_successor_that_gives_up_passes_the_role_on() {
        let q = Arc::new(queue([NextReply::Reply(1, 10), NextReply::Reply(2, 20)]));
        let (a, b) = (q.push(1).unwrap(), q.push(1).unwrap());
        // Somebody leads (stood in for by taking the read half out), so
        // the second request's waiter goes to sleep.
        let script = q.lock().source.take();
        let (tx, rx) = std::sync::mpsc::channel();
        let sleeper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || tx.send(q.wait(b, None, play, |r| *r)))
        };
        while q.lock().sleepers == 0 {
            std::thread::yield_now();
        }
        // The leader leaves and picks the first request's waiter — this
        // thread — as its successor; but that waiter's deadline is up.
        q.lock().source = script;
        let gone = Some(Instant::now());
        assert_eq!(q.wait(a, gone, play, |r| *r), Err(StoreError::Timeout));
        // Leaving, it must wake the sleeper to lead in its place.
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(Ok(20)));
        sleeper.join().unwrap().unwrap();
        assert_eq!(q.held(), (0, 0));
    }

    struct CountingWaker(std::sync::Mutex<usize>);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            *self.0.lock().unwrap() += 1;
        }
    }

    #[test]
    fn a_poll_reads_one_reply_and_asks_to_be_polled_again() {
        let q = queue([NextReply::Reply(1, 10), NextReply::Reply(2, 20)]);
        let (a, b) = (q.push(1).unwrap(), q.push(1).unwrap());
        let wakes = Arc::new(CountingWaker(std::sync::Mutex::new(0)));
        let waker = Waker::from(Arc::clone(&wakes));
        let mut cx = Context::from_waker(&waker);
        // Nobody is reading, so the poll does: one reply, not its own.
        assert_eq!(q.poll(b, &mut cx, None, play, |r| *r), Poll::Pending);
        assert_eq!(*wakes.0.lock().unwrap(), 1);
        assert_eq!(q.held(), (2, 1));
        assert_eq!(q.poll(b, &mut cx, None, play, |r| *r), Poll::Ready(Ok(20)));
        assert_eq!(q.poll(a, &mut cx, None, play, |r| *r), Poll::Ready(Ok(10)));
        assert_eq!(*wakes.0.lock().unwrap(), 1);
        assert_eq!(q.held(), (0, 0));
    }
}
