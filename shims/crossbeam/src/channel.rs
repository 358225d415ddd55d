//! MPMC channels with crossbeam semantics: cloneable senders and receivers,
//! bounded backpressure, timeouts, and disconnect-on-last-drop.
//!
//! A receiver blocks like crossbeam's: it backs off, then parks. Finding the
//! queue empty it gives up the CPU once (`YIELDS_BEFORE_PARK`) and looks
//! again before it sleeps on the condvar, because in a request / reply
//! pipeline the message is usually one scheduling step away and a park is a
//! `futex` sleep plus a `futex_wake` by the sender. A receiver that is
//! yielding is not counted as parked, so the sender skips its wake-up. There
//! is no spin phase, and a sender that finds a bounded queue full parks at
//! once: that is backpressure, not a hand-off about to complete.
//!
//! Deadlines are read from [`crate::clock`]. A thread counted in virtual
//! time parks on the clock instead of the condvar, with the same
//! parked-waiter counts, and whoever changes the queue under a parked waiter
//! also tells the clock.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::clock::{self, Wait};

/// Error returned by [`Sender::send`] when every receiver is gone; carries
/// the unsent message back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned by [`Sender::try_send`]; carries the unsent message back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity.
    Full(T),
    /// Every receiver is gone.
    Disconnected(T),
}

impl<T> std::fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "sending on a full channel"),
            TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
        }
    }
}

/// Error returned by [`Sender::send_timeout`]; carries the unsent message
/// back.
#[derive(Debug, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// No capacity freed up before the deadline.
    Timeout(T),
    /// Every receiver is gone.
    Disconnected(T),
}

impl<T> std::fmt::Display for SendTimeoutError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendTimeoutError::Timeout(_) => write!(f, "timed out sending on a full channel"),
            SendTimeoutError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
        }
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "receiving on an empty, disconnected channel")
    }
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived before the deadline.
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

/// How often a blocking receive that finds the queue empty yields the CPU
/// and re-checks before it parks.
const YIELDS_BEFORE_PARK: u32 = 1;

/// Slots a bounded channel allocates when it is created.
const EAGER_SLOTS: usize = 64;

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers parked on `not_empty` and senders parked on `not_full`.
    /// Each is raised under the mutex just before a `wait`/`wait_timeout`
    /// (which releases the mutex atomically) and lowered as soon as the wait
    /// returns, timeouts included — so whoever changes the queue under the
    /// mutex knows whether anyone can be asleep, and skips the `futex_wake`
    /// when nobody is. A waiter that was signalled but has not yet retaken
    /// the mutex still counts: the worst case is one spare wake-up, never a
    /// lost one.
    parked_receivers: usize,
    parked_senders: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: Option<usize>,
}

impl<T> Shared<T> {
    /// Enqueues under the held mutex, then wakes one parked receiver if
    /// there is one.
    fn push(&self, mut st: MutexGuard<'_, State<T>>, value: T) {
        st.queue.push_back(value);
        let wake = st.parked_receivers > 0;
        drop(st);
        if wake {
            self.not_empty.notify_one();
            clock::notify();
        }
    }

    /// Dequeues under the held mutex; on success wakes one parked sender if
    /// there is one. Hands the guard back when the queue is empty.
    fn pop<'a>(&self, mut st: MutexGuard<'a, State<T>>) -> Result<T, MutexGuard<'a, State<T>>> {
        let Some(value) = st.queue.pop_front() else { return Err(st) };
        let wake = st.parked_senders > 0;
        drop(st);
        if wake {
            self.not_full.notify_one();
            clock::notify();
        }
        Ok(value)
    }

    /// What a blocking receive does on finding the queue empty, waiting at
    /// most `left` (until `deadline`): back off on its first
    /// `YIELDS_BEFORE_PARK` visits (counted in `yields`, one counter per
    /// call), park after that. The mutex is released across the yield and
    /// the caller re-checks the queue under it afterwards, exactly as after
    /// a wake-up, so a message sent meanwhile is seen; `parked_receivers`
    /// was not raised, so that send skipped its `notify_one` rightly. A
    /// counted thread in virtual time parks on the clock (`wait`).
    fn await_message<'a>(
        &'a self,
        mut st: MutexGuard<'a, State<T>>,
        (deadline, left): (Option<Instant>, Option<Duration>),
        yields: &mut u32,
        wait: &mut Option<Wait>,
    ) -> MutexGuard<'a, State<T>> {
        if let Some(wait) = counted(wait) {
            st.parked_receivers += 1;
            drop(st);
            wait.park(deadline);
            st = self.state.lock().unwrap();
            st.parked_receivers -= 1;
            return st;
        }
        if *yields < YIELDS_BEFORE_PARK {
            *yields += 1;
            drop(st);
            std::thread::yield_now();
            return self.state.lock().unwrap();
        }
        self.park_receiver(st, left)
    }

    /// Parks a receiver until signalled, or until `timeout` when given.
    fn park_receiver<'a>(
        &self,
        mut st: MutexGuard<'a, State<T>>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, State<T>> {
        st.parked_receivers += 1;
        let mut st = wait(&self.not_empty, st, timeout);
        st.parked_receivers -= 1;
        st
    }

    /// Parks a sender until signalled, or at most `left` (until
    /// `deadline`); on the clock for a counted thread in virtual time.
    fn park_sender<'a>(
        &'a self,
        mut st: MutexGuard<'a, State<T>>,
        (deadline, left): (Option<Instant>, Option<Duration>),
        wait: &mut Option<Wait>,
    ) -> MutexGuard<'a, State<T>> {
        st.parked_senders += 1;
        let mut st = match counted(wait) {
            Some(wait) => {
                drop(st);
                wait.park(deadline);
                self.state.lock().unwrap()
            }
            None => self::wait(&self.not_full, st, left),
        };
        st.parked_senders -= 1;
        st
    }
}

/// The clock's wait of the calling thread when it is counted in virtual
/// time, begun on its first use. Called under the channel mutex, after the
/// look that found the queue not ready, so a change to the queue after that
/// look tells the clock after the wait began.
fn counted(wait: &mut Option<Wait>) -> Option<&mut Wait> {
    if wait.is_none() {
        *wait = Wait::begin();
    }
    wait.as_mut()
}

/// What is left of a wait until `deadline` (`None`: no end) — the deadline
/// and the time to it — or `Err` once it has passed.
fn remaining(deadline: Option<Instant>) -> Result<(Option<Instant>, Option<Duration>), ()> {
    let Some(deadline) = deadline else { return Ok((None, None)) };
    let now = clock::now();
    if now >= deadline {
        return Err(());
    }
    Ok((Some(deadline), Some(deadline - now)))
}

fn wait<'a, S>(
    cv: &Condvar,
    st: MutexGuard<'a, S>,
    timeout: Option<Duration>,
) -> MutexGuard<'a, S> {
    match timeout {
        Some(t) => cv.wait_timeout(st, t).unwrap().0,
        None => cv.wait(st).unwrap(),
    }
}

/// The sending half; cloneable (MPMC).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; cloneable (MPMC).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a channel of unlimited capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a channel holding at most `cap` in-flight messages; sends block
/// while full. `cap = 0` is treated as capacity 1 (this shim has no
/// rendezvous mode; nothing in the workspace uses one).
///
/// As crossbeam's array flavour does, the queue's slots are allocated here
/// (the first `EAGER_SLOTS` of them: a huge `cap` must not reserve a huge
/// buffer), so a `send` into a small bounded channel — a reply into a
/// `bounded(1)`, typically from another thread than the creator's — never
/// allocates.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(cap.max(1)))
}

fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity.map_or(0, |cap| cap.min(EAGER_SLOTS))),
            senders: 1,
            receivers: 1,
            parked_receivers: 0,
            parked_senders: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity,
    });
    (Sender { shared: shared.clone() }, Receiver { shared })
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().unwrap().senders += 1;
        Sender { shared: self.shared.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap();
        st.senders -= 1;
        if st.senders == 0 {
            self.shared.not_empty.notify_all();
            clock::notify();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().unwrap().receivers += 1;
        Receiver { shared: self.shared.clone() }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap();
        st.receivers -= 1;
        if st.receivers == 0 {
            self.shared.not_full.notify_all();
            clock::notify();
        }
    }
}

impl<T> Sender<T> {
    /// Blocks until the message is enqueued (or every receiver is gone).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.send_until(value, None).map_err(|e| match e {
            SendTimeoutError::Timeout(v) | SendTimeoutError::Disconnected(v) => SendError(v),
        })
    }

    /// Non-blocking send: enqueues immediately or reports why it cannot.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let st = self.shared.state.lock().unwrap();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if let Some(cap) = self.shared.capacity {
            if st.queue.len() >= cap {
                return Err(TrySendError::Full(value));
            }
        }
        self.shared.push(st, value);
        Ok(())
    }

    /// Blocks up to `timeout` for a capacity slot; a timeout past the
    /// clock's range waits without one.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        self.send_until(value, clock::deadline(timeout))
    }

    /// Blocks until `deadline` for a capacity slot.
    pub fn send_deadline(&self, value: T, deadline: Instant) -> Result<(), SendTimeoutError<T>> {
        self.send_until(value, Some(deadline))
    }

    fn send_until(&self, value: T, deadline: Option<Instant>) -> Result<(), SendTimeoutError<T>> {
        let mut st = self.shared.state.lock().unwrap();
        let mut wait = None;
        loop {
            if st.receivers == 0 {
                return Err(SendTimeoutError::Disconnected(value));
            }
            match self.shared.capacity {
                Some(cap) if st.queue.len() >= cap => {
                    let Ok(left) = remaining(deadline) else {
                        return Err(SendTimeoutError::Timeout(value));
                    };
                    st = self.shared.park_sender(st, left, &mut wait);
                }
                _ => break,
            }
        }
        self.shared.push(st, value);
        Ok(())
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives (or every sender is gone).
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Blocks up to `timeout` for a message; a timeout past the clock's
    /// range waits without one.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(clock::deadline(timeout))
    }

    /// Blocks until `deadline` for a message.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        self.recv_until(Some(deadline))
    }

    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut st = self.shared.state.lock().unwrap();
        let (mut yields, mut wait) = (0, None);
        loop {
            st = match self.shared.pop(st) {
                Ok(v) => return Ok(v),
                Err(st) => st,
            };
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let Ok(left) = remaining(deadline) else { return Err(RecvTimeoutError::Timeout) };
            st = self.shared.await_message(st, left, &mut yields, &mut wait);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.shared.pop(self.shared.state.lock().unwrap()) {
            Ok(v) => Ok(v),
            Err(st) if st.senders == 0 => Err(TryRecvError::Disconnected),
            Err(_) => Err(TryRecvError::Empty),
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// True when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn timeout_fires() {
        let (_tx, rx) = unbounded::<u32>();
        let err = rx.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, RecvTimeoutError::Timeout);
    }

    #[test]
    fn bounded_applies_backpressure() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let t = std::thread::spawn(move || {
            tx.send(3).unwrap(); // blocks until a slot frees up
            "sent"
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(t.join().unwrap(), "sent");
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn try_send_rejects_when_full_or_disconnected() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.len(), 1);
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(tx.try_send(3), Ok(()));
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
    }

    #[test]
    fn send_timeout_times_out_then_succeeds() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let err = tx.send_timeout(2, Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, SendTimeoutError::Timeout(2));
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let v = rx.recv().unwrap();
            (v, rx) // keep the receiver alive past the sender's retry
        });
        assert_eq!(tx.send_timeout(2, Duration::from_secs(5)), Ok(()));
        let (v, rx) = t.join().unwrap();
        assert_eq!(v, 1);
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn mpmc_consumes_everything_once() {
        let (tx, rx) = bounded(8);
        let n = 1000;
        let counted = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut consumers = Vec::new();
        for _ in 0..4 {
            let rx = rx.clone();
            let counted = counted.clone();
            consumers.push(std::thread::spawn(move || {
                while rx.recv().is_ok() {
                    counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }));
        }
        drop(rx);
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..n {
                        tx.send(i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        for p in producers {
            p.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(counted.load(std::sync::atomic::Ordering::Relaxed), 4 * n);
    }

    // ---- wake-ups are skipped only when nobody is parked ----------------
    //
    // A parked thread raises its counter under the channel mutex and the
    // condvar releases that mutex atomically, so once `until_parked` reads
    // the expected counts the threads are asleep (or already signalled):
    // the interleaving is forced, not slept for. A lost wake-up shows as
    // `LOST` expiring, never as a hung test.

    const LOST: Duration = Duration::from_secs(10);
    const LONG: Duration = Duration::from_secs(60);

    fn parked<T>(shared: &Shared<T>) -> (usize, usize) {
        let st = shared.state.lock().unwrap();
        (st.parked_receivers, st.parked_senders)
    }

    fn until_parked<T>(shared: &Shared<T>, receivers: usize, senders: usize) {
        let begun = Instant::now();
        while parked(shared) != (receivers, senders) {
            assert!(begun.elapsed() < LOST, "threads never parked");
            std::thread::yield_now();
        }
    }

    /// Runs `op` on its own thread; the result arrives on the returned
    /// std channel when `op` returns.
    fn spawn_reporting<R: Send + 'static>(
        op: impl FnOnce() -> R + Send + 'static,
    ) -> std::sync::mpsc::Receiver<R> {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(op());
        });
        done_rx
    }

    #[test]
    fn every_send_flavour_wakes_a_parked_receiver() {
        type Park = fn(&Receiver<u32>) -> Option<u32>;
        type Wake = fn(&Sender<u32>);
        let parks: [Park; 2] = [|rx| rx.recv().ok(), |rx| rx.recv_timeout(LONG).ok()];
        let wakes: [Wake; 3] = [
            |tx| tx.send(7).unwrap(),
            |tx| tx.try_send(7).unwrap(),
            |tx| tx.send_timeout(7, LONG).unwrap(),
        ];
        for park in parks {
            for wake in wakes {
                let (tx, rx) = bounded::<u32>(1);
                let got = spawn_reporting(move || park(&rx));
                until_parked(&tx.shared, 1, 0);
                wake(&tx);
                assert_eq!(got.recv_timeout(LOST), Ok(Some(7)), "wake-up lost");
                assert_eq!(parked(&tx.shared), (0, 0));
            }
        }
    }

    #[test]
    fn every_recv_flavour_wakes_a_parked_sender() {
        type Park = fn(&Sender<u32>) -> bool;
        type Wake = fn(&Receiver<u32>) -> Option<u32>;
        let parks: [Park; 2] = [|tx| tx.send(2).is_ok(), |tx| tx.send_timeout(2, LONG).is_ok()];
        let wakes: [Wake; 3] =
            [|rx| rx.recv().ok(), |rx| rx.try_recv().ok(), |rx| rx.recv_timeout(LONG).ok()];
        for park in parks {
            for wake in wakes {
                let (tx, rx) = bounded::<u32>(1);
                tx.send(1).unwrap();
                let sent = spawn_reporting(move || park(&tx));
                until_parked(&rx.shared, 0, 1);
                assert_eq!(wake(&rx), Some(1));
                assert_eq!(sent.recv_timeout(LOST), Ok(true), "wake-up lost");
                assert_eq!(parked(&rx.shared), (0, 0));
                assert_eq!(rx.try_recv(), Ok(2));
            }
        }
    }

    #[test]
    fn timed_out_waits_leave_no_phantom_waiter() {
        let (tx, rx) = bounded::<u32>(1);
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Timeout));
        assert_eq!(parked(&tx.shared), (0, 0));
        tx.send(1).unwrap();
        assert_eq!(
            tx.send_timeout(2, Duration::from_millis(10)),
            Err(SendTimeoutError::Timeout(2))
        );
        assert_eq!(parked(&tx.shared), (0, 0));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn n_sends_release_n_parked_receivers() {
        let n = 4;
        let (tx, rx) = unbounded::<usize>();
        let got: Vec<_> = (0..n)
            .map(|_| {
                let rx = rx.clone();
                spawn_reporting(move || rx.recv())
            })
            .collect();
        until_parked(&tx.shared, n, 0);
        for i in 0..n {
            tx.send(i).unwrap();
        }
        let mut seen: Vec<usize> = got
            .iter()
            .map(|g| g.recv_timeout(LOST).expect("wake-up lost").expect("a message each"))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        assert_eq!(parked(&tx.shared), (0, 0));
    }

    // ---- the back-off window loses no wake-up ---------------------------
    //
    // A receiver that found the queue empty unlocks, yields, relocks and
    // re-checks before it parks. These run that window as often as the
    // scheduler allows, from both sides: a send that lands inside it skips
    // the `notify_one` (nobody is parked) and must still be seen.

    #[test]
    fn ping_pong_across_the_back_off_window() {
        let rounds = 100_000u32;
        let (ping_tx, ping_rx) = bounded::<u32>(1);
        let (pong_tx, pong_rx) = bounded::<u32>(1);
        let (ping, pong) = (ping_tx.shared.clone(), pong_tx.shared.clone());
        // The echo side blocks in `recv`; a wake-up lost there starves the
        // driver below, whose own `recv_timeout` is the watchdog for both.
        let echoed = spawn_reporting(move || {
            while let Ok(v) = ping_rx.recv() {
                pong_tx.send(v).unwrap();
            }
        });
        let driven = spawn_reporting(move || {
            for i in 0..rounds {
                ping_tx.send(i).unwrap();
                assert_eq!(pong_rx.recv_timeout(LOST), Ok(i), "wake-up lost in round {i}");
            }
        });
        assert_eq!(driven.recv_timeout(LONG), Ok(()), "driver failed");
        assert_eq!(echoed.recv_timeout(LOST), Ok(()), "disconnect wake-up lost");
        assert_eq!(parked(&ping), (0, 0));
        assert_eq!(parked(&pong), (0, 0));
    }

    #[test]
    fn n_senders_feed_n_receivers_their_exact_share() {
        let (n, each) = (4usize, 25_000usize);
        let (tx, rx) = unbounded::<usize>();
        // Every receiver leaves after `each` messages, so one whose wake-up
        // was lost cannot be covered for by the others: its share stays
        // queued and its report never comes.
        let received: Vec<_> = (0..n)
            .map(|_| {
                let rx = rx.clone();
                spawn_reporting(move || (0..each).map(|_| rx.recv().unwrap()).sum::<usize>())
            })
            .collect();
        let sent: Vec<_> = (0..n)
            .map(|_| {
                let tx = tx.clone();
                spawn_reporting(move || (0..each).for_each(|i| tx.send(i).unwrap()))
            })
            .collect();
        for s in &sent {
            assert_eq!(s.recv_timeout(LONG), Ok(()));
        }
        let total: usize =
            received.iter().map(|r| r.recv_timeout(LOST).expect("wake-up lost")).sum();
        assert_eq!(total, n * (each * (each - 1) / 2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(parked(&tx.shared), (0, 0));
    }

    #[test]
    fn last_sender_drop_releases_every_parked_receiver() {
        let n = 4;
        let (tx, rx) = unbounded::<usize>();
        let got: Vec<_> = (0..n)
            .map(|_| {
                let rx = rx.clone();
                spawn_reporting(move || rx.recv())
            })
            .collect();
        until_parked(&rx.shared, n, 0);
        let tx2 = tx.clone();
        drop(tx);
        assert_eq!(parked(&rx.shared), (n, 0), "a surviving sender keeps them parked");
        drop(tx2);
        for g in &got {
            assert_eq!(g.recv_timeout(LOST), Ok(Err(RecvError)), "disconnect wake-up lost");
        }
    }

    #[test]
    fn last_receiver_drop_releases_a_parked_sender() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let sent = spawn_reporting(move || tx.send(2));
        until_parked(&rx.shared, 0, 1);
        let shared = rx.shared.clone();
        drop(rx);
        assert_eq!(sent.recv_timeout(LOST), Ok(Err(SendError(2))), "disconnect wake-up lost");
        assert_eq!(parked(&shared), (0, 0));
    }
}
