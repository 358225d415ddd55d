//! Time as an input: what time it is, how long a thread sleeps and when a
//! wait gives up are read here and nowhere else. The channels' deadline
//! receives and sends (`recv_timeout`, `recv_deadline`, `send_timeout`,
//! `send_deadline`) read this clock, and [`spawn`] / [`JoinHandle::join`]
//! are the thread starts and joins it counts.
//!
//! **Production.** [`now`] is `Instant::now()` behind one relaxed load of the
//! session flag, and [`sleep`] is `std::thread::sleep`. A send, park, lock
//! or spawn touches no global counter.
//!
//! **Virtual time.** [`virtual_time`] turns it on for the calling thread and
//! every thread that thread (or one of its threads) starts through [`spawn`]:
//! the *counted* threads. For them, time advances only when every counted
//! thread is parked — in a channel wait, a `parking_lot` lock wait, a join
//! or a sleep — and then jumps to the smallest pending deadline; ties go to
//! the thread started first. A thread blocked anywhere else (file I/O, a
//! `std` lock) counts as running, so time waits for it. Threads outside the
//! session keep reading the wall clock.
//!
//! How a parked thread learns that it may go on: a counted thread that
//! changed a channel's state under a parked waiter calls [`notify`], which
//! releases every parked thread to look again; a thread's exit does the
//! same, for its joiner. A lock has no such hook, so a lock waiter parks as a *poller*:
//! when every counted thread is parked and something ran since the pollers
//! last looked, the pollers are released to try again before any deadline
//! fires.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The running session's id; 0 when time is the wall clock's for everyone.
static SESSION: AtomicU64 = AtomicU64::new(0);
/// Virtual nanoseconds since [`BASE`]; it only grows, across sessions too.
static OFFSET: AtomicU64 = AtomicU64::new(0);
/// The wall-clock instant virtual time counts from.
static BASE: OnceLock<Instant> = OnceLock::new();

static WORLD: Mutex<World> = Mutex::new(World {
    session: 0,
    threads: 0,
    parked: 0,
    epoch: 0,
    ran: false,
    slots: Vec::new(),
});
/// Where counted threads park.
static WAKE: Condvar = Condvar::new();

thread_local! {
    /// `(session, slot)` of a counted thread; session 0 for any other.
    static MEMBER: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// The counted threads of the running session.
struct World {
    session: u64,
    /// Counted threads alive.
    threads: usize,
    /// Counted threads parked and not yet released.
    parked: usize,
    /// Bumped by every [`notify`]: a thread that read an older epoch before
    /// it looked at what it waits for looks again instead of parking.
    epoch: u64,
    /// Whether a counted thread ran, other than a poller failing its try,
    /// since the pollers were last released.
    ran: bool,
    /// One per counted thread, in the order they were started.
    slots: Vec<Slot>,
}

#[derive(Clone, Copy, Default)]
struct Slot {
    parked: bool,
    /// Parked on a lock: released to try again whenever something ran.
    polls: bool,
    /// The virtual offset this thread's wait ends at.
    alarm: Option<Duration>,
    exited: bool,
}

fn world() -> MutexGuard<'static, World> {
    WORLD.lock().unwrap_or_else(PoisonError::into_inner)
}

fn offset() -> Duration {
    Duration::from_nanos(OFFSET.load(Ordering::Acquire))
}

/// The calling thread's slot, when it is counted in the running session.
fn member() -> Option<(u64, usize)> {
    let session = SESSION.load(Ordering::Relaxed);
    if session == 0 {
        return None;
    }
    let (mine, slot) = MEMBER.get();
    (mine == session).then_some((session, slot))
}

/// The current instant: the wall clock's, or the session's for a counted
/// thread.
#[inline]
pub fn now() -> Instant {
    if SESSION.load(Ordering::Relaxed) != 0 {
        if let (Some(_), Some(base)) = (member(), BASE.get()) {
            return *base + offset();
        }
    }
    Instant::now()
}

/// Time since `earlier`, 0 if that is in the future.
#[inline]
pub fn since(earlier: Instant) -> Duration {
    now().saturating_duration_since(earlier)
}

/// The instant `budget` from now; `None` when that is past the clock's
/// range, which reads as no deadline at all (saturating: a budget is the
/// caller's number).
#[inline]
pub fn deadline(budget: Duration) -> Option<Instant> {
    now().checked_add(budget)
}

/// Blocks the calling thread for `d`; a counted thread parks until its
/// deadline fires.
pub fn sleep(d: Duration) {
    let Some(mut wait) = Wait::begin() else { return std::thread::sleep(d) };
    let until = deadline(d);
    while until.is_none_or(|until| now() < until) {
        wait.park(until);
    }
}

/// Starts a named thread, counted in the session when the caller is.
pub fn spawn<F, T>(name: String, f: F) -> std::io::Result<JoinHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let counted = member().map(|(session, _)| {
        let mut w = world();
        w.threads += 1;
        w.ran = true;
        w.slots.push(Slot::default());
        (session, w.slots.len() - 1)
    });
    let body = move || {
        let _leave = counted.map(|me| {
            MEMBER.set(me);
            Leave(me)
        });
        f()
    };
    match std::thread::Builder::new().name(name).spawn(body) {
        Ok(inner) => Ok(JoinHandle { inner, counted }),
        Err(e) => {
            // The body never ran, so its `Leave` will not count it out.
            if let Some(me) = counted {
                drop(Leave(me));
            }
            Err(e)
        }
    }
}

/// Counts a thread out of its session when it ends, returning or unwinding.
struct Leave((u64, usize));

impl Drop for Leave {
    fn drop(&mut self) {
        let (session, slot) = self.0;
        let mut w = world();
        if w.session == session {
            w.threads -= 1;
            w.slots[slot] = Slot { exited: true, ..Slot::default() };
            release_all(&mut w);
        }
    }
}

/// An owned permission to join a thread started by [`spawn`].
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<T>,
    counted: Option<(u64, usize)>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish; a counted joiner of a counted thread
    /// is parked meanwhile.
    pub fn join(self) -> std::thread::Result<T> {
        if let (Some((session, slot)), Some(mut wait)) = (self.counted, Wait::begin()) {
            let running = || {
                let w = world();
                w.session == session && !w.slots[slot].exited
            };
            while running() {
                wait.park(None);
            }
        }
        self.inner.join()
    }
}

/// Holds virtual time on; see [`virtual_time`].
pub struct VirtualTime {
    _one_at_a_time: MutexGuard<'static, ()>,
}

/// Turns virtual time on for the calling thread and the threads it starts
/// through [`spawn`], until the returned guard drops. One session runs at a
/// time in a process: a second caller waits for the first guard (so a
/// counted thread must not call this). Drop the threads' owners first, so
/// the threads are joined while time is still virtual.
pub fn virtual_time() -> VirtualTime {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    static SESSIONS: AtomicU64 = AtomicU64::new(0);
    let guard = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    BASE.get_or_init(Instant::now);
    let session = SESSIONS.fetch_add(1, Ordering::Relaxed) + 1;
    let mut w = world();
    w.session = session;
    (w.threads, w.parked, w.ran) = (1, 0, true);
    w.slots.clear();
    w.slots.push(Slot::default());
    SESSION.store(session, Ordering::Release);
    MEMBER.set((session, 0));
    VirtualTime { _one_at_a_time: guard }
}

impl Drop for VirtualTime {
    fn drop(&mut self) {
        let mut w = world();
        w.session = 0;
        SESSION.store(0, Ordering::Release);
        MEMBER.set((0, 0));
        // A counted thread still parked goes back to the wall clock.
        release_all(&mut w);
    }
}

/// Tells parked counted threads that something they may wait for changed;
/// one relaxed load when no session runs. Callers change the state first.
/// Only a counted thread's call releases anyone: a thread outside the
/// session (another test's channel, say) changes nothing a counted thread
/// waits for, and releasing on its call would let a parked thread whose
/// deadline a tie already passed run before the thread the tie went to.
pub fn notify() {
    if member().is_some() {
        release_all(&mut world());
    }
}

fn release_all(w: &mut World) {
    w.epoch += 1;
    w.ran = true;
    if w.parked > 0 {
        w.parked = 0;
        w.slots.iter_mut().for_each(|s| s.parked = false);
        WAKE.notify_all();
    }
}

/// Called when every counted thread is parked: releases the pollers if
/// something ran since they last tried, or else fires the smallest deadline
/// (ties to the earliest-started thread). With neither, every counted
/// thread waits on another without a deadline and nothing moves.
fn settle(w: &mut World) {
    let pollers = w.slots.iter().filter(|s| s.parked && s.polls).count();
    if w.ran && pollers > 0 {
        w.ran = false;
        for s in w.slots.iter_mut().filter(|s| s.parked && s.polls) {
            s.parked = false;
        }
        w.parked -= pollers;
        WAKE.notify_all();
        return;
    }
    let next = (w.slots.iter().enumerate())
        .filter_map(|(i, s)| Some((s.alarm.filter(|_| s.parked)?, i)))
        .min();
    if let Some((alarm, i)) = next {
        let nanos = u64::try_from(alarm.as_nanos()).unwrap_or(u64::MAX);
        OFFSET.fetch_max(nanos, Ordering::AcqRel);
        w.slots[i].parked = false;
        w.parked -= 1;
        WAKE.notify_all();
    }
}

/// One wait of a counted thread: begun before it looks at what it waits for
/// (or while it holds the lock that guards it), parked each time it finds
/// that not ready.
pub struct Wait {
    session: u64,
    slot: usize,
    epoch: u64,
    /// Parked already in this wait: a failed look since changed nothing.
    again: bool,
}

impl Wait {
    /// `Some` for a counted thread while virtual time is on; `None` means
    /// block the ordinary way.
    pub fn begin() -> Option<Wait> {
        let (session, slot) = member()?;
        let epoch = world().epoch;
        Some(Wait { session, slot, epoch, again: false })
    }

    /// Parks until notified, or until `until` is the earliest deadline when
    /// everything else is parked too.
    pub fn park(&mut self, until: Option<Instant>) {
        let alarm = until.and_then(|t| Some(t.saturating_duration_since(*BASE.get()?)));
        self.park_as(alarm, false);
    }

    /// Parks as a lock waiter: until notified, or until the pollers are
    /// released to try again.
    pub fn poll(&mut self) {
        self.park_as(None, true);
    }

    fn park_as(&mut self, alarm: Option<Duration>, polls: bool) {
        let mut w = world();
        if w.session != self.session || w.epoch != self.epoch {
            self.epoch = w.epoch;
            return;
        }
        w.ran |= !self.again;
        self.again = true;
        w.parked += 1;
        w.slots[self.slot] = Slot { parked: true, polls, alarm, exited: false };
        loop {
            if w.parked == w.threads {
                settle(&mut w);
            }
            if !w.slots[self.slot].parked || w.session != self.session {
                break;
            }
            w = WAKE.wait(w).unwrap_or_else(PoisonError::into_inner);
        }
        if w.session == self.session {
            w.slots[self.slot] = Slot::default();
        }
        self.epoch = w.epoch;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::channel::{bounded, unbounded, RecvTimeoutError};

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn in_production_now_is_the_wall_clock() {
        for _ in 0..1_000 {
            let before = Instant::now();
            let read = now();
            assert!(before <= read && read <= Instant::now());
        }
        assert!(deadline(Duration::MAX).is_none(), "past the clock's range");
    }

    #[test]
    fn time_does_not_advance_while_a_counted_thread_runs() {
        let _virtual = virtual_time();
        let t0 = now();
        let done = Arc::new(AtomicBool::new(false));
        let runner = {
            let done = Arc::clone(&done);
            // Blocked outside the clock: it counts as running.
            spawn("runner".into(), move || {
                std::thread::sleep(50 * MS);
                done.store(true, Ordering::SeqCst);
                now()
            })
            .unwrap()
        };
        sleep(MS);
        assert!(done.load(Ordering::SeqCst), "time moved while the runner ran");
        assert_eq!(now() - t0, MS);
        assert_eq!(runner.join().unwrap(), t0, "the runner read no time passing");
    }

    #[test]
    fn the_smallest_deadline_fires_first_and_ties_go_in_start_order() {
        let _virtual = virtual_time();
        let t0 = now();
        let woke = Arc::new(Mutex::new(Vec::new()));
        let sleepers: Vec<_> = [(30, 'a'), (10, 'b'), (20, 'c'), (10, 'd')]
            .into_iter()
            .map(|(ms, name)| {
                let woke = Arc::clone(&woke);
                spawn(name.to_string(), move || {
                    sleep(ms * MS);
                    woke.lock().unwrap().push((name, now() - t0));
                })
                .unwrap()
            })
            .collect();
        sleepers.into_iter().for_each(|s| s.join().unwrap());
        let woke = woke.lock().unwrap().clone();
        assert_eq!(woke, [('b', 10 * MS), ('d', 10 * MS), ('c', 20 * MS), ('a', 30 * MS)]);
        assert_eq!(now() - t0, 30 * MS);
    }

    #[test]
    fn a_notify_from_outside_the_session_releases_no_one() {
        // A thread outside the session notifying in a loop, as another
        // test's channels do: were it to release the parked sleepers, the
        // second of two tied sleepers could wake and push before the first.
        let stop = Arc::new(AtomicBool::new(false));
        let outside = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    notify();
                    std::thread::yield_now();
                }
            })
        };
        let _virtual = virtual_time();
        for _ in 0..100 {
            let t0 = now();
            let woke = Arc::new(Mutex::new(Vec::new()));
            let sleepers: Vec<_> = ['a', 'b']
                .into_iter()
                .map(|name| {
                    let woke = Arc::clone(&woke);
                    spawn(name.to_string(), move || {
                        sleep(MS);
                        woke.lock().unwrap().push((name, now() - t0));
                    })
                    .unwrap()
                })
                .collect();
            sleepers.into_iter().for_each(|s| s.join().unwrap());
            assert_eq!(*woke.lock().unwrap(), [('a', MS), ('b', MS)]);
        }
        stop.store(true, Ordering::Relaxed);
        outside.join().unwrap();
    }

    #[test]
    fn a_message_sent_before_a_receive_deadline_beats_the_timeout() {
        let _virtual = virtual_time();
        for (send_after, want) in [(5, Ok(7)), (15, Err(RecvTimeoutError::Timeout))] {
            let t0 = now();
            let (tx, rx) = unbounded::<u32>();
            let sender = spawn("sender".into(), move || {
                sleep(send_after * MS);
                let _ = tx.send(7);
            })
            .unwrap();
            let got = rx.recv_timeout(10 * MS);
            assert_eq!(got, want, "a send at {send_after} ms");
            assert_eq!(now() - t0, if got.is_ok() { 5 * MS } else { 10 * MS });
            sender.join().unwrap();
        }
    }

    #[test]
    fn a_full_channel_parks_its_sender_until_a_slot_frees() {
        let _virtual = virtual_time();
        let t0 = now();
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let receiver = spawn("receiver".into(), move || {
            sleep(4 * MS);
            (rx.recv().unwrap(), rx.recv().unwrap())
        })
        .unwrap();
        assert_eq!(tx.send_timeout(2, 3 * MS), Err(crate::channel::SendTimeoutError::Timeout(2)));
        assert_eq!(now() - t0, 3 * MS);
        tx.send_timeout(2, 10 * MS).unwrap();
        assert_eq!(now() - t0, 4 * MS, "sent the moment the receiver took a message");
        assert_eq!(receiver.join().unwrap(), (1, 2));
    }

    #[test]
    fn a_joiner_parks_until_the_thread_ends() {
        let _virtual = virtual_time();
        let t0 = now();
        let worker = spawn("worker".into(), || sleep(7 * MS)).unwrap();
        worker.join().unwrap();
        assert_eq!(now() - t0, 7 * MS);
    }

    #[test]
    fn threads_outside_the_session_keep_the_wall_clock() {
        let _virtual = virtual_time();
        let t0 = now();
        sleep(Duration::from_secs(3_600));
        assert_eq!(now() - t0, Duration::from_secs(3_600), "a counted thread's hour");
        let outside = std::thread::spawn(|| {
            let before = Instant::now();
            let read = now();
            before <= read && read <= Instant::now()
        });
        assert!(outside.join().unwrap());
    }
}
