//! Offline stand-in for the subset of
//! [`parking_lot` 0.12](https://docs.rs/parking_lot/0.12) this workspace
//! uses: poison-free `Mutex` and `RwLock` with guard-returning `lock` /
//! `read` / `write` and `into_inner`.
//!
//! Backed by `std::sync`; lock poisoning is swallowed (a poisoned lock hands
//! back the inner guard), which matches `parking_lot`'s no-poisoning
//! semantics for the ways this workspace uses it.
//!
//! A `Mutex` that is held elsewhere blocks as `std`'s does, except for a
//! thread counted in virtual time (`crossbeam::clock`): that one parks on
//! the clock as a poller, so time can advance while it waits.

use std::sync::{
    Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock,
    RwLockReadGuard as StdReadGuard, RwLockWriteGuard as StdWriteGuard,
};

/// A mutual-exclusion lock without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

/// RAII guard for [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized>(StdMutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is acquired.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(guard) = self.try_lock() {
            return guard;
        }
        if let Some(mut wait) = crossbeam::clock::Wait::begin() {
            loop {
                wait.poll();
                if let Some(guard) = self.try_lock() {
                    return guard;
                }
            }
        }
        MutexGuard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Tries to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(g)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard(e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// A reader-writer lock without poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(StdRwLock<T>);

/// RAII guard for [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized>(StdReadGuard<'a, T>);

/// RAII guard for [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(StdWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Creates a new unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock(StdRwLock::new(value))
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    /// A migration waits for its `Retire` reply with the lane locks held:
    /// a thread blocked on such a lock must count as parked, or virtual time
    /// could never reach the wait's deadline.
    #[test]
    fn a_lock_waiter_counts_as_parked() {
        use crossbeam::{channel, clock};
        use std::time::Duration;

        let _virtual = clock::virtual_time();
        let t0 = clock::now();
        let lane = std::sync::Arc::new(Mutex::new(0u32));
        let (_retire_tx, retire_rx) = channel::bounded::<()>(1);
        let (held_tx, held_rx) = channel::bounded(1);
        let migration = {
            let lane = std::sync::Arc::clone(&lane);
            clock::spawn("migration".into(), move || {
                let mut frozen = lane.lock();
                held_tx.send(()).unwrap();
                // Nobody answers: the wait ends at its deadline.
                let answer = retire_rx.recv_timeout(Duration::from_secs(10));
                *frozen += 1;
                answer.is_err()
            })
            .unwrap()
        };
        held_rx.recv().unwrap();
        let ingest = {
            let lane = std::sync::Arc::clone(&lane);
            clock::spawn("ingest".into(), move || {
                let mut lane = lane.lock();
                *lane += 1;
                clock::now()
            })
            .unwrap()
        };
        assert_eq!(ingest.join().unwrap() - t0, Duration::from_secs(10));
        assert!(migration.join().unwrap(), "the retire wait timed out");
        assert_eq!(*lane.lock(), 2);
    }

    #[test]
    fn mutex_across_threads() {
        let m = std::sync::Arc::new(Mutex::new(0usize));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }
}
