//! Offline stand-in for the subset of
//! [`crossbeam` 0.8](https://docs.rs/crossbeam/0.8) this workspace uses:
//! [`scope`]d threads and MPMC [`channel`]s (bounded and unbounded, with
//! timeouts and disconnection semantics).
//!
//! `scope` delegates to `std::thread::scope`; the channels are a
//! Mutex + Condvar ring implementing the crossbeam semantics the runtime
//! relies on — cloneable senders *and* receivers, `recv_timeout`, and
//! "channel disconnects when the other side is fully dropped". A receiver
//! blocks like crossbeam's: it backs off, then parks (one `yield_now`, no
//! spin phase — see [`channel`]).

pub mod channel;

/// Scoped-thread environment handed to the [`scope`] closure.
///
/// A thin wrapper over [`std::thread::Scope`], kept `Copy` so spawned
/// closures can themselves spawn (crossbeam passes the scope to each child).
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl Clone for Scope<'_, '_> {
    fn clone(&self) -> Self {
        *self
    }
}

impl Copy for Scope<'_, '_> {}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread. The child receives the scope, so it can
    /// spawn further threads.
    pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let child = *self;
        self.inner.spawn(move || f(&child))
    }
}

/// Runs `f` with a scope in which borrowed-data threads can be spawned; all
/// spawned threads are joined before `scope` returns. Returns `Err` if any
/// spawned thread panicked (matching `crossbeam::scope`).
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        std::thread::scope(|s| f(&Scope { inner: s }))
    }))
}

/// `crossbeam::thread` module alias, mirroring the real crate layout.
pub mod thread {
    pub use super::{scope, Scope};
}

#[cfg(test)]
mod tests {
    #[test]
    fn scope_joins_and_borrows() {
        let data = [1, 2, 3];
        let total = std::sync::atomic::AtomicUsize::new(0);
        super::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    let sum: usize = data.iter().sum();
                    total.fetch_add(sum, std::sync::atomic::Ordering::Relaxed);
                });
            }
        })
        .unwrap();
        assert_eq!(total.into_inner(), 24);
    }

    #[test]
    fn nested_spawn() {
        let hits = std::sync::atomic::AtomicUsize::new(0);
        super::scope(|s| {
            s.spawn(|s2| {
                s2.spawn(|_| {
                    hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            });
        })
        .unwrap();
        assert_eq!(hits.into_inner(), 1);
    }

    #[test]
    fn panics_reported_as_err() {
        let r = super::scope(|s| {
            s.spawn(|_| panic!("child down"));
        });
        assert!(r.is_err());
    }
}
