//! A condition variable that knows whether anyone sleeps on it.
//!
//! `Condvar::notify_*` is a `futex_wake` system call whether or not a
//! thread waits, several times the cost of the lock it follows. On the
//! per-message and per-match paths (a mailbox push, a hub emit, an
//! ingest pop) the other side is usually awake, so most of those calls
//! wake nobody. [`CountedCondvar`] counts its sleepers under the mutex
//! they sleep on, and its `*_unlock` notifiers read that count before
//! releasing the lock: no sleeper, no system call.
//!
//! No wake-up is lost. A waiter increments the count while it holds the
//! lock and releases the lock only inside the wait, so a notifier that
//! takes the lock afterwards sees the sleeper. A notifier that sees
//! none made its change under the lock before any waiter could check
//! its condition, and that waiter finds the change and does not sleep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, MutexGuard};
use std::time::Duration;

/// A [`Condvar`] plus a count of the threads sleeping on it. Every
/// method that takes a guard must be given the guard of the one mutex
/// this condvar is used with: the count is only exact under that lock.
#[derive(Default)]
pub struct CountedCondvar {
    cv: Condvar,
    /// Threads inside [`wait`](CountedCondvar::wait) or
    /// [`wait_timeout`](CountedCondvar::wait_timeout). Changed and read
    /// only under the mutex, so relaxed ordering is enough: the lock
    /// orders every access.
    sleepers: AtomicUsize,
}

impl CountedCondvar {
    /// A condvar with no sleepers.
    pub const fn new() -> CountedCondvar {
        CountedCondvar {
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
        }
    }

    /// Block until notified (or spuriously woken), counted as a sleeper
    /// meanwhile.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        let guard = self.cv.wait(guard).unwrap();
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// [`wait`](CountedCondvar::wait) for at most `dur`.
    pub(crate) fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> MutexGuard<'a, T> {
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        let guard = self.cv.wait_timeout(guard, dur).unwrap().0;
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// Does any thread sleep here? `_held` is the condvar's mutex guard:
    /// the answer holds until that lock is released.
    pub fn has_sleepers<T>(&self, _held: &MutexGuard<'_, T>) -> bool {
        self.sleepers.load(Ordering::Relaxed) > 0
    }

    /// Release `guard`, then wake one sleeper if one slept at release.
    pub(crate) fn notify_one_unlock<T>(&self, guard: MutexGuard<'_, T>) {
        let wake = self.has_sleepers(&guard);
        drop(guard);
        if wake {
            self.cv.notify_one();
        }
    }

    /// Release `guard`, then wake every sleeper if any slept at release.
    pub fn notify_all_unlock<T>(&self, guard: MutexGuard<'_, T>) {
        let wake = self.has_sleepers(&guard);
        drop(guard);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Wake every sleeper without looking: the rare sites (shutdown,
    /// drain, bound lifts) that need not save the system call.
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }
}
