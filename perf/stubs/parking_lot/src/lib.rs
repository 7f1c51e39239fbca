//! Offline stand-in for the subset of `parking_lot` 0.12 that coded-curtain
//! uses: `Mutex` and `Condvar` over the standard library's futex-based
//! primitives, with parking_lot's signatures (no poisoning, `lock()` returns
//! the guard, `Condvar::wait*` borrows the guard mutably).

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, TryLockError};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Holds the std guard in an `Option` so `Condvar` can move it out and back.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(v: T) -> Self {
        Mutex(sync::Mutex::new(v))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard is present outside a condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard is present outside a condvar wait")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub fn notify_all(&self) -> usize {
        self.0.notify_all();
        0
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.0.take().expect("guard is present outside a condvar wait");
        guard.0 = Some(self.0.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.0.take().expect("guard is present outside a condvar wait");
        let (g, res) = self.0.wait_timeout(g, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(g);
        WaitTimeoutResult(res.timed_out())
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }
}
