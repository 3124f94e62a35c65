//! Named locks: a `Mutex` and an `RwLock` that carry a static name.
//!
//! [`Tracked`] and [`TrackedRw`] delegate every call to the `std` lock
//! inside and hand back its guards. The name is read by nobody at run
//! time: it is the key `zerosum audit` knows the lock by in the source
//! (`Tracked::new("name", …)` binds its receiver to `name`), which is
//! how its findings name a lock taken, or blocked on, under a live
//! guard. The static pass skips this file, whose interior
//! `inner.lock()` calls would otherwise merge every named lock into one
//! key.

use std::sync::{
    LockResult, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockResult,
};

/// A `Mutex` with a name for the static audit.
#[derive(Debug)]
pub struct Tracked<T: ?Sized> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> Tracked<T> {
    /// Wraps `value` under `name`. Names are the audit's lock keys —
    /// use stable, dotted, crate-qualified names.
    pub const fn new(name: &'static str, value: T) -> Self {
        Tracked {
            name,
            inner: Mutex::new(value),
        }
    }

    /// Consumes the wrapper, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Tracked<T> {
    /// The lock's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// [`Mutex::lock`], poisoning included.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        self.inner.lock()
    }

    /// [`Mutex::try_lock`].
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        self.inner.try_lock()
    }
}

/// An `RwLock` with a name for the static audit — the reader-writer
/// twin of [`Tracked`].
///
/// A shared node simulation is sampled under a read guard and advanced
/// under a write guard strictly between rounds (`core::shard`'s source
/// handle). Both modes are one key.
#[derive(Debug)]
pub struct TrackedRw<T: ?Sized> {
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> TrackedRw<T> {
    /// Wraps `value` under `name` (the audit's lock key).
    pub const fn new(name: &'static str, value: T) -> Self {
        TrackedRw {
            name,
            inner: RwLock::new(value),
        }
    }

    /// Consumes the wrapper, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> TrackedRw<T> {
    /// The lock's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// [`RwLock::read`], poisoning included.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        self.inner.read()
    }

    /// [`RwLock::write`], poisoning included.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        self.inner.write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_lock_holds_and_guard_data_flows() {
        static T_E: Tracked<Vec<u32>> = Tracked::new("test.sync.e", Vec::new());
        {
            let mut g = T_E.try_lock().unwrap();
            g.push(7);
            assert!(T_E.try_lock().is_err(), "a held lock is not lent twice");
        }
        assert_eq!(*T_E.lock().unwrap(), vec![7]);
        assert_eq!(T_E.name(), "test.sync.e");
    }

    #[test]
    fn rw_guards_flow_data() {
        static T_RW: TrackedRw<u32> = TrackedRw::new("test.sync.rw", 0);
        {
            let mut w = T_RW.write().unwrap();
            *w = 41;
        }
        let (a, b) = (T_RW.read().unwrap(), T_RW.read().unwrap());
        assert_eq!((*a, *b), (41, 41), "readers share");
        assert_eq!(T_RW.name(), "test.sync.rw");
    }
}
