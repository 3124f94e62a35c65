//! [`TrackedRw`]: an `RwLock` that carries a static name.
//!
//! It delegates every call to the `std` lock inside and hands back its
//! guards; nobody reads the name at run time. It is here only because
//! the frozen benchmark's `sim_sharded` workload imports it
//! (`benchmark/src/workloads/sim_sharded.rs`), and `core::shard`'s
//! source handle holds one. It leaves with `core::shard` (ROADMAP
//! item 1).
#![expect(
    clippy::disallowed_types,
    reason = "the frozen benchmark's `sim_sharded_wide` compiles against `TrackedRw`"
)]

use std::sync::{LockResult, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An `RwLock` with a name.
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
    /// Wraps `value` under `name`.
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
