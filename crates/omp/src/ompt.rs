//! OMPT-style tool callbacks.
//!
//! §3.1.2 of the paper: for OpenMP 5.1+ runtimes, ZeroSum registers an
//! OMPT callback so the runtime notifies the tool when an OpenMP thread
//! is created, letting ZeroSum identify which POSIX threads back OpenMP
//! threads. This module is the callback registry of our simulated
//! runtime; the monitored-job launcher of `zerosum-experiments` registers
//! against it exactly as the real tool registers against OMPT.

use zerosum_proc::Tid;

/// The type of an OpenMP thread, as reported in `thread-begin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmpThreadType {
    /// The initial (master) thread of the team.
    Initial,
    /// A worker thread.
    Worker,
}

/// Data passed to a `thread-begin` callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBegin {
    /// OpenMP thread number within the team (0 = master).
    pub thread_num: usize,
    /// The backing LWP id.
    pub tid: Tid,
    /// Initial or worker.
    pub thread_type: OmpThreadType,
}

/// A registry of tool callbacks, like `ompt_set_callback`. A callback
/// may borrow from its caller: a registry lives only as long as the
/// launch it is lent to.
#[derive(Default)]
pub struct OmptRegistry<'a> {
    thread_begin: Vec<Box<dyn FnMut(ThreadBegin) + 'a>>,
}

impl<'a> OmptRegistry<'a> {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a `thread-begin` callback.
    pub fn on_thread_begin(&mut self, cb: impl FnMut(ThreadBegin) + 'a) {
        self.thread_begin.push(Box::new(cb));
    }

    /// Fires `thread-begin` to every registered tool.
    pub fn emit_thread_begin(&mut self, ev: ThreadBegin) {
        for cb in &mut self.thread_begin {
            cb(ev);
        }
    }
}

impl std::fmt::Debug for OmptRegistry<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OmptRegistry")
            .field("thread_begin_callbacks", &self.thread_begin.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn callbacks_fire_in_registration_order() {
        let seen = RefCell::new(Vec::new());
        let mut reg = OmptRegistry::new();
        for tag in ["a", "b"] {
            let seen = &seen;
            reg.on_thread_begin(move |ev| seen.borrow_mut().push((tag, ev.thread_num, ev.tid)));
        }
        reg.emit_thread_begin(ThreadBegin {
            thread_num: 2,
            tid: 77,
            thread_type: OmpThreadType::Worker,
        });
        assert_eq!(&*seen.borrow(), &[("a", 2, 77), ("b", 2, 77)]);
    }
}
