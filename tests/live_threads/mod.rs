//! Threads for the tests that watch their own process through the live
//! `/proc`. Shared by `tests/read_budget.rs`, `tests/handle_cache.rs`
//! and, through `#[path]`, `zerosum-proc`'s `linux.rs` unit tests.

use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

/// The calling thread's tid, from `/proc/thread-self`.
pub fn own_tid() -> u32 {
    let link = std::fs::read_link("/proc/thread-self").unwrap();
    link.file_name().unwrap().to_str().unwrap().parse().unwrap()
}

/// A thread that reports its tid, then stays parked until its sender is
/// dropped.
pub fn parked_thread() -> (u32, Sender<()>, JoinHandle<()>) {
    let (tid_tx, tid_rx) = channel();
    let (go_tx, go_rx) = channel::<()>();
    let handle = std::thread::spawn(move || {
        tid_tx.send(own_tid()).unwrap();
        let _ = go_rx.recv();
    });
    (tid_rx.recv().unwrap(), go_tx, handle)
}
