//! The [`Link`] abstraction: one byte-stream endpoint between a node
//! agent and the collector.
//!
//! Two backends implement it. [`InProcLink`] is a deterministic
//! in-process pipe (a pair of frame queues both endpoints share through
//! one `Rc<RefCell<…>>`, so rustc keeps a pipe on the thread that built
//! it) — the tier-1 backend every chaos differential runs on, with no
//! clocks, no threads, no locks and no sockets. `TcpLink` (see
//! [`crate::tcp`]) speaks the same frames over a non-blocking socket.
//! Both expose the same failure surface: sends observe a **bounded
//! window** (backpressure surfaces as [`SendStatus::WindowFull`], never
//! an unbounded queue) and a torn connection surfaces as
//! [`TransportError::Disconnected`], which the agent folds into its
//! reconnect backoff — and the collector's silence-driven
//! Alive→Suspect→Dead machine, not a parallel state machine.
//!
//! Everything here is tick-driven: time is whatever the caller's round
//! loop says it is. That keeps the whole in-process stack inside the
//! nondeterminism audit's det-reachable set with zero findings.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// A transport-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The connection is down. The caller may [`Link::connect`] again;
    /// whether that can succeed is the backend's (or fault plan's)
    /// business.
    Disconnected,
    /// An OS-level IO error, stringified (the net layer never bubbles
    /// raw `io::Error` sources across the API).
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "link disconnected"),
            TransportError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

/// Outcome of a non-failing send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendStatus {
    /// The frame was accepted into the send window.
    Sent,
    /// The send window is full: the frame was **not** taken. Shed it
    /// (per-LWP detail) or hold it for retransmission (aggregates).
    WindowFull,
}

/// One endpoint of a frame-carrying byte stream.
///
/// `send_bytes` takes exactly one encoded frame; `recv_bytes` appends
/// whatever bytes have arrived (frame boundaries are *not* preserved —
/// the collector reassembles with the stream decoder). `tick` advances
/// backend-internal time-free machinery: writing the socket backend's
/// coalescing buffer, releasing fault-delayed frames. A backend may
/// hold accepted frames until its next `tick`, so callers end each
/// agent tick / collector pump with it; `tick` *is* the flush, and the
/// trait deliberately has no separate one (a defaulted method would be
/// swallowed by every forwarding wrapper).
pub trait Link {
    /// Queues one encoded frame; it is on the wire no later than the
    /// end of the next [`Link::tick`]. `Ok(WindowFull)` means the
    /// bounded send window rejected it; the frame was not taken.
    fn send_bytes(&mut self, frame: &[u8]) -> Result<SendStatus, TransportError>;

    /// Appends received bytes to `buf`, returning how many arrived.
    /// `Ok(0)` simply means nothing is pending.
    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> Result<usize, TransportError>;

    /// Advances backend machinery one step: writes every frame queued
    /// but not yet written — on TCP, the bytes in the coalescing buffer,
    /// as far as the socket takes them — and delivers delayed frames.
    /// Fault plans count these calls: one per agent tick, one per
    /// connection per collector pump. Never blocks.
    fn tick(&mut self);

    /// Whether the link currently believes itself connected. A
    /// half-open peer may still answer `true` — only silence at the
    /// supervision layer is authoritative.
    fn is_connected(&self) -> bool;

    /// (Re-)establishes the connection, dropping any in-flight frames
    /// from before the tear.
    fn connect(&mut self) -> Result<(), TransportError>;

    /// Tears the connection down locally.
    fn shutdown(&mut self);
}

impl Link for Box<dyn Link> {
    fn send_bytes(&mut self, frame: &[u8]) -> Result<SendStatus, TransportError> {
        (**self).send_bytes(frame)
    }
    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> Result<usize, TransportError> {
        (**self).recv_bytes(buf)
    }
    fn tick(&mut self) {
        (**self).tick()
    }
    fn is_connected(&self) -> bool {
        (**self).is_connected()
    }
    fn connect(&mut self) -> Result<(), TransportError> {
        (**self).connect()
    }
    fn shutdown(&mut self) {
        (**self).shutdown()
    }
}

/// Shared state of one in-process pipe: two frame queues (one per
/// direction) and a connected flag.
#[derive(Debug, Default)]
struct PipeState {
    /// Frames travelling A → B.
    a_to_b: VecDeque<Vec<u8>>,
    /// Frames travelling B → A.
    b_to_a: VecDeque<Vec<u8>>,
    /// Both endpoints observe the same connected flag: a shutdown on
    /// either side tears the pipe for both.
    connected: bool,
}

/// One endpoint of a deterministic in-process pipe. See
/// [`in_proc_pair`].
#[derive(Debug)]
pub struct InProcLink {
    pipe: Rc<RefCell<PipeState>>,
    /// True on the endpoint that sends A → B.
    side_a: bool,
    /// Send-window bound, frames.
    window: usize,
}

/// Builds a connected in-process pipe with a bounded per-direction
/// send window of `window` frames. Returns `(a, b)`; conventionally
/// the agent holds `a` and the collector holds `b`.
pub fn in_proc_pair(window: usize) -> (InProcLink, InProcLink) {
    let pipe = Rc::new(RefCell::new(PipeState {
        connected: true,
        ..PipeState::default()
    }));
    let a = InProcLink {
        pipe: Rc::clone(&pipe),
        side_a: true,
        window,
    };
    let b = InProcLink {
        pipe,
        side_a: false,
        window,
    };
    (a, b)
}

impl Link for InProcLink {
    fn send_bytes(&mut self, frame: &[u8]) -> Result<SendStatus, TransportError> {
        let mut st = self.pipe.borrow_mut();
        if !st.connected {
            return Err(TransportError::Disconnected);
        }
        let q = if self.side_a {
            &mut st.a_to_b
        } else {
            &mut st.b_to_a
        };
        if q.len() >= self.window {
            return Ok(SendStatus::WindowFull);
        }
        q.push_back(frame.to_vec());
        Ok(SendStatus::Sent)
    }

    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> Result<usize, TransportError> {
        let mut st = self.pipe.borrow_mut();
        if !st.connected {
            return Err(TransportError::Disconnected);
        }
        let q = if self.side_a {
            &mut st.b_to_a
        } else {
            &mut st.a_to_b
        };
        let mut n = 0;
        while let Some(frame) = q.pop_front() {
            n += frame.len();
            buf.extend_from_slice(&frame);
        }
        Ok(n)
    }

    fn tick(&mut self) {}

    fn is_connected(&self) -> bool {
        self.pipe.borrow().connected
    }

    fn connect(&mut self) -> Result<(), TransportError> {
        let mut st = self.pipe.borrow_mut();
        // A reconnect is a *new* stream: frames in flight at the tear
        // are gone, exactly like a fresh TCP connection.
        st.a_to_b.clear();
        st.b_to_a.clear();
        st.connected = true;
        Ok(())
    }

    fn shutdown(&mut self) {
        let mut st = self.pipe.borrow_mut();
        st.a_to_b.clear();
        st.b_to_a.clear();
        st.connected = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_carries_bytes_both_ways() {
        let (mut a, mut b) = in_proc_pair(4);
        assert!(a.is_connected() && b.is_connected());
        assert_eq!(a.send_bytes(b"ping").unwrap(), SendStatus::Sent);
        assert_eq!(b.send_bytes(b"pong").unwrap(), SendStatus::Sent);
        let mut got = Vec::new();
        assert_eq!(b.recv_bytes(&mut got).unwrap(), 4);
        assert_eq!(got, b"ping");
        got.clear();
        assert_eq!(a.recv_bytes(&mut got).unwrap(), 4);
        assert_eq!(got, b"pong");
    }

    #[test]
    fn window_bounds_the_send_queue() {
        let (mut a, mut b) = in_proc_pair(2);
        assert_eq!(a.send_bytes(b"1").unwrap(), SendStatus::Sent);
        assert_eq!(a.send_bytes(b"2").unwrap(), SendStatus::Sent);
        assert_eq!(a.send_bytes(b"3").unwrap(), SendStatus::WindowFull);
        let mut got = Vec::new();
        b.recv_bytes(&mut got).unwrap();
        assert_eq!(got, b"12");
        // Draining reopens the window.
        assert_eq!(a.send_bytes(b"3").unwrap(), SendStatus::Sent);
    }

    #[test]
    fn shutdown_tears_both_ends_and_reconnect_loses_in_flight() {
        let (mut a, mut b) = in_proc_pair(4);
        a.send_bytes(b"lost").unwrap();
        b.shutdown();
        assert!(!a.is_connected());
        assert_eq!(a.send_bytes(b"x"), Err(TransportError::Disconnected));
        let mut got = Vec::new();
        assert_eq!(b.recv_bytes(&mut got), Err(TransportError::Disconnected));
        a.connect().unwrap();
        assert!(b.is_connected());
        // The pre-tear frame did not survive the reconnect.
        assert_eq!(b.recv_bytes(&mut got).unwrap(), 0);
        assert_eq!(a.send_bytes(b"y").unwrap(), SendStatus::Sent);
        assert_eq!(b.recv_bytes(&mut got).unwrap(), 1);
    }
}
