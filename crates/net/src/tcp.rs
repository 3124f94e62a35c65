//! The real-socket [`Link`] backend: length-prefixed frames over a
//! non-blocking TCP stream.
//!
//! `TcpLink` mirrors the in-process backend's contract exactly: a
//! bounded send window (frames accepted but not yet fully written to
//! the socket), `WindowFull` backpressure, and `Disconnected` on any
//! tear — so the same agent, collector, and
//! [`crate::fault::FaultyLink`] chaos wrapper run unchanged over
//! loopback TCP.
//!
//! Sends are **coalesced**: `send_bytes` appends the frame to one
//! reusable byte buffer and the socket `write` happens in `tick()` —
//! or earlier, once 16 KiB (`COALESCE_BYTES`) of unwritten bytes have
//! piled up — so a round costs one `write(2)` per connection per
//! direction however many frames it carries, and no per-frame
//! allocation. A frame handed over after the tick waits for the next
//! one, which is why the agent tick and the collector pump *end* with
//! the link tick.
//!
//! The implementation is poll-driven and clock-free: *no* `Instant`
//! reads and no sleeping here (pacing belongs to the caller's loop),
//! which keeps this backend out of the nondeterminism audit's finding
//! set even though the call graph resolves `Link` methods to every
//! backend.
//!
//! IO errors are stringified at this boundary ([`TransportError::Io`])
//! — raw `io::Error` sources never cross the net API.

use crate::transport::{Link, SendStatus, TransportError};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};

/// One TCP endpoint speaking the frame protocol.
#[derive(Debug)]
pub struct TcpLink {
    /// Redial target; `None` on accepted (collector-side) links, which
    /// cannot reconnect — a reconnecting agent shows up as a fresh
    /// accepted connection instead.
    addr: Option<String>,
    stream: Option<TcpStream>,
    /// The coalescing buffer: accepted frames back to back.
    /// `buf[written..]` has not reached the socket yet.
    buf: Vec<u8>,
    /// Bytes at the front of `buf` the socket has already taken.
    written: usize,
    /// End offset in `buf` of every frame not yet fully written, in
    /// order; its length is what the send window counts.
    frame_ends: VecDeque<usize>,
    /// Send-window bound, frames.
    window: usize,
}

/// Default send-window bound, frames.
pub const DEFAULT_WINDOW: usize = 64;

/// Bytes one `read` of `recv_bytes` asks for, and how many such reads
/// one call makes at most: a round's frames fit the first chunk, and a
/// flood is handed back to the caller every 64 KiB.
const RECV_CHUNK: usize = 4096;
const RECV_CHUNKS: usize = 16;

/// Unwritten bytes at which `send_bytes` writes without waiting for the
/// tick: bounds the buffer under a burst and stays well inside a
/// loopback socket buffer, so the early write is still one syscall.
const COALESCE_BYTES: usize = 16 * 1024;

fn io_err(e: &std::io::Error) -> TransportError {
    TransportError::Io(e.to_string())
}

impl TcpLink {
    fn with_stream(addr: Option<String>, stream: Option<TcpStream>, window: usize) -> TcpLink {
        TcpLink {
            addr,
            stream,
            buf: Vec::new(),
            written: 0,
            frame_ends: VecDeque::new(),
            window: window.max(1),
        }
    }

    /// Dials `addr` (e.g. `127.0.0.1:7070`) with a bounded send window.
    pub fn dial(addr: &str, window: usize) -> Result<TcpLink, TransportError> {
        let mut link = TcpLink::with_stream(Some(addr.to_string()), None, window);
        link.connect()?;
        Ok(link)
    }

    /// Wraps an accepted server-side stream.
    pub fn accepted(stream: TcpStream, window: usize) -> Result<TcpLink, TransportError> {
        stream.set_nonblocking(true).map_err(|e| io_err(&e))?;
        stream.set_nodelay(true).map_err(|e| io_err(&e))?;
        Ok(TcpLink::with_stream(None, Some(stream), window))
    }

    /// Forgets everything accepted but not written (a tear or redial:
    /// in-flight frames do not survive the connection).
    fn drop_unwritten(&mut self) {
        self.buf.clear();
        self.written = 0;
        self.frame_ends.clear();
    }

    /// Writes as much of the coalescing buffer as the socket accepts
    /// right now, releasing the window slot of every frame whose last
    /// byte went out. Returns `false` on a tear (the stream is dropped).
    fn flush(&mut self) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        while let Some(rest) = self.buf.get(self.written..).filter(|r| !r.is_empty()) {
            match stream.write(rest) {
                Ok(0) => {
                    self.stream = None;
                    return false;
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.stream = None;
                    return false;
                }
            }
        }
        while self
            .frame_ends
            .front()
            .is_some_and(|&end| end <= self.written)
        {
            self.frame_ends.pop_front();
        }
        // Reclaim the written prefix once it is at least as long as what
        // is left (all of it, after a full drain), so a peer that never
        // quite catches up cannot grow the buffer without bound and the
        // copy stays amortised.
        if self.written > 0 && self.written >= self.buf.len() - self.written {
            self.buf.drain(..self.written);
            for end in &mut self.frame_ends {
                *end -= self.written;
            }
            self.written = 0;
        }
        true
    }
}

impl Link for TcpLink {
    fn send_bytes(&mut self, frame: &[u8]) -> Result<SendStatus, TransportError> {
        if self.stream.is_none() {
            return Err(TransportError::Disconnected);
        }
        if self.frame_ends.len() >= self.window {
            // Try to drain before refusing — the window measures real
            // socket backpressure, not tick granularity.
            if !self.flush() {
                return Err(TransportError::Disconnected);
            }
            if self.frame_ends.len() >= self.window {
                return Ok(SendStatus::WindowFull);
            }
        }
        self.buf.extend_from_slice(frame);
        self.frame_ends.push_back(self.buf.len());
        if self.buf.len() - self.written >= COALESCE_BYTES && !self.flush() {
            return Err(TransportError::Disconnected);
        }
        Ok(SendStatus::Sent)
    }

    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> Result<usize, TransportError> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(TransportError::Disconnected);
        };
        let before = buf.len();
        let mut torn = None;
        // Straight into `buf`, at most `RECV_CHUNKS` reads, and another
        // one only after a read that filled its chunk: a read that came
        // up short emptied the socket (no second `read` just to be told
        // `EAGAIN`), and a peer that writes as fast as this loop reads
        // cannot keep the caller in it.
        for _ in 0..RECV_CHUNKS {
            let at = buf.len();
            buf.resize(at + RECV_CHUNK, 0);
            let read = stream.read(buf.get_mut(at..).unwrap_or(&mut []));
            buf.truncate(at + *read.as_ref().unwrap_or(&0));
            match read {
                Ok(RECV_CHUNK) => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Orderly EOF: peer closed.
                Ok(0) => torn = Some(TransportError::Disconnected),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => torn = Some(io_err(&e)),
            }
            break;
        }
        let total = buf.len() - before;
        match torn {
            // A tear with bytes in hand reports the bytes; the next
            // call reports the tear.
            Some(e) => {
                self.stream = None;
                if total > 0 {
                    Ok(total)
                } else {
                    Err(e)
                }
            }
            None => Ok(total),
        }
    }

    fn tick(&mut self) {
        self.flush();
    }

    fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    fn connect(&mut self) -> Result<(), TransportError> {
        let Some(addr) = self.addr.clone() else {
            // Accepted links cannot redial; the agent side owns
            // reconnection.
            return Err(TransportError::Disconnected);
        };
        self.drop_unwritten();
        let stream = TcpStream::connect(&addr).map_err(|e| io_err(&e))?;
        stream.set_nonblocking(true).map_err(|e| io_err(&e))?;
        stream.set_nodelay(true).map_err(|e| io_err(&e))?;
        self.stream = Some(stream);
        Ok(())
    }

    fn shutdown(&mut self) {
        self.drop_unwritten();
        self.stream = None;
    }
}

/// A non-blocking accept loop for the collector daemon.
#[derive(Debug)]
pub struct Acceptor {
    listener: TcpListener,
}

impl Acceptor {
    /// Binds `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> Result<Acceptor, TransportError> {
        let listener = TcpListener::bind(addr).map_err(|e| io_err(&e))?;
        listener.set_nonblocking(true).map_err(|e| io_err(&e))?;
        Ok(Acceptor { listener })
    }

    /// The bound address (`ip:port`), for port-file handoff.
    pub fn local_addr(&self) -> Result<String, TransportError> {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .map_err(|e| io_err(&e))
    }

    /// Accepts one pending connection, if any.
    pub fn poll_accept(&self, window: usize) -> Result<Option<TcpLink>, TransportError> {
        match self.listener.accept() {
            Ok((stream, _peer)) => TcpLink::accepted(stream, window).map(Some),
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(io_err(&e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::NodeAgent;
    use crate::collector::Collector;
    use zerosum_core::{NodeAggregate, NodeState};

    /// Bound on every wait for loopback delivery.
    const SPINS: u32 = 100_000;

    /// Binds a loopback listener, or `None` when the sandbox forbids
    /// sockets (the CI smoke stage reports that case visibly; here we
    /// can only skip, and say so).
    fn try_acceptor() -> Option<Acceptor> {
        let acceptor = Acceptor::bind("127.0.0.1:0").ok();
        if acceptor.is_none() {
            eprintln!("tcp test: SKIPPED (sandbox forbids sockets)");
        }
        acceptor
    }

    /// Accepts the one pending connection (retry: non-blocking accept
    /// may race the connect).
    fn accept_one(acceptor: &Acceptor, window: usize) -> TcpLink {
        for _ in 0..SPINS {
            if let Some(l) = acceptor.poll_accept(window).unwrap() {
                return l;
            }
            std::thread::yield_now();
        }
        panic!("loopback accept never completed");
    }

    /// A connected `(dialled, accepted)` pair, or `None` without sockets.
    fn connected_pair(window: usize) -> Option<(TcpLink, TcpLink)> {
        let acceptor = try_acceptor()?;
        let dialled = TcpLink::dial(&acceptor.local_addr().unwrap(), window).unwrap();
        let accepted = accept_one(&acceptor, window);
        Some((dialled, accepted))
    }

    /// Polls `link` until `want` bytes arrived in `into`.
    fn recv_exactly(link: &mut TcpLink, into: &mut Vec<u8>, want: usize) {
        for _ in 0..SPINS {
            link.recv_bytes(into).unwrap();
            if into.len() >= want {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(into.len(), want, "bytes delivered over loopback");
    }

    /// A second handle on `link`'s socket, to wait for delivery without
    /// consuming anything.
    fn probe_of(link: &TcpLink) -> TcpStream {
        link.stream.as_ref().unwrap().try_clone().unwrap()
    }

    /// Spins until the kernel has delivered something to `probe`.
    fn await_inbound(probe: &TcpStream) {
        let mut byte = [0u8; 1];
        for _ in 0..SPINS {
            if matches!(probe.peek(&mut byte), Ok(1)) {
                return;
            }
            std::thread::yield_now();
        }
        panic!("nothing arrived over loopback");
    }

    fn sample_agg() -> NodeAggregate {
        NodeAggregate {
            hostname: "tcp-node".into(),
            ranks: 1,
            lwps: 4,
            mean_user_pct: 88.5,
            mean_idle_pct: 10.0,
            total_nvcsw: 7,
            rss_kib: 2048,
        }
    }

    #[test]
    fn loopback_agent_to_collector_roundtrip() {
        let Some((dial, accepted)) = connected_pair(8) else {
            return; // sandbox forbids sockets; ci.sh surfaces SKIPPED
        };
        let mut agent = NodeAgent::new(dial, "tcp-node");
        let mut collector = Collector::new();
        collector.expect_node("tcp-node");
        collector.add_link(Box::new(accepted));
        let agg = sample_agg();
        for r in 1..=4u64 {
            agent.begin_round(r, r as f64 * 0.1);
            agent.send_detail(r, 42, 50.0);
            // Loopback delivery is asynchronous: pump until this
            // round's heartbeat lands, then close the round (a
            // heartbeat latches until `end_round` consumes it).
            for _ in 0..10_000 {
                agent.tick();
                collector.pump_frames();
                if collector.stats.heartbeats_rx >= r {
                    break;
                }
            }
            collector.run_round();
        }
        agent.finish(4, agg.clone());
        for _ in 0..2000 {
            agent.tick();
            collector.pump_frames();
            if agent.done() && !collector.wire_aggregates().is_empty() {
                break;
            }
        }
        assert!(agent.done(), "aggregate never acked over loopback");
        assert_eq!(collector.wire_aggregates(), vec![agg]);
        assert_eq!(collector.cluster().node_state("tcp-node"), NodeState::Alive);
        assert_eq!(collector.stats.decode_errors, 0);
    }

    #[test]
    fn small_frames_wait_for_the_tick_and_arrive_as_their_concatenation() {
        let Some((mut link, mut peer)) = connected_pair(64) else {
            return;
        };
        let mut want = Vec::new();
        for i in 0..50u8 {
            let frame = [i; 24];
            assert_eq!(link.send_bytes(&frame).unwrap(), SendStatus::Sent);
            want.extend_from_slice(&frame);
        }
        // Nothing was written, so nothing can have arrived.
        let mut got = Vec::new();
        assert_eq!(peer.recv_bytes(&mut got).unwrap(), 0);
        assert_eq!(link.frame_ends.len(), 50);
        link.tick();
        assert!(link.frame_ends.is_empty(), "one write took the whole burst");
        assert!(link.buf.is_empty(), "buffer recycled after a full drain");
        recv_exactly(&mut peer, &mut got, want.len());
        assert_eq!(got, want);
    }

    #[test]
    fn a_burst_over_the_threshold_leaves_before_the_tick() {
        let Some((mut link, mut peer)) = connected_pair(64) else {
            return;
        };
        let frame = [7u8; 1024];
        let before = COALESCE_BYTES / frame.len();
        for _ in 0..before - 1 {
            link.send_bytes(&frame).unwrap();
        }
        assert_eq!(link.frame_ends.len(), before - 1, "under the threshold");
        link.send_bytes(&frame).unwrap();
        assert!(link.frame_ends.is_empty(), "threshold reached: written");
        // One more small frame is held again.
        link.send_bytes(b"tail").unwrap();
        let mut got = Vec::new();
        recv_exactly(&mut peer, &mut got, COALESCE_BYTES);
        link.tick();
        recv_exactly(&mut peer, &mut got, COALESCE_BYTES + 4);
        assert!(got.ends_with(b"tail"));
    }

    #[test]
    fn a_flooding_peer_cannot_hold_the_reader_in_one_call() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let Some((mut link, mut peer)) = connected_pair(8) else {
            return;
        };
        // The writer fills both socket buffers on a clone of the
        // dialled socket, says so, and then floods for as long as the
        // test lets it. Every call of the reader must come back with at
        // most its bound, however much is waiting and still arriving.
        let mut flood = link.stream.as_ref().unwrap().try_clone().unwrap();
        let (filled, is_filled) = std::sync::mpsc::channel();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stopped = std::sync::Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let block = [0x5au8; 64 * 1024];
            let mut sent = 0usize;
            while let Ok(n) = flood.write(&block) {
                sent += n;
            }
            filled.send(sent).unwrap();
            // (The flag is the open file's: `link` blocks now too.)
            flood.set_nonblocking(false).unwrap();
            while !stopped.load(Ordering::Relaxed) {
                match flood.write(&block) {
                    Ok(n) => sent += n,
                    Err(_) => break,
                }
            }
            sent
        });
        let bound = RECV_CHUNK * RECV_CHUNKS;
        let buffered = is_filled.recv().unwrap();
        assert!(buffered > bound, "the sockets buffer only {buffered} bytes");
        let mut got = Vec::new();
        let (mut calls, mut largest) = (0usize, 0usize);
        while got.len() < 32 * bound {
            let n = peer.recv_bytes(&mut got).unwrap();
            assert!(n <= bound, "one call read {n} bytes");
            calls += 1;
            largest = largest.max(n);
        }
        assert!(
            calls >= 32 && largest > RECV_CHUNK,
            "{calls} calls, {largest} at most"
        );
        stop.store(true, Ordering::Relaxed);
        // Drain until the writer has seen the flag and hung up (its
        // clone is then the socket's last holder).
        link.shutdown();
        while peer.recv_bytes(&mut got).is_ok() {}
        let sent = writer.join().unwrap();
        assert_eq!(got.len(), sent, "every byte sent arrived");
        assert!(got.iter().all(|&b| b == 0x5a));
        // A quiet socket costs one read that says so.
        let Some((_dial, mut idle)) = connected_pair(8) else {
            return;
        };
        got.clear();
        assert_eq!(idle.recv_bytes(&mut got), Ok(0));
        assert!(got.is_empty());
    }

    #[test]
    fn window_refuses_frames_when_peer_stalls() {
        const FRAME: usize = 256 * 1024;
        let Some((mut link, mut peer)) = connected_pair(2) else {
            return;
        };
        // The peer does not read; the OS buffers soak up a few frames,
        // then a write goes partial and unwritten frames hit the window.
        // Frame `i` is filled with byte `i`, so order and ownership of
        // every delivered byte can be checked.
        let mut accepted = 0usize;
        loop {
            assert!(accepted < 256, "the OS buffered 64 MiB?");
            match link.send_bytes(&vec![accepted as u8; FRAME]).unwrap() {
                SendStatus::Sent => accepted += 1,
                SendStatus::WindowFull => break,
            }
        }
        // The window counts frames not *fully* written: the front one
        // may be partly on the wire, the one behind it not at all.
        assert_eq!(link.frame_ends.len(), 2);
        let unwritten = link.buf.len() - link.written;
        assert!(unwritten > FRAME && unwritten <= 2 * FRAME, "{unwritten}");
        // A refused frame left nothing behind.
        assert_eq!(link.frame_ends.back(), Some(&link.buf.len()));
        // As the peer drains, ticks write the rest and free the slots.
        let mut got = Vec::new();
        for _ in 0..SPINS {
            peer.recv_bytes(&mut got).unwrap();
            link.tick();
            if link.frame_ends.is_empty() {
                break;
            }
            std::thread::yield_now();
        }
        assert!(link.frame_ends.is_empty() && link.buf.is_empty());
        assert_eq!(link.send_bytes(b"again").unwrap(), SendStatus::Sent);
        link.tick();
        recv_exactly(&mut peer, &mut got, accepted * FRAME + 5);
        for (i, frame) in got.chunks_exact(FRAME).enumerate() {
            assert!(frame.iter().all(|&b| b == i as u8), "frame {i} torn");
        }
        assert!(got.ends_with(b"again"));
    }

    #[test]
    fn aggregate_and_its_ack_each_leave_in_the_call_that_queued_them() {
        let Some((dial, accepted)) = connected_pair(8) else {
            return;
        };
        let (agent_probe, collector_probe) = (probe_of(&dial), probe_of(&accepted));
        let mut agent = NodeAgent::new(dial, "tcp-node");
        let mut collector = Collector::new();
        collector.add_link(Box::new(accepted));
        agent.begin_round(1, 0.1);
        agent.finish(1, sample_agg());
        agent.tick();
        await_inbound(&collector_probe);
        collector.pump_frames();
        assert_eq!(collector.wire_aggregates(), vec![sample_agg()]);
        await_inbound(&agent_probe);
        agent.tick();
        assert!(agent.done(), "ack left in the pump that produced it");
        assert_eq!(agent.stats.agg_retx, 0);
        assert_eq!(collector.stats.frames_rx, 3, "hello, heartbeat, aggregate");
    }

    #[test]
    fn peer_close_surfaces_as_disconnected_then_redial_works() {
        let Some(acceptor) = try_acceptor() else {
            return;
        };
        let addr = acceptor.local_addr().unwrap();
        let mut link = TcpLink::dial(&addr, 8).unwrap();
        drop(accept_one(&acceptor, 8)); // collector side goes away
        let mut buf = Vec::new();
        let mut torn = false;
        for _ in 0..10_000 {
            link.tick();
            if link.send_bytes(b"ping").is_err() || link.recv_bytes(&mut buf).is_err() {
                torn = true;
                break;
            }
        }
        assert!(torn, "peer close never surfaced");
        link.send_bytes(b"lost").ok();
        assert!(link.connect().is_ok(), "redial against live listener");
        assert!(link.is_connected());
        assert!(
            link.buf.is_empty() && link.frame_ends.is_empty(),
            "a redial drops what the old connection had not written"
        );
    }
}
