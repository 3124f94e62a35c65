//! The simulated MPI world and point-to-point byte accounting.
//!
//! §3.1.3 of the paper: ZeroSum wraps the MPI point-to-point API to
//! capture total bytes transferred and the sender/receiver ranks, which
//! post-processes into communication heatmaps (Figure 5). This module
//! provides the substrate being wrapped: a process-local "MPI world"
//! whose communicators record every `send` into a shared traffic matrix —
//! exactly the data the real tool's PMPI wrappers accumulate. The world
//! and its communicators share the matrix through one `Rc<RefCell<…>>`:
//! a simulated job drives every rank from one thread, and rustc keeps it
//! there.

use std::cell::RefCell;
use std::rc::Rc;

/// The world: rank count plus the shared traffic matrix.
#[derive(Debug, Clone)]
pub struct CommWorld {
    size: usize,
    matrix: Rc<RefCell<CommMatrix>>,
}

impl CommWorld {
    /// Creates a world of `size` ranks.
    ///
    /// # Panics
    /// If `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "MPI world needs at least one rank");
        CommWorld {
            size,
            matrix: Rc::new(RefCell::new(CommMatrix::new(size))),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// A communicator handle for `rank`.
    ///
    /// # Panics
    /// If `rank >= size`.
    pub fn communicator(&self, rank: usize) -> Communicator {
        assert!(rank < self.size, "rank {rank} out of range");
        Communicator {
            rank,
            size: self.size,
            matrix: Rc::clone(&self.matrix),
        }
    }

    /// A snapshot of the accumulated traffic matrix.
    pub fn matrix(&self) -> CommMatrix {
        self.matrix.borrow().clone()
    }
}

/// A per-rank communicator, analogous to `MPI_COMM_WORLD` seen from one
/// rank, with ZeroSum's byte-accounting wrappers installed.
#[derive(Debug, Clone)]
pub struct Communicator {
    rank: usize,
    size: usize,
    matrix: Rc<RefCell<CommMatrix>>,
}

impl Communicator {
    /// This rank (like `MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size (like `MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Sends `bytes` to `dest` (the wrapped `MPI_Send`/`MPI_Isend` path).
    ///
    /// # Panics
    /// If `dest >= size`.
    pub fn send(&self, dest: usize, bytes: u64) {
        assert!(dest < self.size, "send to invalid rank {dest}");
        self.matrix.borrow_mut().record(self.rank, dest, bytes);
    }

    /// Receives from `src`. The wrapped receive records nothing (bytes
    /// are accounted at the sender) but is provided for API fidelity.
    pub fn recv(&self, src: usize, _bytes: u64) {
        debug_assert!(src < self.size, "recv from invalid rank {src}");
    }

    /// A sendrecv convenience (halo-exchange building block).
    pub fn sendrecv(&self, dest: usize, send_bytes: u64, src: usize, recv_bytes: u64) {
        self.send(dest, send_bytes);
        self.recv(src, recv_bytes);
    }
}

/// The rank-by-rank traffic matrix: `bytes[src][dst]` plus message counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommMatrix {
    size: usize,
    bytes: Vec<u64>,
    messages: Vec<u64>,
}

impl CommMatrix {
    /// An empty `size × size` matrix.
    pub fn new(size: usize) -> Self {
        CommMatrix {
            size,
            bytes: vec![0; size * size],
            messages: vec![0; size * size],
        }
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Records one message. Out-of-range ranks are dropped, matching
    /// the read accessors: the matrix is bookkeeping, and bookkeeping
    /// must never panic under the sampling supervisor.
    pub fn record(&mut self, src: usize, dst: usize, bytes: u64) {
        let idx = src * self.size + dst;
        if let Some(b) = self.bytes.get_mut(idx) {
            *b += bytes;
        }
        if let Some(m) = self.messages.get_mut(idx) {
            *m += 1;
        }
    }

    /// Bytes sent from `src` to `dst`. Out-of-range ranks read as 0 —
    /// these accessors run on the log export path (CSV export) and
    /// must not panic on a malformed rank.
    pub fn bytes(&self, src: usize, dst: usize) -> u64 {
        self.bytes.get(src * self.size + dst).copied().unwrap_or(0)
    }

    /// Messages sent from `src` to `dst`.
    pub fn messages(&self, src: usize, dst: usize) -> u64 {
        self.messages
            .get(src * self.size + dst)
            .copied()
            .unwrap_or(0)
    }

    /// Total bytes across all pairs.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// The largest single-pair byte count (the heatmap color-scale top).
    pub fn max_bytes(&self) -> u64 {
        self.bytes.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of traffic within `band` ranks of the diagonal — the
    /// "strong nearest-neighbor pattern along the central diagonal" the
    /// paper reads off Figure 5.
    pub fn diagonal_fraction(&self, band: usize) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        let mut near = 0u64;
        for s in 0..self.size {
            for d in 0..self.size {
                let dist = s.abs_diff(d);
                // Account for periodic wrap (rank 0 ↔ rank n−1 are
                // neighbours in a periodic halo).
                let dist = dist.min(self.size - dist);
                if dist <= band {
                    near += self.bytes(s, d);
                }
            }
        }
        near as f64 / total as f64
    }

    /// Merges another matrix (e.g. per-node partials).
    ///
    /// # Panics
    /// If sizes differ.
    pub fn merge(&mut self, other: &CommMatrix) {
        assert_eq!(self.size, other.size, "matrix size mismatch");
        for (a, b) in self.bytes.iter_mut().zip(&other.bytes) {
            *a += b;
        }
        for (a, b) in self.messages.iter_mut().zip(&other.messages) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_and_sizes() {
        let w = CommWorld::new(4);
        assert_eq!(w.size(), 4);
        let c2 = w.communicator(2);
        assert_eq!(c2.rank(), 2);
        assert_eq!(c2.size(), 4);
    }

    #[test]
    #[should_panic(expected = "rank 4 out of range")]
    fn invalid_rank_panics() {
        CommWorld::new(4).communicator(4);
    }

    #[test]
    fn send_accumulates_bytes_and_messages() {
        let w = CommWorld::new(3);
        let c0 = w.communicator(0);
        c0.send(1, 100);
        c0.send(1, 150);
        c0.send(2, 7);
        let m = w.matrix();
        assert_eq!(m.bytes(0, 1), 250);
        assert_eq!(m.messages(0, 1), 2);
        assert_eq!(m.bytes(0, 2), 7);
        assert_eq!(m.bytes(1, 0), 0);
        assert_eq!(m.total_bytes(), 257);
        assert_eq!(m.max_bytes(), 250);
    }

    #[test]
    fn communicators_share_the_matrix() {
        let w = CommWorld::new(2);
        let c0 = w.communicator(0);
        let c1 = w.communicator(1);
        c0.send(1, 10);
        c1.send(0, 20);
        let m = w.matrix();
        assert_eq!(m.bytes(0, 1), 10);
        assert_eq!(m.bytes(1, 0), 20);
    }

    #[test]
    fn diagonal_fraction_detects_neighbor_pattern() {
        let mut m = CommMatrix::new(8);
        for r in 0..8 {
            m.record(r, (r + 1) % 8, 1000);
            m.record(r, (r + 7) % 8, 1000);
        }
        assert!((m.diagonal_fraction(1) - 1.0).abs() < 1e-12);
        // Uniform background lowers it.
        for s in 0..8 {
            for d in 0..8 {
                if s != d {
                    m.record(s, d, 100);
                }
            }
        }
        let f = m.diagonal_fraction(1);
        assert!(f > 0.5 && f < 1.0, "fraction {f}");
    }

    #[test]
    fn merge_sums() {
        let mut a = CommMatrix::new(2);
        a.record(0, 1, 5);
        let mut b = CommMatrix::new(2);
        b.record(0, 1, 7);
        b.record(1, 0, 1);
        a.merge(&b);
        assert_eq!(a.bytes(0, 1), 12);
        assert_eq!(a.messages(0, 1), 2);
        assert_eq!(a.bytes(1, 0), 1);
    }

    #[test]
    fn empty_matrix_diagonal_fraction_is_zero() {
        assert_eq!(CommMatrix::new(4).diagonal_fraction(1), 0.0);
    }
}
