//! Single-producer/single-consumer hand-off rings for sampling shards.
//!
//! [`ShardRing`] extends the bounded-[`crate::Ring`] idiom to the
//! cross-thread case: a fixed-capacity queue with exactly one writer
//! (a sampling shard) and exactly one reader (the aggregation thread).
//! The head/tail cursors are atomics, so the two sides never contend on
//! a shared queue lock; each slot is guarded by its own [`Slot`] cell,
//! and the single-writer/single-reader protocol guarantees a slot is
//! only ever locked by the one side that currently owns it — every
//! slot acquisition is uncontended by construction (a "seqlock-free"
//! hand-off: no retry loops, no torn reads, safe Rust throughout).
//!
//! Values move by **swap**: [`ShardWriter::try_push_swap`] exchanges
//! the caller's value with whatever the slot holds, and
//! [`ShardReader::try_pop_swap`] exchanges it back. In steady state the
//! same buffers ping-pong between producer and consumer forever, so a
//! ring of batch records with internal `Vec`s/`String`s allocates only
//! until every buffer has reached its high-water capacity.
//!
//! The slot cell is pluggable so an instrumented mutex (e.g. the
//! lock-order-sanitized `Tracked` type in `zerosum-core`) can serve as
//! the cell without this crate depending on it.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A cell guarding one ring slot: grants exclusive access to the slot
/// value for the duration of a closure.
///
/// The protocol only ever locks a slot from the side that owns it (the
/// writer owns `[tail, head+cap)`, the reader owns `[head, tail)`), so
/// implementations may assume acquisitions are uncontended — but must
/// still be correct if they are not (the cell is the safety net that
/// keeps the ring 100% safe Rust).
pub trait Slot<T> {
    /// Runs `f` with exclusive access to the slot value.
    fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R;
}

/// The plain-`std` slot cell: a `Mutex` that recovers from poisoning
/// (slot values are plain data; a panicked peer cannot leave them in a
/// state the swap protocol cares about).
#[derive(Debug, Default)]
pub struct MutexSlot<T>(Mutex<T>);

impl<T> MutexSlot<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Self {
        MutexSlot(Mutex::new(value))
    }
}

impl<T> Slot<T> for MutexSlot<T> {
    fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }
}

/// A fixed-capacity single-producer/single-consumer swap ring.
///
/// Construct with [`ShardRing::from_slots`] (or
/// [`ShardRing::with_capacity`] for [`MutexSlot`] cells), then
/// [`ShardRing::split`] into the one writer and one reader handle.
#[derive(Debug)]
pub struct ShardRing<T, C> {
    slots: Box<[C]>,
    /// Next slot the reader will pop (monotonic; slot = head % cap).
    head: AtomicUsize,
    /// Next slot the writer will push (monotonic; slot = tail % cap).
    tail: AtomicUsize,
    _item: PhantomData<fn(T) -> T>,
}

impl<T> ShardRing<T, MutexSlot<T>> {
    /// A ring of `cap` [`MutexSlot`] cells, each seeded by `mk` (the
    /// seed values become the recycled buffers the first pushes swap
    /// out). `cap` is clamped to at least 1.
    pub fn with_capacity(cap: usize, mut mk: impl FnMut() -> T) -> Self {
        let cap = cap.max(1);
        let slots: Vec<MutexSlot<T>> = (0..cap).map(|_| MutexSlot::new(mk())).collect();
        Self::from_slots(slots)
    }
}

impl<T, C: Slot<T>> ShardRing<T, C> {
    /// A ring over caller-built slot cells; capacity = `slots.len()`.
    /// An empty vector yields an inert ring (every push reports full,
    /// every pop reports empty) rather than a panic.
    pub fn from_slots(slots: Vec<C>) -> Self {
        ShardRing {
            slots: slots.into_boxed_slice(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            _item: PhantomData,
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots (approximate while the peer is active).
    pub fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .saturating_sub(self.head.load(Ordering::Acquire))
    }

    /// Whether the ring currently holds nothing (approximate while the
    /// peer is active).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits into the single writer and single reader handle.
    ///
    /// Single-writer / single-reader is the borrow checker's to hold,
    /// and this crate is `#![forbid(unsafe_code)]` so nothing can take
    /// it back: the handles borrow the ring mutably and are neither
    /// `Clone` nor `Copy`, and their swap ops take `&mut self`. A
    /// second split while handles live does not compile:
    ///
    /// ```compile_fail,E0499
    /// let mut ring = zerosum_stats::ShardRing::with_capacity(2, || 0u64);
    /// let (mut w, _r) = ring.split();
    /// let (mut w2, _r2) = ring.split();
    /// w.try_push_swap(&mut 1);
    /// w2.try_push_swap(&mut 2);
    /// ```
    ///
    /// nor does any use of the ring itself while a handle lives:
    ///
    /// ```compile_fail,E0502
    /// let mut ring = zerosum_stats::ShardRing::with_capacity(2, || 0u64);
    /// let (mut w, _r) = ring.split();
    /// let queued = ring.len();
    /// w.try_push_swap(&mut 1);
    /// ```
    pub fn split(&mut self) -> (ShardWriter<'_, T, C>, ShardReader<'_, T, C>) {
        (ShardWriter { ring: self }, ShardReader { ring: self })
    }
}

/// The producing half of a [`ShardRing`]; exactly one exists per ring.
#[derive(Debug)]
pub struct ShardWriter<'a, T, C: Slot<T>> {
    ring: &'a ShardRing<T, C>,
}

impl<T, C: Slot<T>> ShardWriter<'_, T, C> {
    /// Attempts to publish `*value`, exchanging it with the recycled
    /// buffer in the target slot. Returns `false` (leaving `*value`
    /// untouched) when the ring is full.
    pub fn try_push_swap(&mut self, value: &mut T) -> bool {
        let ring = self.ring;
        let tail = ring.tail.load(Ordering::Relaxed);
        let head = ring.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= ring.slots.len() {
            return false;
        }
        let Some(cell) = ring.slots.get(tail % ring.slots.len().max(1)) else {
            return false; // zero-capacity ring: permanently full
        };
        cell.with_mut(|slot| std::mem::swap(slot, value));
        ring.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Occupied slots, from the writer's view.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether there is nothing queued.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// The consuming half of a [`ShardRing`]; exactly one exists per ring.
#[derive(Debug)]
pub struct ShardReader<'a, T, C: Slot<T>> {
    ring: &'a ShardRing<T, C>,
}

impl<T, C: Slot<T>> ShardReader<'_, T, C> {
    /// Attempts to take the oldest queued value, exchanging it with
    /// `*value` (which becomes the slot's recycled buffer). Returns
    /// `false` (leaving `*value` untouched) when the ring is empty.
    pub fn try_pop_swap(&mut self, value: &mut T) -> bool {
        let ring = self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        let tail = ring.tail.load(Ordering::Acquire);
        if head == tail {
            return false;
        }
        let Some(cell) = ring.slots.get(head % ring.slots.len().max(1)) else {
            return false;
        };
        cell.with_mut(|slot| std::mem::swap(slot, value));
        ring.head.store(head.wrapping_add(1), Ordering::Release);
        true
    }

    /// Occupied slots, from the reader's view.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether there is nothing queued.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_preserves_fifo_order() {
        let mut ring: ShardRing<u64, _> = ShardRing::with_capacity(4, || 0);
        let (mut w, mut r) = ring.split();
        for i in 1..=4u64 {
            let mut v = i;
            assert!(w.try_push_swap(&mut v));
            assert_eq!(v, 0, "swapped out the seed buffer");
        }
        let mut v = 99u64;
        assert!(!w.try_push_swap(&mut v), "full ring rejects");
        assert_eq!(v, 99, "rejected push leaves the value alone");
        for want in 1..=4u64 {
            let mut got = 0u64;
            assert!(r.try_pop_swap(&mut got));
            assert_eq!(got, want);
        }
        let mut got = 7u64;
        assert!(!r.try_pop_swap(&mut got), "empty ring rejects");
        assert_eq!(got, 7);
    }

    #[test]
    fn buffers_ping_pong_without_reallocating() {
        // A capacity-2 ring of Vec buffers: after warm-up, every buffer
        // the writer receives back has its old capacity — the steady
        // state moves allocations, never makes them.
        let mut ring: ShardRing<Vec<u32>, _> =
            ShardRing::with_capacity(2, || Vec::with_capacity(64));
        let (mut w, mut r) = ring.split();
        let mut mine: Vec<u32> = Vec::with_capacity(64);
        let mut theirs: Vec<u32> = Vec::with_capacity(64);
        for round in 0..100u32 {
            mine.clear();
            mine.extend(round * 10..round * 10 + 5);
            let ptr = mine.as_ptr();
            assert!(w.try_push_swap(&mut mine));
            assert!(mine.capacity() >= 64, "recycled buffer kept capacity");
            assert!(r.try_pop_swap(&mut theirs));
            assert_eq!(theirs.as_ptr(), ptr, "the pushed buffer came out");
            assert_eq!(theirs.len(), 5);
            assert_eq!(theirs.first(), Some(&(round * 10)));
        }
    }

    #[test]
    fn len_tracks_occupancy() {
        let mut ring: ShardRing<u8, _> = ShardRing::with_capacity(3, || 0);
        assert_eq!(ring.capacity(), 3);
        let (mut w, mut r) = ring.split();
        assert!(w.is_empty() && r.is_empty());
        let mut v = 1u8;
        assert!(w.try_push_swap(&mut v));
        let mut v = 2u8;
        assert!(w.try_push_swap(&mut v));
        assert_eq!(w.len(), 2);
        let mut got = 0u8;
        assert!(r.try_pop_swap(&mut got));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn zero_capacity_is_inert_not_a_panic() {
        let mut ring: ShardRing<u8, MutexSlot<u8>> = ShardRing::from_slots(Vec::new());
        let (mut w, mut r) = ring.split();
        let mut v = 1u8;
        assert!(!w.try_push_swap(&mut v));
        let mut got = 0u8;
        assert!(!r.try_pop_swap(&mut got));
    }

    #[test]
    fn spsc_across_threads_delivers_everything_in_order() {
        const N: u64 = 10_000;
        let mut ring: ShardRing<u64, _> = ShardRing::with_capacity(8, || 0);
        let (mut w, mut r) = ring.split();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 1..=N {
                    let mut v = i;
                    while !w.try_push_swap(&mut v) {
                        std::hint::spin_loop();
                        std::thread::yield_now();
                    }
                }
            });
            s.spawn(move || {
                let mut got = 0u64;
                for want in 1..=N {
                    while !r.try_pop_swap(&mut got) {
                        std::hint::spin_loop();
                        std::thread::yield_now();
                    }
                    assert_eq!(got, want);
                }
            });
        });
    }

    #[test]
    fn wraparound_survives_many_cycles() {
        let mut ring: ShardRing<u64, _> = ShardRing::with_capacity(2, || 0);
        let (mut w, mut r) = ring.split();
        for i in 0..1_000u64 {
            let mut v = i;
            assert!(w.try_push_swap(&mut v));
            let mut got = 0u64;
            assert!(r.try_pop_swap(&mut got));
            assert_eq!(got, i);
        }
    }
}
