// Near-miss twin: a `use` path names a lock type without using it, a
// longer identifier only contains one, an atomic is no lock, and test
// code may hold whatever it likes.
use std::sync::Mutex;

static STOP: AtomicBool = AtomicBool::new(false);

fn slots(stats: &MutexSlotStats) -> usize {
    STOP.store(true, Ordering::Relaxed);
    stats.mutex_slot_count
}

#[cfg(test)]
mod tests {
    static SEEN: Mutex<u8> = Mutex::new(0);
}
