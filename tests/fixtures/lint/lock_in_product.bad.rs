// Audited as `core/src/attach.rs`: a lock at item level and a lock
// local to a function are each a finding at their line.
use std::sync::{Mutex, RwLock};

static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn snapshot() -> u32 {
    let table = RwLock::new(0u32);
    *table.read().unwrap()
}
