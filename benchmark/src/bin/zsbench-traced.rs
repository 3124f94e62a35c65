//! The traced binary: same code, plus the counting global allocator so
//! the per-layer allocation counts are exact.

use zsbench::alloc_count::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    zsbench::driver::main()
}
