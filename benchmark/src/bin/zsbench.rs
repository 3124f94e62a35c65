//! The end-to-end binary: the allocator that ships, no tracing.

fn main() -> std::process::ExitCode {
    zsbench::driver::main()
}
