//! The traced binary: the same workloads with the counting allocator
//! installed and spans recorded, reporting the per-layer ledger.

#[global_allocator]
static ALLOC: puzzle_bench::alloc::LedgerAllocator = puzzle_bench::alloc::LedgerAllocator;

fn main() -> std::process::ExitCode {
    puzzle_bench::main_with(true)
}
