//! The untraced binary: end-to-end metrics on the system allocator.

fn main() -> std::process::ExitCode {
    puzzle_bench::main_with(false)
}
