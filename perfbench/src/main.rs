//! The untraced benchmark binary; see `trio_perfbench::cli`.

fn main() {
    trio_perfbench::cli::main();
}
