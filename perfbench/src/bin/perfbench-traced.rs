//! The traced benchmark binary: built with the `obs` feature, so the
//! per-layer report also carries the repository's stage histograms.

fn main() {
    trio_perfbench::cli::main();
}
