//! Determinism audit: runs each workload twice at one seed and diffs
//! every metric. Virtual time is exact at a fixed seed, so every
//! virtual-time metric should repeat bit for bit; the ones that do not,
//! host-time metrics among them, must be listed as not claimable in
//! `perfbench/CLAIMS.md`.
//!
//! Slow in a debug build: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use trio_perfbench::report::{end_to_end, per_layer, workload_view, Metric};
use trio_perfbench::workloads::{Size, Workload};

const SEED: u64 = 42;

fn metrics(w: Workload) -> Vec<Metric> {
    let r = trio_perfbench::run(w, SEED, Size::standard(w), true);
    let mut all = end_to_end(&r);
    all.extend(workload_view(&r).into_iter().map(|m| Metric {
        name: format!("e2e.{}", m.name),
        ..m
    }));
    all.extend(per_layer(&r));
    all
}

fn audit(w: Workload) {
    let claims = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/CLAIMS.md"))
        .expect("CLAIMS.md");
    let (a, b) = (metrics(w), metrics(w));
    let mut unlisted = Vec::new();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.name, y.name);
        if x.value.to_bits() == y.value.to_bits() {
            continue;
        }
        println!("{} {}: {} vs {}", w.name(), x.name, x.value, y.value);
        if !claims.contains(&format!("`{}`", x.name)) {
            unlisted.push(x.name.clone());
        }
    }
    assert!(
        unlisted.is_empty(),
        "{}: not bit-identical and not listed in CLAIMS.md: {unlisted:?}",
        w.name()
    );
}

#[test]
fn bulk_io_repeats_or_is_listed() {
    audit(Workload::BulkIo);
}

#[test]
fn small_io_repeats_or_is_listed() {
    audit(Workload::SmallIo);
}

#[test]
fn meta_share_repeats_or_is_listed() {
    audit(Workload::MetaShare);
}
