//! **Figure 6(h) shape gate** — the 2 MiB write, 8-node panel at its
//! 224-thread rung, ArckFS against OdinFS, with the same cell setup as
//! `fig6_data_scaling`.
//!
//! Paper shape: ArckFS at least matches OdinFS here, because delegation
//! keeps every node at its bounded writer pool. `scripts/verify.sh`
//! asserts that ordering plus the mechanism behind it: ArckFS's rings
//! never backpressure, so no write is shed to direct access.
//!
//! Output: the two rows on stdout, JSON to `$TRIO_BENCH_OUT` (default
//! `BENCH_fig6h.json` in the current directory): ArckFS's data-path
//! counters plus `arckfs_gib_s` and `odinfs_gib_s`.

use trio_bench::{fig6_cell, print_row, print_thread_header, scale};
use trio_workloads::fio::FioOp;

const THREADS: usize = 224;

fn main() {
    println!("# Figure 6(h) gate: 2MB write, 8 NUMA nodes (scale 1/{})", scale());
    print_thread_header("(h) 2MB write, 8 NUMA nodes", &[THREADS]);
    let cell = |fs| fig6_cell(fs, 8, 2 << 20, FioOp::Write, THREADS, THREADS);
    let (arck, snap) = cell("ArckFS");
    print_row("ArckFS", &[arck.gib_per_sec()], "GiB/s");
    let snap = snap.expect("ArckFS world has a kernel");
    println!("#   ArckFS @{THREADS}t  {}", snap.summary_line());
    let (odin, _) = cell("OdinFS");
    print_row("OdinFS", &[odin.gib_per_sec()], "GiB/s");
    let json = snap.to_json(&[
        ("arckfs_gib_s", format!("{:.4}", arck.gib_per_sec())),
        ("odinfs_gib_s", format!("{:.4}", odin.gib_per_sec())),
    ]);
    let out = std::env::var("TRIO_BENCH_OUT").unwrap_or_else(|_| "BENCH_fig6h.json".into());
    std::fs::write(&out, format!("{json}\n")).expect("write bench json");
}
