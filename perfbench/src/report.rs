//! Metrics computed from a run: the end-to-end set the benchmark gates,
//! the per-workload view, and the per-layer counters of a traced run.

use trio_sim::Nanos;

use crate::record::{percentile, Kind};
use crate::workloads::Workload;
use crate::RunOut;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile, where there are any.
    pub samples: Option<u64>,
}

pub(crate) fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: None,
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a / b as f64
    }
}

fn us(ns: Nanos) -> f64 {
    ns as f64 / 1e3
}

/// Latency samples of the calls `keep` selects, with the virtual window
/// of the phases that made them.
struct Class {
    lat: Vec<Nanos>,
    window_ns: Nanos,
}

fn class(r: &RunOut, keep: impl Fn(Kind) -> bool) -> Class {
    let mut lat = Vec::new();
    let mut window_ns = 0;
    for p in &r.phases {
        let before = lat.len();
        for l in &p.logs {
            for k in Kind::ALL.into_iter().filter(|k| keep(*k)) {
                lat.extend_from_slice(&l.lat[k as usize]);
            }
        }
        if lat.len() > before {
            window_ns += p.window_ns;
        }
    }
    Class { lat, window_ns }
}

impl Class {
    fn kops_s(&self) -> f64 {
        self.lat.len() as f64 / (self.window_ns.max(1) as f64 / 1e9) / 1e3
    }

    /// Mean virtual µs per call, named `{prefix}_mean_us`.
    fn mean(&self, prefix: &str) -> Metric {
        let n = self.lat.len() as u64;
        let mean = us(self.lat.iter().sum::<Nanos>()) / n.max(1) as f64;
        Metric {
            name: format!("{prefix}_mean_us"),
            value: mean,
            unit: "us",
            samples: Some(n),
        }
    }

    /// `(p50, p99)` metrics named `{prefix}_p50_us` / `{prefix}_p99_us`.
    fn tails(&mut self, prefix: &str) -> [Metric; 2] {
        let n = Some(self.lat.len() as u64);
        let p50 = us(percentile(&mut self.lat, 50, 100));
        let p99 = us(percentile(&mut self.lat, 99, 100));
        [
            Metric {
                name: format!("{prefix}_p50_us"),
                value: p50,
                unit: "us",
                samples: n,
            },
            Metric {
                name: format!("{prefix}_p99_us"),
                value: p99,
                unit: "us",
                samples: n,
            },
        ]
    }
}

/// The end-to-end metrics of a run's result line, by workload;
/// `BENCHMARK.json` gates the data set. Latency is the mean and the p99
/// per call, not the median: the median small_io read is the fixed cost
/// of an uncontended 4 KiB read at every seed, so it could not show a
/// change.
pub fn end_to_end(r: &RunOut) -> Vec<Metric> {
    let names: &[&str] = if r.workload.is_meta() {
        &[
            "meta_kops_s",
            "meta_mean_us",
            "meta_p99_us",
            "handover_p50_us",
            "handover_p99_us",
            "setup_s",
            "run_s",
        ]
    } else {
        &[
            "write_gib_s",
            "read_gib_s",
            "write_mean_us",
            "write_p99_us",
            "read_mean_us",
            "read_p99_us",
            "setup_s",
            "run_s",
        ]
    };
    let view = workload_view(r);
    names
        .iter()
        .map(|n| {
            view.iter()
                .find(|x| x.name == *n)
                .cloned()
                .expect("every gated metric is in workload_view")
        })
        .collect()
}

/// The metrics as each workload names them. Zero where a workload has
/// no such call (no metadata calls on bulk_io, no handovers on the data
/// workloads).
pub fn workload_view(r: &RunOut) -> Vec<Metric> {
    let bytes = |f: fn(&crate::record::ThreadLog) -> u64| r.logs().map(f).sum::<u64>() as f64;
    let gib_s = |b: f64, c: &Class| b / (1u64 << 30) as f64 / (c.window_ns.max(1) as f64 / 1e9);
    let mut w = class(r, |k| k == Kind::Pwrite);
    let mut rd = class(r, |k| k == Kind::Pread);
    let mut meta = class(r, |k| {
        matches!(k, Kind::Create | Kind::Unlink | Kind::Rename | Kind::Stat)
    });
    let mut hand = Class {
        lat: r.logs().flat_map(|l| l.handover.iter().copied()).collect(),
        window_ns: 0,
    };
    let mut out = vec![
        m(
            "write_gib_s",
            gib_s(bytes(|l| l.bytes_written), &w),
            "GiB/s",
        ),
        m("read_gib_s", gib_s(bytes(|l| l.bytes_read), &rd), "GiB/s"),
    ];
    out.extend(w.tails("write"));
    out.push(w.mean("write"));
    out.extend(rd.tails("read"));
    out.push(rd.mean("read"));
    out.push(m("meta_kops_s", meta.kops_s(), "kops/s"));
    out.extend(meta.tails("meta"));
    out.push(meta.mean("meta"));
    out.extend(hand.tails("handover"));
    out.push(m(
        "error_rate",
        r.failed() as f64 / r.attempted().max(1) as f64,
        "ratio",
    ));
    out.push(m("setup_s", r.setup_s, "s"));
    out.push(m("run_s", r.run_s, "s"));
    out
}

/// Per-layer metrics of one (traced) run, over the measured window.
pub fn per_layer(r: &RunOut) -> Vec<Metric> {
    let first = &r.phases[0];
    let last = &r.phases[r.phases.len() - 1];
    let d = last.after.path.delta(&first.before.path);
    let mut out = Vec::new();

    // sim
    out.push(m("sim.events", r.sim_events as f64, "count"));
    out.push(m(
        "sim.events_per_host_s",
        r.sim_events as f64 / r.sim_host_s.max(1e-9),
        "1/s",
    ));
    out.push(m("sim.virtual_s", r.virtual_ns as f64 / 1e9, "s"));

    // kernel.delegation
    let dl = "kernel.delegation";
    let routed = d.adaptive_direct + d.adaptive_delegated;
    out.extend([
        m(format!("{dl}.requests"), d.deleg_requests as f64, "count"),
        m(format!("{dl}.runs"), d.deleg_runs as f64, "count"),
        m(
            format!("{dl}.runs_per_request"),
            d.deleg_runs as f64 / d.deleg_requests.max(1) as f64,
            "ratio",
        ),
        m(
            format!("{dl}.backpressure"),
            d.ring_backpressure as f64,
            "count",
        ),
        m(format!("{dl}.retries"), d.deleg_retries as f64, "count"),
        m(format!("{dl}.timeouts"), d.deleg_timeouts as f64, "count"),
        m(format!("{dl}.fallbacks"), d.deleg_fallbacks as f64, "count"),
        m(
            format!("{dl}.ring_hop_p50_ns"),
            d.ring_hop_p50_ns() as f64,
            "ns",
        ),
        m(
            format!("{dl}.ring_hop_p99_ns"),
            d.ring_hop_p99_ns() as f64,
            "ns",
        ),
        m(
            format!("{dl}.delegated_share"),
            d.adaptive_delegated as f64 / routed.max(1) as f64,
            "ratio",
        ),
        m(
            format!("{dl}.delegated_write_bytes"),
            d.delegated_write_bytes as f64,
            "bytes",
        ),
        m(
            format!("{dl}.direct_write_bytes"),
            d.direct_write_bytes as f64,
            "bytes",
        ),
        m(
            format!("{dl}.delegated_read_bytes"),
            d.delegated_read_bytes as f64,
            "bytes",
        ),
        m(
            format!("{dl}.direct_read_bytes"),
            d.direct_read_bytes as f64,
            "bytes",
        ),
    ]);
    // The first phase alone: bulk_io's write phase carries the fig6 (h)
    // ring overflow; the read phase after it would dilute the tail.
    let d0 = first.after.path.delta(&first.before.path);
    out.push(m(
        format!("{dl}.first_phase_backpressure"),
        d0.ring_backpressure as f64,
        "count",
    ));
    out.push(m(
        format!("{dl}.first_phase_ring_hop_p99_ns"),
        d0.ring_hop_p99_ns() as f64,
        "ns",
    ));

    // kernel.grant
    out.extend([
        m("kernel.grant.registers", d.grant_registers as f64, "count"),
        m("kernel.grant.revokes", d.grant_revokes as f64, "count"),
        m("kernel.grant.faults", d.grant_faults as f64, "count"),
        m(
            "kernel.grant.payload_copies",
            d.payload_copies as f64,
            "count",
        ),
        m(
            "kernel.grant.checksummed_bytes",
            d.checksummed_bytes as f64,
            "bytes",
        ),
    ]);

    // kernel.alloc / kernel.registry
    let used = r.free_at_format.saturating_sub(r.free_at_end) as f64;
    out.extend([
        m(
            "kernel.alloc.fast_hit_rate",
            d.alloc_fast_hit_rate(),
            "ratio",
        ),
        m("kernel.alloc.fast_hits", d.alloc_fast_hits as f64, "count"),
        m("kernel.alloc.refills", d.alloc_refills as f64, "count"),
        m(
            "kernel.alloc.refill_pages",
            d.alloc_refill_pages as f64,
            "count",
        ),
        m("kernel.alloc.free_cached", d.free_cached as f64, "count"),
        m("kernel.alloc.free_spills", d.free_spills as f64, "count"),
        m(
            "kernel.alloc.pages_used_per_live_page",
            ratio(used, r.live_pages),
            "ratio",
        ),
        m(
            "kernel.alloc.pages_used_per_live_entry",
            ratio(used, r.live_entries),
            "ratio",
        ),
        m("kernel.registry.locks", d.registry_locks as f64, "count"),
        m(
            "kernel.registry.lease_retries",
            d.lease_retries as f64,
            "count",
        ),
        m(
            "kernel.registry.refill_retries",
            d.refill_retries as f64,
            "count",
        ),
    ]);

    // kernel.mapping, verifier, core: per handover.
    let handovers = r.logs().map(|l| l.handover.len() as u64).sum::<u64>();
    let per = |ns: u64| ns as f64 / handovers.max(1) as f64;
    let (mut map, mut unmap, mut ckpt, mut verify, mut rebuild) = (0, 0, 0, 0, 0);
    for p in &r.phases {
        map += p.phase_stats.map_ns;
        unmap += p.phase_stats.unmap_ns;
        ckpt += p.phase_stats.checkpoint_ns;
        verify += p.phase_stats.verify_ns;
        rebuild += p.rebuild_ns;
    }
    out.push(m("kernel.mapping.handovers", handovers as f64, "count"));
    out.push(m("kernel.mapping.map_ns", per(map), "ns"));
    out.push(m("kernel.mapping.unmap_ns", per(unmap), "ns"));
    out.push(m("kernel.mapping.checkpoint_ns", per(ckpt), "ns"));
    out.extend(class(r, |k| k == Kind::Release).tails("kernel.mapping.release"));
    out.push(m("verifier.verify_ns", per(verify), "ns"));
    out.push(m(
        "verifier.fsck_violations",
        r.fsck_violations as f64,
        "count",
    ));
    out.push(m("verifier.fsck_host_s", r.fsck_host_s, "s"));
    out.push(m("core.libfs.rebuild_ns", per(rebuild), "ns"));
    for k in Kind::ALL.into_iter().filter(|k| *k != Kind::Release) {
        let mut c = class(r, |x| x == k);
        let n = c.lat.len();
        out.extend(c.tails(k.span_name()));
        out.push(m(format!("{}_count", k.span_name()), n as f64, "count"));
    }

    #[cfg(feature = "obs")]
    {
        use trio_obs::{OpKind, Stage};
        let stages = [
            (OpKind::Write, Stage::Syscall),
            (OpKind::Write, Stage::RingHop),
            (OpKind::Write, Stage::WorkerService),
            (OpKind::Write, Stage::NumaTransfer),
            (OpKind::Read, Stage::Syscall),
            (OpKind::Read, Stage::RingHop),
            (OpKind::Read, Stage::WorkerService),
            (OpKind::Read, Stage::NumaTransfer),
            (OpKind::Verify, Stage::VerifierWalk),
        ];
        for (kind, stage) in stages {
            let h = r.obs.stage(kind, stage);
            let base = format!("obs.{}.{}", kind.as_str(), stage.as_str());
            out.push(m(format!("{base}.p50_ns"), h.p50_ns() as f64, "ns"));
            out.push(m(format!("{base}.p99_ns"), h.p99_ns() as f64, "ns"));
            out.push(m(format!("{base}.count"), h.count as f64, "count"));
        }
    }
    out
}

/// Whether `w` exercises metric `name` at all (used only for the
/// human-readable report, to print `n/a` instead of a zero).
pub fn applies(w: Workload, name: &str) -> bool {
    let data = !w.is_meta();
    if name.starts_with("meta_") || name.starts_with("handover_") {
        !data
    } else if name.ends_with("_gib_s") {
        data
    } else {
        true
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` with every digit of `v`.
pub fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_num(x.value),
                x.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
