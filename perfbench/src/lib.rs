//! End-to-end and per-layer benchmark of ArckFS on the simulated 8-node
//! NVM device.
//!
//! Performance is virtual time from `trio-sim`: exact at a fixed seed and
//! independent of host load. Host time is measured for set-up and for the
//! measured phases only. The benchmark drives the system through its
//! public API (`trio_fsapi::FileSystem`, `ArckFs`, `KernelController`) on
//! a `SimRuntime` it owns.

pub mod cli;
pub mod record;
pub mod report;
pub mod stamp;
pub mod workloads;
pub mod world;

use std::sync::Arc;
use std::time::Instant;

use trio_kernel::{KernelConfig, KernelController};

use record::Span;
use workloads::{Size, Workload};
use world::{simulate, Ctx, PhaseOut, Sample, World};

/// Everything one run (one world, one seed) produced.
pub struct RunOut {
    pub workload: Workload,
    /// Host s to build the world and the fileset.
    pub setup_s: f64,
    /// Host s of the measured phases.
    pub run_s: f64,
    pub phases: Vec<PhaseOut>,
    /// Output-check failures (first few per thread), and how many checks
    /// ran: one per data read or stat, plus the final audits.
    pub check_failures: Vec<String>,
    pub checks: u64,
    pub fsck_violations: usize,
    pub fsck_host_s: f64,
    pub sim_events: u64,
    pub virtual_ns: u64,
    pub sim_host_s: f64,
    /// Free device pages right after format and after the run.
    pub free_at_format: usize,
    pub free_at_end: usize,
    /// Live data pages and live directory entries in the benchmark's model.
    pub live_pages: u64,
    pub live_entries: u64,
    pub spans: Vec<Span>,
    pub samples: Vec<Sample>,
    /// Per-stage latency histograms over the measured window.
    #[cfg(feature = "obs")]
    pub obs: trio_obs::ObsSnapshot,
}

impl RunOut {
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.fsck_violations == 0
    }

    pub fn attempted(&self) -> u64 {
        self.logs().map(|l| l.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs().map(|l| l.failed).sum()
    }

    pub fn logs(&self) -> impl Iterator<Item = &record::ThreadLog> {
        self.phases.iter().flat_map(|p| p.logs.iter())
    }
}

/// Runs `w` once on a fresh world. With `trace`, records spans around
/// every call and samples the layer counters at phase boundaries.
pub fn run(w: Workload, seed: u64, size: Size, trace: bool) -> RunOut {
    let t0 = Instant::now();
    let world = Arc::new(World::build(size.pages_per_node(w), size.tenants(w)));
    let free_at_format = world.kernel.free_page_count();
    let sim_world = Arc::clone(&world);
    let ((phases, mut check_failures, live_entries, ctx), sim_events, virtual_ns) =
        simulate(seed, move || {
            let mut ctx = Ctx::new(sim_world, seed, trace, t0);
            let (phases, bad, entries) = match w {
                Workload::BulkIo => (workloads::bulk_io(&mut ctx, seed, size), Vec::new(), 0),
                Workload::SmallIo => (workloads::small_io(&mut ctx, seed, size), Vec::new(), 0),
                Workload::MetaShare => {
                    let (phases, model) = workloads::meta_share(&mut ctx, seed, size);
                    let bad = workloads::check_namespace(&ctx.world, &model);
                    (phases, bad, model.entries())
                }
            };
            // Process exit: the kernel verifies and adopts everything each
            // tenant left mapped, so the audit below sees the final tree.
            for t in &ctx.world.tenants {
                t.unmount();
            }
            (phases, bad, entries, ctx)
        });
    let sim_host_s = t0.elapsed().as_secs_f64();

    // The audit runs on the kernel that would mount this device next:
    // recovery adopts every file the tenants built, so a clean fsck
    // certifies the whole final tree.
    let h = Instant::now();
    let dev = Arc::clone(world.kernel.device());
    let fsck_violations = match KernelController::recover(dev, KernelConfig::default()) {
        Ok(k) => {
            let bad = k.fsck();
            for (ino, v) in bad.iter().take(4) {
                check_failures.push(format!("fsck: ino {ino}: {v:?}"));
            }
            bad.len()
        }
        Err(e) => {
            check_failures.push(format!("recovery before fsck failed: {e:?}"));
            1
        }
    };
    let fsck_host_s = h.elapsed().as_secs_f64();
    // The fsck audit, plus the namespace comparison on meta_share.
    let mut checks = 1 + u64::from(w == Workload::MetaShare);
    for l in phases.iter().flat_map(|p| p.logs.iter()) {
        checks += l.checks;
        check_failures.extend(l.check_failures.iter().cloned());
    }
    let live_pages = size.threads as u64 * size.file_blocks * (size.block / stamp::PAGE) as u64;
    let mut spans: Vec<Span> = phases
        .iter()
        .flat_map(|p| p.logs.iter().flat_map(|l| l.spans.iter().cloned()))
        .collect();
    let Ctx {
        spans: phase_spans,
        samples,
        ..
    } = ctx;
    spans.extend(phase_spans.unwrap_or_default());
    RunOut {
        workload: w,
        setup_s: phases[0].before.h_ns as f64 / 1e9,
        run_s: phases.iter().map(|p| p.host_s).sum(),
        #[cfg(feature = "obs")]
        obs: phases[phases.len() - 1]
            .obs_after
            .delta(&phases[0].obs_before),
        phases,
        check_failures,
        checks,
        fsck_violations,
        fsck_host_s,
        sim_events,
        virtual_ns,
        sim_host_s,
        free_at_format,
        free_at_end: world.kernel.free_page_count(),
        live_pages,
        live_entries,
        spans,
        samples,
    }
}
