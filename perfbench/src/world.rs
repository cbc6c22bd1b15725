//! The simulated machine, the benchmark's own `SimRuntime`, and the
//! closed-loop phase runner.

use std::sync::Arc;
use std::time::Instant;

use arckfs::{ArckFs, ArckFsConfig};
use trio_kernel::{KernelConfig, KernelController, PhaseStats};
use trio_nvm::{BandwidthModel, DeviceConfig, NvmDevice, PathStatsSnapshot, Topology};
use trio_sim::plock::Mutex;
use trio_sim::rng::SimRng;
use trio_sim::sync::SimBarrier;
use trio_sim::{Nanos, SimRuntime};

use crate::record::{span_id, Span, ThreadLog};

/// NUMA nodes of the simulated device (the paper's 8-socket machine).
pub const NODES: usize = 8;

/// One kernel over a fresh device, with its mounted LibFS tenants. Each
/// tenant is its own registered actor (no trust groups).
pub struct World {
    pub kernel: Arc<KernelController>,
    pub tenants: Vec<Arc<ArckFs>>,
}

impl World {
    pub fn build(pages_per_node: usize, tenants: usize) -> World {
        let dev = Arc::new(NvmDevice::new(DeviceConfig {
            topology: Topology::new(NODES, pages_per_node),
            model: BandwidthModel::default(),
            track_persistence: false,
        }));
        let kernel = KernelController::format(dev, KernelConfig::default());
        let tenants = (0..tenants)
            .map(|_| ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::default()))
            .collect();
        World { kernel, tenants }
    }

    pub fn tenant(&self, i: usize) -> &Arc<ArckFs> {
        &self.tenants[i]
    }

    /// Drains the per-handover bookkeeping (kernel phase times and every
    /// tenant's aux-rebuild time) accumulated so far.
    pub fn take_handover_costs(&self) -> (PhaseStats, u64) {
        let phases = self.kernel.take_phase_stats();
        let rebuild = self.tenants.iter().map(|t| t.take_rebuild_ns()).sum();
        (phases, rebuild)
    }
}

/// Layer counters sampled at one phase boundary.
#[derive(Clone, Debug)]
pub struct Sample {
    pub label: String,
    pub v_ns: Nanos,
    pub h_ns: u64,
    pub path: PathStatsSnapshot,
    pub free_pages: usize,
}

/// One measured phase: every sim-thread's log plus the layer counters
/// around it.
pub struct PhaseOut {
    pub logs: Vec<ThreadLog>,
    /// Virtual ns from the common barrier release to the last completion.
    pub window_ns: Nanos,
    pub host_s: f64,
    pub before: Sample,
    pub after: Sample,
    /// Kernel map/unmap/verify/checkpoint ns inside the window.
    pub phase_stats: PhaseStats,
    /// LibFS aux-rebuild ns inside the window (all tenants).
    pub rebuild_ns: u64,
    #[cfg(feature = "obs")]
    pub obs_before: trio_obs::ObsSnapshot,
    #[cfg(feature = "obs")]
    pub obs_after: trio_obs::ObsSnapshot,
}

/// What the harness sim-thread carries through a run.
pub struct Ctx {
    pub world: Arc<World>,
    /// The phase spans, when tracing.
    pub spans: Option<Vec<Span>>,
    pub samples: Vec<Sample>,
    /// Host epoch of the run: span and sample host times count from here.
    epoch: Instant,
    /// Seeds the order in which each phase's sim-threads are spawned.
    order: SimRng,
}

impl Ctx {
    pub fn new(world: Arc<World>, seed: u64, trace: bool, epoch: Instant) -> Self {
        let order = SimRng::seed_from_u64(seed);
        Ctx {
            world,
            spans: trace.then(Vec::new),
            samples: Vec::new(),
            epoch,
            order,
        }
    }

    fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Samples the layer counters (kept in the trace when tracing).
    pub fn sample(&mut self, label: String) -> Sample {
        let s = Sample {
            label,
            v_ns: trio_sim::now(),
            h_ns: self.host_ns(),
            path: self.world.kernel.path_stats().snapshot(),
            free_pages: self.world.kernel.free_page_count(),
        };
        if self.spans.is_some() {
            self.samples.push(s.clone());
        }
        s
    }

    /// Runs one closed-loop phase: `threads` sim-threads, homed
    /// round-robin across the NUMA nodes, spawned from a seeded first
    /// thread onwards and released together through a barrier. Each runs
    /// `body(thread, log)`; a thread issues its next call only after the
    /// previous one returns. The spawn order decides which of several
    /// calls issued at the same virtual instant the simulator runs first.
    pub fn phase(
        &mut self,
        name: &'static str,
        threads: usize,
        body: impl Fn(usize, &mut ThreadLog) + Send + Sync + 'static,
    ) -> PhaseOut {
        let _ = self.world.take_handover_costs();
        let before = self.sample(format!("{name}.start"));
        #[cfg(feature = "obs")]
        let obs_before = trio_obs::snapshot();
        let host0 = Instant::now();
        let v0 = trio_sim::now();
        let phase_span = self
            .spans
            .as_ref()
            .map(|s| (span_id(u32::MAX, s.len() as u64), self.host_ns()));
        let trace = phase_span.map(|(id, _)| (self.epoch, id));

        let barrier = Arc::new(SimBarrier::new(threads));
        let body = Arc::new(body);
        let logs: Arc<Mutex<Vec<ThreadLog>>> = Arc::new(Mutex::new(Vec::with_capacity(threads)));
        let first = self.order.gen_range(threads as u64) as usize;
        let handles: Vec<_> = (first..threads)
            .chain(0..first)
            .map(|i| {
                let (barrier, body, logs) =
                    (Arc::clone(&barrier), Arc::clone(&body), Arc::clone(&logs));
                trio_sim::spawn("bench-client", move || {
                    trio_nvm::handle::set_home_node(i % NODES);
                    barrier.wait();
                    let mut log = ThreadLog::new(i, trace);
                    log.start = trio_sim::now();
                    body(i, &mut log);
                    log.end = trio_sim::now();
                    logs.lock().push(log);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let mut logs = std::mem::take(&mut *logs.lock());
        logs.sort_by_key(|l| l.thread);
        let start = logs.iter().map(|l| l.start).min().unwrap_or(v0);
        let end = logs.iter().map(|l| l.end).max().unwrap_or(v0);
        let host_s = host0.elapsed().as_secs_f64();
        #[cfg(feature = "obs")]
        let obs_after = trio_obs::snapshot();
        let (phase_stats, rebuild_ns) = self.world.take_handover_costs();
        let after = self.sample(format!("{name}.end"));
        let h1 = self.host_ns();
        if let (Some(spans), Some((id, h0))) = (self.spans.as_mut(), phase_span) {
            spans.push(Span {
                id,
                parent: 0,
                name,
                thread: u32::MAX,
                op: 0,
                v_start: v0,
                v_end: end,
                h_start: h0,
                h_end: h1,
            });
        }
        PhaseOut {
            logs,
            window_ns: (end - start).max(1),
            host_s,
            before,
            after,
            phase_stats,
            rebuild_ns,
            #[cfg(feature = "obs")]
            obs_before,
            #[cfg(feature = "obs")]
            obs_after,
        }
    }
}

/// Runs `f` as the harness sim-thread of a fresh runtime seeded with
/// `seed`. Returns its result, the scheduler event count and the final
/// virtual time.
pub fn simulate<R: Send + 'static>(
    seed: u64,
    f: impl FnOnce() -> R + Send + 'static,
) -> (R, u64, Nanos) {
    let rt = SimRuntime::new(seed);
    let out = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    rt.spawn("bench-harness", move || {
        *out2.lock() = Some(f());
    });
    let virtual_ns = rt.run();
    let r = out
        .lock()
        .take()
        .expect("harness sim-thread ran to completion");
    (r, rt.events(), virtual_ns)
}
