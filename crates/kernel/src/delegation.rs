//! Opportunistic-delegation thread pool (paper §4.5, following OdinFS).
//!
//! (lint: hot-path — the delegated data path must never take the registry
//! lock; its event log and ring bookkeeping are all self-contained.)
//!
//! A fixed number of kernel *delegation threads* run per NUMA node. LibFSes
//! (and the OdinFS baseline) hand large accesses to them through
//! shared-memory rings — no kernel trap — and wait for completion. The
//! threads always access their own node's NVM (locality) and their fixed
//! count bounds the per-node concurrency, which is what prevents Optane's
//! bandwidth collapse. Large extents are split per node and served in
//! parallel, aggregating the bandwidth of all nodes.
//!
//! Submission is *batched*: one scatter-gather [`DelegReq`] per `(node,
//! worker slot)` carries node-contiguous runs of the extent. Write payloads
//! travel **by reference** as a revocable [`GrantRef`] window (DESIGN.md
//! §17): the client registers its buffer with the kernel's
//! [`crate::grant::GrantTable`] and the worker reads the bytes straight out
//! of the granted region during its one write pass into NVM — zero copies
//! on the submit path, and that same pass folds each byte into a streaming
//! checksum recorded in the page sidecars. Large single-node runs addition-
//! ally *fan out* in page-aligned chunks of at least [`FANOUT_MIN_BYTES`],
//! but only as wide as the node's idle workers at submit time: on an idle
//! node one big op engages enough threads to reach the node's concurrency
//! sweet spot instead of crawling through a single worker at `k = 1`
//! efficiency, while a saturated node gets one request per op, so ring
//! hops stay bounded by the worker pool rather than multiplying with the
//! client count. Completions come back tagged on a per-op reply ring
//! drawn from a pool, so steady-state ops allocate no channels.
//!
//! Permission is enforced end-to-end: a delegation thread performs the
//! access *as the requesting actor*, so the MMU check still applies.
//!
//! # Failure domains (DESIGN.md §16)
//!
//! The pool is also a failure domain. Each worker carries a heartbeat
//! epoch and an in-flight slot; [`DelegationPool::watchdog_scan`]
//! (invoked from every client deadline miss, and callable directly)
//! detects workers that died mid-request, re-dispatches the orphaned
//! request to a healthy ring, and respawns the worker on its original
//! ring. Writes carry a monotonic `(actor, seq)` idempotence token: a
//! worker records the token only *after* the full request applied, and a
//! re-dispatched or retried write whose token is already recorded is
//! acknowledged without touching media — exactly-once application even
//! when the first worker died between apply and reply. Under sustained
//! failure or ring backpressure the pool enters a [`DegradedMode`] that
//! sheds delegation to direct access, probing periodically so recovery
//! re-promotes traffic.

use std::collections::{HashSet, VecDeque};
#[cfg(feature = "faults")]
use std::sync::atomic::AtomicU8;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

#[cfg(feature = "faults")]
use trio_nvm::WorkerKillPlan;
use trio_nvm::{
    ActorId, NvmDevice, NvmHandle, PageId, PathStats, ProtError, WorkerKillPoint, PAGE_SIZE,
};
use trio_sim::plock::Mutex as PlMutex;
use trio_sim::sync::{RecvDeadline, SimChannel};
use trio_sim::{in_sim, now, spawn, JoinHandle, Nanos};

use crate::grant::{GrantRef, GrantTable};
use crate::registry::KernelEvent;
use crate::retry::RetryPolicy;

/// Reply-ring capacity. Must exceed the most completions an op can have in
/// flight (touched nodes × per-node fan-out × retry attempts), so a late
/// worker reply to an abandoned (timed-out) op never blocks the worker.
const REPLY_RING_CAP: usize = 512;

/// Minimum bytes per fan-out chunk. A single-node run is split across the
/// node's worker slots only in page-aligned chunks at least this large:
/// big ops reach the concurrency the bandwidth model rewards (per-node
/// write efficiency peaks around 8–12 concurrent accessors), while small
/// ops — a lone 4 KiB write — stay whole and keep their one-hop latency.
/// Page alignment means no page ever has two workers writing it, which is
/// also what keeps the per-page checksum sidecars single-writer.
const FANOUT_MIN_BYTES: usize = 8192;

/// Hard ceiling on runs per request. The rings are shared memory, so a
/// hostile LibFS can enqueue arbitrary [`DelegReq`]s; the worker must
/// bound its own work regardless of what the client-side builder would
/// have produced.
const MAX_RUNS_PER_REQ: usize = 4096;

/// Hard ceiling on bytes per request. Reads allocate the reply buffer on
/// the delegation thread, so an unchecked `read_len` is a kernel-side
/// allocation bomb.
const MAX_BYTES_PER_REQ: usize = 64 << 20;

/// Idempotence-token window: the most recently recorded write tokens the
/// pool remembers. Sized far past any plausible in-flight retry horizon
/// (tokens only matter while the op that minted them can still retry).
const IDEM_WINDOW: usize = 8192;

/// Consecutive whole-op delegation failures that trip degraded mode.
const DEGRADE_AFTER_FAILURES: u64 = 3;

/// Consecutive backpressured submissions that trip degraded mode.
const DEGRADE_AFTER_BACKPRESSURE: u64 = 64;

/// Consecutive delegated successes that clear degraded mode.
const RECOVER_AFTER_SUCCESSES: u64 = 8;

/// While degraded, one in this many eligible ops is admitted as a probe
/// (its success is what eventually clears degraded mode).
const PROBE_EVERY: u64 = 16;

/// "No worker-kill plan armed" sentinel.
#[cfg(feature = "faults")]
const KILL_UNSET: u64 = u64::MAX;

/// Worker-side admission check for one ring request. Everything here is
/// normally guaranteed by [`DelegationPool::build_batches`], but the ring
/// is writable by the (untrusted) client, so the worker re-validates:
/// run/byte ceilings, payload slice bounds, and extent-capacity bounds.
/// The MMU check still runs per page during the access itself.
fn validate_req(req: &DelegReq) -> Result<(), ProtError> {
    if req.runs.is_empty() || req.runs.len() > MAX_RUNS_PER_REQ {
        return Err(ProtError::OutOfRange);
    }
    let payload_len = req.grant.as_ref().map(|g| g.len);
    let mut total: usize = 0;
    for run in &req.runs {
        if run.pages.is_empty() {
            return Err(ProtError::OutOfRange);
        }
        let cap = run.pages.len() * PAGE_SIZE;
        let span = match payload_len {
            Some(pl) => {
                if run.payload.start > run.payload.end || run.payload.end > pl {
                    return Err(ProtError::OutOfRange);
                }
                run.payload.len()
            }
            None => run.read_len,
        };
        if run.start >= cap || span > cap - run.start {
            return Err(ProtError::OutOfRange);
        }
        total = total.checked_add(span).ok_or(ProtError::OutOfRange)?;
    }
    if total > MAX_BYTES_PER_REQ {
        return Err(ProtError::OutOfRange);
    }
    Ok(())
}

/// Tagged completion: `(request tag, result)`. Reads return the batch's
/// runs concatenated in submission order.
pub type DelegReply = (usize, Result<Option<Vec<u8>>, ProtError>);

/// One node-contiguous run inside a batched request.
#[derive(Clone)]
pub struct DelegRun {
    /// The run's pages, in extent order (all on the target node).
    pub pages: Vec<PageId>,
    /// Byte offset within the run at which the access starts.
    pub start: usize,
    /// For writes: this run's byte range within the op's grant window.
    pub payload: std::ops::Range<usize>,
    /// For reads: how many bytes to read.
    pub read_len: usize,
}

/// One scatter-gather request: every run an extent access places on a
/// single node, served by one delegation thread in one ring hop.
#[derive(Clone)]
pub struct DelegReq {
    /// The requesting LibFS (MMU checks run against it).
    pub actor: ActorId,
    /// Observability op id of the syscall span this batch serves (0 when
    /// none — raw/hostile submissions, or the `obs` feature off). Workers
    /// echo it into their span events so a timeline can stitch the
    /// client-side submit to the worker-side service.
    pub op_id: u64,
    /// Idempotence token: monotonic per-pool write sequence (0 = none;
    /// reads and raw submissions carry 0). Together with `actor` and
    /// `tag` it names one batch of one write op; a worker records the
    /// token after applying and skips any re-dispatch/retry that carries
    /// an already-recorded token, so a write applies exactly once even
    /// if the worker that applied it died before replying.
    pub seq: u64,
    /// Node-contiguous runs, in extent order.
    pub runs: Vec<DelegRun>,
    /// For writes: the grant window holding the op's payload. Run payload
    /// ranges index *within* this window. The worker re-validates the
    /// grant (owner, epoch, bounds) on every dispatch and reads the bytes
    /// straight from the granted buffer — nothing is copied, and retries
    /// and re-dispatches carry only this reference.
    pub grant: Option<GrantRef>,
    /// Which batch of the op this is; echoed in the reply.
    pub tag: usize,
    /// Completion ring (one per op, pooled).
    pub reply: Arc<SimChannel<DelegReply>>,
}

/// Sizing knobs for the pool; see [`crate::KernelConfig`].
#[derive(Clone, Copy, Debug)]
pub struct DelegationConfig {
    /// Delegation threads (and rings) per NUMA node.
    pub threads_per_node: usize,
    /// Submission-ring capacity; a full ring is counted as backpressure
    /// and the producer blocks.
    pub ring_capacity: usize,
}

impl Default for DelegationConfig {
    fn default() -> Self {
        // 12 threads matches OdinFS's per-node writer pool; 64 slots per
        // ring keeps ~5 ops of headroom per thread before backpressure.
        DelegationConfig { threads_per_node: 12, ring_capacity: 64 }
    }
}

/// Why a deadline-bounded delegated access did not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelegationError {
    /// No reply arrived before the deadline (a delegation thread stalled
    /// or dropped the request). The access may or may not have executed;
    /// callers retry or fall back to direct access — both are safe because
    /// a delegated write is idempotent (same bytes, same location).
    Timeout,
    /// The delegated access executed and faulted.
    Fault(ProtError),
}

impl std::fmt::Display for DelegationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DelegationError::Timeout => write!(f, "delegation request timed out"),
            DelegationError::Fault(e) => write!(f, "delegated access faulted: {e}"),
        }
    }
}

/// Injectable delegation-thread faults (tentpole fault-injection engine).
///
/// Draws come from each delegation thread's own deterministic RNG
/// ([`trio_sim::rng`]), so a given `(seed, settings)` pair replays the same
/// stalls, drops, and kills. The rate fields are "one in N"; zero disables.
#[cfg(feature = "faults")]
pub struct DelegationFaults {
    /// Stall one in N served requests by `stall_ns` of virtual time.
    stall_one_in: AtomicU64,
    /// Virtual nanoseconds a stalled request is delayed before serving.
    stall_ns: AtomicU64,
    /// Drop one in N requests without ever replying (a wedged thread).
    drop_one_in: AtomicU64,
    /// Requests popped so far, across all workers — the replay coordinate
    /// of an armed [`WorkerKillPlan`].
    served: AtomicU64,
    /// Pop index at which to kill the serving worker; `KILL_UNSET` off.
    kill_at_request: AtomicU64,
    /// The armed kill point (`WorkerKillPoint as u8`).
    kill_point: AtomicU8,
    /// Randomly kill the serving worker one in N requests, at a kill
    /// point drawn from the worker's RNG.
    kill_one_in: AtomicU64,
}

#[cfg(feature = "faults")]
impl Default for DelegationFaults {
    fn default() -> Self {
        DelegationFaults {
            stall_one_in: AtomicU64::new(0),
            stall_ns: AtomicU64::new(0),
            drop_one_in: AtomicU64::new(0),
            served: AtomicU64::new(0),
            // 0 is a real pop index; "disarmed" must be the sentinel.
            kill_at_request: AtomicU64::new(KILL_UNSET),
            kill_point: AtomicU8::new(0),
            kill_one_in: AtomicU64::new(0),
        }
    }
}

#[cfg(feature = "faults")]
impl DelegationFaults {
    /// Per-request kill decision, made right after the ring pop. The
    /// armed one-shot plan disarms itself when it fires so the respawned
    /// worker serves the re-dispatch instead of dying again.
    fn draw_kill(&self) -> Option<WorkerKillPoint> {
        let n = self.served.fetch_add(1, Ordering::Relaxed);
        if self.kill_at_request.load(Ordering::Relaxed) == n {
            self.kill_at_request.store(KILL_UNSET, Ordering::Relaxed);
            return WorkerKillPoint::from_index(self.kill_point.load(Ordering::Relaxed));
        }
        let one_in = self.kill_one_in.load(Ordering::Relaxed);
        if one_in != 0 && trio_sim::rng::with_rng(|r| r.one_in(one_in)) {
            let idx = trio_sim::rng::with_rng(|r| r.gen_range(3)) as u8;
            return WorkerKillPoint::from_index(idx);
        }
        None
    }
}

/// Client-side bookkeeping for one batch of an in-flight op.
struct Batch {
    node: usize,
    /// Fan-out slot within the node: only the key that groups an op's
    /// chunks into requests. Rings are picked by [`DelegationPool::ring_for`]'s
    /// per-node round-robin, shared by all clients, so distinct slots do
    /// not guarantee distinct workers.
    slot: usize,
    req: DelegReq,
    /// Read scatter list: `(offset into the caller's buffer, len)` per run,
    /// in the same order the worker concatenates them.
    scatter: Vec<(usize, usize)>,
    /// Bytes this batch moves — the unit the retry window is recomputed
    /// from (remaining work only, not the original op size).
    bytes: usize,
    /// Virtual submit time of the latest attempt, for the hop histogram.
    submitted: Nanos,
    done: bool,
}

/// One delegation worker's kernel-side health record. The worker bumps
/// `epoch` every servicing loop (the heartbeat) and parks the request it
/// is serving in `inflight`; a killed worker sets `died` and returns,
/// leaving the orphan behind for the watchdog.
struct WorkerState {
    node: usize,
    /// Ring index within the node (stable across respawns).
    index: usize,
    ring: Arc<SimChannel<DelegReq>>,
    /// Heartbeat: bumped on every ring pop.
    epoch: AtomicU64,
    /// Last heartbeat value the watchdog observed.
    seen_epoch: AtomicU64,
    /// Set by a dying worker (the sim analogue of process exit — the
    /// watchdog's `waitpid`-equivalent ground truth).
    died: AtomicBool,
    /// Virtual time of death, for recovery-latency accounting.
    died_at: AtomicU64,
    /// The request being serviced, if any; a dead worker's orphan.
    inflight: PlMutex<Option<DelegReq>>,
}

impl WorkerState {
    fn new(node: usize, index: usize, ring: Arc<SimChannel<DelegReq>>) -> Self {
        WorkerState {
            node,
            index,
            ring,
            epoch: AtomicU64::new(0),
            seen_epoch: AtomicU64::new(0),
            died: AtomicBool::new(false),
            died_at: AtomicU64::new(0),
            inflight: PlMutex::new(None),
        }
    }

    /// Marks this worker dead. Called by the worker itself at a kill
    /// point; the in-flight slot is deliberately left populated — that is
    /// the orphan the watchdog re-dispatches.
    fn die(&self) {
        self.died_at.store(if in_sim() { now() } else { 0 }, Ordering::Relaxed);
        self.died.store(true, Ordering::Release);
    }
}

/// Bounded-window idempotence-token table (see [`DelegReq::seq`]).
#[derive(Default)]
struct IdemTable {
    set: HashSet<(u64, u64, usize)>,
    order: VecDeque<(u64, u64, usize)>,
}

impl IdemTable {
    fn contains(&self, key: &(u64, u64, usize)) -> bool {
        self.set.contains(key)
    }

    fn record(&mut self, key: (u64, u64, usize)) {
        if self.set.insert(key) {
            self.order.push_back(key);
            if self.order.len() > IDEM_WINDOW {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }
}

/// Degradation state machine counters (all relaxed atomics; transitions
/// are serialized through `degraded`'s swap).
#[derive(Default)]
struct Health {
    consec_failures: AtomicU64,
    consec_successes: AtomicU64,
    backpressure_run: AtomicU64,
    degraded: AtomicBool,
    /// Bumped on every degraded-mode exit and every worker restart; the
    /// per-file demotion in the LibFS re-promotes when it advances.
    recovery_epoch: AtomicU64,
    probe_tick: AtomicU64,
    enters: AtomicU64,
    exits: AtomicU64,
}

/// Snapshot of the pool's degradation state, surfaced through
/// [`crate::KernelController::degraded_mode`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradedMode {
    /// Whether the pool is currently shedding delegation to direct access.
    pub active: bool,
    /// Consecutive whole-op delegation failures observed.
    pub consecutive_failures: u64,
    /// Lifetime count of degraded-mode entries.
    pub enters: u64,
    /// Lifetime count of degraded-mode exits.
    pub exits: u64,
}

/// The pool; create once per device, start once per simulation.
pub struct DelegationPool {
    dev: Arc<NvmDevice>,
    rings: Vec<Vec<Arc<SimChannel<DelegReq>>>>,
    rr: Vec<AtomicUsize>,
    started: AtomicBool,
    shutting_down: AtomicBool,
    stats: Arc<PathStats>,
    reply_pool: PlMutex<Vec<Arc<SimChannel<DelegReply>>>>,
    /// One health record per worker, flattened node-major.
    workers: Vec<Arc<WorkerState>>,
    /// Monotonic write-sequence source for idempotence tokens.
    next_seq: AtomicU64,
    idem: Arc<PlMutex<IdemTable>>,
    /// Live grant windows; shared with every worker for per-dispatch
    /// re-validation.
    grants: Arc<GrantTable>,
    health: Health,
    /// Failure-domain events, merged into the registry's stream by
    /// [`crate::KernelController::take_events`].
    events: PlMutex<Vec<KernelEvent>>,
    /// Death-to-restart latencies observed by the watchdog, in virtual ns.
    recovery_ns: PlMutex<Vec<Nanos>>,
    #[cfg(feature = "faults")]
    faults: Arc<DelegationFaults>,
}

impl DelegationPool {
    /// Builds rings for `threads_per_node` delegation threads on each node,
    /// with default ring capacity and private counters.
    pub fn new(dev: Arc<NvmDevice>, threads_per_node: usize) -> Self {
        let config = DelegationConfig { threads_per_node, ..DelegationConfig::default() };
        Self::with_config(dev, config, Arc::new(PathStats::new()))
    }

    /// Builds the pool with explicit sizing and a shared counter sink.
    pub fn with_config(dev: Arc<NvmDevice>, config: DelegationConfig, stats: Arc<PathStats>) -> Self {
        let nodes = dev.topology().nodes;
        let cap = config.ring_capacity.max(1);
        let rings: Vec<Vec<Arc<SimChannel<DelegReq>>>> = (0..nodes)
            .map(|_| {
                (0..config.threads_per_node.max(1))
                    .map(|_| Arc::new(SimChannel::bounded(cap)))
                    .collect()
            })
            .collect();
        let workers = rings
            .iter()
            .enumerate()
            .flat_map(|(node, node_rings)| {
                node_rings
                    .iter()
                    .enumerate()
                    .map(move |(i, ring)| Arc::new(WorkerState::new(node, i, Arc::clone(ring))))
            })
            .collect();
        let health = Health::default();
        health.recovery_epoch.store(1, Ordering::Relaxed);
        let grants = Arc::new(GrantTable::new(Arc::clone(&stats)));
        DelegationPool {
            dev,
            rings,
            rr: (0..nodes).map(|_| AtomicUsize::new(0)).collect(),
            started: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            stats,
            reply_pool: PlMutex::new(Vec::new()),
            workers,
            next_seq: AtomicU64::new(0),
            idem: Arc::new(PlMutex::new(IdemTable::default())),
            grants,
            health,
            events: PlMutex::new(Vec::new()),
            recovery_ns: PlMutex::new(Vec::new()),
            #[cfg(feature = "faults")]
            faults: Arc::new(DelegationFaults::default()),
        }
    }

    /// The pool's data-path counters.
    pub fn stats(&self) -> &Arc<PathStats> {
        &self.stats
    }

    /// The pool's grant-window table (buffer registration lives here).
    pub fn grants(&self) -> &GrantTable {
        &self.grants
    }

    /// Arms delegation-thread fault injection: stall one in
    /// `stall_one_in` requests by `stall_ns`, drop one in `drop_one_in`
    /// requests without replying. Zero rates disable the respective fault.
    #[cfg(feature = "faults")]
    pub fn inject_faults(&self, stall_one_in: u64, stall_ns: Nanos, drop_one_in: u64) {
        self.faults.stall_one_in.store(stall_one_in, Ordering::Relaxed);
        self.faults.stall_ns.store(stall_ns, Ordering::Relaxed);
        self.faults.drop_one_in.store(drop_one_in, Ordering::Relaxed);
    }

    /// Arms a one-shot worker-kill plan: the worker that pops the
    /// `plan.at_request`-th request (0-based, global pop order) dies at
    /// `plan.point`. The plan disarms when it fires, so the re-dispatch
    /// and any client retry are served by healthy workers.
    #[cfg(feature = "faults")]
    pub fn arm_worker_kill(&self, plan: WorkerKillPlan) {
        self.faults.kill_point.store(plan.point as u8, Ordering::Relaxed);
        self.faults.kill_at_request.store(plan.at_request, Ordering::Relaxed);
    }

    /// Random worker-kill mode: one in `one_in` served requests kills the
    /// serving worker at an RNG-drawn kill point. Zero disables.
    #[cfg(feature = "faults")]
    pub fn inject_worker_kills(&self, one_in: u64) {
        self.faults.kill_one_in.store(one_in, Ordering::Relaxed);
    }

    /// Requests popped so far across all workers (the replay coordinate
    /// of [`Self::arm_worker_kill`]).
    #[cfg(feature = "faults")]
    pub fn requests_served(&self) -> u64 {
        self.faults.served.load(Ordering::Relaxed)
    }

    /// Spawns the delegation sim-threads. Must be called from inside the
    /// simulation (e.g. the harness's main sim-thread). Returns their join
    /// handles; call [`DelegationPool::shutdown`] to let them exit.
    /// (Respawned workers' handles are not returned; the runtime joins
    /// them like any other sim thread.)
    pub fn start(&self) -> Vec<JoinHandle> {
        assert!(!self.started.swap(true, Ordering::SeqCst), "delegation pool already started");
        self.workers.iter().map(|ws| self.spawn_worker(Arc::clone(ws))).collect()
    }

    /// Spawns (or respawns) the sim-thread for one worker slot. The
    /// incarnation serves the slot's original ring, so requests queued
    /// behind a death are preserved.
    fn spawn_worker(&self, ws: Arc<WorkerState>) -> JoinHandle {
        let dev = Arc::clone(&self.dev);
        let stats = Arc::clone(&self.stats);
        let idem = Arc::clone(&self.idem);
        let grants = Arc::clone(&self.grants);
        #[cfg(feature = "faults")]
        let faults = Arc::clone(&self.faults);
        spawn("delegation", move || {
            trio_nvm::handle::set_home_node(ws.node);
            while let Some(req) = ws.ring.recv() {
                // Heartbeat + in-flight parking: what the watchdog reads.
                ws.epoch.fetch_add(1, Ordering::Relaxed);
                *ws.inflight.lock() = Some(req.clone());
                #[cfg(feature = "faults")]
                let kill = faults.draw_kill();
                #[cfg(not(feature = "faults"))]
                let kill: Option<WorkerKillPoint> = None;
                if kill == Some(WorkerKillPoint::AfterPop) {
                    // Dies with nothing applied: the orphan re-dispatch
                    // must run the request from scratch.
                    ws.die();
                    return;
                }
                #[cfg(feature = "faults")]
                {
                    let n = faults.stall_one_in.load(Ordering::Relaxed);
                    if n != 0 && trio_sim::rng::with_rng(|r| r.one_in(n)) {
                        trio_sim::work(faults.stall_ns.load(Ordering::Relaxed));
                    }
                    let n = faults.drop_one_in.load(Ordering::Relaxed);
                    if n != 0 && trio_sim::rng::with_rng(|r| r.one_in(n)) {
                        // A wedged thread: the request vanishes and no
                        // reply is ever sent. Clients must use the
                        // deadline-bounded entry points to survive this.
                        // Not an orphan — the thread lives on — so the
                        // in-flight slot is cleared.
                        *ws.inflight.lock() = None;
                        continue;
                    }
                }
                if let Err(e) = validate_req(&req) {
                    stats.record_deleg_rejected();
                    let _ = req.reply.send((req.tag, Err(e)));
                    *ws.inflight.lock() = None;
                    continue;
                }
                let is_write = req.grant.is_some();
                let key = (req.actor.0 as u64, req.seq, req.tag);
                if is_write && req.seq != 0 && idem.lock().contains(&key) {
                    // Already applied by a previous incarnation that died
                    // before replying: acknowledge without touching media.
                    stats.record_dedup_hit();
                    let _ = req.reply.send((req.tag, Ok(None)));
                    *ws.inflight.lock() = None;
                    continue;
                }
                // Grant admission runs on *every* dispatch — first send,
                // client retry, watchdog re-dispatch — so a window whose
                // backing buffer was revoked, unregistered, or mutated
                // (epoch bumped) in the meantime faults here instead of
                // being read stale.
                let granted = match &req.grant {
                    Some(g) => match grants.resolve(req.actor, g) {
                        Ok(data) => Some(data),
                        Err(e) => {
                            stats.record_grant_fault();
                            let _ = req.reply.send((req.tag, Err(e)));
                            *ws.inflight.lock() = None;
                            continue;
                        }
                    },
                    None => None,
                };
                let svc_t0 = crate::obs::worker_begin(req.op_id, is_write, ws.node, req.actor.0);
                let h = NvmHandle::new(Arc::clone(&dev), req.actor);
                let xfer_t0 = crate::obs::transfer_begin();
                let mut killed_mid = false;
                let mut result = match (&req.grant, &granted) {
                    (Some(gref), Some(buffer)) => {
                        // The worker's single pass over the granted bytes:
                        // read straight from the grant window, stream the
                        // checksum, store into NVM. No copy in between.
                        let window = &buffer[gref.start..gref.start + gref.len];
                        let mut r = Ok(None);
                        // Acked ⇒ durable: every run must yield a Durable
                        // witness (write_extent_hashed fences before
                        // returning) before the reply goes out below.
                        let mut durable_runs = 0usize;
                        for (i, run) in req.runs.iter().enumerate() {
                            let Some(data) = window.get(run.payload.clone()) else {
                                r = Err(ProtError::OutOfRange);
                                break;
                            };
                            match h.write_extent_hashed(&run.pages, run.start, data) {
                                Ok(proof) => {
                                    debug_assert_eq!(proof.witness().bytes(), data.len());
                                    durable_runs += 1;
                                }
                                Err(e) => {
                                    r = Err(e);
                                    break;
                                }
                            }
                            stats.record_checksummed_bytes(data.len());
                            if i == 0 && kill == Some(WorkerKillPoint::MidPayload) {
                                // Dies with the first run applied and the
                                // token NOT recorded: the re-dispatch
                                // re-applies the same bytes (idempotent).
                                killed_mid = true;
                                break;
                            }
                        }
                        if r.is_ok() && !killed_mid {
                            // Type-level form of the reply contract: an Ok
                            // reply is only sent once every run produced a
                            // durability witness.
                            debug_assert_eq!(durable_runs, req.runs.len());
                        }
                        r
                    }
                    _ => {
                        let total: usize = req.runs.iter().map(|r| r.read_len).sum();
                        let mut buf = vec![0u8; total];
                        let mut r = Ok(());
                        let mut off = 0;
                        for (i, run) in req.runs.iter().enumerate() {
                            let dst = &mut buf[off..off + run.read_len];
                            if let Err(e) = h.read_extent(&run.pages, run.start, dst) {
                                r = Err(e);
                                break;
                            }
                            off += run.read_len;
                            if i == 0 && kill == Some(WorkerKillPoint::MidPayload) {
                                killed_mid = true;
                                break;
                            }
                        }
                        r.map(|()| Some(buf))
                    }
                };
                if killed_mid {
                    // The controller reaps a dead worker's grant pins so a
                    // pending revocation can still drain; the sim models
                    // that reap as an unpin on the death path.
                    if let Some(g) = &req.grant {
                        grants.unpin(g.grant_id);
                    }
                    ws.die();
                    return;
                }
                crate::obs::transfer_end(
                    req.op_id,
                    is_write,
                    ws.node,
                    req.actor.0,
                    req.runs.len() as u64,
                    xfer_t0,
                );
                crate::obs::worker_end(req.op_id, is_write, ws.node, req.actor.0, svc_t0);
                if let Some(g) = &req.grant {
                    // Post-pass re-check: the pass itself read a
                    // consistent snapshot, but if the submitter revoked
                    // or rewrote the grant while it ran, the contract is
                    // broken and the client must see a clean fault, not
                    // a success for bytes it no longer stands behind.
                    if result.is_ok() && !grants.is_current(g) {
                        stats.record_grant_fault();
                        result = Err(ProtError::GrantRevoked);
                    }
                    // Pin held since resolve: releasing it is what lets a
                    // waiting revocation complete — strictly after this
                    // pass's bytes (stale or not) are on media.
                    grants.unpin(g.grant_id);
                }
                if is_write && req.seq != 0 && result.is_ok() {
                    // Token records only after the full apply: a death
                    // before this line re-applies (byte-idempotent), a
                    // death after it dedups.
                    idem.lock().record(key);
                }
                if kill == Some(WorkerKillPoint::BeforeReply) {
                    // Dies with everything applied and the token recorded
                    // but the client still waiting: the re-dispatch must
                    // reply via the dedup path without re-applying.
                    ws.die();
                    return;
                }
                let _ = req.reply.send((req.tag, result));
                *ws.inflight.lock() = None;
            }
        })
    }

    /// Watchdog pass over every worker: advances the heartbeat bookkeeping
    /// and, for each worker whose death flag is set (the sim analogue of a
    /// `waitpid` reap), re-dispatches its orphaned in-flight request to a
    /// healthy ring and respawns the worker on its original ring. Invoked
    /// from every client deadline miss — a dead worker is detected within
    /// one retry window — and callable directly by harnesses. Returns the
    /// number of deaths handled.
    ///
    /// Workers that are merely wedged (alive but not replying — the drop
    /// fault) are left alone: killing a live thread is not modelled, and
    /// the client-side deadline/fallback path already covers them.
    pub fn watchdog_scan(&self) -> usize {
        let mut deaths = 0;
        for ws in &self.workers {
            let e = ws.epoch.load(Ordering::Relaxed);
            ws.seen_epoch.store(e, Ordering::Relaxed);
            if !ws.died.load(Ordering::Acquire) {
                continue;
            }
            deaths += 1;
            let orphan = ws.inflight.lock().take();
            self.stats.record_worker_death();
            crate::obs::worker_death(ws.node, ws.index as u64);
            self.events
                .lock()
                .push(KernelEvent::WorkerDied { node: ws.node, worker: ws.index });
            self.note_op_failure();
            // Respawn first so the orphan can even land back on this
            // worker's own ring without waiting for a third party.
            let restarted = in_sim() && !self.shutting_down.load(Ordering::Relaxed);
            if restarted {
                ws.died.store(false, Ordering::Release);
                let _ = self.spawn_worker(Arc::clone(ws));
                self.stats.record_worker_restart();
                let rec = now().saturating_sub(ws.died_at.load(Ordering::Relaxed));
                self.recovery_ns.lock().push(rec);
                crate::obs::worker_restart(ws.node, ws.index as u64, rec);
                self.events
                    .lock()
                    .push(KernelEvent::WorkerRestarted { node: ws.node, worker: ws.index });
                self.health.recovery_epoch.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(req) = orphan {
                // Best-effort re-dispatch; a full ring drops the orphan
                // (the client's own retry covers it — double-enqueue is
                // safe either way thanks to the idempotence token).
                match self.ring_for(ws.node).try_send(req) {
                    Ok(()) => {
                        self.stats.record_redispatch();
                        crate::obs::redispatch(ws.node, ws.index as u64);
                    }
                    Err(_) => self.stats.record_ring_backpressure(),
                }
            }
        }
        deaths
    }

    // --- degradation state machine -------------------------------------

    fn note_op_success(&self) {
        self.health.consec_failures.store(0, Ordering::Relaxed);
        self.health.backpressure_run.store(0, Ordering::Relaxed);
        let ok = self.health.consec_successes.fetch_add(1, Ordering::Relaxed) + 1;
        if ok >= RECOVER_AFTER_SUCCESSES && self.health.degraded.swap(false, Ordering::Relaxed) {
            self.health.exits.fetch_add(1, Ordering::Relaxed);
            self.health.recovery_epoch.fetch_add(1, Ordering::Relaxed);
            self.stats.record_degraded(false);
            crate::obs::degraded_exit();
            self.events.lock().push(KernelEvent::DelegationRecovered);
        }
    }

    fn note_op_failure(&self) {
        self.health.consec_successes.store(0, Ordering::Relaxed);
        let bad = self.health.consec_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if bad >= DEGRADE_AFTER_FAILURES {
            self.enter_degraded(bad);
        }
    }

    fn note_backpressure(&self) {
        self.stats.record_ring_backpressure();
        let run = self.health.backpressure_run.fetch_add(1, Ordering::Relaxed) + 1;
        if run >= DEGRADE_AFTER_BACKPRESSURE {
            self.enter_degraded(self.health.consec_failures.load(Ordering::Relaxed));
        }
    }

    fn enter_degraded(&self, failures: u64) {
        if !self.health.degraded.swap(true, Ordering::Relaxed) {
            self.health.enters.fetch_add(1, Ordering::Relaxed);
            self.stats.record_degraded(true);
            crate::obs::degraded_enter(failures);
            self.events.lock().push(KernelEvent::DelegationDegraded);
        }
    }

    /// Routing gate for the LibFS: while healthy every eligible op is
    /// admitted; while degraded only one in [`PROBE_EVERY`] is, as a
    /// probe whose success (a run of them) clears degraded mode.
    pub fn admit_delegated(&self) -> bool {
        if !self.health.degraded.load(Ordering::Relaxed) {
            return true;
        }
        self.health.probe_tick.fetch_add(1, Ordering::Relaxed).is_multiple_of(PROBE_EVERY)
    }

    /// Whether the pool is currently in degraded mode.
    pub fn degraded(&self) -> bool {
        self.health.degraded.load(Ordering::Relaxed)
    }

    /// Bumped on every recovery (degraded-mode exit or worker restart);
    /// per-file demotions re-promote when it advances.
    pub fn recovery_epoch(&self) -> u64 {
        self.health.recovery_epoch.load(Ordering::Relaxed)
    }

    /// Snapshot of the degradation state machine.
    pub fn degraded_mode(&self) -> DegradedMode {
        DegradedMode {
            active: self.health.degraded.load(Ordering::Relaxed),
            consecutive_failures: self.health.consec_failures.load(Ordering::Relaxed),
            enters: self.health.enters.load(Ordering::Relaxed),
            exits: self.health.exits.load(Ordering::Relaxed),
        }
    }

    /// Drains the pool's failure-domain events (worker deaths/restarts,
    /// degraded-mode transitions), oldest first.
    pub fn take_events(&self) -> Vec<KernelEvent> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Drains the death-to-restart latencies the watchdog observed.
    pub fn take_recovery_latencies(&self) -> Vec<Nanos> {
        std::mem::take(&mut *self.recovery_ns.lock())
    }

    /// Total worker slots (nodes × threads per node).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Whether [`DelegationPool::start`] ran.
    pub fn is_started(&self) -> bool {
        self.started.load(Ordering::SeqCst)
    }

    /// Closes all rings; delegation threads drain and exit. Suppresses
    /// watchdog respawns from this point on.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        for node_rings in &self.rings {
            for ring in node_rings {
                ring.close();
            }
        }
    }

    /// Adversary/test hook: enqueue a raw, possibly malformed [`DelegReq`]
    /// on one of `node`'s rings, bypassing every client-side invariant —
    /// exactly what a hostile LibFS with ring access can do. The worker's
    /// [`validate_req`] admission check and the per-page MMU check are the
    /// only defenses that apply.
    pub fn submit_raw(&self, node: usize, req: DelegReq) -> Result<(), ProtError> {
        if node >= self.rings.len() {
            return Err(ProtError::OutOfRange);
        }
        self.stats.record_submission(req.runs.len());
        self.ring_for(node).send(req).map_err(|_| ProtError::NotMapped)
    }

    fn ring_for(&self, node: usize) -> &Arc<SimChannel<DelegReq>> {
        let i = self.rr[node].fetch_add(1, Ordering::Relaxed);
        let rings = &self.rings[node];
        &rings[i % rings.len()]
    }

    /// Grabs a pooled reply ring, or makes one sized so that even an
    /// abandoned op's stragglers fit without blocking a worker.
    fn take_reply(&self) -> Arc<SimChannel<DelegReply>> {
        if let Some(ch) = self.reply_pool.lock().pop() {
            return ch;
        }
        Arc::new(SimChannel::bounded(REPLY_RING_CAP))
    }

    /// Returns a reply ring to the pool. Callers may only do this when
    /// every submitted batch was received — an abandoned ring with
    /// stragglers in flight must be dropped instead, or a late reply
    /// would bleed into the next op. (The watchdog's re-dispatches keep
    /// this sound: a re-dispatch only exists because the original worker
    /// died without replying, so total replies never exceed the client's
    /// own submissions.)
    fn put_reply(&self, ch: Arc<SimChannel<DelegReply>>) {
        debug_assert!(ch.is_empty());
        let mut pool = self.reply_pool.lock();
        if pool.len() < 256 {
            pool.push(ch);
        }
    }

    /// Splits `[start, start+len)` over `pages` into node-contiguous runs.
    /// Returns `(node, page_range, byte_range_within_extent)` tuples.
    #[allow(clippy::needless_range_loop)] // `pi` marks run boundaries
    fn split_runs(
        &self,
        pages: &[PageId],
        start: usize,
        len: usize,
    ) -> Vec<(usize, std::ops::Range<usize>, std::ops::Range<usize>)> {
        let topo = self.dev.topology();
        let mut runs = Vec::new();
        if len == 0 {
            return runs;
        }
        let first = start / PAGE_SIZE;
        let last = (start + len - 1) / PAGE_SIZE;
        let mut run_start_page = first;
        let mut run_node = topo.node_of(pages[first]);
        for pi in first..=last {
            let node = topo.node_of(pages[pi]);
            if node != run_node {
                runs.push(self.finish_run(run_node, run_start_page, pi, start, len));
                run_start_page = pi;
                run_node = node;
            }
        }
        runs.push(self.finish_run(run_node, run_start_page, last + 1, start, len));
        runs
    }

    fn finish_run(
        &self,
        node: usize,
        from_page: usize,
        to_page: usize,
        start: usize,
        len: usize,
    ) -> (usize, std::ops::Range<usize>, std::ops::Range<usize>) {
        let byte_from = start.max(from_page * PAGE_SIZE);
        let byte_to = (start + len).min(to_page * PAGE_SIZE);
        (node, from_page..to_page, byte_from..byte_to)
    }

    /// Workers on `node` with nothing queued on their ring. A worker still
    /// serving its last request counts: a chunk queued behind it waits
    /// for that one request only. `SimChannel::len` is a host lock, so
    /// sampling charges no virtual time.
    fn idle_workers(&self, node: usize) -> usize {
        self.rings[node].iter().filter(|ring| ring.is_empty()).count()
    }

    /// Groups the extent's runs into tagged batches, one per `(node,
    /// fan-out slot)`. Each node fans out only as wide as its idle workers
    /// at submit time (at least 1): a node-contiguous run bigger than
    /// [`FANOUT_MIN_BYTES`] is split into up to that many page-aligned
    /// chunks, dealt round-robin over that many slots. An idle node thus
    /// serves one large op with several delegation threads — the
    /// concurrency its bandwidth model rewards — while a saturated node
    /// gets one request per op carrying all of its runs, so ring hops do
    /// not multiply with the client count. Small runs stay whole: one
    /// chunk, one hop.
    #[allow(clippy::too_many_arguments)]
    fn build_batches(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        len: usize,
        grant: Option<&GrantRef>,
        reply: &Arc<SimChannel<DelegReply>>,
        seq: u64,
    ) -> Vec<Batch> {
        let mut batches: Vec<Batch> = Vec::new();
        let mut next_slot: Vec<usize> = vec![0; self.rings.len()];
        // Per-node fan-out width, sampled once per op on first touch.
        let mut width: Vec<Option<usize>> = vec![None; self.rings.len()];
        for (node, prange, brange) in self.split_runs(pages, start, len) {
            let width = *width[node].get_or_insert_with(|| self.idle_workers(node).max(1));
            let chunks = (brange.len() / FANOUT_MIN_BYTES).clamp(1, width);
            let run_pages = prange.len();
            let mut from_page = prange.start;
            for ci in 0..chunks {
                // Even page split: every page belongs to exactly one
                // chunk, so no two workers ever share a page.
                let to_page = prange.start + (run_pages * (ci + 1)) / chunks;
                if to_page == from_page {
                    continue;
                }
                let byte_from = brange.start.max(from_page * PAGE_SIZE);
                let byte_to = brange.end.min(to_page * PAGE_SIZE);
                let run = DelegRun {
                    // lint: allow(no-payload-copy) page-id list, not payload bytes
                    pages: pages[from_page..to_page].to_vec(),
                    start: byte_from - from_page * PAGE_SIZE,
                    payload: byte_from - start..byte_to - start,
                    read_len: if grant.is_some() { 0 } else { byte_to - byte_from },
                };
                let scatter = (byte_from - start, byte_to - byte_from);
                let slot = next_slot[node];
                next_slot[node] = (slot + 1) % width;
                from_page = to_page;
                match batches.iter_mut().find(|b| b.node == node && b.slot == slot) {
                    Some(b) => {
                        b.req.runs.push(run);
                        b.scatter.push(scatter);
                        b.bytes += scatter.1;
                    }
                    None => batches.push(Batch {
                        node,
                        slot,
                        req: DelegReq {
                            actor,
                            op_id: crate::obs::current_op(),
                            seq,
                            runs: vec![run],
                            grant: grant.copied(),
                            tag: batches.len(),
                            reply: Arc::clone(reply),
                        },
                        scatter: vec![scatter],
                        bytes: scatter.1,
                        submitted: 0,
                        done: false,
                    }),
                }
            }
        }
        batches
    }

    /// Enqueues one batch, counting ring backpressure (which feeds the
    /// degradation state machine) and giving the watchdog a chance to
    /// clear a dead worker before blocking on a full ring. Fails only
    /// when the pool is shut down.
    fn submit(&self, batch: &mut Batch) -> Result<(), ProtError> {
        self.stats.record_submission(batch.req.runs.len());
        crate::obs::ring_submit(
            batch.req.op_id,
            batch.req.grant.is_some(),
            batch.node,
            batch.req.actor.0,
            batch.req.runs.len() as u64,
        );
        batch.submitted = if in_sim() { now() } else { 0 };
        match self.ring_for(batch.node).try_send(batch.req.clone()) {
            Ok(()) => Ok(()),
            Err(req) => {
                self.note_backpressure();
                // The ring may be full because its worker died mid-queue:
                // reap and respawn before committing to a blocking send.
                self.watchdog_scan();
                self.ring_for(batch.node).send(req).map_err(|_| ProtError::NotMapped)
            }
        }
    }

    /// Core submit-and-collect loop shared by every entry point.
    ///
    /// Dispatches every batch of the op, then waits for tagged
    /// completions. With a [`RetryPolicy`], each attempt waits one policy
    /// window — recomputed from the *remaining* (not yet completed)
    /// bytes, so retries of a partially-completed scatter-gather op get
    /// deadlines scaled to what is actually left — then runs a watchdog
    /// scan and re-enqueues only the still-pending batches (same shared
    /// payload — no copy), up to the policy's attempt budget. Without a
    /// policy it waits forever (the baseline-compatible blocking mode).
    /// `buf` receives scattered read data.
    ///
    /// This wrapper also maintains the in-flight gauge that guards
    /// [`PathStats::reset`], feeds the degradation state machine, and
    /// auto-dumps the obs flight recorder when the whole op times out.
    #[allow(clippy::too_many_arguments)]
    fn run_batches(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        len: usize,
        grant: Option<&GrantRef>,
        buf: Option<&mut [u8]>,
        policy: Option<&RetryPolicy>,
    ) -> Result<(), DelegationError> {
        self.stats.enter_delegated_op();
        let r = self.run_batches_inner(actor, pages, start, len, grant, buf, policy);
        self.stats.exit_delegated_op();
        match &r {
            Ok(()) => self.note_op_success(),
            Err(DelegationError::Timeout) => {
                self.note_op_failure();
                crate::obs::timeout_dump();
            }
            // Faults are the access's own outcome (permissions, bounds),
            // not delegation-infrastructure health.
            Err(DelegationError::Fault(_)) => {}
        }
        r
    }

    #[allow(clippy::too_many_arguments)]
    fn run_batches_inner(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        len: usize,
        grant: Option<&GrantRef>,
        mut buf: Option<&mut [u8]>,
        policy: Option<&RetryPolicy>,
    ) -> Result<(), DelegationError> {
        if len == 0 {
            return Ok(());
        }
        // Idempotence tokens are minted per write op and shared by all of
        // its batches (the batch tag disambiguates them).
        let seq =
            if grant.is_some() { self.next_seq.fetch_add(1, Ordering::Relaxed) + 1 } else { 0 };
        let reply = self.take_reply();
        let mut batches = self.build_batches(actor, pages, start, len, grant, &reply, seq);
        let mut sent = 0u64;
        let mut received = 0u64;
        let mut fault: Option<ProtError> = None;
        let mut pending = batches.len();
        for b in batches.iter_mut() {
            match self.submit(b) {
                Ok(()) => sent += 1,
                Err(e) => {
                    fault = Some(e);
                    b.done = true;
                    pending -= 1;
                }
            }
        }
        // Deadlines need the virtual clock; outside the sim (where no
        // injected fault can fire either) waits degrade to blocking.
        let mut attempt = 0u32;
        'attempts: while pending > 0 {
            let deadline = match policy {
                Some(p) if in_sim() => {
                    let remaining: usize =
                        batches.iter().filter(|b| !b.done).map(|b| b.bytes).sum();
                    let window = p.window_ns(attempt, remaining);
                    if attempt > 0 {
                        crate::obs::retry_decision(
                            crate::obs::current_op(),
                            grant.is_some(),
                            attempt,
                            window,
                        );
                    }
                    Some(now() + window)
                }
                _ => None,
            };
            attempt += 1;
            while pending > 0 {
                let got = match deadline {
                    Some(d) => reply.recv_deadline(d),
                    None => match reply.recv() {
                        Some(v) => RecvDeadline::Ok(v),
                        None => RecvDeadline::Closed,
                    },
                };
                match got {
                    RecvDeadline::Ok((tag, result)) => {
                        received += 1;
                        let b = &mut batches[tag];
                        if b.done {
                            // Straggler from a retried attempt; already
                            // accounted for.
                            continue;
                        }
                        if in_sim() {
                            let hop = now().saturating_sub(b.submitted);
                            self.stats.record_ring_hop(hop);
                            crate::obs::ring_reply(
                                b.req.op_id,
                                b.req.grant.is_some(),
                                b.node,
                                b.req.actor.0,
                                hop,
                            );
                        }
                        b.done = true;
                        pending -= 1;
                        match result {
                            Ok(Some(data)) => {
                                if let Some(buf) = buf.as_deref_mut() {
                                    let mut off = 0;
                                    for &(dst, n) in &b.scatter {
                                        buf[dst..dst + n].copy_from_slice(&data[off..off + n]);
                                        off += n;
                                    }
                                }
                            }
                            Ok(None) => {
                                if buf.is_some() {
                                    fault = Some(ProtError::NotMapped);
                                }
                            }
                            Err(e) => fault = Some(e),
                        }
                    }
                    RecvDeadline::Closed => {
                        fault = Some(ProtError::NotMapped);
                        break 'attempts;
                    }
                    RecvDeadline::TimedOut => {
                        self.stats.record_timeout();
                        // Timeouts only occur under a policy (deadlines
                        // are only set when one is present).
                        let budget = policy.map_or(1, |p| p.attempts());
                        if attempt >= budget {
                            break 'attempts;
                        }
                        // A dead worker may be holding one of our batches
                        // hostage: reap, re-dispatch its orphan, respawn —
                        // then re-enqueue whatever is still missing (the
                        // shared payload rides along untouched; a double
                        // enqueue is defused by the idempotence token).
                        self.watchdog_scan();
                        for b in batches.iter_mut().filter(|b| !b.done) {
                            self.stats.record_retry();
                            match self.submit(b) {
                                Ok(()) => sent += 1,
                                Err(e) => {
                                    fault = Some(e);
                                    b.done = true;
                                    pending -= 1;
                                }
                            }
                        }
                        continue 'attempts;
                    }
                }
            }
        }
        if received == sent {
            self.put_reply(reply);
        }
        match (fault, pending) {
            (Some(e), _) => Err(DelegationError::Fault(e)),
            (None, 0) => {
                self.stats.record_delegated_bytes(len, grant.is_some());
                Ok(())
            }
            (None, _) => Err(DelegationError::Timeout),
        }
    }

    /// Zero-copy delegated write of an extent: the payload is named by a
    /// [`GrantRef`] window (see [`Self::grants`]) and read by the workers
    /// straight from the granted buffer — no bytes move on the submit
    /// path. Batches are dispatched in parallel (large runs fanned out
    /// across each node's idle workers), waiting (unbounded) for all
    /// completions. `gref.len` is the op's payload length.
    pub fn write_extent_granted(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        gref: GrantRef,
    ) -> Result<(), ProtError> {
        let op = self.grants.op_window(actor, &gref)?;
        let r = self.run_batches(actor, pages, start, op.len, Some(&op), None, None);
        self.grants.revoke(actor, op.grant_id);
        match r {
            Ok(()) => Ok(()),
            Err(DelegationError::Fault(e)) => Err(e),
            Err(DelegationError::Timeout) => Err(ProtError::NotMapped),
        }
    }

    /// Delegated read of an extent (unbounded wait).
    pub fn read_extent(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        buf: &mut [u8],
    ) -> Result<(), ProtError> {
        let len = buf.len();
        match self.run_batches(actor, pages, start, len, None, Some(buf), None) {
            Ok(()) => Ok(()),
            Err(DelegationError::Fault(e)) => Err(e),
            Err(DelegationError::Timeout) => Err(ProtError::NotMapped),
        }
    }

    /// Deadline-bounded zero-copy delegated write: like
    /// [`DelegationPool::write_extent_granted`] but every wait is bounded
    /// by the [`RetryPolicy`] instead of hanging on a stalled, wedged, or
    /// dead delegation thread. Each retry window is recomputed from the
    /// bytes still outstanding and runs a watchdog scan first; retries
    /// re-enqueue only the [`GrantRef`], and every re-dispatch re-resolves
    /// it. Outside the simulation there is no virtual clock (and no
    /// injected fault can fire), so this degrades to the blocking variant.
    pub fn try_write_extent_granted(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        gref: GrantRef,
        policy: &RetryPolicy,
    ) -> Result<(), DelegationError> {
        // The op dispatches an op-scoped child of `gref` and revokes it on
        // the way out: the revoke is a drain barrier, so when this returns
        // (success, fault, or timeout-then-fallback) no worker is still
        // reading the window — a straggling duplicate can never re-apply
        // stale bytes over whatever the caller writes next.
        let op = self.grants.op_window(actor, &gref).map_err(DelegationError::Fault)?;
        let r = self.run_batches(actor, pages, start, op.len, Some(&op), None, Some(policy));
        self.grants.revoke(actor, op.grant_id);
        r
    }

    /// Deadline-bounded delegated read; see
    /// [`DelegationPool::try_write_extent`]. On [`DelegationError::Timeout`]
    /// the buffer contents are unspecified (some runs may have landed).
    pub fn try_read_extent(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        buf: &mut [u8],
        policy: &RetryPolicy,
    ) -> Result<(), DelegationError> {
        let len = buf.len();
        self.run_batches(actor, pages, start, len, None, Some(buf), Some(policy))
    }
}
