//! Per-thread call recording: virtual latency samples, failure counts and
//! (in a traced run) spans.
//!
//! Every call the benchmark makes into the file system goes through
//! [`ThreadLog::call`], which reads the simulator clock around it. Reading
//! the clock charges no virtual time, so a traced run must report exactly
//! the virtual numbers of an untraced one.

use std::time::Instant;

use trio_fsapi::FsResult;
use trio_sim::Nanos;

/// The kinds of call whose latency the benchmark reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Pwrite,
    Pread,
    Create,
    Unlink,
    Rename,
    Stat,
    /// `ArckFs::release_path` of a shared directory (meta_share).
    Release,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Pwrite,
        Kind::Pread,
        Kind::Create,
        Kind::Unlink,
        Kind::Rename,
        Kind::Stat,
        Kind::Release,
    ];

    /// Span name: the layer the call enters, then the call.
    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Pwrite => "core.pwrite",
            Kind::Pread => "core.pread",
            Kind::Create => "core.create",
            Kind::Unlink => "core.unlink",
            Kind::Rename => "core.rename",
            Kind::Stat => "core.stat",
            Kind::Release => "core.release_path",
        }
    }
}

/// One recorded span. Times are virtual ns since the run started and host
/// ns since the run's host epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Request id: (sim-thread index, op index within that thread).
    pub thread: u32,
    pub op: u32,
    pub v_start: Nanos,
    pub v_end: Nanos,
    pub h_start: u64,
    pub h_end: u64,
}

/// Span ids are `(owner + 1) << 32 | sequence`; owner `u32::MAX` is the
/// harness thread, which records phase spans.
pub fn span_id(owner: u32, seq: u64) -> u64 {
    ((owner as u64).wrapping_add(1) << 32) | (seq & 0xFFFF_FFFF)
}

/// Everything one sim-thread records during one measured phase.
pub struct ThreadLog {
    pub thread: u32,
    /// Op index of the current request (one loop iteration).
    pub op: u32,
    /// Virtual ns per successful call, by [`Kind`].
    pub lat: [Vec<Nanos>; Kind::ALL.len()],
    /// Virtual ns of the first call on a shared directory after the
    /// peer's release (meta_share only).
    pub handover: Vec<Nanos>,
    pub attempted: u64,
    pub failed: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    /// First few output-check failures, for the report.
    pub check_failures: Vec<String>,
    pub checks: u64,
    /// Virtual ns of the last successful [`ThreadLog::call`].
    pub last_ns: Nanos,
    pub start: Nanos,
    pub end: Nanos,
    /// Host epoch and parent span when tracing; `None` records no spans.
    trace: Option<(Instant, u64)>,
    pub spans: Vec<Span>,
}

impl ThreadLog {
    pub fn new(thread: usize, trace: Option<(Instant, u64)>) -> Self {
        ThreadLog {
            thread: thread as u32,
            op: 0,
            lat: Default::default(),
            handover: Vec::new(),
            attempted: 0,
            failed: 0,
            bytes_written: 0,
            bytes_read: 0,
            check_failures: Vec::new(),
            checks: 0,
            last_ns: 0,
            start: 0,
            end: 0,
            trace,
            spans: Vec::new(),
        }
    }

    /// Runs one call into the file system, timing it on the sim clock. An
    /// `Err` counts as a failed op; its latency is not sampled.
    pub fn call<T>(&mut self, kind: Kind, f: impl FnOnce() -> FsResult<T>) -> Option<T> {
        let (v, r) = self.timed(kind.span_name(), f);
        match r {
            Ok(x) => {
                self.lat[kind as usize].push(v);
                self.last_ns = v;
                Some(x)
            }
            Err(_) => None,
        }
    }

    /// Runs one untimed-class call (open, close, buffer registration):
    /// counted and traced, but not a latency sample.
    pub fn aux<T>(&mut self, name: &'static str, f: impl FnOnce() -> FsResult<T>) -> Option<T> {
        self.timed(name, f).1.ok()
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> FsResult<T>,
    ) -> (Nanos, FsResult<T>) {
        let h0 = self
            .trace
            .map(|(epoch, _)| epoch.elapsed().as_nanos() as u64);
        let v0 = trio_sim::now();
        let r = f();
        let v1 = trio_sim::now();
        self.attempted += 1;
        if r.is_err() {
            self.failed += 1;
        }
        if let (Some(h0), Some((epoch, parent))) = (h0, self.trace) {
            let h1 = epoch.elapsed().as_nanos() as u64;
            let id = span_id(self.thread, self.spans.len() as u64);
            self.spans.push(Span {
                id,
                parent,
                name,
                thread: self.thread,
                op: self.op,
                v_start: v0,
                v_end: v1,
                h_start: h0,
                h_end: h1,
            });
        }
        (v1 - v0, r)
    }

    /// Records an output-check result.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok && self.check_failures.len() < 4 {
            self.check_failures.push(what());
        }
    }
}

/// Exact nearest-rank percentile of `v` (sorted in place); 0 when empty.
pub fn percentile(v: &mut [Nanos], num: u64, den: u64) -> Nanos {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let n = v.len() as u64;
    let rank = (n * num).div_ceil(den).max(1);
    v[(rank - 1) as usize]
}
