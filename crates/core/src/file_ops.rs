//! Regular-file data operations: read, write, truncate (paper §4.2).
//!
//! Reads take the inode lock shared plus a shared range lock; overwrites
//! of allocated ranges take the inode lock shared plus an exclusive range
//! lock (disjoint writers run in parallel); appends/extends/truncates take
//! the inode lock exclusive. Large transfers go through the delegation
//! pool (§4.5); small ones are direct loads/stores.

use std::collections::BTreeMap;
use std::sync::Arc;

use trio_fsapi::{FsError, FsResult};
use trio_kernel::delegation::DelegationError;
use trio_kernel::RetryPolicy;
use trio_layout::{DirentRef, IndexPageRef, ENTRIES_PER_INDEX};
use trio_nvm::{PageId, PAGE_SIZE};
use trio_sim::{in_sim, now};

use crate::libfs::ArckFs;
use crate::node::{FileNode, MapState, NodeInner};

/// A write's payload source. `data` is always readable (the caller's
/// slice, or its snapshot of a registered buffer) and serves the direct
/// path; when `grant` is set, the delegation path submits the window by
/// reference instead of materializing the bytes.
pub(crate) struct WriteSrc<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) grant: Option<trio_kernel::GrantRef>,
}

impl ArckFs {
    /// Reads up to `buf.len()` bytes at `off`.
    pub(crate) fn pread_node(
        &self,
        node: &Arc<FileNode>,
        off: u64,
        buf: &mut [u8],
    ) -> FsResult<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let _span = crate::obs::syscall_span(false, self.actor.0, buf.len() as u64);
        self.with_mapped(node, false, |fs| {
            let g = node.inner.read();
            if g.map == MapState::Unmapped {
                return Err(FsError::Stale);
            }
            if off >= g.size {
                return Ok(0);
            }
            let len = buf.len().min((g.size - off) as usize);
            let _r = node.range.acquire(off, len as u64, false);
            fs.read_span(node, &g, off, &mut buf[..len])?;
            Ok(len)
        })
    }

    /// Writes `data` at `off`, extending the file as needed.
    pub(crate) fn pwrite_node(
        &self,
        node: &Arc<FileNode>,
        off: u64,
        data: &[u8],
    ) -> FsResult<usize> {
        self.pwrite_src(node, off, &WriteSrc { data, grant: None })
    }

    /// Zero-copy variant: `gref` names a window of a registered grant and
    /// is what the delegation path submits; `snap` is the client's own
    /// consistent snapshot of the granted buffer, used by the direct path
    /// (small writes, delegation fallback) without re-materializing.
    pub(crate) fn pwrite_registered_node(
        &self,
        node: &Arc<FileNode>,
        off: u64,
        gref: trio_kernel::GrantRef,
        snap: &[u8],
    ) -> FsResult<usize> {
        let data = snap.get(gref.start..gref.start + gref.len).ok_or(FsError::InvalidArgument)?;
        self.pwrite_src(node, off, &WriteSrc { data, grant: Some(gref) })
    }

    fn pwrite_src(&self, node: &Arc<FileNode>, off: u64, src: &WriteSrc<'_>) -> FsResult<usize> {
        let data = src.data;
        if data.is_empty() {
            return Ok(0);
        }
        let _span = crate::obs::syscall_span(true, self.actor.0, data.len() as u64);
        let len = data.len();
        self.with_mapped(node, true, |fs| {
            // Fast path: in-place overwrite of an allocated span — shared
            // inode lock, exclusive range lock (concurrent disjoint writes).
            {
                let g = node.inner.read();
                if g.map != MapState::Write {
                    return Err(FsError::Stale);
                }
                if off + len as u64 <= g.size && fs.span_allocated(&g, off, len) {
                    let _r = node.range.acquire(off, len as u64, true);
                    fs.write_span(node, &g, off, src)?;
                    return Ok(len);
                }
            }
            // Slow path: append/extend — exclusive inode lock (paper: one
            // thread appends at a time).
            let mut g = node.inner.write();
            if g.map != MapState::Write {
                return Err(FsError::Stale);
            }
            fs.ensure_span(node, &mut g, off, len)?;
            fs.write_span(node, &g, off, src)?;
            if off + len as u64 > g.size {
                g.size = off + len as u64;
                g.mtime = now_or_zero();
                fs.publish_size(node, &g)?;
            }
            Ok(len)
        })
    }

    /// Truncates (or sparsely extends) to `size`.
    pub(crate) fn truncate_node(&self, node: &Arc<FileNode>, size: u64) -> FsResult<()> {
        self.with_mapped(node, true, |fs| {
            let mut g = node.inner.write();
            if g.map != MapState::Write {
                return Err(FsError::Stale);
            }
            let old = g.size;
            g.size = size;
            g.mtime = now_or_zero();
            fs.publish_size(node, &g)?;
            if size >= old {
                return Ok(()); // Sparse growth: holes read as zeros.
            }
            // Zero the partial tail of the boundary page so a later
            // re-extension reads zeros, then unlink whole pages beyond.
            let keep_pages = (size as usize).div_ceil(PAGE_SIZE);
            if !size.is_multiple_of(PAGE_SIZE as u64) {
                if let Some(Some(p)) = g.data_pages.get(keep_pages - 1) {
                    let from = (size % PAGE_SIZE as u64) as usize;
                    let zeros = vec![0u8; PAGE_SIZE - from];
                    self.h.write(*p, from, &zeros).map_err(Self::fault)?;
                }
            }
            let mut freed: Vec<PageId> = Vec::new();
            for lp in keep_pages..g.data_pages.len() {
                if let Some(p) = g.data_pages[lp].take() {
                    // Clear the index slot durably *before* the page can be
                    // reused by anyone else.
                    let ipage = g.index_pages[lp / ENTRIES_PER_INDEX];
                    IndexPageRef::new(&self.h, ipage)
                        .set_entry(lp % ENTRIES_PER_INDEX, 0)
                        .map_err(Self::fault)?;
                    freed.push(p);
                }
            }
            g.data_pages.truncate(keep_pages);
            if !freed.is_empty() {
                fs.kernel.return_file_pages(fs.actor, node.ino, &freed)?;
            }
            Ok(())
        })
    }

    // -----------------------------------------------------------------
    // Span helpers.
    // -----------------------------------------------------------------

    pub(crate) fn span_allocated(&self, g: &NodeInner, off: u64, len: usize) -> bool {
        let first = (off as usize) / PAGE_SIZE;
        let last = (off as usize + len - 1) / PAGE_SIZE;
        if last >= g.data_pages.len() {
            return false;
        }
        g.data_pages[first..=last].iter().all(|p| p.is_some())
    }

    /// Reads `[off, off+buf.len())`, filling holes with zeros, charging
    /// per contiguous run.
    pub(crate) fn read_span(
        &self,
        node: &Arc<FileNode>,
        g: &NodeInner,
        off: u64,
        buf: &mut [u8],
    ) -> FsResult<()> {
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = off as usize + pos;
            let lp = abs / PAGE_SIZE;
            let in_page = abs % PAGE_SIZE;
            if lp >= g.data_pages.len() || g.data_pages[lp].is_none() {
                let n = (PAGE_SIZE - in_page).min(buf.len() - pos);
                buf[pos..pos + n].fill(0);
                pos += n;
                continue;
            }
            // Maximal allocated run.
            let mut end_lp = lp;
            let last_needed = (off as usize + buf.len() - 1) / PAGE_SIZE;
            while end_lp < last_needed
                && end_lp + 1 < g.data_pages.len()
                && g.data_pages[end_lp + 1].is_some()
            {
                end_lp += 1;
            }
            let pages: Vec<PageId> = g.data_pages[lp..=end_lp]
                .iter()
                .map(|p| p.ok_or(FsError::InvalidArgument))
                .collect::<FsResult<_>>()?;
            let run_cap = pages.len() * PAGE_SIZE - in_page;
            let n = run_cap.min(buf.len() - pos);
            self.rw_extent_read(node, &pages, in_page, &mut buf[pos..pos + n])?;
            pos += n;
        }
        Ok(())
    }

    /// Writes the source at `off`; every page in the span must be
    /// allocated.
    pub(crate) fn write_span(
        &self,
        node: &Arc<FileNode>,
        g: &NodeInner,
        off: u64,
        src: &WriteSrc<'_>,
    ) -> FsResult<()> {
        let first = (off as usize) / PAGE_SIZE;
        let last = (off as usize + src.data.len() - 1) / PAGE_SIZE;
        let pages: Vec<PageId> = g.data_pages[first..=last]
            .iter()
            .map(|p| p.ok_or(FsError::InvalidArgument))
            .collect::<FsResult<_>>()?;
        let in_page = (off as usize) % PAGE_SIZE;
        self.rw_extent_write(node, &pages, in_page, src)
    }

    /// Whether this access should go through delegation. Static policy:
    /// the paper's fixed size thresholds. Adaptive policy: huge accesses
    /// always delegate (multi-node aggregation plus bounded per-node
    /// concurrency both pay off), tiny ones never do (the ring round trip
    /// dominates), and mid-sized accesses delegate only when a target
    /// node's sampled load has reached the bandwidth-collapse knee — the
    /// regime delegation exists to prevent — or the access would cross
    /// sockets (the remote penalty exceeds the ring round trip).
    fn route_delegated(
        &self,
        node: &Arc<FileNode>,
        pages: &[PageId],
        len: usize,
        is_write: bool,
    ) -> bool {
        let pool = self.kernel.delegation();
        if !self.cfg.delegation || !pool.is_started() || !in_sim() {
            return false;
        }
        // Failure-domain gates (DESIGN.md §16): a pool in degraded mode
        // sheds everything but probes, and a file whose last delegation
        // fell back stays direct until the pool recovers or its demotion
        // window lapses.
        if !pool.admit_delegated() || node.delegation_demoted(pool.recovery_epoch(), now()) {
            return false;
        }
        match self.cfg.delegation_policy {
            crate::libfs::DelegationPolicy::Static => {
                let min = if is_write {
                    self.cfg.delegation_write_min
                } else {
                    self.cfg.delegation_read_min
                };
                len >= min
            }
            crate::libfs::DelegationPolicy::Adaptive => {
                let delegate = 'decide: {
                    if len >= self.cfg.adaptive_delegate_bytes {
                        break 'decide true;
                    }
                    if len < self.cfg.adaptive_floor_bytes {
                        break 'decide false;
                    }
                    let dev = self.kernel.device();
                    let topo = dev.topology();
                    let home = trio_nvm::handle::home_node();
                    let knee = if is_write { self.write_knee } else { self.read_knee };
                    let mut remote = false;
                    let mut last_node = usize::MAX;
                    for p in pages {
                        let n = topo.node_of(*p);
                        if n == last_node {
                            continue;
                        }
                        last_node = n;
                        if dev.node_load_level(n, is_write) >= knee {
                            break 'decide true;
                        }
                        remote |= n != home;
                    }
                    remote
                };
                self.stats.record_adaptive(delegate);
                delegate
            }
        }
    }

    /// The unified delegation retry policy (DESIGN.md §16): base budget
    /// plus a per-byte term — recomputed by the pool from the *remaining*
    /// bytes each attempt, so large ops on a saturated-but-healthy device
    /// are not mistaken for wedged workers, and retries of a partially
    /// completed batch get windows scaled to what is actually left.
    fn delegation_policy(&self) -> RetryPolicy {
        let p = RetryPolicy::new(
            self.cfg.delegation_timeout_ns,
            self.cfg.delegation_timeout_ns_per_byte,
            self.cfg.delegation_attempts,
            self.cfg.delegation_backoff_cap_ns,
        );
        if self.cfg.delegation_jitter {
            p
        } else {
            p.no_jitter()
        }
    }

    /// On a whole-op delegation timeout, demote this file to direct
    /// access for a few op-deadlines so a struggling pool is not hammered
    /// with doomed submissions; the pool's recovery epoch re-promotes it
    /// early when a worker restart or degraded-mode exit lands.
    fn demote_after_fallback(&self, node: &Arc<FileNode>, len: usize) {
        let pool = self.kernel.delegation();
        let hold = self.delegation_policy().base_window_ns(0, len).saturating_mul(4);
        node.demote_delegation(pool.recovery_epoch(), now().saturating_add(hold));
    }

    fn rw_extent_read(
        &self,
        node: &Arc<FileNode>,
        pages: &[PageId],
        start: usize,
        buf: &mut [u8],
    ) -> FsResult<()> {
        if self.route_delegated(node, pages, buf.len(), false) {
            // Deadline-bounded with retry-with-backoff (inside the pool):
            // a stalled, wedged, or dead delegation thread must never hang
            // the client. Each retry is round-robined onto a different
            // ring after a watchdog pass; a timed-out read only filled an
            // unspecified prefix, and re-reading is idempotent.
            let pool = self.kernel.delegation();
            match pool.try_read_extent(self.actor, pages, start, buf, &self.delegation_policy()) {
                Ok(()) => return Ok(()),
                Err(DelegationError::Fault(e)) => return Err(Self::fault(e)),
                // Graceful degradation: serve directly (correct, merely
                // slower and possibly remote) rather than fail or hang.
                Err(DelegationError::Timeout) => {
                    self.stats.record_fallback();
                    crate::obs::fallback_dump();
                    self.demote_after_fallback(node, buf.len());
                }
            }
        }
        self.h.read_extent(pages, start, buf).map_err(Self::fault)?;
        self.stats.record_direct_bytes(buf.len(), false);
        Ok(())
    }

    fn rw_extent_write(
        &self,
        node: &Arc<FileNode>,
        pages: &[PageId],
        start: usize,
        src: &WriteSrc<'_>,
    ) -> FsResult<()> {
        if self.route_delegated(node, pages, src.data.len(), true) {
            // Same protocol as reads. Retrying a possibly-executed write
            // is safe twice over: the bytes are idempotent (same data,
            // same location), and the pool's per-op idempotence token
            // makes the application exactly-once even when a worker died
            // after applying but before replying.
            let pool = self.kernel.delegation();
            let policy = self.delegation_policy();
            // Registered buffers submit by reference (the grant window);
            // only the legacy slice path materializes a transient grant.
            let r = match src.grant {
                Some(gref) => pool.try_write_extent_granted(self.actor, pages, start, gref, &policy),
                None => pool.try_write_extent(self.actor, pages, start, src.data, &policy),
            };
            match r {
                Ok(()) => return Ok(()),
                Err(DelegationError::Fault(e)) => return Err(Self::fault(e)),
                Err(DelegationError::Timeout) => {
                    self.stats.record_fallback();
                    crate::obs::fallback_dump();
                    self.demote_after_fallback(node, src.data.len());
                }
            }
        }
        self.h.write_extent(pages, start, src.data).map_err(Self::fault)?;
        self.stats.record_direct_bytes(src.data.len(), true);
        Ok(())
    }

    /// NUMA node for logical page `lp` of file `ino`: striped across nodes
    /// in `stripe_pages` units with a per-file phase, or the caller's home
    /// node.
    ///
    /// The phase matters under load: identical workers sweeping their own
    /// files in lockstep (the fio pattern) would otherwise all sit on the
    /// same stripe position at the same instant, convoying onto one node
    /// while the other seven idle. Offsetting each file's stripe origin by
    /// its ino spreads the instantaneous load across every node while
    /// keeping each file's layout deterministic.
    fn placement_node(&self, ino: u64, lp: usize) -> usize {
        let nodes = self.kernel.device().topology().nodes;
        if self.cfg.stripe && nodes > 1 {
            (lp / self.cfg.stripe_pages + ino as usize) % nodes
        } else {
            trio_nvm::handle::home_node()
        }
    }

    /// Ensures pages exist covering `[off, off+len)`: grows the index
    /// chain, allocates data pages (striped), links them, and persists the
    /// links (the size field published afterwards is the commit point).
    pub(crate) fn ensure_span(
        &self,
        node: &Arc<FileNode>,
        g: &mut NodeInner,
        off: u64,
        len: usize,
    ) -> FsResult<()> {
        let last_lp = (off as usize + len - 1) / PAGE_SIZE;
        // 1. Index pages.
        while g.index_pages.len() * ENTRIES_PER_INDEX <= last_lp {
            let ip = self.pages.take(trio_nvm::handle::home_node())?;
            match g.index_pages.last() {
                Some(prev) => {
                    IndexPageRef::new(&self.h, *prev).set_next(ip.0).map_err(Self::fault)?;
                }
                None => {
                    // A node whose placement vanished (e.g. rebuilt after a
                    // fault from damaged core state) must error, not abort.
                    let loc = node.place.read().loc.ok_or(FsError::Corrupted)?;
                    DirentRef::new(&self.h, loc).set_first_index(ip.0).map_err(Self::fault)?;
                }
            }
            g.index_pages.push(ip);
        }
        if g.data_pages.len() <= last_lp {
            g.data_pages.resize(last_lp + 1, None);
        }
        // 2. Data pages, grouped by placement node.
        let first_lp = (off as usize) / PAGE_SIZE;
        let missing: Vec<usize> =
            (first_lp..=last_lp).filter(|&lp| g.data_pages[lp].is_none()).collect();
        if missing.is_empty() {
            return Ok(());
        }
        // Ordered maps: the per-node refill order and the flush order must
        // not depend on hash seeds, or a seeded run stops being replayable.
        let mut by_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &lp in &missing {
            by_node.entry(self.placement_node(node.ino, lp)).or_default().push(lp);
        }
        for (nodeid, lps) in by_node {
            let pages = self.pages.take_many(nodeid, lps.len())?;
            for (lp, p) in lps.into_iter().zip(pages) {
                g.data_pages[lp] = Some(p);
            }
        }
        // 3. Persist the new index entries, batched per index page.
        let dev = self.kernel.device();
        let mut touched: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        for &lp in &missing {
            let p = g.data_pages[lp].expect("just allocated");
            let ipi = lp / ENTRIES_PER_INDEX;
            let slot = lp % ENTRIES_PER_INDEX;
            self.h
                .write_untimed(g.index_pages[ipi], slot * 8, &p.0.to_le_bytes())
                .map_err(Self::fault)?;
            let e = touched.entry(ipi).or_insert((slot, slot));
            e.0 = e.0.min(slot);
            e.1 = e.1.max(slot);
        }
        // Typestate persist of the new entries: one coalesced span per
        // touched index page (same flush schedule as before — per-slot
        // spans would re-flush shared cache lines), one fence for all.
        let mut spans = Vec::with_capacity(touched.len());
        for (ipi, (lo, hi)) in touched {
            let ipage = g.index_pages[ipi];
            let bytes = (hi - lo + 1) * 8;
            dev.charge_transfer(
                dev.topology().node_of(ipage),
                bytes,
                true,
                trio_nvm::handle::home_node(),
            );
            spans.push(trio_nvm::Span::new(ipage, lo * 8, bytes));
        }
        let _links = self.h.fence_flushed(self.h.flush_dirty(self.h.dirty_spans(spans)));
        Ok(())
    }

    /// Publishes the size and mtime fields (8-byte atomic persists).
    pub(crate) fn publish_size(&self, node: &Arc<FileNode>, g: &NodeInner) -> FsResult<()> {
        let loc = node.place.read().loc.ok_or(FsError::Corrupted)?;
        let dref = DirentRef::new(&self.h, loc);
        dref.set_size(g.size).map_err(Self::fault)?;
        dref.set_mtime(g.mtime).map_err(Self::fault)?;
        Ok(())
    }
}

fn now_or_zero() -> u64 {
    if in_sim() {
        now()
    } else {
        0
    }
}
