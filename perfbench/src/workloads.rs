//! The three workloads. Each is a closed loop on ArckFS over the 8-node
//! device: a sim-thread issues its next call only when the previous one
//! has returned, with no think time. The seed drives offsets, op choice
//! and op order; the simulator runs one sim-thread at a time, and the
//! benchmark adds no host threads of its own.

use std::sync::Arc;

use arckfs::ArckFs;
use trio_fsapi::{FileSystem, FileType, Mode, OpenFlags};
use trio_sim::plock::Mutex;
use trio_sim::rng::SimRng;
use trio_sim::sync::SimMutex;

use crate::record::{Kind, ThreadLog};
use crate::stamp::{self, PAGE};
use crate::world::{Ctx, PhaseOut, World, NODES};

/// A workload the benchmark can run, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BulkIo,
    SmallIo,
    MetaShare,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::BulkIo, Workload::SmallIo, Workload::MetaShare];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkIo => "bulk_io",
            Workload::SmallIo => "small_io",
            Workload::MetaShare => "meta_share",
        }
    }

    /// Whether the workload runs LibFS tenants over shared directories.
    pub fn is_meta(self) -> bool {
        self == Workload::MetaShare
    }
}

/// Workload dimensions. [`Size::standard`] is what every benchmark run
/// uses; [`Size::fig6h`] re-runs bulk_io at the fig6 (h) sizing.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Sim-threads (data workloads) or tenants (meta_share).
    pub threads: usize,
    /// Bytes per data call.
    pub block: usize,
    /// Blocks per private file.
    pub file_blocks: u64,
    /// Bytes per prefill call.
    pub prefill_chunk: usize,
    /// Measured calls per sim-thread (per phase for bulk_io).
    pub ops: u64,
}

impl Size {
    pub fn standard(w: Workload) -> Size {
        match w {
            // 224 × 5 = 1,120 samples per op kind.
            Workload::BulkIo => Size {
                ops: 5,
                ..Size::data(224, 2 << 20, 2, 2 << 20)
            },
            // 112 × 192 calls, about half of them writes.
            Workload::SmallIo => Size {
                ops: 192,
                ..Size::data(112, PAGE, 64, 64 << 10)
            },
            // 64 tenants × 250 calls; one in six shared, about half of
            // those handovers.
            Workload::MetaShare => Size {
                ops: 250,
                ..Size::data(64, 0, 0, 0)
            },
        }
    }

    /// fig6 (h): 224 threads, 2 MiB writes, 8 MiB files, 8 ops per thread,
    /// 1 MiB prefill chunks.
    pub fn fig6h() -> Size {
        Size {
            ops: 8,
            ..Size::data(224, 2 << 20, 4, 1 << 20)
        }
    }

    fn data(threads: usize, block: usize, file_blocks: u64, prefill_chunk: usize) -> Size {
        Size {
            threads,
            block,
            file_blocks,
            prefill_chunk,
            ops: 0,
        }
    }

    fn file_bytes(&self) -> u64 {
        self.file_blocks * self.block as u64
    }

    /// Device pages per node: twice the fileset, as fig6 sizes it.
    pub fn pages_per_node(&self, w: Workload) -> usize {
        match w {
            Workload::MetaShare => 32 * 1024,
            _ => (self.threads * 2 * self.file_bytes() as usize / PAGE / NODES).max(16 * 1024),
        }
    }

    pub fn tenants(&self, w: Workload) -> usize {
        if w.is_meta() {
            self.threads
        } else {
            1
        }
    }
}

/// A per-thread input stream derived from the run seed.
fn rng_for(seed: u64, tag: u64, thread: usize) -> SimRng {
    SimRng::seed_from_u64(
        seed ^ tag.rotate_left(40) ^ (thread as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Per-thread generation of every page of its private file.
type Gens = Arc<Vec<Mutex<Vec<u32>>>>;

fn data_path(t: usize) -> String {
    format!("/data-{t}")
}

/// Builds the private data files, every page stamped with generation 0,
/// and returns the generation model.
fn prefill(world: &World, size: Size) -> Gens {
    let fs = world.tenant(0);
    let pages = (size.file_bytes() as usize / PAGE) as u64;
    let gens: Gens = Arc::new(
        (0..size.threads)
            .map(|_| Mutex::new(vec![0u32; pages as usize]))
            .collect(),
    );
    let mut chunk = vec![0u8; size.prefill_chunk];
    let reg = fs
        .register_write_buffer(&chunk)
        .expect("register prefill buffer");
    for t in 0..size.threads {
        let fd = fs
            .open(&data_path(t), OpenFlags::CREATE | OpenFlags::RDWR, Mode::RW)
            .expect("create data file");
        let g = gens[t].lock();
        let mut off = 0u64;
        while off < size.file_bytes() {
            stamp::stamp(&mut chunk, t as u32, off / PAGE as u64, &g);
            fs.update_write_buffer(reg, &chunk)
                .expect("stamp prefill buffer");
            fs.pwrite_registered(fd, off, reg, 0, chunk.len())
                .expect("prefill");
            off += chunk.len() as u64;
        }
        fs.close(fd).expect("close data file");
    }
    fs.unregister_write_buffer(reg)
        .expect("unregister prefill buffer");
    gens
}

/// One data write of `buf` at file block `blk`: stamps the block with
/// the next generation, writes it (registered or plain), and keeps the
/// model in step only if the write succeeded in full.
fn write_block(
    log: &mut ThreadLog,
    fs: &ArckFs,
    fd: trio_fsapi::Fd,
    reg: Option<u64>,
    buf: &mut [u8],
    blk: u64,
    gens: &mut [u32],
) {
    let first = blk * (buf.len() / PAGE) as u64;
    let span = first as usize..first as usize + buf.len() / PAGE;
    for g in &mut gens[span.clone()] {
        *g += 1;
    }
    stamp::stamp(buf, log.thread, first, gens);
    let off = blk * buf.len() as u64;
    let n = match reg {
        Some(r) => log
            .aux("kernel.grant.update", || fs.update_write_buffer(r, buf))
            .and_then(|_| {
                log.call(Kind::Pwrite, || {
                    fs.pwrite_registered(fd, off, r, 0, buf.len())
                })
            }),
        None => log.call(Kind::Pwrite, || fs.pwrite(fd, off, buf)),
    };
    if n == Some(buf.len()) {
        log.bytes_written += buf.len() as u64;
        return;
    }
    for g in &mut gens[span] {
        *g -= 1;
    }
    if let Some(n) = n {
        let thread = log.thread;
        log.check(false, || {
            format!("thread {thread}: short write of {n} bytes at block {blk}")
        });
    }
}

/// One data read of file block `blk`, checked against the latest stamps.
fn read_block(
    log: &mut ThreadLog,
    fs: &ArckFs,
    fd: trio_fsapi::Fd,
    buf: &mut [u8],
    blk: u64,
    gens: &[u32],
) {
    let first = blk * (buf.len() / PAGE) as u64;
    let Some(n) = log.call(Kind::Pread, || fs.pread(fd, blk * buf.len() as u64, buf)) else {
        return;
    };
    log.bytes_read += n as u64;
    let thread = log.thread;
    let ok = n == buf.len() && stamp::check(buf, thread, first, gens).is_ok();
    log.check(ok, || {
        format!("thread {thread}: block {blk} does not hold its latest stamp")
    });
}

fn open_data(log: &mut ThreadLog, fs: &ArckFs, flags: OpenFlags) -> Option<trio_fsapi::Fd> {
    let path = data_path(log.thread as usize);
    log.aux("core.open", || fs.open(&path, flags, Mode::RW))
}

/// bulk_io: a registered 2 MiB `pwrite` phase, then a 2 MiB `pread`
/// phase, on one live kernel. Each thread starts at a seeded block and
/// walks its file sequentially.
pub fn bulk_io(ctx: &mut Ctx, seed: u64, size: Size) -> Vec<PhaseOut> {
    let _ = ctx.world.kernel.delegation().start();
    let gens = prefill(&ctx.world, size);
    let mut out = Vec::new();
    for (phase, write) in [("write", true), ("read", false)] {
        let (world, gens) = (Arc::clone(&ctx.world), Arc::clone(&gens));
        out.push(ctx.phase(phase, size.threads, move |t, log| {
            let fs = world.tenant(0);
            let mut rng = rng_for(seed, write as u64 + 1, t);
            let mut g = gens[t].lock();
            let mut buf = vec![0u8; size.block];
            let flags = if write {
                OpenFlags::RDWR
            } else {
                OpenFlags::RDONLY
            };
            let Some(fd) = open_data(log, fs, flags) else {
                return;
            };
            let reg = if write {
                log.aux("kernel.grant.register", || fs.register_write_buffer(&buf))
            } else {
                None
            };
            let start = rng.gen_range(size.file_blocks);
            for i in 0..size.ops {
                log.op = i as u32;
                let blk = (start + i) % size.file_blocks;
                if write {
                    write_block(log, fs, fd, reg, &mut buf, blk, &mut g);
                } else {
                    read_block(log, fs, fd, &mut buf, blk, &g);
                }
            }
            if let Some(r) = reg {
                log.aux("kernel.grant.unregister", || fs.unregister_write_buffer(r));
            }
            log.aux("core.close", || fs.close(fd));
        }));
    }
    ctx.world.kernel.delegation().shutdown();
    out
}

/// Every `PLAIN_LANE`-th small_io thread writes with plain `pwrite`; the
/// rest use a registered buffer.
const PLAIN_LANE: usize = 4;

/// small_io: 4 KiB calls at seeded random pages of private files, half
/// reads and half writes, in one mixed phase.
pub fn small_io(ctx: &mut Ctx, seed: u64, size: Size) -> Vec<PhaseOut> {
    let _ = ctx.world.kernel.delegation().start();
    let gens = prefill(&ctx.world, size);
    let world = Arc::clone(&ctx.world);
    let out = ctx.phase("mixed", size.threads, move |t, log| {
        let fs = world.tenant(0);
        let mut rng = rng_for(seed, 3, t);
        let mut g = gens[t].lock();
        let mut buf = vec![0u8; PAGE];
        let Some(fd) = open_data(log, fs, OpenFlags::RDWR) else {
            return;
        };
        let reg = if t % PLAIN_LANE == PLAIN_LANE - 1 {
            None
        } else {
            log.aux("kernel.grant.register", || fs.register_write_buffer(&buf))
        };
        for i in 0..size.ops {
            log.op = i as u32;
            let blk = rng.gen_range(size.file_blocks);
            if rng.one_in(2) {
                read_block(log, fs, fd, &mut buf, blk, &g);
            } else {
                write_block(log, fs, fd, reg, &mut buf, blk, &mut g);
            }
        }
        if let Some(r) = reg {
            log.aux("kernel.grant.unregister", || fs.unregister_write_buffer(r));
        }
        log.aux("core.close", || fs.close(fd));
    });
    ctx.world.kernel.delegation().shutdown();
    vec![out]
}

/// Entries each private directory starts with.
const PRIVATE_ENTRIES: usize = 20;
/// Entries each shared directory holds (kept within ±`DRIFT`).
const SHARED_ENTRIES: usize = 100;
const DRIFT: usize = 8;
/// One op in `SHARED_ONE_IN` lands in the tenant's shared directory.
const SHARED_ONE_IN: u64 = 6;

/// A directory shared by tenants `2k` and `2k + 1`, with the benchmark's
/// model of its names and which tenant touched it last.
struct SharedDir {
    path: String,
    names: Vec<String>,
    /// The tenant that touched it last (and released it after).
    last_user: usize,
}

/// The benchmark's model of meta_share's namespace.
pub struct MetaModel {
    private: Vec<Mutex<Vec<String>>>,
    shared: Vec<SimMutex<SharedDir>>,
}

impl MetaModel {
    /// Live directory entries, directories included.
    pub fn entries(&self) -> u64 {
        let private: usize = self.private.iter().map(|d| d.lock().len() + 1).sum();
        let shared: usize = self
            .shared
            .iter()
            .map(|d| d.lock_uncontended().names.len() + 1)
            .sum();
        (private + shared) as u64
    }
}

fn private_dir(i: usize) -> String {
    format!("/t{i}/d")
}

/// One create/stat/rename/unlink in `dir`, chosen from the seed so the
/// directory stays near `target` entries. Returns whether it succeeded.
fn meta_op(
    log: &mut ThreadLog,
    fs: &ArckFs,
    dir: &str,
    names: &mut Vec<String>,
    target: usize,
    rng: &mut SimRng,
    seq: &mut u64,
) -> bool {
    let n = names.len();
    let kind = if n + DRIFT < target || n == 0 {
        Kind::Create
    } else if n > target + DRIFT {
        Kind::Unlink
    } else {
        match rng.gen_range(20) {
            0..=4 => Kind::Create,
            5..=11 => Kind::Stat,
            12..=15 => Kind::Rename,
            _ => Kind::Unlink,
        }
    };
    let thread = log.thread;
    let mut fresh = || {
        *seq += 1;
        format!("n{thread}-{seq}")
    };
    let pick = if n > 0 {
        rng.gen_range(n as u64) as usize
    } else {
        0
    };
    match kind {
        Kind::Create => {
            let name = fresh();
            let ok = log
                .call(kind, || fs.create(&format!("{dir}/{name}"), Mode(0o666)))
                .is_some();
            if ok {
                names.push(name);
            }
            ok
        }
        Kind::Stat => {
            let st = log.call(kind, || fs.stat(&format!("{dir}/{}", names[pick])));
            if let Some(st) = st {
                log.check(st.ftype == FileType::Regular, || {
                    format!("thread {thread}: stat type {:?}", st.ftype)
                });
            }
            st.is_some()
        }
        Kind::Rename => {
            let name = fresh();
            let (src, dst) = (format!("{dir}/{}", names[pick]), format!("{dir}/{name}"));
            let ok = log.call(kind, || fs.rename(&src, &dst)).is_some();
            if ok {
                names[pick] = name;
            }
            ok
        }
        _ => {
            let ok = log
                .call(kind, || fs.unlink(&format!("{dir}/{}", names[pick])))
                .is_some();
            if ok {
                names.swap_remove(pick);
            }
            ok
        }
    }
}

/// meta_share: one LibFS tenant per sim-thread, each its own actor,
/// churning names in a private directory under its home `/t{i}`. One op
/// in `SHARED_ONE_IN` goes to a directory shared with one peer, and the
/// tenant releases that directory after the op; when the peer touched it
/// last, the op pays the handover (map, verify, aux rebuild).
pub fn meta_share(ctx: &mut Ctx, seed: u64, size: Size) -> (Vec<PhaseOut>, Arc<MetaModel>) {
    let world = Arc::clone(&ctx.world);
    let tenants = size.threads;
    let mut private = Vec::new();
    let mut shared = Vec::new();
    for i in 0..tenants {
        let fs = world.tenant(i);
        fs.mkdir(&format!("/t{i}"), Mode(0o777))
            .expect("mkdir tenant home");
        if i % 2 == 0 {
            fs.mkdir(&format!("/s{}", i / 2), Mode(0o777))
                .expect("mkdir shared parent");
        }
        // The root write lease passes to the next tenant's mkdir.
        fs.release_path("/").expect("release root");
        fs.mkdir(&private_dir(i), Mode(0o777))
            .expect("mkdir private dir");
        if i % 2 == 0 {
            fs.mkdir(&format!("/s{}/d", i / 2), Mode(0o777))
                .expect("mkdir shared dir");
        }
    }
    for i in 0..tenants {
        let fs = world.tenant(i);
        let names: Vec<String> = (0..PRIVATE_ENTRIES).map(|k| format!("base-{k}")).collect();
        for n in &names {
            fs.create(&format!("{}/{n}", private_dir(i)), Mode(0o666))
                .expect("populate private dir");
        }
        private.push(Mutex::new(names));
        if i % 2 == 0 {
            let path = format!("/s{}/d", i / 2);
            let names: Vec<String> = (0..SHARED_ENTRIES).map(|k| format!("base-{k}")).collect();
            for n in &names {
                fs.create(&format!("{path}/{n}"), Mode(0o666))
                    .expect("populate shared dir");
            }
            fs.release_path(&path).expect("release shared dir");
            shared.push(SimMutex::new(SharedDir {
                path,
                names,
                last_user: i,
            }));
        }
    }
    let model = Arc::new(MetaModel { private, shared });
    let m = Arc::clone(&model);
    let out = ctx.phase("meta", tenants, move |i, log| {
        let fs = world.tenant(i);
        let peer = i ^ 1;
        let mut rng = rng_for(seed, 4, i);
        let mut seq = 0u64;
        let mut own = m.private[i].lock();
        for k in 0..size.ops {
            log.op = k as u32;
            if peer < tenants && rng.one_in(SHARED_ONE_IN) {
                let mut d = m.shared[i / 2].lock();
                let handover = d.last_user == peer;
                let SharedDir { path, names, .. } = &mut *d;
                if meta_op(log, fs, path, names, SHARED_ENTRIES, &mut rng, &mut seq) && handover {
                    log.handover.push(log.last_ns);
                }
                // Unmap after every shared op, so the peer's next op on the
                // directory is a handover.
                log.call(Kind::Release, || fs.release_path(path));
                d.last_user = i;
            } else {
                meta_op(
                    log,
                    fs,
                    &private_dir(i),
                    &mut own,
                    PRIVATE_ENTRIES,
                    &mut rng,
                    &mut seq,
                );
            }
        }
    });
    (vec![out], model)
}

/// Compares every directory's listing with the model; returns mismatches.
pub fn check_namespace(world: &World, model: &MetaModel) -> Vec<String> {
    let mut bad = Vec::new();
    let mut compare = |fs: &ArckFs, dir: &str, want: &[String]| {
        let mut want = want.to_vec();
        want.sort();
        match fs.readdir(dir) {
            Ok(entries) => {
                let mut got: Vec<String> = entries.into_iter().map(|e| e.name).collect();
                got.sort();
                if got != want {
                    bad.push(format!(
                        "{dir}: {} entries on the device, {} in the model",
                        got.len(),
                        want.len()
                    ));
                }
            }
            Err(e) => bad.push(format!("{dir}: readdir failed: {e:?}")),
        }
    };
    for (i, names) in model.private.iter().enumerate() {
        compare(world.tenant(i), &private_dir(i), &names.lock());
    }
    for d in &model.shared {
        let d = d.lock();
        compare(world.tenant(d.last_user), &d.path, &d.names);
    }
    bad
}
