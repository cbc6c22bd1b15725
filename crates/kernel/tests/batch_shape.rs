//! Delegation batch shape (DESIGN.md §17): a node-run fans out only as
//! wide as the node's idle workers at submit time. A saturated pool gets
//! one request per touched node per op, so concurrent large writes never
//! overflow the rings; an idle pool still splits a lone large write over
//! several workers.

use std::sync::Arc;

use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{DeviceConfig, NvmDevice, Topology};
use trio_sim::SimRuntime;

const NODES: usize = 2;

fn kernel(threads_per_node: usize, ring_capacity: usize) -> Arc<KernelController> {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(NODES, 4096),
        ..DeviceConfig::small()
    }));
    KernelController::format(
        dev,
        KernelConfig {
            delegation_threads_per_node: threads_per_node,
            delegation_ring_capacity: ring_capacity,
            ..KernelConfig::default()
        },
    )
}

/// 16 closed-loop clients hammer a 2-node × 4-worker pool with 256 KiB
/// registered writes, half of each on either node. Every ring has eight
/// slots: always fanning out four ways puts 64 requests per node against
/// 32 ring slots, which backpressures over a thousand times here.
#[test]
fn saturated_pool_sends_one_request_per_node_per_op() {
    const CLIENTS: usize = 16;
    const OPS: usize = 24;
    const LEN: usize = 256 << 10;
    let rt = SimRuntime::new(7);
    let k = kernel(4, 8);
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let workers = k2.delegation().start();
        let before = k2.path_stats().snapshot();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let k = Arc::clone(&k2);
                trio_sim::spawn("client", move || {
                    let a = k.register_libfs(100, 100);
                    let mut pages = Vec::new();
                    for node in 0..NODES {
                        pages.extend(k.alloc_pages(a.actor, LEN / 4096 / NODES, Some(node)).unwrap());
                    }
                    let data: Arc<[u8]> = (0..LEN).map(|i| (i + c) as u8).collect();
                    let pool = k.delegation();
                    let id = pool.grants().register(a.actor, Arc::clone(&data));
                    for _ in 0..OPS {
                        let gref = pool.grants().window(a.actor, id, 0, LEN).unwrap();
                        pool.write_extent_granted(a.actor, &pages, 0, gref).unwrap();
                    }
                })
            })
            .collect();
        for c in clients {
            c.join();
        }
        let s = k2.path_stats().snapshot();
        let requests = s.deleg_requests - before.deleg_requests;
        assert_eq!(s.ring_backpressure - before.ring_backpressure, 0);
        assert_eq!(s.degraded_enters - before.degraded_enters, 0);
        // One request per touched node per op, plus the fan-out of the
        // few ops that met empty rings: the first wave, and stragglers
        // once the other clients had finished.
        let ops = (CLIENTS * OPS) as u64;
        let idle_slack = (NODES * 4 * 2) as u64;
        assert!(
            requests <= ops * NODES as u64 + idle_slack,
            "{requests} requests for {ops} ops over {NODES} nodes"
        );
        k2.delegation().shutdown();
        for w in workers {
            w.join();
        }
    });
    rt.run();
}

/// A lone 64 KiB single-node write on an idle pool splits into
/// `min(64 KiB / FANOUT_MIN_BYTES, threads)` = `min(8, threads)` requests.
#[test]
fn idle_pool_fans_out_a_lone_write() {
    for threads in [4, 12] {
        let rt = SimRuntime::new(1);
        let k = kernel(threads, 64);
        let k2 = Arc::clone(&k);
        rt.spawn("main", move || {
            let workers = k2.delegation().start();
            let a = k2.register_libfs(100, 100);
            let pages = k2.alloc_pages(a.actor, 16, Some(1)).unwrap();
            let data: Arc<[u8]> = (0..64usize << 10).map(|i| (i % 251) as u8).collect();
            let pool = k2.delegation();
            let id = pool.grants().register(a.actor, Arc::clone(&data));
            let gref = pool.grants().window(a.actor, id, 0, data.len()).unwrap();
            let before = k2.path_stats().snapshot().deleg_requests;
            pool.write_extent_granted(a.actor, &pages, 0, gref).unwrap();
            let requests = k2.path_stats().snapshot().deleg_requests - before;
            assert_eq!(requests, 8.min(threads) as u64, "threads_per_node = {threads}");
            let mut back = vec![0u8; data.len()];
            pool.read_extent(a.actor, &pages, 0, &mut back).unwrap();
            assert_eq!(&back[..], &data[..]);
            pool.shutdown();
            for w in workers {
                w.join();
            }
        });
        rt.run();
    }
}
