//! Impl-2 bench: per-packet forward cost through the engine under an
//! allocation-counting global allocator.
//!
//! The data-plane refactor's claim is not just "faster" but "no heap
//! traffic": with a warmed action buffer, refcounted payload handles
//! and the engine's scratch collections, the steady-state forward path
//! must perform **zero** heap allocations per packet. This bench
//! wraps the system allocator in a counter and *asserts* that claim
//! for the three hot paths (native transit, native local-origin
//! fan-out, CBT-mode on-tree transit) before timing them; the one
//! path that legitimately allocates — first-hop §5.1 encapsulation,
//! which must materialize the encapsulated datagram — is reported as
//! allocations/packet instead.

use cbt::{config::ForwardingMode, CbtConfig, CbtRouter, RouterAction, ShardedRouter};
use cbt_netsim::SimTime;
use cbt_routing::Hop;
use cbt_topology::{IfIndex, NetworkBuilder, RouterId};
use cbt_wire::header::ON_TREE;
use cbt_wire::{AckSubcode, Addr, CbtDataPacket, ControlMessage, DataPacket, GroupId, JoinSubcode};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped in an allocation counter. Counts every
/// heap acquisition (alloc, alloc_zeroed, realloc); frees are not
/// interesting for the steady-state claim.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn group() -> GroupId {
    GroupId::numbered(1)
}

fn core() -> Addr {
    Addr::from_octets(10, 255, 0, 9)
}

fn parent_addr() -> Addr {
    Addr::from_octets(172, 31, 0, 2)
}

/// An on-tree router: member LAN on if0, parent via if1, child via if2
/// — the same shape `forwarding_modes` uses.
fn on_tree_engine(mode: ForwardingMode) -> CbtRouter {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let up = b.router("UP");
    let down = b.router("DOWN");
    let lan = b.lan("S0");
    b.attach(lan, me);
    b.host("H", lan);
    b.link(me, up, 1);
    b.link(me, down, 1);
    let net = b.build();
    let mut routes = BTreeMap::new();
    routes.insert(
        core(),
        Hop { iface: IfIndex(1), router: RouterId(1), addr: parent_addr(), dist: 1 },
    );
    let mut e = CbtRouter::new(
        &net,
        me,
        CbtConfig::default().with_mode(mode),
        Box::new(routes),
        SimTime::ZERO,
    );
    e.handle_igmp(
        SimTime::ZERO,
        IfIndex(0),
        Addr::from_octets(10, 1, 0, 100),
        cbt_wire::IgmpMessage::RpCore(cbt_wire::RpCoreReport {
            group: group(),
            code: cbt_wire::igmp::RP_CORE_CODE_CBT,
            target_core_index: 0,
            cores: vec![core()],
        }),
    );
    e.handle_igmp(
        SimTime::ZERO,
        IfIndex(0),
        Addr::from_octets(10, 1, 0, 100),
        cbt_wire::IgmpMessage::Report { version: 3, group: group() },
    );
    e.handle_control(
        SimTime::from_secs(1),
        IfIndex(1),
        parent_addr(),
        ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: group(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core(),
            cores: vec![core()],
        },
    );
    e.handle_control(
        SimTime::from_secs(1),
        IfIndex(2),
        Addr::from_octets(172, 31, 0, 6),
        ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: group(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core(),
            cores: vec![core()],
        },
    );
    assert!(e.is_on_tree(group()));
    e
}

/// The same on-tree shape fronted by a 4-way [`ShardedRouter`]: the
/// packet passes shard steering (`shard_for_mut`) before the engine,
/// so the zero-allocation claim covers the sharded forward path too.
fn on_tree_sharded(mode: ForwardingMode) -> ShardedRouter {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let up = b.router("UP");
    let down = b.router("DOWN");
    let lan = b.lan("S0");
    b.attach(lan, me);
    b.host("H", lan);
    b.link(me, up, 1);
    b.link(me, down, 1);
    let net = b.build();
    let cfg = CbtConfig { shards: 4, ..CbtConfig::default().with_mode(mode) };
    let mut e = ShardedRouter::new(
        &net,
        me,
        cfg,
        || {
            let mut routes = BTreeMap::new();
            routes.insert(
                core(),
                Hop { iface: IfIndex(1), router: RouterId(1), addr: parent_addr(), dist: 1 },
            );
            Box::new(routes)
        },
        SimTime::ZERO,
    );
    e.handle_igmp(
        SimTime::ZERO,
        IfIndex(0),
        Addr::from_octets(10, 1, 0, 100),
        cbt_wire::IgmpMessage::RpCore(cbt_wire::RpCoreReport {
            group: group(),
            code: cbt_wire::igmp::RP_CORE_CODE_CBT,
            target_core_index: 0,
            cores: vec![core()],
        }),
    );
    e.handle_igmp(
        SimTime::ZERO,
        IfIndex(0),
        Addr::from_octets(10, 1, 0, 100),
        cbt_wire::IgmpMessage::Report { version: 3, group: group() },
    );
    e.handle_control(
        SimTime::from_secs(1),
        IfIndex(1),
        parent_addr(),
        ControlMessage::JoinAck {
            subcode: AckSubcode::Normal,
            group: group(),
            origin: Addr::from_octets(10, 1, 0, 1),
            target_core: core(),
            cores: vec![core()],
        },
    );
    e.handle_control(
        SimTime::from_secs(1),
        IfIndex(2),
        Addr::from_octets(172, 31, 0, 6),
        ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: group(),
            origin: Addr::from_octets(10, 9, 0, 1),
            target_core: core(),
            cores: vec![core()],
        },
    );
    assert!(e.is_on_tree(group()));
    e
}

/// Warms `f` (growing every scratch buffer and memo to capacity), then
/// measures the allocation count across `iters` further calls and
/// returns allocations per call.
fn steady_state_allocs(mut f: impl FnMut(), iters: u64) -> f64 {
    for _ in 0..1_000 {
        f();
    }
    let before = allocs();
    for _ in 0..iters {
        f();
    }
    (allocs() - before) as f64 / iters as f64
}

fn bench_dataplane(c: &mut Criterion) {
    let host_src = Addr::from_octets(10, 1, 0, 100);
    let remote_src = Addr::from_octets(10, 9, 0, 100);

    // -- Zero-allocation assertions (10k packets each, after warmup) --

    // Native transit: packet from the parent branch spans to the child
    // and the member LAN.
    {
        let mut e = on_tree_engine(ForwardingMode::Native);
        let pkt = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
        let mut act = Vec::new();
        let per = steady_state_allocs(
            || {
                act.clear();
                e.handle_native_data(
                    SimTime::from_secs(2),
                    IfIndex(1),
                    parent_addr(),
                    pkt.clone(),
                    &mut act,
                );
            },
            10_000,
        );
        assert!(!act.is_empty(), "transit packet must fan out");
        assert_eq!(per, 0.0, "native transit forward must not allocate in steady state");
        println!("[native_transit] steady-state heap allocations/packet: {per}");
    }

    // Native local-origin: a member host's packet fans up and down.
    {
        let mut e = on_tree_engine(ForwardingMode::Native);
        let pkt = DataPacket::new(host_src, group(), 32, vec![0u8; 512]);
        let mut act = Vec::new();
        let per = steady_state_allocs(
            || {
                act.clear();
                e.handle_native_data(
                    SimTime::from_secs(2),
                    IfIndex(0),
                    host_src,
                    pkt.clone(),
                    &mut act,
                );
            },
            10_000,
        );
        assert!(!act.is_empty());
        assert_eq!(per, 0.0, "local-origin native forward must not allocate in steady state");
        println!("[native_local_origin] steady-state heap allocations/packet: {per}");
    }

    // CBT-mode transit: an on-tree encapsulated packet from the parent
    // spans to the child (refcounted clone) and decapsulates for the
    // member LAN (zero-copy view).
    {
        let mut e = on_tree_engine(ForwardingMode::CbtMode);
        let native = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
        let mut enc = CbtDataPacket::encapsulate(&native, core());
        enc.cbt.on_tree = ON_TREE;
        let mut act = Vec::new();
        let per = steady_state_allocs(
            || {
                act.clear();
                e.handle_cbt_data(
                    SimTime::from_secs(2),
                    IfIndex(1),
                    parent_addr(),
                    enc.clone(),
                    &mut act,
                );
            },
            10_000,
        );
        assert!(!act.is_empty());
        assert_eq!(per, 0.0, "CBT-mode on-tree transit must not allocate in steady state");
        println!("[cbt_transit] steady-state heap allocations/packet: {per}");
    }

    // Sharded forward path: the same native transit through a 4-way
    // `ShardedRouter` front — steering (group → shard) plus the engine
    // must stay allocation-free too.
    {
        let mut e = on_tree_sharded(ForwardingMode::Native);
        let pkt = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
        let mut act = Vec::new();
        let per = steady_state_allocs(
            || {
                act.clear();
                e.handle_native_data(
                    SimTime::from_secs(2),
                    IfIndex(1),
                    parent_addr(),
                    pkt.clone(),
                    &mut act,
                );
            },
            10_000,
        );
        assert!(!act.is_empty(), "sharded transit packet must fan out");
        assert_eq!(per, 0.0, "sharded native forward must not allocate in steady state");
        println!("[sharded_native_transit] steady-state heap allocations/packet: {per}");
    }

    // First-hop CBT encapsulation (§5.1) — the one path that must
    // materialize a new buffer. Reported, not asserted zero.
    {
        let mut e = on_tree_engine(ForwardingMode::CbtMode);
        let pkt = DataPacket::new(host_src, group(), 32, vec![0u8; 512]);
        let mut act = Vec::new();
        let per = steady_state_allocs(
            || {
                act.clear();
                e.handle_native_data(
                    SimTime::from_secs(2),
                    IfIndex(0),
                    host_src,
                    pkt.clone(),
                    &mut act,
                );
            },
            10_000,
        );
        println!("[cbt_first_hop_encap] steady-state heap allocations/packet: {per}");
    }

    // -- Timings for the same paths --

    let mut g = c.benchmark_group("dataplane_forward");
    g.throughput(Throughput::Elements(1));

    g.bench_function("native_transit_512B", |b| {
        let mut e = on_tree_engine(ForwardingMode::Native);
        let pkt = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
        let mut act = Vec::new();
        b.iter(|| {
            act.clear();
            e.handle_native_data(
                black_box(SimTime::from_secs(2)),
                IfIndex(1),
                parent_addr(),
                black_box(pkt.clone()),
                &mut act,
            );
            black_box(&mut act);
        })
    });

    g.bench_function("cbt_transit_512B", |b| {
        let mut e = on_tree_engine(ForwardingMode::CbtMode);
        let native = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
        let mut enc = CbtDataPacket::encapsulate(&native, core());
        enc.cbt.on_tree = ON_TREE;
        let mut act = Vec::new();
        b.iter(|| {
            act.clear();
            e.handle_cbt_data(
                black_box(SimTime::from_secs(2)),
                IfIndex(1),
                parent_addr(),
                black_box(enc.clone()),
                &mut act,
            );
            black_box(&mut act);
        })
    });

    g.bench_function("sharded_native_transit_512B", |b| {
        let mut e = on_tree_sharded(ForwardingMode::Native);
        let pkt = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
        let mut act = Vec::new();
        b.iter(|| {
            act.clear();
            e.handle_native_data(
                black_box(SimTime::from_secs(2)),
                IfIndex(1),
                parent_addr(),
                black_box(pkt.clone()),
                &mut act,
            );
            black_box(&mut act);
        })
    });

    g.bench_function("cbt_first_hop_encap_512B", |b| {
        let mut e = on_tree_engine(ForwardingMode::CbtMode);
        let pkt = DataPacket::new(host_src, group(), 32, vec![0u8; 512]);
        let mut act = Vec::new();
        b.iter(|| {
            act.clear();
            e.handle_native_data(
                black_box(SimTime::from_secs(2)),
                IfIndex(0),
                host_src,
                black_box(pkt.clone()),
                &mut act,
            );
            black_box(&mut act);
        })
    });

    g.finish();

    // Make sure a future edit can't silently turn RouterAction clones
    // into deep copies: fan-out payloads must share the input's buffer.
    let mut e = on_tree_engine(ForwardingMode::Native);
    let pkt = DataPacket::new(remote_src, group(), 32, vec![0u8; 512]);
    let mut act = Vec::new();
    e.handle_native_data(SimTime::from_secs(2), IfIndex(1), parent_addr(), pkt.clone(), &mut act);
    for a in &act {
        if let RouterAction::SendNativeData { pkt: out, .. } = a {
            assert!(out.payload.shares_allocation_with(&pkt.payload));
        }
    }
}

criterion_group!(benches, bench_dataplane);
criterion_main!(benches);
