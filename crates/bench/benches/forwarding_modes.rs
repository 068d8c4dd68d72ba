//! Abl-3 bench: native-mode vs CBT-mode per-packet forwarding cost and
//! bytes-on-wire overhead (§4 vs §5).

use cbt::{config::ForwardingMode, CbtConfig, CbtRouter, RouterAction};
use cbt_netsim::SimTime;
use cbt_routing::Hop;
use cbt_topology::{IfIndex, NetworkBuilder, RouterId};
use cbt_wire::{AckSubcode, Addr, ControlMessage, DataPacket, GroupId, JoinSubcode};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::collections::BTreeMap;

fn group() -> GroupId {
    GroupId::numbered(1)
}

fn core() -> Addr {
    Addr::from_octets(10, 255, 0, 9)
}

/// An on-tree engine: member LAN on if0, parent via if1, child via if2.
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
        Hop {
            iface: IfIndex(1),
            router: RouterId(1),
            addr: Addr::from_octets(172, 31, 0, 2),
            dist: 1,
        },
    );
    let mut e = CbtRouter::new(
        &net,
        me,
        CbtConfig::default().with_mode(mode),
        Box::new(routes),
        SimTime::ZERO,
    );
    // Local member (makes us DR + eventually G-DR).
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
    // Complete our join and adopt a child.
    e.handle_control(
        SimTime::from_secs(1),
        IfIndex(1),
        Addr::from_octets(172, 31, 0, 2),
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

fn bench_modes(c: &mut Criterion) {
    for (name, mode) in [("native", ForwardingMode::Native), ("cbt_mode", ForwardingMode::CbtMode)]
    {
        let mut engine = on_tree_engine(mode);
        let pkt = DataPacket::new(Addr::from_octets(10, 1, 0, 100), group(), 32, vec![0u8; 512]);
        // Measure the engine's per-packet forwarding decision + any
        // encapsulation work, and record the bytes each mode puts on
        // the wire.
        let host_src = Addr::from_octets(10, 1, 0, 100);
        let mut actions = Vec::new();
        engine.handle_native_data(
            SimTime::from_secs(2),
            IfIndex(0),
            host_src,
            pkt.clone(),
            &mut actions,
        );
        let wire_bytes: usize = actions
            .iter()
            .map(|a| match a {
                RouterAction::SendNativeData { pkt, .. } => pkt.encode().len(),
                RouterAction::SendCbtUnicast { pkt, .. } => pkt.encode_payload().len() + 20,
                RouterAction::SendCbtMulticast { pkt, .. } => pkt.encode_payload().len() + 20,
                _ => 0,
            })
            .sum();
        let mut g = c.benchmark_group(format!("forward_{name}"));
        g.throughput(Throughput::Bytes(wire_bytes as u64));
        g.bench_function("one_packet_512B", |b| {
            // One action buffer reused across iterations — the shape
            // every real caller (sim and live) now has.
            let mut act = Vec::new();
            b.iter(|| {
                act.clear();
                engine.handle_native_data(
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
        println!("[{name}] bytes on wire per 512B packet across this hop: {wire_bytes}");
    }
}

criterion_group!(benches, bench_modes);
criterion_main!(benches);
