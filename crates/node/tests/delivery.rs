//! Cross-transport delivery: the simulator's `World`, the in-process
//! channel `Fabric` and the loopback `UdpFabric` must agree on who
//! hears a frame.
//!
//! Every transmission a node can make — each sender, each interface
//! (plus one it does not have), and each link-layer destination on the
//! medium (broadcast, or any attachment's address) — is pushed through
//! all three transports, and the (receiver, arrival iface, `link_src`)
//! sets are compared. The UDP transport replays a sample of the cases,
//! since each one waits on real sockets.

#![cfg(feature = "live")]

use cbt_netsim::{Bytes, Entity, Outbox, SimNode, SimTime, Transmit, World, WorldConfig};
use cbt_node::fabric::{Fabric, RxFrame};
use cbt_node::udp::UdpFabric;
use cbt_topology::{figure1, Attachment, HostId, IfIndex, NetworkBuilder, NetworkSpec, RouterId};
use cbt_wire::Addr;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::mpsc;

/// (receiver, arrival iface, link-layer source).
type Arrival = (Entity, IfIndex, Addr);

/// One transmission to replay on every transport.
#[derive(Debug, Clone)]
struct Case {
    from: Entity,
    iface: IfIndex,
    link_dst: Option<Addr>,
}

/// A router LAN, a host-only stub LAN and two p2p links, with hosts on
/// both LANs.
fn lan_and_links() -> NetworkSpec {
    let mut b = NetworkBuilder::new();
    let r0 = b.router("R0");
    let r1 = b.router("R1");
    let r2 = b.router("R2");
    let shared = b.lan("S0");
    b.attach(shared, r0);
    b.attach(shared, r1);
    b.host("H0", shared);
    b.host("H1", shared);
    let stub = b.lan("S1");
    b.attach(stub, r2);
    b.host("H2", stub);
    b.link(r1, r2, 1);
    b.link(r0, r2, 3);
    b.build()
}

/// Every address attached to the medium `a`.
fn addrs_on(net: &NetworkSpec, a: Attachment) -> Vec<Addr> {
    let mut out = Vec::new();
    for r in &net.routers {
        for i in &r.ifaces {
            let same = match (i.attachment, a) {
                (Attachment::Lan(x), Attachment::Lan(y)) => x == y,
                (Attachment::Link { link: x, .. }, Attachment::Link { link: y, .. }) => x == y,
                _ => false,
            };
            if same {
                out.push(i.addr);
            }
        }
    }
    if let Attachment::Lan(lan) = a {
        out.extend(net.hosts.iter().filter(|h| h.lan == lan).map(|h| h.addr));
    }
    out
}

/// Every (sender, iface, link_dst) transmission of `net`, including
/// one on an interface the sender does not have.
fn cases(net: &NetworkSpec) -> Vec<Case> {
    let mut out = Vec::new();
    let mut push = |from: Entity, iface: IfIndex, medium: Option<Attachment>| {
        out.push(Case { from, iface, link_dst: None });
        for a in medium.map(|m| addrs_on(net, m)).unwrap_or_default() {
            out.push(Case { from, iface, link_dst: Some(a) });
        }
    };
    for (ri, r) in net.routers.iter().enumerate() {
        let from = Entity::Router(RouterId(ri as u32));
        for (ii, i) in r.ifaces.iter().enumerate() {
            push(from, IfIndex(ii as u32), Some(i.attachment));
        }
        push(from, IfIndex(r.ifaces.len() as u32), None);
    }
    for (hi, h) in net.hosts.iter().enumerate() {
        let from = Entity::Host(HostId(hi as u32));
        push(from, IfIndex(0), Some(Attachment::Lan(h.lan)));
        push(from, IfIndex(1), None);
    }
    out
}

/// A frame unique to case `n`, so a stray arrival is attributable.
fn frame_for(n: usize) -> Bytes {
    Bytes::from(format!("case-{n}").into_bytes())
}

fn entities(net: &NetworkSpec) -> Vec<Entity> {
    (0..net.routers.len())
        .map(|i| Entity::Router(RouterId(i as u32)))
        .chain((0..net.hosts.len()).map(|i| Entity::Host(HostId(i as u32))))
        .collect()
}

/// A simulator node that transmits whatever it is handed on its next
/// poke and records every arrival.
#[derive(Default)]
struct Recorder {
    pending: Vec<Transmit>,
    heard: Vec<(IfIndex, Addr, Bytes)>,
}

impl SimNode for Recorder {
    fn on_packet(
        &mut self,
        _now: SimTime,
        iface: IfIndex,
        link_src: Addr,
        frame: &Bytes,
        _out: &mut Outbox,
    ) {
        self.heard.push((iface, link_src, frame.clone()));
    }
    fn on_timer(&mut self, _now: SimTime, out: &mut Outbox) {
        for t in self.pending.drain(..) {
            match t.link_dst {
                Some(d) => out.send_to(t.iface, d, t.frame),
                None => out.send(t.iface, t.frame),
            }
        }
    }
    fn next_wakeup(&self) -> Option<SimTime> {
        None
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Replays each case through a `World` of recorders.
fn via_world(net: &NetworkSpec, cases: &[Case]) -> Vec<BTreeSet<Arrival>> {
    let mut world = World::new(net.clone(), WorldConfig::default());
    for e in entities(net) {
        world.set_node(e, Box::new(Recorder::default()));
    }
    world.start();
    let mut out = Vec::new();
    for (n, c) in cases.iter().enumerate() {
        let t = Transmit { iface: c.iface, link_dst: c.link_dst, frame: frame_for(n) };
        world.node_mut::<Recorder>(c.from).unwrap().pending.push(t);
        world.poke(c.from);
        assert!(world.run_until_idle(SimTime::from_secs(3600)), "world settles");
        let mut got = BTreeSet::new();
        for e in entities(net) {
            for (iface, link_src, frame) in world.node_mut::<Recorder>(e).unwrap().heard.drain(..) {
                assert_eq!(frame, frame_for(n), "case {n}: stray frame at {e}");
                got.insert((e, iface, link_src));
            }
        }
        out.push(got);
    }
    out
}

/// Collects everything already queued on `rxs`, checking each frame
/// belongs to case `n`.
fn drain(rxs: &mut HashMap<Entity, mpsc::Receiver<RxFrame>>, n: usize) -> BTreeSet<Arrival> {
    let mut got = BTreeSet::new();
    for (&e, rx) in rxs.iter_mut() {
        while let Ok(f) = rx.try_recv() {
            assert_eq!(f.frame, frame_for(n), "case {n}: stray frame at {e}");
            got.insert((e, f.iface, f.link_src));
        }
    }
    got
}

/// Replays each case through the in-process channel fabric.
fn via_fabric(net: &NetworkSpec, cases: &[Case]) -> Vec<BTreeSet<Arrival>> {
    let (fabric, rxs) = Fabric::new(Arc::new(net.clone()), 1, 64);
    let mut rxs = rxs.into_iter().map(|(e, mut v)| (e, v.remove(0))).collect();
    cases
        .iter()
        .enumerate()
        .map(|(n, c)| {
            let t = Transmit { iface: c.iface, link_dst: c.link_dst, frame: frame_for(n) };
            fabric.dispatch(c.from, &t);
            drain(&mut rxs, n)
        })
        .collect()
}

/// Replays the sampled cases over loopback UDP. Each case waits for
/// the `expected` arrival count, then briefly for any extra one.
async fn via_udp(
    net: &NetworkSpec,
    cases: &[Case],
    sample: &[usize],
    expected: &[BTreeSet<Arrival>],
) -> Vec<BTreeSet<Arrival>> {
    let (fabric, rxs) = UdpFabric::bind(Arc::new(net.clone()), 1, 64).await.unwrap();
    let mut rxs = rxs.into_iter().map(|(e, mut v)| (e, v.remove(0))).collect();
    let mut out = Vec::new();
    for &n in sample {
        let c = &cases[n];
        let t = Transmit { iface: c.iface, link_dst: c.link_dst, frame: frame_for(n) };
        fabric.dispatch(c.from, &t).await;
        let mut got = BTreeSet::new();
        let deadline = tokio::time::Instant::now() + Duration::from_secs(5);
        while got.len() < expected[n].len() && tokio::time::Instant::now() < deadline {
            tokio::time::sleep(Duration::from_millis(2)).await;
            got.extend(drain(&mut rxs, n));
        }
        tokio::time::sleep(Duration::from_millis(20)).await;
        got.extend(drain(&mut rxs, n));
        out.push(got);
    }
    fabric.shutdown();
    out
}

#[tokio::test]
async fn all_transports_deliver_to_the_same_receivers() {
    for (name, net) in [("figure1", figure1().net), ("lan_and_links", lan_and_links())] {
        let cases = cases(&net);
        let world = via_world(&net, &cases);
        let fabric = via_fabric(&net, &cases);
        for (n, c) in cases.iter().enumerate() {
            assert_eq!(fabric[n], world[n], "{name} case {n} {c:?}: fabric vs world");
        }
        // The pinned table is not vacuous: it covers broadcast fan-out,
        // filtered unicast and frames nobody hears.
        assert!(world.iter().any(|s| s.len() > 1), "{name}: some fan-out");
        assert!(world.iter().any(|s| s.len() == 1), "{name}: some unicast");
        assert!(world.iter().any(|s| s.is_empty()), "{name}: some unheard");

        // UDP: every case of the small fixture, every seventh of Fig. 1.
        let step = if net.routers.len() > 3 { 7 } else { 1 };
        let sample: Vec<usize> = (0..cases.len()).step_by(step).collect();
        let udp = via_udp(&net, &cases, &sample, &world).await;
        for (got, &n) in udp.iter().zip(&sample) {
            assert_eq!(got, &world[n], "{name} case {n} {:?}: udp vs world", cases[n]);
        }
    }
}
