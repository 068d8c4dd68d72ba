//! Adapters that run the sans-I/O engine inside the deterministic
//! simulator: [`RouterNode`] (a CBT router with an IP forwarding plane)
//! and [`HostApp`] (an end-system running IGMP plus a tiny multicast
//! application).
//!
//! Everything on the wire is a complete IPv4 datagram built by
//! `cbt-wire`, so the trace sees exactly what a packet capture would.

use crate::engine::{CbtRouter, RouteLookup, SharedRib};
use crate::events::RouterAction;
use crate::shard::ShardedRouter;
use cbt_igmp::{HostMembership, IgmpTimers};
use cbt_netsim::{Bytes, Outbox, SimNode, SimTime};
use cbt_obs::DropReason;
use cbt_topology::IfIndex;
use cbt_wire::ipv4::{build_datagram, split_datagram};
use cbt_wire::{
    Addr, CbtDataPacket, ControlMessage, DataPacket, GroupId, IgmpMessage, IpProto, Ipv4Header,
    UdpHeader, WireError, CBT_AUX_PORT, CBT_PRIMARY_PORT,
};
use std::any::Any;

/// A CBT router in the simulator: the protocol engine plus the plain
/// IP forwarding plane that carries multi-hop unicasts (joins are
/// neighbour-to-neighbour, but off-tree data to a core and the direct
/// REJOIN-NACTIVE ack cross several hops).
pub struct RouterNode {
    engine: ShardedRouter,
    rib: SharedRib,
    /// Scratch buffer reused for every control-message encode on the
    /// send path — the hot path allocates once, not per message.
    ctl_buf: Vec<u8>,
    /// Reusable action buffer the data-plane handlers write into;
    /// drained by [`RouterNode::emit`], its capacity persists across
    /// packets so the steady-state forward path never reallocates it.
    act_buf: Vec<RouterAction>,
}

impl RouterNode {
    /// Builds the node: engine plus forwarding plane, both consulting
    /// the same shared RIB.
    pub fn new(
        net: &cbt_topology::NetworkSpec,
        me: cbt_topology::RouterId,
        cfg: crate::CbtConfig,
        rib: SharedRib,
        now: SimTime,
    ) -> Self {
        let engine = ShardedRouter::new(net, me, cfg, || Box::new(rib.clone()), now);
        RouterNode { engine, rib, ctl_buf: Vec::new(), act_buf: Vec::new() }
    }

    /// Builds the node as shard `index` of an `total`-way sharded
    /// router: it owns exactly one engine shard and expects its caller
    /// (the live plane's steering fabric) to feed it only the frames
    /// its shard owns — plus the broadcast ones, which it processes
    /// with shard-0-only emission so the deployment sends each
    /// group-less message once.
    pub fn new_shard_slice(
        net: &cbt_topology::NetworkSpec,
        me: cbt_topology::RouterId,
        cfg: crate::CbtConfig,
        rib: SharedRib,
        now: SimTime,
        index: usize,
        total: usize,
    ) -> Self {
        let engine = ShardedRouter::slice(net, me, cfg, Box::new(rib.clone()), now, index, total);
        RouterNode { engine, rib, ctl_buf: Vec::new(), act_buf: Vec::new() }
    }

    /// The first shard's engine (tests and metrics poke around in
    /// here; at the default `shards = 1` it is the whole router).
    pub fn engine(&self) -> &CbtRouter {
        self.engine.primary()
    }

    /// Mutable first-shard access for harness-level operations.
    pub fn engine_mut(&mut self) -> &mut CbtRouter {
        self.engine.primary_mut()
    }

    /// The sharded steering front (all shards).
    pub fn sharded(&self) -> &ShardedRouter {
        &self.engine
    }

    /// Mutable access to the sharded steering front.
    pub fn sharded_mut(&mut self) -> &mut ShardedRouter {
        &mut self.engine
    }

    /// Turns engine actions into frames, draining `actions` so the
    /// caller's buffer (and its capacity) can be reused for the next
    /// packet.
    fn emit(&mut self, actions: &mut Vec<RouterAction>, out: &mut Outbox) {
        // Fan-out memo: native spanning pushes one SendNativeData per
        // branch interface carrying the *same* datagram. Encode once
        // and hand each interface a refcounted clone of the frame.
        let mut native_memo: Option<(DataPacket, Bytes)> = None;
        for a in actions.drain(..) {
            match a {
                RouterAction::SendControl { iface, dst, msg } => {
                    let port = if msg.is_primary() { CBT_PRIMARY_PORT } else { CBT_AUX_PORT };
                    if msg.encode_into(&mut self.ctl_buf).is_err() {
                        // Unreachable for engine-built messages (core
                        // lists are clamped at ingestion), but an
                        // unencodable message must be counted, not
                        // silently skipped.
                        self.engine.obs_mut().drop_packet(DropReason::DecodeError);
                        continue;
                    }
                    let udp = UdpHeader::wrap(port, port, &self.ctl_buf);
                    let src = self.iface_addr(iface);
                    let frame = build_datagram(src, dst, IpProto::Udp, 64, &udp);
                    self.emit_frame(iface, dst, frame.into(), out);
                }
                RouterAction::SendIgmp { iface, dst, msg } => {
                    let src = self.iface_addr(iface);
                    let frame = build_datagram(src, dst, IpProto::Igmp, 1, &msg.encode());
                    self.emit_frame(iface, dst, frame.into(), out);
                }
                RouterAction::SendNativeData { iface, pkt } => {
                    // The original datagram travels unchanged (§4):
                    // source stays the originating end-system.
                    let frame = match &native_memo {
                        Some((prev, frame)) if *prev == pkt => frame.clone(),
                        _ => {
                            let frame = Bytes::from(pkt.encode());
                            native_memo = Some((pkt, frame.clone()));
                            frame
                        }
                    };
                    out.send(iface, frame);
                }
                RouterAction::SendCbtUnicast { iface, dst, pkt } => {
                    let src = self.iface_addr(iface);
                    let frame = pkt.wrap_unicast(src, dst, None);
                    self.emit_frame(iface, dst, frame.into(), out);
                }
                RouterAction::SendCbtMulticast { iface, pkt } => {
                    // Outer source differs per interface, so CBT
                    // multicasts cannot share a memoised frame.
                    let src = self.iface_addr(iface);
                    let frame = pkt.wrap_multicast(src);
                    out.send(iface, frame);
                }
            }
        }
    }

    fn iface_addr(&self, iface: IfIndex) -> Addr {
        self.engine.iface(iface).map(|i| i.addr).unwrap_or(self.engine.id_addr())
    }

    /// Sends a frame out `iface`, resolving the link-layer destination
    /// the way ARP + a routing lookup would.
    fn emit_frame(&self, iface: IfIndex, ip_dst: Addr, frame: Bytes, out: &mut Outbox) {
        let Some(info) = self.engine.iface(iface) else { return };
        if info.lan.is_none() || ip_dst.is_multicast() {
            out.send(iface, frame);
            return;
        }
        if info.contains(ip_dst) {
            out.send_to(iface, ip_dst, frame);
            return;
        }
        // Off-subnet unicast: frame goes to the next hop's address.
        if let Some(hop) = self.rib.hop_toward(ip_dst) {
            out.send_to(iface, hop.addr, frame);
        }
        // No route: dropped, like a real router with no ARP entry.
    }

    /// Plain IP forwarding for unicasts not addressed to us.
    fn ip_forward(&mut self, hdr: Ipv4Header, body: &[u8], out: &mut Outbox) {
        if hdr.ttl <= 1 {
            return;
        }
        let Some(hop) = self.rib.hop_toward(hdr.dst) else { return };
        let frame = build_datagram(hdr.src, hdr.dst, hdr.proto, hdr.ttl - 1, body);
        self.emit_frame(hop.iface, hdr.dst, frame.into(), out);
    }

    /// Zero-copy view of `sub` (a subslice of `frame`'s backing bytes)
    /// as a refcounted handle into the same allocation.
    fn subslice(frame: &Bytes, sub: &[u8]) -> Bytes {
        let off = sub.as_ptr() as usize - frame.as_ptr() as usize;
        frame.slice(off..off + sub.len())
    }

    /// Classifies a parse failure into the drop taxonomy: checksum
    /// rejections are distinguished from every other malformation.
    fn count_decode_failure(&mut self, e: &WireError) {
        let reason = match e {
            WireError::BadChecksum { .. } => DropReason::ChecksumBad,
            _ => DropReason::DecodeError,
        };
        self.engine.obs_mut().drop_packet(reason);
    }
}

impl SimNode for RouterNode {
    fn on_packet(
        &mut self,
        now: SimTime,
        iface: IfIndex,
        link_src: Addr,
        frame: &Bytes,
        out: &mut Outbox,
    ) {
        let hdr_body = match split_datagram(frame) {
            Ok(v) => v,
            Err(e) => {
                self.count_decode_failure(&e);
                return;
            }
        };
        let (hdr, body) = hdr_body;
        let mine = self.engine.is_my_addr(hdr.dst);
        match hdr.proto {
            IpProto::Igmp => match IgmpMessage::decode(body) {
                Ok(msg) => {
                    let mut actions = self.engine.handle_igmp(now, iface, hdr.src, msg);
                    self.emit(&mut actions, out);
                }
                Err(e) => self.count_decode_failure(&e),
            },
            IpProto::Udp => {
                match UdpHeader::unwrap(body) {
                    Ok((udp, payload))
                        if udp.dst_port == CBT_PRIMARY_PORT || udp.dst_port == CBT_AUX_PORT =>
                    {
                        if mine {
                            match ControlMessage::decode(payload) {
                                Ok(msg) => {
                                    let mut actions =
                                        self.engine.handle_control(now, iface, hdr.src, msg);
                                    self.emit(&mut actions, out);
                                }
                                Err(e) => self.count_decode_failure(&e),
                            }
                        } else if !hdr.dst.is_multicast() {
                            self.ip_forward(hdr, body, out);
                        }
                    }
                    Ok(_) => {
                        if hdr.dst.is_multicast() {
                            // Zero-copy parse: the packet's payload is
                            // a refcounted view into the frame.
                            match DataPacket::decode_bytes(frame) {
                                Ok(pkt) => {
                                    let mut actions = std::mem::take(&mut self.act_buf);
                                    self.engine.handle_native_data(
                                        now,
                                        iface,
                                        link_src,
                                        pkt,
                                        &mut actions,
                                    );
                                    self.emit(&mut actions, out);
                                    self.act_buf = actions;
                                }
                                Err(e) => self.count_decode_failure(&e),
                            }
                        } else if !mine {
                            self.ip_forward(hdr, body, out);
                        }
                    }
                    Err(e) => self.count_decode_failure(&e), // corrupted in flight
                }
            }
            IpProto::Cbt => {
                let payload = Self::subslice(frame, body);
                if mine || hdr.dst.is_multicast() {
                    match CbtDataPacket::decode_payload_bytes(&payload) {
                        Ok(pkt) => {
                            let mut actions = std::mem::take(&mut self.act_buf);
                            self.engine.handle_cbt_data(now, iface, hdr.src, pkt, &mut actions);
                            self.emit(&mut actions, out);
                            self.act_buf = actions;
                        }
                        Err(e) => self.count_decode_failure(&e),
                    }
                } else {
                    // §7: an off-tree encapsulated packet travelling
                    // toward a core is intercepted by the FIRST on-tree
                    // router on its path ("until the data packet
                    // reaches an on-tree router — at this point, the
                    // router must convert [on-tree] to 0xff"), not only
                    // by the addressed core.
                    let intercept = CbtDataPacket::decode_payload_bytes(&payload)
                        .ok()
                        .filter(|p| !p.cbt.is_on_tree() && self.engine.is_on_tree(p.cbt.group));
                    if let Some(pkt) = intercept {
                        let mut actions = std::mem::take(&mut self.act_buf);
                        self.engine.handle_cbt_data(now, iface, hdr.src, pkt, &mut actions);
                        self.emit(&mut actions, out);
                        self.act_buf = actions;
                    } else {
                        self.ip_forward(hdr, body, out);
                    }
                }
            }
            IpProto::IpIp => {
                if !mine {
                    self.ip_forward(hdr, body, out);
                }
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, out: &mut Outbox) {
        let mut actions = self.engine.on_timer(now);
        self.emit(&mut actions, out);
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.engine.next_wakeup()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// One multicast payload delivered to a host application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// When it arrived.
    pub at: SimTime,
    /// Group it was addressed to.
    pub group: GroupId,
    /// Originating end-system.
    pub src: Addr,
    /// Application payload.
    pub payload: Vec<u8>,
}

/// An application-level operation a host performs at a given time.
#[derive(Debug, Clone)]
enum HostOp {
    Join { group: GroupId, cores: Vec<Addr>, target_core_index: u8 },
    Leave { group: GroupId },
    Send { group: GroupId, payload: Vec<u8>, ttl: u8 },
}

/// An end-system in the simulator: IGMP membership plus a scriptable
/// multicast application that records what it receives.
pub struct HostApp {
    addr: Addr,
    membership: HostMembership,
    schedule: Vec<(SimTime, HostOp)>,
    received: Vec<Delivery>,
    tree_joined: Vec<(SimTime, GroupId, Addr)>,
}

impl HostApp {
    /// A host at `addr` speaking IGMP `version`.
    pub fn new(addr: Addr, igmp_version: u8, timers: IgmpTimers) -> Self {
        HostApp {
            addr,
            membership: HostMembership::new(addr, igmp_version, timers),
            schedule: Vec::new(),
            received: Vec::new(),
            tree_joined: Vec::new(),
        }
    }

    /// Schedules a group join (unsolicited report + RP/Core-Report) at
    /// `at`.
    pub fn join_at(&mut self, at: SimTime, group: GroupId, cores: Vec<Addr>) {
        self.schedule.push((at, HostOp::Join { group, cores, target_core_index: 0 }));
        self.schedule.sort_by_key(|(t, _)| *t);
    }

    /// Schedules a join that steers toward a specific core in the list.
    pub fn join_at_with_target(
        &mut self,
        at: SimTime,
        group: GroupId,
        cores: Vec<Addr>,
        target_core_index: u8,
    ) {
        self.schedule.push((at, HostOp::Join { group, cores, target_core_index }));
        self.schedule.sort_by_key(|(t, _)| *t);
    }

    /// Schedules a leave at `at`.
    pub fn leave_at(&mut self, at: SimTime, group: GroupId) {
        self.schedule.push((at, HostOp::Leave { group }));
        self.schedule.sort_by_key(|(t, _)| *t);
    }

    /// Schedules a data transmission at `at`.
    pub fn send_at(&mut self, at: SimTime, group: GroupId, payload: impl Into<Vec<u8>>, ttl: u8) {
        self.schedule.push((at, HostOp::Send { group, payload: payload.into(), ttl }));
        self.schedule.sort_by_key(|(t, _)| *t);
    }

    /// Everything the application has received.
    pub fn received(&self) -> &[Delivery] {
        &self.received
    }

    /// Tree-joined notifications heard from the DR (§2.5 proposal).
    pub fn tree_joined_events(&self) -> &[(SimTime, GroupId, Addr)] {
        &self.tree_joined
    }

    /// Is this host currently a member of `group`?
    pub fn is_member(&self, group: GroupId) -> bool {
        self.membership.is_member(group)
    }

    /// This host's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    fn emit_igmp(&self, outs: Vec<cbt_igmp::IgmpOut>, out: &mut Outbox) {
        for o in outs {
            let frame = build_datagram(self.addr, o.dst, IpProto::Igmp, 1, &o.msg.encode());
            out.send(IfIndex(0), frame);
        }
    }
}

impl SimNode for HostApp {
    fn on_packet(
        &mut self,
        now: SimTime,
        _iface: IfIndex,
        _link_src: Addr,
        frame: &Bytes,
        out: &mut Outbox,
    ) {
        let Ok((hdr, body)) = split_datagram(frame) else { return };
        match hdr.proto {
            IpProto::Igmp => {
                if let Ok(msg) = IgmpMessage::decode(body) {
                    if let IgmpMessage::TreeJoined { group, core } = msg {
                        self.tree_joined.push((now, group, core));
                    } else {
                        self.membership.on_igmp(&msg, now);
                    }
                    let due = self.membership.poll(now);
                    self.emit_igmp(due, out);
                }
            }
            IpProto::Udp => {
                // Application data: only for groups we are members of.
                // The parse itself is zero-copy; the one copy happens
                // here, where the application takes ownership.
                if let Ok(pkt) = DataPacket::decode_bytes(frame) {
                    if self.membership.is_member(pkt.group) && pkt.src != self.addr {
                        self.received.push(Delivery {
                            at: now,
                            group: pkt.group,
                            src: pkt.src,
                            payload: pkt.payload.to_vec(),
                        });
                    }
                }
            }
            // "The IP module of end-systems ... will discard these
            // multicasts since the CBT payload type of the outer IP
            // header is not recognizable by hosts" (§5).
            IpProto::Cbt | IpProto::IpIp => {}
        }
    }

    fn on_timer(&mut self, now: SimTime, out: &mut Outbox) {
        while let Some((at, _)) = self.schedule.first() {
            if *at > now {
                break;
            }
            let (_, op) = self.schedule.remove(0);
            match op {
                HostOp::Join { group, cores, target_core_index } => {
                    let msgs = self.membership.join(group, cores, target_core_index);
                    self.emit_igmp(msgs, out);
                }
                HostOp::Leave { group } => {
                    let msgs = self.membership.leave(group);
                    self.emit_igmp(msgs, out);
                }
                HostOp::Send { group, payload, ttl } => {
                    let pkt = DataPacket::new(self.addr, group, ttl, payload);
                    out.send(IfIndex(0), pkt.encode());
                }
            }
        }
        let due = self.membership.poll(now);
        self.emit_igmp(due, out);
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        let sched = self.schedule.first().map(|(t, _)| *t);
        let report = self.membership.next_wakeup();
        match (sched, report) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Everything needed to stand up a full CBT network in the simulator:
/// a [`cbt_netsim::World`] with one [`RouterNode`] per router and one
/// [`HostApp`] per host, all sharing one RIB.
pub struct CbtWorld {
    /// The simulator world.
    pub world: cbt_netsim::World,
    /// The shared routing table (recompute after failures).
    pub rib: std::sync::Arc<parking_lot::RwLock<cbt_routing::Rib>>,
    /// The network, for address lookups.
    pub net: std::sync::Arc<cbt_topology::NetworkSpec>,
    /// RIB-view factory (used when re-installing a restarted router).
    make_rib: Box<dyn Fn(cbt_topology::RouterId) -> SharedRib>,
    /// Router config used at construction (restarts reuse it).
    cfg: crate::CbtConfig,
}

impl CbtWorld {
    /// Builds a world where every router runs CBT with `cfg` and every
    /// host runs IGMPv3.
    pub fn build(
        net: cbt_topology::NetworkSpec,
        cfg: crate::CbtConfig,
        world_cfg: cbt_netsim::WorldConfig,
    ) -> Self {
        Self::build_with_igmp_versions(net, cfg, world_cfg, |_| 3)
    }

    /// As [`CbtWorld::build`], choosing each host's IGMP version.
    pub fn build_with_igmp_versions(
        net: cbt_topology::NetworkSpec,
        cfg: crate::CbtConfig,
        world_cfg: cbt_netsim::WorldConfig,
        igmp_version: impl Fn(cbt_topology::HostId) -> u8,
    ) -> Self {
        let net = std::sync::Arc::new(net);
        let (rib, make_rib) = SharedRib::build(net.clone());
        let mut world = cbt_netsim::World::new((*net).clone(), world_cfg);
        for i in 0..net.routers.len() {
            let me = cbt_topology::RouterId(i as u32);
            let node = RouterNode::new(&net, me, cfg.clone(), make_rib(me), SimTime::ZERO);
            world.set_node(cbt_netsim::Entity::Router(me), Box::new(node));
        }
        for (i, h) in net.hosts.iter().enumerate() {
            let hid = cbt_topology::HostId(i as u32);
            let app = HostApp::new(h.addr, igmp_version(hid), cfg.igmp);
            world.set_node(cbt_netsim::Entity::Host(hid), Box::new(app));
        }
        CbtWorld { world, rib, net, make_rib: Box::new(make_rib), cfg }
    }

    /// Host handle. If you schedule operations after `world.start()`,
    /// follow up with [`CbtWorld::touch_host`] so the world learns the
    /// new wakeup.
    pub fn host(&mut self, h: cbt_topology::HostId) -> &mut HostApp {
        self.world.node_mut::<HostApp>(cbt_netsim::Entity::Host(h)).expect("host exists")
    }

    /// Re-arms a host's timer after post-start schedule changes.
    pub fn touch_host(&mut self, h: cbt_topology::HostId) {
        self.world.poke(cbt_netsim::Entity::Host(h));
    }

    /// Router handle.
    pub fn router(&mut self, r: cbt_topology::RouterId) -> &mut RouterNode {
        self.world.node_mut::<RouterNode>(cbt_netsim::Entity::Router(r)).expect("router exists")
    }

    /// Fails a router and recomputes routing, as a converged IGP would.
    pub fn fail_router(&mut self, r: cbt_topology::RouterId) {
        self.world.failures_mut().fail_router(r);
        self.recompute_routes();
    }

    /// Fails a link and recomputes routing.
    pub fn fail_link(&mut self, l: cbt_topology::LinkId) {
        self.world.failures_mut().fail_link(l);
        self.recompute_routes();
    }

    /// Fails a whole LAN segment and recomputes routing.
    pub fn fail_lan(&mut self, l: cbt_topology::LanId) {
        self.world.failures_mut().fail_lan(l);
        self.recompute_routes();
    }

    /// Restores a failed LAN segment and recomputes routing.
    pub fn restore_lan(&mut self, l: cbt_topology::LanId) {
        self.world.failures_mut().restore_lan(l);
        self.recompute_routes();
    }

    /// Restores a failed link and recomputes routing.
    pub fn restore_link(&mut self, l: cbt_topology::LinkId) {
        self.world.failures_mut().restore_link(l);
        self.recompute_routes();
    }

    /// Restores a router **with empty protocol state** (§6.2 restart)
    /// and recomputes routing.
    pub fn restart_router(&mut self, r: cbt_topology::RouterId, now: SimTime) {
        self.world.failures_mut().restore_router(r);
        self.recompute_routes();
        let node = RouterNode::new(&self.net, r, self.cfg.clone(), (self.make_rib)(r), now);
        self.world.set_node(cbt_netsim::Entity::Router(r), Box::new(node));
    }

    /// Recomputes the shared RIB from the current failure set.
    pub fn recompute_routes(&self) {
        SharedRib::recompute(&self.rib, self.world.failures());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_netsim::WorldConfig;
    use cbt_topology::NetworkBuilder;

    /// Two LANs joined by a chain of three routers; host A joins, host
    /// B sends — the simplest end-to-end delivery through a real join.
    #[test]
    fn end_to_end_join_and_delivery() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1"); // will be the core
        let r2 = b.router("R2");
        let s0 = b.lan("S0");
        b.attach(s0, r0);
        let a = b.host("A", s0);
        b.link(r0, r1, 1);
        b.link(r1, r2, 1);
        let s1 = b.lan("S1");
        b.attach(s1, r2);
        let sender = b.host("B", s1);
        let net = b.build();
        let core = net.router_addr(r1);

        let group = GroupId::numbered(7);
        // §5.1: a non-member sender's DR needs a <core, group> mapping
        // mechanism, which the spec leaves external — here, managed
        // configuration.
        let cfg = crate::CbtConfig::fast().with_mapping(group, vec![core]);
        let mut cw = CbtWorld::build(net, cfg, WorldConfig::default());
        cw.host(a).join_at(SimTime::from_secs(1), group, vec![core]);
        // The sender is a non-member: §5.1 non-member sending.
        cw.host(sender).send_at(SimTime::from_secs(3), group, b"hello".to_vec(), 32);
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(5));

        // A's DR joined the tree...
        assert!(cw.router(r0).engine().is_on_tree(group));
        assert_eq!(
            cw.router(r0).engine().parent_of(group),
            Some({
                // R0's parent is R1 via the p2p link.
                let net = cw.net.clone();
                net.routers[r1.0 as usize]
                    .ifaces
                    .iter()
                    .find(|i| i.subnet == net.routers[r0.0 as usize].ifaces[1].subnet)
                    .unwrap()
                    .addr
            })
        );
        // ...the host heard the §2.5 notification...
        assert!(!cw.host(a).tree_joined_events().is_empty());
        // ...and B's data arrived at A exactly once.
        let got = cw.host(a).received();
        assert_eq!(got.len(), 1, "exactly one copy delivered");
        assert_eq!(got[0].payload, b"hello");
        assert_eq!(got[0].group, group);
    }

    /// Same network; member-to-member delivery both directions.
    #[test]
    fn two_members_exchange_data() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let s0 = b.lan("S0");
        b.attach(s0, r0);
        let a = b.host("A", s0);
        b.link(r0, r1, 1);
        b.link(r1, r2, 1);
        let s1 = b.lan("S1");
        b.attach(s1, r2);
        let bb = b.host("B", s1);
        let net = b.build();
        let core = net.router_addr(r1);
        let group = GroupId::numbered(9);

        let mut cw = CbtWorld::build(net, crate::CbtConfig::fast(), WorldConfig::default());
        cw.host(a).join_at(SimTime::from_secs(1), group, vec![core]);
        cw.host(bb).join_at(SimTime::from_secs(1), group, vec![core]);
        cw.host(a).send_at(SimTime::from_secs(4), group, b"from A".to_vec(), 32);
        cw.host(bb).send_at(SimTime::from_secs(5), group, b"from B".to_vec(), 32);
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(8));

        let at_b = cw.host(bb).received();
        assert_eq!(at_b.len(), 1);
        assert_eq!(at_b[0].payload, b"from A");
        let at_a = cw.host(a).received();
        assert_eq!(at_a.len(), 1);
        assert_eq!(at_a[0].payload, b"from B");
        // The core carries both directions: it is on-tree with two
        // children and no parent.
        let core_engine = cw.router(r1).engine();
        assert!(core_engine.is_on_tree(group));
        assert_eq!(core_engine.parent_of(group), None);
        assert_eq!(core_engine.children_of(group).len(), 2);
    }

    /// CBT-mode forwarding delivers identically.
    #[test]
    fn cbt_mode_end_to_end() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let s0 = b.lan("S0");
        b.attach(s0, r0);
        let a = b.host("A", s0);
        b.link(r0, r1, 1);
        let s1 = b.lan("S1");
        b.attach(s1, r1);
        let bb = b.host("B", s1);
        let net = b.build();
        let core = net.router_addr(r1);
        let group = GroupId::numbered(2);

        let mut cw = CbtWorld::build(
            net,
            crate::CbtConfig::fast().with_mode(crate::config::ForwardingMode::CbtMode),
            WorldConfig::default(),
        );
        cw.host(a).join_at(SimTime::from_secs(1), group, vec![core]);
        cw.host(bb).join_at(SimTime::from_secs(1), group, vec![core]);
        cw.host(bb).send_at(SimTime::from_secs(3), group, b"cbt mode".to_vec(), 32);
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(6));
        let sender_addr = cw.host(bb).addr();
        let got = cw.host(a).received();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"cbt mode");
        assert_eq!(got[0].src, sender_addr);
        // The delivered copy crossed a CBT-mode branch.
        use cbt_netsim::PacketKind;
        assert!(cw.world.trace().count(PacketKind::DataCbt) > 0, "branch used CBT mode");
    }

    /// Leaves tear the branch down again (§2.7) within the fast timers.
    #[test]
    fn leave_triggers_quit_upstream() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let s0 = b.lan("S0");
        b.attach(s0, r0);
        let a = b.host("A", s0);
        b.link(r0, r1, 1);
        let s1 = b.lan("S1");
        b.attach(s1, r1);
        let net = b.build();
        let core = net.router_addr(r1);
        let group = GroupId::numbered(3);

        let mut cw = CbtWorld::build(net, crate::CbtConfig::fast(), WorldConfig::default());
        cw.host(a).join_at(SimTime::from_secs(1), group, vec![core]);
        cw.host(a).leave_at(SimTime::from_secs(5), group);
        cw.world.start();
        cw.world.run_until(SimTime::from_secs(4));
        assert!(cw.router(r0).engine().is_on_tree(group), "joined first");
        cw.world.run_until(SimTime::from_secs(15));
        assert!(!cw.router(r0).engine().is_on_tree(group), "quit after leave");
        let core_children = cw.router(r1).engine().children_of(group);
        assert!(core_children.is_empty(), "core saw the quit");
    }
}
