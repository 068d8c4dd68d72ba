//! The in-process frame fabric: who receives what a node transmits.
//!
//! Mirrors the delivery semantics of `cbt_netsim::World` (LAN broadcast
//! with link-layer unicast filtering, p2p peer delivery) but pushes
//! frames into per-entity tokio mpsc channels instead of an event
//! queue.
//!
//! Data-plane properties (see DESIGN.md "Data-plane architecture"):
//! - **Zero-copy fan-out** — a [`Transmit`] already owns its frame as
//!   refcounted [`Bytes`]; delivery clones the handle per recipient
//!   (a refcount bump), never the payload.
//! - **Bounded inboxes** — every node inbox is a bounded channel; when
//!   a receiver falls behind, frames are dropped and counted instead
//!   of growing an unbounded queue (a real router sheds load, it does
//!   not OOM).

use cbt::shard_of;
use cbt_netsim::{Bytes, Entity, Transmit};
use cbt_obs::{AtomicDropCounters, DropCounters, DropReason};
use cbt_topology::{Attachment, HostId, IfIndex, NetworkSpec, RouterId};
use cbt_wire::ipv4::IPV4_HEADER_LEN;
use cbt_wire::{Addr, GroupId, IgmpMessage, IpProto, CBT_AUX_PORT, CBT_PRIMARY_PORT};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tokio::sync::mpsc;

/// Where a received frame should go within a sharded router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steer {
    /// Exactly one shard owns this frame's group (or it is group-less
    /// housekeeping / transit traffic, which shard 0 owns).
    One(usize),
    /// Every shard must see the frame (general IGMP queries: each
    /// shard's election replica has to observe the querier).
    All,
}

/// Decides which shard(s) of an `n`-shard router a raw frame belongs
/// to, by peeking at the wire bytes **without** decoding the payload —
/// this runs once per delivered frame on the live hot path.
///
/// The classification mirrors `RouterNode::on_packet`:
/// - CBT-mode data (IP proto 7): group id sits at bytes 8..12 of the
///   CBT header (spec Fig. 7), i.e. right after the 20-byte IP header.
/// - CBT control (UDP to a CBT port): group id sits at bytes 8..12 of
///   the control header (spec Fig. 8), after IP + 8-byte UDP headers.
/// - Native-mode data (UDP to any other port, multicast destination):
///   the group **is** the destination address.
/// - IGMP: decoded (it is tiny and off the data path); a general
///   query carries no group and fans out to every shard, everything
///   else steers by its group.
/// - Anything else — unicast transit, truncated or malformed frames —
///   goes to shard 0, whose engine owns group-less work and counts
///   decode failures exactly as an unsharded router would.
pub fn steer_frame(frame: &[u8], shards: usize) -> Steer {
    if shards <= 1 {
        return Steer::One(0);
    }
    if frame.len() < IPV4_HEADER_LEN {
        return Steer::One(0);
    }
    let group_at = |off: usize| -> Option<GroupId> {
        let b = frame.get(off..off + 4)?;
        GroupId::new(Addr(u32::from_be_bytes([b[0], b[1], b[2], b[3]])))
    };
    let steer_group = |g: Option<GroupId>| match g {
        Some(g) => Steer::One(shard_of(g, shards)),
        None => Steer::One(0),
    };
    match frame[9] {
        p if p == IpProto::Cbt as u8 => steer_group(group_at(IPV4_HEADER_LEN + 8)),
        p if p == IpProto::Igmp as u8 => match IgmpMessage::decode(&frame[IPV4_HEADER_LEN..]) {
            Ok(IgmpMessage::Query { group: None, .. }) => Steer::All,
            Ok(IgmpMessage::Query { group: Some(g), .. })
            | Ok(IgmpMessage::Report { group: g, .. })
            | Ok(IgmpMessage::Leave { group: g })
            | Ok(IgmpMessage::TreeJoined { group: g, .. }) => Steer::One(shard_of(g, shards)),
            Ok(IgmpMessage::RpCore(r)) => Steer::One(shard_of(r.group, shards)),
            Err(_) => Steer::One(0),
        },
        p if p == IpProto::Udp as u8 => {
            let Some(port) = frame.get(IPV4_HEADER_LEN + 2..IPV4_HEADER_LEN + 4) else {
                return Steer::One(0);
            };
            let dst_port = u16::from_be_bytes([port[0], port[1]]);
            if dst_port == CBT_PRIMARY_PORT || dst_port == CBT_AUX_PORT {
                steer_group(group_at(IPV4_HEADER_LEN + 8 + 8))
            } else {
                // Native data: destination address is the group.
                steer_group(group_at(16))
            }
        }
        _ => Steer::One(0),
    }
}

/// Enumerates every entity of a network, in the fabric's canonical
/// order (routers first, then hosts).
pub(crate) fn entities_of(net: &NetworkSpec) -> Vec<Entity> {
    (0..net.routers.len())
        .map(|i| Entity::Router(RouterId(i as u32)))
        .chain((0..net.hosts.len()).map(|i| Entity::Host(HostId(i as u32))))
        .collect()
}

/// A frame as delivered to a node: which interface it arrived on and
/// who (at the link layer) sent it. The frame bytes are a refcounted
/// handle shared with every other recipient of the same transmission.
#[derive(Debug, Clone)]
pub struct RxFrame {
    /// Arrival interface (0 for hosts).
    pub iface: IfIndex,
    /// Link-layer sender (their address on the shared medium).
    pub link_src: cbt_wire::Addr,
    /// The datagram.
    pub frame: Bytes,
}

/// How many queued frames a node task drains per wakeup before
/// flushing its outbox.
pub(crate) const RX_BATCH: usize = 64;

/// Tuning knobs for the live data plane, shared by the channel fabric,
/// the UDP fabric and the node task loops.
#[derive(Debug, Clone, Copy)]
pub struct DataPlaneConfig {
    /// Bounded inbox capacity per node; beyond it frames are dropped
    /// and counted ([`FabricStats::dropped_overflow`]).
    pub inbox_capacity: usize,
}

impl Default for DataPlaneConfig {
    fn default() -> Self {
        DataPlaneConfig { inbox_capacity: 2048 }
    }
}

/// Live counters for fabric delivery. All counters are cumulative.
/// Drops are tallied **per receiving node** under the shared
/// [`DropReason`] taxonomy rather than as one fabric-wide
/// `dropped_overflow` total, so a single overwhelmed inbox is
/// attributable.
#[derive(Default)]
pub struct FabricCounters {
    delivered: AtomicU64,
    node_drops: HashMap<Entity, AtomicDropCounters>,
}

/// A point-in-time snapshot of [`FabricCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricStats {
    /// Frames enqueued into recipient inboxes.
    pub delivered: u64,
    /// Frames dropped because a recipient's bounded inbox was full
    /// (sum of [`DropReason::InboxOverflow`] over every node).
    pub dropped_overflow: u64,
}

impl FabricCounters {
    /// Builds the counter set with one taxonomy row per entity.
    pub(crate) fn for_net(net: &NetworkSpec) -> Self {
        FabricCounters {
            delivered: AtomicU64::new(0),
            node_drops: entities_of(net)
                .into_iter()
                .map(|e| (e, AtomicDropCounters::default()))
                .collect(),
        }
    }
    pub(crate) fn count_delivered(&self) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn count_dropped(&self, to: Entity) {
        if let Some(d) = self.node_drops.get(&to) {
            d.bump(DropReason::InboxOverflow);
        }
    }
    /// One node's transport-level drop taxonomy.
    pub fn node_drops(&self, e: Entity) -> DropCounters {
        self.node_drops.get(&e).map(|d| d.snapshot()).unwrap_or_default()
    }
    /// The fleet-wide drop taxonomy (sum over every node).
    pub fn drops_total(&self) -> DropCounters {
        let mut out = DropCounters::default();
        for d in self.node_drops.values() {
            out.merge(&d.snapshot());
        }
        out
    }
    /// Snapshots the counters.
    pub fn snapshot(&self) -> FabricStats {
        FabricStats {
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped_overflow: self.drops_total().get(DropReason::InboxOverflow),
        }
    }
}

/// Shared dispatch fabric.
///
/// With sharding enabled ([`Fabric::with_shards`]) every router has
/// one bounded inbox **per shard**; [`Fabric::deliver`] peeks at each
/// frame ([`steer_frame`]) and enqueues it on the owning shard's
/// channel only — no cross-shard locks, no shared queue. Hosts always
/// have exactly one inbox, and a 1-inbox entity skips the peek
/// entirely, so the unsharded path is byte-for-byte the old one.
pub struct Fabric {
    net: Arc<NetworkSpec>,
    inboxes: HashMap<Entity, Vec<mpsc::Sender<RxFrame>>>,
    counters: Arc<FabricCounters>,
}

impl Fabric {
    /// Builds the fabric (default data-plane config) and one bounded
    /// inbox per entity. Returns the fabric plus the receive ends, to
    /// hand to each node's task.
    pub fn new(net: Arc<NetworkSpec>) -> (Arc<Self>, HashMap<Entity, mpsc::Receiver<RxFrame>>) {
        Fabric::with_config(net, DataPlaneConfig::default())
    }

    /// Builds the fabric with explicit data-plane tuning (one inbox
    /// per entity — the unsharded shape).
    pub fn with_config(
        net: Arc<NetworkSpec>,
        dp: DataPlaneConfig,
    ) -> (Arc<Self>, HashMap<Entity, mpsc::Receiver<RxFrame>>) {
        let (fabric, rxs) = Fabric::with_shards(net, dp, 1);
        let rxs =
            rxs.into_iter().map(|(e, mut v)| (e, v.pop().expect("one inbox per entity"))).collect();
        (fabric, rxs)
    }

    /// Builds the fabric with `shards` bounded inboxes per **router**
    /// (hosts keep one). Receive ends come back as a `Vec` per entity,
    /// index = shard, to hand to each shard's task.
    pub fn with_shards(
        net: Arc<NetworkSpec>,
        dp: DataPlaneConfig,
        shards: usize,
    ) -> (Arc<Self>, HashMap<Entity, Vec<mpsc::Receiver<RxFrame>>>) {
        let shards = shards.max(1);
        let mut inboxes = HashMap::new();
        let mut rxs = HashMap::new();
        let cap = dp.inbox_capacity.max(1);
        for i in 0..net.routers.len() {
            let (txs, rx): (Vec<_>, Vec<_>) = (0..shards).map(|_| mpsc::channel(cap)).unzip();
            inboxes.insert(Entity::Router(RouterId(i as u32)), txs);
            rxs.insert(Entity::Router(RouterId(i as u32)), rx);
        }
        for i in 0..net.hosts.len() {
            let (tx, rx) = mpsc::channel(cap);
            inboxes.insert(Entity::Host(HostId(i as u32)), vec![tx]);
            rxs.insert(Entity::Host(HostId(i as u32)), vec![rx]);
        }
        let counters = Arc::new(FabricCounters::for_net(&net));
        let fabric = Fabric { net, inboxes, counters };
        (Arc::new(fabric), rxs)
    }

    /// Delivery counters (shared across all dispatches).
    pub fn counters(&self) -> &Arc<FabricCounters> {
        &self.counters
    }

    /// Dispatches one transmission from `from` to everyone it reaches.
    /// The frame is encoded exactly once (by the sender, into the
    /// `Transmit`); recipients share the allocation.
    pub fn dispatch(&self, from: Entity, t: &Transmit) {
        match self.medium_of(from, t.iface) {
            Some(Attachment::Lan(lan)) => {
                let link_src = match from {
                    Entity::Router(r) => self
                        .net
                        .routers
                        .get(r.0 as usize)
                        .and_then(|s| s.iface_on_lan(lan))
                        .map(|(_, i)| i.addr)
                        .unwrap_or(cbt_wire::Addr::NULL),
                    Entity::Host(h) => self
                        .net
                        .hosts
                        .get(h.0 as usize)
                        .map(|s| s.addr)
                        .unwrap_or(cbt_wire::Addr::NULL),
                };
                let lan_spec = &self.net.lans[lan.0 as usize];
                for &r in &lan_spec.routers {
                    if Entity::Router(r) == from {
                        continue;
                    }
                    let Some((rx_iface, rx_spec)) =
                        self.net.routers[r.0 as usize].iface_on_lan(lan)
                    else {
                        continue;
                    };
                    if t.link_dst.is_some_and(|d| d != rx_spec.addr) {
                        continue;
                    }
                    self.deliver(Entity::Router(r), rx_iface, link_src, &t.frame);
                }
                for &h in &lan_spec.hosts {
                    if Entity::Host(h) == from {
                        continue;
                    }
                    if t.link_dst.is_some_and(|d| d != self.net.hosts[h.0 as usize].addr) {
                        continue;
                    }
                    self.deliver(Entity::Host(h), IfIndex(0), link_src, &t.frame);
                }
            }
            Some(Attachment::Link { link, peer }) => {
                let Entity::Router(r) = from else { return };
                let link_src = self
                    .net
                    .routers
                    .get(r.0 as usize)
                    .and_then(|s| s.iface(t.iface))
                    .map(|i| i.addr)
                    .unwrap_or(cbt_wire::Addr::NULL);
                let peer_iface = self.net.routers[peer.0 as usize].ifaces.iter().position(
                    |pi| matches!(pi.attachment, Attachment::Link { link: l, .. } if l == link),
                );
                if let Some(idx) = peer_iface {
                    self.deliver(Entity::Router(peer), IfIndex(idx as u32), link_src, &t.frame);
                }
            }
            None => {}
        }
    }

    fn medium_of(&self, from: Entity, iface: IfIndex) -> Option<Attachment> {
        match from {
            Entity::Router(r) => Some(self.net.routers.get(r.0 as usize)?.iface(iface)?.attachment),
            Entity::Host(h) => {
                let spec = self.net.hosts.get(h.0 as usize)?;
                (iface == IfIndex(0)).then_some(Attachment::Lan(spec.lan))
            }
        }
    }

    fn deliver(&self, to: Entity, iface: IfIndex, link_src: cbt_wire::Addr, frame: &Bytes) {
        let Some(txs) = self.inboxes.get(&to) else { return };
        let frame = frame.clone();
        // Single-inbox entities (hosts, or shards = 1) skip the peek.
        if txs.len() == 1 {
            self.enqueue(&txs[0], to, RxFrame { iface, link_src, frame });
            return;
        }
        match steer_frame(&frame, txs.len()) {
            Steer::One(k) => self.enqueue(&txs[k], to, RxFrame { iface, link_src, frame }),
            Steer::All => {
                for tx in txs {
                    self.enqueue(tx, to, RxFrame { iface, link_src, frame: frame.clone() });
                }
            }
        }
    }

    fn enqueue(&self, tx: &mpsc::Sender<RxFrame>, to: Entity, rx: RxFrame) {
        match tx.try_send(rx) {
            Ok(()) => self.counters.count_delivered(),
            Err(mpsc::error::TrySendError::Full(_)) => self.counters.count_dropped(to),
            // A closed inbox means that node shut down; fine.
            Err(mpsc::error::TrySendError::Closed(_)) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::NetworkBuilder;
    use cbt_wire::Addr;

    fn lan_pair() -> (Arc<NetworkSpec>, RouterId, RouterId, HostId) {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let lan = b.lan("S0");
        b.attach(lan, r0);
        b.attach(lan, r1);
        let h = b.host("H", lan);
        (Arc::new(b.build()), r0, r1, h)
    }

    fn frame(bytes: &[u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    #[tokio::test]
    async fn lan_broadcast_reaches_everyone() {
        let (net, r0, r1, h) = lan_pair();
        let (fabric, mut rxs) = Fabric::new(net);
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: frame(&[1, 2, 3]) };
        fabric.dispatch(Entity::Router(r0), &t);
        assert!(rxs.get_mut(&Entity::Router(r1)).unwrap().try_recv().is_ok());
        assert!(rxs.get_mut(&Entity::Host(h)).unwrap().try_recv().is_ok());
        assert!(rxs.get_mut(&Entity::Router(r0)).unwrap().try_recv().is_err(), "no self-delivery");
        assert_eq!(fabric.counters().snapshot().delivered, 2);
    }

    #[tokio::test]
    async fn link_dst_filters_lan_unicast() {
        let (net, r0, r1, h) = lan_pair();
        let r1_addr = net.routers[r1.0 as usize].ifaces[0].addr;
        let (fabric, mut rxs) = Fabric::new(net);
        let t = Transmit { iface: IfIndex(0), link_dst: Some(r1_addr), frame: frame(&[9]) };
        fabric.dispatch(Entity::Router(r0), &t);
        assert!(rxs.get_mut(&Entity::Router(r1)).unwrap().try_recv().is_ok());
        assert!(rxs.get_mut(&Entity::Host(h)).unwrap().try_recv().is_err(), "filtered");
    }

    #[tokio::test]
    async fn p2p_reaches_the_peer_iface() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        b.link(r0, r1, 1);
        let net = Arc::new(b.build());
        let (fabric, mut rxs) = Fabric::new(net);
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: frame(&[7]) };
        fabric.dispatch(Entity::Router(r0), &t);
        let got = rxs.get_mut(&Entity::Router(r1)).unwrap().try_recv().unwrap();
        assert_eq!(got.iface, IfIndex(0));
        assert_eq!(got.frame, vec![7]);
    }

    #[tokio::test]
    async fn unknown_iface_is_silently_dropped() {
        let (net, r0, ..) = lan_pair();
        let (fabric, _rxs) = Fabric::new(net);
        let t = Transmit { iface: IfIndex(42), link_dst: None, frame: frame(&[0]) };
        fabric.dispatch(Entity::Router(r0), &t); // must not panic
        let _ = Addr::NULL;
    }

    /// LAN fan-out shares one allocation across recipients instead of
    /// copying the frame per inbox.
    #[tokio::test]
    async fn fanout_shares_the_frame_allocation() {
        let (net, r0, r1, h) = lan_pair();
        let (fabric, mut rxs) = Fabric::new(net);
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: frame(&[5; 64]) };
        fabric.dispatch(Entity::Router(r0), &t);
        let a = rxs.get_mut(&Entity::Router(r1)).unwrap().try_recv().unwrap();
        let b = rxs.get_mut(&Entity::Host(h)).unwrap().try_recv().unwrap();
        assert!(a.frame.shares_allocation_with(&t.frame), "handle, not copy");
        assert!(b.frame.shares_allocation_with(&t.frame), "handle, not copy");
    }

    /// Every frame class the live plane carries steers to the shard
    /// that owns its group — the same `shard_of` the engines use — by
    /// peeking at wire bytes only.
    #[test]
    fn steering_matches_group_ownership() {
        use cbt_wire::{ipv4::build_datagram, ControlMessage, DataPacket, JoinSubcode, UdpHeader};
        let g = GroupId::numbered(9);
        let own = Steer::One(shard_of(g, 4));
        let src = Addr::from_octets(10, 1, 0, 1);
        let dst = Addr::from_octets(172, 31, 0, 2);

        // Native-mode data: the destination address is the group.
        let native = DataPacket::new(src, g, 16, vec![0u8; 8]).encode();
        assert_eq!(steer_frame(&native, 4), own);
        assert_eq!(steer_frame(&native, 1), Steer::One(0), "unsharded short-circuits");

        // CBT control: group at bytes 8..12 of the §8 control header.
        let join = ControlMessage::JoinRequest {
            subcode: JoinSubcode::ActiveJoin,
            group: g,
            origin: src,
            target_core: dst,
            cores: vec![dst],
        };
        let udp = UdpHeader::wrap(CBT_PRIMARY_PORT, CBT_PRIMARY_PORT, &join.encode().unwrap());
        let ctl = build_datagram(src, dst, IpProto::Udp, 64, &udp);
        assert_eq!(steer_frame(&ctl, 4), own);

        // CBT-mode data: group at bytes 8..12 of the Fig. 7 header.
        let encap =
            cbt_wire::CbtDataPacket::encapsulate(&DataPacket::new(src, g, 16, vec![1u8]), dst);
        let cbt = encap.wrap_unicast(src, dst, None);
        assert_eq!(steer_frame(&cbt, 4), own);

        // Group-carrying IGMP: steers by the decoded group.
        let report = build_datagram(
            src,
            g.addr(),
            IpProto::Igmp,
            1,
            &IgmpMessage::Report { version: 2, group: g }.encode(),
        );
        assert_eq!(steer_frame(&report, 4), own);
    }

    /// General IGMP queries carry no group and must reach every
    /// shard's election replica; group-less or unparseable traffic
    /// belongs to shard 0.
    #[test]
    fn general_queries_fan_out_and_groupless_goes_to_shard_zero() {
        use cbt_wire::ipv4::build_datagram;
        let src = Addr::from_octets(10, 1, 0, 1);
        let query = build_datagram(
            src,
            cbt_wire::ALL_SYSTEMS,
            IpProto::Igmp,
            1,
            &IgmpMessage::Query { group: None, max_resp_tenths: 100 }.encode(),
        );
        assert_eq!(steer_frame(&query, 4), Steer::All);
        assert_eq!(steer_frame(&query, 1), Steer::One(0), "one shard needs no fan-out");

        // Unicast transit UDP (not a CBT port, unicast dst).
        let transit = build_datagram(
            src,
            Addr::from_octets(172, 31, 0, 9),
            IpProto::Udp,
            64,
            &cbt_wire::UdpHeader::wrap(9000, 9000, b"app"),
        );
        assert_eq!(steer_frame(&transit, 4), Steer::One(0));

        // Runt frames (shorter than an IP header) and garbage.
        assert_eq!(steer_frame(&[0u8; 7], 4), Steer::One(0));
        assert_eq!(steer_frame(&[0xFFu8; 64], 4), Steer::One(0));
    }

    /// Sharded delivery enqueues a group's frames on exactly one shard
    /// inbox and fans a general query out to all of them.
    #[tokio::test]
    async fn sharded_delivery_steers_to_the_owning_inbox() {
        use cbt_wire::{ipv4::build_datagram, DataPacket};
        let (net, r0, r1, _h) = lan_pair();
        let (fabric, mut rxs) = Fabric::with_shards(net, DataPlaneConfig::default(), 4);
        let g = GroupId::numbered(9);
        let own = match steer_frame(
            &DataPacket::new(Addr::from_octets(10, 1, 0, 1), g, 16, vec![0u8]).encode(),
            4,
        ) {
            Steer::One(k) => k,
            Steer::All => unreachable!("data frames steer to one shard"),
        };
        let data = DataPacket::new(Addr::from_octets(10, 1, 0, 1), g, 16, vec![0u8]).encode();
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: Bytes::from(data) };
        fabric.dispatch(Entity::Router(r0), &t);
        let shard_rxs = rxs.get_mut(&Entity::Router(r1)).unwrap();
        for (k, rx) in shard_rxs.iter_mut().enumerate() {
            assert_eq!(rx.try_recv().is_ok(), k == own, "only shard {own} owns group {g}");
        }

        let query = build_datagram(
            Addr::from_octets(10, 1, 0, 1),
            cbt_wire::ALL_SYSTEMS,
            IpProto::Igmp,
            1,
            &IgmpMessage::Query { group: None, max_resp_tenths: 100 }.encode(),
        );
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: Bytes::from(query) };
        fabric.dispatch(Entity::Router(r0), &t);
        let shard_rxs = rxs.get_mut(&Entity::Router(r1)).unwrap();
        for rx in shard_rxs.iter_mut() {
            assert!(rx.try_recv().is_ok(), "general query reaches every shard");
        }
    }

    /// A full bounded inbox sheds frames and counts the overflow.
    #[tokio::test]
    async fn overflow_is_dropped_and_counted() {
        let (net, r0, r1, _) = lan_pair();
        let r1_addr = net.routers[r1.0 as usize].ifaces[0].addr;
        let dp = DataPlaneConfig { inbox_capacity: 4 };
        let (fabric, mut rxs) = Fabric::with_config(net, dp);
        let t = Transmit { iface: IfIndex(0), link_dst: Some(r1_addr), frame: frame(&[1]) };
        for _ in 0..10 {
            fabric.dispatch(Entity::Router(r0), &t);
        }
        let stats = fabric.counters().snapshot();
        assert_eq!(stats.delivered, 4, "inbox capacity");
        assert_eq!(stats.dropped_overflow, 6, "excess counted, not queued");
        // The drops are attributed to the overwhelmed node, under the
        // right taxonomy bucket — not smeared over the fabric.
        let r1_drops = fabric.counters().node_drops(Entity::Router(r1));
        assert_eq!(r1_drops.get(DropReason::InboxOverflow), 6);
        assert_eq!(r1_drops.total(), 6, "nothing else counted against R1");
        assert_eq!(fabric.counters().node_drops(Entity::Router(r0)).total(), 0);
        // The receiver still drains the accepted frames.
        let rx = rxs.get_mut(&Entity::Router(r1)).unwrap();
        for _ in 0..4 {
            assert!(rx.try_recv().is_ok());
        }
        assert!(rx.try_recv().is_err());
    }
}
