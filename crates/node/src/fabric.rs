//! The in-process frame fabric: who receives what a node transmits.
//!
//! Resolves recipients through the same [`DeliveryPlan`] as
//! `cbt_netsim::World` (LAN broadcast with link-layer unicast
//! filtering, p2p peer delivery) but pushes frames into per-entity
//! tokio mpsc channels instead of an event queue. The receive side —
//! shard steering, bounded enqueue and per-node counting — is
//! `enqueue`, shared with the UDP transport's pumps.
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
use cbt_netsim::{Bytes, DeliveryPlan, Entity, Transmit};
use cbt_obs::{AtomicDropCounters, DropCounters, DropReason};
use cbt_topology::{IfIndex, NetworkSpec};
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

/// Bounded inbox capacity per node the live deployment uses; beyond it
/// frames are dropped and counted as [`DropReason::InboxOverflow`].
pub(crate) const INBOX_CAPACITY: usize = 2048;

/// Cumulative counters of one live transport — the channel [`Fabric`]
/// or the [`UdpFabric`](crate::udp::UdpFabric) — shared by every sender
/// and receive pump. Every discard is tallied **per node** under the
/// shared [`DropReason`] taxonomy, so a single misbehaving node is
/// attributable: a full inbox ([`DropReason::InboxOverflow`]) and a
/// datagram shorter than the UDP preamble ([`DropReason::DecodeError`])
/// count against the receiver; a transmit on an interface the sender
/// lacks ([`DropReason::NoFibEntry`]) counts against the sender, as in
/// the simulator.
pub struct TransportCounters {
    delivered: AtomicU64,
    node_drops: HashMap<Entity, AtomicDropCounters>,
}

/// A point-in-time snapshot of [`TransportCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames enqueued into node inboxes.
    pub delivered: u64,
    /// Every discard, summed over all nodes, by reason.
    pub drops: DropCounters,
}

impl TransportCounters {
    /// Builds the counter set with one taxonomy row per entity.
    pub(crate) fn new(plan: &DeliveryPlan) -> Self {
        TransportCounters {
            delivered: AtomicU64::new(0),
            node_drops: plan.entities().map(|e| (e, AtomicDropCounters::default())).collect(),
        }
    }
    pub(crate) fn count_drop(&self, e: Entity, why: DropReason) {
        if let Some(d) = self.node_drops.get(&e) {
            d.bump(why);
        }
    }
    /// One node's transport-level drop taxonomy.
    pub fn node_drops(&self, e: Entity) -> DropCounters {
        self.node_drops.get(&e).map(|d| d.snapshot()).unwrap_or_default()
    }
    /// Snapshots the counters.
    pub fn snapshot(&self) -> TransportStats {
        let mut drops = DropCounters::default();
        for d in self.node_drops.values() {
            drops.merge(&d.snapshot());
        }
        TransportStats { delivered: self.delivered.load(Ordering::Relaxed), drops }
    }
}

/// One entity's bounded inboxes: one per shard for a router, one for a
/// host.
pub(crate) fn inboxes(
    e: Entity,
    shards: usize,
    capacity: usize,
) -> (Vec<mpsc::Sender<RxFrame>>, Vec<mpsc::Receiver<RxFrame>>) {
    let n = match e {
        Entity::Router(_) => shards.max(1),
        Entity::Host(_) => 1,
    };
    (0..n).map(|_| mpsc::channel(capacity.max(1))).unzip()
}

/// Hands one received frame to `to`'s inboxes: the receive path of both
/// transports. A sharded router's frame goes to the shard owning its
/// group ([`steer_frame`]; a general query to every shard), and a
/// one-inbox entity skips the peek. Each enqueue is a bounded
/// `try_send`: a full inbox drops the frame and counts it against `to`.
/// Returns `false` once every inbox of `to` is closed.
pub(crate) fn enqueue(
    txs: &[mpsc::Sender<RxFrame>],
    to: Entity,
    rx: RxFrame,
    counters: &TransportCounters,
) -> bool {
    let mut closed = false;
    let mut send = |tx: &mpsc::Sender<RxFrame>, rx: RxFrame| match tx.try_send(rx) {
        Ok(()) => {
            counters.delivered.fetch_add(1, Ordering::Relaxed);
        }
        Err(mpsc::error::TrySendError::Full(_)) => {
            counters.count_drop(to, DropReason::InboxOverflow)
        }
        Err(mpsc::error::TrySendError::Closed(_)) => closed = true,
    };
    let steer = if txs.len() == 1 { Steer::One(0) } else { steer_frame(&rx.frame, txs.len()) };
    match steer {
        Steer::One(k) => send(&txs[k], rx),
        Steer::All => {
            for tx in txs {
                send(tx, rx.clone());
            }
        }
    }
    !closed || txs.iter().any(|tx| !tx.is_closed())
}

/// Shared dispatch fabric.
///
/// With sharding enabled (`shards > 1` in [`Fabric::new`]) every router
/// has one bounded inbox **per shard**; `enqueue` peeks at each frame
/// ([`steer_frame`]) and puts it on the owning shard's channel only —
/// no cross-shard locks, no shared queue.
pub struct Fabric {
    plan: DeliveryPlan,
    /// Indexed by [`DeliveryPlan::slot`]: each entity's inboxes.
    inboxes: Vec<Vec<mpsc::Sender<RxFrame>>>,
    counters: Arc<TransportCounters>,
}

impl Fabric {
    /// Builds the fabric with `shards` bounded inboxes of
    /// `inbox_capacity` frames per **router** (hosts keep one). Receive
    /// ends come back as a `Vec` per entity, index = shard, to hand to
    /// each shard's task.
    pub fn new(
        net: Arc<NetworkSpec>,
        shards: usize,
        inbox_capacity: usize,
    ) -> (Arc<Self>, HashMap<Entity, Vec<mpsc::Receiver<RxFrame>>>) {
        let plan = DeliveryPlan::new(&net);
        let mut txs = Vec::new();
        let mut rxs = HashMap::new();
        for e in plan.entities() {
            let (tx, rx) = inboxes(e, shards, inbox_capacity);
            txs.push(tx);
            rxs.insert(e, rx);
        }
        let counters = Arc::new(TransportCounters::new(&plan));
        (Arc::new(Fabric { plan, inboxes: txs, counters }), rxs)
    }

    /// Delivery counters (shared across all dispatches).
    pub fn counters(&self) -> &Arc<TransportCounters> {
        &self.counters
    }

    /// Dispatches one transmission from `from` to everyone it reaches.
    /// The frame is encoded exactly once (by the sender, into the
    /// `Transmit`); recipients share the allocation.
    pub fn dispatch(&self, from: Entity, t: &Transmit) {
        let Some(hop) = self.plan.hop(from, t.iface) else {
            self.counters.count_drop(from, DropReason::NoFibEntry);
            return;
        };
        for (to, iface) in self.plan.receivers(from, hop, t.link_dst) {
            let rx = RxFrame { iface, link_src: hop.link_src(), frame: t.frame.clone() };
            // A closed inbox means that node shut down; fine.
            enqueue(&self.inboxes[self.plan.slot(to)], to, rx, &self.counters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::{HostId, NetworkBuilder, RouterId};
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
        let (fabric, mut rxs) = Fabric::new(net, 1, INBOX_CAPACITY);
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: frame(&[1, 2, 3]) };
        fabric.dispatch(Entity::Router(r0), &t);
        assert!(rxs.get_mut(&Entity::Router(r1)).unwrap()[0].try_recv().is_ok());
        assert!(rxs.get_mut(&Entity::Host(h)).unwrap()[0].try_recv().is_ok());
        assert!(
            rxs.get_mut(&Entity::Router(r0)).unwrap()[0].try_recv().is_err(),
            "no self-delivery"
        );
        assert_eq!(fabric.counters().snapshot().delivered, 2);
    }

    #[tokio::test]
    async fn link_dst_filters_lan_unicast() {
        let (net, r0, r1, h) = lan_pair();
        let r1_addr = net.routers[r1.0 as usize].ifaces[0].addr;
        let (fabric, mut rxs) = Fabric::new(net, 1, INBOX_CAPACITY);
        let t = Transmit { iface: IfIndex(0), link_dst: Some(r1_addr), frame: frame(&[9]) };
        fabric.dispatch(Entity::Router(r0), &t);
        assert!(rxs.get_mut(&Entity::Router(r1)).unwrap()[0].try_recv().is_ok());
        assert!(rxs.get_mut(&Entity::Host(h)).unwrap()[0].try_recv().is_err(), "filtered");
    }

    #[tokio::test]
    async fn p2p_reaches_the_peer_iface() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        b.link(r0, r1, 1);
        let net = Arc::new(b.build());
        let (fabric, mut rxs) = Fabric::new(net, 1, INBOX_CAPACITY);
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: frame(&[7]) };
        fabric.dispatch(Entity::Router(r0), &t);
        let got = rxs.get_mut(&Entity::Router(r1)).unwrap()[0].try_recv().unwrap();
        assert_eq!(got.iface, IfIndex(0));
        assert_eq!(got.frame, vec![7]);
    }

    /// A transmit on an interface the sender lacks reaches nobody and
    /// is counted against the sender as `NoFibEntry`, as the simulator
    /// counts it. Hosts have only interface 0.
    #[tokio::test]
    async fn unknown_iface_is_counted_as_no_fib_entry() {
        let (net, r0, r1, h) = lan_pair();
        let (fabric, mut rxs) = Fabric::new(net, 1, INBOX_CAPACITY);
        let t = Transmit { iface: IfIndex(42), link_dst: None, frame: frame(&[0]) };
        fabric.dispatch(Entity::Router(r0), &t);
        let t = Transmit { iface: IfIndex(1), link_dst: None, frame: frame(&[0]) };
        fabric.dispatch(Entity::Host(h), &t);
        for e in [Entity::Router(r0), Entity::Host(h)] {
            let drops = fabric.counters().node_drops(e);
            assert_eq!(drops.get(DropReason::NoFibEntry), 1, "{e}");
            assert_eq!(drops.total(), 1, "{e}: nothing else counted");
        }
        for e in [Entity::Router(r0), Entity::Router(r1), Entity::Host(h)] {
            assert!(rxs.get_mut(&e).unwrap()[0].try_recv().is_err(), "{e} hears nothing");
        }
        assert_eq!(fabric.counters().snapshot().delivered, 0);
    }

    /// LAN fan-out shares one allocation across recipients instead of
    /// copying the frame per inbox.
    #[tokio::test]
    async fn fanout_shares_the_frame_allocation() {
        let (net, r0, r1, h) = lan_pair();
        let (fabric, mut rxs) = Fabric::new(net, 1, INBOX_CAPACITY);
        let t = Transmit { iface: IfIndex(0), link_dst: None, frame: frame(&[5; 64]) };
        fabric.dispatch(Entity::Router(r0), &t);
        let a = rxs.get_mut(&Entity::Router(r1)).unwrap()[0].try_recv().unwrap();
        let b = rxs.get_mut(&Entity::Host(h)).unwrap()[0].try_recv().unwrap();
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
        let (fabric, mut rxs) = Fabric::new(net, 4, INBOX_CAPACITY);
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
        let (fabric, mut rxs) = Fabric::new(net, 1, 4);
        let t = Transmit { iface: IfIndex(0), link_dst: Some(r1_addr), frame: frame(&[1]) };
        for _ in 0..10 {
            fabric.dispatch(Entity::Router(r0), &t);
        }
        let stats = fabric.counters().snapshot();
        assert_eq!(stats.delivered, 4, "inbox capacity");
        assert_eq!(stats.drops.get(DropReason::InboxOverflow), 6, "excess counted, not queued");
        // The drops are attributed to the overwhelmed node, under the
        // right taxonomy bucket — not smeared over the fabric.
        let r1_drops = fabric.counters().node_drops(Entity::Router(r1));
        assert_eq!(r1_drops.get(DropReason::InboxOverflow), 6);
        assert_eq!(r1_drops.total(), 6, "nothing else counted against R1");
        assert_eq!(fabric.counters().node_drops(Entity::Router(r0)).total(), 0);
        // The receiver still drains the accepted frames.
        let rx = &mut rxs.get_mut(&Entity::Router(r1)).unwrap()[0];
        for _ in 0..4 {
            assert!(rx.try_recv().is_ok());
        }
        assert!(rx.try_recv().is_err());
    }
}
