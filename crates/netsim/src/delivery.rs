//! Who hears a frame: the link semantics of a [`NetworkSpec`],
//! resolved once.
//!
//! A LAN transmission reaches every other attachment of the segment —
//! or, when it carries a link-layer destination (a JOIN unicast to its
//! next hop, §2.5/§2.6), only the attachment owning that address. A
//! point-to-point link reaches its one peer whatever the destination.
//! Every frame carries the sender's own address on the medium as its
//! link-layer source.
//!
//! The simulator's [`World`](crate::World) and both live transports in
//! `cbt-node` (the channel fabric and the UDP fabric) resolve recipients
//! through one [`DeliveryPlan`], so a frame reaches the same receivers
//! whichever of them carries it. Failures, tracing and fault injection
//! stay with the transport.

use crate::node::Entity;
use crate::trace::Medium;
use cbt_topology::{Attachment, HostId, IfIndex, LanId, LinkId, NetworkSpec, RouterId};
use cbt_wire::Addr;

/// What one (entity, iface) transmits onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// A multi-access LAN.
    Lan {
        /// The segment.
        lan: LanId,
        /// The sender's address on the segment.
        link_src: Addr,
    },
    /// One end of a point-to-point link.
    Link {
        /// The link.
        link: LinkId,
        /// The router at the other end.
        peer: RouterId,
        /// The peer's interface on the link (`None` only in a spec
        /// whose peer lacks its end of the link).
        peer_iface: Option<IfIndex>,
        /// The sender's address on the link.
        link_src: Addr,
    },
}

impl Hop {
    /// The medium the frame crosses.
    pub fn medium(&self) -> Medium {
        match *self {
            Hop::Lan { lan, .. } => Medium::Lan(lan),
            Hop::Link { link, .. } => Medium::Link(link),
        }
    }

    /// The link-layer source address every recipient sees.
    pub fn link_src(&self) -> Addr {
        match *self {
            Hop::Lan { link_src, .. } | Hop::Link { link_src, .. } => link_src,
        }
    }
}

/// One attachment of a LAN: who receives, on which interface, at which
/// link-layer address.
#[derive(Debug, Clone, Copy)]
struct Attached {
    entity: Entity,
    iface: IfIndex,
    addr: Addr,
}

/// The delivery rules of one network, built once from its
/// [`NetworkSpec`]. Entities are numbered routers first, then hosts
/// ([`DeliveryPlan::slot`]).
#[derive(Debug, Clone)]
pub struct DeliveryPlan {
    /// Indexed by `LanId`: everyone attached, in attach order.
    lans: Vec<Vec<Attached>>,
    /// Indexed by `RouterId`, then `IfIndex`.
    ifaces: Vec<Vec<Hop>>,
    /// Indexed by `HostId`: the host's one interface.
    hosts: Vec<Hop>,
}

impl DeliveryPlan {
    /// Resolves every LAN's attachments and every interface's medium.
    pub fn new(spec: &NetworkSpec) -> Self {
        let ifaces = spec
            .routers
            .iter()
            .map(|r| {
                r.ifaces
                    .iter()
                    .map(|ifspec| match ifspec.attachment {
                        Attachment::Lan(lan) => Hop::Lan { lan, link_src: ifspec.addr },
                        Attachment::Link { link, peer } => {
                            let peer_iface = spec.routers[peer.0 as usize]
                                .ifaces
                                .iter()
                                .position(|pi| {
                                    matches!(pi.attachment,
                                        Attachment::Link { link: l, .. } if l == link)
                                })
                                .map(|p| IfIndex(p as u32));
                            Hop::Link { link, peer, peer_iface, link_src: ifspec.addr }
                        }
                    })
                    .collect()
            })
            .collect();

        let lans = spec
            .lans
            .iter()
            .enumerate()
            .map(|(li, lan)| {
                let lan_id = LanId(li as u32);
                let routers = lan.routers.iter().filter_map(|&r| {
                    let (iface, ifspec) = spec.routers[r.0 as usize].iface_on_lan(lan_id)?;
                    Some(Attached { entity: Entity::Router(r), iface, addr: ifspec.addr })
                });
                let hosts = lan.hosts.iter().map(|&h| Attached {
                    entity: Entity::Host(h),
                    iface: IfIndex(0),
                    addr: spec.hosts[h.0 as usize].addr,
                });
                routers.chain(hosts).collect()
            })
            .collect();

        let hosts = spec.hosts.iter().map(|h| Hop::Lan { lan: h.lan, link_src: h.addr }).collect();

        DeliveryPlan { lans, ifaces, hosts }
    }

    /// What `from` transmits onto through `iface`; `None` when it has
    /// no such interface (hosts have only interface 0), which a
    /// transport counts as [`cbt_obs::DropReason::NoFibEntry`].
    pub fn hop(&self, from: Entity, iface: IfIndex) -> Option<Hop> {
        match from {
            Entity::Router(r) => self.ifaces.get(r.0 as usize)?.get(iface.0 as usize).copied(),
            Entity::Host(h) if iface == IfIndex(0) => self.hosts.get(h.0 as usize).copied(),
            Entity::Host(_) => None,
        }
    }

    /// Who receives a frame `from` sends onto `hop`, and on which of
    /// their interfaces. On a LAN the sender never hears itself and a
    /// `link_dst` keeps only the attachment owning that address; a
    /// link ignores `link_dst`.
    pub fn receivers(
        &self,
        from: Entity,
        hop: Hop,
        link_dst: Option<Addr>,
    ) -> impl Iterator<Item = (Entity, IfIndex)> + '_ {
        let (lan, peer): (&[Attached], _) = match hop {
            Hop::Lan { lan, .. } => (&self.lans[lan.0 as usize], None),
            Hop::Link { peer, peer_iface, .. } => {
                (&[], peer_iface.map(|i| (Entity::Router(peer), i)))
            }
        };
        lan.iter()
            .filter(move |a| a.entity != from && link_dst.is_none_or(|d| d == a.addr))
            .map(|a| (a.entity, a.iface))
            .chain(peer)
    }

    /// Every entity, in slot order: routers first, then hosts.
    pub fn entities(&self) -> impl Iterator<Item = Entity> + '_ {
        let routers = (0..self.ifaces.len()).map(|i| Entity::Router(RouterId(i as u32)));
        routers.chain((0..self.hosts.len()).map(|i| Entity::Host(HostId(i as u32))))
    }

    /// Dense index of `e`: routers at `[0, routers)`, hosts after. An
    /// entity outside the spec maps past the end.
    pub fn slot(&self, e: Entity) -> usize {
        match e {
            Entity::Router(r) => r.0 as usize,
            Entity::Host(h) => self.ifaces.len() + h.0 as usize,
        }
    }

    /// Inverse of [`DeliveryPlan::slot`].
    pub fn entity_at(&self, slot: usize) -> Entity {
        match slot.checked_sub(self.ifaces.len()) {
            None => Entity::Router(RouterId(slot as u32)),
            Some(h) => Entity::Host(HostId(h as u32)),
        }
    }
}
