//! Per-router next-hop tables (the Routing Information Base).
//!
//! Scalable architecture (replacing the all-pairs table): the router
//! graph lives in an arena-backed CSR ([`cbt_topology::CsrGraph`])
//! with in-place failure masks, and per-destination shortest-path
//! trees are computed **on demand** and kept — CBT only ever asks for
//! routes toward cores and members, a tiny fraction of all n² pairs.
//! Failure deltas are applied **incrementally**: masked edges/nodes
//! detach only the affected subtrees of each kept tree and the
//! frontier is re-run, instead of recomputing the world. Every repair
//! is exact (bit-identical to a from-scratch SPF), so replay
//! determinism is preserved no matter when trees were computed or
//! repaired.

use crate::failure::FailureSet;
use cbt_topology::csr::{CsrGraph, SpfScratch, SpfTree};
use cbt_topology::{Attachment, IfIndex, LanId, NetworkSpec, RouterId};
use cbt_wire::Addr;
use std::collections::HashMap;
use std::sync::Mutex;

/// One resolved forwarding decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Interface to send out of.
    pub iface: IfIndex,
    /// The next-hop router.
    pub router: RouterId,
    /// The next-hop router's address on the shared medium — this is the
    /// unicast destination for one hop of a hop-by-hop join.
    pub addr: Addr,
    /// Remaining distance to the destination, next hop inclusive.
    pub dist: u64,
}

/// A converged routing table for every router in a network.
///
/// `Rib::compute` builds the failure-masked CSR router graph; SPF
/// trees materialise lazily per destination. Per-router overrides can
/// be layered on to model the transiently inconsistent tables of the
/// §6.3 loop scenario.
#[derive(Debug)]
pub struct Rib {
    /// Arena CSR of the router graph, failure state masked in place.
    graph: CsrGraph,
    /// Per-link endpoints and directed slot pairs (index = LinkId).
    link_ends: Vec<(u32, u32)>,
    link_slots: Vec<[u32; 2]>,
    /// Per-LAN clique pairs: endpoints plus their slot pair.
    lan_pairs: Vec<Vec<(u32, u32, [u32; 2])>>,
    /// The failure set currently masked into `graph`.
    applied: FailureSet,
    /// Manual next-hop overrides: (from, dst_router) → forced next router.
    overrides: HashMap<(RouterId, RouterId), RouterId>,
    /// Destination router id → its shortest-path tree, built on first
    /// lookup (interior mutability: route lookups are `&self` and
    /// shared across engine shards).
    trees: Mutex<HashMap<u32, SpfTree>>,
}

impl Rib {
    /// Builds the masked router graph for `net` with `failures`
    /// applied. Trees are computed on first use per destination.
    pub fn compute(net: &NetworkSpec, failures: &FailureSet) -> Self {
        let n = net.routers.len();
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        let mut link_ends = Vec::with_capacity(net.links.len());
        for l in &net.links {
            edges.push((l.a.0, l.b.0, l.cost));
            link_ends.push((l.a.0, l.b.0));
        }
        let mut lan_members: Vec<Vec<(u32, u32)>> = Vec::with_capacity(net.lans.len());
        for lan in &net.lans {
            let mut pairs = Vec::new();
            for (i, &a) in lan.routers.iter().enumerate() {
                for &b in &lan.routers[i + 1..] {
                    pairs.push((a.0, b.0));
                    edges.push((a.0, b.0, 1));
                }
            }
            lan_members.push(pairs);
        }
        let (graph, slot_pairs) = CsrGraph::from_edges(n, &edges);
        let link_slots: Vec<[u32; 2]> = slot_pairs[..link_ends.len()].to_vec();
        let mut cursor = link_ends.len();
        let lan_pairs: Vec<Vec<(u32, u32, [u32; 2])>> = lan_members
            .into_iter()
            .map(|pairs| {
                pairs
                    .into_iter()
                    .map(|(a, b)| {
                        let s = slot_pairs[cursor];
                        cursor += 1;
                        (a, b, s)
                    })
                    .collect()
            })
            .collect();
        let mut rib = Rib {
            graph,
            link_ends,
            link_slots,
            lan_pairs,
            applied: FailureSet::none(),
            overrides: HashMap::new(),
            trees: Mutex::new(HashMap::new()),
        };
        rib.mask_all(failures);
        rib.applied = failures.clone();
        rib
    }

    /// Convenience: converged tables with nothing failed.
    pub fn converged(net: &NetworkSpec) -> Self {
        Self::compute(net, &FailureSet::none())
    }

    /// Masks `failures` into the CSR graph (fresh-build path only —
    /// there are no trees to repair yet).
    fn mask_all(&mut self, failures: &FailureSet) {
        for l in failures.failed_links() {
            if let Some(&slots) = self.link_slots.get(l.0 as usize) {
                for s in slots {
                    self.graph.set_slot_live(s, false);
                }
            }
        }
        for lan in failures.failed_lans() {
            if let Some(pairs) = self.lan_pairs.get(lan.0 as usize) {
                for &(_, _, slots) in pairs {
                    for s in slots {
                        self.graph.set_slot_live(s, false);
                    }
                }
            }
        }
        for r in failures.failed_routers() {
            if (r.0 as usize) < self.graph.node_count() {
                self.graph.set_node_up(r.0, false);
            }
        }
    }

    /// Applies a new failure state **incrementally**: the delta
    /// against the currently-applied set is masked in place and every
    /// built tree is patched (removals first, then restorations —
    /// the order matters, since an improvement through a restored
    /// element must not be visible while detached subtrees reattach).
    /// Overrides that reference failed elements are cleared.
    pub fn apply_failures(&mut self, target: &FailureSet) {
        // Diff the target against the applied set. Removals are masked
        // immediately; additions are only *collected* here and unmasked
        // after the removal repairs — a subtree reattaching during the
        // removal phase must not route through a restored element whose
        // improvements haven't been propagated yet.
        let mut removed_pairs: Vec<(u32, u32)> = Vec::new();
        let mut downed: Vec<u32> = Vec::new();
        let mut added_pairs: Vec<(u32, u32)> = Vec::new();
        let mut added_slots: Vec<u32> = Vec::new();
        let mut restored: Vec<u32> = Vec::new();
        for (j, &slots) in self.link_slots.iter().enumerate() {
            let id = cbt_topology::LinkId(j as u32);
            let (was, now) = (self.applied.link_down(id), target.link_down(id));
            if was == now {
                continue;
            }
            let ends = self.link_ends[j];
            if now {
                for s in slots {
                    self.graph.set_slot_live(s, false);
                }
                removed_pairs.push(ends);
            } else {
                added_slots.extend(slots);
                added_pairs.push(ends);
            }
        }
        for (k, pairs) in self.lan_pairs.iter().enumerate() {
            let id = LanId(k as u32);
            let (was, now) = (self.applied.lan_down(id), target.lan_down(id));
            if was == now {
                continue;
            }
            for &(a, b, slots) in pairs {
                if now {
                    for s in slots {
                        self.graph.set_slot_live(s, false);
                    }
                    removed_pairs.push((a, b));
                } else {
                    added_slots.extend(slots);
                    added_pairs.push((a, b));
                }
            }
        }
        for r in 0..self.graph.node_count() as u32 {
            let id = RouterId(r);
            let (was, now) = (self.applied.router_down(id), target.router_down(id));
            if was == now {
                continue;
            }
            if now {
                self.graph.set_node_up(r, false);
                downed.push(r);
            } else {
                restored.push(r);
            }
        }
        // Phase 1: repair every built tree for the removals.
        let trees = self.trees.get_mut().expect("rib trees poisoned");
        let mut scratch = SpfScratch::new();
        if !removed_pairs.is_empty() || !downed.is_empty() {
            for tree in trees.values_mut() {
                tree.repair_removals(&self.graph, &removed_pairs, &downed, &mut scratch);
            }
        }
        // Phase 2: unmask the restorations, then propagate improvements.
        if !added_pairs.is_empty() || !restored.is_empty() {
            for &s in &added_slots {
                self.graph.set_slot_live(s, true);
            }
            for &r in &restored {
                self.graph.set_node_up(r, true);
            }
            for tree in trees.values_mut() {
                tree.repair_additions(&self.graph, &added_pairs, &restored, &mut scratch);
            }
        }
        self.applied = target.clone();
        // Drop overrides that reference failed elements: either
        // endpoint router down, or no usable adjacency from → via
        // remains (the overridden link/LAN failed).
        let graph = &self.graph;
        self.overrides.retain(|&(from, dst), &mut via| {
            graph.is_node_up(from.0)
                && graph.is_node_up(dst.0)
                && graph.is_node_up(via.0)
                && graph.live_neighbors(from.0).any(|(v, _)| v == via.0)
        });
    }

    /// Runs `f` against the tree rooted at `dst`, building it on
    /// first use.
    fn with_tree<R>(&self, dst: u32, f: impl FnOnce(&SpfTree) -> R) -> Option<R> {
        if dst as usize >= self.graph.node_count() {
            return None;
        }
        let mut trees = self.trees.lock().expect("rib trees poisoned");
        let tree = trees
            .entry(dst)
            .or_insert_with(|| SpfTree::full(&self.graph, dst, &mut SpfScratch::new()));
        Some(f(tree))
    }

    /// Forces `from`'s next hop toward `dst` to be `via`, regardless of
    /// SPF. `via` must be a physical neighbour for the result to be
    /// resolvable. This models stale/inconsistent tables (§6.3).
    pub fn set_override(&mut self, from: RouterId, dst: RouterId, via: RouterId) {
        self.overrides.insert((from, dst), via);
    }

    /// Clears one override.
    pub fn clear_override(&mut self, from: RouterId, dst: RouterId) {
        self.overrides.remove(&(from, dst));
    }

    /// The next router on `from`'s path toward router `dst`.
    ///
    /// Returns `None` when `dst` is unreachable or `from == dst`.
    pub fn next_router(&self, from: RouterId, dst: RouterId) -> Option<RouterId> {
        if from == dst {
            return None;
        }
        if let Some(&via) = self.overrides.get(&(from, dst)) {
            return Some(via);
        }
        self.with_tree(dst.0, |t| t.toward_root(from.0).map(RouterId))?
    }

    /// Distance (in routing metric) from `from` to router `dst`.
    pub fn dist(&self, from: RouterId, dst: RouterId) -> Option<u64> {
        self.with_tree(dst.0, |t| t.dist(from.0))?
    }

    /// Resolves `from`'s route toward `dst_addr` to a concrete [`Hop`]:
    /// which interface, which next-hop address.
    ///
    /// `dst_addr` may be any address owned by a router (identity or
    /// interface) or by a host (the route then leads to the host's LAN).
    pub fn route(&self, net: &NetworkSpec, from: RouterId, dst_addr: Addr) -> Option<Hop> {
        let dst_router = match net.owner_of(dst_addr)? {
            cbt_topology::network::Owner::Router(r) => r,
            cbt_topology::network::Owner::Host(h) => {
                // Route to the first attached (lowest-addressed) live
                // router of the host's LAN.
                let lan = net.hosts[h.0 as usize].lan;
                *net.lans[lan.0 as usize].routers.iter().find(|r| self.graph.is_node_up(r.0))?
            }
        };
        if dst_router == from {
            return None;
        }
        let next = self.next_router(from, dst_router)?;
        let dist = self.dist(from, dst_router)?;
        let (iface, addr) = resolve_adjacency(net, from, next)?;
        Some(Hop { iface, router: next, addr, dist })
    }
}

/// Finds the interface and next-hop address `from` uses to reach its
/// physical neighbour `next` (shared LAN or p2p link; lowest interface
/// index wins if several qualify).
fn resolve_adjacency(net: &NetworkSpec, from: RouterId, next: RouterId) -> Option<(IfIndex, Addr)> {
    let from_spec = &net.routers[from.0 as usize];
    for (idx, iface) in from_spec.ifaces.iter().enumerate() {
        match iface.attachment {
            Attachment::Link { peer, .. } if peer == next => {
                let peer_spec = &net.routers[next.0 as usize];
                let peer_iface = peer_spec.ifaces.iter().find(|pi| {
                    matches!(pi.attachment, Attachment::Link { peer: p, .. } if p == from)
                        && pi.subnet == iface.subnet
                })?;
                return Some((IfIndex(idx as u32), peer_iface.addr));
            }
            Attachment::Lan(lan) => {
                if let Some((_, peer_iface)) = lan_iface(net, next, lan) {
                    return Some((IfIndex(idx as u32), peer_iface));
                }
            }
            _ => {}
        }
    }
    None
}

fn lan_iface(net: &NetworkSpec, router: RouterId, lan: LanId) -> Option<(IfIndex, Addr)> {
    net.routers[router.0 as usize].iface_on_lan(lan).map(|(i, s)| (i, s.addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::{figure1, NetworkBuilder};

    #[test]
    fn figure1_join_paths() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        let r = |n: usize| f.router(n);
        // §2.5: R1 → R4 goes via R3.
        assert_eq!(rib.next_router(r(1), r(4)), Some(r(3)));
        assert_eq!(rib.next_router(r(3), r(4)), Some(r(4)));
        // §2.6: R6 → R4 goes via R2 (same-subnet next hop).
        assert_eq!(rib.next_router(r(6), r(4)), Some(r(2)));
        assert_eq!(rib.next_router(r(2), r(4)), Some(r(3)));
    }

    #[test]
    fn route_resolves_iface_and_addr() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        let core_addr = f.net.router_addr(f.router(4));
        let hop = rib.route(&f.net, f.router(1), core_addr).unwrap();
        assert_eq!(hop.router, f.router(3));
        // The hop address is R3's address on the R1–R3 /30.
        let r3 = &f.net.routers[f.router(3).0 as usize];
        assert!(r3.ifaces.iter().any(|i| i.addr == hop.addr));
        assert_eq!(hop.dist, 2);
    }

    #[test]
    fn route_over_shared_lan_targets_peer_lan_address() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        let hop = rib.route(&f.net, f.router(6), f.net.router_addr(f.router(4))).unwrap();
        assert_eq!(hop.router, f.router(2));
        let s4 = f.subnet(4);
        let (_, r2_on_s4) = f.net.routers[f.router(2).0 as usize].iface_on_lan(s4).unwrap();
        assert_eq!(hop.addr, r2_on_s4.addr, "next hop address is on the shared LAN");
    }

    #[test]
    fn self_route_is_none() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        assert_eq!(rib.next_router(f.router(4), f.router(4)), None);
        assert!(rib.route(&f.net, f.router(4), f.net.router_addr(f.router(4))).is_none());
    }

    #[test]
    fn link_failure_reroutes_or_disconnects() {
        // R0 —l0— R1 —l1— R2, plus spare path R0 —l2— R3 —l3— R2.
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let r3 = b.router("R3");
        let l0 = b.link(r0, r1, 1);
        b.link(r1, r2, 1);
        b.link(r0, r3, 1);
        b.link(r3, r2, 1);
        let net = b.build();

        let rib = Rib::converged(&net);
        assert_eq!(rib.next_router(r0, r2), Some(r1), "prefer via R1 (tie-break id)");

        let mut failures = FailureSet::none();
        failures.fail_link(l0);
        let rib = Rib::compute(&net, &failures);
        assert_eq!(rib.next_router(r0, r2), Some(r3), "reroute after failure");
        assert_eq!(rib.next_router(r0, r1), Some(r3), "R1 now two hops away");

        failures.fail_router(r3);
        let rib = Rib::compute(&net, &failures);
        assert_eq!(rib.next_router(r0, r2), None, "fully cut off");
    }

    #[test]
    fn lan_failure_disconnects_lan_only_paths() {
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let lan = b.lan("S0");
        b.attach(lan, r0);
        b.attach(lan, r1);
        let net = b.build();
        assert_eq!(Rib::converged(&net).next_router(r0, r1), Some(r1));
        let mut failures = FailureSet::none();
        failures.fail_lan(lan);
        assert_eq!(Rib::compute(&net, &failures).next_router(r0, r1), None);
    }

    #[test]
    fn overrides_shadow_spf() {
        let f = figure1();
        let mut rib = Rib::converged(&f.net);
        // Force R3 to (wrongly) believe R4 is reached via R1.
        rib.set_override(f.router(3), f.router(4), f.router(1));
        assert_eq!(rib.next_router(f.router(3), f.router(4)), Some(f.router(1)));
        rib.clear_override(f.router(3), f.router(4));
        assert_eq!(rib.next_router(f.router(3), f.router(4)), Some(f.router(4)));
    }

    #[test]
    fn route_to_host_address_reaches_its_lan() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        let host_g = f.net.host_addr(f.hosts.g); // on S10 behind R8
        let hop = rib.route(&f.net, f.router(4), host_g).unwrap();
        assert_eq!(hop.router, f.router(8));
    }

    #[test]
    fn unknown_address_routes_nowhere() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        assert!(rib.route(&f.net, f.router(1), Addr::from_octets(203, 0, 113, 1)).is_none());
    }

    /// Every (from, dst) next hop and distance of `a` must equal `b`'s.
    fn assert_tables_equal(net: &NetworkSpec, a: &Rib, b: &Rib, label: &str) {
        for from in 0..net.routers.len() as u32 {
            for dst in 0..net.routers.len() as u32 {
                let (from, dst) = (RouterId(from), RouterId(dst));
                assert_eq!(
                    a.next_router(from, dst),
                    b.next_router(from, dst),
                    "{label} {from:?}→{dst:?}"
                );
                assert_eq!(a.dist(from, dst), b.dist(from, dst), "{label} dist {from:?}→{dst:?}");
            }
        }
    }

    #[test]
    fn incremental_apply_equals_from_scratch() {
        let f = figure1();
        let mut inc = Rib::converged(&f.net);
        // Warm a few trees so repairs actually run.
        for dst in 0..f.net.routers.len() as u32 {
            let _ = inc.dist(RouterId(0), RouterId(dst));
        }
        let mut failures = FailureSet::none();
        failures.fail_link(cbt_topology::LinkId(0));
        failures.fail_router(f.router(7));
        inc.apply_failures(&failures);
        let n = f.net.routers.len();
        assert_eq!(inc.trees.lock().unwrap().len(), n, "warm trees are repaired, not dropped");
        let scratch = Rib::compute(&f.net, &failures);
        assert_tables_equal(&f.net, &inc, &scratch, "after failures");
        // Heal everything and fail a LAN in the same batch.
        let mut failures2 = FailureSet::none();
        failures2.fail_lan(f.subnet(4));
        inc.apply_failures(&failures2);
        let scratch2 = Rib::compute(&f.net, &failures2);
        assert_tables_equal(&f.net, &inc, &scratch2, "after heal + LAN fail");
    }

    #[test]
    fn apply_failures_clears_stale_overrides() {
        // R0 —l0— R1 —l1— R2, plus spare path R0 —l2— R3 —l3— R2.
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let r3 = b.router("R3");
        let l0 = b.link(r0, r1, 1);
        b.link(r1, r2, 1);
        b.link(r0, r3, 1);
        b.link(r3, r2, 1);
        let net = b.build();
        let mut rib = Rib::converged(&net);
        rib.set_override(r0, r2, r1); // rides link l0
        rib.set_override(r3, r2, r2); // independent of l0
        let mut failures = FailureSet::none();
        failures.fail_link(l0);
        rib.apply_failures(&failures);
        assert_eq!(
            rib.next_router(r0, r2),
            Some(r3),
            "override referencing the failed link was cleared"
        );
        assert_eq!(rib.next_router(r3, r2), Some(r2), "unrelated override survives");
        // A downed via-router also invalidates.
        let mut rib = Rib::converged(&net);
        rib.set_override(r0, r2, r1);
        let mut failures = FailureSet::none();
        failures.fail_router(r1);
        rib.apply_failures(&failures);
        assert_eq!(rib.next_router(r0, r2), Some(r3), "override through downed router cleared");
    }

    #[test]
    fn trees_are_computed_on_demand_not_eagerly() {
        let f = figure1();
        let rib = Rib::converged(&f.net);
        let built = |rib: &Rib| rib.trees.lock().unwrap().keys().copied().collect::<Vec<_>>();
        assert!(built(&rib).is_empty(), "construction computes nothing");
        let _ = rib.next_router(f.router(1), f.router(4));
        assert_eq!(built(&rib), [f.router(4).0], "one destination asked for, one tree built");
        let _ = rib.dist(f.router(2), f.router(4));
        assert_eq!(built(&rib), [f.router(4).0], "second lookup reuses the tree");
    }

    #[test]
    fn route_to_host_skips_a_failed_first_lan_router() {
        // LAN {R0, R1} with host H; R2 linked to both routers.
        let mut b = NetworkBuilder::new();
        let r0 = b.router("R0");
        let r1 = b.router("R1");
        let r2 = b.router("R2");
        let lan = b.lan("S0");
        b.attach(lan, r0);
        b.attach(lan, r1);
        let h = b.host("H", lan);
        b.link(r2, r0, 1);
        b.link(r2, r1, 1);
        let net = b.build();
        let host = net.host_addr(h);
        assert_eq!(Rib::converged(&net).route(&net, r2, host).unwrap().router, r0);
        let mut failures = FailureSet::none();
        failures.fail_router(r0);
        let rib = Rib::compute(&net, &failures);
        let hop = rib.route(&net, r2, host).expect("R1 still serves the LAN");
        assert_eq!(hop.router, r1);
        assert_eq!(Some(hop), rib.route(&net, r2, net.router_addr(r1)));
    }
}
