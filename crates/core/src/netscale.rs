//! # Netscale adapter — real CBT engines as [`cbt_netsim::NsNode`]s
//!
//! Glue between the full protocol engine and the flat netscale world:
//!
//! * a deterministic **router-id ⇄ address** bijection (no address
//!   tables at 100k routers);
//! * [`FleetRib`] — shared routes toward the core set, answered from
//!   [`SpfTree`]s over the *same* [`CsrGraph`] the world delivers
//!   frames on, so "interface `k` toward the core" and "the world's
//!   port `k`" agree by construction;
//! * [`P2pNode`] — wraps a [`ShardedRouter`] (so `CBT_SHARDS` steering
//!   works unchanged at netscale), framing control messages as
//!   `[source address | wire encoding]` byte vectors.
//!
//! The adapter carries **no data plane**: netscale runs are control-
//! plane experiments, and any data or IGMP emission (impossible on a
//! bare p2p fleet anyway) is counted and dropped rather than silently
//! ignored.

use crate::engine::RouteLookup;
use crate::events::RouterAction;
use crate::shard::ShardedRouter;
use cbt_netsim::{NsNode, NsOutbox, SimTime};
use cbt_routing::Hop;
use cbt_topology::{CsrGraph, IfIndex, RouterId, SpfScratch, SpfTree};
use cbt_wire::{Addr, ControlMessage};
use std::sync::{Arc, RwLock};

/// The identity address of fleet router `i`: `10.x.y.z` with `i`
/// little-ended into the host octets. Covers fleets up to 2^24 nodes.
pub fn node_addr(i: u32) -> Addr {
    debug_assert!(i < (1 << 24), "fleet address space is 10.0.0.0/8");
    Addr::from_octets(10, (i >> 16) as u8, (i >> 8) as u8, i as u8)
}

/// Inverse of [`node_addr`].
pub fn addr_node(a: Addr) -> u32 {
    let [_, x, y, z] = a.octets();
    ((x as u32) << 16) | ((y as u32) << 8) | z as u32
}

/// Routing state toward the experiment's core set, shared by every
/// engine in the fleet (`Arc<RwLock<_>>`): one [`SpfTree`] per core
/// plus a copy of the [`CsrGraph`] the trees were last built or
/// repaired over, liveness masks included. A hop is the tree's next
/// node, the first live local interface toward it (CSR slot order —
/// the netscale world's port-number contract) and the tree distance.
///
/// Lookups resolve **core addresses only**: a netscale fleet routes
/// joins toward cores, and single-core groups (the protoscale setup)
/// never send a join anywhere else. Any other destination reports
/// unreachable.
///
/// After a liveness change the trees are patched in place via
/// [`FleetRib::apply_removals`] / [`FleetRib::apply_additions`]
/// (incremental SPF repair) and the graph copy takes the new masks.
/// Repairs happen between world event-loop steps under the write lock,
/// so every engine sees one consistent rib version per step;
/// [`FleetRib::version`] names it.
pub struct FleetRib {
    /// Core addresses, sorted for binary search.
    cores: Vec<Addr>,
    /// The SPF tree toward each core (parallel to `cores`).
    trees: Vec<SpfTree>,
    /// The graph as of the last build or repair.
    graph: CsrGraph,
    /// Bumped once per applied liveness event.
    version: u64,
}

/// `me`'s hop toward the root of `tree` over `graph`: the SPF
/// predecessor, through the first live slot toward it (parallel edges
/// resolve to the lowest slot deterministically). A mask applied after
/// the SPF ran (mid-flap window) can remove every slot toward the
/// predecessor — the node is unroutable until the rib is repaired, not
/// a panic.
fn hop_on(graph: &CsrGraph, tree: &SpfTree, me: u32) -> Option<Hop> {
    let next = tree.toward_root(me)?;
    let (slot, _, _) = graph.live_slots(me).find(|&(_, v, _)| v == next)?;
    Some(Hop {
        iface: IfIndex(slot - graph.slot_base(me)),
        router: RouterId(next),
        addr: node_addr(next),
        dist: tree.dist(me)?,
    })
}

impl FleetRib {
    /// Builds the rib from one SPF tree per core. `core_nodes` are the
    /// fleet node-ids of the cores; trees must be rooted at them (same
    /// order) and computed over `graph` — the exact graph the netscale
    /// world was wired from. The trees are retained (sorted to match
    /// the core order) so liveness events can patch routes in place
    /// instead of rebuilding from scratch.
    pub fn repairable(graph: &CsrGraph, core_nodes: &[u32], trees: Vec<SpfTree>) -> Self {
        assert_eq!(core_nodes.len(), trees.len(), "one SPF tree per core");
        let mut entries: Vec<(Addr, SpfTree)> = core_nodes
            .iter()
            .zip(trees)
            .map(|(&c, tree)| {
                assert_eq!(tree.root(), c, "tree rooted at its core");
                (node_addr(c), tree)
            })
            .collect();
        entries.sort_by_key(|&(a, _)| a);
        let (cores, trees) = entries.into_iter().unzip();
        FleetRib { cores, trees, graph: graph.clone(), version: 0 }
    }

    /// The rib version, bumped once per applied liveness event.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Patches every core tree for removed edges / downed nodes (the
    /// masks must already be applied to `graph`), takes `graph`'s masks
    /// and bumps the version. Returns total nodes re-settled across
    /// trees.
    pub fn apply_removals(
        &mut self,
        graph: &CsrGraph,
        removed_pairs: &[(u32, u32)],
        downed: &[u32],
        scratch: &mut SpfScratch,
    ) -> u64 {
        let mut touched = 0;
        for tree in &mut self.trees {
            touched += tree.repair_removals(graph, removed_pairs, downed, scratch);
        }
        self.graph.copy_masks_from(graph);
        self.version += 1;
        touched
    }

    /// Counterpart of [`FleetRib::apply_removals`] for restored edges
    /// and rebooted nodes.
    pub fn apply_additions(
        &mut self,
        graph: &CsrGraph,
        added_pairs: &[(u32, u32)],
        restored: &[u32],
        scratch: &mut SpfScratch,
    ) -> u64 {
        let mut touched = 0;
        for tree in &mut self.trees {
            touched += tree.repair_additions(graph, added_pairs, restored, scratch);
        }
        self.graph.copy_masks_from(graph);
        self.version += 1;
        touched
    }

    /// Hard-asserts every repaired tree, and every hop the rib answers,
    /// equals a from-scratch SPF over the graph's current masks — the
    /// repair path's bit-identity contract, checked after each fault
    /// event in the soak harness.
    pub fn assert_matches_full_spf(&self, graph: &CsrGraph, scratch: &mut SpfScratch) {
        for tree in &self.trees {
            let core = tree.root();
            let fresh = SpfTree::full(graph, core, scratch);
            for u in 0..graph.node_count() as u32 {
                assert_eq!(tree.dist(u), fresh.dist(u), "repaired dist, node {u} core {core}");
                assert_eq!(
                    tree.toward_root(u),
                    fresh.toward_root(u),
                    "repaired pred, node {u} core {core}"
                );
                assert_eq!(
                    hop_on(&self.graph, tree, u),
                    hop_on(graph, &fresh, u),
                    "repaired hop, node {u} core {core}"
                );
            }
        }
    }

    /// Next hop from `me` toward core `dst`, if routable.
    fn hop(&self, me: u32, dst: Addr) -> Option<Hop> {
        let k = self.cores.binary_search(&dst).ok()?;
        hop_on(&self.graph, &self.trees[k], me)
    }
}

/// The fleet-wide shared rib handle. Experiments repair it under the
/// write lock between world event-loop steps; engines read through
/// [`FleetRoutes`]. Single-threaded stepping means the lock is never
/// contended — it buys the mutate-while-shared shape, not parallelism.
pub type SharedFleetRib = Arc<RwLock<FleetRib>>;

/// One engine's view of the shared [`FleetRib`].
pub struct FleetRoutes {
    rib: SharedFleetRib,
    me: u32,
}

impl FleetRoutes {
    /// Route handle for fleet node `me`.
    pub fn new(rib: SharedFleetRib, me: u32) -> Self {
        FleetRoutes { rib, me }
    }
}

impl RouteLookup for FleetRoutes {
    fn hop_toward(&self, dst: Addr) -> Option<Hop> {
        self.rib.read().expect("rib lock poisoned").hop(self.me, dst)
    }
}

/// A real CBT router living in a [`cbt_netsim::NetscaleWorld`] slot.
///
/// Frames are `[4-byte source address, big-endian | control wire
/// encoding]`. Undecodable frames are counted and dropped — the fleet
/// carries no faults by default, so a nonzero count is a bug.
pub struct P2pNode {
    /// The sharded engine front (1 shard unless `CBT_SHARDS` says
    /// otherwise — determinism runs steer the same traffic across 2).
    pub router: ShardedRouter,
    /// Emissions a bare p2p fleet cannot carry (IGMP, data-plane).
    pub dropped_non_control: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Control messages lost because `encode_into` failed. A silent
    /// discard here once cost every downstream retransmission its
    /// trigger — the clean-wire gates assert this stays zero.
    pub encode_errors: u64,
    /// Wire-encoding scratch (`encode_into` replaces its contents, so
    /// the source prefix is copied in afterwards).
    scratch: Vec<u8>,
}

impl P2pNode {
    /// Wraps a booted sharded engine.
    pub fn new(router: ShardedRouter) -> Self {
        P2pNode {
            router,
            dropped_non_control: 0,
            decode_errors: 0,
            encode_errors: 0,
            scratch: Vec::new(),
        }
    }

    /// Replaces the engine after a §6.2 crash/restart: the new router
    /// comes up with empty protocol state while the adapter's loss
    /// counters survive (they diagnose the slot, not the incarnation).
    pub fn restart(&mut self, router: ShardedRouter) {
        self.router = router;
    }

    /// Converts engine actions into netscale frames. Public so
    /// experiment drivers injecting membership through
    /// `NetscaleWorld::with_node` can ship the resulting actions.
    pub fn deliver(&mut self, actions: Vec<RouterAction>, out: &mut NsOutbox) {
        let src = self.router.id_addr().octets();
        for a in actions {
            match a {
                RouterAction::SendControl { iface, dst: _, msg } => {
                    if msg.encode_into(&mut self.scratch).is_ok() {
                        let mut frame = Vec::with_capacity(4 + self.scratch.len());
                        frame.extend_from_slice(&src);
                        frame.extend_from_slice(&self.scratch);
                        out.send(iface.0, frame);
                    } else {
                        self.encode_errors += 1;
                    }
                }
                _ => self.dropped_non_control += 1,
            }
        }
    }
}

impl NsNode for P2pNode {
    fn on_frame(&mut self, now: SimTime, iface: u32, frame: &[u8], out: &mut NsOutbox) {
        if frame.len() < 4 {
            self.decode_errors += 1;
            return;
        }
        let src = Addr::from_octets(frame[0], frame[1], frame[2], frame[3]);
        let Ok(msg) = ControlMessage::decode(&frame[4..]) else {
            self.decode_errors += 1;
            return;
        };
        let act = self.router.handle_control(now, IfIndex(iface), src, msg);
        self.deliver(act, out);
    }

    fn on_timer(&mut self, now: SimTime, out: &mut NsOutbox) {
        let act = self.router.on_timer(now);
        self.deliver(act, out);
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.router.next_wakeup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbt_topology::SpfScratch;

    #[test]
    fn addressing_round_trips() {
        for i in [0u32, 1, 255, 256, 65_535, 99_967, (1 << 24) - 1] {
            assert_eq!(addr_node(node_addr(i)), i);
        }
        assert_eq!(node_addr(0), Addr::from_octets(10, 0, 0, 0));
        assert_eq!(node_addr(0x01_02_03), Addr::from_octets(10, 1, 2, 3));
    }

    #[test]
    fn fleet_rib_routes_toward_the_core_in_slot_order() {
        // 0 — 1 — 2 line, core at 0.
        let edges = vec![(0, 1, 1), (1, 2, 1)];
        let (g, _) = CsrGraph::from_edges(3, &edges);
        let mut scratch = SpfScratch::new();
        let tree = SpfTree::full(&g, 0, &mut scratch);
        let rib = FleetRib::repairable(&g, &[0], vec![tree]);

        let h = rib.hop(2, node_addr(0)).expect("reachable");
        assert_eq!(h.router, RouterId(1));
        assert_eq!(h.addr, node_addr(1));
        assert_eq!(h.iface, IfIndex(0), "node 2's only slot points at 1");
        assert_eq!(h.dist, 2);

        let h = rib.hop(1, node_addr(0)).expect("reachable");
        assert_eq!(h.router, RouterId(0));
        assert_eq!(h.iface, IfIndex(0), "slot toward 0 precedes slot toward 2");

        assert!(rib.hop(0, node_addr(0)).is_none(), "the core has no upstream");
        assert!(rib.hop(1, node_addr(2)).is_none(), "non-core lookups are refused");
    }

    #[test]
    fn rib_build_survives_a_slot_masked_after_the_spf_ran() {
        // 0 — 1 — 2 line, core at 0. The 1↔2 edge is masked *between*
        // the SPF build and the rib build — the mid-flap window. This
        // used to panic ("SPF predecessor is a live neighbour"); node 2
        // must instead come out unreachable until the rib is repaired.
        let edges = vec![(0, 1, 1), (1, 2, 1)];
        let (mut g, pairs) = CsrGraph::from_edges(3, &edges);
        let mut scratch = SpfScratch::new();
        let tree = SpfTree::full(&g, 0, &mut scratch);
        g.set_slot_live(pairs[1][0], false);
        g.set_slot_live(pairs[1][1], false);
        let rib = FleetRib::repairable(&g, &[0], vec![tree]);
        assert!(rib.hop(2, node_addr(0)).is_none(), "stranded, not panicking");
        assert!(rib.hop(1, node_addr(0)).is_some(), "unaffected nodes still route");
    }

    #[test]
    fn repairable_rib_reroutes_around_a_flap_and_back() {
        // A square: 0 — 1 — 3 and 0 — 2 — 3, core at 0. Node 3 prefers
        // the cheaper path via 1 until that edge flaps.
        let edges = vec![(0, 1, 1), (0, 2, 5), (1, 3, 1), (2, 3, 5)];
        let (mut g, pairs) = CsrGraph::from_edges(4, &edges);
        let mut scratch = SpfScratch::new();
        let tree = SpfTree::full(&g, 0, &mut scratch);
        let mut rib = FleetRib::repairable(&g, &[0], vec![tree]);
        assert_eq!(rib.version(), 0);
        assert_eq!(rib.hop(3, node_addr(0)).unwrap().router, RouterId(1));

        // Flap 1↔3: mask the graph, repair, verify against scratch SPF.
        g.set_slot_live(pairs[2][0], false);
        g.set_slot_live(pairs[2][1], false);
        rib.apply_removals(&g, &[(1, 3)], &[], &mut scratch);
        assert_eq!(rib.version(), 1);
        rib.assert_matches_full_spf(&g, &mut scratch);
        let h = rib.hop(3, node_addr(0)).expect("rerouted");
        assert_eq!(h.router, RouterId(2), "detour via the expensive side");
        assert_eq!(h.dist, 10);

        // Restore and converge back to the cheap path.
        g.set_slot_live(pairs[2][0], true);
        g.set_slot_live(pairs[2][1], true);
        rib.apply_additions(&g, &[(1, 3)], &[], &mut scratch);
        assert_eq!(rib.version(), 2);
        rib.assert_matches_full_spf(&g, &mut scratch);
        assert_eq!(rib.hop(3, node_addr(0)).unwrap().router, RouterId(1));
    }

    #[test]
    fn repairable_rib_handles_a_crashed_core_side_node() {
        // 0 — 1 — 2 line, core at 0; crash node 1 and the tail is
        // unreachable, restore it and routes come back.
        let edges = vec![(0, 1, 1), (1, 2, 1)];
        let (mut g, _) = CsrGraph::from_edges(3, &edges);
        let mut scratch = SpfScratch::new();
        let tree = SpfTree::full(&g, 0, &mut scratch);
        let mut rib = FleetRib::repairable(&g, &[0], vec![tree]);

        g.set_node_up(1, false);
        rib.apply_removals(&g, &[], &[1], &mut scratch);
        rib.assert_matches_full_spf(&g, &mut scratch);
        assert!(rib.hop(2, node_addr(0)).is_none(), "severed by the crash");
        assert!(rib.hop(1, node_addr(0)).is_none(), "the crashed node itself");

        g.set_node_up(1, true);
        rib.apply_additions(&g, &[], &[1], &mut scratch);
        rib.assert_matches_full_spf(&g, &mut scratch);
        assert_eq!(rib.hop(2, node_addr(0)).unwrap().router, RouterId(1));
    }
}
