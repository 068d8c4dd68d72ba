//! The one fleet driver behind Impl-5 (`protoscale`) and Impl-6
//! (`soak`): a transit-stub topology with a live compact-idle CBT
//! engine on every router, one shared repairable [`FleetRib`], the
//! membership ledger that turns session events into engine joins and
//! leaves, the liveness faults (link masks, crash, §6.2 restart), the
//! teardown-to-silence gate and the fleet-wide harvest.
//!
//! What differs between the experiments plugs in as a [`Layer`]: a
//! source of timed actions that [`Fleet::advance_to`] fires in order
//! while it steps the world. Protoscale's layer samples engine state;
//! soak's is its fault script and reattachment poll.

use super::netscale::XorShift;
use crate::membership::{MembershipEvent, MembershipParams, MembershipStream};
use crate::report::Report;
use cbt::{
    addr_node, node_addr, CbtConfig, FleetRib, FleetRoutes, P2pNode, ShardedRouter, SharedFleetRib,
};
use cbt_netsim::{NetscaleWorld, SimDuration, SimTime};
use cbt_obs::ObsSnapshot;
use cbt_topology::csr::{CsrGraph, SpfScratch, SpfTree};
use cbt_topology::generate::{self, TransitStubParams};
use cbt_topology::RouterId;
use cbt_wire::GroupId;
use serde_json::json;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock};

/// 8 × 16 × (1 + 6·131) = 100 736 routers: the full presets.
pub(crate) const FULL_TOPO: TransitStubParams = TransitStubParams {
    transit_domains: 8,
    transit_size: 16,
    stubs_per_transit_node: 6,
    stub_size: 131,
};

/// 4 × 8 × (1 + 4·77) = 9 888 routers: the quick presets.
pub(crate) const QUICK_TOPO: TransitStubParams = TransitStubParams {
    transit_domains: 4,
    transit_size: 8,
    stubs_per_transit_node: 4,
    stub_size: 77,
};

/// 2 × 4 × (1 + 3·40) = 968 routers: the ~1k gates.
pub(crate) const GATE_TOPO: TransitStubParams = TransitStubParams {
    transit_domains: 2,
    transit_size: 4,
    stubs_per_transit_node: 3,
    stub_size: 40,
};

/// 2 × 4 × (1 + 2·6) = 104 routers: the in-crate unit tests.
#[cfg(test)]
pub(crate) const TINY_TOPO: TransitStubParams = TransitStubParams {
    transit_domains: 2,
    transit_size: 4,
    stubs_per_transit_node: 2,
    stub_size: 6,
};

/// A source of timed actions interleaved with the world's own events.
pub(crate) trait Layer {
    /// Instant (µs) of the next action; `u64::MAX` when none is left.
    fn next_at(&self) -> u64;
    /// Fires the action due at [`Layer::next_at`]; the world has just
    /// been run to that instant.
    fn fire(&mut self, fleet: &mut Fleet);
}

/// No timed actions: the world just runs.
impl Layer for () {
    fn next_at(&self) -> u64 {
        u64::MAX
    }

    fn fire(&mut self, _: &mut Fleet) {}
}

/// Resident set size from `/proc/self/statm` (Linux, 4 KiB pages);
/// zero where unavailable. A benchmark metric, not a portability
/// contract.
pub(crate) fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|p| p.parse::<u64>().ok()))
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

/// One live engine for fleet router `r`. Interface `k` is its `k`-th
/// directed CSR slot — the same contract [`FleetRib`] encodes, so
/// routes and ports agree by construction.
fn engine(
    csr: &CsrGraph,
    rib: &SharedFleetRib,
    cfg: &CbtConfig,
    r: u32,
    now: SimTime,
) -> ShardedRouter {
    let degree = (csr.slot_base(r + 1) - csr.slot_base(r)) as usize;
    ShardedRouter::p2p(
        RouterId(r),
        node_addr(r),
        degree,
        cfg.clone(),
        || Box::new(FleetRoutes::new(Arc::clone(rib), r)),
        now,
    )
}

/// A live fleet plus everything a fault needs to mutate it
/// consistently: the CSR masks, the delivery plane, the repairable rib
/// and the membership ledger. Every fault keeps all four in lock-step
/// — that is the whole point of the type.
pub(crate) struct Fleet {
    pub(crate) world: NetscaleWorld<P2pNode>,
    pub(crate) csr: CsrGraph,
    pub(crate) pairs: Vec<[u32; 2]>,
    pub(crate) edge_list: Vec<(u32, u32, u32)>,
    /// `(min, max) endpoint pair → edge index` for chain walks.
    edge_index: HashMap<(u32, u32), usize>,
    pub(crate) rib: SharedFleetRib,
    pub(crate) scratch: SpfScratch,
    /// Engine configuration, reused for every §6.2 restart.
    cfg: CbtConfig,
    /// Core router of each group.
    pub(crate) cores: Vec<u32>,
    pub(crate) gids: Vec<GroupId>,
    pub(crate) n: u32,
    /// Routers `0..transit` are transit (cores); the rest are stubs.
    pub(crate) transit: u32,
    /// Per group: member router → live session multiplicity.
    counts: Vec<HashMap<u32, u32>>,
    /// `(group, router)` → leaves still owed for sessions a crash
    /// killed; the stream's eventual Leave events drain this instead
    /// of the ledger, keeping multiplicity exact across crashes.
    dead_leaves: HashMap<(u32, u32), u32>,
    /// Live sessions across all groups.
    pub(crate) concurrent: u64,
    /// Joins re-expressed for members whose engine gave up (the
    /// IGMP-membership analog a p2p fleet otherwise lacks).
    pub(crate) rejoin_kicks: u64,
    /// Total nodes re-settled by incremental rib repairs.
    pub(crate) repair_touched: u64,
    /// Wall time (ms) of building the engines.
    pub(crate) build_ms: f64,
    /// RSS just before and just after the engines were built.
    pub(crate) build_rss: [u64; 2],
}

impl Fleet {
    /// Builds the fleet: topology, CSR, one core per group spread over
    /// the transit routers, their SPF trees in a repairable rib, and a
    /// compact-idle engine on every router. `shards` overrides the
    /// engine shard count (`None` keeps the `CBT_SHARDS` default).
    pub(crate) fn new(
        topo: TransitStubParams,
        groups: usize,
        shards: Option<usize>,
        seed: u64,
    ) -> Fleet {
        let n = topo.total_nodes();
        let transit = topo.transit_nodes();
        let groups = groups.min(transit);
        let g = generate::transit_stub(topo, seed);
        let edge_list: Vec<(u32, u32, u32)> = g.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
        let (csr, pairs) = CsrGraph::from_edges(n, &edge_list);
        let cores: Vec<u32> = (0..groups).map(|gi| ((gi * transit) / groups) as u32).collect();
        let mut scratch = SpfScratch::new();
        let trees: Vec<SpfTree> =
            cores.iter().map(|&c| SpfTree::full(&csr, c, &mut scratch)).collect();
        let rib = Arc::new(RwLock::new(FleetRib::repairable(&csr, &cores, trees)));
        // Compressed (`fast`) timers so keepalive dynamics fit a
        // minutes-long horizon, compact idle state so an untouched
        // engine stays O(bytes), and a children cap above the largest
        // node degree (children are distinct neighbours on a p2p fleet).
        let mut cfg = CbtConfig::fast();
        cfg.compact_idle = true;
        cfg.max_children = 4096;
        if let Some(s) = shards {
            cfg.shards = s;
        }
        let rss0 = rss_bytes();
        let t0 = std::time::Instant::now();
        let nodes: Vec<P2pNode> = (0..n as u32)
            .map(|i| P2pNode::new(engine(&csr, &rib, &cfg, i, SimTime::ZERO)))
            .collect();
        // Edge weights are milliseconds of one-way latency.
        let world = NetscaleWorld::new(nodes, &csr, &pairs, &edge_list, |w| {
            SimDuration::from_millis(w.max(1) as u64)
        });
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let build_rss = [rss0, rss_bytes()];
        let mut edge_index = HashMap::with_capacity(edge_list.len());
        for (k, &(a, b, _)) in edge_list.iter().enumerate() {
            edge_index.entry((a.min(b), a.max(b))).or_insert(k);
        }
        Fleet {
            world,
            csr,
            pairs,
            edge_list,
            edge_index,
            rib,
            scratch,
            cfg,
            cores,
            // 1-based so the group address is never the unassigned
            // 239.1.0.0.
            gids: (0..groups).map(|gi| GroupId::numbered((gi + 1) as u16)).collect(),
            n: n as u32,
            transit: transit as u32,
            counts: vec![HashMap::new(); groups],
            dead_leaves: HashMap::new(),
            concurrent: 0,
            rejoin_kicks: 0,
            repair_touched: 0,
            build_ms,
            build_rss,
        }
    }

    /// Runs the world forward to `t_us`, firing every action of
    /// `layer` that falls at or before it, in order.
    pub(crate) fn advance_to(&mut self, t_us: u64, layer: &mut impl Layer) {
        loop {
            let next = layer.next_at();
            if next > t_us {
                break;
            }
            self.world.run_until(SimTime::from_micros(next));
            layer.fire(self);
        }
        self.world.run_until(SimTime::from_micros(t_us));
    }

    /// Deterministic member draw: `per_group` routers per group from
    /// the stub pool (transit routers host cores, not members), joined
    /// one per millisecond, groups in order — so both the sequential
    /// hop-by-hop path and the transient pending-join caching path get
    /// exercised — then two seconds to settle: a handful of link RTTs
    /// per join retrace, plus room for a pending-join retransmission.
    /// Returns the draw's generator for further draws.
    pub(crate) fn join_members(&mut self, per_group: usize, seed: u64) -> XorShift {
        let mut rng = XorShift(seed ^ 0x5ca1_ab1e);
        let stubs = (self.n - self.transit) as usize;
        let mut k = 0u64;
        for gi in 0..self.gids.len() {
            let mut mem: Vec<u32> =
                (0..per_group).map(|_| self.transit + rng.below(stubs) as u32).collect();
            mem.sort_unstable();
            mem.dedup();
            for m in mem {
                k += 1;
                self.world.run_until(SimTime::from_micros(k * 1000));
                self.member_join(gi, m);
            }
        }
        self.world.run_until(self.world.now() + SimDuration::from_secs(2));
        rng
    }

    /// Feeds a membership session stream over the stub routers
    /// through the ledger, firing `layer` in between. Membership
    /// transitions (0→1 joins, 1→0 leaves) hit the engines; everything
    /// after that — forwarding, acks, keepalives, quits — is the
    /// protocol's own doing. Returns the session arrivals, the
    /// arrivals lost to a downed router, and the most sessions live at
    /// once.
    pub(crate) fn drive(
        &mut self,
        mp: &MembershipParams,
        seed: u64,
        layer: &mut impl Layer,
    ) -> (u64, u64, u64) {
        let pool: Vec<u32> = (self.transit..self.n).collect();
        let (mut joins, mut lost_joins, mut peak_concurrent) = (0, 0, 0);
        for ev in MembershipStream::new(mp, pool, seed) {
            self.advance_to(ev.time_us(), layer);
            match ev {
                MembershipEvent::Join { group, router, .. } => {
                    joins += 1;
                    if self.member_join(group as usize, router) {
                        peak_concurrent = peak_concurrent.max(self.concurrent);
                    } else {
                        lost_joins += 1;
                    }
                }
                MembershipEvent::Leave { group, router, .. } => {
                    self.member_leave(group as usize, router);
                }
            }
        }
        (joins, lost_joins, peak_concurrent)
    }

    /// One session arrives. Returns false if the target router is
    /// down (the session is lost; its eventual Leave is pre-forgiven).
    pub(crate) fn member_join(&mut self, gi: usize, r: u32) -> bool {
        if !self.world.is_node_up(r) {
            *self.dead_leaves.entry((gi as u32, r)).or_default() += 1;
            return false;
        }
        self.concurrent += 1;
        let c = self.counts[gi].entry(r).or_default();
        *c += 1;
        if *c == 1 {
            self.local_join(gi, r);
        }
        true
    }

    /// One session ends. Leaves owed to crash-killed or never-started
    /// sessions are swallowed by the `dead_leaves` ledger.
    pub(crate) fn member_leave(&mut self, gi: usize, r: u32) {
        if let Some(k) = self.dead_leaves.get_mut(&(gi as u32, r)) {
            *k -= 1;
            if *k == 0 {
                self.dead_leaves.remove(&(gi as u32, r));
            }
            return;
        }
        let Some(c) = self.counts[gi].get_mut(&r) else { return };
        *c -= 1;
        self.concurrent -= 1;
        if *c == 0 {
            self.counts[gi].remove(&r);
            self.local_leave(gi, r);
        }
    }

    /// Re-expresses membership for a member whose engine has given up
    /// entirely (off-tree, nothing pending, nothing transient) — the
    /// p2p analog of IGMP re-announcing a group to the local router.
    /// Refuses while the engine still has its own recovery in flight.
    pub(crate) fn kick(&mut self, gi: usize, r: u32) -> bool {
        if !self.world.is_node_up(r) {
            return false;
        }
        let gid = self.gids[gi];
        let rt = &self.world.node(r).router;
        if rt.is_on_tree(gid) || rt.has_pending_join(gid) || rt.has_transient_state(gid) {
            return false;
        }
        self.local_join(gi, r);
        self.rejoin_kicks += 1;
        true
    }

    fn local_join(&mut self, gi: usize, r: u32) {
        let (gid, core) = (self.gids[gi], node_addr(self.cores[gi]));
        self.world.with_node(r, |nd, now, out| {
            nd.router.learn_cores(gid, &[core]);
            let act = nd.router.local_join(now, gid);
            nd.deliver(act, out);
        });
    }

    fn local_leave(&mut self, gi: usize, r: u32) {
        let gid = self.gids[gi];
        self.world.with_node(r, |nd, now, out| {
            let act = nd.router.local_leave(now, gid);
            nd.deliver(act, out);
        });
    }

    /// Group `gi`'s member routers, ascending.
    pub(crate) fn members(&self, gi: usize) -> Vec<u32> {
        let mut holders: Vec<u32> = self.counts[gi].keys().copied().collect();
        holders.sort_unstable();
        holders
    }

    /// Does router `r` hold a live session in group `gi`?
    pub(crate) fn is_member(&self, gi: usize, r: u32) -> bool {
        self.counts[gi].contains_key(&r)
    }

    /// Distinct `(group, router)` members.
    pub(crate) fn member_count(&self) -> usize {
        self.counts.iter().map(HashMap::len).sum()
    }

    /// Index of an edge between `a` and `b`, if the topology has one.
    pub(crate) fn edge_between(&self, a: u32, b: u32) -> Option<usize> {
        self.edge_index.get(&(a.min(b), a.max(b))).copied()
    }

    /// Is member router `r`'s engine chain rooted at group `gi`'s
    /// core over *live* links and routers? This is the driver's-eye
    /// "attached" predicate: FIB state alone is not enough, because a
    /// chain that crosses a downed link is still walking dead wire
    /// until §6.1 notices.
    pub(crate) fn rooted(&self, gi: usize, r: u32) -> bool {
        let gid = self.gids[gi];
        let core = self.cores[gi];
        let mut cur = r;
        for _ in 0..=self.n {
            if !self.world.is_node_up(cur) {
                return false;
            }
            let rt = &self.world.node(cur).router;
            if !rt.is_on_tree(gid) {
                return false;
            }
            if cur == core {
                return true;
            }
            let Some(p) = rt.parent_of(gid) else { return false };
            let p = addr_node(p);
            let Some(k) = self.edge_between(cur, p) else { return false };
            if !self.csr.slot_live(self.pairs[k][0]) {
                return false;
            }
            cur = p;
        }
        false
    }

    /// Every member pair not currently rooted, in deterministic
    /// order. `settled_only` skips members whose engine is mid-flow
    /// (pending join or transient state) — right for fault snapshots
    /// and stray sweeps, wrong for a convergence gate.
    pub(crate) fn detached_members(&self, settled_only: bool) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for gi in 0..self.counts.len() {
            for r in self.members(gi) {
                if self.rooted(gi, r) {
                    continue;
                }
                if settled_only {
                    let rt = &self.world.node(r).router;
                    let gid = self.gids[gi];
                    if rt.has_pending_join(gid) || rt.has_transient_state(gid) {
                        continue;
                    }
                }
                out.push((gi as u32, r));
            }
        }
        out
    }

    /// Deterministic member map for the invariant checker.
    pub(crate) fn members_map(&self) -> BTreeMap<GroupId, Vec<u32>> {
        (0..self.counts.len())
            .map(|gi| (self.gids[gi], self.members(gi)))
            .filter(|(_, v)| !v.is_empty())
            .collect()
    }

    /// Re-derives the rib after a liveness change already applied to
    /// the CSR masks, and hard-asserts the repair equals a
    /// from-scratch SPF.
    fn repair_rib(&mut self, up: bool, pairs: &[(u32, u32)], nodes: &[u32]) {
        let mut rib = self.rib.write().expect("rib lock poisoned");
        self.repair_touched += if up {
            rib.apply_additions(&self.csr, pairs, nodes, &mut self.scratch)
        } else {
            rib.apply_removals(&self.csr, pairs, nodes, &mut self.scratch)
        };
        rib.assert_matches_full_spf(&self.csr, &mut self.scratch);
    }

    /// Masks or restores edge `k` across all four layers: CSR slots,
    /// the delivery plane, the rib (incrementally repaired), and the
    /// repair-equals-full-SPF hard assert.
    pub(crate) fn set_edge(&mut self, k: usize, up: bool) {
        let (a, b, _) = self.edge_list[k];
        let pair = self.pairs[k];
        self.csr.set_slot_live(pair[0], up);
        self.csr.set_slot_live(pair[1], up);
        self.world.set_link_up(pair, up);
        self.repair_rib(up, &[(a, b)], &[]);
    }

    /// Crashes router `r`: the delivery plane drops its arrivals and
    /// wakeups, the rib routes around it, and every session it hosted
    /// dies with it (§6.2 — a restarted router has no memory).
    pub(crate) fn crash(&mut self, r: u32) {
        self.csr.set_node_up(r, false);
        self.world.crash_node(r);
        self.repair_rib(false, &[], &[r]);
        for gi in 0..self.counts.len() {
            if let Some(c) = self.counts[gi].remove(&r) {
                self.concurrent -= c as u64;
                *self.dead_leaves.entry((gi as u32, r)).or_default() += c;
            }
        }
    }

    /// §6.2 cold restart: a brand-new engine in the same slot, then
    /// the masks and rib are restored around it.
    pub(crate) fn restart(&mut self, r: u32) {
        self.csr.set_node_up(r, true);
        let router = engine(&self.csr, &self.rib, &self.cfg, r, self.world.now());
        self.world.restart_node(r, |nd| nd.restart(router));
        self.repair_rib(true, &[], &[r]);
    }

    /// Every member leaves with a single engine leave for its whole
    /// session multiplicity — one per millisecond, groups in order,
    /// `layer` firing in between — then the world runs `drain_us` more
    /// under the layer and on to quiescence (at most `quiesce` later).
    /// Hard-asserts fleet-wide silence: no tree state, no armed timer
    /// and a clean adapter on every router. Returns the instant of the
    /// last event.
    pub(crate) fn teardown_to_silence(
        &mut self,
        layer: &mut impl Layer,
        drain_us: u64,
        quiesce: SimDuration,
    ) -> SimTime {
        let mut t = self.world.now().micros();
        for gi in 0..self.gids.len() {
            for r in self.members(gi) {
                t += 1000;
                self.advance_to(t, layer);
                let c = self.counts[gi].remove(&r).expect("a member holds sessions");
                self.concurrent -= c as u64;
                self.local_leave(gi, r);
            }
        }
        let now = self.world.now().micros();
        self.advance_to(now + drain_us, layer);
        let silent = self.world.run_to_quiescence(self.world.now() + quiesce);
        for i in 0..self.n {
            let nd = self.world.node(i);
            assert_eq!(nd.router.fib_len(), 0, "router {i} kept tree state after teardown");
            assert!(nd.router.next_wakeup().is_none(), "router {i} kept a timer after teardown");
            assert_eq!(nd.decode_errors, 0, "router {i} saw undecodable frames");
            assert_eq!(nd.encode_errors, 0, "router {i} failed to encode a control message");
            assert_eq!(nd.dropped_non_control, 0, "router {i} emitted non-control traffic");
        }
        silent
    }

    /// Merges every engine's counters into one fleet snapshot and sums
    /// the adapter-level loss counters, hard-asserting a clean wire.
    /// The snapshot goes into `report`'s obs, with the adapter counters
    /// (which live outside the engine's drop taxonomy) mirrored in.
    pub(crate) fn harvest(&self, report: &mut Report) -> Harvest {
        let mut h = Harvest {
            obs: ObsSnapshot { router: "fleet".into(), ..Default::default() },
            decode_errors: 0,
            encode_errors: 0,
            dropped_non_control: 0,
            parent_failures: 0,
        };
        for i in 0..self.n {
            let nd = self.world.node(i);
            h.obs.merge(&nd.router.obs_snapshot());
            h.decode_errors += nd.decode_errors;
            h.encode_errors += nd.encode_errors;
            h.dropped_non_control += nd.dropped_non_control;
            h.parent_failures += nd.router.stats().parent_failures;
        }
        assert_eq!(h.decode_errors, 0, "liveness masks drop whole frames; nothing may arrive torn");
        assert_eq!(h.encode_errors, 0, "every control message must encode");
        assert_eq!(h.dropped_non_control, 0, "a p2p control fleet must emit control frames only");
        report.attach_obs(&h.obs);
        if let serde_json::Value::Object(m) = &mut report.obs {
            m.insert("decode_errors".into(), json!(h.decode_errors));
            m.insert("encode_errors".into(), json!(h.encode_errors));
            m.insert("dropped_non_control".into(), json!(h.dropped_non_control));
        }
        h
    }
}

/// The fleet's merged counters ([`Fleet::harvest`]).
pub(crate) struct Harvest {
    /// Every engine shard's snapshot, merged.
    pub(crate) obs: ObsSnapshot,
    pub(crate) decode_errors: u64,
    pub(crate) encode_errors: u64,
    pub(crate) dropped_non_control: u64,
    /// §6.1 parent failures detected, fleet-wide.
    pub(crate) parent_failures: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two groups on [`TINY_TOPO`], one engine shard.
    fn tiny() -> Fleet {
        Fleet::new(TINY_TOPO, 2, Some(1), 9393)
    }

    #[test]
    fn crashed_sessions_owe_leaves_that_never_reach_the_engine() {
        let mut fleet = tiny();
        // The first stub router holds two sessions: one engine join.
        let r = fleet.transit;
        assert!(fleet.member_join(0, r));
        assert!(fleet.member_join(0, r));
        fleet.advance_to(fleet.world.now().micros() + 2_000_000, &mut ());
        assert!(fleet.rooted(0, r));

        // The crash kills both sessions: their leaves become owed.
        fleet.crash(r);
        assert!(!fleet.is_member(0, r));
        assert_eq!(fleet.concurrent, 0);
        assert_eq!(fleet.dead_leaves.get(&(0, r)), Some(&2));
        // A session arriving while the router is down is lost, and its
        // leave is forgiven in advance.
        assert!(!fleet.member_join(0, r));
        assert_eq!(fleet.dead_leaves.get(&(0, r)), Some(&3));

        // After the restart a fresh session joins for real.
        fleet.restart(r);
        assert!(fleet.member_join(0, r));
        fleet.advance_to(fleet.world.now().micros() + 2_000_000, &mut ());
        assert!(fleet.rooted(0, r));

        // The stream's three owed leaves drain the debt without an
        // engine leave: no quit goes out and the member stays rooted.
        let frames = fleet.world.trace.frames;
        for _ in 0..3 {
            fleet.member_leave(0, r);
        }
        assert!(fleet.dead_leaves.is_empty());
        assert!(fleet.is_member(0, r) && fleet.rooted(0, r));
        assert_eq!(fleet.concurrent, 1);
        assert_eq!(fleet.world.trace.frames, frames, "an owed leave reached the engine");

        // The live session's own leave does reach it.
        fleet.member_leave(0, r);
        assert!(!fleet.is_member(0, r));
        assert!(fleet.world.trace.frames > frames, "the last leave sent no quit");
    }
}
