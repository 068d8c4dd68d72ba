//! The benchmark's fleet: a transit-stub graph, its shared
//! [`FleetRib`], one live compact-idle CBT engine per router in a
//! [`NetscaleWorld`], and the membership ledger the workloads drive.
//!
//! Built only from public constructors, the way `cbt-eval protoscale`
//! and `soak` build theirs, but single-threaded, small (9 888 routers)
//! and with every probe of engine state kept outside the timed calls.

use crate::alloc;
use crate::probe::{self, Node, TracedRoutes};
use cbt::explore::{check_netscale_invariants, Violation};
use cbt::{
    addr_node, node_addr, CbtConfig, FleetRib, FleetRoutes, P2pNode, RouteLookup, ShardedRouter,
    SharedFleetRib,
};
use cbt_netsim::{NetscaleWorld, SimDuration, SimTime};
use cbt_obs::{CtlKind, ObsSnapshot};
use cbt_topology::csr::{CsrGraph, SpfScratch, SpfTree};
use cbt_topology::generate::{self, TransitStubParams};
use cbt_topology::RouterId;
use cbt_wire::{Addr, GroupId};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// 4 × 8 transit routers, each with 4 stubs of 77: 9 888 engines, the
/// `protoscale --quick` shape, which fits one core.
pub const TOPO: TransitStubParams = TransitStubParams {
    transit_domains: 4,
    transit_size: 8,
    stubs_per_transit_node: 4,
    stub_size: 77,
};
/// Groups, one core each, spread over the transit routers.
pub const GROUPS: usize = 16;
/// The network is fixed; `--seed` draws the traffic and faults on it.
/// Link weights, and with them every simulated latency, differ from
/// one generated network to the next by more than a regression bound,
/// so comparing commits on one network keeps those figures steady.
const TOPOLOGY_SEED: u64 = 9393;

/// xorshift64* seeded through splitmix64, for the fault script.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)).max(1))
    }

    pub fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
    }
}

/// Engine configuration of every netscale fleet (as `protoscale`):
/// compressed timers, compact idle state, a children cap above any
/// node degree. One shard, whatever `CBT_SHARDS` says, so the figures
/// do not depend on the environment.
fn fleet_cfg() -> CbtConfig {
    let mut cfg = CbtConfig::fast();
    cfg.compact_idle = true;
    cfg.max_children = 4096;
    cfg.shards = 1;
    cfg
}

fn engine<const T: bool>(rib: &SharedFleetRib, i: u32, degree: usize, now: SimTime) -> P2pNode {
    let routes = || -> Box<dyn RouteLookup> {
        let r = FleetRoutes::new(Arc::clone(rib), i);
        if T {
            Box::new(TracedRoutes(r))
        } else {
            Box::new(r)
        }
    };
    P2pNode::new(ShardedRouter::p2p(RouterId(i), node_addr(i), degree, fleet_cfg(), routes, now))
}

/// Resident set size from `/proc/self/statm` (4 KiB pages), 0 where
/// unavailable.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|p| p.parse::<u64>().ok()))
        .map_or(0, |pages| pages * 4096)
}

/// Wall time and allocations inside the program while the timed
/// window is open. Only calls into the program are timed; the
/// benchmark's own bookkeeping and gates are not.
#[derive(Debug, Default)]
pub struct Clock {
    pub on: bool,
    pub wall_s: f64,
    pub allocs: u64,
}

/// Runs `f` — a call into the program — on the clock (when it is on)
/// and, traced, inside a span of kind `span`.
fn timed<const T: bool, R>(clock: &mut Clock, span: usize, f: impl FnOnce() -> R) -> R {
    if !clock.on {
        return probe::span_if::<T, _>(span, f);
    }
    let a0 = alloc::allocs();
    let t0 = Instant::now();
    let r = probe::span_if::<T, _>(span, f);
    clock.wall_s += t0.elapsed().as_secs_f64();
    clock.allocs += alloc::allocs() - a0;
    r
}

pub struct Fleet<const T: bool> {
    pub clock: Clock,
    pub world: NetscaleWorld<Node<T>>,
    csr: CsrGraph,
    pairs: Vec<[u32; 2]>,
    edges: Vec<(u32, u32, u32)>,
    /// `(min, max)` endpoints → edge index.
    edge_index: HashMap<(u32, u32), usize>,
    degree: Vec<usize>,
    pub rib: SharedFleetRib,
    scratch: SpfScratch,
    cores: Vec<u32>,
    core_addrs: Vec<Addr>,
    pub gids: Vec<GroupId>,
    pub n: u32,
    transit: u32,
    /// Per group: member router → live sessions. Ordered, so every
    /// walk over members is deterministic.
    pub members: Vec<BTreeMap<u32, u32>>,
    /// Joins abandoned by a leave (or a crash) before they completed.
    pub abandoned: u64,
    /// Membership re-expressed for members whose engine gave up.
    pub reexpressions: u64,
    /// `FleetRib::apply_*` calls and nodes they re-settled.
    pub repairs: u64,
    pub touched: u64,
    /// Wall seconds spent in the repaired-equals-full-SPF gate.
    pub spf_gate_s: f64,
    /// Rooted-walk memo: `(stamp << 1) | rooted` per (group, node).
    memo: Vec<u32>,
    stamp: u32,
    path: Vec<u32>,
}

/// What one fleet build measured.
pub struct Built<const T: bool> {
    pub fleet: Fleet<T>,
    /// RSS growth across the engine build alone.
    pub idle_rss_bytes: u64,
}

impl<const T: bool> Fleet<T> {
    /// Topology, CSR, SPF, rib and fleet. The rib keeps its SPF trees
    /// so faults can repair it in place.
    pub fn build() -> Built<T> {
        let n = TOPO.total_nodes();
        let transit = TOPO.transit_nodes();
        let g = generate::transit_stub(TOPO, TOPOLOGY_SEED);
        let edges: Vec<(u32, u32, u32)> = g.edges().map(|(a, b, w)| (a.0, b.0, w)).collect();
        drop(g);
        let (csr, pairs) = CsrGraph::from_edges(n, &edges);
        let cores: Vec<u32> = (0..GROUPS).map(|gi| ((gi * transit) / GROUPS) as u32).collect();
        let mut scratch = SpfScratch::new();
        let trees: Vec<SpfTree> =
            cores.iter().map(|&c| SpfTree::full(&csr, c, &mut scratch)).collect();
        let rib: SharedFleetRib = Arc::new(RwLock::new(FleetRib::repairable(&csr, &cores, trees)));
        let degree: Vec<usize> = (0..n as u32)
            .map(|u| {
                let end =
                    if u + 1 < n as u32 { csr.slot_base(u + 1) } else { csr.slot_count() as u32 };
                (end - csr.slot_base(u)) as usize
            })
            .collect();
        let rss0 = rss_bytes();
        let nodes: Vec<Node<T>> = (0..n as u32)
            .map(|i| Node::new(engine::<T>(&rib, i, degree[i as usize], SimTime::ZERO)))
            .collect();
        let world = NetscaleWorld::new(nodes, &csr, &pairs, &edges, latency);
        let idle_rss_bytes = rss_bytes().saturating_sub(rss0);
        let mut edge_index = HashMap::with_capacity(edges.len());
        for (k, &(a, b, _)) in edges.iter().enumerate() {
            edge_index.entry((a.min(b), a.max(b))).or_insert(k);
        }
        let fleet = Fleet {
            clock: Clock::default(),
            world,
            csr,
            pairs,
            edges,
            edge_index,
            degree,
            rib,
            scratch,
            core_addrs: cores.iter().map(|&c| node_addr(c)).collect(),
            cores,
            gids: (0..GROUPS).map(|gi| GroupId::numbered((gi + 1) as u16)).collect(),
            n: n as u32,
            transit: transit as u32,
            members: vec![BTreeMap::new(); GROUPS],
            abandoned: 0,
            reexpressions: 0,
            repairs: 0,
            touched: 0,
            spf_gate_s: 0.0,
            memo: vec![0; GROUPS * n],
            stamp: 0,
            path: Vec::new(),
        };
        Built { fleet, idle_rss_bytes }
    }

    /// Advances the world to `t_us` of simulated time.
    pub fn run_until(&mut self, t_us: u64) {
        let world = &mut self.world;
        timed::<T, _>(&mut self.clock, probe::WORLD, || {
            world.run_until(SimTime::from_micros(t_us))
        });
    }

    /// The member-router pool: every stub router.
    pub fn pool(&self) -> Vec<u32> {
        (self.transit..self.n).collect()
    }

    /// A host behind `r` joins group `gi`; the engine hears about it
    /// on the router's first session only.
    pub fn join(&mut self, gi: usize, r: u32) {
        let c = self.members[gi].entry(r).or_insert(0);
        *c += 1;
        if *c == 1 {
            self.local_join(gi, r);
        }
    }

    fn local_join(&mut self, gi: usize, r: u32) {
        let (gid, core) = (self.gids[gi], self.core_addrs[gi]);
        let world = &mut self.world;
        timed::<T, _>(&mut self.clock, probe::WORLD, || {
            world.with_node(r, |nd, now, out| {
                nd.p2p.router.learn_cores(gid, &[core]);
                let router = &mut nd.p2p.router;
                let act = probe::span_if::<T, _>(probe::LOCAL_JOIN, || router.local_join(now, gid));
                probe::deliver::<T>(&mut nd.p2p, act, out);
                nd.joins.push((gid, now));
                nd.settle_joins(now);
            })
        });
    }

    /// A host behind `r` leaves group `gi`; the engine hears about it
    /// when the router's last session ends.
    pub fn leave(&mut self, gi: usize, r: u32) {
        let Some(c) = self.members[gi].get_mut(&r) else { return };
        *c -= 1;
        if *c == 0 {
            self.members[gi].remove(&r);
            self.local_leave(gi, r);
        }
    }

    fn local_leave(&mut self, gi: usize, r: u32) {
        let gid = self.gids[gi];
        let world = &mut self.world;
        let abandoned = timed::<T, _>(&mut self.clock, probe::WORLD, || {
            world.with_node(r, |nd, now, out| {
                let owed = nd.joins.iter().position(|&(g, _)| g == gid).map(|k| nd.joins.remove(k));
                let router = &mut nd.p2p.router;
                let act =
                    probe::span_if::<T, _>(probe::LOCAL_LEAVE, || router.local_leave(now, gid));
                probe::deliver::<T>(&mut nd.p2p, act, out);
                owed.is_some()
            })
        });
        self.abandoned += abandoned as u64;
    }

    /// The IGMP re-expression stub: every member router in query phase
    /// `phase` (of `phases`, by router id) whose engine has given up on
    /// a group it still has members for (off-tree, nothing pending,
    /// nothing transient) hears the hosts' report and joins again.
    pub fn reexpress(&mut self, phase: u32, phases: u32) {
        for gi in 0..GROUPS {
            let gid = self.gids[gi];
            let given_up: Vec<u32> = self.members[gi]
                .keys()
                .copied()
                .filter(|&r| {
                    if r % phases != phase {
                        return false;
                    }
                    let rt = &self.world.node(r).p2p.router;
                    self.world.is_node_up(r)
                        && !rt.is_on_tree(gid)
                        && !rt.has_pending_join(gid)
                        && !rt.has_transient_state(gid)
                })
                .collect();
            for r in given_up {
                self.reexpressions += 1;
                self.local_join(gi, r);
            }
        }
    }

    /// Starts a fresh round of rootedness answers (state may have
    /// changed since the last round).
    pub fn begin_poll(&mut self) {
        self.stamp += 1;
    }

    /// Is member router `r`'s chain rooted at group `gi`'s core over
    /// live routers and links? FIB state alone is not enough: a chain
    /// across a downed link is dead until §6.1 notices.
    pub fn rooted(&mut self, gi: usize, r: u32) -> bool {
        let gid = self.gids[gi];
        let core = self.cores[gi];
        let n = self.n as usize;
        let key = |u: u32| gi * n + u as usize;
        self.path.clear();
        let mut cur = r;
        let verdict = loop {
            let m = self.memo[key(cur)];
            if m >> 1 == self.stamp {
                break m & 1 == 1;
            }
            self.path.push(cur);
            if self.path.len() > n || !self.world.is_node_up(cur) {
                break false;
            }
            let rt = &self.world.node(cur).p2p.router;
            if !rt.is_on_tree(gid) {
                break false;
            }
            if cur == core {
                break true;
            }
            let Some(p) = rt.parent_of(gid) else { break false };
            let p = addr_node(p);
            match self.edge_index.get(&(cur.min(p), cur.max(p))) {
                Some(&k) if self.csr.slot_live(self.pairs[k][0]) => cur = p,
                _ => break false,
            }
        };
        for &u in &self.path {
            self.memo[key(u)] = (self.stamp << 1) | verdict as u32;
        }
        verdict
    }

    /// Members not rooted, in (group, router) order. `settled_only`
    /// skips members whose engine is mid-join or mid-transition.
    pub fn detached(&mut self, settled_only: bool) -> Vec<(usize, u32)> {
        self.begin_poll();
        let all: Vec<(usize, u32)> =
            (0..GROUPS).flat_map(|gi| self.members[gi].keys().map(move |&r| (gi, r))).collect();
        all.into_iter()
            .filter(|&(gi, r)| {
                if self.rooted(gi, r) {
                    return false;
                }
                let rt = &self.world.node(r).p2p.router;
                let gid = self.gids[gi];
                !(settled_only && (rt.has_pending_join(gid) || rt.has_transient_state(gid)))
            })
            .collect()
    }

    /// Joins still owed an answer by routers that keep the member.
    pub fn owed_joins(&self) -> u64 {
        let mut owed = 0;
        for i in 0..self.n {
            for &(g, _) in &self.world.node(i).joins {
                let gi = self.gids.iter().position(|&x| x == g).expect("fleet group");
                owed += self.members[gi].contains_key(&i) as u64;
            }
        }
        owed
    }

    // ---- Faults --------------------------------------------------------

    fn probe_connected(&mut self) -> bool {
        let live = (0..self.n).filter(|&i| self.csr.is_node_up(i)).count() as u64;
        SpfTree::full(&self.csr, self.cores[0], &mut self.scratch).reached() == live
    }

    /// A flappable edge on a random member's live chain whose removal
    /// keeps the graph connected, core side first (soak's choice).
    pub fn pick_flap(&mut self, rng: &mut Rng) -> Option<usize> {
        for _ in 0..64 {
            let gi = rng.below(GROUPS);
            let holders: Vec<u32> = self.members[gi].keys().copied().collect();
            if holders.is_empty() {
                continue;
            }
            let gid = self.gids[gi];
            let mut chain = Vec::new();
            let mut cur = holders[rng.below(holders.len())];
            for _ in 0..self.n {
                if !self.world.is_node_up(cur) {
                    break;
                }
                let Some(p) = self.world.node(cur).p2p.router.parent_of(gid) else { break };
                let p = addr_node(p);
                if let Some(&k) = self.edge_index.get(&(cur.min(p), cur.max(p))) {
                    chain.push(k);
                }
                cur = p;
            }
            for &k in chain.iter().rev() {
                let pair = self.pairs[k];
                if !self.csr.slot_live(pair[0]) {
                    continue;
                }
                self.csr.set_slot_live(pair[0], false);
                self.csr.set_slot_live(pair[1], false);
                let ok = self.probe_connected();
                self.csr.set_slot_live(pair[0], true);
                self.csr.set_slot_live(pair[1], true);
                if ok {
                    return Some(k);
                }
            }
        }
        None
    }

    /// An up, non-core stub router holding tree state whose loss keeps
    /// the rest of the graph connected.
    pub fn pick_crash(&mut self, rng: &mut Rng) -> Option<u32> {
        for want_state in [true, false] {
            for _ in 0..128 {
                let r = self.transit + rng.below((self.n - self.transit) as usize) as u32;
                if !self.world.is_node_up(r) || self.cores.contains(&r) {
                    continue;
                }
                if want_state && self.world.node(r).p2p.router.fib_len() == 0 {
                    continue;
                }
                self.csr.set_node_up(r, false);
                let ok = self.probe_connected();
                self.csr.set_node_up(r, true);
                if ok {
                    return Some(r);
                }
            }
        }
        None
    }

    /// Soak's per-fault sequence: mask the CSR and the world, repair
    /// the rib, then check the repair against a from-scratch SPF.
    fn repair(&mut self, removals: bool, pairs: &[(u32, u32)], nodes: &[u32]) {
        let (csr, scratch, rib) = (&self.csr, &mut self.scratch, &self.rib);
        let touched = timed::<T, _>(&mut self.clock, probe::RIB_REPAIR, || {
            let mut rib = rib.write().expect("rib lock poisoned");
            if removals {
                rib.apply_removals(csr, pairs, nodes, scratch)
            } else {
                rib.apply_additions(csr, pairs, nodes, scratch)
            }
        });
        if T {
            probe::note_touched(touched);
        }
        self.repairs += 1;
        self.touched += touched;
        let t0 = Instant::now();
        self.rib.read().expect("rib lock poisoned").assert_matches_full_spf(csr, scratch);
        self.spf_gate_s += t0.elapsed().as_secs_f64();
    }

    pub fn set_edge(&mut self, k: usize, up: bool) {
        let (a, b, _) = self.edges[k];
        let pair = self.pairs[k];
        self.csr.set_slot_live(pair[0], up);
        self.csr.set_slot_live(pair[1], up);
        let world = &mut self.world;
        timed::<T, _>(&mut self.clock, probe::WORLD, || world.set_link_up(pair, up));
        self.repair(!up, &[(a, b)], &[]);
    }

    /// Crashes router `r`. Its hosts keep their membership and report
    /// again once it is back.
    pub fn crash(&mut self, r: u32) {
        self.csr.set_node_up(r, false);
        let world = &mut self.world;
        timed::<T, _>(&mut self.clock, probe::WORLD, || world.crash_node(r));
        self.repair(true, &[], &[r]);
    }

    /// §6.2 cold restart: a brand-new engine in the same slot.
    pub fn restart(&mut self, r: u32) {
        self.csr.set_node_up(r, true);
        let now = self.world.now();
        let fresh = engine::<T>(&self.rib, r, self.degree[r as usize], now);
        let mut owed = 0;
        let world = &mut self.world;
        timed::<T, _>(&mut self.clock, probe::WORLD, || {
            world.restart_node(r, |nd| {
                nd.p2p.restart(fresh.router);
                owed = nd.joins.len() as u64;
                nd.joins.clear();
            })
        });
        self.abandoned += owed;
        self.repair(false, &[], &[r]);
    }

    // ---- Gates and harvest ---------------------------------------------

    pub fn fib_entries(&self) -> u64 {
        (0..self.n).map(|i| self.world.node(i).p2p.router.fib_len() as u64).sum()
    }

    /// Decode errors, encode errors and non-control drops, fleet-wide.
    pub fn adapter_errors(&self) -> [u64; 3] {
        let mut e = [0; 3];
        for i in 0..self.n {
            let p = &self.world.node(i).p2p;
            e[0] += p.decode_errors;
            e[1] += p.encode_errors;
            e[2] += p.dropped_non_control;
        }
        e
    }

    /// Control frames sent per kind, from the merged fleet snapshot.
    pub fn frames_by_kind(&self) -> [u64; CtlKind::COUNT] {
        let mut fleet = ObsSnapshot { router: "fleet".into(), ..Default::default() };
        for i in 0..self.n {
            fleet.merge(&self.world.node(i).p2p.router.obs_snapshot());
        }
        CtlKind::ALL.map(|k| fleet.ctl.sent(k))
    }

    /// Runs `check_netscale_invariants`. The checker reads a
    /// `NetscaleWorld<P2pNode>`, so the engines move into one for the
    /// check and back afterwards; stand-in engines hold their slots
    /// meanwhile.
    pub fn check_invariants(&mut self) -> Vec<Violation> {
        let now = self.world.now();
        let mut nodes = Vec::with_capacity(self.n as usize);
        for i in 0..self.n {
            let stand_in = engine::<false>(&self.rib, i, self.degree[i as usize], now);
            nodes
                .push(self.world.with_node(i, |nd, _, _| std::mem::replace(&mut nd.p2p, stand_in)));
        }
        let mut view = NetscaleWorld::new(nodes, &self.csr, &self.pairs, &self.edges, latency);
        let mut members = BTreeMap::new();
        for (gi, m) in self.members.iter().enumerate() {
            if !m.is_empty() {
                members.insert(self.gids[gi], m.keys().copied().collect::<Vec<u32>>());
            }
        }
        let violations = check_netscale_invariants(&view, &self.gids, &members);
        for i in 0..self.n {
            let stand_in = engine::<false>(&self.rib, i, self.degree[i as usize], now);
            let real = view.with_node(i, |nd, _, _| std::mem::replace(nd, stand_in));
            self.world.with_node(i, |nd, _, _| nd.p2p = real);
        }
        violations
    }

    /// Every member leaves, one per millisecond; the fleet must then
    /// fall silent: no FIB entry and no armed timer anywhere.
    pub fn teardown(&mut self) -> Result<(), String> {
        let mut t = self.world.now();
        for gi in 0..GROUPS {
            let holders: Vec<u32> = self.members[gi].keys().copied().collect();
            for r in holders {
                t += SimDuration::from_millis(1);
                self.run_until(t.micros());
                self.members[gi].remove(&r);
                self.local_leave(gi, r);
            }
        }
        let limit = self.world.now() + SimDuration::from_secs(60);
        self.world.run_to_quiescence(limit);
        for i in 0..self.n {
            let rt = &self.world.node(i).p2p.router;
            if rt.fib_len() != 0 || rt.next_wakeup().is_some() {
                return Err(format!(
                    "router {i} kept {} FIB entries / timer {:?} after teardown",
                    rt.fib_len(),
                    rt.next_wakeup()
                ));
            }
        }
        Ok(())
    }
}

/// Edge weight → one-way latency in milliseconds (as `protoscale`).
fn latency(w: u32) -> SimDuration {
    SimDuration::from_millis(w.max(1) as u64)
}
