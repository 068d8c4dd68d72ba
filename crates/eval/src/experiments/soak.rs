//! Impl-6 — netscale fault soak: live flaps, crash/§6.2 restart and
//! FleetRib repair at 100k engines.
//!
//! Impl-5 (protoscale) proved the fleet builds exactly the analytic
//! trees on a *faultless* wire. This experiment breaks the wire while
//! the fleet is live:
//!
//! 1. **regression gate** — at ~1k routers, flap one on-tree link,
//!    require every severed member to reattach (§6.1 echo-timeout →
//!    rejoin), run the explore-harness tree-invariant checker, and
//!    tear the fleet down to silence — all hard-asserted;
//! 2. **soak** — instantiate the preset fleet (quick ≈ 10k, full ≈
//!    100k), drive the Poisson/diurnal membership stream, and fire a
//!    scheduled fault script through it: link flaps on in-use tree
//!    edges plus router crashes with §6.2 cold restarts. Every fault
//!    repairs the shared [`cbt::FleetRib`] incrementally
//!    ([`apply_removals`](cbt::FleetRib::apply_removals) /
//!    [`apply_additions`](cbt::FleetRib::apply_additions)) and
//!    hard-asserts the repaired routes equal a from-scratch SPF;
//! 3. **measure** — per-fault detached/reattached/lost member counts
//!    and recovery time, the echo-timeout reattachment latency
//!    histogram, control-frame rate peaks (fault storms and the final
//!    teardown storm), and the liveness-mask drop counters;
//! 4. **gate** — after the last restore the fleet must reconverge
//!    (every member rooted at its core), the invariant checker must
//!    come back clean, and full teardown must return the fleet to
//!    silence with zero decode/encode errors.
//!
//! Faults are *connectivity-preserving by construction*: a candidate
//! link or router is committed only if an SPF probe over the masked
//! graph still reaches every live node, so "every member reattaches"
//! is a protocol obligation, not a topology lottery.

use super::fleet::{rss_bytes, Fleet, Layer, FULL_TOPO, GATE_TOPO, QUICK_TOPO};
use super::netscale::XorShift;
use crate::membership::MembershipParams;
use crate::report::Report;
use cbt::addr_node;
use cbt::explore::check_netscale_invariants;
use cbt_metrics::{table::f, Table};
use cbt_netsim::SimDuration;
use cbt_obs::Histogram;
use cbt_topology::csr::SpfTree;
use cbt_topology::generate::TransitStubParams;
use serde_json::json;
use std::collections::BTreeMap;

/// Poll cadence for reattachment tracking and frame-rate sampling.
const POLL_US: u64 = 500_000;
/// Control-frame window attributed to each fault as its "storm".
const STORM_WINDOW_US: u64 = 10_000_000;
/// Sentinel fault index for members found adrift outside any fault's
/// commit snapshot.
const STRAY: usize = usize::MAX;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Transit-stub topology shape for the soak stage.
    pub topo: TransitStubParams,
    /// Number of multicast groups (one core each, spread over transit).
    pub groups: usize,
    /// Member-session arrivals over the horizon.
    pub arrivals: usize,
    /// Mean membership holding time (seconds, simulated).
    pub hold_s: f64,
    /// Simulated horizon (seconds); faults fire inside `[0.15, 0.85]`
    /// of it.
    pub horizon_s: f64,
    /// Link flaps in the fault script.
    pub flaps: usize,
    /// Router crash + §6.2 restart events in the fault script.
    pub crashes: usize,
    /// Seconds a flapped link stays down (must exceed the echo
    /// timeout so §6.1 detection fires before the restore).
    pub flap_hold_s: f64,
    /// Seconds a crashed router stays down before its cold restart.
    pub crash_hold_s: f64,
    /// Topology for the ~1k-router fault regression gate.
    pub regress_topo: TransitStubParams,
    /// Members drawn per group in the regression gate.
    pub regress_members: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            topo: FULL_TOPO,
            groups: 32,
            arrivals: 150_000,
            hold_s: 120.0,
            horizon_s: 600.0,
            flaps: 10,
            crashes: 3,
            flap_hold_s: 25.0,
            crash_hold_s: 20.0,
            regress_topo: GATE_TOPO,
            regress_members: 48,
            seed: 6262,
        }
    }
}

impl Params {
    /// ~10k-engine preset for the CI smoke run.
    pub fn quick() -> Self {
        Params {
            topo: QUICK_TOPO,
            groups: 16,
            arrivals: 15_000,
            hold_s: 60.0,
            horizon_s: 300.0,
            flaps: 6,
            crashes: 2,
            ..Default::default()
        }
    }

    /// Tiny preset for the in-crate unit tests (runs in debug builds).
    #[cfg(test)]
    fn tiny() -> Self {
        let topo = super::fleet::TINY_TOPO;
        Params {
            topo,
            groups: 4,
            arrivals: 400,
            hold_s: 20.0,
            horizon_s: 120.0,
            flaps: 2,
            crashes: 1,
            flap_hold_s: 15.0,
            crash_hold_s: 15.0,
            regress_topo: topo,
            regress_members: 8,
            seed: 6262,
        }
    }
}

/// The fault script's half of the fleet: choosing targets whose loss
/// keeps the masked graph connected.
impl Fleet {
    /// SPF probe: with the current masks, does core 0's tree still
    /// reach every live node? (The graph is connected iff any one
    /// root reaches everything.)
    fn probe_connected(&mut self) -> bool {
        let live = (0..self.n).filter(|&i| self.csr.is_node_up(i)).count() as u64;
        let t = SpfTree::full(&self.csr, self.cores[0], &mut self.scratch);
        t.reached() == live
    }

    /// Picks a flappable edge: walk a random member's live parent
    /// chain core-ward and return the first chain edge whose removal
    /// keeps the masked graph connected. Core-side (transit) edges are
    /// tried first — they carry whole subtrees and have redundant
    /// alternates; stub uplinks are usually cut edges and fail the
    /// probe.
    fn pick_flap(&mut self, rng: &mut XorShift) -> Option<usize> {
        for _ in 0..64 {
            let gi = rng.below(self.gids.len());
            let holders = self.members(gi);
            if holders.is_empty() {
                continue;
            }
            let m = holders[rng.below(holders.len())];
            let gid = self.gids[gi];
            let mut chain: Vec<usize> = Vec::new();
            let mut cur = m;
            for _ in 0..self.n {
                if !self.world.is_node_up(cur) {
                    break;
                }
                let Some(p) = self.world.node(cur).router.parent_of(gid) else { break };
                let p = addr_node(p);
                if let Some(k) = self.edge_between(cur, p) {
                    chain.push(k);
                }
                cur = p;
            }
            for &k in chain.iter().rev() {
                let pair = self.pairs[k];
                if !self.csr.slot_live(pair[0]) {
                    continue; // already down from an overlapping fault
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

    /// Picks a crashable router: an up, non-core stub router whose
    /// removal keeps the rest of the graph connected. Prefers routers
    /// currently holding tree state (so the crash actually exercises
    /// §6.2), falling back to any viable one.
    fn pick_crash(&mut self, rng: &mut XorShift) -> Option<u32> {
        for want_state in [true, false] {
            for _ in 0..128 {
                let r = self.transit + rng.below((self.n - self.transit) as usize) as u32;
                if !self.world.is_node_up(r) || self.cores.contains(&r) {
                    continue;
                }
                if want_state && self.world.node(r).router.fib_len() == 0 {
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
}

/// The fault script's event kinds.
#[derive(Clone, Copy)]
enum Act {
    Fault(usize),
    Restore(usize),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    Flap,
    Crash,
}

#[derive(Clone, Copy)]
enum Target {
    None,
    Edge(usize),
    Node(u32),
}

/// What one scheduled fault did to the fleet.
struct FaultRec {
    kind: FaultKind,
    target: Target,
    t_us: u64,
    restored_us: Option<u64>,
    frames_at: u64,
    storm_frames: Option<u64>,
    detached: u64,
    reattached: u64,
    lost: u64,
    recovered_us: Option<u64>,
}

impl FaultRec {
    fn new(kind: FaultKind) -> Self {
        FaultRec {
            kind,
            target: Target::None,
            t_us: 0,
            restored_us: None,
            frames_at: 0,
            storm_frames: None,
            detached: 0,
            reattached: 0,
            lost: 0,
            recovered_us: None,
        }
    }

    fn committed(&self) -> bool {
        !matches!(self.target, Target::None)
    }

    fn label(&self, fleet: &Fleet) -> String {
        match self.target {
            Target::None => "skipped".into(),
            Target::Edge(k) => {
                let (a, b, _) = fleet.edge_list[k];
                format!("link {a}-{b}")
            }
            Target::Node(r) => format!("router {r}"),
        }
    }
}

/// Soak's layer: the fault plan, the poll clock, and the
/// reattachment bookkeeping.
struct FaultScript {
    plan: Vec<(u64, Act)>,
    ai: usize,
    faults: Vec<FaultRec>,
    rng: XorShift,
    next_poll: u64,
    polls: u64,
    /// `(group, router)` → (fault index or STRAY, detach instant).
    detached: BTreeMap<(u32, u32), (usize, u64)>,
    /// Echo-timeout reattachment latency, fault-attributed members.
    hist: Histogram,
    /// Reattachment latency for strays (found adrift outside any
    /// fault snapshot), from discovery.
    stray_hist: Histogram,
    strays_found: u64,
    last_frames: u64,
    peak_frames_per_s: f64,
}

/// Plan actions and polls in time order; a plan action wins a tie.
impl Layer for FaultScript {
    fn next_at(&self) -> u64 {
        let na = self.plan.get(self.ai).map(|&(t, _)| t).unwrap_or(u64::MAX);
        na.min(self.next_poll)
    }

    fn fire(&mut self, fleet: &mut Fleet) {
        match self.plan.get(self.ai) {
            Some(&(t, act)) if t <= self.next_poll => {
                self.ai += 1;
                match act {
                    Act::Fault(i) => self.do_fault(fleet, i),
                    Act::Restore(i) => self.do_restore(fleet, i),
                }
            }
            _ => {
                let now_us = self.next_poll;
                self.next_poll += POLL_US;
                self.do_poll(fleet, now_us);
            }
        }
    }
}

impl FaultScript {
    fn do_fault(&mut self, fleet: &mut Fleet, i: usize) {
        let now = fleet.world.now().micros();
        self.faults[i].t_us = now;
        let target = match self.faults[i].kind {
            FaultKind::Flap => match fleet.pick_flap(&mut self.rng) {
                Some(k) => {
                    fleet.set_edge(k, false);
                    Target::Edge(k)
                }
                None => Target::None,
            },
            FaultKind::Crash => match fleet.pick_crash(&mut self.rng) {
                Some(r) => {
                    fleet.crash(r);
                    Target::Node(r)
                }
                None => Target::None,
            },
        };
        self.faults[i].target = target;
        if !self.faults[i].committed() {
            return;
        }
        self.faults[i].frames_at = fleet.world.trace.frames;
        // Snapshot the members this fault severed: their engine chains
        // now cross dead wire. In-flight joiners are excluded — their
        // latency is join latency, not echo-timeout reattachment.
        for (gi, r) in fleet.detached_members(true) {
            if let std::collections::btree_map::Entry::Vacant(e) = self.detached.entry((gi, r)) {
                e.insert((i, now));
                self.faults[i].detached += 1;
            }
        }
        if self.faults[i].detached == 0 {
            self.faults[i].recovered_us = Some(now);
        }
    }

    fn do_restore(&mut self, fleet: &mut Fleet, i: usize) {
        match self.faults[i].target {
            Target::None => return,
            Target::Edge(k) => fleet.set_edge(k, true),
            Target::Node(r) => fleet.restart(r),
        }
        self.faults[i].restored_us = Some(fleet.world.now().micros());
    }

    fn mark_recovered(&mut self, fi: usize, now_us: u64) {
        let rec = &mut self.faults[fi];
        if rec.recovered_us.is_none() && rec.reattached + rec.lost == rec.detached {
            rec.recovered_us = Some(now_us);
        }
    }

    fn do_poll(&mut self, fleet: &mut Fleet, now_us: u64) {
        self.polls += 1;
        let frames = fleet.world.trace.frames;
        let fps = (frames - self.last_frames) as f64 * 1e6 / POLL_US as f64;
        self.last_frames = frames;
        if fps > self.peak_frames_per_s {
            self.peak_frames_per_s = fps;
        }
        for rec in &mut self.faults {
            if rec.committed() && rec.storm_frames.is_none() && now_us >= rec.t_us + STORM_WINDOW_US
            {
                rec.storm_frames = Some(frames - rec.frames_at);
            }
        }
        // Reconcile every tracked detached member: reattached, gone,
        // or still adrift (kick if its engine has given up).
        let tracked: Vec<((u32, u32), (usize, u64))> =
            self.detached.iter().map(|(&k, &v)| (k, v)).collect();
        for ((gi, r), (fi, ft)) in tracked {
            if !fleet.is_member(gi as usize, r) {
                self.detached.remove(&(gi, r));
                if fi != STRAY {
                    self.faults[fi].lost += 1;
                    self.mark_recovered(fi, now_us);
                }
                continue;
            }
            if fleet.rooted(gi as usize, r) {
                self.detached.remove(&(gi, r));
                if fi == STRAY {
                    self.stray_hist.record(now_us - ft);
                } else {
                    self.hist.record(now_us - ft);
                    self.faults[fi].reattached += 1;
                    self.mark_recovered(fi, now_us);
                }
                continue;
            }
            fleet.kick(gi as usize, r);
        }
        // Every 5 s, sweep for members adrift outside any fault
        // snapshot (e.g. second-order detachment) whose engine has
        // given up; re-express and track them.
        if self.polls.is_multiple_of(10) {
            for (gi, r) in fleet.detached_members(true) {
                if self.detached.contains_key(&(gi, r)) {
                    continue;
                }
                if fleet.kick(gi as usize, r) {
                    self.strays_found += 1;
                    self.detached.insert((gi, r), (STRAY, now_us));
                }
            }
        }
    }
}

/// What the ~1k fault regression gate measured. Every protocol
/// property it checks is hard-asserted inside; all fields are
/// byte-deterministic, so two differently-sharded runs must produce
/// identical summaries.
#[derive(Debug, PartialEq, Eq)]
pub struct FaultSummary {
    /// Fleet size.
    pub routers: usize,
    /// Distinct members joined across all groups.
    pub members: usize,
    /// Members whose chain the flap severed.
    pub detached: u64,
    /// Of those, how many reattached (all of them — asserted).
    pub reattached: u64,
    /// Driver-level membership re-expressions needed.
    pub kicks: u64,
    /// Rib version after the flap and restore repairs.
    pub rib_version: u64,
    /// Fault-to-all-rooted time (µs, poll-quantized).
    pub converge_us: u64,
    /// Frames dropped at the downed link's send gates.
    pub dropped_link_down: u64,
    /// Control frames over the whole run.
    pub total_frames: u64,
    /// Instant (µs) of the last event before fleet-wide silence.
    pub silent_us: u64,
}

/// The fault regression gate: flap one in-use on-tree link at ~1k
/// routers, require every severed member to reattach via §6.1, run
/// the invariant checker, and tear down to silence.
///
/// `shards` overrides the engine shard count (`None` keeps the
/// `CBT_SHARDS` default), letting the determinism test drive the same
/// faulted fleet across differently-sharded engines.
pub fn fault_regression(
    topo: TransitStubParams,
    groups: usize,
    members_per_group: usize,
    shards: Option<usize>,
    seed: u64,
) -> FaultSummary {
    let mut fleet = Fleet::new(topo, groups, shards, seed);
    let mut rng = fleet.join_members(members_per_group, seed);
    assert!(fleet.detached_members(false).is_empty(), "fleet failed to settle before the fault");
    let members = fleet.member_count();

    // Flap one in-use tree edge (connectivity-preserving, asserted
    // inside pick_flap's probe).
    let e = fleet.pick_flap(&mut rng).expect("an on-tree flappable link");
    fleet.set_edge(e, false);
    let fault_t = fleet.world.now().micros();
    let detached = fleet.detached_members(true).len() as u64;
    assert!(detached > 0, "the flap severed no member chain");

    // Poll until every member is rooted again. §6.1 alone should do
    // it; after a 15 s grace the driver re-expresses membership for
    // any engine that gave up.
    let converge_us = loop {
        fleet.world.run_until(fleet.world.now() + SimDuration::from_millis(250));
        let leftovers = fleet.detached_members(false);
        if leftovers.is_empty() {
            break fleet.world.now().micros() - fault_t;
        }
        let now_us = fleet.world.now().micros();
        if now_us >= fault_t + 15_000_000 {
            for (gi, r) in &leftovers {
                fleet.kick(*gi as usize, *r);
            }
        }
        assert!(
            now_us < fault_t + 60_000_000,
            "fault regression failed to reconverge: {} members still detached",
            leftovers.len()
        );
    };

    // Restore, settle past child-assert expiry (stale child entries
    // from the reattachment age out), then the invariant gate.
    fleet.set_edge(e, true);
    fleet.world.run_until(fleet.world.now() + SimDuration::from_secs(25));
    assert!(fleet.detached_members(false).is_empty(), "members detached during settle");
    let members_map = fleet.members_map();
    let violations = check_netscale_invariants(&fleet.world, &fleet.gids, &members_map);
    assert!(violations.is_empty(), "invariant violations after fault recovery: {violations:?}");

    // Full teardown back to silence.
    let silent = fleet.teardown_to_silence(&mut (), 0, SimDuration::from_secs(30));
    let rib_version = fleet.rib.read().expect("rib lock poisoned").version();
    FaultSummary {
        routers: fleet.n as usize,
        members,
        detached,
        reattached: detached,
        kicks: fleet.rejoin_kicks,
        rib_version,
        converge_us,
        dropped_link_down: fleet.world.trace.dropped_link_down,
        total_frames: fleet.world.trace.frames,
        silent_us: silent.micros(),
    }
}

/// Runs the experiment.
pub fn run(p: &Params) -> Report {
    let mut report = Report::new(
        "Impl-6",
        "netscale fault soak: live flaps, crash/restart and FleetRib repair under churn",
    );
    let n = p.topo.total_nodes();
    let transit = p.topo.transit_nodes();
    let groups = p.groups.min(transit);

    // --- Phase 1: the ~1k fault regression gate (hard asserts inside). ---
    let t0 = std::time::Instant::now();
    let reg = fault_regression(
        p.regress_topo,
        groups.min(p.regress_topo.transit_nodes()),
        p.regress_members,
        None,
        p.seed,
    );
    let regress_ms = t0.elapsed().as_secs_f64() * 1e3;

    // --- Phase 2: the soak fleet and its fault plan. ---
    let rss0 = rss_bytes();
    let t0 = std::time::Instant::now();
    let mut fleet = Fleet::new(p.topo, groups, None, p.seed);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rss_fleet = rss_bytes();
    let links = fleet.edge_list.len();

    // Faults spread evenly across [0.15, 0.85] of the horizon, crash
    // events interleaved proportionally among the flaps; each fault's
    // restore follows after its hold.
    let f_total = p.flaps + p.crashes;
    let start_us = (0.15 * p.horizon_s * 1e6) as u64;
    let gap_us = ((0.70 * p.horizon_s * 1e6) as u64) / f_total.max(1) as u64;
    let mut faults = Vec::with_capacity(f_total);
    let mut plan: Vec<(u64, Act)> = Vec::with_capacity(2 * f_total);
    for i in 0..f_total {
        let is_crash = ((i + 1) * p.crashes) / f_total > (i * p.crashes) / f_total;
        let (kind, hold_s) = if is_crash {
            (FaultKind::Crash, p.crash_hold_s)
        } else {
            (FaultKind::Flap, p.flap_hold_s)
        };
        let t = start_us + i as u64 * gap_us;
        plan.push((t, Act::Fault(i)));
        plan.push((t + (hold_s * 1e6) as u64, Act::Restore(i)));
        faults.push(FaultRec::new(kind));
    }
    plan.sort_by_key(|&(t, _)| t);
    let mut script = FaultScript {
        plan,
        ai: 0,
        faults,
        rng: XorShift(p.seed ^ 0xfa_17_5c_41),
        next_poll: POLL_US,
        polls: 0,
        detached: BTreeMap::new(),
        hist: Histogram::new(),
        stray_hist: Histogram::new(),
        strays_found: 0,
        last_frames: 0,
        peak_frames_per_s: 0.0,
    };

    // --- Phase 3: drive churn and faults together. ---
    let mp = MembershipParams {
        groups,
        horizon_s: p.horizon_s,
        arrivals: p.arrivals,
        hold_s: p.hold_s,
        diurnal_depth: 0.6,
        day_s: p.horizon_s,
        hotspot_frac: 0.5,
        flash: None,
    };
    let t0 = std::time::Instant::now();
    let (total_joins, lost_joins, peak_concurrent) = fleet.drive(&mp, p.seed, &mut script);
    // Run out the horizon and any restores still pending past it.
    let mut end_us = (p.horizon_s * 1e6) as u64;
    if let Some(&(t, _)) = script.plan.last() {
        end_us = end_us.max(t + 1);
    }
    fleet.advance_to(end_us, &mut script);
    assert_eq!(script.ai, script.plan.len(), "fault plan not fully executed");
    let drive_s = t0.elapsed().as_secs_f64();
    let drive_peak_fps = script.peak_frames_per_s;

    // --- Phase 4: heal, converge, and the invariant gate. ---
    let mut heal_rounds = 0u32;
    loop {
        let leftovers = fleet.detached_members(false);
        if leftovers.is_empty() {
            break;
        }
        heal_rounds += 1;
        assert!(
            heal_rounds <= 40,
            "soak failed to converge: {} members still detached after {} heal rounds",
            leftovers.len(),
            heal_rounds
        );
        for (gi, r) in leftovers {
            fleet.kick(gi as usize, r);
        }
        let now = fleet.world.now().micros();
        fleet.advance_to(now + 3_000_000, &mut script);
    }
    // Settle past child-assert expiry so reattachment residue (stale
    // child entries at former parents) ages out before the checker.
    let now = fleet.world.now().micros();
    fleet.advance_to(now + 25_000_000, &mut script);
    assert!(fleet.detached_members(false).is_empty(), "members detached during settle");
    assert!(script.detached.is_empty(), "reattachment tracking left unresolved members");
    let converge_us = fleet.world.now().micros();
    let members_map = fleet.members_map();
    let live_members: usize = members_map.values().map(Vec::len).sum();
    let violations = check_netscale_invariants(&fleet.world, &fleet.gids, &members_map);
    assert!(
        violations.is_empty(),
        "invariant violations at post-soak quiescence: {:?}",
        &violations[..violations.len().min(5)]
    );

    // --- Phase 5: teardown storm, measured, then silence. ---
    script.peak_frames_per_s = 0.0;
    let silent = fleet.teardown_to_silence(&mut script, 10_000_000, SimDuration::from_secs(60));
    let teardown_peak_fps = script.peak_frames_per_s;

    // --- Phase 6: harvest. ---
    let h = fleet.harvest(&mut report);
    let committed_flaps =
        script.faults.iter().filter(|r| r.kind == FaultKind::Flap && r.committed()).count();
    let committed_crashes =
        script.faults.iter().filter(|r| r.kind == FaultKind::Crash && r.committed()).count();
    let trace = &fleet.world.trace;
    let rib_version = fleet.rib.read().expect("rib lock poisoned").version();

    // --- Report. ---
    let mut regt = Table::new([
        "routers",
        "members",
        "detached",
        "reattached",
        "kicks",
        "converge (s)",
        "silent at (s)",
    ]);
    regt.row([
        reg.routers.to_string(),
        reg.members.to_string(),
        reg.detached.to_string(),
        reg.reattached.to_string(),
        reg.kicks.to_string(),
        f(reg.converge_us as f64 / 1e6),
        f(reg.silent_us as f64 / 1e6),
    ]);
    report.table(
        "fault regression gate: one on-tree link flapped at ~1k routers; every severed member \
         reattached, invariant checker clean, teardown to silence (all hard-asserted)",
        regt,
    );

    let mut ft = Table::new([
        "fault",
        "target",
        "t (s)",
        "detached",
        "reattached",
        "lost",
        "recover (s)",
        "storm frames",
    ]);
    for rec in &script.faults {
        let kind = match rec.kind {
            FaultKind::Flap => "flap",
            FaultKind::Crash => "crash",
        };
        ft.row([
            kind.to_string(),
            rec.label(&fleet),
            f(rec.t_us as f64 / 1e6),
            rec.detached.to_string(),
            rec.reattached.to_string(),
            rec.lost.to_string(),
            rec.recovered_us.map(|r| f((r - rec.t_us) as f64 / 1e6)).unwrap_or_else(|| "-".into()),
            rec.storm_frames.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
        ]);
    }
    report.table(
        format!(
            "the fault script: {committed_flaps} link flaps + {committed_crashes} router \
             crash/restarts committed against {n} live engines (connectivity-preserving by \
             construction; every one repaired the shared rib incrementally, hard-asserted \
             equal to a from-scratch SPF)"
        ),
        ft,
    );

    let mut rt = Table::new(["reattachments", "mean (s)", "p50 (s)", "p99 (s)", "max (s)"]);
    rt.row([
        script.hist.count().to_string(),
        f(script.hist.mean() / 1e6),
        f(script.hist.quantile(0.50) as f64 / 1e6),
        f(script.hist.quantile(0.99) as f64 / 1e6),
        f(script.hist.max() as f64 / 1e6),
    ]);
    report.table(
        "echo-timeout reattachment latency: fault instant to rooted-at-core again (dominated \
         by the \u{a7}9 echo timeout before \u{a7}6.1 reattachment can begin)",
        rt,
    );

    let mut dt = Table::new([
        "joins",
        "peak members",
        "frames",
        "drop link-down",
        "drop node-down",
        "kicks",
        "rib repairs",
        "peak f/s",
        "teardown f/s",
        "silent at (s)",
    ]);
    dt.row([
        total_joins.to_string(),
        peak_concurrent.to_string(),
        trace.frames.to_string(),
        trace.dropped_link_down.to_string(),
        trace.dropped_node_down.to_string(),
        fleet.rejoin_kicks.to_string(),
        rib_version.to_string(),
        f(drive_peak_fps),
        f(teardown_peak_fps),
        f(silent.micros() as f64 / 1e6),
    ]);
    report.table(
        format!(
            "the soak: {} arrivals of Poisson/diurnal churn driven through the faulted fleet \
             in {:.1}s wall; converged, checker-clean and silent at the end",
            p.arrivals, drive_s
        ),
        dt,
    );

    report.json = json!({
        "params": {
            "routers": n,
            "links": links,
            "groups": groups,
            "arrivals": p.arrivals,
            "hold_s": p.hold_s,
            "horizon_s": p.horizon_s,
            "flaps": p.flaps,
            "crashes": p.crashes,
            "flap_hold_s": p.flap_hold_s,
            "crash_hold_s": p.crash_hold_s,
            "seed": p.seed,
        },
        "regression": {
            "routers": reg.routers,
            "members": reg.members,
            "detached": reg.detached,
            "reattached": reg.reattached,
            "kicks": reg.kicks,
            "rib_version": reg.rib_version,
            "converge_us": reg.converge_us,
            "dropped_link_down": reg.dropped_link_down,
            "total_frames": reg.total_frames,
            "silent_us": reg.silent_us,
            "wall_ms": regress_ms,
        },
        "fleet": {
            "routers": n,
            "links": links,
            "build_ms": build_ms,
            "rss_fleet_bytes": rss_fleet.saturating_sub(rss0),
        },
        "faults": script.faults.iter().map(|rec| json!({
            "kind": match rec.kind { FaultKind::Flap => "flap", FaultKind::Crash => "crash" },
            "target": rec.label(&fleet),
            "committed": rec.committed(),
            "t_us": rec.t_us,
            "restored_us": rec.restored_us,
            "detached": rec.detached,
            "reattached": rec.reattached,
            "lost": rec.lost,
            "recovered_us": rec.recovered_us,
            "storm_frames": rec.storm_frames,
        })).collect::<Vec<_>>(),
        "committed": { "flaps": committed_flaps, "crashes": committed_crashes },
        "reattach_us": {
            "count": script.hist.count(),
            "mean": script.hist.mean(),
            "p50": script.hist.quantile(0.50),
            "p99": script.hist.quantile(0.99),
            "max": script.hist.max(),
        },
        "strays": { "found": script.strays_found, "reattached": script.stray_hist.count() },
        "drive": {
            "total_joins": total_joins,
            "lost_joins": lost_joins,
            "peak_concurrent": peak_concurrent,
            "live_members_at_gate": live_members,
            "frames": trace.frames,
            "bytes": trace.bytes,
            "sim_events": trace.events,
            "dropped_link_down": trace.dropped_link_down,
            "dropped_node_down": trace.dropped_node_down,
            "kicks": fleet.rejoin_kicks,
            "parent_failures": h.parent_failures,
            "rib_version": rib_version,
            "rib_repair_touched": fleet.repair_touched,
            "heal_rounds": heal_rounds,
            "peak_frames_per_s": drive_peak_fps,
            "wall_s": drive_s,
            "decode_errors": h.decode_errors,
            "encode_errors": h.encode_errors,
            "dropped_non_control": h.dropped_non_control,
        },
        "invariants": { "violations": violations.len(), "checked_members": live_members },
        "teardown": {
            "peak_frames_per_s": teardown_peak_fps,
            "converge_us": converge_us,
            "silent_us": silent.micros(),
        },
    });
    report.finding(format!(
        "{} live engines soaked through {} link flaps and {} crash/restarts under {} \
         join-sessions of churn: {} members severed and every one reattached (p50 {:.1} s, \
         p99 {:.1} s after the echo timeout), each fault's rib repair hard-asserted equal to \
         a from-scratch SPF, invariant checker clean at quiescence, and full teardown back \
         to fleet-wide silence with zero decode/encode errors.",
        n,
        committed_flaps,
        committed_crashes,
        total_joins,
        script.hist.count(),
        script.hist.quantile(0.50) as f64 / 1e6,
        script.hist.quantile(0.99) as f64 / 1e6,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::assert_golden_digest;

    /// Wall-clock and RSS readings: everything else in the tiny run's
    /// report is deterministic.
    const VOLATILE: [&str; 4] =
        ["regression.wall_ms", "fleet.build_ms", "fleet.rss_fleet_bytes", "drive.wall_s"];

    /// FNV-1a-64 of the tiny run's report minus [`VOLATILE`], under
    /// `CBT_SHARDS=1` and `=2`. The two differ only in wakeup counts
    /// (`drive.sim_events`, `obs.timer_lag_us.count`): every engine
    /// shard arms its own child-assert sweep and IFF scan clocks, so a
    /// 2-shard router wakes more often. Frames and trees are the same.
    const TINY_DIGESTS: [(usize, u64); 2] =
        [(1, 0x1215_58c1_21cd_d806), (2, 0x16ac_fc24_10a3_3f43)];

    #[test]
    fn tiny_soak_commits_faults_and_converges() {
        let p = Params::tiny();
        let r = run(&p);
        let j = &r.json;
        // The gates inside run() are the real assertions; reaching
        // the JSON means the faulted fleet converged, checker-clean.
        assert_eq!(j["invariants"]["violations"].as_u64().unwrap(), 0);
        assert_eq!(j["drive"]["decode_errors"].as_u64().unwrap(), 0);
        assert_eq!(j["drive"]["encode_errors"].as_u64().unwrap(), 0);
        assert_eq!(j["faults"].as_array().unwrap().len(), 3);
        assert!(j["committed"]["flaps"].as_u64().unwrap() >= 1);
        // Downed wire must actually have dropped frames.
        assert!(j["drive"]["dropped_link_down"].as_u64().unwrap() > 0);
        // Each committed fault repaired the rib twice (down + restore).
        assert!(j["drive"]["rib_version"].as_u64().unwrap() >= 2);
        assert!(!r.findings.is_empty());
        assert_golden_digest(&r, &VOLATILE, &TINY_DIGESTS);
    }

    #[test]
    fn regression_is_shard_invariant() {
        let p = Params::tiny();
        let a = fault_regression(p.regress_topo, p.groups, p.regress_members, Some(1), p.seed);
        let b = fault_regression(p.regress_topo, p.groups, p.regress_members, Some(2), p.seed);
        // Group-space sharding must not change a single observable of
        // the faulted run: same severed set, same convergence instant,
        // same frame counts, same silence.
        assert_eq!(a, b);
    }
}
