//! The workloads and the run that drives them.
//!
//! Every input is an open-loop schedule in simulated time generated
//! from the seed: membership events come from
//! `cbt_eval::membership::MembershipStream`, faults from a seeded
//! script. The timed drive is a fixed amount of simulated work, so
//! every count it produces is a pure function of `(workload, seed,
//! seconds)`; `--seconds` sizes it to about that many wall seconds on
//! a 2-core x86-64 box. See README.md for why each workload exists.

use crate::fleet::{rss_bytes, Fleet, Rng, GROUPS};
use crate::host;
use crate::probe::{self, Probe, SAMPLES};
use cbt::CbtConfig;
use cbt_eval::membership::{FlashCrowd, MembershipEvent, MembershipParams, MembershipStream};
use cbt_obs::CtlKind;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    JoinChurn,
    TreeHold,
    FaultRepair,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::JoinChurn, Workload::TreeHold, Workload::FaultRepair];

    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinChurn => "join-churn",
            Workload::TreeHold => "tree-hold",
            Workload::FaultRepair => "fault-repair",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Simulated seconds of timed drive per requested wall second.
const CHURN_SIM_PER_S: f64 = 8.0;
const HOLD_SIM_PER_S: f64 = 15.0;
/// Join-churn: session arrivals per simulated second, mean hold (below
/// the 3 s `fast` echo interval) and the flash crowd's share.
const CHURN_RATE: f64 = 2000.0;
const CHURN_HOLD_S: f64 = 1.0;
const FLASH_SHARE: f64 = 0.1;
/// The held set of tree-hold and fault-repair: sessions ramped in over
/// `RAMP_S`, then `RAMP_SETTLE_US` for the last joins to complete.
const RAMP_JOINS: usize = 12_000;
const RAMP_S: f64 = 20.0;
const RAMP_SETTLE_US: u64 = 10_000_000;
/// Fault-repair's script: flaps and crash/cold-restarts, evenly spread
/// over the first half of the drive. A flapped link stays down past the
/// 9 s echo timeout, so §6.1 detection fires before the restore.
const FLAPS: usize = 12;
const CRASHES: usize = 2;
const FLAP_HOLD_US: u64 = 25_000_000;
const CRASH_HOLD_US: u64 = 20_000_000;
/// The recovery probe of the workloads without faults: simultaneous
/// flaps on the held set after the timed drive, given at most
/// `PROBE_CAP_US` to recover.
const PROBE_FLAPS: usize = 12;
const PROBE_CAP_US: u64 = 60_000_000;
/// Sub-windows of the drive: the host factor, RSS and FIB size are
/// sampled at each boundary.
pub const WINDOWS: usize = 10;
/// Cadence of the rootedness poll while severed members are out.
pub const POLL_US: u64 = 50_000;
/// Run-out after a drive before the quiescence gates: after faults it
/// outlasts the 18 s child-assert expiry so reattachment residue ages
/// out; without faults it covers in-flight joins and quits.
const FAULT_SETTLE_US: u64 = 25_000_000;
const SETTLE_US: u64 = 5_000_000;

/// Members whose engine gave up re-express membership once per IGMP
/// query interval (`IgmpTimers::fast`), each router at its own phase:
/// routers fall into `QUERY_PHASES` classes by id, one class served
/// per tick of `query interval / QUERY_PHASES`.
const QUERY_PHASES: u64 = 10;

fn tick_us() -> u64 {
    CbtConfig::fast().igmp.query_interval_s * 1_000_000 / QUERY_PHASES
}

/// The seeded inputs of one run.
pub struct Schedule {
    pub ramp: Vec<MembershipEvent>,
    pub drive: Vec<MembershipEvent>,
    pub start_us: u64,
    pub end_us: u64,
    pub gen_s: f64,
}

fn ramp_events(pool: &[u32], seed: u64, offset_us: u64) -> Vec<MembershipEvent> {
    let p = MembershipParams {
        groups: GROUPS,
        horizon_s: RAMP_S,
        arrivals: RAMP_JOINS,
        hold_s: 1e12,
        diurnal_depth: 0.0,
        day_s: RAMP_S,
        hotspot_frac: 0.5,
        flash: None,
    };
    MembershipStream::new(&p, pool.to_vec(), seed ^ 0x7261_6d70)
        .map(|ev| match ev {
            MembershipEvent::Join { t_us, group, router } => {
                MembershipEvent::Join { t_us: t_us + offset_us, group, router }
            }
            MembershipEvent::Leave { t_us, group, router } => {
                MembershipEvent::Leave { t_us: t_us + offset_us, group, router }
            }
        })
        .collect()
}

fn schedule(w: Workload, seed: u64, seconds: u64, pool: &[u32]) -> Schedule {
    let t0 = Instant::now();
    let s = match w {
        Workload::JoinChurn => {
            let horizon_s = seconds as f64 * CHURN_SIM_PER_S;
            let arrivals = (horizon_s * CHURN_RATE) as usize;
            let p = MembershipParams {
                groups: GROUPS,
                horizon_s,
                arrivals,
                hold_s: CHURN_HOLD_S,
                diurnal_depth: 0.6,
                day_s: horizon_s,
                hotspot_frac: 0.5,
                flash: Some(FlashCrowd {
                    group: GROUPS as u32 / 2,
                    at_s: 0.6 * horizon_s,
                    joins: (FLASH_SHARE * arrivals as f64) as usize,
                    window_s: horizon_s / 40.0,
                    hold_s: CHURN_HOLD_S / 2.0,
                }),
            };
            Schedule {
                ramp: Vec::new(),
                drive: MembershipStream::new(&p, pool.to_vec(), seed).collect(),
                start_us: 0,
                end_us: (horizon_s * 1e6) as u64,
                gen_s: 0.0,
            }
        }
        Workload::TreeHold | Workload::FaultRepair => {
            let start_us = (RAMP_S * 1e6) as u64 + RAMP_SETTLE_US;
            Schedule {
                ramp: ramp_events(pool, seed, 0),
                drive: Vec::new(),
                start_us,
                end_us: start_us + (seconds as f64 * HOLD_SIM_PER_S * 1e6) as u64,
                gen_s: 0.0,
            }
        }
    };
    Schedule { gen_s: t0.elapsed().as_secs_f64(), ..s }
}

/// A fault-script step.
#[derive(Debug, Clone, Copy)]
enum Act {
    Flap,
    Crash,
    /// Undo the fault with this index (in script order).
    Restore(usize),
}

#[derive(Debug, Clone, Copy)]
enum Target {
    Edge(usize),
    Node(u32),
}

/// Fault-repair's script over `[start, end)`.
fn fault_plan(start_us: u64, end_us: u64) -> Vec<(u64, Act)> {
    let total = FLAPS + CRASHES;
    let gap = (end_us - start_us) / 2 / total as u64;
    let mut plan = Vec::with_capacity(2 * total);
    for i in 0..total {
        let crash = ((i + 1) * CRASHES) / total > (i * CRASHES) / total;
        let t = start_us + 1_000_000 + i as u64 * gap;
        let (act, hold) =
            if crash { (Act::Crash, CRASH_HOLD_US) } else { (Act::Flap, FLAP_HOLD_US) };
        plan.push((t, act));
        plan.push((t + hold, Act::Restore(i)));
    }
    plan.sort_by_key(|&(t, _)| t);
    plan
}

/// One drive sub-window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub wall_s: f64,
    pub events: u64,
    pub sim_s: f64,
    /// Host speed factor measured at the window's end.
    pub host: f64,
}

/// World counters at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub events: u64,
    pub frames: u64,
    pub bytes: u64,
    pub dropped_link_down: u64,
    pub dropped_node_down: u64,
}

impl Counters {
    fn of<const T: bool>(f: &Fleet<T>) -> Counters {
        let t = &f.world.trace;
        Counters {
            events: t.events,
            frames: t.frames,
            bytes: t.bytes,
            dropped_link_down: t.dropped_link_down,
            dropped_node_down: t.dropped_node_down,
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            events: self.events - before.events,
            frames: self.frames - before.frames,
            bytes: self.bytes - before.bytes,
            dropped_link_down: self.dropped_link_down - before.dropped_link_down,
            dropped_node_down: self.dropped_node_down - before.dropped_node_down,
        }
    }
}

/// Everything one run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Host speed factor measured after each set-up.
    pub setup_host: Vec<f64>,
    pub gen_s: f64,
    pub idle_rss_bytes: u64,
    pub windows: Vec<Window>,
    pub drive_wall_s: f64,
    pub drive_allocs: u64,
    pub drive: Counters,
    /// Digest of the drive's deterministic counts and samples.
    pub drive_digest: u64,
    pub kinds: [u64; CtlKind::COUNT],
    pub peak_rss_bytes: u64,
    pub peak_fib: u64,
    pub fib_at_end: u64,
    pub join_us: Vec<u64>,
    pub recovery_us: Vec<u64>,
    pub schedule_events: u64,
    pub join_sessions: u64,
    pub severed: u64,
    pub reexpressions: u64,
    pub repairs: u64,
    pub touched: u64,
    pub abandoned: u64,
    pub detached: u64,
    pub owed: u64,
    pub adapter_errors: [u64; 3],
    pub violations: Vec<String>,
    pub teardown: Result<(), String>,
    pub gates_s: f64,
    pub probe: Option<Probe>,
}

/// The live run: the fleet plus the fault, recovery and window
/// bookkeeping the schedule needs.
struct Run<const T: bool> {
    fleet: Fleet<T>,
    rng: Rng,
    /// The fault script and the index of its next step.
    plan: Vec<(u64, Act)>,
    plan_at: usize,
    targets: Vec<Option<Target>>,
    /// Severed member → fault instant.
    outstanding: BTreeMap<(usize, u32), u64>,
    recovery_us: Vec<u64>,
    severed: u64,
    next_poll: u64,
    next_tick: Option<u64>,
    windows: Vec<Window>,
    peak_rss: u64,
    peak_fib: u64,
}

impl<const T: bool> Run<T> {
    fn now_us(&self) -> u64 {
        self.fleet.world.now().micros()
    }

    fn member_event(&mut self, ev: &MembershipEvent) {
        match *ev {
            MembershipEvent::Join { group, router, .. } => self.fleet.join(group as usize, router),
            MembershipEvent::Leave { group, router, .. } => {
                self.fleet.leave(group as usize, router)
            }
        }
    }

    fn act(&mut self, act: Act) {
        match act {
            Act::Flap => {
                let k = self.fleet.pick_flap(&mut self.rng);
                self.targets.push(k.map(Target::Edge));
                if let Some(k) = k {
                    self.fleet.set_edge(k, false);
                    self.snapshot_severed();
                }
            }
            Act::Crash => {
                let r = self.fleet.pick_crash(&mut self.rng);
                self.targets.push(r.map(Target::Node));
                if let Some(r) = r {
                    self.fleet.crash(r);
                    self.snapshot_severed();
                }
            }
            Act::Restore(i) => match self.targets[i] {
                Some(Target::Edge(k)) => self.fleet.set_edge(k, true),
                Some(Target::Node(r)) => self.fleet.restart(r),
                None => {}
            },
        }
    }

    /// Tracks every settled member the fault just cut off. Members of
    /// a crashed router are down with it, not severed: they re-express
    /// after its restart.
    fn snapshot_severed(&mut self) {
        let now = self.now_us();
        if self.outstanding.is_empty() {
            self.next_poll = now + POLL_US;
        }
        for (gi, r) in self.fleet.detached(true) {
            if self.fleet.world.is_node_up(r) && !self.outstanding.contains_key(&(gi, r)) {
                self.outstanding.insert((gi, r), now);
                self.severed += 1;
            }
        }
    }

    fn poll(&mut self) {
        let now = self.now_us();
        self.fleet.begin_poll();
        let out: Vec<((usize, u32), u64)> =
            self.outstanding.iter().map(|(&k, &v)| (k, v)).collect();
        for ((gi, r), t0) in out {
            if !self.fleet.members[gi].contains_key(&r) {
                self.outstanding.remove(&(gi, r));
            } else if self.fleet.rooted(gi, r) {
                self.recovery_us.push(now - t0);
                self.outstanding.remove(&(gi, r));
            }
        }
        self.next_poll = now + POLL_US;
    }

    fn close_window(&mut self, sim_s: f64, mark: &mut (f64, u64)) {
        let (wall, events) = (self.fleet.clock.wall_s, self.fleet.world.trace.events);
        let host = host::factor();
        self.windows.push(Window { wall_s: wall - mark.0, events: events - mark.1, sim_s, host });
        *mark = (wall, events);
        self.peak_rss = self.peak_rss.max(rss_bytes().saturating_sub(host::RESIDENT_BYTES));
        self.peak_fib = self.peak_fib.max(self.fleet.fib_entries());
    }

    /// Runs the world to `end_us`, serving in time order the membership
    /// events, the fault script, the re-expression ticks, the recovery
    /// polls and (when `windows` is set) the drive's window boundaries.
    /// With `until_recovered` it stops at the first poll that finds no
    /// severed member left.
    fn segment(
        &mut self,
        end_us: u64,
        events: &[MembershipEvent],
        windows: Option<u64>,
        until_recovered: bool,
    ) {
        let mut ei = 0;
        let start = self.now_us();
        let end_us = end_us.max(start);
        let win_len = windows.map(|n| (end_us - start) / n);
        let mut win_next = win_len.map(|l| start + l);
        let mut mark = (self.fleet.clock.wall_s, self.fleet.world.trace.events);
        loop {
            let poll = (!self.outstanding.is_empty()).then_some(self.next_poll);
            let next = [
                events.get(ei).map(MembershipEvent::time_us),
                self.plan.get(self.plan_at).map(|&(t, _)| t),
                win_next,
                self.next_tick,
                poll,
            ]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(u64::MAX);
            if next > end_us {
                self.fleet.run_until(end_us);
                break;
            }
            self.fleet.run_until(next);
            if win_next == Some(next) {
                let len = win_len.expect("windowed");
                self.close_window(len as f64 / 1e6, &mut mark);
                win_next =
                    (self.windows.len() < windows.unwrap_or(0) as usize).then_some(next + len);
            }
            while self.plan_at < self.plan.len() && self.plan[self.plan_at].0 == next {
                self.act(self.plan[self.plan_at].1);
                self.plan_at += 1;
            }
            if self.next_tick == Some(next) {
                let phase = (next / tick_us()) % QUERY_PHASES;
                self.fleet.reexpress(phase as u32, QUERY_PHASES as u32);
                self.next_tick = Some(next + tick_us());
            }
            while ei < events.len() && events[ei].time_us() == next {
                self.member_event(&events[ei]);
                ei += 1;
            }
            if poll == Some(next) {
                self.poll();
                if until_recovered && self.outstanding.is_empty() {
                    break;
                }
            }
        }
    }

    /// Runs out `us`, then counts members not rooted and joins never
    /// answered.
    fn settle(&mut self, us: u64) -> (u64, u64) {
        let end = self.now_us() + us;
        self.segment(end, &[], None, false);
        (self.fleet.detached(false).len() as u64, self.fleet.owed_joins())
    }

    /// The recovery probe of the workloads without faults: flap
    /// `PROBE_FLAPS` links of the held set at once, run until every
    /// severed member is rooted again (or `PROBE_CAP_US`), restore.
    fn recovery_probe(&mut self) {
        let t = self.now_us() + 1_000_000;
        self.plan = (0..PROBE_FLAPS).map(|_| (t, Act::Flap)).collect();
        self.plan_at = 0;
        self.next_tick = Some(t + tick_us());
        self.segment(t, &[], None, false);
        self.segment(t + PROBE_CAP_US, &[], None, true);
        for i in 0..PROBE_FLAPS {
            self.act(Act::Restore(i));
        }
    }
}

fn build<const T: bool>(w: Workload, seed: u64, seconds: u64) -> (Fleet<T>, Schedule, u64) {
    SAMPLES.with(|s| s.borrow_mut().join_us.clear());
    let built = Fleet::<T>::build();
    let mut fleet = built.fleet;
    let sched = schedule(w, seed, seconds, &fleet.pool());
    for ev in &sched.ramp {
        fleet.run_until(ev.time_us());
        match *ev {
            MembershipEvent::Join { group, router, .. } => fleet.join(group as usize, router),
            MembershipEvent::Leave { group, router, .. } => fleet.leave(group as usize, router),
        }
    }
    fleet.run_until(sched.start_us);
    (fleet, sched, built.idle_rss_bytes)
}

fn joins_in(events: &[MembershipEvent]) -> u64 {
    events.iter().filter(|e| matches!(e, MembershipEvent::Join { .. })).count() as u64
}

fn take_join_samples() -> Vec<u64> {
    SAMPLES.with(|s| std::mem::take(&mut s.borrow_mut().join_us))
}

/// FNV-1a over `words`: the digest of the counts a run must reproduce.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in words {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Sets up `setups` times (the last fleet is driven), drives the timed
/// window, then, unless `drive_only`, runs the gates.
pub fn execute<const T: bool>(
    w: Workload,
    seed: u64,
    seconds: u64,
    setups: usize,
    drive_only: bool,
) -> Outcome {
    let mut setup_s = Vec::with_capacity(setups);
    let mut setup_host = Vec::with_capacity(setups);
    let mut idle_rss_bytes = 0;
    let mut last = None;
    for k in 0..setups.max(1) {
        drop(last.take());
        if T {
            probe::reset();
        }
        let t0 = Instant::now();
        let (fleet, sched, idle) = build::<T>(w, seed, seconds);
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_host.push(host::factor());
        if k == 0 {
            idle_rss_bytes = idle;
        }
        last = Some((fleet, sched));
    }
    let (fleet, sched) = last.expect("at least one setup");
    let ramp_joins = take_join_samples();

    let mut run = Run {
        fleet,
        rng: Rng::new(seed ^ 0xfa17),
        plan: Vec::new(),
        plan_at: 0,
        targets: Vec::new(),
        outstanding: BTreeMap::new(),
        recovery_us: Vec::new(),
        severed: 0,
        next_poll: 0,
        next_tick: None,
        windows: Vec::with_capacity(WINDOWS),
        peak_rss: 0,
        peak_fib: 0,
    };
    if w == Workload::FaultRepair {
        run.next_tick = Some(sched.start_us + tick_us());
        run.plan = fault_plan(sched.start_us, sched.end_us);
    }

    // --- The timed drive. ---
    SAMPLES.with(|s| s.borrow_mut().join_us.reserve(sched.drive.len()));
    let kinds0 = run.fleet.frames_by_kind();
    let c0 = Counters::of(&run.fleet);
    if T {
        probe::restart_counts();
    }
    run.fleet.clock = crate::fleet::Clock { on: true, ..Default::default() };
    run.segment(sched.end_us, &sched.drive, Some(WINDOWS as u64), false);
    run.fleet.clock.on = false;
    let probe_figures = T.then(|| probe::with(Probe::clone));
    let drive = Counters::of(&run.fleet).since(c0);
    let kinds1 = run.fleet.frames_by_kind();
    let kinds: [u64; CtlKind::COUNT] = std::array::from_fn(|k| kinds1[k] - kinds0[k]);
    let fib_at_end = run.fleet.fib_entries();
    let join_us = if w == Workload::JoinChurn { take_join_samples() } else { ramp_joins };
    let join_sessions = joins_in(if w == Workload::JoinChurn { &sched.drive } else { &sched.ramp });
    let f = &run.fleet;
    let d = drive;
    let drive_digest = digest(
        [d.events, d.frames, d.bytes, d.dropped_link_down, d.dropped_node_down]
            .into_iter()
            .chain(kinds)
            .chain(join_us.iter().copied())
            .chain(run.recovery_us.iter().copied())
            .chain([f.clock.allocs, run.severed, f.reexpressions, f.repairs, f.touched]),
    );
    let mut out = Outcome {
        setup_s,
        setup_host,
        gen_s: sched.gen_s,
        idle_rss_bytes,
        windows: std::mem::take(&mut run.windows),
        drive_wall_s: run.fleet.clock.wall_s,
        drive_allocs: run.fleet.clock.allocs,
        drive,
        drive_digest,
        kinds,
        peak_rss_bytes: run.peak_rss,
        peak_fib: run.peak_fib.max(fib_at_end),
        fib_at_end,
        join_us,
        recovery_us: Vec::new(),
        schedule_events: (sched.ramp.len() + sched.drive.len()) as u64,
        join_sessions,
        severed: run.severed,
        reexpressions: run.fleet.reexpressions,
        repairs: run.fleet.repairs,
        touched: run.fleet.touched,
        abandoned: 0,
        detached: 0,
        owed: 0,
        adapter_errors: [0; 3],
        violations: Vec::new(),
        teardown: Ok(()),
        gates_s: 0.0,
        probe: probe_figures,
    };
    if drive_only {
        return out;
    }

    // --- Quiescence gates, then the recovery probe, then teardown. ---
    let g0 = Instant::now();
    // Restores the drive left pending run first.
    if let Some(&(t, _)) = run.plan.get(run.plan_at..).and_then(<[_]>::last) {
        run.segment(t, &[], None, false);
    }
    let settle = if w == Workload::FaultRepair { FAULT_SETTLE_US } else { SETTLE_US };
    let (mut detached, mut owed) = run.settle(settle);
    let violations: Vec<String> =
        run.fleet.check_invariants().iter().map(|v| format!("{v:?}")).collect();
    let mut gates_s = g0.elapsed().as_secs_f64();
    if w != Workload::FaultRepair {
        if w == Workload::JoinChurn {
            let now = run.now_us();
            let ramp = ramp_events(&run.fleet.pool(), seed, now + 1_000);
            let end = ramp.last().map_or(now, MembershipEvent::time_us) + RAMP_SETTLE_US;
            run.segment(end, &ramp, None, false);
        }
        run.recovery_probe();
        let (d, o) = run.settle(SETTLE_US);
        detached += d;
        owed += o;
        take_join_samples();
    }
    let g1 = Instant::now();
    let adapter_errors = run.fleet.adapter_errors();
    let teardown = run.fleet.teardown();
    gates_s += g1.elapsed().as_secs_f64() + run.fleet.spf_gate_s;

    out.recovery_us = run.recovery_us;
    out.severed = run.severed;
    out.reexpressions = run.fleet.reexpressions;
    out.repairs = run.fleet.repairs;
    out.touched = run.fleet.touched;
    out.abandoned = run.fleet.abandoned;
    out.detached = detached;
    out.owed = owed;
    out.adapter_errors = adapter_errors;
    out.violations = violations;
    out.teardown = teardown;
    out.gates_s = gates_s;
    out
}
