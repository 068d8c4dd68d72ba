//! Tracing from outside the program: spans and counts recorded around
//! calls into each layer's public functions.
//!
//! * [`Node`] wraps a [`P2pNode`] as the world's [`NsNode`]. Untraced
//!   (`T = false`) it calls `P2pNode::on_frame`/`on_timer` unchanged;
//!   traced it replays the same sequence — `ControlMessage::decode`,
//!   `ShardedRouter::handle_control`, `P2pNode::deliver` — with a span
//!   around each step.
//! * [`TracedRoutes`] wraps [`FleetRoutes`] and is handed to the
//!   engines through the `ShardedRouter::p2p` route factory (traced
//!   runs only; untraced fleets get `FleetRoutes` itself).
//! * The workload loop opens spans around `NetscaleWorld::run_until`,
//!   membership injection and `FleetRib::apply_*`.
//!
//! A span's *self* time, allocations and net live bytes exclude its
//! children, so per-layer self figures add up to the traced drive.
//! Call counts are exact; full span records are kept only for one
//! event in [`SAMPLE_EVERY`], in a buffer sized before the drive, so
//! tracing itself allocates nothing while it measures.

use crate::alloc;
use cbt::{FleetRoutes, P2pNode, RouteLookup, RouterAction};
use cbt_netsim::{NsNode, NsOutbox, SimTime};
use cbt_routing::Hop;
use cbt_topology::IfIndex;
use cbt_wire::{Addr, ControlMessage, GroupId};
use std::cell::RefCell;
use std::time::Instant;

/// Span kinds. The eight control kinds sit at `CTL + k` in
/// [`cbt_obs::CtlKind`] order.
pub const WORLD: usize = 0;
pub const MEMBERSHIP: usize = 1;
pub const ADAPTER_FRAME: usize = 2;
pub const ADAPTER_TIMER: usize = 3;
pub const DELIVER: usize = 4;
pub const DECODE: usize = 5;
pub const CTL: usize = 6;
pub const ENGINE_TIMER: usize = 14;
pub const NEXT_WAKEUP: usize = 15;
pub const LOCAL_JOIN: usize = 16;
pub const LOCAL_LEAVE: usize = 17;
pub const RIB_LOOKUP: usize = 18;
pub const RIB_REPAIR: usize = 19;
pub const SPANS: usize = 20;

/// Span names, as written to the span file.
pub const SPAN_NAMES: [&str; SPANS] = [
    "world.loop",
    "membership.settle_joins",
    "adapter.on_frame",
    "adapter.on_timer",
    "adapter.deliver",
    "wire.decode",
    "engine.join_request",
    "engine.join_ack",
    "engine.join_nack",
    "engine.quit_request",
    "engine.quit_ack",
    "engine.echo_request",
    "engine.echo_reply",
    "engine.flush_tree",
    "engine.on_timer",
    "engine.next_wakeup",
    "engine.local_join",
    "engine.local_leave",
    "rib.lookup",
    "rib.repair",
];

/// Full span records are kept for one event in this many.
pub const SAMPLE_EVERY: u64 = 256;
/// Upper bound on kept span records.
const RECORD_CAP: usize = 200_000;
const MAX_DEPTH: usize = 8;

/// Accumulated self figures of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
    pub live: i64,
}

/// One kept span: which event it belongs to, where it sat and when.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub event: u64,
    pub span: u8,
    pub parent: u8,
    pub depth: u8,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Clone, Copy)]
struct Open {
    span: usize,
    t0: u64,
    a0: u64,
    live0: i64,
    child_ns: u64,
    child_allocs: u64,
    child_live: i64,
}

const CLOSED: Open =
    Open { span: 0, t0: 0, a0: 0, live0: 0, child_ns: 0, child_allocs: 0, child_live: 0 };

/// Everything a traced run measures per layer.
#[derive(Clone)]
pub struct Probe {
    pub acc: [Acc; SPANS],
    /// Actions returned by engine entry points.
    pub actions: u64,
    /// `on_timer` calls that returned at least one action.
    pub useful_timers: u64,
    /// Frames `P2pNode::deliver` was handed.
    pub frames_out: u64,
    /// Route lookups that found no route.
    pub rib_misses: u64,
    /// Nodes re-settled by rib repairs.
    pub rib_touched: u64,
    /// Node callbacks seen (the span-sampling clock).
    pub events: u64,
    pub records: Vec<Record>,
    stack: [Open; MAX_DEPTH],
    depth: usize,
    sampling: bool,
    base: Option<Instant>,
}

impl Probe {
    const fn new() -> Self {
        Probe {
            acc: [Acc { calls: 0, ns: 0, allocs: 0, live: 0 }; SPANS],
            actions: 0,
            useful_timers: 0,
            frames_out: 0,
            rib_misses: 0,
            rib_touched: 0,
            events: 0,
            records: Vec::new(),
            stack: [CLOSED; MAX_DEPTH],
            depth: 0,
            sampling: false,
            base: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.map_or(0, |b| b.elapsed().as_nanos() as u64)
    }

    fn enter(&mut self, span: usize) {
        if span == ADAPTER_FRAME || span == ADAPTER_TIMER {
            self.events += 1;
            self.sampling = self.events.is_multiple_of(SAMPLE_EVERY);
        }
        assert!(self.depth < MAX_DEPTH, "span stack overflow");
        self.stack[self.depth] = Open {
            span,
            t0: self.now_ns(),
            a0: alloc::allocs(),
            live0: alloc::live_bytes(),
            child_ns: 0,
            child_allocs: 0,
            child_live: 0,
        };
        self.depth += 1;
    }

    fn exit(&mut self) {
        let t1 = self.now_ns();
        let (a1, live1) = (alloc::allocs(), alloc::live_bytes());
        self.depth -= 1;
        let o = self.stack[self.depth];
        let (dur, da, dl) = (t1 - o.t0, a1 - o.a0, live1 - o.live0);
        let acc = &mut self.acc[o.span];
        acc.calls += 1;
        acc.ns += dur.saturating_sub(o.child_ns);
        acc.allocs += da - o.child_allocs;
        acc.live += dl - o.child_live;
        let parent = if self.depth > 0 {
            let p = &mut self.stack[self.depth - 1];
            p.child_ns += dur;
            p.child_allocs += da;
            p.child_live += dl;
            p.span
        } else {
            o.span
        };
        if self.sampling && self.records.len() < self.records.capacity() {
            self.records.push(Record {
                event: self.events,
                span: o.span as u8,
                parent: parent as u8,
                depth: self.depth as u8,
                start_ns: o.t0,
                dur_ns: dur,
            });
        }
        if o.span == ADAPTER_FRAME || o.span == ADAPTER_TIMER {
            self.sampling = false;
        }
    }
}

thread_local! {
    static PROBE: RefCell<Probe> = const { RefCell::new(Probe::new()) };
}

/// Clears every figure and sizes the span buffer. Call before a traced
/// drive, outside its timed window.
pub fn reset() {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        let records = std::mem::take(&mut p.records);
        *p = Probe::new();
        p.records = records;
        p.records.clear();
        p.records.reserve(RECORD_CAP);
        p.base = Some(Instant::now());
    });
}

/// Zeroes the counters but keeps each span kind's net live bytes, so
/// state built before the timed window (a ramp) stays attributed.
pub fn restart_counts() {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        for a in p.acc.iter_mut() {
            *a = Acc { live: a.live, ..Acc::default() };
        }
        p.actions = 0;
        p.useful_timers = 0;
        p.frames_out = 0;
        p.rib_misses = 0;
        p.rib_touched = 0;
        p.records.clear();
    });
}

/// Reads the probe.
pub fn with<R>(f: impl FnOnce(&Probe) -> R) -> R {
    PROBE.with(|p| f(&p.borrow()))
}

fn bump(f: impl FnOnce(&mut Probe)) {
    PROBE.with(|p| f(&mut p.borrow_mut()));
}

/// Runs `f` inside a span of kind `span`.
pub fn span<R>(span: usize, f: impl FnOnce() -> R) -> R {
    PROBE.with(|p| p.borrow_mut().enter(span));
    let r = f();
    PROBE.with(|p| p.borrow_mut().exit());
    r
}

/// Runs `f` inside a span only when `T` (traced) is set.
pub fn span_if<const T: bool, R>(kind: usize, f: impl FnOnce() -> R) -> R {
    if T {
        span(kind, f)
    } else {
        f()
    }
}

/// Counts a rib repair's re-settled nodes.
pub fn note_touched(n: u64) {
    bump(|p| p.rib_touched += n);
}

/// Index of a control message's kind in [`cbt_obs::CtlKind`] order.
pub fn kind_of(msg: &ControlMessage) -> usize {
    match msg {
        ControlMessage::JoinRequest { .. } => 0,
        ControlMessage::JoinAck { .. } => 1,
        ControlMessage::JoinNack { .. } => 2,
        ControlMessage::QuitRequest { .. } => 3,
        ControlMessage::QuitAck { .. } => 4,
        ControlMessage::EchoRequest { .. } => 5,
        ControlMessage::EchoReply { .. } => 6,
        ControlMessage::FlushTree { .. } => 7,
    }
}

/// Ships engine actions through `P2pNode::deliver`, traced when `T`.
pub fn deliver<const T: bool>(p2p: &mut P2pNode, act: Vec<RouterAction>, out: &mut NsOutbox) {
    if T {
        let frames =
            act.iter().filter(|a| matches!(a, RouterAction::SendControl { .. })).count() as u64;
        bump(|p| {
            p.actions += act.len() as u64;
            p.frames_out += frames;
        });
        span(DELIVER, || p2p.deliver(act, out));
    } else {
        p2p.deliver(act, out);
    }
}

/// Join-latency samples (µs of simulated time), recorded by [`Node`]
/// the instant a joining router is on-tree with no pending join.
pub struct Samples {
    pub join_us: Vec<u64>,
}

thread_local! {
    pub static SAMPLES: RefCell<Samples> = const { RefCell::new(Samples { join_us: Vec::new() }) };
}

/// A fleet router as the world sees it: the program's [`P2pNode`]
/// plus the joins it still owes an answer.
pub struct Node<const T: bool> {
    pub p2p: P2pNode,
    /// `(group, local_join instant)` not yet on-tree.
    pub joins: Vec<(GroupId, SimTime)>,
}

impl<const T: bool> Node<T> {
    pub fn new(p2p: P2pNode) -> Self {
        Node { p2p, joins: Vec::new() }
    }

    /// Records every owed join that has completed by `now`.
    pub fn settle_joins(&mut self, now: SimTime) {
        if self.joins.is_empty() {
            return;
        }
        let r = &self.p2p.router;
        self.joins.retain(|&(g, t0)| {
            let done = r.is_on_tree(g) && !r.has_pending_join(g);
            if done {
                SAMPLES.with(|s| s.borrow_mut().join_us.push(now.micros() - t0.micros()));
            }
            !done
        });
    }

    fn traced_frame(&mut self, now: SimTime, iface: u32, frame: &[u8], out: &mut NsOutbox) {
        span(ADAPTER_FRAME, || {
            if frame.len() < 4 {
                self.p2p.decode_errors += 1;
                return;
            }
            let src = Addr::from_octets(frame[0], frame[1], frame[2], frame[3]);
            let Ok(msg) = span(DECODE, || ControlMessage::decode(&frame[4..])) else {
                self.p2p.decode_errors += 1;
                return;
            };
            let k = kind_of(&msg);
            let router = &mut self.p2p.router;
            let act = span(CTL + k, || router.handle_control(now, IfIndex(iface), src, msg));
            deliver::<true>(&mut self.p2p, act, out);
        });
    }

    fn traced_timer(&mut self, now: SimTime, out: &mut NsOutbox) {
        span(ADAPTER_TIMER, || {
            let router = &mut self.p2p.router;
            let act = span(ENGINE_TIMER, || router.on_timer(now));
            if !act.is_empty() {
                bump(|p| p.useful_timers += 1);
            }
            deliver::<true>(&mut self.p2p, act, out);
        });
    }
}

impl<const T: bool> NsNode for Node<T> {
    fn on_frame(&mut self, now: SimTime, iface: u32, frame: &[u8], out: &mut NsOutbox) {
        if T {
            self.traced_frame(now, iface, frame, out);
            if !self.joins.is_empty() {
                span(MEMBERSHIP, || self.settle_joins(now));
            }
        } else {
            self.p2p.on_frame(now, iface, frame, out);
            self.settle_joins(now);
        }
    }

    fn on_timer(&mut self, now: SimTime, out: &mut NsOutbox) {
        if T {
            self.traced_timer(now, out);
            if !self.joins.is_empty() {
                span(MEMBERSHIP, || self.settle_joins(now));
            }
        } else {
            self.p2p.on_timer(now, out);
            self.settle_joins(now);
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        span_if::<T, _>(NEXT_WAKEUP, || self.p2p.next_wakeup())
    }
}

/// [`FleetRoutes`] with a span and a miss count around every lookup.
pub struct TracedRoutes(pub FleetRoutes);

impl RouteLookup for TracedRoutes {
    fn hop_toward(&self, dst: Addr) -> Option<Hop> {
        let hop = span(RIB_LOOKUP, || self.0.hop_toward(dst));
        if hop.is_none() {
            bump(|p| p.rib_misses += 1);
        }
        hop
    }
}
