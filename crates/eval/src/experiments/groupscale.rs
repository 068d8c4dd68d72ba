//! Impl-1 — timer service scaling: per-wakeup cost of the
//! hierarchical timer wheel as resident group state grows.
//!
//! The timer wheel keys each deadline once, so a wakeup costs O(entries
//! actually due) rather than O(groups). This experiment drives one leaf
//! router to N group memberships (staggered so echo deadlines spread
//! over the whole §9 echo interval), then measures the wall cost of the
//! `next_wakeup` + `on_timer` pair over a multi-interval window. The
//! schedule itself (wakeups, actions) is deterministic and pinned for
//! the unit-test and `--quick` sizes. EXPERIMENTS.md keeps the
//! historical comparison against a scan-every-tick service.

use crate::report::Report;
use cbt::{CbtConfig, CbtRouter};
use cbt_metrics::{table::f, Table};
use cbt_netsim::{SimDuration, SimTime};
use cbt_routing::Hop;
use cbt_topology::{HostId, IfIndex, NetworkBuilder, NetworkSpec};
use cbt_wire::{AckSubcode, Addr, ControlMessage, GroupId, IgmpMessage};
use serde_json::json;
use std::collections::BTreeMap;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Group counts to sweep.
    pub sizes: Vec<usize>,
    /// Seconds of timer activity to measure once all joins settle.
    pub measure_secs: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params { sizes: vec![100, 1000, 10_000], measure_secs: 120 }
    }
}

impl Params {
    /// Small preset for tests/benches.
    pub fn quick() -> Self {
        Params { sizes: vec![100, 1000], measure_secs: 60 }
    }
}

/// What one driven run measured.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunStats {
    /// `next_wakeup` + `on_timer` invocations inside the window.
    wakeups: u64,
    /// Wall nanoseconds spent inside those invocations.
    timer_ns: u128,
    /// Actions the timer path emitted inside the window.
    timer_actions: u64,
}

/// Structural fingerprint: everything except wall time.
fn shape(s: &RunStats) -> (u64, u64) {
    (s.wakeups, s.timer_actions)
}

/// Committed `(groups, measure_secs) → (wakeups, timer_actions)`
/// schedules: the unit-test drive and the `--quick` sizes. They were
/// recorded while the engine still carried its scan-every-tick timer
/// service and asserted equal to that reference.
const PINNED_SHAPES: [((usize, u64), (u64, u64)); 3] =
    [((64, 40), (86, 86)), ((100, 60), (202, 201)), ((1000, 60), (2002, 2001))];

/// The committed schedule for a `(groups, measure_secs)` drive, if any.
fn pinned_shape(n: usize, measure_secs: u64) -> Option<(u64, u64)> {
    PINNED_SHAPES.iter().find(|(k, _)| *k == (n, measure_secs)).map(|(_, v)| *v)
}

/// Drives one leaf router to `n` memberships and measures the timer
/// path. ME sits on a stub LAN (if0) with one host and a p2p link (if1)
/// to UP, which plays both unicast next hop and tree parent: it acks
/// every join and answers every echo, so ME holds `n` FIB entries with
/// a live parent — the resident state the timer service must not pay
/// for per wakeup.
fn drive(n: usize, measure_secs: u64) -> RunStats {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let up = b.router("UP");
    let lan = b.lan("S0");
    b.attach(lan, me);
    b.host("H", lan);
    b.link(me, up, 1);
    let net: NetworkSpec = b.build();

    let core = net.router_addr(up);
    let host = net.host_addr(HostId(0));
    let lan_if = IfIndex(0);
    let up_if = IfIndex(1);
    let up_peer = Addr::from_octets(172, 31, 0, 2);
    let routes = BTreeMap::from([(core, Hop { iface: up_if, router: up, addr: up_peer, dist: 1 })]);

    let cfg = CbtConfig::default();
    let echo_us = cfg.echo_interval.micros();
    let mut eng = CbtRouter::new(&net, me, cfg, Box::new(routes), SimTime::ZERO);

    // Stagger the n joins across one full echo interval so per-group
    // echo deadlines spread out instead of piling onto one instant.
    let mut joins: Vec<(SimTime, GroupId)> = (0..n)
        .map(|i| {
            let t = SimTime::from_micros(1_000_000 + (i as u64 * echo_us) / n as u64);
            (t, GroupId::numbered(i as u16))
        })
        .collect();
    joins.reverse(); // pop() yields earliest first

    let measure_start = SimTime::from_micros(1_000_000 + echo_us);
    let measure_end = measure_start + SimDuration::from_secs(measure_secs);
    let mut stats = RunStats { wakeups: 0, timer_ns: 0, timer_actions: 0 };

    // UP's half of the conversation: ack joins, answer echoes. Neither
    // is timed — only the timer path under test is.
    let respond = |eng: &mut CbtRouter, now: SimTime, acts: &[cbt::RouterAction]| {
        for a in acts {
            let cbt::RouterAction::SendControl { iface, msg, .. } = a else { continue };
            if *iface != up_if {
                continue;
            }
            match msg {
                ControlMessage::JoinRequest { group, origin, target_core, cores, .. } => {
                    let ack = ControlMessage::JoinAck {
                        subcode: AckSubcode::Normal,
                        group: *group,
                        origin: *origin,
                        target_core: *target_core,
                        cores: cores.clone(),
                    };
                    eng.handle_control(now, up_if, up_peer, ack);
                }
                ControlMessage::EchoRequest { group, group_mask, .. } => {
                    let reply = ControlMessage::EchoReply {
                        group: *group,
                        origin: up_peer,
                        group_mask: *group_mask,
                    };
                    eng.handle_control(now, up_if, up_peer, reply);
                }
                _ => {}
            }
        }
    };

    loop {
        let next_join = joins.last().map(|(t, _)| *t);
        let next_timer = eng.next_wakeup();
        let now = match (next_join, next_timer) {
            (Some(j), Some(t)) => j.min(t),
            (Some(j), None) => j,
            (None, Some(t)) => t,
            (None, None) => break,
        };
        if now > measure_end {
            break;
        }
        // Timers first at ties, then the join input.
        if next_timer.is_some_and(|t| t <= now) {
            let in_window = now >= measure_start;
            let t0 = std::time::Instant::now();
            // The pair the simulator pays per wakeup: the reschedule
            // peek plus the due-work dispatch.
            let _ = eng.next_wakeup();
            let acts = eng.on_timer(now);
            let dt = t0.elapsed().as_nanos();
            if in_window {
                stats.wakeups += 1;
                stats.timer_ns += dt;
                stats.timer_actions += acts.len() as u64;
            }
            respond(&mut eng, now, &acts);
        } else {
            let (t, group) = joins.pop().expect("join input due");
            eng.learn_cores(group, &[core]);
            let acts = eng.handle_igmp(t, lan_if, host, IgmpMessage::Report { version: 2, group });
            respond(&mut eng, t, &acts);
        }
    }
    assert_eq!(eng.fib().len(), n, "all {n} groups must be on-tree with a live parent");
    stats
}

/// Runs the experiment.
pub fn run(p: &Params) -> Report {
    let mut report = Report::new("Impl-1", "timer service: per-wakeup cost vs group count");
    let mut table = Table::new(["groups", "wakeups", "timer ms", "µs/wakeup", "timer events/s"]);
    let mut rows_json = Vec::new();
    let mut fig =
        cbt_metrics::BarChart::new("Figure Impl-1: µs per timer wakeup vs group count".to_string())
            .unit(" µs");

    for &n in &p.sizes {
        let s = drive(n, p.measure_secs);
        if let Some(pinned) = pinned_shape(n, p.measure_secs) {
            assert_eq!(shape(&s), pinned, "n={n}: schedule differs from the committed one");
        }
        let ms = s.timer_ns as f64 / 1.0e6;
        let us = if s.wakeups == 0 { 0.0 } else { s.timer_ns as f64 / 1.0e3 / s.wakeups as f64 };
        let eps = if ms == 0.0 { 0.0 } else { s.timer_actions as f64 / (ms / 1.0e3) };
        table.row([n.to_string(), s.wakeups.to_string(), f(ms), f(us), f(eps)]);
        rows_json.push(json!({
            "groups": n,
            "wakeups": s.wakeups,
            "timer_wall_ms": ms,
            "us_per_wakeup": us,
            "timer_actions": s.timer_actions,
            "events_per_s": eps,
        }));
        fig.bar(format!("G={n}"), us);
    }

    report.table(
        format!(
            "per-wakeup timer cost, {}s window after joins settle (leaf router, live parent)",
            p.measure_secs
        ),
        table,
    );
    report.chart(fig);
    report.json = json!({
        "params": {"sizes": p.sizes, "measure_secs": p.measure_secs},
        "rows": rows_json,
    });
    report.finding(
        "The wheel pays only for entries actually due, so its per-wakeup cost stays near-flat \
         as resident groups grow. The retired scan-every-tick service, measured on the same \
         schedule, grew linearly (EXPERIMENTS.md keeps its historical row).",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_match_the_committed_shapes() {
        for ((n, secs), pinned) in PINNED_SHAPES {
            assert_eq!(
                shape(&drive(n, secs)),
                pinned,
                "n={n}, {secs}s: schedule differs from the committed one"
            );
        }
    }

    #[test]
    fn report_has_a_row_per_size() {
        let r = run(&Params { sizes: vec![32, 96], measure_secs: 35 });
        let rows = r.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
        let w = |n: u64| {
            rows.iter()
                .find(|r| r["groups"] == n)
                .and_then(|r| r["wakeups"].as_u64())
                .unwrap_or_else(|| panic!("missing row {n}"))
        };
        // The schedule scales with group count.
        assert!(w(96) > w(32), "more groups ⇒ more echo wakeups");
    }
}
