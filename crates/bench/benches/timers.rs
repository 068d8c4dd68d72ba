//! Timer-service microbenches: the deadline index on its own (arm /
//! peek / pop) and through the engine (`next_wakeup` + `on_timer` with
//! many on-tree groups — the per-wakeup cost a busy router pays).

use cbt::timers::TimerService;
use cbt::{CbtConfig, CbtRouter};
use cbt_netsim::{SimDuration, SimTime};
use cbt_routing::Hop;
use cbt_topology::{IfIndex, NetworkBuilder, RouterId};
use cbt_wire::{AckSubcode, Addr, ControlMessage, GroupId, JoinSubcode};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;

/// Deterministic but scattered deadlines (no RNG: the spread mimics
/// staggered per-group echo clocks).
fn deadline(i: u64) -> SimTime {
    SimTime::from_micros(1_000 + (i.wrapping_mul(2_654_435_761) % 30_000_000))
}

/// One service step at steady state: peek the head, pop one due entry,
/// re-arm it an interval later — what each engine wakeup does, with the
/// rest of the population staying put.
fn bench_service_steady_state(c: &mut Criterion) {
    for n in [1_000u64, 10_000] {
        c.bench_function(&format!("timers/service_step_{n}_armed"), |b| {
            let mut svc: TimerService<u64> = TimerService::new();
            for i in 0..n {
                svc.arm(i, deadline(i));
            }
            b.iter(|| {
                let t = svc.peek().expect("population stays constant");
                for (k, _) in svc.pop_due_with_deadline(t) {
                    svc.arm(k, t + SimDuration::from_secs(30));
                }
                black_box(t)
            })
        });
    }
}

/// Arm-supersede churn: every re-arm of a hot key moves its one entry
/// in the ordered index.
fn bench_service_rearm_churn(c: &mut Criterion) {
    c.bench_function("timers/service_rearm_churn", |b| {
        let mut svc: TimerService<u64> = TimerService::new();
        for i in 0..1_000 {
            svc.arm(i, deadline(i));
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            svc.arm(i % 1_000, deadline(i) + SimDuration::from_secs(60));
            black_box(svc.peek())
        })
    });
}

fn core() -> Addr {
    Addr::from_octets(10, 255, 0, 9)
}

/// A forwarding router with `groups` on-tree FIB entries (parent up,
/// child down), timers per `cfg`.
fn loaded_engine(cfg: CbtConfig, groups: usize) -> CbtRouter {
    let mut b = NetworkBuilder::new();
    let me = b.router("ME");
    let up = b.router("UP");
    let down = b.router("DOWN");
    let lan = b.lan("S0");
    b.attach(lan, me);
    b.link(me, up, 1);
    b.link(me, down, 1);
    let net = b.build();
    let mut routes = BTreeMap::new();
    routes.insert(
        core(),
        Hop {
            iface: IfIndex(1),
            router: RouterId(1),
            addr: Addr::from_octets(172, 31, 0, 2),
            dist: 1,
        },
    );
    let mut e = CbtRouter::new(&net, me, cfg, Box::new(routes), SimTime::ZERO);
    for n in 0..groups {
        let g = GroupId::numbered(n as u16);
        e.learn_cores(g, &[core()]);
        // Stagger each group's join so echo deadlines spread across the
        // echo interval instead of all landing on one tick.
        let t = SimTime::from_micros(n as u64 * 30_000_000 / groups as u64);
        e.handle_control(
            t,
            IfIndex(2),
            Addr::from_octets(172, 31, 0, 6),
            ControlMessage::JoinRequest {
                subcode: JoinSubcode::ActiveJoin,
                group: g,
                origin: Addr::from_octets(10, 9, 0, 1),
                target_core: core(),
                cores: vec![core()],
            },
        );
        e.handle_control(
            t,
            IfIndex(1),
            Addr::from_octets(172, 31, 0, 2),
            ControlMessage::JoinAck {
                subcode: AckSubcode::Normal,
                group: g,
                origin: Addr::from_octets(10, 9, 0, 1),
                target_core: core(),
                cores: vec![core()],
            },
        );
    }
    // Settle past the join phase so the next wakeup is a steady-state
    // echo deadline, not boot housekeeping.
    let horizon = SimTime::from_secs(31);
    while let Some(t) = e.next_wakeup() {
        if t >= horizon {
            break;
        }
        e.on_timer(t);
    }
    e
}

/// The pair the simulator pays on every wakeup — `next_wakeup` then
/// `on_timer` at that instant — served back-to-back at steady state.
/// Expiries are pushed out to "never" so the unanswered-echo regime
/// stays a pure keepalive treadmill: every wakeup is one group's echo
/// clock, re-armed an interval later, with the other N−1 groups idle.
/// The cost should hold near-flat across sizes.
fn bench_engine_wakeup(c: &mut Criterion) {
    let forever = SimDuration::from_secs(1_000_000_000);
    for groups in [100usize, 1_000] {
        c.bench_function(&format!("timers/engine_wakeup_{groups}_groups"), |b| {
            let cfg = CbtConfig {
                echo_timeout: forever,
                child_assert_expire: forever,
                ..CbtConfig::default()
            };
            let mut e = loaded_engine(cfg, groups);
            b.iter(|| {
                let t = e.next_wakeup().expect("echo clocks re-arm forever");
                black_box(e.on_timer(t))
            })
        });
    }
}

criterion_group!(
    benches,
    bench_service_steady_state,
    bench_service_rearm_churn,
    bench_engine_wakeup
);
criterion_main!(benches);
