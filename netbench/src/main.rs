//! Netscale benchmark: 9 888 live CBT engines (`P2pNode` over
//! `ShardedRouter`, one shared `FleetRib`) in a `NetscaleWorld`, driven
//! by a seeded open-loop schedule.
//!
//! ```text
//! cargo run --release --manifest-path netbench/Cargo.toml -- \
//!     --workload join-churn|tree-hold|fault-repair --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run.
//! `--trace 1` runs the same inputs untraced, then traced, requires
//! their deterministic counts to agree, and prints the per-layer
//! metrics with the tracing overhead. The last stdout line is one JSON
//! object; the full result, with provenance, goes to
//! `netbench/results/`. Any failed gate or operation exits 1.

mod alloc;
mod fleet;
mod host;
mod probe;
mod workload;

use probe::{Probe, SPAN_NAMES};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use workload::{Outcome, Workload};

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Quantile `q` of raw samples taken at resolution `res`: a sample
/// `v` stands for the interval `(v - res, v]`, and the quantile is
/// interpolated inside the interval of the sample at rank `q·n` by the
/// share of its ties below that rank. Recovery is polled every 50 ms,
/// so a member seen rooted at `v` was rooted somewhere in that
/// interval; join latencies sit on the 1 ms lattice of the link delays.
/// A nearest-rank percentile of such data steps between a few lattice
/// points and reads the same on every seed.
fn percentile(sorted: &[u64], q: f64, res: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let target = (q * n as f64).clamp(0.0, n as f64);
    let k = ((target.ceil() as usize).max(1) - 1).min(n - 1);
    let v = sorted[k];
    let lo = sorted.partition_point(|&x| x < v);
    let ties = sorted.partition_point(|&x| x <= v) - lo;
    v as f64 - res + res * ((target - lo as f64) / ties as f64).clamp(0.0, 1.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (k, (name, v, unit)) in self.0.iter().enumerate() {
            let sep = if k > 0 { ", " } else { "" };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

fn end_to_end(o: &Outcome, routers: u64) -> Metrics {
    let mut m = Metrics::default();
    let mut join = o.join_us.clone();
    join.sort_unstable();
    let mut rec = o.recovery_us.clone();
    rec.sort_unstable();
    // Wall times are scaled to the reference host (see host.rs).
    let setup = o.setup_s.iter().zip(&o.setup_host).map(|(s, h)| s * h).collect();
    m.put("setup_s", median(setup), "s");
    // Over the whole drive, each window's wall time scaled by the host
    // factor measured at its end.
    let wall: f64 = o.windows.iter().map(|w| w.wall_s * w.host).sum();
    let events: u64 = o.windows.iter().map(|w| w.events).sum();
    let sim: f64 = o.windows.iter().map(|w| w.sim_s).sum();
    m.put("events_per_s", ratio(events as f64, wall), "1/s");
    m.put("sim_rate", ratio(sim, wall), "s/s");
    m.put("peak_rss_mb", o.peak_rss_bytes as f64 / 1e6, "MB");
    m.put("idle_bytes_per_router", o.idle_rss_bytes as f64 / routers as f64, "B");
    m.put("join_latency_p50_ms", percentile(&join, 0.50, 1e3) / 1e3, "ms");
    m.put("join_latency_p99_ms", percentile(&join, 0.99, 1e3) / 1e3, "ms");
    m.put("wire_frames", o.drive.frames as f64, "count");
    m.put("recovery_p50_s", percentile(&rec, 0.50, workload::POLL_US as f64) / 1e6, "s");
    m.put("recovery_p99_s", percentile(&rec, 0.99, workload::POLL_US as f64) / 1e6, "s");
    m
}

fn per_layer(o: &Outcome, p: &Probe, overhead: f64) -> Metrics {
    use probe::*;
    let mut m = Metrics::default();
    let a = &p.acc;
    let ev = o.drive.events as f64;
    let mean = |k: usize| ratio(a[k].ns as f64, a[k].calls as f64);
    m.put("world.self_ns_per_event", ratio(a[WORLD].ns as f64, ev), "ns");
    m.put("world.events", ev, "count");
    m.put("world.frames", o.drive.frames as f64, "count");
    m.put("world.bytes", o.drive.bytes as f64, "B");
    m.put("world.wakeups", a[ADAPTER_TIMER].calls as f64, "count");
    m.put("world.next_wakeup_calls", a[NEXT_WAKEUP].calls as f64, "count");
    m.put("world.dropped_link_down", o.drive.dropped_link_down as f64, "count");
    m.put("world.dropped_node_down", o.drive.dropped_node_down as f64, "count");
    m.put("wire.decode_calls", a[DECODE].calls as f64, "count");
    m.put("wire.decode_ns", mean(DECODE), "ns");
    m.put(
        "wire.decode_allocs_per_call",
        ratio(a[DECODE].allocs as f64, a[DECODE].calls as f64),
        "count",
    );
    let adapter = [ADAPTER_FRAME, ADAPTER_TIMER, DELIVER];
    let adapter_allocs: u64 = adapter.iter().map(|&k| a[k].allocs).sum();
    m.put("adapter.deliver_ns_per_frame", ratio(a[DELIVER].ns as f64, p.frames_out as f64), "ns");
    m.put("adapter.allocs_per_frame", ratio(adapter_allocs as f64, p.frames_out as f64), "count");
    m.put("adapter.decode_errors", o.adapter_errors[0] as f64, "count");
    m.put("adapter.encode_errors", o.adapter_errors[1] as f64, "count");
    m.put("adapter.dropped_non_control", o.adapter_errors[2] as f64, "count");
    for (k, kind) in cbt_obs::CtlKind::ALL.iter().enumerate() {
        m.put(format!("engine.{}.calls", kind.as_str()), a[CTL + k].calls as f64, "count");
        m.put(format!("engine.{}.ns", kind.as_str()), mean(CTL + k), "ns");
    }
    m.put("engine.on_timer.calls", a[ENGINE_TIMER].calls as f64, "count");
    m.put("engine.on_timer.ns", mean(ENGINE_TIMER), "ns");
    m.put(
        "engine.on_timer.useful_ratio",
        ratio(p.useful_timers as f64, a[ENGINE_TIMER].calls as f64),
        "ratio",
    );
    m.put("engine.next_wakeup.ns", mean(NEXT_WAKEUP), "ns");
    m.put("engine.local_join.ns", mean(LOCAL_JOIN), "ns");
    m.put("engine.local_leave.ns", mean(LOCAL_LEAVE), "ns");
    let entry: Vec<usize> = (CTL..CTL + 8).chain([ENGINE_TIMER, LOCAL_JOIN, LOCAL_LEAVE]).collect();
    let calls: u64 = entry.iter().map(|&k| a[k].calls).sum();
    let engine_allocs: u64 = entry.iter().chain(&[NEXT_WAKEUP]).map(|&k| a[k].allocs).sum();
    let engine_live: i64 = entry.iter().chain(&[NEXT_WAKEUP]).map(|&k| a[k].live).sum();
    m.put("engine.actions_per_call", ratio(p.actions as f64, calls as f64), "count");
    m.put("engine.allocs_per_call", ratio(engine_allocs as f64, calls as f64), "count");
    m.put("engine.live_bytes_per_fib_entry", ratio(engine_live as f64, o.fib_at_end as f64), "B");
    m.put("engine.peak_fib_entries", o.peak_fib as f64, "count");
    m.put("rib.lookups", a[RIB_LOOKUP].calls as f64, "count");
    m.put("rib.lookup_ns", mean(RIB_LOOKUP), "ns");
    m.put("rib.misses", p.rib_misses as f64, "count");
    m.put("rib.repairs", a[RIB_REPAIR].calls as f64, "count");
    m.put("rib.repair_ns", mean(RIB_REPAIR), "ns");
    m.put("rib.nodes_touched", p.rib_touched as f64, "count");
    m.put("membership.events", o.schedule_events as f64, "count");
    m.put("membership.gen_s", o.gen_s, "s");
    m.put("membership.reexpressions", o.reexpressions as f64, "count");
    m.put("allocs_per_event", ratio(o.drive_allocs as f64, ev), "count");
    let spans_ns: u64 = a.iter().map(|x| x.ns).sum();
    m.put("unattributed_ns_per_event", (o.drive_wall_s * 1e9 - spans_ns as f64) / ev, "ns");
    m.put("trace_overhead", overhead, "ratio");
    let total: u64 = o.kinds.iter().sum();
    m.put(
        "mix.join_quit_share",
        ratio(o.kinds[..5].iter().sum::<u64>() as f64, total as f64),
        "ratio",
    );
    m.put("mix.echo_share", ratio((o.kinds[5] + o.kinds[6]) as f64, total as f64), "ratio");
    m.put("mix.lookups_per_event", ratio(a[RIB_LOOKUP].calls as f64, ev), "ratio");
    m.put("gates_s", o.gates_s, "s");
    m
}

/// Recovery samples per whole simulated second, as `[second, count]`.
fn recovery_histogram(us: &[u64]) -> Vec<[u64; 2]> {
    let mut h = std::collections::BTreeMap::new();
    for &x in us {
        *h.entry(x / 1_000_000).or_insert(0) += 1;
    }
    h.into_iter().map(|(s, n)| [s, n]).collect()
}

/// Does the workload do what it claims? Returns the failed claims.
/// Frame kinds are in `CtlKind` order: 0–4 join and quit, 5–6 echo.
fn claims(w: Workload, o: &Outcome) -> Vec<String> {
    let total = o.kinds.iter().sum::<u64>().max(1) as f64;
    let join_quit = o.kinds[..5].iter().sum::<u64>() as f64 / total;
    let echo = (o.kinds[5] + o.kinds[6]) as f64 / total;
    let mut bad = Vec::new();
    match w {
        Workload::JoinChurn if join_quit <= 0.5 => {
            bad.push(format!("join-churn frames are {:.1}% join/quit", 100.0 * join_quit))
        }
        Workload::TreeHold if echo <= 0.9 => {
            bad.push(format!("tree-hold frames are {:.1}% echo", 100.0 * echo))
        }
        Workload::FaultRepair if o.repairs == 0 || o.drive.dropped_link_down == 0 => {
            bad.push("fault-repair made no rib repair or link-down drop".into())
        }
        _ => {}
    }
    bad
}

/// Gate failures of one outcome.
fn gate_failures(w: Workload, o: &Outcome) -> Vec<String> {
    let mut bad = claims(w, o);
    if !o.violations.is_empty() {
        bad.push(format!("{} invariant violations, first {}", o.violations.len(), o.violations[0]));
    }
    if let Err(e) = &o.teardown {
        bad.push(format!("teardown: {e}"));
    }
    let [de, ee, nc] = o.adapter_errors;
    if de + ee + nc > 0 {
        bad.push(format!("adapter errors: {de} decode, {ee} encode, {nc} non-control"));
    }
    if o.detached + o.owed > 0 {
        bad.push(format!(
            "{} members detached and {} joins unanswered at quiescence",
            o.detached, o.owed
        ));
    }
    bad
}

fn failed(o: &Outcome) -> u64 {
    o.detached + o.owed + o.adapter_errors.iter().sum::<u64>()
}

fn attempted(o: &Outcome) -> u64 {
    o.join_sessions + o.severed
}

fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("netbench/src"), &mut files);
    files.sort();
    let bytes = files.iter().flat_map(|f| {
        let name = f.strip_prefix(root).unwrap_or(f).to_string_lossy().into_owned();
        name.into_bytes().into_iter().chain(std::fs::read(f).unwrap_or_default())
    });
    format!("{:016x}", workload::digest(bytes.map(u64::from)))
}

fn provenance(root: &Path, a: &Args, routers: u64) -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().replace('"', "'"))
        })
        .unwrap_or_else(|| std::env::consts::ARCH.into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"seed\": {}, \"seconds\": {}, \"git_revision\": \"{git}\", \"source_digest\": \"{}\", \
         \"cores\": {cores}, \"machine\": \"{cpu} ({})\", \"fleet_routers\": {routers}, \
         \"traced\": {}}}",
        a.seed,
        a.seconds,
        source_digest(root),
        std::env::consts::OS,
        a.trace
    )
}

fn write_results(dir: &Path, stem: &str, body: &str, spans: Option<&Probe>) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("results dir {}: {e}", dir.display());
        return;
    }
    if let Err(e) = std::fs::write(dir.join(format!("{stem}.json")), body) {
        eprintln!("writing results: {e}");
    }
    if let Some(p) = spans {
        let mut s = String::new();
        for r in &p.records {
            let _ = writeln!(
                s,
                "{{\"event\": {}, \"span\": \"{}\", \"parent\": \"{}\", \"depth\": {}, \
                 \"start_ns\": {}, \"dur_ns\": {}}}",
                r.event,
                SPAN_NAMES[r.span as usize],
                SPAN_NAMES[r.parent as usize],
                r.depth,
                r.start_ns,
                r.dur_ns
            );
        }
        if let Err(e) = std::fs::write(dir.join(format!("{stem}.spans.jsonl")), s) {
            eprintln!("writing spans: {e}");
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("netbench: {e}");
            std::process::exit(2);
        }
    };
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().unwrap_or(manifest).to_path_buf();
    let routers = fleet::TOPO.total_nodes() as u64;
    let w = args.workload;

    host::init();
    let mut problems = Vec::new();
    let (outcome, metrics, probe) = if args.trace {
        let plain = workload::execute::<false>(w, args.seed, args.seconds, 1, true);
        let traced = workload::execute::<true>(w, args.seed, args.seconds, 1, false);
        if plain.drive_digest != traced.drive_digest {
            problems.push(format!(
                "traced run diverged from untraced: events {} vs {}, frames {} vs {}, allocs {} vs {}",
                plain.drive.events,
                traced.drive.events,
                plain.drive.frames,
                traced.drive.frames,
                plain.drive_allocs,
                traced.drive_allocs
            ));
        }
        problems.extend(gate_failures(w, &plain));
        let overhead = ratio(traced.drive_wall_s, plain.drive_wall_s) - 1.0;
        let p = traced.probe.clone().expect("traced run keeps its probe");
        let m = per_layer(&traced, &p, overhead);
        (traced, m, Some(p))
    } else {
        let o = workload::execute::<false>(w, args.seed, args.seconds, SETUPS, false);
        let m = end_to_end(&o, routers);
        (o, m, None)
    };
    problems.extend(gate_failures(w, &outcome));
    let correct = problems.is_empty();
    let (att, fail) = (attempted(&outcome).max(1), failed(&outcome));

    println!(
        "netbench {} seed {} ({} routers, traced {})",
        w.name(),
        args.seed,
        routers,
        args.trace
    );
    for (name, v, unit) in &metrics.0 {
        println!("  {name:<36} {v:>16.6} {unit}");
    }
    println!(
        "  samples: {} join latencies, {} recoveries; attempted {att}, failed {fail}",
        outcome.join_us.len(),
        outcome.recovery_us.len()
    );
    for p in &problems {
        println!("  GATE FAILED: {p}");
    }

    let summary = format!(
        "{{\"correct\": {correct}, \"attempted\": {att}, \"failed\": {fail}, \"metrics\": {}}}",
        metrics.json()
    );
    // Self figures per span kind: the per-layer attribution of time,
    // allocations and net live bytes behind the metrics above.
    let mut spans = String::from("{");
    if let Some(p) = &probe {
        for (k, a) in p.acc.iter().enumerate() {
            let sep = if k > 0 { ", " } else { "" };
            let _ = write!(
                spans,
                "{sep}\"{}\": {{\"calls\": {}, \"self_ns\": {}, \"allocs\": {}, \"live_bytes\": {}}}",
                SPAN_NAMES[k], a.calls, a.ns, a.allocs, a.live
            );
        }
    }
    spans.push('}');
    let body = format!(
        "{{\"workload\": \"{}\", \"provenance\": {}, \"drive_wall_s\": {}, \"gates_s\": {}, \
         \"join_latency_samples\": {}, \"recovery_samples\": {}, \"abandoned_joins\": {}, \
         \"frames_by_kind\": {:?}, \
         \"raw_setup_s\": {:?}, \"setup_host_factor\": {:?}, \"raw_window_events_per_s\": {:?}, \
         \"window_host_factor\": {:?}, \"problems\": {:?}, \
         \"recovery_histogram_s\": {:?}, \"spans\": {spans}, \"result\": {summary}}}\n",
        w.name(),
        provenance(&root, &args, routers),
        outcome.drive_wall_s,
        outcome.gates_s,
        outcome.join_us.len(),
        outcome.recovery_us.len(),
        outcome.abandoned,
        outcome.kinds,
        outcome.setup_s,
        outcome.setup_host,
        outcome.windows.iter().map(|w| ratio(w.events as f64, w.wall_s)).collect::<Vec<_>>(),
        outcome.windows.iter().map(|w| w.host).collect::<Vec<_>>(),
        problems,
        recovery_histogram(&outcome.recovery_us),
    );
    let stem = format!("{}-seed{}-trace{}", w.name(), args.seed, args.trace as u8);
    write_results(&manifest.join("results"), &stem, &body, probe.as_ref());
    println!("{summary}");
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_interpolates_inside_the_tie_interval() {
        // Ranks 1–2 are 2 ms, ranks 3–6 are 4 ms: the median (rank 3 of
        // 6) sits a quarter of the way into the (3 ms, 4 ms] interval.
        let v = [2000, 2000, 4000, 4000, 4000, 4000];
        assert_eq!(percentile(&v, 0.5, 1000.0), 3250.0);
        assert_eq!(percentile(&v, 1.0, 1000.0), 4000.0);
        assert_eq!(percentile(&v, 0.0, 1000.0), 1000.0);
        assert_eq!(percentile(&[], 0.5, 1000.0), 0.0);
    }

    #[test]
    fn percentile_of_distinct_samples_stays_within_one_resolution() {
        let v: Vec<u64> = (1..=100).map(|x| x * 10).collect();
        let p99 = percentile(&v, 0.99, 10.0);
        assert!((980.0..=990.0).contains(&p99), "{p99}");
    }
}
