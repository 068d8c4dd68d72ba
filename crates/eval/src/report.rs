//! Experiment output: named tables plus a machine-readable JSON blob.

use cbt_metrics::{BarChart, Table};

/// The result of one experiment run.
#[derive(Debug)]
pub struct Report {
    /// Experiment id (matches DESIGN.md's index, e.g. "S93-T1").
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Named tables (the paper-style rows).
    pub tables: Vec<(String, Table)>,
    /// Rendered figures (terminal bar charts for figure-type results).
    pub charts: Vec<BarChart>,
    /// Everything again, machine-readable.
    pub json: serde_json::Value,
    /// Fleet-wide observability snapshot (drop-reason taxonomy,
    /// per-group protocol counters, latency histograms) for experiments
    /// that run the packet simulator; `Null` otherwise. Exported under
    /// `"obs"` in the JSON written next to the tables.
    pub obs: serde_json::Value,
    /// Free-form findings: the "shape" statements EXPERIMENTS.md quotes.
    pub findings: Vec<String>,
}

impl Report {
    /// New empty report.
    pub fn new(id: &'static str, title: &'static str) -> Self {
        Report {
            id,
            title,
            tables: Vec::new(),
            charts: Vec::new(),
            json: serde_json::Value::Null,
            obs: serde_json::Value::Null,
            findings: Vec::new(),
        }
    }

    /// Attaches a counter snapshot (usually the fleet aggregate from
    /// [`crate::simrun::SimSetup::obs_fleet`]). The snapshot's own JSON
    /// exporter is the schema authority; this just re-parses it into
    /// the report's machine-readable value.
    pub fn attach_obs(&mut self, snap: &cbt_obs::ObsSnapshot) -> &mut Self {
        self.obs = serde_json::from_str(&snap.to_json()).unwrap_or(serde_json::Value::Null);
        self
    }

    /// Adds a table.
    pub fn table(&mut self, name: impl Into<String>, t: Table) -> &mut Self {
        self.tables.push((name.into(), t));
        self
    }

    /// Adds a rendered figure.
    pub fn chart(&mut self, c: BarChart) -> &mut Self {
        self.charts.push(c);
        self
    }

    /// Adds a finding sentence.
    pub fn finding(&mut self, s: impl Into<String>) -> &mut Self {
        self.findings.push(s.into());
        self
    }

    /// Renders everything for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for (name, t) in &self.tables {
            out.push_str(&format!("\n-- {name} --\n"));
            out.push_str(&t.render());
        }
        for c in &self.charts {
            out.push('\n');
            out.push_str(&c.render(40));
        }
        if let Some(drops) = self.obs.get("drops") {
            out.push_str(&format!("\nFleet drop counters: {drops}\n"));
        }
        if !self.findings.is_empty() {
            out.push_str("\nFindings:\n");
            for f in &self.findings {
                out.push_str(&format!("  * {f}\n"));
            }
        }
        out
    }
}

/// FNV-1a-64 of a report's `json` and `obs` with the `volatile` keys
/// (dotted paths such as `"drive.wall_s"`) removed: everything a run
/// computes apart from wall-clock and RSS readings.
#[cfg(test)]
fn golden_digest(report: &Report, volatile: &[&str]) -> u64 {
    fn strip(v: &serde_json::Value, path: &str, volatile: &[&str]) -> serde_json::Value {
        let serde_json::Value::Object(m) = v else { return v.clone() };
        let mut out = serde_json::Map::new();
        for (k, x) in m {
            let p = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
            if !volatile.contains(&p.as_str()) {
                out.insert(k.clone(), strip(x, &p, volatile));
            }
        }
        serde_json::Value::Object(out)
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [&report.json, &report.obs] {
        let text = serde_json::to_string(&strip(v, "", volatile)).expect("serializable");
        h = text.bytes().fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3));
    }
    h
}

/// Asserts [`golden_digest`] equals the golden committed for the
/// session's engine shard count (`CBT_SHARDS`). Shard counts without a
/// committed golden are not compared.
#[cfg(test)]
pub(crate) fn assert_golden_digest(report: &Report, volatile: &[&str], goldens: &[(usize, u64)]) {
    let h = golden_digest(report, volatile);
    let shards = cbt::CbtConfig::default().shards;
    if let Some(&(_, golden)) = goldens.iter().find(|&&(s, _)| s == shards) {
        assert_eq!(h, golden, "{} digest at {shards} shard(s): {h:#018x}", report.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_digest_ignores_only_the_volatile_keys() {
        let mut r = Report::new("X-1", "demo");
        r.json = serde_json::json!({ "drive": { "wall_s": 1.5, "frames": 7 } });
        let d = golden_digest(&r, &["drive.wall_s"]);
        r.json = serde_json::json!({ "drive": { "wall_s": 2.5, "frames": 7 } });
        assert_eq!(golden_digest(&r, &["drive.wall_s"]), d);
        r.json = serde_json::json!({ "drive": { "wall_s": 2.5, "frames": 8 } });
        assert_ne!(golden_digest(&r, &["drive.wall_s"]), d);
    }

    #[test]
    fn render_contains_everything() {
        let mut r = Report::new("X-1", "demo");
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        r.table("numbers", t);
        r.finding("a beats b");
        let s = r.render();
        assert!(s.contains("X-1"));
        assert!(s.contains("numbers"));
        assert!(s.contains("a beats b"));
    }
}
