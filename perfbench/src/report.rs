//! The metrics a run prints, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::calls::Counts;
use crate::spans::{self, Span, Tracer};
use crate::stats::rank;
use crate::Phase;

/// Layers whose self time the traced run reports, per session.
const LAYERS: [&str; 8] = [
    "bench", "guest", "cc", "asm", "os", "cpu", "analyze", "trace",
];

/// The layers only the campaign workload calls. Their metrics are reported
/// by that workload alone, so that the other workloads do not print
/// metrics they can never move.
const CAMPAIGN_LAYERS: [&str; 2] = ["core", "inject"];

/// A metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

pub struct Report<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub setup_s: f64,
    pub rss_mb: f64,
    /// The tail percentile: the highest with ten sessions beyond it in the
    /// workload's minimum passes.
    pub tail_p: f64,
    pub plain: &'a Phase,
    pub traced: Option<&'a Phase>,
    pub work_metric: Option<(&'static str, f64)>,
    /// What each item of the mix runs.
    pub item_names: Vec<String>,
    pub tracer: &'a Tracer,
}

impl Report<'_> {
    /// The end-to-end metrics, from the untraced run, with every session
    /// at the best time of its work (see [`Phase::best_ms`]).
    pub fn end_to_end(&self) -> Vec<Metric> {
        let sorted = self.plain.best_sessions();
        let measured = self.plain.measured_session_ms();
        let n = sorted.len();
        let tail_p = self.tail_p;
        let (p50, tail) = (rank(50.0, n), rank(tail_p, n));
        let own = self.work_metric.map_or(String::new(), |(name, scale)| {
            format!(", {name} {:.3}", self.plain.work_per_s() / scale)
        });
        let at = |r: usize| {
            let (ms, (_, item)) = sorted[r];
            format!("{ms:.3} ({})", self.item_names[item])
        };
        println!(
            "perfbench {} seed {}: {n} sessions in {} passes over {:.1} s{own}; \
             session_ms p50 {}, tail p{tail_p} {} ({} sessions beyond) at best times; \
             {:.3} and {:.3} as measured",
            self.workload,
            self.seed,
            self.plain.pass_rates.len(),
            self.plain.seconds,
            at(p50),
            at(tail),
            n - tail - 1,
            measured[p50],
            measured[tail],
        );
        vec![
            ("sessions_per_s".into(), self.plain.sessions_per_s(), "1/s"),
            ("session_ms_p50".into(), sorted[p50].0, "ms"),
            ("session_ms_tail".into(), sorted[tail].0, "ms"),
            ("setup_s".into(), self.setup_s, "s"),
            ("rss_mb".into(), self.rss_mb, "MB"),
        ]
    }

    /// The per-layer metrics. Counts are those of one pass (the first);
    /// times come from the traced passes.
    pub fn per_layer(&self) -> Vec<Metric> {
        let traced = self
            .traced
            .expect("per-layer metrics need the traced passes");
        let counts: &Counts = &self.plain.counts[0].1;
        let count = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
        let all = self.tracer.spans();
        let named = |name: &'static str| all.iter().filter(move |s| s.name == name);
        let mean_ms = |name: &'static str| {
            let (sum, n) = named(name).fold((0u64, 0u64), |(t, n), s| (t + s.dur_ns(), n + 1));
            if n == 0 {
                0.0
            } else {
                sum as f64 / n as f64 / 1e6
            }
        };
        let ns_per_insn = |name: &'static str| {
            let (ns, insns) =
                named(name).fold((0u64, 0u64), |(t, i), s| (t + s.dur_ns(), i + s.insns));
            ratio(ns as f64, insns as f64)
        };
        let work = |name: &str| match self.work_metric {
            Some((own, scale)) if own == name => self.plain.work_per_s() / scale,
            _ => 0.0,
        };
        let sessions = traced.attempted as f64;
        let self_ns = spans::self_ns_by_layer(&all);

        let mut m: Vec<Metric> = vec![
            ("mips".into(), work("mips"), "Minsn/s"),
            ("reports_per_s".into(), work("reports_per_s"), "1/s"),
            ("cc.compile_ms".into(), mean_ms("cc.compile"), "ms"),
            ("asm.assemble_ms".into(), mean_ms("asm.assemble"), "ms"),
            ("guest.build_ms".into(), mean_ms("guest.build"), "ms"),
            ("os.load_ms".into(), mean_ms("os.load"), "ms"),
            ("os.syscalls".into(), count("os.syscalls"), "count"),
            (
                "os.tainted_input_bytes".into(),
                count("os.tainted_input_bytes"),
                "bytes",
            ),
            ("cpu.run_ms".into(), mean_ms("cpu.run"), "ms"),
            ("cpu.ns_per_insn.flat".into(), ns_per_insn("cpu.run"), "ns"),
        ];
        for k in [
            "cpu.instructions",
            "cpu.loads",
            "cpu.stores",
            "cpu.tainted_operand_instructions",
            "cpu.decode_cache_hits",
            "cpu.decode_cache_misses",
            "cpu.alerts",
        ] {
            m.push((k.into(), count(k), "count"));
        }
        m.push((
            "mem.ns_per_insn.two_level".into(),
            ns_per_insn("cpu.run_two_level"),
            "ns",
        ));
        for k in [
            "mem.l1_hits",
            "mem.l1_misses",
            "mem.l2_hits",
            "mem.l2_misses",
        ] {
            m.push((k.into(), count(k), "count"));
        }
        m.push((
            "analyze.analyze_ms".into(),
            mean_ms("analyze.analyze"),
            "ms",
        ));
        m.push(("analyze.report_ms".into(), mean_ms("analyze.report"), "ms"));
        for k in [
            "analyze.sites",
            "analyze.proven",
            "analyze.flagged",
            "analyze.unresolved",
        ] {
            m.push((k.into(), count(k), "count"));
        }
        m.push((
            "trace.traced_run_ms".into(),
            mean_ms("trace.run_with_trace"),
            "ms",
        ));
        m.push((
            "trace.overhead_ms".into(),
            self.tracer.observed_mean("trace.overhead_ms"),
            "ms",
        ));
        m.push((
            "trace.jsonl_bytes".into(),
            count("trace.jsonl_bytes"),
            "bytes",
        ));
        m.push(("trace.events".into(), count("trace.events"), "count"));
        let self_ms = |layer: &str| {
            let ns = self_ns.get(layer).copied().unwrap_or(0) as f64;
            (format!("{layer}.self_ms"), ratio(ns / 1e6, sessions), "ms")
        };
        m.extend(LAYERS.map(self_ms));
        let session_spans = all.iter().filter(|s: &&Span| s.session > 0).count() as f64;
        m.push((
            "spans.per_session".into(),
            ratio(session_spans, sessions),
            "count",
        ));
        m.push((
            "spans.overhead_pct".into(),
            (ratio(self.plain.work_per_s(), traced.work_per_s()) - 1.0) * 100.0,
            "%",
        ));
        if self.workload == "campaign" {
            m.push(("trials_per_s".into(), work("trials_per_s"), "1/s"));
            m.push(("core.snapshot_ms".into(), mean_ms("core.snapshot"), "ms"));
            m.push(("core.fork_us".into(), mean_ms("core.fork") * 1e3, "us"));
            m.push(("inject.trial_ms".into(), mean_ms("inject.trial"), "ms"));
            for k in [
                "inject.outcome.detected",
                "inject.outcome.missed",
                "inject.outcome.false_alert",
                "inject.outcome.benign",
                "inject.outcome.guest_fault",
                "inject.outcome.detector_fault",
                "inject.watchdog_trials",
            ] {
                m.push((k.into(), count(k), "count"));
            }
            m.push((
                "inject.applied_ratio".into(),
                ratio(count("inject.applied"), count("inject.trials")),
                "ratio",
            ));
            m.extend(CAMPAIGN_LAYERS.map(self_ms));
        }
        m
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn render(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = BTreeMap::new();
    for (name, value, unit) in metrics {
        let value = if value.is_finite() { *value } else { 0.0 };
        body.insert(
            name.as_str(),
            format!("{{\"value\": {value:?}, \"unit\": \"{unit}\"}}"),
        );
    }
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v)) in body.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {v}");
    }
    out.push_str("}}");
    out
}
