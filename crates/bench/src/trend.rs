//! Performance/robustness trend consolidation and the CI trend gate.
//!
//! [`collect_trend`] produces one `TREND.json` document merging
//!
//! * **campaigns** — fixed-seed deterministic fault-injection campaigns
//!   (Experiment 1 + ghttpd under attack) reduced to outcome-class counts.
//!   Same seed ⇒ byte-identical section; any drift is a behaviour change.
//! * **analysis** — per-guest static-analysis precision: proven / flagged
//!   / unresolved site counts for the four pinned guest apps. The
//!   analyzer is deterministic, so these are exact like the campaign
//!   counts; a drop in `proven` is a precision regression the gate
//!   catches even when the lint goldens were (deliberately) regenerated.
//! * **benches** — every `BENCH_*.json` summary found at the repository
//!   root, in filename order. These carry wall-clock throughput numbers
//!   and are the *documented wall-clock fields*: excluded from exact
//!   identity comparisons, gated only by a tolerance band. (The analyzer's
//!   cold-analysis throughput rides here via `BENCH_analyze.json`.)
//!
//! [`check_trend`] compares a fresh collection against a checked-in
//! baseline: campaign and analysis counts must match exactly; `*_per_sec`
//! fields may not regress below `baseline * (1 - tolerance)` (faster is
//! never a failure). Throughput comparison is skipped when the two sides
//! were measured in different modes (`quick` flags differ), since quick
//! smoke numbers are not comparable to full runs.

use std::path::Path;

use ptaint::{CampaignSpec, Machine, OutcomeClass};
use ptaint_guest::apps::{ghttpd, null_httpd, synthetic, wu_ftpd};

use crate::json::Value;

/// Campaign seed for the trend rows (fixed: determinism is the point).
pub const TREND_SEED: u64 = 7;

/// Faulted trials per trend campaign — small enough for CI, large enough
/// to hit several fault kinds and outcome classes.
pub const TREND_TRIALS: u64 = 12;

/// Default relative tolerance for `*_per_sec` regressions (CI machines are
/// noisy and shared; only substantial slowdowns should gate).
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// The fixed trend workloads: (name, machine under attack world).
fn workloads() -> Vec<(&'static str, Machine)> {
    let exp1 = Machine::from_c(synthetic::EXP1_SOURCE)
        .expect("exp1 builds")
        .world(synthetic::exp1_attack_world());
    let ghttpd_m = Machine::from_c(ghttpd::SOURCE).expect("ghttpd builds");
    let world = ghttpd::attack_world(ghttpd_m.image());
    vec![("exp1", exp1), ("ghttpd", ghttpd_m.world(world))]
}

/// Run the fixed-seed campaigns and reduce them to outcome-class counts.
#[must_use]
pub fn collect_campaigns() -> Value {
    let spec = CampaignSpec::new(TREND_SEED, TREND_TRIALS);
    let mut rows = Vec::new();
    for (name, machine) in workloads() {
        let report = machine.run_campaign(&spec);
        let mut counts = Vec::new();
        for class in OutcomeClass::ALL {
            counts.push((
                class.name().to_string(),
                Value::Num(report.count(class) as f64),
            ));
        }
        let row = Value::Obj(vec![
            ("seed".to_string(), Value::Num(TREND_SEED as f64)),
            ("trials".to_string(), Value::Num(TREND_TRIALS as f64)),
            (
                "baseline_detected".to_string(),
                Value::Bool(report.baseline_detected),
            ),
            ("counts".to_string(), Value::Obj(counts)),
        ]);
        rows.push((name.to_string(), row));
    }
    Value::Obj(rows)
}

/// Analyze the four pinned guest apps and reduce each to its precision
/// counts. Deterministic (the parallel fixpoint merges in wave order), so
/// the gate compares these exactly.
#[must_use]
pub fn collect_analysis() -> Value {
    let guests: [(&str, &str); 4] = [
        ("exp1", synthetic::EXP1_SOURCE),
        ("ghttpd", ghttpd::SOURCE),
        ("null_httpd", null_httpd::SOURCE),
        ("wu_ftpd", wu_ftpd::SOURCE),
    ];
    let mut rows = Vec::new();
    for (name, source) in guests {
        let image = ptaint_guest::build(source).expect("pinned guest builds");
        let a = ptaint::analyze(&image);
        let s = &a.stats;
        let row = Value::Obj(vec![
            (
                "sites".to_string(),
                Value::Num((s.load_store_sites + s.register_jump_sites) as f64),
            ),
            ("proven".to_string(), Value::Num(s.proven_sites as f64)),
            ("flagged".to_string(), Value::Num(s.flagged_sites as f64)),
            (
                "unresolved".to_string(),
                Value::Num(s.unresolved_sites as f64),
            ),
        ]);
        rows.push((name.to_string(), row));
    }
    Value::Obj(rows)
}

/// Parse every `BENCH_*.json` at `root` (filename order) into one object
/// keyed by the bench name (`BENCH_engine.json` → `engine`). Unreadable or
/// malformed files are skipped with a note pushed onto `notes`.
pub fn collect_benches(root: &Path, notes: &mut Vec<String>) -> Value {
    let mut names: Vec<String> = match std::fs::read_dir(root) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            notes.push(format!("cannot list {}: {e}", root.display()));
            Vec::new()
        }
    };
    names.sort();
    let mut rows = Vec::new();
    for file in names {
        let key = file
            .trim_start_matches("BENCH_")
            .trim_end_matches(".json")
            .to_string();
        let path = root.join(&file);
        match std::fs::read_to_string(&path).map_err(|e| e.to_string()) {
            Ok(text) => match Value::parse(&text) {
                Ok(v) => rows.push((key, v)),
                Err(e) => notes.push(format!("skipping {file}: {e}")),
            },
            Err(e) => notes.push(format!("skipping {file}: {e}")),
        }
    }
    Value::Obj(rows)
}

/// Build the full trend document: deterministic campaign and analysis
/// counts first, then the wall-clock bench summaries.
pub fn collect_trend(root: &Path, notes: &mut Vec<String>) -> Value {
    Value::Obj(vec![
        ("campaigns".to_string(), collect_campaigns()),
        ("analysis".to_string(), collect_analysis()),
        ("benches".to_string(), collect_benches(root, notes)),
    ])
}

/// Render a trend document as the on-disk `TREND.json` bytes.
#[must_use]
pub fn render_trend(trend: &Value) -> String {
    let mut out = trend.render();
    out.push('\n');
    out
}

/// Outcome of a baseline-vs-current trend comparison.
#[derive(Debug, Default)]
pub struct TrendGate {
    /// Hard failures: exact-count drift or out-of-tolerance regressions.
    pub violations: Vec<String>,
    /// Comparisons skipped with a reason (e.g. quick/full mode mismatch).
    pub skipped: Vec<String>,
    /// Number of individual values compared.
    pub checked: usize,
}

impl TrendGate {
    /// True when the gate passes (no violations; skips are allowed).
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Compare `current` against `baseline`.
///
/// Campaign and analysis fields are exact: seeds, trial counts,
/// `baseline_detected`, every outcome count and every per-guest precision
/// count must match. Bench `*_per_sec` fields fail only when
/// `current < baseline * (1 - tolerance)`; other bench fields are
/// informational. A bench present in the baseline but missing from the
/// current collection is a violation (coverage must not silently shrink);
/// new benches/campaigns in `current` only are fine.
#[must_use]
pub fn check_trend(baseline: &Value, current: &Value, tolerance: f64) -> TrendGate {
    let mut gate = TrendGate::default();

    let empty = Value::Obj(Vec::new());
    let base_camps = baseline.get("campaigns").unwrap_or(&empty);
    let cur_camps = current.get("campaigns").unwrap_or(&empty);
    for (name, base_row) in base_camps.fields() {
        let Some(cur_row) = cur_camps.get(name) else {
            gate.violations
                .push(format!("campaign {name}: missing from current collection"));
            continue;
        };
        check_exact(&mut gate, &format!("campaign {name}"), base_row, cur_row);
    }

    let base_analysis = baseline.get("analysis").unwrap_or(&empty);
    let cur_analysis = current.get("analysis").unwrap_or(&empty);
    for (name, base_row) in base_analysis.fields() {
        let Some(cur_row) = cur_analysis.get(name) else {
            gate.violations
                .push(format!("analysis {name}: missing from current collection"));
            continue;
        };
        check_exact(&mut gate, &format!("analysis {name}"), base_row, cur_row);
    }

    let base_benches = baseline.get("benches").unwrap_or(&empty);
    let cur_benches = current.get("benches").unwrap_or(&empty);
    for (name, base_row) in base_benches.fields() {
        let Some(cur_row) = cur_benches.get(name) else {
            gate.violations
                .push(format!("bench {name}: missing from current collection"));
            continue;
        };
        let base_quick = base_row.get("quick").and_then(Value::as_bool);
        let cur_quick = cur_row.get("quick").and_then(Value::as_bool);
        if base_quick != cur_quick {
            gate.skipped.push(format!(
                "bench {name}: quick/full mode mismatch (baseline quick={base_quick:?}, \
                 current quick={cur_quick:?}); throughput not comparable"
            ));
            continue;
        }
        for (field, base_val) in base_row.fields() {
            if !field.ends_with("_per_sec") {
                continue;
            }
            let Some(base_rate) = base_val.as_f64() else {
                continue;
            };
            gate.checked += 1;
            let floor = base_rate * (1.0 - tolerance);
            match cur_row.get(field).and_then(Value::as_f64) {
                Some(cur_rate) if cur_rate < floor => gate.violations.push(format!(
                    "bench {name}: {field} regressed {cur_rate:.0} < {floor:.0} \
                     (baseline {base_rate:.0}, tolerance {tolerance})"
                )),
                Some(_) => {}
                None => gate.violations.push(format!(
                    "bench {name}: {field} missing from current collection"
                )),
            }
        }
    }
    gate
}

/// Recursive exact comparison for the deterministic campaign rows.
fn check_exact(gate: &mut TrendGate, ctx: &str, base: &Value, cur: &Value) {
    match (base, cur) {
        (Value::Obj(fields), _) => {
            for (k, v) in fields {
                match cur.get(k) {
                    Some(c) => check_exact(gate, &format!("{ctx}.{k}"), v, c),
                    None => gate.violations.push(format!("{ctx}.{k}: missing")),
                }
            }
        }
        _ => {
            gate.checked += 1;
            if base != cur {
                gate.violations.push(format!(
                    "{ctx}: {} -> {} (exact match required)",
                    base.render(),
                    cur.render()
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(detected: u64, rate: f64, quick: bool) -> Value {
        Value::parse(&format!(
            "{{\"campaigns\":{{\"exp1\":{{\"seed\":7,\"trials\":12,\
             \"baseline_detected\":true,\"counts\":{{\"detected\":{detected},\
             \"missed\":1}}}}}},\"benches\":{{\"engine\":{{\"bench\":\"engine\",\
             \"cached_steps_per_sec\":{rate},\"quick\":{quick}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let gate = check_trend(&sample(9, 5e7, false), &sample(9, 5e7, false), 0.5);
        assert!(gate.ok(), "{:?}", gate.violations);
        assert!(gate.checked >= 5);
        assert!(gate.skipped.is_empty());
    }

    #[test]
    fn campaign_count_drift_is_exact_failure() {
        let gate = check_trend(&sample(9, 5e7, false), &sample(8, 5e7, false), 0.5);
        assert_eq!(gate.violations.len(), 1);
        assert!(gate.violations[0].contains("campaign exp1.counts.detected"));
    }

    #[test]
    fn throughput_band_gates_only_regressions() {
        // 40% slower with tolerance 0.5: inside the band.
        let gate = check_trend(&sample(9, 5e7, false), &sample(9, 3e7, false), 0.5);
        assert!(gate.ok(), "{:?}", gate.violations);
        // 60% slower: out of tolerance.
        let gate = check_trend(&sample(9, 5e7, false), &sample(9, 2e7, false), 0.5);
        assert_eq!(gate.violations.len(), 1);
        assert!(gate.violations[0].contains("cached_steps_per_sec regressed"));
        // Faster never fails.
        let gate = check_trend(&sample(9, 5e7, false), &sample(9, 9e7, false), 0.5);
        assert!(gate.ok());
    }

    #[test]
    fn mode_mismatch_skips_throughput_but_keeps_counts() {
        let gate = check_trend(&sample(9, 5e7, false), &sample(8, 1e3, true), 0.5);
        assert_eq!(gate.skipped.len(), 1);
        assert!(gate.skipped[0].contains("mode mismatch"));
        // The campaign drift still fails — skipping covers throughput only.
        assert_eq!(gate.violations.len(), 1);
        assert!(gate.violations[0].contains("counts.detected"));
    }

    #[test]
    fn missing_bench_or_campaign_is_a_violation() {
        let empty = Value::parse("{\"campaigns\":{},\"benches\":{}}").unwrap();
        let gate = check_trend(&sample(9, 5e7, false), &empty, 0.5);
        assert!(gate
            .violations
            .iter()
            .any(|v| v.contains("campaign exp1: missing")));
        assert!(gate
            .violations
            .iter()
            .any(|v| v.contains("bench engine: missing")));
        // The reverse direction (new coverage in current) is fine.
        let gate = check_trend(&empty, &sample(9, 5e7, false), 0.5);
        assert!(gate.ok());
    }

    #[test]
    fn analysis_count_drift_is_exact_failure() {
        let with_proven = |proven: u64| {
            Value::parse(&format!(
                "{{\"analysis\":{{\"exp1\":{{\"sites\":1713,\"proven\":{proven},\
                 \"flagged\":204,\"unresolved\":0}}}}}}"
            ))
            .unwrap()
        };
        let gate = check_trend(&with_proven(1509), &with_proven(1509), 0.5);
        assert!(gate.ok(), "{:?}", gate.violations);
        // A precision drop is a hard failure even though no bench moved.
        let gate = check_trend(&with_proven(1509), &with_proven(1074), 0.5);
        assert_eq!(gate.violations.len(), 1);
        assert!(gate.violations[0].contains("analysis exp1.proven"));
        // A guest vanishing from the collection is a coverage failure.
        let empty = Value::parse("{\"analysis\":{}}").unwrap();
        let gate = check_trend(&with_proven(1509), &empty, 0.5);
        assert!(gate
            .violations
            .iter()
            .any(|v| v.contains("analysis exp1: missing")));
    }

    #[test]
    fn analysis_collection_is_deterministic_and_holds_the_floor() {
        let a = collect_analysis();
        let b = collect_analysis();
        assert_eq!(a.render(), b.render());
        // The ISSUE-8 precision floor, visible straight from the trend row.
        let exp1 = a.get("exp1").unwrap();
        let proven = exp1.get("proven").unwrap().as_f64().unwrap();
        assert!(
            proven >= 1300.0,
            "exp1 proven {proven} fell below the summary-analysis target"
        );
        for name in ["exp1", "ghttpd", "null_httpd", "wu_ftpd"] {
            let row = a.get(name).unwrap();
            for field in ["sites", "proven", "flagged", "unresolved"] {
                assert!(row.get(field).is_some(), "{name} missing {field}");
            }
        }
    }

    #[test]
    fn campaign_collection_is_deterministic_and_detects() {
        let a = collect_campaigns();
        let b = collect_campaigns();
        assert_eq!(a.render(), b.render());
        for name in ["exp1", "ghttpd"] {
            let row = a.get(name).unwrap();
            assert_eq!(row.get("baseline_detected").unwrap().as_bool(), Some(true));
            let counts = row.get("counts").unwrap();
            let total: f64 = counts
                .fields()
                .iter()
                .map(|(_, v)| v.as_f64().unwrap())
                .sum();
            assert_eq!(total, TREND_TRIALS as f64, "{name} counts cover all trials");
        }
    }
}
