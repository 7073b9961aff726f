//! Run metrics: the machine's own counters plus the ordered facts folded
//! from the event stream.

use crate::event::Event;
use crate::json::{escape, ToJson};
use ptaint_mem::CacheStats;
use std::collections::BTreeMap;

/// Retire-count width of one taint-density window.
pub const DENSITY_WINDOW: u64 = 1024;

/// Decode-cache counters of the predecoded execution engine (the
/// `ExecStats::decode_cache_*` fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheCounters {
    /// Steps dispatched straight from the decode cache.
    pub hits: u64,
    /// Steps that predecoded a block (first execution, or re-decode after
    /// an invalidation).
    pub misses: u64,
    /// Cached text pages dropped because something stored into them.
    pub invalidations: u64,
}

/// The machine's counters at one instant. This crate sits below the CPU,
/// so the run loop copies them in from `ExecStats` and the memory system's
/// [`CacheStats`] whenever it polls the hub.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Instructions retired (`ExecStats::instructions`).
    pub retired: u64,
    /// Retired instructions that read a tainted operand
    /// (`ExecStats::tainted_operand_instructions`).
    pub tainted_retired: u64,
    /// L1/L2 probe counters (index 0 = L1; zero for an absent level).
    pub cache: [CacheStats; 2],
    /// Decode-cache activity of the predecoded execution engine.
    pub decode_cache: DecodeCacheCounters,
    /// Faults the injection harness applied (`ExecStats::injected_faults`).
    pub faults_injected: u64,
}

/// Aggregated view of one run, produced by [`MetricsCollector::snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Instructions retired.
    pub retired: u64,
    /// Retired instructions that touched at least one tainted operand.
    pub tainted_retired: u64,
    /// Labeled taint sources observed.
    pub taint_sources: u64,
    /// Total bytes tainted by those sources.
    pub source_bytes: u64,
    /// Taint propagation transfers observed.
    pub propagations: u64,
    /// Transfers broken down by propagation-rule name.
    pub propagations_by_rule: BTreeMap<&'static str, u64>,
    /// Pointer checks that saw a tainted pointer.
    pub pointer_checks: u64,
    /// Alerts raised.
    pub alerts: u64,
    /// Alerts broken down by kind.
    pub alerts_by_kind: BTreeMap<&'static str, u64>,
    /// Syscalls handled, by mnemonic.
    pub syscalls: BTreeMap<&'static str, u64>,
    /// L1/L2 probe counters (index 0 = L1).
    pub cache: [CacheStats; 2],
    /// Decode-cache activity of the predecoded execution engine.
    pub decode_cache: DecodeCacheCounters,
    /// Faults the injection harness applied (zero outside campaigns).
    pub faults_injected: u64,
    /// Applied faults broken down by fault-kind name.
    pub faults_by_kind: BTreeMap<&'static str, u64>,
    /// Pages shared copy-on-write at the most recent observed fork (zero
    /// when the run never forked).
    pub pages_shared: u64,
    /// COW write faults accumulated across observed fork events (private
    /// page copies materialized by forking timelines).
    pub cow_faults: u64,
    /// Tainted-retire fraction per [`DENSITY_WINDOW`]-instruction window,
    /// in execution order — the taint-density-over-time histogram.
    pub taint_density: Vec<f64>,
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> String {
        let map = |m: &BTreeMap<&'static str, u64>| -> String {
            let fields: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{}:{v}", escape(k)))
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let density: Vec<String> = self
            .taint_density
            .iter()
            .map(|d| format!("{d:.6}"))
            .collect();
        format!(
            concat!(
                "{{\"retired\":{},\"tainted_retired\":{},\"taint_sources\":{},",
                "\"source_bytes\":{},\"propagations\":{},\"propagations_by_rule\":{},",
                "\"pointer_checks\":{},\"alerts\":{},\"alerts_by_kind\":{},",
                "\"syscalls\":{},\"cache\":[{{\"hits\":{},\"misses\":{}}},{{\"hits\":{},\"misses\":{}}}],",
                "\"decode_cache\":{{\"hits\":{},\"misses\":{},\"invalidations\":{}}},",
                "\"faults_injected\":{},\"faults_by_kind\":{},",
                "\"pages_shared\":{},\"cow_faults\":{},",
                "\"taint_density\":[{}]}}"
            ),
            self.retired,
            self.tainted_retired,
            self.taint_sources,
            self.source_bytes,
            self.propagations,
            map(&self.propagations_by_rule),
            self.pointer_checks,
            self.alerts,
            map(&self.alerts_by_kind),
            map(&self.syscalls),
            self.cache[0].hits,
            self.cache[0].misses,
            self.cache[1].hits,
            self.cache[1].misses,
            self.decode_cache.hits,
            self.decode_cache.misses,
            self.decode_cache.invalidations,
            self.faults_injected,
            map(&self.faults_by_kind),
            self.pages_shared,
            self.cow_faults,
            density.join(","),
        )
    }
}

/// Folds the ordered facts of the event stream (sources, propagations,
/// checks, alerts, syscalls, faults by kind, forks) and closes the
/// taint-density windows as the run loop polls the machine's [`Counters`].
#[derive(Debug, Default)]
pub struct MetricsCollector {
    snap: MetricsSnapshot,
    /// `(retired, tainted_retired)` where the open density window began.
    window: (u64, u64),
}

impl MetricsCollector {
    /// A collector with all counters at zero.
    #[must_use]
    pub fn new() -> MetricsCollector {
        MetricsCollector::default()
    }

    /// Folds one event into the counters.
    pub fn record(&mut self, event: &Event) {
        match event {
            Event::TaintSource { len, .. } => {
                self.snap.taint_sources += 1;
                self.snap.source_bytes += u64::from(*len);
            }
            Event::TaintPropagate(t) => {
                self.snap.propagations += 1;
                *self.snap.propagations_by_rule.entry(t.rule).or_insert(0) += 1;
            }
            Event::PointerCheck { .. } => self.snap.pointer_checks += 1,
            Event::Alert { kind, .. } => {
                self.snap.alerts += 1;
                *self.snap.alerts_by_kind.entry(kind).or_insert(0) += 1;
            }
            Event::Syscall { name, .. } => {
                *self.snap.syscalls.entry(name).or_insert(0) += 1;
            }
            Event::FaultInjected { kind, .. } => {
                *self.snap.faults_by_kind.entry(kind).or_insert(0) += 1;
            }
            // Snapshot captures, replay divergences and degraded-mode
            // transitions carry no counters of their own (degradations are
            // counted in `ExecStats::integrity_failures`); fork events feed
            // the COW metrics.
            Event::Snapshot { .. }
            | Event::ReplayDivergence { .. }
            | Event::DegradedMode { .. } => {}
            Event::Fork {
                pages_shared,
                cow_faults,
            } => {
                self.snap.pages_shared = *pages_shared;
                self.snap.cow_faults += cow_faults;
            }
        }
    }

    /// Retired count at which the open density window closes.
    #[must_use]
    pub fn window_end(&self) -> u64 {
        self.window.0 + DENSITY_WINDOW
    }

    /// Closes the open density window when `now` has reached its end. The
    /// run loop polls on every retire boundary it cares about, so `now`
    /// lands exactly on the edge and the window spans [`DENSITY_WINDOW`]
    /// instructions.
    pub fn poll(&mut self, now: &Counters) {
        if now.retired >= self.window_end() {
            let density = self.open_window_density(now);
            self.snap.taint_density.push(density);
            self.window = (now.retired, now.tainted_retired);
        }
    }

    /// Tainted fraction of the instructions retired since the open window
    /// began.
    fn open_window_density(&self, now: &Counters) -> f64 {
        let (retired, tainted) = self.window;
        (now.tainted_retired - tainted) as f64 / (now.retired - retired) as f64
    }

    /// The totals as of `now`: the folded events, the machine counters,
    /// and the density windows, with the open one appended when it holds
    /// any instruction. Collection continues unperturbed, so this serves
    /// both the periodic `metrics_snapshot` records and the final report.
    #[must_use]
    pub fn snapshot(&self, now: &Counters) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            retired: now.retired,
            tainted_retired: now.tainted_retired,
            cache: now.cache,
            decode_cache: now.decode_cache,
            faults_injected: now.faults_injected,
            ..self.snap.clone()
        };
        if now.retired > self.window.0 {
            snap.taint_density.push(self.open_window_density(now));
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(retired: u64, tainted_retired: u64) -> Counters {
        Counters {
            retired,
            tainted_retired,
            ..Counters::default()
        }
    }

    #[test]
    fn density_windows_capture_the_tainted_fraction() {
        let mut m = MetricsCollector::new();
        assert_eq!(m.window_end(), DENSITY_WINDOW);
        // Polls before the edge close nothing.
        m.poll(&at(DENSITY_WINDOW - 1, 3));
        m.poll(&at(DENSITY_WINDOW, DENSITY_WINDOW / 4));
        assert_eq!(m.window_end(), 2 * DENSITY_WINDOW);
        let snap = m.snapshot(&at(DENSITY_WINDOW + 10, DENSITY_WINDOW / 4 + 10));
        assert_eq!(snap.retired, DENSITY_WINDOW + 10);
        assert_eq!(snap.tainted_retired, DENSITY_WINDOW / 4 + 10);
        assert_eq!(snap.taint_density.len(), 2);
        assert!((snap.taint_density[0] - 0.25).abs() < 1e-9);
        assert!((snap.taint_density[1] - 1.0).abs() < 1e-9);
        // A snapshot on the edge of a closed window adds no empty window.
        assert_eq!(m.snapshot(&at(DENSITY_WINDOW, 0)).taint_density.len(), 1);
    }

    #[test]
    fn breakdown_maps_count_by_name() {
        let mut m = MetricsCollector::new();
        for result in [16, 0] {
            m.record(&Event::Syscall {
                pc: 0,
                number: 46,
                name: "recv",
                result,
                retired: 1,
            });
        }
        m.record(&Event::TaintSource {
            kind: "syscall",
            label: "recv#1".to_string(),
            base: 0x1000,
            len: 16,
        });
        for kind in ["taint_clear", "short_read", "taint_clear"] {
            m.record(&Event::FaultInjected {
                kind,
                detail: "x".to_string(),
            });
        }
        let snap = m.snapshot(&Counters::default());
        assert_eq!(snap.syscalls.get("recv"), Some(&2));
        assert_eq!(snap.taint_sources, 1);
        assert_eq!(snap.source_bytes, 16);
        assert_eq!(snap.faults_by_kind.get("taint_clear"), Some(&2));
        let json = snap.to_json();
        assert!(json.contains("\"syscalls\":{\"recv\":2}"), "{json}");
        assert!(
            json.contains("\"faults_by_kind\":{\"short_read\":1,\"taint_clear\":2}"),
            "{json}"
        );
    }
}
