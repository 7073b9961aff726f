//! Event-stream aggregation: taint heatmap, source totals, syscall table.

use ptaint_trace::{Event, Observer};
use std::collections::BTreeMap;

/// Per-site (per-pc) taint activity counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SiteCounters {
    /// `taint_propagate` events at this pc (Table-1 rules firing).
    pub propagations: u64,
    /// `pointer_check` events (a tainted address/target was inspected).
    pub checks: u64,
    /// Checks that flagged (would alert under the strictest policy).
    pub flagged: u64,
    /// `alert` events (the detector actually raised).
    pub alerts: u64,
}

impl SiteCounters {
    /// Sum of all counters — the site's heat.
    #[must_use]
    pub fn heat(&self) -> u64 {
        self.propagations + self.checks + self.flagged + self.alerts
    }
}

/// Taint-source totals for one source kind (`syscall`, `argv`, ...).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SourceAgg {
    /// Source events of this kind.
    pub count: u64,
    /// Total bytes tainted by them.
    pub bytes: u64,
}

/// Per-syscall accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyscallAgg {
    /// Invocations.
    pub count: u64,
    /// Instructions retired since the previous syscall (any syscall),
    /// summed — the guest-step latency spent reaching each invocation.
    pub steps: u64,
}

/// An [`Observer`] that folds the taint event stream into a heatmap.
///
/// Sites are keyed by pc (symbolization happens at report time, so the
/// collector stays independent of the image). All maps are `BTreeMap`s:
/// iteration order — and therefore report output — is deterministic.
#[derive(Debug, Default)]
pub struct EventProfile {
    /// Taint activity by site pc.
    pub sites: BTreeMap<u32, SiteCounters>,
    /// Taint sources by kind.
    pub sources: BTreeMap<&'static str, SourceAgg>,
    /// Syscall table by name.
    pub syscalls: BTreeMap<&'static str, SyscallAgg>,
    last_syscall_retired: u64,
}

impl EventProfile {
    /// A fresh, empty collector.
    #[must_use]
    pub fn new() -> EventProfile {
        EventProfile::default()
    }

    fn site(&mut self, pc: u32) -> &mut SiteCounters {
        self.sites.entry(pc).or_default()
    }
}

impl Observer for EventProfile {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::TaintSource { kind, len, .. } => {
                let agg = self.sources.entry(*kind).or_default();
                agg.count += 1;
                agg.bytes += u64::from(*len);
            }
            Event::TaintPropagate(transfer) => self.site(transfer.pc).propagations += 1,
            Event::PointerCheck { pc, flagged, .. } => {
                let site = self.site(*pc);
                site.checks += 1;
                if *flagged {
                    site.flagged += 1;
                }
            }
            Event::Alert { pc, .. } => self.site(*pc).alerts += 1,
            Event::Syscall { name, retired, .. } => {
                let steps = retired - self.last_syscall_retired;
                self.last_syscall_retired = *retired;
                let agg = self.syscalls.entry(*name).or_default();
                agg.count += 1;
                agg.steps += steps;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_isa::{Instr, MemWidth, Reg};

    #[test]
    fn syscall_latency_is_steps_since_previous_syscall() {
        let mut p = EventProfile::new();
        for retired in [5, 8] {
            p.on_event(&Event::Syscall {
                pc: 0x40_0010,
                number: 46,
                name: "recv",
                result: 4,
                retired,
            });
        }
        let recv = p.syscalls["recv"];
        assert_eq!(recv.count, 2);
        assert_eq!(recv.steps, 8);
    }

    #[test]
    fn sites_aggregate_checks_by_pc() {
        let probe = Instr::Load {
            width: MemWidth::Word,
            signed: true,
            rt: Reg::new(9),
            base: Reg::new(8),
            offset: 0,
        };
        let mut p = EventProfile::new();
        p.on_event(&Event::PointerCheck {
            pc: 0x40_0104,
            instr: probe,
            reg: Reg::new(8),
            value: 0x6161_6161,
            taint_bits: 0b1111,
            flagged: true,
        });
        let hot = p.sites[&0x40_0104];
        assert_eq!((hot.checks, hot.flagged), (1, 1));
        assert_eq!(hot.heat(), 2);
    }

    #[test]
    fn sources_fold_counts_and_bytes_by_kind() {
        let mut p = EventProfile::new();
        for len in [4u32, 12] {
            p.on_event(&Event::TaintSource {
                kind: "syscall",
                label: format!("recv#1 fd={len}"),
                base: 0x1000_0000,
                len,
            });
        }
        assert_eq!(
            p.sources["syscall"],
            SourceAgg {
                count: 2,
                bytes: 16
            }
        );
    }
}
