//! # ptaint-profile — guest-level profiling for the taint architecture
//!
//! The paper sells pointer-taintedness detection on cost; this crate says
//! *where the cycles go*. Four collectors, all byte-deterministic (counts
//! only — no wall-clock data ever enters a report):
//!
//! * [`PcHistogram`] — a per-PC retirement histogram collected in the hot
//!   loop via per-text-page counter arrays (the same page/slot layout as
//!   the decode cache: one 1024-slot array per 4 KiB page, last-page
//!   shortcut). Zero cost when disabled: the CPU holds an
//!   `Option<Box<HotProfile>>` and the retire hook is one branch.
//! * [`CallTree`] — a lightweight shadow call stack driven by the retired
//!   instruction stream (`jal`/`jalr` push, `jr $ra` pops), folded into a
//!   tree of call paths with exclusive retire counts. Rendered as
//!   deterministic collapsed stacks (`main;handle;log_request 123`) —
//!   directly flamegraph-compatible.
//! * [`EventProfile`] — an [`Observer`](ptaint_trace::Observer) that
//!   aggregates the taint event stream into a heatmap: per-site (pc)
//!   propagation/check/alert counters, taint sources by kind, and
//!   per-syscall count + step-latency accounting.
//! * [`ProfileReport`] — the merge of the above, symbolized through a
//!   [`SymbolTable`], with a hand-rolled [`to_json`](ProfileReport::to_json)
//!   (pinned field order, counts only) and a human-readable top-N report
//!   ([`render_text`](ProfileReport::render_text)).
//!
//! The crate depends only on `ptaint-isa` and `ptaint-trace` so the CPU
//! crate can own a [`HotProfile`] without a dependency cycle; symbol names
//! are fed in by the caller (the `Machine` layer reads them off the
//! assembled `Image`).

mod calltree;
mod events;
mod hist;
mod report;
mod symbols;

pub use calltree::CallTree;
pub use events::{EventProfile, SiteCounters, SourceAgg, SyscallAgg};
pub use hist::{PcHistogram, PAGE_SLOTS};
pub use report::{HotPc, ProfileReport, SymbolCount, SyscallRow, TaintSite};
pub use symbols::SymbolTable;

use ptaint_isa::{Instr, Reg};

/// The hot-loop collector owned by the CPU: per-PC histogram + shadow call
/// stack. All three hooks are `#[inline]` and allocation-free on the steady
/// path (a call into a new page or a new call-tree edge allocates once).
#[derive(Debug, Default)]
pub struct HotProfile {
    /// Per-PC retirement counts.
    pub hist: PcHistogram,
    /// Shadow call stack / call-path tree.
    pub calls: CallTree,
}

impl HotProfile {
    /// A fresh, empty profile.
    #[must_use]
    pub fn new() -> HotProfile {
        HotProfile::default()
    }

    /// One instruction retired at `pc`.
    #[inline]
    pub fn on_retire(&mut self, pc: u32) {
        self.hist.bump(pc);
        self.calls.on_retire(pc);
    }

    /// Classify a retired instruction for the shadow call stack: `jal` and
    /// `jalr` push the callee entry (`next_pc`, the resolved jump target);
    /// `jr $ra` pops. Everything else is a no-op.
    #[inline]
    pub fn on_control(&mut self, instr: &Instr, next_pc: u32) {
        match instr {
            Instr::Jump { link: true, .. } | Instr::JumpAndLinkReg { .. } => {
                self.calls.on_call(next_pc);
            }
            Instr::JumpReg { rs } if *rs == Reg::RA => self.calls.on_ret(),
            _ => {}
        }
    }

    /// Total retired instructions seen (equals `ExecStats::instructions`
    /// when the profiler was enabled for the whole run).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hist.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_classification_matches_the_isa() {
        let mut p = HotProfile::new();
        p.on_retire(0x40_0000);
        p.on_control(
            &Instr::Jump {
                target: 0x40_0100,
                link: true,
            },
            0x40_0100,
        );
        p.on_retire(0x40_0100);
        p.on_control(
            &Instr::JumpAndLinkReg {
                rd: Reg::RA,
                rs: Reg::new(8),
            },
            0x40_0200,
        );
        p.on_retire(0x40_0200);
        p.on_control(&Instr::JumpReg { rs: Reg::RA }, 0x40_0104);
        // `jr` through a non-$ra register is a computed jump, not a return.
        p.on_control(&Instr::JumpReg { rs: Reg::new(8) }, 0x40_0300);
        assert_eq!(p.total(), 3);
        assert_eq!(p.calls.depth(), 2); // root -> 0x400100 (one ret popped 0x400200)
    }
}
