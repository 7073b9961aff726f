//! The structured event vocabulary emitted by the emulator's hooks.

use crate::json::{escape, taint_str};
use ptaint_isa::{Instr, Reg};
use std::fmt;

/// A location taint can live in, as seen by the propagation hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// A general-purpose register.
    Reg(Reg),
    /// A memory word starting at this byte address.
    Mem(u32),
    /// The multiply/divide result pair (`hi`/`lo`).
    HiLo,
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::Reg(r) => write!(f, "{r}"),
            Loc::Mem(a) => write!(f, "mem[0x{a:x}]"),
            Loc::HiLo => f.write_str("hilo"),
        }
    }
}

/// One taint movement: an instruction wrote `taint_bits` of taint into
/// `dst`, computed from up to two source locations under a named ALU rule.
///
/// Transfers are only emitted when taint is actually in motion (some source
/// or the destination is tainted), so the stream stays sparse relative to
/// the instructions retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Address of the propagating instruction.
    pub pc: u32,
    /// The propagating instruction.
    pub instr: Instr,
    /// Name of the propagation rule that produced the result taint
    /// (e.g. `"generic"`, `"and-mask"`, `"xor-idiom"`, `"load"`, `"store"`).
    pub rule: &'static str,
    /// Where the result (and its taint) went.
    pub dst: Loc,
    /// The source locations, in operand order.
    pub srcs: [Option<Loc>; 2],
    /// Per-byte taint of the value written to `dst` (bit 0 = LSB).
    pub taint_bits: u8,
}

impl fmt::Display for Transfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}: {}  {} <-", self.pc, self.instr, self.dst)?;
        let mut any = false;
        for src in self.srcs.iter().flatten() {
            write!(f, "{}{}", if any { "," } else { " " }, src)?;
            any = true;
        }
        if !any {
            f.write_str(" (const)")?;
        }
        write!(f, " [{}] via {}", taint_str(self.taint_bits), self.rule)
    }
}

/// A structured observation from the emulator.
///
/// Events are borrowed by [`crate::Observer::on_event`]; everything they
/// carry is either `Copy` or a short label built at the source site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Fresh taint entered the guest from the outside world.
    TaintSource {
        /// Source category: `"syscall"`, `"argv"`, or `"env"`.
        kind: &'static str,
        /// Human-readable origin, e.g. `recv#2 fd=4` or `argv[1]`.
        label: String,
        /// First tainted guest address.
        base: u32,
        /// Number of tainted bytes written.
        len: u32,
    },
    /// Taint moved between locations (see [`Transfer`]).
    TaintPropagate(Transfer),
    /// A tainted value reached a pointer-check site (load/store address or
    /// indirect-jump target). Only emitted when the checked word carries
    /// taint; `flagged` says whether the active policy raised an alert.
    PointerCheck {
        /// Address of the checking instruction.
        pc: u32,
        /// The instruction performing the dereference or jump.
        instr: Instr,
        /// Register holding the checked pointer.
        reg: Reg,
        /// The pointer value.
        value: u32,
        /// Per-byte taint of the pointer (bit 0 = LSB).
        taint_bits: u8,
        /// Whether the detection policy turned this into an alert.
        flagged: bool,
    },
    /// A security alert fired.
    Alert {
        /// Address of the faulting instruction.
        pc: u32,
        /// The faulting instruction.
        instr: Instr,
        /// Alert kind name (e.g. `"tainted data pointer"`).
        kind: &'static str,
        /// Active detection policy name (`"ptaint"`, `"control-only"`).
        policy: &'static str,
        /// Register holding the tainted pointer.
        reg: Reg,
        /// The tainted pointer value.
        value: u32,
        /// Per-byte taint of the pointer (bit 0 = LSB).
        taint_bits: u8,
    },
    /// The kernel model handled a syscall.
    Syscall {
        /// Address of the `syscall` instruction.
        pc: u32,
        /// Raw syscall number from `$v0`.
        number: u32,
        /// Mnemonic name, or `"unknown"`.
        name: &'static str,
        /// Result value written back to `$v0`.
        result: i32,
        /// Instructions retired when the trap was taken, the `syscall`
        /// itself included (`ExecStats::instructions`): anchors the row in
        /// the run's timeline.
        retired: u64,
    },
    /// The fault-injection harness applied a fault to this run.
    FaultInjected {
        /// Fault kind name (e.g. `"taint_clear"`, `"short_read"`).
        kind: &'static str,
        /// Human-readable description of what was corrupted.
        detail: String,
    },
    /// A copy-on-write machine snapshot was captured — the baseline that
    /// later runs fork from.
    Snapshot {
        /// Resident guest memory pages captured in the snapshot.
        pages: u64,
    },
    /// A machine forked copy-on-write from a snapshot.
    Fork {
        /// Pages shared with the snapshot immediately after the fork.
        pages_shared: u64,
        /// COW write faults the forking timeline had absorbed when it
        /// forked (private page copies it materialized).
        cow_faults: u64,
    },
    /// The periodic decode-cache integrity check tripped: the CPU dropped
    /// every decoded page and continues, refilling from authoritative
    /// memory.
    DegradedMode {
        /// What the integrity check found (a slot checksum mismatch).
        reason: String,
    },
    /// A replayed run issued a syscall its journal did not record, so
    /// replay stopped with a structured divergence.
    ReplayDivergence {
        /// 0-based journal index where replay stopped.
        index: u64,
        /// The recorded call at that index (or `<end of journal>`).
        expected: String,
        /// The call the guest actually issued.
        actual: String,
    },
}

impl Event {
    /// Machine-readable discriminant used in the JSONL `"event"` field.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Event::TaintSource { .. } => "taint_source",
            Event::TaintPropagate(_) => "taint_propagate",
            Event::PointerCheck { .. } => "pointer_check",
            Event::Alert { .. } => "alert",
            Event::Syscall { .. } => "syscall",
            Event::FaultInjected { .. } => "fault_injected",
            Event::Snapshot { .. } => "snapshot",
            Event::Fork { .. } => "fork",
            Event::DegradedMode { .. } => "degraded_mode",
            Event::ReplayDivergence { .. } => "replay_divergence",
        }
    }

    /// The event's JSON fields, without the enclosing braces, so sinks can
    /// prepend bookkeeping of their own (e.g. a sequence number).
    #[must_use]
    pub fn json_fields(&self) -> String {
        match self {
            Event::TaintSource {
                kind,
                label,
                base,
                len,
            } => format!(
                "\"event\":\"taint_source\",\"kind\":{},\"label\":{},\"base\":\"0x{base:x}\",\"len\":{len}",
                escape(kind),
                escape(label),
            ),
            Event::TaintPropagate(t) => {
                let srcs: Vec<String> = t
                    .srcs
                    .iter()
                    .flatten()
                    .map(|s| escape(&s.to_string()))
                    .collect();
                format!(
                    "\"event\":\"taint_propagate\",\"pc\":\"0x{:x}\",\"instr\":{},\"rule\":{},\"dst\":{},\"srcs\":[{}],\"taint\":{}",
                    t.pc,
                    escape(&t.instr.to_string()),
                    escape(t.rule),
                    escape(&t.dst.to_string()),
                    srcs.join(","),
                    escape(&taint_str(t.taint_bits)),
                )
            }
            Event::PointerCheck {
                pc,
                instr,
                reg,
                value,
                taint_bits,
                flagged,
            } => format!(
                "\"event\":\"pointer_check\",\"pc\":\"0x{pc:x}\",\"instr\":{},\"reg\":{},\"value\":\"0x{value:x}\",\"taint\":{},\"flagged\":{flagged}",
                escape(&instr.to_string()),
                escape(&reg.to_string()),
                escape(&taint_str(*taint_bits)),
            ),
            Event::Alert {
                pc,
                instr,
                kind,
                policy,
                reg,
                value,
                taint_bits,
            } => format!(
                "\"event\":\"alert\",\"pc\":\"0x{pc:x}\",\"instr\":{},\"kind\":{},\"policy\":{},\"reg\":{},\"value\":\"0x{value:x}\",\"taint\":{}",
                escape(&instr.to_string()),
                escape(kind),
                escape(policy),
                escape(&reg.to_string()),
                escape(&taint_str(*taint_bits)),
            ),
            Event::Syscall {
                pc,
                number,
                name,
                result,
                retired,
            } => format!(
                "\"event\":\"syscall\",\"pc\":\"0x{pc:x}\",\"number\":{number},\"name\":{},\"result\":{result},\"retired\":{retired}",
                escape(name),
            ),
            Event::FaultInjected { kind, detail } => format!(
                "\"event\":\"fault_injected\",\"kind\":{},\"detail\":{}",
                escape(kind),
                escape(detail),
            ),
            Event::Snapshot { pages } => {
                format!("\"event\":\"snapshot\",\"pages\":{pages}")
            }
            Event::Fork {
                pages_shared,
                cow_faults,
            } => format!(
                "\"event\":\"fork\",\"pages_shared\":{pages_shared},\"cow_faults\":{cow_faults}"
            ),
            Event::DegradedMode { reason } => format!(
                "\"event\":\"degraded_mode\",\"reason\":{}",
                escape(reason),
            ),
            Event::ReplayDivergence {
                index,
                expected,
                actual,
            } => format!(
                "\"event\":\"replay_divergence\",\"index\":{index},\"expected\":{},\"actual\":{}",
                escape(expected),
                escape(actual),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_display_matches_the_forensic_style() {
        assert_eq!(Loc::Reg(Reg::new(3)).to_string(), "$3");
        assert_eq!(Loc::Mem(0x1002_bc20).to_string(), "mem[0x1002bc20]");
        assert_eq!(Loc::HiLo.to_string(), "hilo");
    }

    #[test]
    fn event_json_fields_are_stable() {
        let e = Event::Syscall {
            pc: 0x400010,
            number: 46,
            name: "recv",
            result: 128,
            retired: 9,
        };
        assert_eq!(
            e.json_fields(),
            "\"event\":\"syscall\",\"pc\":\"0x400010\",\"number\":46,\"name\":\"recv\",\"result\":128,\"retired\":9"
        );
    }

    #[test]
    fn taint_source_labels_are_escaped() {
        let e = Event::TaintSource {
            kind: "argv",
            label: "argv[\"x\"]".to_string(),
            base: 0x7fff_0000,
            len: 8,
        };
        assert!(e.json_fields().contains("argv[\\\"x\\\"]"));
    }
}
