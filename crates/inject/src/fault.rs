//! The fault taxonomy: what a campaign can break, and where.

use ptaint_os::{IoFault, IoFaultPlan};
use ptaint_trace::ToJson;

/// Every fault class a campaign can inject.
///
/// The first four are *I/O-level* degradations applied on the kernel→user
/// boundary (scheduled by taint-delivering call index); the rest are
/// *state-level* single-event upsets applied by a [`crate::StateInjector`]
/// at a step trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Truncated delivery on `read`/`recv` (socket remainder is dropped).
    ShortRead,
    /// Interrupted call: `-EINTR`, nothing consumed.
    Eintr,
    /// Connection reset: pending session input dropped, call returns `-1`.
    ConnReset,
    /// Lossless stream fragmentation: remainder requeued for the next call.
    Fragment,
    /// Flip one *data* bit of a tainted byte in memory (taint preserved) —
    /// models corruption of attacker-reachable data.
    DataBit,
    /// Clear the shadow taint bits of a window around a tainted byte —
    /// taint *loss*, the missed-detection direction.
    TaintClear,
    /// Spuriously taint clean state (a register or a stack word) — taint
    /// *gain*, the false-alert direction.
    TaintSet,
    /// Flip one bit of a register: a value bit, or one of the four shadow
    /// taint bits.
    RegisterBit,
    /// Flip one data-or-taint bit of a valid L1/L2 cache line, breaking
    /// cache/memory coherence until the line is evicted or overwritten.
    CacheLine,
    /// Burst upset: flip 2–8 data bits of tainted bytes inside one 64-byte
    /// window (taint preserved) — models a multi-bit DRAM fault in
    /// attacker-reachable data.
    MultiBit,
    /// Clear *every* shadow taint bit in the machine — memory ranges and
    /// registers alike. The taint-loss direction at maximum scale: the
    /// detector is blinded wholesale, not around one byte.
    TaintSweep,
    /// Flip one bit of a filled decode-cache slot's pre-extended immediate
    /// — corrupts the *detector's* predecoded view of the program, not the
    /// program itself.
    DecodeSlot,
    /// Inert: no proof store exists any more, and `Machine::run_injected`
    /// has no special case for it, so a trial under this kind is a plain
    /// fault-free run. Not in [`FaultKind::ALL`] and not accepted by
    /// [`FaultKind::parse`]; kept only because the repository benchmark's
    /// campaign harness names it, until that harness next changes.
    ProofCache,
}

impl FaultKind {
    /// Every kind, in a fixed order (campaign sampling indexes into this).
    pub const ALL: [FaultKind; 12] = [
        FaultKind::ShortRead,
        FaultKind::Eintr,
        FaultKind::ConnReset,
        FaultKind::Fragment,
        FaultKind::DataBit,
        FaultKind::TaintClear,
        FaultKind::TaintSet,
        FaultKind::RegisterBit,
        FaultKind::CacheLine,
        FaultKind::MultiBit,
        FaultKind::TaintSweep,
        FaultKind::DecodeSlot,
    ];

    /// Machine-readable kind name (CLI `--faults` tokens, report keys).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FaultKind::ShortRead => "short_read",
            FaultKind::Eintr => "eintr",
            FaultKind::ConnReset => "conn_reset",
            FaultKind::Fragment => "fragment",
            FaultKind::DataBit => "data_bit",
            FaultKind::TaintClear => "taint_clear",
            FaultKind::TaintSet => "taint_set",
            FaultKind::RegisterBit => "register_bit",
            FaultKind::CacheLine => "cache_line",
            FaultKind::MultiBit => "multi_bit",
            FaultKind::TaintSweep => "taint_sweep",
            FaultKind::DecodeSlot => "decode_slot",
            FaultKind::ProofCache => "proof_cache",
        }
    }

    /// Parses a `--faults` token (the inverse of [`FaultKind::name`]).
    #[must_use]
    pub fn parse(token: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == token)
    }

    /// Whether this kind degrades the I/O boundary (vs. corrupting state).
    #[must_use]
    pub const fn is_io(self) -> bool {
        matches!(
            self,
            FaultKind::ShortRead | FaultKind::Eintr | FaultKind::ConnReset | FaultKind::Fragment
        )
    }

    /// Whether this kind attacks the *detection machinery* (shadow taint,
    /// decode cache) rather than the guest's own state or
    /// I/O. Crash-class outcomes under these kinds classify as
    /// [`crate::OutcomeClass::DetectorFault`] ("detector corrupted")
    /// instead of [`crate::OutcomeClass::GuestFault`] ("guest corrupted").
    #[must_use]
    pub const fn targets_detector(self) -> bool {
        matches!(
            self,
            FaultKind::TaintClear
                | FaultKind::TaintSet
                | FaultKind::TaintSweep
                | FaultKind::DecodeSlot
        )
    }
}

/// One concrete scheduled fault: a kind plus its trigger coordinates and a
/// salt that seeds the kind-specific placement choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// For I/O kinds: the 0-based taint-delivering call index to degrade.
    pub io_call: u64,
    /// For state kinds: the first step at which the injector may fire.
    pub step: u64,
    /// Seeds the placement (which byte, which bit, which register, …).
    pub salt: u64,
}

impl Fault {
    /// The kernel-side schedule this fault implies — empty for state kinds.
    #[must_use]
    pub fn io_plan(&self) -> IoFaultPlan {
        let keep = (self.salt % 4) as u32;
        let fault = match self.kind {
            FaultKind::ShortRead => IoFault::ShortRead { keep },
            FaultKind::Eintr => IoFault::Eintr,
            FaultKind::ConnReset => IoFault::Reset,
            // keep >= 1 so a fragmented stream always makes progress.
            FaultKind::Fragment => IoFault::Fragment { keep: keep.max(1) },
            _ => return IoFaultPlan::new(),
        };
        IoFaultPlan::new().on_call(self.io_call, fault)
    }
}

impl ToJson for Fault {
    fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"io_call\":{},\"step\":{},\"salt\":{}}}",
            self.kind.name(),
            self.io_call,
            self.step,
            self.salt
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::parse("cosmic_ray"), None);
        assert_eq!(FaultKind::parse(FaultKind::ProofCache.name()), None);
    }

    #[test]
    fn io_plan_only_for_io_kinds() {
        let f = Fault {
            kind: FaultKind::ShortRead,
            io_call: 2,
            step: 0,
            salt: 7,
        };
        assert_eq!(f.io_plan().at(2), Some(IoFault::ShortRead { keep: 3 }));
        let s = Fault {
            kind: FaultKind::TaintClear,
            io_call: 2,
            step: 100,
            salt: 7,
        };
        assert!(s.io_plan().is_empty());
    }

    #[test]
    fn fragment_always_keeps_at_least_one_byte() {
        let f = Fault {
            kind: FaultKind::Fragment,
            io_call: 0,
            step: 0,
            salt: 4, // salt % 4 == 0
        };
        assert_eq!(f.io_plan().at(0), Some(IoFault::Fragment { keep: 1 }));
    }

    #[test]
    fn detector_targeting_kinds_are_the_meta_level_ones() {
        let meta: Vec<FaultKind> = FaultKind::ALL
            .into_iter()
            .filter(|k| k.targets_detector())
            .collect();
        assert_eq!(
            meta,
            [
                FaultKind::TaintClear,
                FaultKind::TaintSet,
                FaultKind::TaintSweep,
                FaultKind::DecodeSlot,
            ]
        );
        // No kind is both an I/O degradation and a detector attack.
        assert!(!FaultKind::ALL
            .into_iter()
            .any(|k| k.is_io() && k.targets_detector()));
    }

    #[test]
    fn fault_json_is_flat_and_stable() {
        let f = Fault {
            kind: FaultKind::RegisterBit,
            io_call: 1,
            step: 42,
            salt: 9,
        };
        assert_eq!(
            f.to_json(),
            "{\"kind\":\"register_bit\",\"io_call\":1,\"step\":42,\"salt\":9}"
        );
    }
}
