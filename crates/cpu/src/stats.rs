//! Execution statistics.

use std::fmt;

use ptaint_trace::ToJson;

/// Counters accumulated by the [`Cpu`](crate::Cpu) while executing.
///
/// These feed the paper's evaluation tables: instruction counts for the
/// false-positive runs of Table 3, and the tainted-instruction ratios behind
/// the overhead discussion of §5.4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Load instructions retired.
    pub loads: u64,
    /// Store instructions retired.
    pub stores: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Register-indirect jumps (`jr`/`jalr`) retired.
    pub register_jumps: u64,
    /// `syscall` traps taken.
    pub syscalls: u64,
    /// Instructions that read at least one tainted source operand.
    pub tainted_operand_instructions: u64,
    /// Loads/stores whose *address word* was tainted (counted even when the
    /// detection policy does not raise an alert, so the baseline policies can
    /// report what they missed).
    pub tainted_pointer_dereferences: u64,
    /// Steps the cached engine dispatched straight from its decode cache
    /// (always zero under the interpreter).
    pub decode_cache_hits: u64,
    /// Steps the cached engine predecoded a straight-line block (first
    /// execution of a page, or re-decode after an invalidation).
    pub decode_cache_misses: u64,
    /// Cached text pages dropped because something stored into them
    /// (self-modifying-code coherence).
    pub decode_cache_invalidations: u64,
    /// Faults the injection harness applied to this run (I/O degradations
    /// and state corruptions). Zero outside fault-injection campaigns.
    pub injected_faults: u64,
    /// Times the periodic decode-cache integrity check (page slot
    /// checksums) tripped and the CPU dropped every decoded page.
    pub integrity_failures: u64,
}

impl ExecStats {
    /// Fraction of instructions that touched tainted data — the dynamic
    /// taint activity of a workload.
    #[must_use]
    pub fn tainted_instruction_ratio(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.tainted_operand_instructions as f64 / self.instructions as f64
        }
    }

    /// This record with the decode-cache counters zeroed.
    ///
    /// Those counters describe *engine* activity, not guest-visible
    /// behaviour, so the engine differential tests compare
    /// `a.without_decode_cache() == b.without_decode_cache()` to assert
    /// that the interpreter and the cached engine agree on everything
    /// architecturally meaningful.
    #[must_use]
    pub fn without_decode_cache(mut self) -> ExecStats {
        self.decode_cache_hits = 0;
        self.decode_cache_misses = 0;
        self.decode_cache_invalidations = 0;
        self
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions ({} loads, {} stores, {} branches, {} reg-jumps, {} syscalls), \
             {} tainted-operand ({:.4}%), {} tainted-pointer derefs, \
             decode-cache {}h/{}m/{}inv, {} injected faults, \
             {} integrity failures",
            self.instructions,
            self.loads,
            self.stores,
            self.branches,
            self.register_jumps,
            self.syscalls,
            self.tainted_operand_instructions,
            self.tainted_instruction_ratio() * 100.0,
            self.tainted_pointer_dereferences,
            self.decode_cache_hits,
            self.decode_cache_misses,
            self.decode_cache_invalidations,
            self.injected_faults,
            self.integrity_failures
        )
    }
}

impl ToJson for ExecStats {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"instructions\":{},\"loads\":{},\"stores\":{},\"branches\":{},",
                "\"register_jumps\":{},\"syscalls\":{},\"tainted_operand_instructions\":{},",
                "\"tainted_pointer_dereferences\":{},\"decode_cache_hits\":{},",
                "\"decode_cache_misses\":{},\"decode_cache_invalidations\":{},",
                "\"injected_faults\":{},\"integrity_failures\":{}}}"
            ),
            self.instructions,
            self.loads,
            self.stores,
            self.branches,
            self.register_jumps,
            self.syscalls,
            self.tainted_operand_instructions,
            self.tainted_pointer_dereferences,
            self.decode_cache_hits,
            self.decode_cache_misses,
            self.decode_cache_invalidations,
            self.injected_faults,
            self.integrity_failures
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_zero_instructions() {
        assert_eq!(ExecStats::default().tainted_instruction_ratio(), 0.0);
    }

    #[test]
    fn ratio_math() {
        let stats = ExecStats {
            instructions: 200,
            tainted_operand_instructions: 50,
            ..ExecStats::default()
        };
        assert!((stats.tainted_instruction_ratio() - 0.25).abs() < 1e-12);
        assert!(stats.to_string().contains("200 instructions"));
    }

    #[test]
    fn display_reports_tainted_pointer_dereferences() {
        // Regression: baseline policies exist to report what they *missed*,
        // so the summary line must include this counter.
        let stats = ExecStats {
            instructions: 10,
            tainted_pointer_dereferences: 3,
            ..ExecStats::default()
        };
        assert!(stats.to_string().contains("3 tainted-pointer derefs"));
    }

    #[test]
    fn json_includes_every_counter() {
        let stats = ExecStats {
            instructions: 7,
            tainted_pointer_dereferences: 2,
            ..ExecStats::default()
        };
        let json = stats.to_json();
        assert!(json.contains("\"instructions\":7"));
        assert!(json.contains("\"tainted_pointer_dereferences\":2"));
    }

    #[test]
    fn decode_cache_counters_round_trip_and_normalize() {
        let stats = ExecStats {
            instructions: 100,
            decode_cache_hits: 98,
            decode_cache_misses: 2,
            decode_cache_invalidations: 1,
            injected_faults: 5,
            ..ExecStats::default()
        };
        assert!(stats.to_string().contains("decode-cache 98h/2m/1inv"));
        assert!(stats.to_string().contains("5 injected faults"));
        let json = stats.to_json();
        assert!(json.contains("\"decode_cache_hits\":98"));
        assert!(json.contains("\"decode_cache_misses\":2"));
        assert!(json.contains("\"decode_cache_invalidations\":1"));
        assert!(json.contains("\"injected_faults\":5"));
        // Normalizing erases only the engine-activity counters.
        let plain = stats.without_decode_cache();
        assert_eq!(plain.instructions, 100);
        assert_eq!(plain.decode_cache_hits, 0);
        assert_eq!(plain.decode_cache_misses, 0);
        assert_eq!(plain.decode_cache_invalidations, 0);
        assert_eq!(
            plain,
            ExecStats {
                instructions: 100,
                injected_faults: 5,
                ..ExecStats::default()
            }
        );
    }

    #[test]
    fn integrity_failure_counter_round_trips_and_survives_normalization() {
        // Like injected faults, an integrity failure describes what the
        // experiment did to the machine, not engine activity: normalizing
        // for the engine differential must keep it.
        let stats = ExecStats {
            instructions: 50,
            integrity_failures: 2,
            ..ExecStats::default()
        };
        assert!(stats.to_string().contains("2 integrity failures"));
        assert!(stats.to_json().contains("\"integrity_failures\":2"));
        assert_eq!(stats.without_decode_cache().integrity_failures, 2);
    }

    #[test]
    fn injected_fault_counter_round_trips_and_survives_normalization() {
        // Injected faults are a property of the *experiment*, not of the
        // engine, so without_decode_cache must not erase them.
        let stats = ExecStats {
            instructions: 50,
            injected_faults: 3,
            ..ExecStats::default()
        };
        assert!(stats.to_string().contains("3 injected faults"));
        assert!(stats.to_json().contains("\"injected_faults\":3"));
        assert_eq!(stats.without_decode_cache().injected_faults, 3);
    }
}
