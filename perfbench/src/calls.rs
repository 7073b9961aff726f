//! The benchmark's calls into the layers' public functions, each wrapped in
//! a span, and the per-layer counts read off their results.

use std::collections::BTreeMap;

use ptaint_asm::Image;
use ptaint_cpu::{Cpu, DetectionPolicy};
use ptaint_guest::{BuildError, CRT0_ASM, LIBC_C, SYSCALL_STUBS_ASM};
use ptaint_mem::HierarchyConfig;
use ptaint_os::{ExitReason, Os, RunOutcome, WorldConfig};

use crate::spans::Tracer;

/// Per-layer counts of one pass over a workload's sessions.
pub type Counts = BTreeMap<&'static str, u64>;

pub fn add(counts: &mut Counts, key: &'static str, n: u64) {
    *counts.entry(key).or_insert(0) += n;
}

/// `ptaint_guest::build`. Traced, the same two calls it makes are timed
/// one by one (see [`build_in_steps`]).
pub fn build(tr: &Tracer, source: &str) -> Result<Image, BuildError> {
    let _g = tr.enter("guest.build");
    if tr.enabled() {
        build_in_steps(tr, source)
    } else {
        ptaint_guest::build(source)
    }
}

/// `ptaint_guest::build` made of the two calls it makes, each in a span:
/// `ptaint_cc::compile` over libc plus the program, then
/// `ptaint_asm::assemble` with crt0 and the syscall stubs.
fn build_in_steps(tr: &Tracer, source: &str) -> Result<Image, BuildError> {
    let unit = format!("{LIBC_C}\n{source}\n");
    let compiled = {
        let _g = tr.enter("cc.compile");
        ptaint_cc::compile(&unit)?
    };
    let full = format!("{compiled}\n{CRT0_ASM}\n{SYSCALL_STUBS_ASM}\n");
    let _g = tr.enter("asm.assemble");
    Ok(ptaint_asm::assemble(&full)?)
}

/// Checks that [`build_in_steps`] gives the same image as
/// `ptaint_guest::build` for every program any workload builds, so that
/// traced passes time the same program as untraced ones. Returns what
/// differs.
pub fn check_build_paths() -> Vec<String> {
    let off = Tracer::new(false);
    crate::lint::programs()
        .into_iter()
        .filter_map(|(name, source)| {
            let steps = build_in_steps(&off, source).map_err(|e| e.to_string());
            let library = ptaint_guest::build(source).map_err(|e| e.to_string());
            (steps != library).then(|| {
                format!(
                    "{name}: the traced build path gives another image than ptaint_guest::build"
                )
            })
        })
        .collect()
}

/// `ptaint_os::load`: a fresh machine with `world` booted.
pub fn boot(
    tr: &Tracer,
    image: &Image,
    world: WorldConfig,
    policy: DetectionPolicy,
    hierarchy: HierarchyConfig,
) -> (Cpu, Os) {
    let _g = tr.enter("os.load");
    ptaint_os::load(image, world, policy, hierarchy)
}

/// `ptaint_os::run_to_exit`, counted into `counts`. Two-level runs get a
/// span of their own so their cost per instruction can be told apart.
pub fn run(
    tr: &Tracer,
    cpu: &mut Cpu,
    os: &mut Os,
    max_steps: u64,
    counts: &mut Counts,
) -> RunOutcome {
    let two_level = cpu.mem().l1_stats().is_some();
    let g = tr.enter(if two_level {
        "cpu.run_two_level"
    } else {
        "cpu.run"
    });
    let out = ptaint_os::run_to_exit(cpu, os, max_steps);
    g.insns(out.stats.instructions);
    drop(g);
    count_run(counts, &out);
    if let (Some(l1), Some(l2)) = (cpu.mem().l1_stats(), cpu.mem().l2_stats()) {
        add(counts, "mem.l1_hits", l1.hits);
        add(counts, "mem.l1_misses", l1.misses);
        add(counts, "mem.l2_hits", l2.hits);
        add(counts, "mem.l2_misses", l2.misses);
    }
    out
}

/// The cpu and os counts of one finished run.
pub fn count_run(counts: &mut Counts, out: &RunOutcome) {
    let s = &out.stats;
    add(counts, "cpu.instructions", s.instructions);
    add(counts, "cpu.loads", s.loads);
    add(counts, "cpu.stores", s.stores);
    add(
        counts,
        "cpu.tainted_operand_instructions",
        s.tainted_operand_instructions,
    );
    add(counts, "cpu.decode_cache_hits", s.decode_cache_hits);
    add(counts, "cpu.decode_cache_misses", s.decode_cache_misses);
    add(
        counts,
        "cpu.alerts",
        u64::from(matches!(out.reason, ExitReason::Security(_))),
    );
    add(counts, "os.syscalls", s.syscalls);
    add(counts, "os.tainted_input_bytes", out.tainted_input_bytes);
}
