//! The program loader.

use ptaint_asm::Image;
use ptaint_cpu::{Cpu, DetectionPolicy};
use ptaint_isa::{Instr, Reg, ARG_BASE, PAGE_SIZE, STACK_TOP};
use ptaint_mem::{HierarchyConfig, MemorySystem, WordTaint};
use ptaint_trace::{Event, SharedObserver};

use crate::{Os, WorldConfig};

/// Byte length of the loader's [`exit_stub`] (4 words).
pub const EXIT_STUB_BYTES: u32 = 16;

/// The exit stub the loader appends directly after the text segment:
/// `move $a0,$v0 ; li $v0,1 ; syscall ; break 1`. The static analyzer must
/// agree with the loader on these words, so this function is the single
/// source of truth.
#[must_use]
pub fn exit_stub() -> [Instr; 4] {
    [
        Instr::RAlu {
            op: ptaint_isa::RAluOp::Addu,
            rd: Reg::A0,
            rs: Reg::V0,
            rt: Reg::ZERO,
        },
        Instr::IAlu {
            op: ptaint_isa::IAluOp::Addiu,
            rt: Reg::V0,
            rs: Reg::ZERO,
            imm: 1, // Sys::Exit
        },
        Instr::Syscall,
        Instr::Break { code: 1 },
    ]
}

/// Maps `image` into a fresh machine and prepares the initial process state:
///
/// * text and data segments are written untainted (program bytes are
///   trusted);
/// * `argv` and `envp` **string bytes are written tainted** — command-line
///   arguments and environment variables are external input (paper §4.4);
///   the pointer arrays themselves are kernel-built and untainted;
/// * `$a0`/`$a1`/`$a2` receive `argc`/`argv`/`envp`; `$sp` points to an
///   aligned empty frame below [`STACK_TOP`]; `$ra` points to an exit stub
///   appended after the text segment, so `main` may simply return;
/// * the program break starts at the first page boundary after the data
///   segment.
///
/// Returns the CPU (PC at the image entry) and the kernel.
///
/// # Panics
///
/// Panics if the image is too large for its segment (not reachable with the
/// programs in this workspace).
#[must_use]
pub fn load(
    image: &Image,
    world: WorldConfig,
    policy: DetectionPolicy,
    hierarchy: HierarchyConfig,
) -> (Cpu, Os) {
    load_with_observer(image, world, policy, hierarchy, None)
}

/// Like [`load`], but also attaches a trace observer to the CPU before any
/// taint lands, so the `argv[i]` / `env[i]` string bytes are reported as
/// [`Event::TaintSource`]s and provenance can root chains in them.
#[must_use]
pub fn load_with_observer(
    image: &Image,
    world: WorldConfig,
    policy: DetectionPolicy,
    hierarchy: HierarchyConfig,
    observer: Option<SharedObserver>,
) -> (Cpu, Os) {
    let mut mem = MemorySystem::new(hierarchy);

    for (i, &word) in image.text.iter().enumerate() {
        mem.write_u32(image.text_base + 4 * i as u32, word, WordTaint::CLEAN)
            .expect("text segment must be mappable");
    }
    mem.write_bytes(image.data_base, &image.data, false)
        .expect("data segment must be mappable");

    // Exit stub after text: move $a0,$v0 ; li $v0,1 ; syscall ; break 1.
    let stub = image.text_end();
    for (i, insn) in exit_stub().iter().enumerate() {
        mem.write_u32(stub + 4 * i as u32, insn.encode(), WordTaint::CLEAN)
            .expect("exit stub must be mappable");
    }

    // argv/envp strings above the stack top (they are external input: tainted).
    let mut cursor = STACK_TOP;
    let mut write_strings = |mem: &mut MemorySystem, strings: &[Vec<u8>]| -> Vec<u32> {
        let mut ptrs = Vec::with_capacity(strings.len());
        for s in strings {
            cursor = (cursor + 3) & !3; // word-align each string start
            ptrs.push(cursor);
            mem.write_bytes(cursor, s, true).expect("arg strings fit");
            mem.write_u8(cursor + s.len() as u32, 0, false)
                .expect("arg strings fit");
            cursor += s.len() as u32 + 1;
        }
        ptrs
    };
    let argv_ptrs = write_strings(&mut mem, &world.argv);
    let envp_ptrs = write_strings(&mut mem, &world.envp);
    assert!(cursor < ARG_BASE, "argv/envp exceed the argument region");

    // Collect taint-source records while `world` is still ours; emitted once
    // the CPU exists and the observer is attached.
    let mut sources: Vec<(&'static str, String, u32, u32)> = Vec::new();
    if observer.is_some() {
        for (i, (&base, s)) in argv_ptrs.iter().zip(&world.argv).enumerate() {
            if !s.is_empty() {
                sources.push(("argv", format!("argv[{i}]"), base, s.len() as u32));
            }
        }
        for (i, (&base, s)) in envp_ptrs.iter().zip(&world.envp).enumerate() {
            if !s.is_empty() {
                sources.push(("env", format!("env[{i}]"), base, s.len() as u32));
            }
        }
    }

    // Pointer arrays (kernel-built, untainted), 4-aligned.
    cursor = (cursor + 3) & !3;
    let argv_array = cursor;
    for &p in &argv_ptrs {
        mem.write_u32(cursor, p, WordTaint::CLEAN)
            .expect("argv array fits");
        cursor += 4;
    }
    mem.write_u32(cursor, 0, WordTaint::CLEAN)
        .expect("argv array fits");
    cursor += 4;
    let envp_array = cursor;
    for &p in &envp_ptrs {
        mem.write_u32(cursor, p, WordTaint::CLEAN)
            .expect("envp array fits");
        cursor += 4;
    }
    mem.write_u32(cursor, 0, WordTaint::CLEAN)
        .expect("envp array fits");

    let argc = world.argv.len() as u32;
    let mut os = Os::new(world);
    os.set_brk(image.data_end().div_ceil(PAGE_SIZE) * PAGE_SIZE);

    let mut cpu = Cpu::new(mem, policy);
    cpu.set_observer(observer);
    for (kind, label, base, len) in sources {
        cpu.emit_event(&Event::TaintSource {
            kind,
            label,
            base,
            len,
        });
    }
    cpu.set_pc(image.entry);
    cpu.regs_mut().set(Reg::A0, argc, WordTaint::CLEAN);
    cpu.regs_mut().set(Reg::A1, argv_array, WordTaint::CLEAN);
    cpu.regs_mut().set(Reg::A2, envp_array, WordTaint::CLEAN);
    cpu.regs_mut()
        .set(Reg::SP, STACK_TOP - 64, WordTaint::CLEAN);
    cpu.regs_mut()
        .set(Reg::FP, STACK_TOP - 64, WordTaint::CLEAN);
    cpu.regs_mut()
        .set(Reg::GP, image.data_base + 0x8000, WordTaint::CLEAN);
    cpu.regs_mut().set(Reg::RA, stub, WordTaint::CLEAN);
    (cpu, os)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_asm::assemble;

    #[test]
    fn loader_places_segments_and_registers() {
        let image = assemble(
            ".data
msg:    .asciiz \"hello\"
        .text
main:   li $v0, 0
        jr $ra",
        )
        .unwrap();
        let world = WorldConfig::new().args(["prog", "arg1"]).env("X=1");
        let (cpu, os) = load(
            &image,
            world,
            DetectionPolicy::PointerTaintedness,
            HierarchyConfig::flat(),
        );

        assert_eq!(cpu.pc(), image.entry);
        assert_eq!(cpu.regs().value(Reg::A0), 2);
        // argv[0] readable and tainted.
        let argv_array = cpu.regs().value(Reg::A1);
        let (argv0, t) = cpu.mem().memory().read_u32(argv_array).unwrap();
        assert!(!t.any(), "pointer array untainted");
        assert_eq!(cpu.mem().read_cstr(argv0, 64).unwrap(), b"prog");
        assert!(cpu.mem().read_taint(argv0, 4).unwrap().iter().all(|&x| x));
        // envp
        let envp_array = cpu.regs().value(Reg::A2);
        let (env0, _) = cpu.mem().memory().read_u32(envp_array).unwrap();
        assert_eq!(cpu.mem().read_cstr(env0, 64).unwrap(), b"X=1");
        // data
        assert_eq!(cpu.mem().read_cstr(image.data_base, 16).unwrap(), b"hello");
        // brk page-aligned past data
        assert_eq!(os.exit_status(), None);
        assert!(cpu.regs().value(Reg::SP) < STACK_TOP);
        assert_eq!(cpu.regs().value(Reg::SP) % 8, 0);
    }

    #[test]
    fn returning_from_main_exits_via_stub() {
        let image = assemble("main: li $v0, 5\n jr $ra").unwrap();
        let (mut cpu, mut os) = load(
            &image,
            WorldConfig::new(),
            DetectionPolicy::PointerTaintedness,
            HierarchyConfig::flat(),
        );
        let outcome = crate::run_to_exit(&mut cpu, &mut os, 100);
        assert_eq!(outcome.reason, crate::ExitReason::Exited(5));
    }
}
