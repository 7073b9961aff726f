//! Soundness regressions for the proven-clean set.
//! Each test encodes a scenario where an earlier analyzer build proved a
//! site clean that a real execution can reach with a tainted pointer; the
//! fixed analyzer must leave the site unproven (and flag it).

use ptaint_analyze::{analyze, SiteKind};
use ptaint_asm::assemble;

/// A widened (statically unresolved) `jr` can land at *any* instruction
/// address — including a mid-block pc that is neither a return site nor a
/// recognized function entry. The old fallback set missed `mid` here: the
/// jump's tainted state was never joined there, the fall-through path from
/// `skip` re-cleans `$9`, and the load was proven clean even
/// though the computed jump reaches it with `$9` still tainted.
#[test]
fn widened_register_jump_reaches_mid_block_sites() {
    let image = assemble(
        "        .data
buf:    .word 0
        .text
main:   addiu $4, $0, 0
        lui   $5, %hi(buf)
        ori   $5, $5, %lo(buf)
        addiu $6, $0, 4
        addiu $2, $0, 3
        syscall                  # read(0, buf, 4): taints buf
        lui   $8, %hi(buf)
        ori   $8, $8, %lo(buf)
        lw    $9, 0($8)          # $9 <- tainted word
        lui   $8, %hi(skip)
        ori   $8, $8, %lo(skip)
        addiu $8, $8, 8          # skip+8 = mid: invisible to the pre-scan
        addu  $8, $8, $2         # mix in read's opaque return: widens $8
        jr    $8                 # statically unresolved computed jump
skip:   addiu $9, $29, -4       # fall-through path re-cleans $9
        nop
mid:    lw    $12, 0($9)
        jr    $31",
    )
    .unwrap();
    let a = analyze(&image);
    assert!(a.degraded.is_none(), "{:?}", a.degraded);
    let mid = image.symbol("mid").unwrap();
    assert!(
        !a.proven.contains(&mid),
        "load reachable by a widened jr with a tainted pointer was proven"
    );
    assert!(
        a.findings
            .iter()
            .any(|f| f.pc == mid && f.kind == SiteKind::Load),
        "tainted path into `mid` not flagged: {:?}",
        a.findings
    );
}

/// A `read` whose length exceeds the precise-seeding cap is modeled by
/// havoc — but the kernel copies byte-wise, so the delivery can cross a
/// region boundary. Here a 128 KiB read into the (one-page) data segment
/// spills into the heap; the old single-region havoc left the heap's
/// static summary clean, so the dereference of a heap word was proven
/// while a real run delivers attacker bytes there.
#[test]
fn oversized_read_taints_every_region_the_span_crosses() {
    let image = assemble(
        "        .data
buf:    .word 0
        .text
main:   addiu $4, $0, 0
        lui   $5, %hi(buf)
        ori   $5, $5, %lo(buf)
        lui   $6, 2              # len = 0x20000: data page + heap spill
        addiu $2, $0, 3
        syscall                  # read(0, buf, 0x20000)
        addiu $4, $0, 0
        addiu $2, $0, 9
        syscall                  # brk(0): $2 <- heap pointer
        lw    $8, 0($2)          # heap word: tainted by the spill
deref:  lw    $9, 0($8)
        jr    $31",
    )
    .unwrap();
    let a = analyze(&image);
    assert!(a.degraded.is_none(), "{:?}", a.degraded);
    let deref = image.symbol("deref").unwrap();
    assert!(
        !a.proven.contains(&deref),
        "dereference of a heap word inside the read span was proven"
    );
    assert!(
        a.findings
            .iter()
            .any(|f| f.pc == deref && f.kind == SiteKind::Load),
        "heap spill not flagged: {:?}",
        a.findings
    );
}

/// A `read` with a statically unknown length can deliver to everything
/// above the buffer base; the stack summary must go tainted, so a value
/// reloaded from the stack after the call no longer proves a register
/// jump.
#[test]
fn unknown_length_read_havocs_through_the_stack() {
    let image = assemble(
        "        .data
buf:    .word 0
        .text
main:   addiu $10, $29, -8
        sw    $31, 0($10)        # spill the (clean) return address
        addiu $2, $0, 4
        syscall                  # write(...): $2 <- opaque length
        addiu $4, $0, 0
        lui   $5, %hi(buf)
        ori   $5, $5, %lo(buf)
        addu  $6, $2, $0         # statically unknown length
        addiu $2, $0, 3
        syscall                  # read(0, buf, ?)
        lw    $11, 0($10)        # reload: stack summary is tainted now
ret:    jr    $11",
    )
    .unwrap();
    let a = analyze(&image);
    assert!(a.degraded.is_none(), "{:?}", a.degraded);
    let ret = image.symbol("ret").unwrap();
    assert!(
        !a.proven.contains(&ret),
        "register jump through a possibly-overwritten stack slot was proven"
    );
}

/// Self-recursion with a tainted pointer riding down the call chain: the
/// recursive context folds caller frames into the stack havoc summary
/// (`StackFold::All`), which must not launder the *register*-carried taint
/// — the terminal dereference stays flagged, and the fixpoint converges
/// without degrading.
#[test]
fn recursive_tainted_pointer_descent_is_flagged() {
    let image = ptaint_guest::build(
        r#"int walk(char *p, int n) {
            if (n == 0) return p[0];
            return walk(p, n - 1);
        }
        int main() {
            char buf[8];
            read(0, buf, 4);
            return walk((char *)(buf[0]), 3);
        }"#,
    )
    .unwrap();
    let a = analyze(&image);
    assert!(a.degraded.is_none(), "{:?}", a.degraded);
    assert!(
        a.findings
            .iter()
            .any(|f| f.function == "walk" && f.kind == SiteKind::Load),
        "tainted-pointer deref inside the recursion not flagged: {:?}",
        a.findings
    );
}

/// The mutually recursive variant: taint descends `f -> g -> f`, an SCC of
/// two functions. Both terminal derefs must be flagged — the intra-SCC
/// context fold applies to every edge of the component, not just
/// self-calls.
#[test]
fn mutually_recursive_taint_descent_is_flagged() {
    let image = ptaint_guest::build(
        r#"int g(char *p, int n);
        int f(char *p, int n) {
            if (n == 0) return p[0];
            return g(p, n - 1);
        }
        int g(char *p, int n) {
            if (n == 0) return p[1];
            return f(p, n - 1);
        }
        int main() {
            char buf[8];
            read(0, buf, 4);
            return f((char *)(buf[0]), 3);
        }"#,
    )
    .unwrap();
    let a = analyze(&image);
    assert!(a.degraded.is_none(), "{:?}", a.degraded);
    for func in ["f", "g"] {
        assert!(
            a.findings
                .iter()
                .any(|f| f.function == func && f.kind == SiteKind::Load),
            "tainted deref inside `{func}` not flagged: {:?}",
            a.findings
        );
    }
}

/// Input-free recursion: folding recursive frames must cost no findings
/// and keep the entry prologue proven — the eager fold trades slot-granular
/// for region-granular state, and with nothing tainted both grade Clean.
#[test]
fn clean_recursion_stays_proven_and_converges() {
    let image = ptaint_guest::build(
        r#"int fac(int n) {
            if (n < 2) return 1;
            return n * fac(n - 1);
        }
        int main() { return fac(6) & 0x7f; }"#,
    )
    .unwrap();
    let a = analyze(&image);
    assert!(a.degraded.is_none(), "{:?}", a.degraded);
    assert_eq!(
        a.stats.flagged_sites, 0,
        "spurious findings on input-free recursion: {:?}",
        a.findings
    );
    let main_addr = image.symbol("main").unwrap();
    assert!(
        a.proven.contains(&(main_addr + 4)),
        "main's prologue spill should stay proven around clean recursion"
    );
}
