//! Precision regression tests on realistic compiled-C images.
//!
//! These pin the analyzer's behaviour on whole programs (mini-C compiler
//! output plus the bundled libc), where the interesting failure mode is a
//! precision *collapse*: one over-approximation (a havocked `$sp`, a
//! tainted widened load) cascading through the jr-fallback edges until no
//! site grades `Clean` any more. The unit tests in `src/` cover the
//! transfer function; these cover the fixpoint at scale.

use ptaint_analyze::analyze;

/// An all-clean loop over a stack array: nothing here ever touches input,
/// so the analyzer must prove a substantial majority of the image's check
/// sites (the bundled libc is linked in whole, so "all" is not attainable
/// — flooded wrappers around `read()` stay Unknown).
#[test]
fn clean_array_loop_proves_most_of_the_image() {
    let image = ptaint_guest::build(
        r#"int main() {
            int i; int s = 0;
            int a[32];
            for (i = 0; i < 32; i++) a[i] = i;
            for (i = 0; i < 32; i++) s += a[i];
            return s & 0x7f;
        }"#,
    )
    .unwrap();
    let an = analyze(&image);

    let sites = an.stats.load_store_sites + an.stats.register_jump_sites;
    assert!(
        an.proven.len() * 2 > sites,
        "precision collapse: only {} of {} sites proven",
        an.proven.len(),
        sites
    );
    // No input is ever read, so nothing is provably tainted.
    assert_eq!(
        an.stats.flagged_sites, 0,
        "spurious findings: {:#?}",
        an.findings
    );

    // Every function prologue spills $ra/$fp through $sp; those stores are
    // the bread and butter of the proven set and must grade Clean at `main`.
    let main_addr = image.symbol("main").unwrap();
    assert!(
        an.proven.contains(&(main_addr + 4)),
        "main's prologue `sw $31,..($29)` should be proven clean"
    );
}

/// The interprocedural precision floor on the paper's Experiment-1 guest.
///
/// PR 3's monolithic fixpoint proved 1074 of 1685 sites on this image;
/// the summary-based analyzer must stay *strictly* above that and hold
/// the ≥1300 target (it currently proves 1509 — the golden in
/// `tests/golden/analyze/exp1.txt` pins the exact figure). A drop below
/// the floor means call sites went back to havocking.
#[test]
fn exp1_precision_floor_holds() {
    let image = ptaint_guest::build(ptaint_guest::apps::synthetic::EXP1_SOURCE).unwrap();
    let an = analyze(&image);
    assert!(an.degraded.is_none(), "{:?}", an.degraded);
    assert!(
        an.proven.len() > 1074,
        "precision fell to the pre-summary floor: {} proven",
        an.proven.len()
    );
    assert!(
        an.proven.len() >= 1300,
        "precision below the summary-analysis target: {} proven (want >= 1300)",
        an.proven.len()
    );
    assert_eq!(
        an.stats.unresolved_sites, 0,
        "exp1 should fully resolve: {} sites graded Unknown",
        an.stats.unresolved_sites
    );
}

/// A program that actually reads input: the read destination becomes
/// tainted, but the clean prologue/epilogue machinery must stay proven —
/// taint from the buffer must not wash out the whole image.
#[test]
fn reading_input_keeps_unrelated_sites_proven() {
    let image = ptaint_guest::build(
        r#"int main() {
            char buf[64];
            int n = read(0, buf, 63);
            return n & 0x7f;
        }"#,
    )
    .unwrap();
    let an = analyze(&image);

    // The syscall seeds taint; precision may drop but must not collapse.
    assert!(
        an.proven.len() * 4 > an.stats.load_store_sites + an.stats.register_jump_sites,
        "taint seeding washed out the image: only {} sites proven",
        an.proven.len()
    );
    let main_addr = image.symbol("main").unwrap();
    assert!(
        an.proven.contains(&(main_addr + 4)),
        "main's prologue spill should stay proven after a read()"
    );
}
