//! Integration: the static↔dynamic differential gate.
//!
//! The static analyzer's findings and the dynamic detector's alerts are
//! two views of the same property, and this gate keeps them honest
//! against each other: every `Alert` the dynamic detector raises across
//! the attack suite (the real-world daemons and the paper's synthetic
//! experiments) must land on a site the static lint *flags* — a miss
//! would mean the precision work taught the analyzer to talk itself out
//! of a dereference that demonstrably goes tainted at runtime. The dual
//! claim — an alert site must never be in the proven-clean set — is the
//! soundness half of the same gate.

use ptaint::Machine;
use ptaint_guest::apps::{
    calibrate_format_pad, dispatchd, ghttpd, globd, null_httpd, synthetic, traceroute, wu_ftpd,
};

/// Runs the attack, requires a dynamic alert, and requires the static
/// analysis to flag the alert's site (and to have never proven it clean).
fn assert_alert_is_statically_flagged(label: &str, machine: &Machine) {
    let out = machine.clone().run();
    let alert = out
        .reason
        .alert()
        .copied()
        .unwrap_or_else(|| panic!("{label}: attack did not alert ({:?})", out.reason));
    let analysis = ptaint::analyze(machine.image());
    assert!(
        !analysis.proven.contains(&alert.pc),
        "{label}: dynamic alert site {:08x} ({}) was statically proven clean",
        alert.pc,
        alert.instr
    );
    assert!(
        analysis.findings.iter().any(|f| f.pc == alert.pc),
        "{label}: dynamic alert site {:08x} ({}) is not statically flagged",
        alert.pc,
        alert.instr
    );
}

#[test]
fn synthetic_attack_alerts_are_statically_flagged() {
    let m = Machine::from_c(synthetic::EXP1_SOURCE)
        .unwrap()
        .world(synthetic::exp1_attack_world());
    assert_alert_is_statically_flagged("exp1", &m);

    let m = Machine::from_c(synthetic::EXP2_SOURCE)
        .unwrap()
        .world(synthetic::exp2_attack_world());
    assert_alert_is_statically_flagged("exp2", &m);

    // Exp3 probes format pads like an attacker until one lands.
    let m = Machine::from_c(synthetic::EXP3_SOURCE).unwrap();
    let pad = (0..16)
        .find(|&pad| {
            let out = m.clone().world(synthetic::exp3_attack_world(pad)).run();
            out.reason.alert().is_some_and(|a| a.pointer == 0x6463_6261)
        })
        .expect("some pad reaches the buffer");
    let m = m.world(synthetic::exp3_attack_world(pad));
    assert_alert_is_statically_flagged("exp3", &m);
}

#[test]
fn real_world_attack_alerts_are_statically_flagged() {
    let m = Machine::from_c(wu_ftpd::SOURCE).unwrap();
    let target = wu_ftpd::uid_address(m.image());
    let pad = calibrate_format_pad(
        m.image(),
        |p| wu_ftpd::attack_world(m.image(), p),
        target,
        48,
    )
    .expect("calibrates");
    let attack = wu_ftpd::attack_world(m.image(), pad);
    assert_alert_is_statically_flagged("wu_ftpd", &m.clone().world(attack));

    let m = Machine::from_c(null_httpd::SOURCE).unwrap();
    let attack = null_httpd::attack_world(m.image());
    assert_alert_is_statically_flagged("null_httpd", &m.clone().world(attack));

    let m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let attack = ghttpd::attack_world(m.image());
    assert_alert_is_statically_flagged("ghttpd", &m.clone().world(attack));

    for (label, source, world) in [
        ("traceroute", traceroute::SOURCE, traceroute::attack_world()),
        ("globd", globd::SOURCE, globd::attack_world()),
        ("dispatchd", dispatchd::SOURCE, dispatchd::attack_world()),
    ] {
        let m = Machine::from_c(source).unwrap().world(world);
        assert_alert_is_statically_flagged(label, &m);
    }
}
