//! Integration: Figure 2 / §5.1.1 — the synthetic attack suite through the
//! public `ptaint` API.

use ptaint::{AlertKind, DetectionPolicy, ExitReason, Machine, WorldConfig};
use ptaint_guest::apps::synthetic;

#[test]
fn stack_smash_alert_matches_the_paper() {
    let m = Machine::from_c(synthetic::EXP1_SOURCE)
        .unwrap()
        .world(synthetic::exp1_attack_world());
    let out = m.run();
    let alert = out.reason.alert().expect("detected");
    // Paper §5.1.1: "an alert is raised at the return instruction (JR $31)
    // of exp1(), which indicates that the return address is tainted as
    // 0x61616161".
    assert_eq!(alert.instr.to_string(), "jr $31");
    assert_eq!(alert.pointer, 0x6161_6161);
    assert_eq!(alert.kind, AlertKind::JumpPointer);
    assert!(alert.taint.any());
}

#[test]
fn heap_corruption_alert_fires_inside_free() {
    let m = Machine::from_c(synthetic::EXP2_SOURCE)
        .unwrap()
        .world(synthetic::exp2_attack_world());
    let out = m.run();
    let alert = out.reason.alert().expect("detected");
    assert_eq!(alert.kind, AlertKind::DataPointer);
    // The tainted link is built from 'a' bytes.
    assert_eq!(alert.pointer & 0xff00_0000, 0x6100_0000);
    // Inside the allocator, per the image's symbol table.
    let unlink = m.image().symbol("__unlink").unwrap();
    assert!((unlink..unlink + 0x100).contains(&alert.pc));
}

#[test]
fn format_string_alert_dereferences_abcd() {
    let m = Machine::from_c(synthetic::EXP3_SOURCE).unwrap();
    // Probe pads like an attacker.
    let detected = (0..16).find_map(|pad| {
        let out = m.clone().world(synthetic::exp3_attack_world(pad)).run();
        out.reason
            .alert()
            .copied()
            .filter(|a| a.pointer == 0x6463_6261)
    });
    let alert = detected.expect("some pad reaches the buffer");
    assert_eq!(alert.kind, AlertKind::DataPointer);
    assert!(alert.instr.to_string().starts_with("sw "));
}

#[test]
fn synthetic_attacks_do_not_fire_on_benign_inputs() {
    for (source, world) in [
        (synthetic::EXP1_SOURCE, synthetic::exp1_benign_world()),
        (synthetic::EXP2_SOURCE, synthetic::exp2_benign_world()),
        (synthetic::EXP3_SOURCE, synthetic::exp3_benign_world()),
    ] {
        let out = Machine::from_c(source).unwrap().world(world).run();
        assert_eq!(out.reason, ExitReason::Exited(0), "{:?}", out.reason);
    }
}

#[test]
fn detection_works_identically_with_caches_enabled() {
    // Taintedness travels through the cache hierarchy (§4.1): enabling
    // L1/L2 must not change what is detected.
    let m = Machine::from_c(synthetic::EXP1_SOURCE)
        .unwrap()
        .world(synthetic::exp1_attack_world())
        .hierarchy(ptaint::HierarchyConfig::two_level());
    let out = m.run();
    let alert = out.reason.alert().expect("detected through caches");
    assert_eq!(alert.pointer, 0x6161_6161);
}

#[test]
fn exp1_detected_under_both_detecting_policies_but_not_off() {
    let m = Machine::from_c(synthetic::EXP1_SOURCE)
        .unwrap()
        .world(synthetic::exp1_attack_world());
    assert!(m
        .clone()
        .policy(DetectionPolicy::PointerTaintedness)
        .run()
        .reason
        .is_detected());
    assert!(m
        .clone()
        .policy(DetectionPolicy::ControlOnly)
        .run()
        .reason
        .is_detected());
    assert!(!m.policy(DetectionPolicy::Off).run().reason.is_detected());
}

#[test]
fn non_control_synthetic_attacks_are_invisible_to_the_baseline() {
    for (source, world) in [
        (synthetic::EXP2_SOURCE, synthetic::exp2_attack_world()),
        (synthetic::EXP3_SOURCE, synthetic::exp3_attack_world(1)),
    ] {
        let out = Machine::from_c(source)
            .unwrap()
            .world(world)
            .policy(DetectionPolicy::ControlOnly)
            .run();
        assert!(!out.reason.is_detected(), "{:?}", out.reason);
    }
}

#[test]
fn attack_world_tainted_bytes_are_accounted() {
    let m = Machine::from_c(synthetic::EXP1_SOURCE)
        .unwrap()
        .world(WorldConfig::new().stdin(vec![b'a'; 24]));
    let out = m.run();
    assert_eq!(out.tainted_input_bytes, 24);
    assert!(out.stats.tainted_operand_instructions > 0);
}

#[test]
fn tainted_operand_count_excludes_the_alerting_instruction() {
    // The alerting `jr $31` reads a tainted operand but never retires, so
    // it is not counted: numerator and denominator of the tainted
    // instruction ratio cover the same retired instructions.
    let out = Machine::from_c(synthetic::EXP1_SOURCE)
        .unwrap()
        .world(synthetic::exp1_attack_world())
        .run();
    assert!(out.reason.is_detected(), "{:?}", out.reason);
    assert_eq!(out.stats.tainted_operand_instructions, 446);
}
