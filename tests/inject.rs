//! Fault-injection campaigns against real guest applications, and the
//! no-panic contract of the hardened run loop: whatever we throw at the
//! stack — corrupted shadow bits, degraded I/O, hostile byte streams —
//! every run must come back as a structured [`RunOutcome`].

use proptest::prelude::*;
use ptaint::{
    CampaignSpec, ExitReason, Fault, FaultKind, Machine, NetSession, OutcomeClass, ToJson,
    WorldConfig,
};
use ptaint_guest::apps::{dispatchd, ghttpd, globd, null_httpd, synthetic, traceroute, wu_ftpd};

/// The paper's headline attack under taint-bit decay (§6 threat model
/// stress): clearing shadow bits around the tainted `url` pointer defeats
/// detection, and the campaign must *say so*. A trial where the attack
/// runs to a clean exit is a missed detection, never silently "benign".
#[test]
fn ghttpd_attack_taint_clear_campaign_reports_missed_not_benign() {
    let m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let world = ghttpd::attack_world(m.image());
    let m = m.world(world);
    let spec = CampaignSpec::new(0x9bad_5eed, 24).kinds(vec![FaultKind::TaintClear]);
    let report = m.run_campaign(&spec);

    assert!(report.baseline_detected, "{:?}", report.baseline_reason);
    assert_eq!(report.count(OutcomeClass::Benign), 0);
    for r in &report.records {
        if matches!(r.reason, ExitReason::Exited(_)) {
            assert_eq!(
                r.class,
                OutcomeClass::Missed,
                "trial {}: clean exit of a detected attack must be a miss",
                r.trial
            );
        }
    }
    assert!(
        report.count(OutcomeClass::Missed) >= 1,
        "no taint-clear trial defeated detection: {}",
        report.to_json()
    );
}

/// Same seed, same machine — byte-identical campaign report, on a real
/// network application (not just the unit-test toy programs).
#[test]
fn ghttpd_campaign_report_is_byte_identical_across_runs() {
    let m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let world = ghttpd::attack_world(m.image());
    let m = m.world(world);
    let spec = CampaignSpec::new(7, 12);
    let a = m.run_campaign(&spec).to_json();
    let b = m.run_campaign(&spec).to_json();
    assert_eq!(a, b);
    // And a different seed explores a different fault set.
    let c = m.run_campaign(&CampaignSpec::new(8, 12)).to_json();
    assert_ne!(a, c);
}

/// A full-vocabulary campaign over the synthetic exp1 stack smash: every
/// trial lands in exactly one class, counts reconcile, and the detected
/// baseline means no trial may be classified benign.
#[test]
fn exp1_campaign_classes_partition_the_trials() {
    let m = Machine::from_c(synthetic::EXP1_SOURCE)
        .unwrap()
        .world(synthetic::exp1_attack_world());
    let spec = CampaignSpec::new(3, 32);
    let report = m.run_campaign(&spec);

    assert!(report.baseline_detected);
    assert_eq!(report.count(OutcomeClass::Benign), 0);
    let total: u64 = OutcomeClass::ALL.iter().map(|&c| report.count(c)).sum();
    assert_eq!(total, spec.trials);
    assert_eq!(report.records.len() as u64, spec.trials);
    // Detection survives at least some injections (the plan spreads faults
    // over the whole run, most of which land far from the attack window).
    assert!(
        report.count(OutcomeClass::Detected) >= 1,
        "{}",
        report.to_json()
    );
}

/// On a benign workload nothing can be "missed": a taint-gain injection
/// either stays benign or surfaces as a false alert, and I/O degradation
/// may at worst crash the guest.
#[test]
fn benign_workload_campaign_never_reports_missed_or_detected() {
    let m = Machine::from_c(ghttpd::SOURCE)
        .unwrap()
        .world(ghttpd::benign_world());
    let report = m.run_campaign(&CampaignSpec::new(11, 16));
    assert!(!report.baseline_detected);
    assert_eq!(report.count(OutcomeClass::Missed), 0);
    assert_eq!(report.count(OutcomeClass::Detected), 0);
}

/// The decode-slot fail-safe: a bit flipped in a predecoded instruction is
/// caught by the periodic slot-checksum sweep, which drops every decoded
/// page and refills from authoritative memory, so the attack is still
/// detected and the repair shows in `integrity_failures`.
#[test]
fn decode_slot_corruption_is_swept_and_still_detects() {
    let m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let world = ghttpd::attack_world(m.image());
    let m = m.world(world);

    let clean = m.run();
    assert!(clean.reason.is_detected(), "{:?}", clean.reason);
    assert_eq!(clean.stats.integrity_failures, 0);

    let fault = Fault {
        kind: FaultKind::DecodeSlot,
        io_call: 0,
        step: 500,
        salt: 0xdead_beef,
    };
    let trial = m.run_injected(&fault);
    assert!(
        trial.applied.is_some(),
        "the decode cache should be populated well before step 500"
    );
    assert!(
        trial.outcome.reason.is_detected(),
        "{:?}",
        trial.outcome.reason
    );
    assert!(trial.outcome.stats.integrity_failures >= 1);
}

/// The acceptance gate for the decode-slot fail-safe: a campaign of
/// decode-slot upsets on the detected ghttpd attack reports **zero missed
/// detections** — every corruption is swept and repaired (still detected)
/// or crashes as a detector fault, never a silent miss.
#[test]
fn detector_corruption_campaign_reports_zero_missed() {
    let m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let world = ghttpd::attack_world(m.image());
    let m = m.world(world);
    let spec = CampaignSpec::new(0xd37e_c70f, 12).kinds(vec![FaultKind::DecodeSlot]);
    let report = m.run_campaign(&spec);

    assert!(report.baseline_detected);
    assert_eq!(
        report.count(OutcomeClass::Missed),
        0,
        "a detector-corruption trial missed the attack: {}",
        report.to_json()
    );
    assert_eq!(report.count(OutcomeClass::Benign), 0);
    assert!(report.count(OutcomeClass::Detected) >= 1);
}

fn fuzz_corpus() -> Vec<Machine> {
    vec![
        Machine::from_c(synthetic::EXP1_SOURCE).unwrap(),
        Machine::from_c(ghttpd::SOURCE).unwrap(),
        Machine::from_c(null_httpd::SOURCE).unwrap(),
        Machine::from_c(traceroute::SOURCE).unwrap(),
        Machine::from_c(wu_ftpd::SOURCE).unwrap(),
        Machine::from_c(globd::SOURCE).unwrap(),
        Machine::from_c(dispatchd::SOURCE).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No guest application can panic the host, whatever bytes arrive on
    /// stdin and the network: every run terminates in a structured
    /// `ExitReason` within the step budget.
    #[test]
    fn no_guest_app_panics_on_arbitrary_input(
        stdin in proptest::collection::vec(any::<u8>(), 0..64),
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..4),
    ) {
        for m in fuzz_corpus() {
            let world = WorldConfig::new()
                .stdin(stdin.clone())
                .session(NetSession::new(msgs.clone()));
            let out = m.world(world).step_limit(2_000_000).run();
            // Any reason is acceptable — the contract is that we *got* one.
            prop_assert!(!format!("{}", out.reason).is_empty());
        }
    }

    /// The sharded-determinism contract on a real machine: for any seed,
    /// trial count, and worker count, `run_campaign_jobs` produces a report
    /// byte-identical to the single-threaded runner's.
    #[test]
    fn sharded_campaign_reports_are_byte_identical(
        seed in any::<u64>(),
        trials in 1u64..8,
        jobs in 2usize..6,
    ) {
        let m = Machine::from_c(synthetic::EXP1_SOURCE)
            .unwrap()
            .world(synthetic::exp1_attack_world())
            .step_limit(2_000_000);
        let spec = CampaignSpec::new(seed, trials);
        let seq = m.run_campaign_jobs(&spec, 1).to_json();
        let sharded = m.run_campaign_jobs(&spec, jobs).to_json();
        prop_assert_eq!(seq, sharded);
    }

    /// Arbitrary faults — any kind, any trigger point, any salt — injected
    /// into an attack run never panic and always classify.
    #[test]
    fn arbitrary_fault_injection_never_panics(
        kind_idx in 0usize..FaultKind::ALL.len(),
        step in 0u64..4000,
        io_call in 0u64..4,
        salt in any::<u64>(),
    ) {
        let m = Machine::from_c(synthetic::EXP1_SOURCE)
            .unwrap()
            .world(synthetic::exp1_attack_world())
            .step_limit(2_000_000);
        let fault = Fault {
            kind: FaultKind::ALL[kind_idx],
            io_call,
            step,
            salt,
        };
        let trial = m.run_injected(&fault);
        let class = ptaint::classify(&trial.outcome.reason, true);
        prop_assert!(OutcomeClass::ALL.contains(&class));
    }
}
