//! Integration: the predecoded/cached engine is a pure performance
//! transformation — for every guest program in the repository (the Figure 2
//! synthetics, the §5.1.2 real-world attacks, the Table 4 false-negative
//! trio, and the Table 3 workloads, attack and benign inputs alike) it must
//! produce bit-identical architectural results to the legacy interpreter:
//! same exit reason, same alert, same stdout/stderr/transcripts, same
//! retired-instruction statistics. Only the decode-cache counters (engine
//! activity, not guest-visible behaviour) may differ, so those are
//! normalized away with [`ExecStats::without_decode_cache`].
//!
//! The L1/L2 cache model is held to the same standard: every program also
//! runs behind the two-level hierarchy and must match the flat run. The
//! cache counters live in the memory system, not in the outcome, so the
//! comparison covers everything the guest can observe.

use ptaint::{Engine, HierarchyConfig, Machine, RunOutcome};
use ptaint_guest::apps::{
    calibrate_format_pad, dispatchd, ghttpd, globd, null_httpd, synthetic, table4, traceroute,
    wu_ftpd,
};
use ptaint_guest::workloads;

/// Runs `machine` under both engines over flat memory, and under the
/// cached engine behind the two-level hierarchy, and asserts all three
/// agree on everything architecturally observable: exit reason (alert pc
/// included), stdout/stderr, transcripts and the retired-instruction
/// statistics. Returns the flat cached outcome for extra,
/// scenario-specific assertions.
fn assert_engines_agree(label: &str, machine: &Machine) -> RunOutcome {
    let flat = machine.clone().hierarchy(HierarchyConfig::flat());
    let cached = flat.clone().engine(Engine::Cached).run();
    let interp = flat.engine(Engine::Interp).run();
    let two_level = machine
        .clone()
        .hierarchy(HierarchyConfig::two_level())
        .engine(Engine::Cached)
        .run();

    // The engines really were different: the cache dispatched most steps,
    // the interpreter never touched it.
    assert!(
        cached.stats.decode_cache_hits > 0,
        "{label}: cached engine never hit its decode cache"
    );
    assert_eq!(
        (
            interp.stats.decode_cache_hits,
            interp.stats.decode_cache_misses,
            interp.stats.decode_cache_invalidations,
        ),
        (0, 0, 0),
        "{label}: interpreter touched the decode cache"
    );

    let normalize = |mut out: RunOutcome| {
        out.stats = out.stats.without_decode_cache();
        out
    };
    let normalized = normalize(cached.clone());
    assert_eq!(normalized, normalize(interp), "{label}: engines diverged");
    assert_eq!(
        normalized,
        normalize(two_level),
        "{label}: flat and two-level hierarchies diverged"
    );
    cached
}

#[test]
fn synthetic_attacks_and_benign_runs_agree() {
    for (label, source, world) in [
        (
            "exp1/attack",
            synthetic::EXP1_SOURCE,
            synthetic::exp1_attack_world(),
        ),
        (
            "exp1/benign",
            synthetic::EXP1_SOURCE,
            synthetic::exp1_benign_world(),
        ),
        (
            "exp2/attack",
            synthetic::EXP2_SOURCE,
            synthetic::exp2_attack_world(),
        ),
        (
            "exp2/benign",
            synthetic::EXP2_SOURCE,
            synthetic::exp2_benign_world(),
        ),
        (
            "exp3/benign",
            synthetic::EXP3_SOURCE,
            synthetic::exp3_benign_world(),
        ),
    ] {
        let m = Machine::from_c(source).unwrap().world(world);
        assert_engines_agree(label, &m);
    }

    // exp3's attack needs a calibrated pad; probe with the plain machine
    // (the attack either alerts or not — both engines must say the same).
    let m = Machine::from_c(synthetic::EXP3_SOURCE).unwrap();
    for pad in 0..8 {
        let m = m.clone().world(synthetic::exp3_attack_world(pad));
        assert_engines_agree(&format!("exp3/attack pad={pad}"), &m);
    }
}

#[test]
fn real_world_attacks_agree() {
    // WU-FTPD: format string overwriting the uid word (Table 2).
    let m = Machine::from_c(wu_ftpd::SOURCE).unwrap();
    let target = wu_ftpd::uid_address(m.image());
    let pad = calibrate_format_pad(
        m.image(),
        |p| wu_ftpd::attack_world(m.image(), p),
        target,
        48,
    )
    .expect("calibrates");
    let attack = m.clone().world(wu_ftpd::attack_world(m.image(), pad));
    let out = assert_engines_agree("wu_ftpd/attack", &attack);
    assert_eq!(out.reason.alert().expect("detected").pointer, target);
    assert_engines_agree("wu_ftpd/benign", &m.world(wu_ftpd::benign_world()));

    // NULL-HTTPD: heap chunk-link corruption.
    let m = Machine::from_c(null_httpd::SOURCE).unwrap();
    let attack = m.clone().world(null_httpd::attack_world(m.image()));
    assert_engines_agree("null_httpd/attack", &attack);
    assert_engines_agree("null_httpd/benign", &m.world(null_httpd::benign_world()));

    // GHTTPD: stack overflow corrupting a URL pointer.
    let m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let attack = m.clone().world(ghttpd::attack_world(m.image()));
    assert_engines_agree("ghttpd/attack", &attack);
    assert_engines_agree("ghttpd/benign", &m.world(ghttpd::benign_world()));

    // Traceroute double free, globd tilde expansion, dispatchd GOT-style
    // function-pointer overwrite.
    for (label, source, attack, benign) in [
        (
            "traceroute",
            traceroute::SOURCE,
            traceroute::attack_world(),
            traceroute::benign_world(),
        ),
        (
            "globd",
            globd::SOURCE,
            globd::attack_world(),
            globd::benign_world(),
        ),
        (
            "dispatchd",
            dispatchd::SOURCE,
            dispatchd::attack_world(),
            dispatchd::benign_world(),
        ),
    ] {
        let m = Machine::from_c(source).unwrap();
        assert_engines_agree(&format!("{label}/attack"), &m.clone().world(attack));
        assert_engines_agree(&format!("{label}/benign"), &m.world(benign));
    }
}

#[test]
fn table4_false_negative_scenarios_agree() {
    for (label, source, world) in [
        (
            "int_overflow/attack",
            table4::INT_OVERFLOW_SOURCE,
            table4::int_overflow_attack_world(),
        ),
        (
            "int_overflow/benign",
            table4::INT_OVERFLOW_SOURCE,
            table4::int_overflow_benign_world(),
        ),
        (
            "auth_flag/attack",
            table4::AUTH_FLAG_SOURCE,
            table4::auth_flag_attack_world(),
        ),
        (
            "auth_flag/good",
            table4::AUTH_FLAG_SOURCE,
            table4::auth_flag_good_password_world(),
        ),
        (
            "auth_flag/bad",
            table4::AUTH_FLAG_SOURCE,
            table4::auth_flag_bad_password_world(),
        ),
        (
            "fmt_leak/attack",
            table4::FMT_LEAK_SOURCE,
            table4::fmt_leak_attack_world(),
        ),
        (
            "fmt_leak/benign",
            table4::FMT_LEAK_SOURCE,
            table4::fmt_leak_benign_world(),
        ),
    ] {
        let m = Machine::from_c(source).unwrap().world(world);
        assert_engines_agree(label, &m);
    }
}

#[test]
fn per_pc_profiles_are_engine_invariant() {
    use ptaint::{ToJson, TraceConfig};

    // The profiler hooks `Cpu::exec`, which both engines funnel through —
    // so the full profile (per-PC histogram, call tree, taint heatmap,
    // syscall table) must be byte-identical across engines, not merely
    // equivalent.
    let ghttpd_m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let ghttpd_world = ghttpd::attack_world(ghttpd_m.image());
    for (label, machine) in [
        (
            "exp1/attack",
            Machine::from_c(synthetic::EXP1_SOURCE)
                .unwrap()
                .world(synthetic::exp1_attack_world()),
        ),
        ("ghttpd/attack", ghttpd_m.world(ghttpd_world)),
    ] {
        let cfg = TraceConfig::default();
        let (cached_out, _, _, cached) = machine.clone().engine(Engine::Cached).run_profile(&cfg);
        let (interp_out, _, _, interp) = machine.clone().engine(Engine::Interp).run_profile(&cfg);
        assert_eq!(
            cached.to_json(),
            interp.to_json(),
            "{label}: engine profiles diverged"
        );
        // And the histogram really covered the whole run.
        assert_eq!(cached.steps, cached_out.stats.instructions, "{label}");
        assert_eq!(interp.steps, interp_out.stats.instructions, "{label}");
    }
}

#[test]
fn forked_runs_are_bit_identical_to_fresh_boots_under_both_engines() {
    // A fork resumes from the post-boot snapshot with copy-on-write pages
    // and a rebuilt decode cache, so under either engine it must retrace
    // the fresh boot bit-exactly — decode-cache counters included (both
    // executions start from an identical cold cache).
    let ghttpd_m = Machine::from_c(ghttpd::SOURCE).unwrap();
    let ghttpd_world = ghttpd::attack_world(ghttpd_m.image());
    for (label, machine) in [
        (
            "exp1/attack",
            Machine::from_c(synthetic::EXP1_SOURCE)
                .unwrap()
                .world(synthetic::exp1_attack_world()),
        ),
        (
            "exp2/benign",
            Machine::from_c(synthetic::EXP2_SOURCE)
                .unwrap()
                .world(synthetic::exp2_benign_world()),
        ),
        ("ghttpd/attack", ghttpd_m.world(ghttpd_world)),
    ] {
        for engine in [Engine::Cached, Engine::Interp] {
            let m = machine.clone().engine(engine);
            let fresh = m.run();
            let snap = m.snapshot();
            for trial in 0..2 {
                let forked = snap.run();
                assert_eq!(
                    forked.outcome, fresh,
                    "{label}: forked run #{trial} diverged from the fresh boot ({engine:?})"
                );
            }
        }
    }
}

#[test]
fn workloads_agree_at_small_scale() {
    for w in workloads::all() {
        let m = Machine::from_c(w.source).unwrap().world(w.world(1));
        let out = assert_engines_agree(w.name, &m);
        assert!(
            !out.reason.is_detected(),
            "{}: workload should be alert-free",
            w.name
        );
    }
}
