//! `attacks`: the nine §5.1 coverage-matrix attacks, each session from C
//! source to verdict.
//!
//! A session builds the image with `ptaint_guest::build`, runs the attack
//! world under `off`, `control-only` and `pointer-taintedness`, and makes
//! one forensic `Machine::run_with_trace` with the JSONL, metrics and
//! provenance sinks. Format-string pads are calibrated at set-up.
//!
//! Checked per session: each policy's verdict equals the §5.1 coverage
//! matrix, the traced run ends exactly like the untraced
//! pointer-taintedness run, and it carries a forensic chain.

use ptaint::{Machine, TraceConfig};
use ptaint_asm::Image;
use ptaint_cpu::DetectionPolicy;
use ptaint_guest::apps::{
    calibrate_format_pad, dispatchd, ghttpd, globd, null_httpd, synthetic, traceroute, wu_ftpd,
    STEP_LIMIT,
};
use ptaint_mem::HierarchyConfig;
use ptaint_os::{ExitReason, RunOutcome, WorldConfig};

use crate::calls::{self, add, Counts};
use crate::spans::Tracer;
use crate::Workload;

/// How a run under one policy ended (the coverage matrix's vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Detected,
    Compromised,
    Crashed,
    Clean,
}

use Verdict::{Compromised, Crashed, Detected};

const POLICIES: [DetectionPolicy; 3] = [
    DetectionPolicy::Off,
    DetectionPolicy::ControlOnly,
    DetectionPolicy::PointerTaintedness,
];

/// Format-string pads found by probing, as a real attacker would.
#[derive(Debug, Clone, Copy)]
pub struct Pads {
    exp3: usize,
    wu_ftpd: usize,
}

/// Calibrates the exp3 and WU-FTPD format-string pads.
pub fn calibrate(tr: &Tracer) -> Result<Pads, String> {
    let build = |src| calls::build(tr, src).map_err(|e| e.to_string());
    let exp3 = build(synthetic::EXP3_SOURCE)?;
    let ftpd = build(wu_ftpd::SOURCE)?;
    let uid = wu_ftpd::uid_address(&ftpd);
    Ok(Pads {
        exp3: calibrate_format_pad(&exp3, synthetic::exp3_attack_world, 0x6463_6261, 16)
            .ok_or("exp3 pad does not calibrate")?,
        wu_ftpd: calibrate_format_pad(&ftpd, |p| wu_ftpd::attack_world(&ftpd, p), uid, 48)
            .ok_or("wu_ftpd pad does not calibrate")?,
    })
}

/// One attack of the suite: source, attack world, and its matrix row.
pub struct Attack {
    pub name: &'static str,
    pub source: &'static str,
    world: fn(&Image, Pads) -> WorldConfig,
    /// Text in stdout or a transcript that shows the attack succeeded.
    marker: Option<&'static str>,
    /// Verdicts under off, control-only and pointer-taintedness.
    expected: [Verdict; 3],
}

impl Attack {
    pub fn world(&self, image: &Image, pads: Pads) -> WorldConfig {
        (self.world)(image, pads)
    }
}

/// The §5.1 suite with the paper's coverage matrix.
pub const SUITE: [Attack; 9] = [
    Attack {
        name: "exp1",
        source: synthetic::EXP1_SOURCE,
        world: |_, _| synthetic::exp1_attack_world(),
        marker: None,
        expected: [Crashed, Detected, Detected],
    },
    Attack {
        name: "exp2",
        source: synthetic::EXP2_SOURCE,
        world: |_, _| synthetic::exp2_attack_world(),
        marker: None,
        expected: [Crashed, Crashed, Detected],
    },
    Attack {
        name: "exp3",
        source: synthetic::EXP3_SOURCE,
        world: |_, pads| synthetic::exp3_attack_world(pads.exp3),
        marker: None,
        expected: [Crashed, Crashed, Detected],
    },
    Attack {
        name: "wu_ftpd",
        source: wu_ftpd::SOURCE,
        world: |image, pads| wu_ftpd::attack_world(image, pads.wu_ftpd),
        marker: Some("226 transfer complete"),
        expected: [Compromised, Compromised, Detected],
    },
    Attack {
        name: "null_httpd",
        source: null_httpd::SOURCE,
        world: |image, _| null_httpd::attack_world(image),
        marker: Some("EXEC /bin/sh"),
        expected: [Compromised, Compromised, Detected],
    },
    Attack {
        name: "ghttpd",
        source: ghttpd::SOURCE,
        world: |image, _| ghttpd::attack_world(image),
        marker: Some("EXEC /cgi-bin/../../../../bin/sh"),
        expected: [Compromised, Compromised, Detected],
    },
    Attack {
        name: "traceroute",
        source: traceroute::SOURCE,
        world: |_, _| traceroute::attack_world(),
        marker: None,
        expected: [Crashed, Crashed, Detected],
    },
    Attack {
        name: "globd",
        source: globd::SOURCE,
        world: |_, _| globd::attack_world(),
        marker: None,
        expected: [Crashed, Crashed, Detected],
    },
    Attack {
        name: "dispatchd",
        source: dispatchd::SOURCE,
        world: |_, _| dispatchd::attack_world(),
        marker: None,
        expected: [Crashed, Detected, Detected],
    },
];

fn verdict(out: &RunOutcome, marker: Option<&str>) -> Verdict {
    match &out.reason {
        ExitReason::Security(_) => Detected,
        ExitReason::Exited(_) | ExitReason::StepLimit | ExitReason::Watchdog => {
            let compromised = marker.is_some_and(|m| {
                out.stdout.windows(m.len()).any(|w| w == m.as_bytes())
                    || out
                        .transcripts
                        .iter()
                        .any(|t| t.windows(m.len()).any(|w| w == m.as_bytes()))
            });
            if compromised {
                Compromised
            } else {
                Verdict::Clean
            }
        }
        _ => Crashed,
    }
}

pub struct Attacks {
    pads: Pads,
}

impl Attacks {
    pub fn setup(tr: &Tracer) -> Result<Attacks, String> {
        Ok(Attacks {
            pads: calibrate(tr)?,
        })
    }
}

impl Workload for Attacks {
    fn mix_len(&self) -> usize {
        SUITE.len()
    }

    fn session(
        &mut self,
        _pass: u64,
        item: usize,
        tr: &Tracer,
        counts: &mut Counts,
    ) -> Result<u64, String> {
        let attack = &SUITE[item];
        let image = calls::build(tr, attack.source).map_err(|e| format!("{}: {e}", attack.name))?;
        let world = attack.world(&image, self.pads);
        let mut plain = None;
        let mut plain_dur = std::time::Duration::ZERO;
        for (policy, want) in POLICIES.into_iter().zip(attack.expected) {
            let g = tr.enter("bench.policy_run");
            let (mut cpu, mut os) =
                calls::boot(tr, &image, world.clone(), policy, HierarchyConfig::flat());
            let out = calls::run(tr, &mut cpu, &mut os, STEP_LIMIT, counts);
            let dur = g.end();
            let got = verdict(&out, attack.marker);
            if got != want {
                return Err(format!(
                    "{} under {policy:?}: {got:?}, expected {want:?}",
                    attack.name
                ));
            }
            (plain, plain_dur) = (Some(out), dur);
        }
        let plain = plain.expect("three policies ran");

        let machine = Machine::from_image(image)
            .world(world)
            .step_limit(STEP_LIMIT);
        let g = tr.enter("trace.run_with_trace");
        let (out, _tail, report) = machine.run_with_trace(&TraceConfig::all());
        let traced_dur = g.end();
        tr.observe(
            "trace.overhead_ms",
            (traced_dur.as_secs_f64() - plain_dur.as_secs_f64()) * 1e3,
        );
        if out.reason != plain.reason || out.stats != plain.stats {
            return Err(format!(
                "{}: traced run ended {:?}, untraced {:?}",
                attack.name, out.reason, plain.reason
            ));
        }
        if report.forensic.is_none() {
            return Err(format!("{}: traced run has no forensic chain", attack.name));
        }
        let jsonl = report.jsonl.unwrap_or_default();
        add(counts, "trace.jsonl_bytes", jsonl.len() as u64);
        add(
            counts,
            "trace.events",
            jsonl.iter().filter(|&&b| b == b'\n').count() as u64,
        );
        Ok(1)
    }

    /// Nine sessions a pass: 225 sessions put the tail at p95, which falls
    /// on ghttpd, the slowest attack.
    fn min_passes(&self) -> u64 {
        25
    }

    fn work_metric(&self) -> Option<(&'static str, f64)> {
        None
    }

    fn item_name(&self, item: usize) -> String {
        SUITE[item].name.into()
    }
}
