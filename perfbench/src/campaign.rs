//! `campaign`: deterministic fault campaigns over all 14 fault kinds on
//! the exp1, ghttpd, wu_ftpd and null_httpd attacks.
//!
//! A session is one campaign, run with `ptaint_inject::run_campaign_jobs`
//! on one thread: a post-boot snapshot, a fault-free baseline, then every
//! trial forked from the snapshot. The mix is each attack at 16, 32, 48, 64
//! and 80 trials, so campaign times form a continuum rather than four
//! clusters. Campaign seeds come from the workload seed and change every
//! two passes; the second pass repeats the first's campaigns.
//!
//! Each machine's step budget is four times its baseline's instruction
//! count, so a trial that a fault sends into a loop stops quickly and
//! counts as `watchdog`.
//!
//! Checked: each report is byte-identical when its campaign seed repeats,
//! every baseline detects its attack, the seed-7 12-trial exp1 and ghttpd
//! campaigns reproduce TREND.json `campaigns`, and the benchmark's traced
//! trial runner gives the same reports as `Machine::run_campaign_jobs`.
//!
//! This workload is not listed in `BENCHMARK.json`. Some faults make the
//! guest `write` a length of gigabytes (one is the `decode_slot` fault at
//! step 977 in trial 3 of the 48-trial wu_ftpd campaign that `--seed 14`
//! runs in its sixth pair of passes), and `Os::sys_write` copies the whole
//! range through `MemorySystem::read_bytes`: one such run of this workload
//! took 155 s and 8 GB of resident memory. The trial runner therefore stops
//! a trial just before a `write` or `send` of more than [`MAX_WRITE`] bytes
//! and fails its session, naming the trial; three of ten 30-second runs
//! (seeds 101 to 110) fail so. Until the kernel model bounds that copy, run
//! the workload by hand.

use std::collections::BTreeMap;
use std::sync::Mutex;

use ptaint::{CampaignReport, CampaignSpec, Fault, FaultKind, Machine, OutcomeClass, TrialRun};
use ptaint_bench::json::Value;
use ptaint_bench::trend::{TREND_SEED, TREND_TRIALS};
use ptaint_cpu::Cpu;
use ptaint_inject::StateInjector;
use ptaint_isa::{Instr, Reg};
use ptaint_os::{run_to_exit_with, RunLimits, StepHook, Sys};
use ptaint_trace::ToJson;

use crate::attacks::{self, SUITE};
use crate::calls::{self, add, Counts};
use crate::spans::Tracer;
use crate::stats::{self, fnv64};
use crate::Workload;

const TARGETS: [&str; 4] = ["exp1", "ghttpd", "wu_ftpd", "null_httpd"];
const TRIALS: [u64; 5] = [16, 32, 48, 64, 80];
/// Step budget, as a multiple of the baseline's instruction count.
const BUDGET: u64 = 4;
/// The largest `write` or `send` a trial may make. Baselines run under the
/// same limit, so a limit too low for a fault-free run fails every session
/// rather than going unseen.
const MAX_WRITE: u32 = 16 << 20;

struct Target {
    name: &'static str,
    machine: Machine,
    limits: RunLimits,
}

pub struct Campaign {
    seed: u64,
    targets: Vec<Target>,
    /// (target, trials) per session type.
    items: Vec<(usize, u64)>,
    /// Report digest per (session type, campaign seed).
    digests: BTreeMap<(usize, u64), u64>,
}

impl Campaign {
    pub fn setup(seed: u64, tr: &Tracer, checks: &mut Vec<String>) -> Result<Campaign, String> {
        let trend = crate::trend()?;
        let pads = attacks::calibrate(tr)?;
        let mut targets = Vec::new();
        for name in TARGETS {
            let attack = SUITE
                .iter()
                .find(|a| a.name == name)
                .expect("target is in the suite");
            let image = calls::build(tr, attack.source).map_err(|e| format!("{name}: {e}"))?;
            let world = attack.world(&image, pads);
            let machine = Machine::from_image(image).world(world);
            if let Some(row) = trend.get("campaigns").and_then(|c| c.get(name)) {
                // TREND.json pins these under the default step budget.
                let report =
                    machine.run_campaign_jobs(&CampaignSpec::new(TREND_SEED, TREND_TRIALS), 1);
                check_trend(name, row, &report, checks);
            }
            let budget = BUDGET * machine.run().stats.instructions;
            let machine = machine.step_limit(budget);
            let target = Target {
                name,
                machine,
                limits: RunLimits::steps(budget),
            };
            let spec = CampaignSpec::new(TREND_SEED, TREND_TRIALS);
            let library = target.machine.run_campaign_jobs(&spec, 1).to_json();
            match run(tr, &target, &spec, &mut Counts::new()) {
                Ok(report) if report.to_json() == library => {}
                Ok(_) => checks.push(format!(
                    "{name}: traced trial runner disagrees with Machine::run_campaign_jobs"
                )),
                Err(e) => checks.push(format!("{name}: {e}")),
            }
            targets.push(target);
        }
        let items = (0..targets.len())
            .flat_map(|t| TRIALS.into_iter().map(move |n| (t, n)))
            .collect();
        Ok(Campaign {
            seed,
            targets,
            items,
            digests: BTreeMap::new(),
        })
    }
}

fn check_trend(name: &str, row: &Value, report: &CampaignReport, checks: &mut Vec<String>) {
    let counts = row.get("counts");
    let mut ok =
        row.get("baseline_detected").and_then(Value::as_bool) == Some(report.baseline_detected);
    for class in OutcomeClass::ALL {
        let want = counts
            .and_then(|c| c.get(class.name()))
            .and_then(Value::as_f64);
        ok &= want == Some(report.count(class) as f64);
    }
    if !ok {
        checks.push(format!(
            "{name}: seed-{TREND_SEED} campaign does not reproduce TREND.json"
        ));
    }
}

/// A trial's step hook: the fault injector, if any, then a stop (a panic,
/// which `run_to_exit_with` ends the run on) before a `syscall` that would
/// `write` or `send` more than [`MAX_WRITE`] bytes.
struct WriteGuard<'a> {
    fault: Option<&'a Fault>,
    injector: Option<&'a mut StateInjector>,
    /// What the first stopped trial would have written.
    stopped: &'a Mutex<Option<String>>,
}

impl StepHook for WriteGuard<'_> {
    fn on_step(&mut self, step: u64, cpu: &mut Cpu) {
        if let Some(injector) = self.injector.as_deref_mut() {
            injector.on_step(step, cpu);
        }
        let regs = cpu.regs();
        let call = regs.value(Reg::V0);
        let len = regs.value(Reg::A2);
        if (call == Sys::Write.number() || call == Sys::Send.number())
            && len > MAX_WRITE
            && cpu
                .mem()
                .fetch_u32(cpu.pc())
                .is_ok_and(|w| matches!(Instr::decode(w), Ok(Instr::Syscall)))
        {
            let what = format!("a {len}-byte write at step {step} after {:?}", self.fault);
            self.stopped
                .lock()
                .expect("no panic while holding the note")
                .get_or_insert_with(|| what.clone());
            panic!("perfbench: trial stopped before {what}");
        }
    }
}

/// One campaign on one thread, every trial forked from a post-boot
/// snapshot — `Machine::run_campaign`'s trial runner, with spans. Fails if
/// a trial was stopped before an oversized write (see [`WriteGuard`]).
fn run(
    tr: &Tracer,
    target: &Target,
    spec: &CampaignSpec,
    counts: &mut Counts,
) -> Result<CampaignReport, String> {
    let shared = Mutex::new(Counts::new());
    let stopped = Mutex::new(None);
    let report = ptaint_inject::run_campaign_jobs(spec, 1, || {
        let snap = {
            let _g = tr.enter("core.snapshot");
            target.machine.snapshot()
        };
        let (shared, stopped) = (&shared, &stopped);
        move |fault: Option<&Fault>| {
            let _g = tr.enter("inject.trial");
            let run = match fault {
                // Proof-cache faults strike before boot: the library reboots them.
                Some(f) if f.kind == FaultKind::ProofCache => {
                    let _g = tr.enter("core.run_injected");
                    target.machine.run_injected(f)
                }
                _ => {
                    let (mut cpu, mut os) = {
                        let _g = tr.enter("core.fork");
                        snap.fork()
                    };
                    let mut injector = fault.map(|f| {
                        os.set_io_faults(f.io_plan());
                        StateInjector::new(*f)
                    });
                    let mut hook = WriteGuard {
                        fault,
                        injector: injector.as_mut(),
                        stopped,
                    };
                    let g = tr.enter("cpu.run");
                    let outcome = run_to_exit_with(&mut cpu, &mut os, target.limits, &mut hook);
                    g.insns(outcome.stats.instructions);
                    drop(g);
                    let applied = injector.and_then(|i| i.applied().map(str::to_owned));
                    TrialRun {
                        outcome,
                        io_calls: os.io_call_count(),
                        applied,
                    }
                }
            };
            let mut c = shared
                .lock()
                .expect("no trial panics while holding the counts");
            calls::count_run(&mut c, &run.outcome);
            if fault.is_some() {
                add(&mut c, "inject.trials", 1);
                add(
                    &mut c,
                    "inject.applied",
                    u64::from(run.outcome.stats.injected_faults > 0),
                );
            }
            run
        }
    });
    for (k, v) in shared
        .into_inner()
        .expect("no trial panics while holding the counts")
    {
        add(counts, k, v);
    }
    match stopped
        .into_inner()
        .expect("no panic while holding the note")
    {
        Some(what) => Err(format!(
            "a trial was stopped before {what}: Os::sys_write would copy it in full"
        )),
        None => Ok(report),
    }
}

impl Workload for Campaign {
    fn mix_len(&self) -> usize {
        self.items.len()
    }

    /// The campaigns change every two passes; with `--trace 1` the
    /// untraced pass and the traced one run the same campaigns.
    fn input_group(&self, pass: u64) -> u64 {
        pass / 2
    }

    fn session(
        &mut self,
        pass: u64,
        item: usize,
        tr: &Tracer,
        counts: &mut Counts,
    ) -> Result<u64, String> {
        let (t, trials) = self.items[item];
        let target = &self.targets[t];
        let group = self.input_group(pass);
        let seed = stats::rng(self.seed, 0xca_0000 + group * 64 + item as u64).next_u64();
        let what = format!("{} campaign seed {seed:#x}, {trials} trials", target.name);
        let report = run(tr, target, &CampaignSpec::new(seed, trials), counts)
            .map_err(|e| format!("{what}: {e}"))?;
        for class in OutcomeClass::ALL {
            let key = match class {
                OutcomeClass::Detected => "inject.outcome.detected",
                OutcomeClass::Missed => "inject.outcome.missed",
                OutcomeClass::FalseAlert => "inject.outcome.false_alert",
                OutcomeClass::Benign => "inject.outcome.benign",
                OutcomeClass::GuestFault => "inject.outcome.guest_fault",
                OutcomeClass::DetectorFault => "inject.outcome.detector_fault",
                OutcomeClass::Watchdog => "inject.watchdog_trials",
            };
            add(counts, key, report.count(class));
        }
        if !report.baseline_detected {
            return Err(format!("{what}: baseline did not detect the attack"));
        }
        let digest = fnv64(report.to_json().as_bytes());
        if *self.digests.entry((item, seed)).or_insert(digest) != digest {
            return Err(format!(
                "{what}: report differs from the previous run of the same seed"
            ));
        }
        Ok(trials + 1)
    }

    /// 20 sessions a pass: 120 sessions put the tail at p90.
    fn min_passes(&self) -> u64 {
        6
    }

    fn work_metric(&self) -> Option<(&'static str, f64)> {
        Some(("trials_per_s", 1.0))
    }

    fn item_name(&self, item: usize) -> String {
        let (t, trials) = self.items[item];
        format!("{} {trials} trials", self.targets[t].name)
    }
}
