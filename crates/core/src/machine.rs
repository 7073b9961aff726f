//! The top-level machine builder.

use std::rc::Rc;
use std::time::Duration;

use ptaint_asm::Image;
use ptaint_cpu::pipeline::{Pipeline, PipelineReport};
use ptaint_cpu::{Cpu, DetectionPolicy, Engine, TaintRules};
use ptaint_guest::BuildError;
use ptaint_inject::{CampaignReport, CampaignSpec, Fault, StateInjector, TrialRun};
use ptaint_mem::HierarchyConfig;
use ptaint_os::{
    load_with_observer, run_to_exit_with, Os, RunLimits, RunOutcome, StepHook, SyscallJournal,
    WorldConfig,
};
use ptaint_profile::{EventProfile, ProfileReport, SymbolTable};
use ptaint_trace::{
    Counters, DecodeCacheCounters, Event, Observer, SharedObserver, TraceConfig, TraceHub,
    TraceReport,
};
use std::cell::RefCell;

/// A configured guest machine: program image, outside world, detection
/// policy, and memory hierarchy. Each [`Machine::run`] boots a fresh
/// instance, so one `Machine` can be run many times (e.g. under different
/// payload calibrations).
///
/// ```
/// use ptaint::{Machine, WorldConfig};
///
/// let m = Machine::from_c(r#"int main() { printf("hi\n"); return 0; }"#)?;
/// assert_eq!(m.run().stdout_text(), "hi\n");
/// # Ok::<(), ptaint::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    image: Image,
    world: WorldConfig,
    policy: DetectionPolicy,
    hierarchy: HierarchyConfig,
    rules: TaintRules,
    watches: Vec<(u32, u32, String)>,
    step_limit: u64,
    watchdog: Option<Duration>,
    trace_depth: Option<usize>,
    engine: Engine,
    fork_trials: bool,
}

impl Machine {
    /// Default step budget (ample for every program in this workspace).
    pub const DEFAULT_STEP_LIMIT: u64 = 500_000_000;

    /// Compiles a mini-C program (linked against the guest libc and
    /// runtime) into a machine.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when compilation or assembly fails.
    pub fn from_c(source: &str) -> Result<Machine, BuildError> {
        Ok(Machine::from_image(ptaint_guest::build(source)?))
    }

    /// Like [`Machine::from_c`], with the mini-C peephole optimizer enabled.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when compilation or assembly fails.
    pub fn from_c_optimized(source: &str) -> Result<Machine, BuildError> {
        Ok(Machine::from_image(ptaint_guest::build_optimized(source)?))
    }

    /// Assembles a bare-metal assembly program (no libc) into a machine.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] when assembly fails.
    pub fn from_asm(source: &str) -> Result<Machine, BuildError> {
        Ok(Machine::from_image(ptaint_asm::assemble(source)?))
    }

    /// Wraps an already-built image.
    #[must_use]
    pub fn from_image(image: Image) -> Machine {
        Machine {
            image,
            world: WorldConfig::new(),
            policy: DetectionPolicy::PointerTaintedness,
            hierarchy: HierarchyConfig::flat(),
            rules: TaintRules::PAPER,
            watches: Vec::new(),
            step_limit: Machine::DEFAULT_STEP_LIMIT,
            watchdog: None,
            trace_depth: None,
            engine: Engine::default(),
            fork_trials: true,
        }
    }

    /// Selects the execution engine (default: the predecoded/cached engine;
    /// [`Engine::Interp`] keeps the legacy interpreter available as the
    /// differential-testing oracle).
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Machine {
        self.engine = engine;
        self
    }

    /// Sets the taint-propagation rule set (default: the paper's Table 1;
    /// ablated variants via [`TaintRules`]).
    #[must_use]
    pub fn taint_rules(mut self, rules: TaintRules) -> Machine {
        self.rules = rules;
        self
    }

    /// Adds a §5.3 programmer annotation on the *global symbol* `name`:
    /// execution stops as soon as any of its `len` bytes becomes tainted.
    ///
    /// # Panics
    ///
    /// Panics when the symbol is not defined by the program.
    #[must_use]
    pub fn taint_watch_symbol(mut self, name: &str, len: u32) -> Machine {
        let addr = self
            .image
            .symbol(name)
            .unwrap_or_else(|| panic!("no such symbol `{name}` to annotate"));
        self.watches.push((addr, len, name.to_owned()));
        self
    }

    /// Sets the outside world (stdin, files, network sessions, argv/envp).
    #[must_use]
    pub fn world(mut self, world: WorldConfig) -> Machine {
        self.world = world;
        self
    }

    /// Sets the detection policy (default: full pointer taintedness).
    #[must_use]
    pub fn policy(mut self, policy: DetectionPolicy) -> Machine {
        self.policy = policy;
        self
    }

    /// Sets the cache hierarchy (default: no caches).
    #[must_use]
    pub fn hierarchy(mut self, hierarchy: HierarchyConfig) -> Machine {
        self.hierarchy = hierarchy;
        self
    }

    /// Sets the step budget.
    #[must_use]
    pub fn step_limit(mut self, limit: u64) -> Machine {
        self.step_limit = limit;
        self
    }

    /// Arms a wall-clock watchdog: runs exceeding `limit` stop with
    /// [`ptaint_os::ExitReason::Watchdog`] instead of spinning until the
    /// step budget.
    /// Off by default — campaign reports stay deterministic when only the
    /// (deterministic) step budget can end a hung run.
    #[must_use]
    pub fn watchdog(mut self, limit: Duration) -> Machine {
        self.watchdog = Some(limit);
        self
    }

    fn limits(&self) -> RunLimits {
        RunLimits {
            max_steps: self.step_limit,
            watchdog: self.watchdog,
        }
    }

    /// Sets the depth of the CPU's recently-retired diagnostic ring (default
    /// [`ptaint_cpu::DEFAULT_TRACE_DEPTH`]) — the tail reported by
    /// [`Machine::run_traced`] and the CLI's alert report.
    #[must_use]
    pub fn trace_depth(mut self, depth: usize) -> Machine {
        self.trace_depth = Some(depth);
        self
    }

    /// The program image (symbol table, segments) — payload builders use
    /// this to locate attack targets.
    #[must_use]
    pub fn image(&self) -> &Image {
        &self.image
    }

    fn boot(&self) -> (Cpu, Os) {
        self.boot_with(None)
    }

    fn boot_with(&self, observer: Option<SharedObserver>) -> (Cpu, Os) {
        let (mut cpu, os) = load_with_observer(
            &self.image,
            self.world.clone(),
            self.policy,
            self.hierarchy,
            observer,
        );
        cpu.set_taint_rules(self.rules);
        cpu.set_engine(self.engine);
        if let Some(depth) = self.trace_depth {
            cpu.set_trace_depth(depth);
        }
        for (addr, len, label) in &self.watches {
            cpu.add_taint_watch(*addr, *len, label.clone());
        }
        (cpu, os)
    }

    /// Boots a fresh instance and runs it to completion.
    #[must_use]
    pub fn run(&self) -> RunOutcome {
        let (mut cpu, mut os) = self.boot();
        run_to_exit_with(&mut cpu, &mut os, self.limits(), &mut ())
    }

    /// Boots a fresh instance and runs it under one injected [`Fault`]:
    /// I/O kinds are scheduled on the kernel, state kinds armed as a
    /// [`StateInjector`] step hook. Returns the trial result the campaign
    /// classifier consumes.
    #[must_use]
    pub fn run_injected(&self, fault: &Fault) -> TrialRun {
        let (mut cpu, mut os) = self.boot();
        os.set_io_faults(fault.io_plan());
        let mut injector = StateInjector::new(*fault);
        let outcome = run_to_exit_with(&mut cpu, &mut os, self.limits(), &mut injector);
        TrialRun {
            outcome,
            io_calls: os.io_call_count(),
            applied: injector.applied().map(str::to_owned),
        }
    }

    /// Selects how [`Machine::run_campaign`] provisions each trial
    /// (default: `true`). With forking on, the campaign boots **once**,
    /// snapshots the post-boot baseline, and copy-on-write-forks every
    /// trial from it; with forking off, every trial reboots from `_start`
    /// (the legacy path, kept as the determinism oracle and benchmark
    /// baseline). Both modes produce byte-identical reports — pinned by
    /// tests and the CI fork-determinism gate.
    #[must_use]
    pub fn fork_trials(mut self, on: bool) -> Machine {
        self.fork_trials = on;
        self
    }

    /// Boots a fresh instance and captures it, pre-execution, as a
    /// [`MachineSnapshot`]: the post-boot baseline that campaign trials
    /// (and any other caller) can cheaply [`MachineSnapshot::fork`] from.
    #[must_use]
    pub fn snapshot(&self) -> MachineSnapshot {
        self.snapshot_with(None)
    }

    /// Like [`Machine::snapshot`], attaching `observer` to the snapshot's
    /// timeline and announcing the capture with an
    /// [`Event::Snapshot`](ptaint_trace::Event) carrying the resident page
    /// count. Each later fork is announced on the same stream.
    #[must_use]
    pub fn snapshot_with(&self, observer: Option<SharedObserver>) -> MachineSnapshot {
        let (cpu, os) = self.boot_with(observer);
        if cpu.has_observer() {
            cpu.emit_event(&Event::Snapshot {
                pages: cpu.mem().memory().page_count() as u64,
            });
        }
        MachineSnapshot {
            cpu,
            os,
            limits: self.limits(),
        }
    }

    /// Boots a fresh instance, records every serviced syscall into a
    /// [`SyscallJournal`], and runs to completion. The journal replays the
    /// run instruction-exactly via [`Machine::replay`] — including on a
    /// machine whose world has been stripped — for forensics over the
    /// paper's provenance chains.
    #[must_use]
    pub fn record(&self) -> (RunOutcome, SyscallJournal) {
        let (mut cpu, mut os) = self.boot();
        os.start_recording();
        let outcome = run_to_exit_with(&mut cpu, &mut os, self.limits(), &mut ());
        let journal = os.take_journal().unwrap_or_default();
        (outcome, journal)
    }

    /// Boots a fresh instance and re-serves `journal` byte-exactly instead
    /// of consulting the world. A guest that departs from the journal stops
    /// with [`ptaint_os::ExitReason::ReplayDivergence`] — a structured
    /// outcome, never a panic.
    #[must_use]
    pub fn replay(&self, journal: SyscallJournal) -> RunOutcome {
        let (mut cpu, mut os) = self.boot();
        os.start_replay(journal);
        run_to_exit_with(&mut cpu, &mut os, self.limits(), &mut ())
    }

    /// Runs a whole fault-injection campaign against this workload: one
    /// fault-free baseline plus `spec.trials` seeded injections, classified
    /// against the baseline's verdict. Trials fork copy-on-write from a
    /// single post-boot snapshot by default; [`Machine::fork_trials`]`(false)`
    /// reboots each trial from `_start` instead. The report is byte-
    /// identical either way.
    #[must_use]
    pub fn run_campaign(&self, spec: &CampaignSpec) -> CampaignReport {
        if self.fork_trials {
            let snap = self.snapshot();
            return ptaint_inject::run_campaign(spec, |fault| match fault {
                Some(f) => snap.run_injected(f),
                None => snap.run(),
            });
        }
        ptaint_inject::run_campaign(spec, |fault| match fault {
            Some(f) => self.run_injected(f),
            None => self.run_trial(),
        })
    }

    /// Boots a fresh instance and runs it fault-free — the rebooted
    /// baseline trial of a campaign.
    fn run_trial(&self) -> TrialRun {
        let (mut cpu, mut os) = self.boot();
        let outcome = run_to_exit_with(&mut cpu, &mut os, self.limits(), &mut ());
        TrialRun {
            outcome,
            io_calls: os.io_call_count(),
            applied: None,
        }
    }

    /// The sharded counterpart of [`Machine::run_campaign`]: trials are
    /// distributed across `jobs` worker threads, each of which boots its
    /// own post-boot baseline (boots are deterministic, so every worker's
    /// snapshot is bit-identical) and steals trial indices from a shared
    /// counter. Records merge in trial order, so the report is
    /// **byte-identical** to the single-threaded one for the same spec —
    /// `jobs <= 1` simply delegates to [`Machine::run_campaign`].
    #[must_use]
    pub fn run_campaign_jobs(&self, spec: &CampaignSpec, jobs: usize) -> CampaignReport {
        if jobs <= 1 {
            return self.run_campaign(spec);
        }
        ptaint_inject::run_campaign_jobs(spec, jobs, || {
            let snap = self.fork_trials.then(|| self.snapshot());
            move |fault: Option<&Fault>| match (fault, &snap) {
                (Some(f), Some(snap)) => snap.run_injected(f),
                (Some(f), None) => self.run_injected(f),
                (None, Some(snap)) => snap.run(),
                (None, None) => self.run_trial(),
            }
        })
    }

    /// Boots a fresh instance and runs it through the 5-stage pipeline
    /// timing model (Figure 3), returning both the functional outcome and
    /// the cycle-level report (detection staging, stalls, IPC).
    #[must_use]
    pub fn run_pipelined(&self) -> (RunOutcome, PipelineReport) {
        let (cpu, mut os) = self.boot();
        let mut pipe = Pipeline::new(cpu);
        let outcome = run_to_exit_with(&mut pipe, &mut os, self.limits(), &mut ());
        (outcome, pipe.report())
    }

    /// Runs to completion and returns the outcome together with a
    /// disassembled tail of the execution (the most recently retired
    /// instructions, oldest first) — the `--trace` view of `ptaint-run`.
    #[must_use]
    pub fn run_traced(&self) -> (RunOutcome, Vec<String>) {
        let (mut cpu, mut os) = self.boot();
        let outcome = run_to_exit_with(&mut cpu, &mut os, self.limits(), &mut ());
        let trace = self.render_tail(&cpu);
        (outcome, trace)
    }

    /// Boots with the observability sinks `cfg` enables, runs to completion,
    /// and returns the outcome, the disassembled execution tail, and the
    /// collected [`TraceReport`] (JSONL stream, metrics, forensic chain).
    ///
    /// With every sink disabled this is equivalent to [`Machine::run_traced`]
    /// plus an empty report — no observer is attached at all.
    #[must_use]
    pub fn run_with_trace(&self, cfg: &TraceConfig) -> (RunOutcome, Vec<String>, TraceReport) {
        if !cfg.any() {
            let (outcome, tail) = self.run_traced();
            return (outcome, tail, TraceReport::default());
        }
        let hub = TraceHub::shared(cfg);
        let observer: SharedObserver = hub.clone();
        let (mut cpu, mut os) = self.boot_with(Some(observer));
        let mut poller = CounterPoller::new(|now| hub.borrow_mut().poll(now));
        let outcome = run_to_exit_with(&mut cpu, &mut os, self.limits(), &mut poller);
        poller.finish(&cpu);
        let tail = self.render_tail(&cpu);
        // Release the emulator's observer handles so the hub is uniquely
        // owned again and can be consumed into its report.
        drop(cpu);
        drop(os);
        let report = Rc::try_unwrap(hub)
            .map(|cell| cell.into_inner().into_report())
            .unwrap_or_default();
        (outcome, tail, report)
    }

    /// Boots with the hot-loop profiler enabled plus an event-stream
    /// profile collector, runs to completion, and returns the outcome, the
    /// execution tail, the [`TraceReport`] for whatever sinks `cfg`
    /// enables, and the merged, symbolized [`ProfileReport`] — per-PC and
    /// per-symbol retirement counts, collapsed call stacks, the taint
    /// heatmap, and the syscall table. The report carries counts only (no
    /// wall-clock data), so a deterministic guest profiles
    /// byte-identically under either engine.
    #[must_use]
    pub fn run_profile(
        &self,
        cfg: &TraceConfig,
    ) -> (RunOutcome, Vec<String>, TraceReport, ProfileReport) {
        let fan = Rc::new(RefCell::new(ProfileFan {
            hub: TraceHub::new(cfg),
            events: EventProfile::new(),
        }));
        let observer: SharedObserver = fan.clone();
        let (mut cpu, mut os) = self.boot_with(Some(observer));
        cpu.enable_profiler();
        let mut poller = CounterPoller::new(|now| fan.borrow_mut().hub.poll(now));
        let outcome = run_to_exit_with(&mut cpu, &mut os, self.limits(), &mut poller);
        poller.finish(&cpu);
        let tail = self.render_tail(&cpu);
        let hot = cpu.take_profiler().unwrap_or_default();
        drop(cpu);
        drop(os);
        let (trace_report, events) = Rc::try_unwrap(fan)
            .map(|cell| {
                let fan = cell.into_inner();
                (fan.hub.into_report(), fan.events)
            })
            .unwrap_or_else(|_| (TraceReport::default(), EventProfile::new()));
        let profile = ProfileReport::build(&hot, &events, &self.symbol_table());
        (outcome, tail, trace_report, profile)
    }

    /// A profile-ready symbol table over the image's text segment (plus a
    /// synthetic name for the loader's exit stub, which executes right
    /// after text). The mini-C compiler's internal basic-block labels
    /// (`_L<n>_<stem>`) are dropped so samples attribute to the enclosing
    /// function, not the branch target inside it.
    #[must_use]
    pub fn symbol_table(&self) -> SymbolTable {
        let stub = ("<exit-stub>".to_string(), self.image.text_end());
        SymbolTable::build(
            self.image
                .symbols
                .iter()
                .filter(|(name, _)| !name.starts_with("_L"))
                .map(|(name, &addr)| (name.clone(), addr))
                .chain(std::iter::once(stub)),
            self.image.text_base,
            self.image.text_end() + ptaint_os::EXIT_STUB_BYTES,
        )
    }

    fn render_tail(&self, cpu: &Cpu) -> Vec<String> {
        cpu.recent_trace()
            .into_iter()
            .map(|(pc, instr)| {
                let sym = self
                    .image
                    .symbol_at(pc)
                    .map(|s| format!(" <{s}>"))
                    .unwrap_or_default();
                format!("{pc:08x}{sym}: {instr}")
            })
            .collect()
    }

    /// Static program size in bytes (text + data), the "program size"
    /// column of Table 3.
    #[must_use]
    pub fn program_size_bytes(&self) -> u32 {
        self.image.text.len() as u32 * 4 + self.image.data.len() as u32
    }
}

/// A booted, pre-execution machine captured as a copy-on-write baseline.
///
/// Produced by [`Machine::snapshot`]. Every [`MachineSnapshot::fork`]
/// yields an independent `(Cpu, Os)` pair whose memory shares pages with
/// the snapshot until written (see `ptaint_mem`'s COW model); kernel state
/// is copied outright (it is small), and the decode cache is rebuilt on
/// demand, so a forked run is
/// bit-identical to a fresh boot of the same machine — stats, traces, and
/// campaign reports included.
#[derive(Debug)]
pub struct MachineSnapshot {
    cpu: Cpu,
    os: Os,
    limits: RunLimits,
}

impl MachineSnapshot {
    /// Forks an independent, runnable machine instance off the baseline.
    /// When the snapshot carries an observer (see
    /// [`Machine::snapshot_with`]), the fork is announced on its stream
    /// with an [`Event::Fork`] carrying the COW sharing counters; the
    /// forked instance itself starts unobserved.
    #[must_use]
    pub fn fork(&self) -> (Cpu, Os) {
        let pair = (self.cpu.fork(), self.os.fork());
        if self.cpu.has_observer() {
            self.cpu.emit_event(&Event::Fork {
                pages_shared: self.cpu.mem().pages_shared() as u64,
                cow_faults: self.cpu.mem().cow_fault_count(),
            });
        }
        pair
    }

    /// Forks and runs to completion under the machine's limits — the
    /// baseline trial of a forked campaign.
    #[must_use]
    pub fn run(&self) -> TrialRun {
        let (mut cpu, mut os) = self.fork();
        let outcome = run_to_exit_with(&mut cpu, &mut os, self.limits, &mut ());
        TrialRun {
            outcome,
            io_calls: os.io_call_count(),
            applied: None,
        }
    }

    /// Forks and runs under one injected [`Fault`] — the forked
    /// counterpart of [`Machine::run_injected`], producing bit-identical
    /// [`TrialRun`]s.
    #[must_use]
    pub fn run_injected(&self, fault: &Fault) -> TrialRun {
        let (mut cpu, mut os) = self.fork();
        os.set_io_faults(fault.io_plan());
        let mut injector = StateInjector::new(*fault);
        let outcome = run_to_exit_with(&mut cpu, &mut os, self.limits, &mut injector);
        TrialRun {
            outcome,
            io_calls: os.io_call_count(),
            applied: injector.applied().map(str::to_owned),
        }
    }

    /// Baseline pages currently shared copy-on-write with live forks.
    #[must_use]
    pub fn pages_shared(&self) -> usize {
        self.cpu.mem().pages_shared()
    }
}

/// Polls the machine's counters into a trace hub, riding the step hook of
/// `run_to_exit_with`: `poll` runs only when the retired count reaches the
/// boundary the hub asked for last (a density window or a
/// `metrics_snapshot` record), and [`CounterPoller::finish`] takes one
/// last poll after the run.
struct CounterPoller<F> {
    poll: F,
    due: u64,
}

impl<F: FnMut(Counters) -> u64> CounterPoller<F> {
    fn new(poll: F) -> CounterPoller<F> {
        CounterPoller { poll, due: 0 }
    }

    fn finish(mut self, cpu: &Cpu) {
        (self.poll)(counters(cpu));
    }
}

impl<F: FnMut(Counters) -> u64> StepHook for CounterPoller<F> {
    fn on_step(&mut self, _step: u64, cpu: &mut Cpu) {
        if cpu.stats().instructions >= self.due {
            self.due = (self.poll)(counters(cpu));
        }
    }
}

/// The counters a metrics snapshot reports, read from `ExecStats` and the
/// memory system's `CacheStats`.
fn counters(cpu: &Cpu) -> Counters {
    let stats = cpu.stats();
    Counters {
        retired: stats.instructions,
        tainted_retired: stats.tainted_operand_instructions,
        cache: [
            cpu.mem().l1_stats().unwrap_or_default(),
            cpu.mem().l2_stats().unwrap_or_default(),
        ],
        decode_cache: DecodeCacheCounters {
            hits: stats.decode_cache_hits,
            misses: stats.decode_cache_misses,
            invalidations: stats.decode_cache_invalidations,
        },
        faults_injected: stats.injected_faults,
    }
}

/// Fans the event stream to the trace hub *and* the profile collector, so
/// one observer slot serves both (`Machine::run_profile`).
struct ProfileFan {
    hub: TraceHub,
    events: EventProfile,
}

impl Observer for ProfileFan {
    fn on_event(&mut self, event: &Event) {
        self.hub.on_event(event);
        self.events.on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptaint_os::ExitReason;

    #[test]
    fn from_c_builds_and_runs() {
        let m = Machine::from_c("int main() { return 7; }").unwrap();
        assert_eq!(m.run().reason, ExitReason::Exited(7));
        assert!(m.program_size_bytes() > 100);
    }

    #[test]
    fn machine_is_reusable() {
        let m = Machine::from_c(
            r#"int main() {
                char b[16];
                int n = read(0, b, 15);
                b[n] = 0;
                printf("<%s>", b);
                return 0;
            }"#,
        )
        .unwrap();
        let a = m
            .clone()
            .world(WorldConfig::new().stdin(b"one".to_vec()))
            .run();
        let b = m.world(WorldConfig::new().stdin(b"two".to_vec())).run();
        assert_eq!(a.stdout_text(), "<one>");
        assert_eq!(b.stdout_text(), "<two>");
    }

    #[test]
    fn from_asm_builds_bare_programs() {
        let m = Machine::from_asm(
            "main: li $v0, 1
                   li $a0, 9
                   syscall",
        )
        .unwrap();
        assert_eq!(m.run().reason, ExitReason::Exited(9));
    }

    #[test]
    fn pipelined_run_matches_functional_run() {
        let m = Machine::from_c(
            "int f(int n) { if (n < 2) return n; return f(n-1) + f(n-2); }
             int main() { return f(10); }",
        )
        .unwrap();
        let plain = m.run();
        let (piped, report) = m.run_pipelined();
        assert_eq!(plain.reason, ExitReason::Exited(55));
        assert_eq!(piped.reason, plain.reason);
        assert_eq!(piped.stats.instructions, plain.stats.instructions);
        assert!(report.cycles >= report.instructions);
        assert!(report.ipc() > 0.3 && report.ipc() <= 1.0);
    }

    #[test]
    fn hierarchy_does_not_change_results() {
        let m = Machine::from_c(
            r#"int main() {
                int i; int s = 0;
                int a[64];
                for (i = 0; i < 64; i++) a[i] = i;
                for (i = 0; i < 64; i++) s += a[i];
                return s & 0x7f;
            }"#,
        )
        .unwrap();
        let flat = m.run();
        let cached = m.hierarchy(HierarchyConfig::two_level()).run();
        assert_eq!(flat.reason, cached.reason);
    }

    #[test]
    fn engine_selector_switches_between_interpreter_and_cache() {
        let m = Machine::from_c("int main() { return 7; }").unwrap();
        let cached = m.clone().engine(Engine::Cached).run();
        let interp = m.engine(Engine::Interp).run();
        assert_eq!(cached.reason, ExitReason::Exited(7));
        assert_eq!(interp.reason, ExitReason::Exited(7));
        assert!(cached.stats.decode_cache_hits > 0);
        assert_eq!(interp.stats.decode_cache_hits, 0);
        assert_eq!(
            cached.stats.without_decode_cache(),
            interp.stats.without_decode_cache()
        );
    }

    #[test]
    fn step_limit_is_respected() {
        let m = Machine::from_asm("main: b main").unwrap().step_limit(1000);
        assert_eq!(m.run().reason, ExitReason::StepLimit);
    }

    #[test]
    fn watchdog_stops_a_hung_machine() {
        let m = Machine::from_asm("main: b main")
            .unwrap()
            .watchdog(Duration::from_millis(10));
        assert_eq!(m.run().reason, ExitReason::Watchdog);
    }

    #[test]
    fn injected_taint_clear_defeats_detection() {
        use ptaint_inject::FaultKind;
        // Baseline: dereferencing input is detected. With the shadow bits
        // cleared right before the dereference, the same run exits clean.
        let m = Machine::from_asm(
            r#"
        .data
buf:    .space 8
        .text
main:   li $v0, 3
        li $a0, 0
        la $a1, buf
        li $a2, 8
        syscall
        la $t0, buf
        lw $t1, 0($t0)
        li $v0, 1
        li $a0, 0
        lw $t2, 0($t1)
        syscall
        "#,
        )
        .unwrap()
        .world(WorldConfig::new().stdin(b"\x60aaa".to_vec()));
        let baseline = m.run();
        assert!(baseline.reason.is_detected());
        // Some trigger step between the read (taint arrives) and the load
        // (taint reaches the register file) must defeat the detector: the
        // cleared word dereferences into sparse zero memory and exits clean.
        let mut defeated = false;
        for step in 0..baseline.stats.instructions {
            let trial = m.run_injected(&ptaint_inject::Fault {
                kind: FaultKind::TaintClear,
                io_call: 0,
                step,
                salt: 0,
            });
            if trial.applied.is_some() && trial.outcome.reason == ExitReason::Exited(0) {
                assert_eq!(trial.io_calls, 1);
                assert_eq!(trial.outcome.stats.injected_faults, 1);
                defeated = true;
                break;
            }
        }
        assert!(
            defeated,
            "no taint-clear trigger step defeated the detector"
        );
    }

    #[test]
    fn campaign_reports_are_seed_deterministic() {
        use ptaint_inject::CampaignSpec;
        use ptaint_trace::ToJson;
        let m = Machine::from_c(
            r#"int main() {
                char b[16];
                int n = read(0, b, 15);
                b[n] = 0;
                printf("<%s>", b);
                return 0;
            }"#,
        )
        .unwrap()
        .world(WorldConfig::new().stdin(b"benign input".to_vec()))
        .step_limit(2_000_000);
        let spec = CampaignSpec::new(0xfeed, 6);
        let a = m.run_campaign(&spec).to_json();
        let b = m.run_campaign(&spec).to_json();
        assert_eq!(a, b, "same seed must reproduce the report byte-for-byte");
        assert!(a.contains("\"baseline\":{\"detected\":false"));
    }

    #[test]
    fn forked_campaign_matches_rebooted_campaign_byte_for_byte() {
        use ptaint_inject::CampaignSpec;
        use ptaint_trace::ToJson;
        let m = Machine::from_c(
            r#"int main() {
                char b[16];
                int n = read(0, b, 15);
                b[n] = 0;
                printf("<%s>", b);
                return 0;
            }"#,
        )
        .unwrap()
        .world(WorldConfig::new().stdin(b"benign input".to_vec()))
        .step_limit(2_000_000);
        let spec = CampaignSpec::new(0xfeed, 6);
        let forked = m.run_campaign(&spec).to_json();
        let rebooted = m.fork_trials(false).run_campaign(&spec).to_json();
        assert_eq!(
            forked, rebooted,
            "fork-per-trial must reproduce the reboot-per-trial report byte-for-byte"
        );
    }

    #[test]
    fn snapshot_forks_run_bit_identical_to_fresh_boots() {
        let m = Machine::from_c(
            r#"int main() {
                char b[32];
                int n = read(0, b, 31);
                write(1, b, n);
                return n;
            }"#,
        )
        .unwrap()
        .world(WorldConfig::new().stdin(b"cow snapshot".to_vec()));
        let fresh = m.run();
        let snap = m.snapshot();
        for _ in 0..3 {
            let trial = snap.run();
            assert_eq!(trial.outcome.reason, fresh.reason);
            assert_eq!(trial.outcome.stats, fresh.stats);
            assert_eq!(trial.outcome.stdout, fresh.stdout);
        }
        // Sharing is live only while a fork exists: completed trials drop
        // their pages, so hold one open to observe the COW state.
        let held = snap.fork();
        assert!(
            snap.pages_shared() > 0,
            "a live fork should share the baseline's read-only pages"
        );
        drop(held);
        assert_eq!(snap.pages_shared(), 0);
    }

    #[test]
    fn record_then_replay_reproduces_the_run_without_the_world() {
        let m = Machine::from_c(
            r#"int main() {
                char b[32];
                int n = read(0, b, 31);
                write(1, b, n);
                return 7;
            }"#,
        )
        .unwrap()
        .world(WorldConfig::new().stdin(b"journal me".to_vec()));
        let (live, journal) = m.record();
        assert!(!journal.is_empty());
        // Replay against an empty world: every result comes from the journal.
        let empty = Machine {
            world: WorldConfig::new(),
            ..m
        };
        let replayed = empty.replay(journal);
        assert_eq!(replayed.reason, live.reason);
        assert_eq!(replayed.stats, live.stats);
        // Replay reproduces guest-visible execution from the journal; it
        // does not re-perform world side effects, so stdout stays empty.
        assert!(replayed.stdout.is_empty());
    }
}
