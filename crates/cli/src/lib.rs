#![warn(missing_docs)]

//! # ptaint-cli — drive the taintedness architecture from the shell
//!
//! ```text
//! ptaint-run program.c [options]
//! ptaint-run analyze program.c [options]
//! ptaint-run inject program.c [options]
//! ptaint-run profile program.c [options]
//! ptaint-run replay program.c --journal FILE [options]
//!
//! The `analyze` subcommand runs the static taint dataflow analysis
//! (`ptaint-analyze`) over the built image and prints the lint report —
//! tainted-pointer dereference sites with disassembly and reachability —
//! instead of executing the program. It exits 0 when nothing is flagged
//! and 3 when the report contains findings. The keyword is recognized only
//! as the **first** argument, so a source file that happens to be named
//! `analyze` can still be run: `ptaint-run ./analyze`.
//!
//! The `inject` subcommand runs a deterministic fault-injection campaign
//! (`ptaint-inject`) against the configured workload: a fault-free
//! baseline plus `--trials` seeded injections, each classified against the
//! baseline's verdict (detected / missed / false-alert / benign /
//! guest-fault / watchdog). The JSON report is byte-identical for the same
//! `--seed` and workload. Like `analyze`, the keyword is positional.
//!
//! The `profile` subcommand (`ptaint-profile`) runs the program with the
//! hot-loop profiler enabled and prints a top-N report: hot blocks and pcs
//! (per-PC retirement histogram, symbolized), taint hotspots (the
//! TaintSource/PointerCheck/Alert heatmap by site and
//! symbol), the per-syscall count/step-latency table, and collapsed call
//! stacks. `--profile-out FILE` writes the full profile as JSON — counts
//! only, no wall-clock data, so a deterministic guest profiles
//! byte-identically. `--profile-out` also works without the subcommand
//! (collect during a normal run, skip the printed report). Like
//! `analyze`, the keyword is positional.
//!
//! The `replay` subcommand re-executes a run from a syscall journal
//! recorded with `--journal-out`: every syscall result and every delivered
//! input byte is re-served from the journal instead of the world, so the
//! guest retraces the recorded execution bit-exactly — same exit reason,
//! same statistics — with no stdin, files, or scripted sessions attached.
//! A guest that issues a different syscall than the journal recorded stops
//! with a structured `replay diverged` outcome (exit 1). World side
//! effects (stdout, transcripts) are not re-performed. Like `analyze`,
//! the keyword is positional.
//!
//! options:
//!   --asm                 input is assembly, not mini-C
//!   --optimize            enable the mini-C peephole optimizer
//!   --policy P            off | control-only | ptaint     (default: ptaint)
//!   --engine E            interp | cached                  (default: cached)
//!   -j N, --jobs N        worker threads, for the `analyze` fixpoint and
//!                         for `inject` campaign shards (default for the
//!                         latter: available parallelism); the output is
//!                         byte-identical for every N (also `-jN`)
//!   --stdin FILE          feed FILE's bytes as standard input (tainted)
//!   --stdin-text STRING   feed STRING as standard input (tainted)
//!   --arg STRING          append a command-line argument (repeatable)
//!   --env NAME=VALUE      append an environment string (repeatable)
//!   --file PATH=HOSTFILE  mount HOSTFILE at PATH in the guest FS (repeatable)
//!   --session FILE        one network client session; FILE holds one
//!                         message per line, with `\xNN` hex escapes and
//!                         `\\` for raw bytes (repeatable)
//!   --watch SYMBOL:LEN    annotate SYMBOL (never-tainted, §5.3 extension)
//!   --caches              model the two-level cache hierarchy
//!   --pipeline            run through the 5-stage pipeline timing model
//!   --steps N             step budget (default 500M)
//!   --watchdog-ms N       wall-clock watchdog: runs exceeding N milliseconds
//!                         stop with a `watchdog expired` outcome
//!   --seed N              (inject) campaign seed             (default 1)
//!   --trials N            (inject) faulted trials            (default 32)
//!   --fork / --no-fork    (inject) fork each trial copy-on-write from one
//!                         post-boot snapshot (default) or reboot every
//!                         trial from `_start`; the report is byte-
//!                         identical either way
//!   --faults LIST         (inject) comma-separated fault kinds to sample:
//!                         short_read,eintr,conn_reset,fragment,data_bit,
//!                         taint_clear,taint_set,register_bit,cache_line,
//!                         multi_bit,taint_sweep,decode_slot
//!   --report FILE         (inject) write the campaign JSON to FILE instead
//!                         of stdout
//!   --journal-out FILE    record the run's syscall journal (results and
//!                         delivered input bytes) to FILE for `replay`
//!   --journal FILE        (replay) the journal to re-serve the run from
//!   --trace-out FILE      write the structured event stream (JSONL) to FILE
//!   --metrics-out FILE    write the aggregated metrics snapshot (JSON) to FILE
//!   --metrics-interval N  interleave a `metrics_snapshot` record into the
//!                         JSONL stream every N retired instructions
//!                         (time-series metrics; needs --trace-out)
//!   --profile-out FILE    write the profile JSON (per-PC histogram, taint
//!                         heatmap, syscall table, collapsed stacks) to FILE
//!   --provenance          track taint provenance; on a detection, print the
//!                         forensic chain from input byte to flagged pointer
//!   --trace-depth N       depth of the recently-retired diagnostic ring
//!   --disasm              print the program disassembly and exit
//!   --quiet               suppress the banner and statistics
//! ```
//!
//! The process exit code is the guest's exit status; detections exit 42;
//! usage, read, and build errors exit 2, including an unreadable or
//! malformed `--journal` file; `analyze` findings exit 3; a failure to
//! write a requested artifact (`--trace-out`, `--metrics-out`,
//! `--profile-out`, `--report`, `--journal-out`) exits 4 so scripts never
//! mistake lost data for success.

use std::fmt::Write as _;
use std::time::Duration;

use ptaint::{
    CampaignSpec, DetectionPolicy, Engine, ExitReason, FaultKind, Machine, NetSession,
    SyscallJournal, ToJson, TraceConfig, TraceReport, WorldConfig,
};

/// Exit code for a failure to persist a requested artifact.
pub const EXIT_ARTIFACT: i32 = 4;

/// Rows per section in the `profile` subcommand's printed report.
const PROFILE_TOP_N: usize = 10;

/// Parsed command-line options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    /// Path of the guest program source.
    pub program: String,
    /// Run the static analyzer and print the lint report instead of
    /// executing (the `analyze` subcommand).
    pub analyze: bool,
    /// Run a fault-injection campaign instead of a single execution (the
    /// `inject` subcommand).
    pub inject: bool,
    /// Run with the profiler and print the top-N report (the `profile`
    /// subcommand).
    pub profile: bool,
    /// Re-serve a recorded syscall journal instead of running against the
    /// world (the `replay` subcommand).
    pub replay: bool,
    /// Path of the journal to replay (`--journal`, replay only).
    pub journal_in: Option<String>,
    /// Record the run's syscall journal here (`--journal-out`).
    pub journal_out: Option<String>,
    /// Reboot campaign trials from `_start` instead of forking them
    /// copy-on-write from one post-boot snapshot (`--no-fork`, inject
    /// only; forking is the default and byte-identical).
    pub no_fork: bool,
    /// Write the profile JSON here (implies profile collection).
    pub profile_out: Option<String>,
    /// Interleave `metrics_snapshot` records into the JSONL stream every N
    /// retired instructions (`--metrics-interval`; needs `--trace-out`).
    pub metrics_interval: Option<u64>,
    /// Campaign seed (`--seed`, inject only).
    pub seed: Option<u64>,
    /// Campaign trial count (`--trials`, inject only).
    pub trials: Option<u64>,
    /// Restricted fault kinds (`--faults`, inject only; empty = all).
    pub fault_kinds: Vec<FaultKind>,
    /// Write the campaign JSON here instead of stdout (`--report`).
    pub report_out: Option<String>,
    /// Treat the program as assembly instead of mini-C.
    pub asm: bool,
    /// Run the peephole optimizer (mini-C only).
    pub optimize: bool,
    /// Detection policy.
    pub policy: Option<DetectionPolicy>,
    /// Execution engine (predecoded cache by default; `interp` keeps the
    /// legacy interpreter available as the differential oracle).
    pub engine: Option<Engine>,
    /// Worker threads for the `analyze` fixpoint and `inject` campaign
    /// shards (`-j` / `--jobs`).
    pub jobs: Option<usize>,
    /// Stdin bytes.
    pub stdin: Vec<u8>,
    /// Guest argv (the program name is prepended automatically).
    pub args: Vec<String>,
    /// Guest environment strings.
    pub envs: Vec<String>,
    /// Guest files: (guest path, contents).
    pub files: Vec<(String, Vec<u8>)>,
    /// Network sessions, one `Vec` of messages each.
    pub sessions: Vec<Vec<Vec<u8>>>,
    /// §5.3 annotations: (symbol, length).
    pub watches: Vec<(String, u32)>,
    /// Model the cache hierarchy.
    pub caches: bool,
    /// Use the pipeline timing model.
    pub pipeline: bool,
    /// Step budget.
    pub steps: Option<u64>,
    /// Wall-clock watchdog in milliseconds.
    pub watchdog_ms: Option<u64>,
    /// Print disassembly and exit.
    pub disasm: bool,
    /// Print the last retired instructions after the run.
    pub trace: bool,
    /// Write the JSONL event stream here.
    pub trace_out: Option<String>,
    /// Write the metrics snapshot (JSON) here.
    pub metrics_out: Option<String>,
    /// Track taint provenance and print the forensic chain on a detection.
    pub provenance: bool,
    /// Depth of the recently-retired diagnostic ring.
    pub trace_depth: Option<usize>,
    /// Suppress banner/statistics.
    pub quiet: bool,
}

/// A CLI usage error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// Reads a host file, mapping errors to usage errors.
fn read_host(path: &str) -> Result<Vec<u8>, UsageError> {
    std::fs::read(path).map_err(|e| UsageError(format!("cannot read `{path}`: {e}")))
}

/// Decodes one session-file line into message bytes.
///
/// Session files are line-oriented text, but real exploit payloads carry
/// raw bytes (addresses, NULs) that cannot survive a UTF-8 text file: the
/// escapes `\xNN` (one byte from two hex digits) and `\\` (a literal
/// backslash) express them. Any other sequence is a usage error.
fn unescape_session_line(line: &str) -> Result<Vec<u8>, UsageError> {
    let mut bytes = Vec::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            let mut buf = [0u8; 4];
            bytes.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            continue;
        }
        match chars.next() {
            Some('\\') => bytes.push(b'\\'),
            Some('x') => {
                let hi = chars.next();
                let lo = chars.next();
                let (Some(hi), Some(lo)) = (
                    hi.and_then(|c| c.to_digit(16)),
                    lo.and_then(|c| c.to_digit(16)),
                ) else {
                    return Err(UsageError(format!(
                        "bad `\\x` escape in session line `{line}` (expects two hex digits)"
                    )));
                };
                bytes.push((hi * 16 + lo) as u8);
            }
            other => {
                return Err(UsageError(format!(
                    "unknown escape `\\{}` in session line `{line}` (use \\xNN or \\\\)",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(bytes)
}

/// Parses the argument vector (without the leading program name).
///
/// # Errors
///
/// Returns a [`UsageError`] describing the offending flag.
pub fn parse_args(args: &[String]) -> Result<Options, UsageError> {
    let mut opts = Options::default();
    let mut it = args.iter().peekable();
    // `analyze`/`inject` are subcommands only in the very first argument
    // position, so a source file literally named after one stays runnable
    // (`ptaint-run ./analyze`, `ptaint-run --asm inject`).
    match args.first().map(String::as_str) {
        Some("analyze") => {
            opts.analyze = true;
            it.next();
        }
        Some("inject") => {
            opts.inject = true;
            it.next();
        }
        Some("profile") => {
            opts.profile = true;
            it.next();
        }
        Some("replay") => {
            opts.replay = true;
            it.next();
        }
        _ => {}
    }
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                 flag: &str|
     -> Result<String, UsageError> {
        it.next()
            .cloned()
            .ok_or_else(|| UsageError(format!("`{flag}` needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--asm" => opts.asm = true,
            "--optimize" => opts.optimize = true,
            "--caches" => opts.caches = true,
            "--pipeline" => opts.pipeline = true,
            "--disasm" => opts.disasm = true,
            "--trace" => opts.trace = true,
            "--quiet" => opts.quiet = true,
            "--policy" => {
                let v = value(&mut it, "--policy")?;
                opts.policy = Some(match v.as_str() {
                    "off" => DetectionPolicy::Off,
                    "control-only" | "control" => DetectionPolicy::ControlOnly,
                    "ptaint" | "full" => DetectionPolicy::PointerTaintedness,
                    other => {
                        return Err(UsageError(format!(
                            "unknown policy `{other}` (off | control-only | ptaint)"
                        )))
                    }
                });
            }
            "--engine" => {
                let v = value(&mut it, "--engine")?;
                opts.engine = Some(match v.as_str() {
                    "interp" | "interpreter" => Engine::Interp,
                    "cached" | "predecoded" => Engine::Cached,
                    other => {
                        return Err(UsageError(format!(
                            "unknown engine `{other}` (interp | cached)"
                        )))
                    }
                });
            }
            "--stdin" => {
                let path = value(&mut it, "--stdin")?;
                opts.stdin = read_host(&path)?;
            }
            "--stdin-text" => {
                opts.stdin = value(&mut it, "--stdin-text")?.into_bytes();
            }
            "--arg" => opts.args.push(value(&mut it, "--arg")?),
            "--env" => opts.envs.push(value(&mut it, "--env")?),
            "--file" => {
                let spec = value(&mut it, "--file")?;
                let (guest, host) = spec
                    .split_once('=')
                    .ok_or_else(|| UsageError("`--file` expects PATH=HOSTFILE".into()))?;
                opts.files.push((guest.to_owned(), read_host(host)?));
            }
            "--session" => {
                let path = value(&mut it, "--session")?;
                let bytes = read_host(&path)?;
                let messages = String::from_utf8_lossy(&bytes)
                    .lines()
                    .map(unescape_session_line)
                    .collect::<Result<Vec<_>, _>>()?;
                opts.sessions.push(messages);
            }
            "--watch" => {
                let spec = value(&mut it, "--watch")?;
                let (sym, len) = spec
                    .split_once(':')
                    .ok_or_else(|| UsageError("`--watch` expects SYMBOL:LEN".into()))?;
                let len: u32 = len
                    .parse()
                    .map_err(|_| UsageError(format!("bad watch length `{len}`")))?;
                opts.watches.push((sym.to_owned(), len));
            }
            "--steps" => {
                let v = value(&mut it, "--steps")?;
                opts.steps = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("bad step count `{v}`")))?,
                );
            }
            "--watchdog-ms" => {
                let v = value(&mut it, "--watchdog-ms")?;
                opts.watchdog_ms = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("bad watchdog `{v}` (milliseconds)")))?,
                );
            }
            "--seed" => {
                let v = value(&mut it, "--seed")?;
                opts.seed = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("bad seed `{v}`")))?,
                );
            }
            "--trials" => {
                let v = value(&mut it, "--trials")?;
                opts.trials = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("bad trial count `{v}`")))?,
                );
            }
            "--faults" => {
                let v = value(&mut it, "--faults")?;
                for token in v.split(',').filter(|t| !t.is_empty()) {
                    let kind = FaultKind::parse(token).ok_or_else(|| {
                        UsageError(format!(
                            "unknown fault kind `{token}` (one of: {})",
                            FaultKind::ALL.map(FaultKind::name).join(", ")
                        ))
                    })?;
                    opts.fault_kinds.push(kind);
                }
            }
            "--fork" => opts.no_fork = false,
            "--no-fork" => opts.no_fork = true,
            "--journal" => opts.journal_in = Some(value(&mut it, "--journal")?),
            "--journal-out" => opts.journal_out = Some(value(&mut it, "--journal-out")?),
            "--report" => opts.report_out = Some(value(&mut it, "--report")?),
            "--trace-out" => opts.trace_out = Some(value(&mut it, "--trace-out")?),
            "--metrics-out" => opts.metrics_out = Some(value(&mut it, "--metrics-out")?),
            "--profile-out" => opts.profile_out = Some(value(&mut it, "--profile-out")?),
            "--metrics-interval" => {
                let v = value(&mut it, "--metrics-interval")?;
                let n: u64 = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| UsageError(format!("bad metrics interval `{v}`")))?;
                opts.metrics_interval = Some(n);
            }
            "-j" | "--jobs" => {
                let v = value(&mut it, "--jobs")?;
                opts.jobs = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| UsageError(format!("bad job count `{v}`")))?,
                );
            }
            "--provenance" => opts.provenance = true,
            "--trace-depth" => {
                let v = value(&mut it, "--trace-depth")?;
                opts.trace_depth = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("bad trace depth `{v}`")))?,
                );
            }
            // The attached spelling `-j4`, matching the make/cargo idiom.
            flag if flag.len() > 2 && flag.starts_with("-j") => {
                let v = &flag[2..];
                opts.jobs = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| UsageError(format!("bad job count `{v}`")))?,
                );
            }
            flag if flag.starts_with("--") => {
                return Err(UsageError(format!("unknown flag `{flag}`")));
            }
            path => {
                if !opts.program.is_empty() {
                    return Err(UsageError(format!("unexpected extra argument `{path}`")));
                }
                opts.program = path.to_owned();
            }
        }
    }
    if opts.program.is_empty() {
        return Err(UsageError(
            "no program given (usage: ptaint-run prog.c [options])".into(),
        ));
    }
    if opts.metrics_interval.is_some() && opts.trace_out.is_none() {
        return Err(UsageError(
            "`--metrics-interval` needs `--trace-out FILE` (the periodic snapshots land in the JSONL stream)".into(),
        ));
    }
    if (opts.profile || opts.profile_out.is_some()) && opts.pipeline {
        return Err(UsageError(
            "`--pipeline` cannot be profiled (the profiler rides the functional engine)".into(),
        ));
    }
    if opts.replay && opts.journal_in.is_none() {
        return Err(UsageError(
            "`replay` needs `--journal FILE` (a journal recorded with `--journal-out`)".into(),
        ));
    }
    if opts.journal_in.is_some() && !opts.replay {
        return Err(UsageError(
            "`--journal` only applies to the `replay` subcommand".into(),
        ));
    }
    if opts.journal_out.is_some()
        && (opts.analyze
            || opts.inject
            || opts.replay
            || opts.profile
            || opts.profile_out.is_some()
            || opts.pipeline
            || opts.disasm
            || opts.trace_out.is_some()
            || opts.metrics_out.is_some())
    {
        return Err(UsageError(
            "`--journal-out` records a plain run (no subcommand, --pipeline, --disasm, \
             --profile-out, --trace-out, or --metrics-out)"
                .into(),
        ));
    }
    Ok(opts)
}

/// Builds the machine described by `opts` from an in-memory source.
///
/// # Errors
///
/// Returns a [`UsageError`] when the program fails to build or a watched
/// symbol does not exist.
pub fn build_machine(opts: &Options, source: &str) -> Result<Machine, UsageError> {
    let mut machine = if opts.asm {
        Machine::from_asm(source)
    } else if opts.optimize {
        Machine::from_c_optimized(source)
    } else {
        Machine::from_c(source)
    }
    .map_err(|e| UsageError(format!("build failed: {e}")))?;

    let mut world = WorldConfig::new().stdin(opts.stdin.clone());
    let mut argv = vec![opts.program.clone()];
    argv.extend(opts.args.iter().cloned());
    world = world.args(argv);
    for env in &opts.envs {
        world = world.env(env);
    }
    for (path, contents) in &opts.files {
        world = world.file(path.clone(), contents.clone());
    }
    for session in &opts.sessions {
        world = world.session(NetSession::new(session.clone()));
    }
    machine = machine.world(world);
    if let Some(policy) = opts.policy {
        machine = machine.policy(policy);
    }
    if let Some(engine) = opts.engine {
        machine = machine.engine(engine);
    }
    if opts.caches {
        machine = machine.hierarchy(ptaint::HierarchyConfig::two_level());
    }
    if let Some(steps) = opts.steps {
        machine = machine.step_limit(steps);
    }
    if let Some(ms) = opts.watchdog_ms {
        machine = machine.watchdog(Duration::from_millis(ms));
    }
    if let Some(depth) = opts.trace_depth {
        machine = machine.trace_depth(depth);
    }
    for (sym, len) in &opts.watches {
        if machine.image().symbol(sym).is_none() {
            return Err(UsageError(format!("no symbol `{sym}` to watch")));
        }
        machine = machine.taint_watch_symbol(sym, *len);
    }
    if opts.no_fork {
        machine = machine.fork_trials(false);
    }
    Ok(machine)
}

/// Runs the machine and renders the report. Returns `(report, exit_code)`.
///
/// With `--trace-out` / `--metrics-out` / `--report` the collected
/// artifacts are written to the named host files; a write failure is
/// reported in the text output and forces exit code [`EXIT_ARTIFACT`], so
/// lost data is never mistaken for success.
#[must_use]
pub fn run_machine(opts: &Options, machine: &Machine) -> (String, i32) {
    if opts.analyze {
        return run_analyze_cli(opts, machine);
    }
    if opts.inject {
        return run_campaign_cli(opts, machine);
    }
    if opts.replay {
        return run_replay_cli(opts, machine);
    }
    if opts.disasm {
        return (ptaint::disassemble(machine.image()), 0);
    }
    let trace_cfg = TraceConfig {
        jsonl: opts.trace_out.is_some(),
        metrics: opts.metrics_out.is_some(),
        provenance: opts.provenance,
        metrics_interval: opts.metrics_interval,
        ..TraceConfig::default()
    };
    let profiling = opts.profile || opts.profile_out.is_some();
    let mut report = String::new();
    let mut trace = Vec::new();
    let mut trace_report = TraceReport::default();
    let mut profile = None;
    let mut journal = None;
    let (outcome, pipeline) = if opts.pipeline {
        let (o, p) = machine.run_pipelined();
        (o, Some(p))
    } else if profiling {
        let (o, t, r, p) = machine.run_profile(&trace_cfg);
        trace = t;
        trace_report = r;
        profile = Some(p);
        (o, None)
    } else if opts.journal_out.is_some() {
        let (o, j) = machine.record();
        journal = Some(j);
        (o, None)
    } else if trace_cfg.any() {
        let (o, t, r) = machine.run_with_trace(&trace_cfg);
        trace = t;
        trace_report = r;
        (o, None)
    } else {
        // The retired-instruction ring is maintained regardless, so always
        // collect the tail: it backs `--trace` and the alert report.
        let (o, t) = machine.run_traced();
        trace = t;
        (o, None)
    };
    let detected = matches!(outcome.reason, ExitReason::Security(_));

    if !outcome.stdout.is_empty() {
        report.push_str(&String::from_utf8_lossy(&outcome.stdout));
        if !report.ends_with('\n') {
            report.push('\n');
        }
    }
    for (i, transcript) in outcome.transcripts.iter().enumerate() {
        if !transcript.is_empty() {
            let _ = writeln!(
                report,
                "--- session {i} transcript ---\n{}",
                String::from_utf8_lossy(transcript)
            );
        }
    }
    // The execution tail is printed when asked for (`--trace`) and, so the
    // detection report stands on its own, whenever an alert fired.
    if (opts.trace || (detected && !opts.quiet)) && !trace.is_empty() {
        let _ = writeln!(report, "--- last {} instructions ---", trace.len());
        for line in &trace {
            let _ = writeln!(report, "{line}");
        }
    }
    if !opts.quiet {
        let _ = writeln!(report, "--- outcome: {}", outcome.reason);
        let _ = writeln!(report, "--- stats: {}", outcome.stats);
        if let Some(p) = pipeline {
            let _ = writeln!(
                report,
                "--- pipeline: {} cycles, IPC {:.3}, {} load-use stalls, {} flushes",
                p.cycles,
                p.ipc(),
                p.load_use_stalls,
                p.control_flushes
            );
        }
    }
    if let Some(chain) = &trace_report.forensic {
        let _ = writeln!(report, "--- provenance ---\n{chain}");
    } else if opts.provenance && detected {
        let _ = writeln!(report, "--- provenance: no chain reconstructed ---");
    }
    // The `profile` subcommand's reason to exist: the human top-N report.
    if opts.profile && !opts.quiet {
        if let Some(p) = &profile {
            report.push_str(&p.render_text(PROFILE_TOP_N));
        }
    }
    let mut artifact_failed = false;
    if let Some(path) = &opts.profile_out {
        let json = profile
            .as_ref()
            .map(|p| p.to_json() + "\n")
            .unwrap_or_default();
        match std::fs::write(path, &json) {
            Ok(()) if !opts.quiet => {
                let _ = writeln!(report, "--- profile: wrote {path}");
            }
            Ok(()) => {}
            Err(e) => {
                let _ = writeln!(report, "--- profile: cannot write `{path}`: {e}");
                artifact_failed = true;
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        let bytes = trace_report.jsonl.take().unwrap_or_default();
        let events = bytes.iter().filter(|&&b| b == b'\n').count();
        match std::fs::write(path, &bytes) {
            Ok(()) if !opts.quiet => {
                let _ = writeln!(report, "--- trace: wrote {events} events to {path}");
            }
            Ok(()) => {}
            Err(e) => {
                let _ = writeln!(report, "--- trace: cannot write `{path}`: {e}");
                artifact_failed = true;
            }
        }
    }
    if let Some(path) = &opts.metrics_out {
        let json = trace_report
            .metrics
            .as_ref()
            .map(|m| m.to_json() + "\n")
            .unwrap_or_default();
        match std::fs::write(path, &json) {
            Ok(()) if !opts.quiet => {
                let _ = writeln!(report, "--- metrics: wrote {path}");
            }
            Ok(()) => {}
            Err(e) => {
                let _ = writeln!(report, "--- metrics: cannot write `{path}`: {e}");
                artifact_failed = true;
            }
        }
    }
    if let Some(path) = &opts.journal_out {
        let journal = journal.unwrap_or_default();
        let calls = journal.len();
        match std::fs::write(path, journal.to_text()) {
            Ok(()) if !opts.quiet => {
                let _ = writeln!(report, "--- journal: wrote {calls} calls to {path}");
            }
            Ok(()) => {}
            Err(e) => {
                let _ = writeln!(report, "--- journal: cannot write `{path}`: {e}");
                artifact_failed = true;
            }
        }
    }
    let code = if artifact_failed {
        EXIT_ARTIFACT
    } else {
        match outcome.reason {
            ExitReason::Exited(status) => status,
            ExitReason::Security(_) => 42,
            _ => 1,
        }
    };
    (report, code)
}

/// The `analyze` subcommand: prints the static lint report. Findings
/// exit 3.
fn run_analyze_cli(opts: &Options, machine: &Machine) -> (String, i32) {
    let image = machine.image();
    let analysis = match opts.jobs {
        Some(jobs) => ptaint::analyze_with(image, jobs),
        None => ptaint::analyze(image),
    };
    let code = i32::from(analysis.stats.flagged_sites > 0) * 3;
    (ptaint::render_report(image, &analysis), code)
}

/// The `inject` subcommand: runs a seeded campaign and emits the JSON
/// report (to `--report FILE`, or into the text output).
fn run_campaign_cli(opts: &Options, machine: &Machine) -> (String, i32) {
    let spec = CampaignSpec::new(opts.seed.unwrap_or(1), opts.trials.unwrap_or(32))
        .kinds(opts.fault_kinds.clone());
    let jobs = opts.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let campaign = machine.run_campaign_jobs(&spec, jobs);
    let json = campaign.to_json() + "\n";

    let mut report = String::new();
    if !opts.quiet {
        let counts = ptaint::OutcomeClass::ALL
            .iter()
            .map(|&c| format!("{} {}", campaign.count(c), c.name()))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            report,
            "--- campaign: seed {}, {} trials over `{}`: {counts}",
            campaign.seed, campaign.trials, opts.program
        );
        let _ = writeln!(
            report,
            "--- baseline: {} ({} taint-delivering calls)",
            campaign.baseline_reason, campaign.baseline_io_calls
        );
    }
    let mut code = 0;
    match &opts.report_out {
        Some(path) => match std::fs::write(path, &json) {
            Ok(()) if !opts.quiet => {
                let _ = writeln!(report, "--- report: wrote {path}");
            }
            Ok(()) => {}
            Err(e) => {
                let _ = writeln!(report, "--- report: cannot write `{path}`: {e}");
                code = EXIT_ARTIFACT;
            }
        },
        None => report.push_str(&json),
    }
    (report, code)
}

/// The `replay` subcommand: re-serves a recorded journal against the
/// built image and reports the retraced outcome. An unreadable or
/// malformed journal file is a read error (exit 2), matching the other
/// input files; a divergence is an abnormal stop (exit 1) whose outcome
/// line names the call where the guest left the recording.
fn run_replay_cli(opts: &Options, machine: &Machine) -> (String, i32) {
    let path = opts.journal_in.as_deref().unwrap_or_default();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return (format!("cannot read journal `{path}`: {e}\n"), 2),
    };
    let journal = match SyscallJournal::from_text(&text) {
        Ok(j) => j,
        Err(e) => return (format!("bad journal `{path}`: {e}\n"), 2),
    };
    let calls = journal.len();
    let outcome = machine.replay(journal);
    let mut report = String::new();
    if !opts.quiet {
        let _ = writeln!(report, "--- replay: {calls} journaled calls from {path}");
        let _ = writeln!(report, "--- outcome: {}", outcome.reason);
        let _ = writeln!(report, "--- stats: {}", outcome.stats);
    }
    let code = match outcome.reason {
        ExitReason::Exited(status) => status,
        ExitReason::Security(_) => 42,
        _ => 1,
    };
    (report, code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, UsageError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_args(&owned)
    }

    #[test]
    fn parses_a_full_command_line() {
        let opts = parse(&[
            "prog.c",
            "--policy",
            "control-only",
            "--stdin-text",
            "hello",
            "--arg",
            "-g",
            "--arg",
            "123",
            "--env",
            "HOME=/root",
            "--watch",
            "uid:4",
            "--caches",
            "--pipeline",
            "--steps",
            "1000",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(opts.program, "prog.c");
        assert_eq!(opts.policy, Some(DetectionPolicy::ControlOnly));
        assert_eq!(opts.stdin, b"hello");
        assert_eq!(opts.args, vec!["-g", "123"]);
        assert_eq!(opts.envs, vec!["HOME=/root"]);
        assert_eq!(opts.watches, vec![("uid".to_owned(), 4)]);
        assert!(opts.caches && opts.pipeline && opts.quiet);
        assert_eq!(opts.steps, Some(1000));
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["a.c", "b.c"]).is_err());
        assert!(parse(&["a.c", "--policy"]).is_err());
        assert!(parse(&["a.c", "--policy", "what"]).is_err());
        assert!(parse(&["a.c", "--watch", "nocolon"]).is_err());
        assert!(parse(&["a.c", "--bogus"]).is_err());
        assert!(parse(&["a.c", "--steps", "NaN"]).is_err());
        assert!(parse(&["a.c", "--engine"]).is_err());
        assert!(parse(&["a.c", "--engine", "jit"]).is_err());
        // There is no check elision and no proof store to configure.
        assert!(parse(&["a.c", "--elide-checks"]).is_err());
        assert!(parse(&["a.c", "--analysis-cache", "d"]).is_err());
        assert!(parse(&["analyze", "a.c", "--emit-proofs"]).is_err());
    }

    #[test]
    fn engine_flag_selects_the_engine() {
        assert_eq!(parse(&["a.c"]).unwrap().engine, None);
        assert_eq!(
            parse(&["a.c", "--engine", "interp"]).unwrap().engine,
            Some(Engine::Interp)
        );
        assert_eq!(
            parse(&["a.c", "--engine", "cached"]).unwrap().engine,
            Some(Engine::Cached)
        );
    }

    #[test]
    fn session_lines_decode_hex_escapes() {
        assert_eq!(unescape_session_line("GET /x").unwrap(), b"GET /x");
        assert_eq!(
            unescape_session_line("A\\x00\\xd0\\x01B\\\\").unwrap(),
            [b'A', 0x00, 0xd0, 0x01, b'B', b'\\']
        );
        assert!(unescape_session_line("\\x2").is_err());
        assert!(unescape_session_line("\\q").is_err());
        assert!(unescape_session_line("trailing\\").is_err());
    }

    #[test]
    fn end_to_end_hello() {
        let opts = parse(&["hello.c", "--quiet"]).unwrap();
        let machine = build_machine(
            &opts,
            r#"int main() { printf("hi from cli\n"); return 3; }"#,
        )
        .unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(report, "hi from cli\n");
        assert_eq!(code, 3);
    }

    #[test]
    fn end_to_end_detection_exits_42() {
        let opts = parse(&["vuln.c", "--quiet", "--stdin-text"]).unwrap_err();
        assert!(opts.0.contains("needs a value"));

        let opts = parse(&["vuln.c"]).unwrap();
        let mut opts = opts;
        opts.stdin = vec![b'a'; 24];
        let machine = build_machine(
            &opts,
            "void f() { char b[10]; scanf(\"%s\", b); } int main() { f(); return 0; }",
        )
        .unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 42);
        assert!(report.contains("SECURITY ALERT"), "{report}");
        assert!(report.contains("jr $31"), "{report}");
    }

    #[test]
    fn watch_flag_protects_symbols() {
        let mut opts = parse(&["auth.c", "--watch", "authenticated:4", "--quiet"]).unwrap();
        opts.stdin = {
            let mut v = vec![b'x'; 16];
            v.extend_from_slice(b"AAAA\n");
            v
        };
        let source = "char pw[16]; int authenticated;
             int main() { gets(pw); if (authenticated) printf(\"in\\n\"); return 0; }";
        let machine = build_machine(&opts, source).unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 42, "{report}");

        // Unknown symbol is a usage error.
        let opts = parse(&["auth.c", "--watch", "nope:4"]).unwrap();
        assert!(build_machine(&opts, source).is_err());
    }

    #[test]
    fn analyze_subcommand_prints_the_lint_report() {
        let opts = parse(&["analyze", "p.c"]).unwrap();
        assert!(opts.analyze);
        assert_eq!(opts.program, "p.c");

        let machine = build_machine(&opts, "int main() { return 0; }").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 0, "{report}");
        assert!(report.contains("ptaint-analyze report"), "{report}");

        // A provable tainted dereference is reported and exits 3.
        let machine = build_machine(
            &opts,
            r#"int main() {
                char buf[8];
                read(0, buf, 4);
                int *p = (int *)(buf[0]);
                return *p;
            }"#,
        )
        .unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 3, "{report}");
    }

    #[test]
    fn jobs_flag_parses_all_spellings() {
        assert_eq!(parse(&["p.c"]).unwrap().jobs, None);
        assert_eq!(parse(&["p.c", "-j", "4"]).unwrap().jobs, Some(4));
        assert_eq!(parse(&["p.c", "--jobs", "2"]).unwrap().jobs, Some(2));
        assert_eq!(parse(&["p.c", "-j8"]).unwrap().jobs, Some(8));
        assert!(parse(&["p.c", "-j", "0"]).is_err());
        assert!(parse(&["p.c", "-j0"]).is_err());
        assert!(parse(&["p.c", "-jx"]).is_err());
        assert!(parse(&["p.c", "--jobs", "NaN"]).is_err());
    }

    #[test]
    fn analyze_jobs_output_is_thread_count_independent() {
        let source = r#"int main() {
            char buf[8];
            read(0, buf, 4);
            int *p = (int *)(buf[0]);
            return *p;
        }"#;
        let mut one = parse(&["analyze", "p.c", "-j1"]).unwrap();
        let machine = build_machine(&one, source).unwrap();
        let (report_one, code_one) = run_machine(&one, &machine);
        one.jobs = Some(4);
        let (report_four, code_four) = run_machine(&one, &machine);
        assert_eq!(code_one, 3, "{report_one}");
        assert_eq!(code_four, 3);
        assert_eq!(
            report_one, report_four,
            "-j1 and -j4 must render byte-identical reports"
        );
    }

    #[test]
    fn analyze_keyword_is_positional_only() {
        // Only the first argument is the subcommand keyword: later
        // positionals named `analyze` are program paths.
        let opts = parse(&["--asm", "analyze"]).unwrap();
        assert!(!opts.analyze);
        assert_eq!(opts.program, "analyze");

        // The `./` escape hatch works even in the first position.
        let opts = parse(&["./analyze"]).unwrap();
        assert!(!opts.analyze);
        assert_eq!(opts.program, "./analyze");

        // Flags may precede the program after the keyword.
        let opts = parse(&["analyze", "--asm", "p.s"]).unwrap();
        assert!(opts.analyze && opts.asm);
        assert_eq!(opts.program, "p.s");

        // A bare `analyze` still reports the missing program.
        assert!(parse(&["analyze"]).unwrap_err().0.contains("no program"));
    }

    #[test]
    fn disasm_mode_prints_assembly() {
        let opts = parse(&["p.c", "--disasm"]).unwrap();
        let machine = build_machine(&opts, "int main() { return 0; }").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 0);
        assert!(report.contains("<main>:"));
    }

    #[test]
    fn pipeline_mode_reports_cycles() {
        let opts = parse(&["p.c", "--pipeline"]).unwrap();
        let machine = build_machine(&opts, "int main() { return 0; }").unwrap();
        let (report, _) = run_machine(&opts, &machine);
        assert!(report.contains("--- pipeline:"), "{report}");
    }

    #[test]
    fn inject_subcommand_parses_campaign_flags() {
        let opts = parse(&[
            "inject",
            "p.c",
            "--seed",
            "7",
            "--trials",
            "4",
            "--faults",
            "taint_clear,eintr",
            "--report",
            "out.json",
        ])
        .unwrap();
        assert!(opts.inject);
        assert_eq!(opts.seed, Some(7));
        assert_eq!(opts.trials, Some(4));
        assert_eq!(
            opts.fault_kinds,
            vec![FaultKind::TaintClear, FaultKind::Eintr]
        );
        assert_eq!(opts.report_out.as_deref(), Some("out.json"));

        assert!(parse(&["inject", "p.c", "--faults", "cosmic_ray"]).is_err());
        assert!(parse(&["p.c", "--seed", "NaN"]).is_err());
        assert!(parse(&["p.c", "--watchdog-ms", "x"]).is_err());
        // Positional-only, like `analyze`.
        let opts = parse(&["--asm", "inject"]).unwrap();
        assert!(!opts.inject);
        assert_eq!(opts.program, "inject");
    }

    #[test]
    fn inject_campaign_runs_and_is_deterministic() {
        let mut opts =
            parse(&["inject", "p.c", "--seed", "3", "--trials", "4", "--quiet"]).unwrap();
        opts.stdin = b"abcd".to_vec();
        let machine = build_machine(
            &opts,
            r#"int main() {
                char b[8];
                read(0, b, 8);
                return 0;
            }"#,
        )
        .unwrap();
        let (a, code_a) = run_machine(&opts, &machine);
        let (b, code_b) = run_machine(&opts, &machine);
        assert_eq!(code_a, 0);
        assert_eq!(code_b, 0);
        assert_eq!(a, b, "same seed must give byte-identical output");
        assert!(a.contains("\"seed\":3"), "{a}");
        assert!(a.contains("\"records\":["), "{a}");
    }

    #[test]
    fn profile_subcommand_prints_the_report() {
        let opts = parse(&["profile", "p.c"]).unwrap();
        assert!(opts.profile);
        assert_eq!(opts.program, "p.c");

        let machine = build_machine(&opts, "int main() { return 0; }").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 0, "{report}");
        assert!(report.contains("--- profile:"), "{report}");
        assert!(report.contains("hot blocks"), "{report}");
        assert!(report.contains("main"), "{report}");

        // Positional-only, like `analyze` and `inject`.
        let opts = parse(&["--asm", "profile"]).unwrap();
        assert!(!opts.profile);
        assert_eq!(opts.program, "profile");
    }

    #[test]
    fn profile_out_writes_deterministic_json() {
        let dir = std::env::temp_dir().join("ptaint-cli-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        let mut opts = parse(&["p.c", "--quiet"]).unwrap();
        opts.profile_out = Some(path.to_string_lossy().into_owned());
        let machine = build_machine(
            &opts,
            "int f(int x) { return x + 1; } int main() { return f(4); }",
        )
        .unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 5, "{report}");
        let first = std::fs::read(&path).unwrap();
        let (_, code2) = run_machine(&opts, &machine);
        assert_eq!(code2, 5);
        let second = std::fs::read(&path).unwrap();
        assert_eq!(first, second, "profile JSON must be byte-deterministic");
        let text = String::from_utf8(first).unwrap();
        assert!(text.starts_with("{\"steps\":"), "{text}");
        assert!(text.contains("\"symbol\":\"main\""), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_interval_needs_trace_out_and_rejects_zero() {
        assert!(parse(&["p.c", "--metrics-interval", "100"])
            .unwrap_err()
            .0
            .contains("--trace-out"));
        assert!(parse(&["p.c", "--metrics-interval", "0", "--trace-out", "t"]).is_err());
        assert!(parse(&["p.c", "--metrics-interval", "x", "--trace-out", "t"]).is_err());
        let opts = parse(&["p.c", "--metrics-interval", "512", "--trace-out", "t.jsonl"]).unwrap();
        assert_eq!(opts.metrics_interval, Some(512));

        // Profiling the pipeline timing model is a usage error.
        assert!(parse(&["profile", "p.c", "--pipeline"]).is_err());
        assert!(parse(&["p.c", "--pipeline", "--profile-out", "f"]).is_err());
    }

    #[test]
    fn artifact_write_failures_exit_4() {
        // Campaign report into a directory that does not exist.
        let mut opts = parse(&[
            "inject",
            "p.c",
            "--trials",
            "1",
            "--report",
            "/nonexistent-dir/r.json",
        ])
        .unwrap();
        opts.quiet = true;
        let machine = build_machine(&opts, "int main() { return 0; }").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, EXIT_ARTIFACT, "{report}");
        assert!(report.contains("cannot write"), "{report}");

        // Trace stream into an unwritable path: exit 4, not the guest's 0.
        let opts2 = {
            let mut o =
                parse(&["p.c", "--quiet", "--trace-out", "/nonexistent-dir/t.jsonl"]).unwrap();
            o.quiet = true;
            o
        };
        let machine2 = build_machine(&opts2, "int main() { return 0; }").unwrap();
        let (report2, code2) = run_machine(&opts2, &machine2);
        assert_eq!(code2, EXIT_ARTIFACT, "{report2}");

        // Profile JSON into an unwritable path: same contract.
        let opts3 = {
            let mut o = parse(&["p.c", "--profile-out", "/nonexistent-dir/p.json"]).unwrap();
            o.quiet = true;
            o
        };
        let machine3 = build_machine(&opts3, "int main() { return 0; }").unwrap();
        let (report3, code3) = run_machine(&opts3, &machine3);
        assert_eq!(code3, EXIT_ARTIFACT, "{report3}");
        assert!(report3.contains("cannot write"), "{report3}");
    }

    #[test]
    fn replay_subcommand_parses_and_validates() {
        let opts = parse(&["replay", "p.c", "--journal", "j.txt"]).unwrap();
        assert!(opts.replay);
        assert_eq!(opts.program, "p.c");
        assert_eq!(opts.journal_in.as_deref(), Some("j.txt"));

        // `replay` without a journal, and `--journal` outside `replay`,
        // are usage errors.
        assert!(parse(&["replay", "p.c"])
            .unwrap_err()
            .0
            .contains("--journal"));
        assert!(parse(&["p.c", "--journal", "j.txt"]).is_err());
        // Positional-only, like the other subcommands.
        let opts = parse(&["--asm", "replay"]).unwrap();
        assert!(!opts.replay);
        assert_eq!(opts.program, "replay");
    }

    #[test]
    fn journal_out_is_a_plain_run_artifact() {
        assert!(parse(&["p.c", "--journal-out", "j.txt", "--pipeline"]).is_err());
        assert!(parse(&["p.c", "--journal-out", "j.txt", "--trace-out", "t"]).is_err());
        assert!(parse(&["inject", "p.c", "--journal-out", "j.txt"]).is_err());
        assert!(parse(&["analyze", "p.c", "--journal-out", "j.txt"]).is_err());
        let opts = parse(&["p.c", "--journal-out", "j.txt"]).unwrap();
        assert_eq!(opts.journal_out.as_deref(), Some("j.txt"));
    }

    #[test]
    fn fork_flags_toggle_campaign_forking() {
        assert!(!parse(&["inject", "p.c"]).unwrap().no_fork);
        assert!(!parse(&["inject", "p.c", "--fork"]).unwrap().no_fork);
        assert!(parse(&["inject", "p.c", "--no-fork"]).unwrap().no_fork);

        // The escape hatch changes the mechanism, never the report.
        let mut forked =
            parse(&["inject", "p.c", "--seed", "3", "--trials", "4", "--quiet"]).unwrap();
        forked.stdin = b"abcd".to_vec();
        let mut rebooted = forked.clone();
        rebooted.no_fork = true;
        let source = r#"int main() {
            char b[8];
            read(0, b, 8);
            return 0;
        }"#;
        let (a, _) = run_machine(&forked, &build_machine(&forked, source).unwrap());
        let (b, _) = run_machine(&rebooted, &build_machine(&rebooted, source).unwrap());
        assert_eq!(
            a, b,
            "--no-fork must reproduce the forked report byte-for-byte"
        );
    }

    #[test]
    fn record_then_replay_round_trips_through_the_cli() {
        let dir = std::env::temp_dir().join("ptaint-cli-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let source = r#"int main() {
            char b[16];
            int n = read(0, b, 15);
            write(1, b, n);
            return 6;
        }"#;

        let mut rec = parse(&["p.c", "--quiet"]).unwrap();
        rec.journal_out = Some(path.to_string_lossy().into_owned());
        rec.stdin = b"replay me".to_vec();
        let (report, code) = run_machine(&rec, &build_machine(&rec, source).unwrap());
        assert_eq!(code, 6, "{report}");
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .starts_with("ptaint-journal v1"));

        // Replay with no stdin attached: the journal re-serves the input.
        let rep = {
            let mut o = parse(&["replay", "p.c", "--journal", "x"]).unwrap();
            o.journal_in = Some(path.to_string_lossy().into_owned());
            o
        };
        let (report, code) = run_machine(&rep, &build_machine(&rep, source).unwrap());
        assert_eq!(code, 6, "{report}");
        assert!(report.contains("--- replay:"), "{report}");

        // A different program diverges from the journal: abnormal stop.
        let other = "int main() { printf(\"hi\\n\"); return 0; }";
        let (report, code) = run_machine(&rep, &build_machine(&rep, other).unwrap());
        assert_eq!(code, 1, "{report}");
        assert!(report.contains("replay diverged"), "{report}");

        // Unreadable and malformed journals are read errors (exit 2).
        let missing = {
            let mut o = rep.clone();
            o.journal_in = Some("/nonexistent-dir/j.txt".into());
            o
        };
        let (report, code) = run_machine(&missing, &build_machine(&missing, source).unwrap());
        assert_eq!(code, 2, "{report}");
        let garbled = dir.join("garbled.journal");
        std::fs::write(&garbled, "not a journal\n").unwrap();
        let bad = {
            let mut o = rep.clone();
            o.journal_in = Some(garbled.to_string_lossy().into_owned());
            o
        };
        let (report, code) = run_machine(&bad, &build_machine(&bad, source).unwrap());
        assert_eq!(code, 2, "{report}");
        assert!(report.contains("bad journal"), "{report}");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&garbled);
    }

    #[test]
    fn journal_write_failures_exit_4() {
        let mut opts = parse(&["p.c", "--quiet"]).unwrap();
        opts.journal_out = Some("/nonexistent-dir/j.txt".into());
        let machine = build_machine(&opts, "int main() { return 0; }").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, EXIT_ARTIFACT, "{report}");
        assert!(report.contains("cannot write"), "{report}");
    }

    #[test]
    fn watchdog_flag_reaches_the_run() {
        let mut opts = parse(&["p.s", "--asm", "--watchdog-ms", "10"]).unwrap();
        opts.quiet = true;
        let machine = build_machine(&opts, "main: b main").unwrap();
        let (report, code) = run_machine(&opts, &machine);
        assert_eq!(code, 1, "{report}");
    }
}
