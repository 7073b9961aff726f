//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <spec|attacks|campaign|lint> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process and one thread drive a closed loop with a single client:
//! the next session starts when the previous one has finished. A workload
//! is a fixed mix of session types; one *pass* runs every type of the mix
//! once, in an order drawn from the seed. The loop runs whole passes until
//! `--seconds` have gone by, so every run measures the same mix and the
//! ranks of the session-time percentiles fall on the same session types.
//! A run also measures at least the workload's [`Workload::min_passes`],
//! and the tail percentile is fixed by that count rather than by how many
//! sessions a run happened to finish: on a slower host the tail is still
//! the same percentile, and still inside the same session type.
//! Set-up (building images, calibrating payloads, loading the expected
//! outputs) runs once; a check that the traced build path gives the same
//! images as `ptaint_guest::build` and a pass over the whole mix in a fixed
//! order follow, so every seed starts measuring from the same heap. None of
//! it is timed. Instead, set-up runs again between sessions every
//! [`SETUP_EVERY_S`] of the measurement, for [`SETUP_SLICE_S`] and at least
//! once: they sample the host throughout the run, as the sessions do.
//! `setup_s` is the median, over windows of [`SETUP_WINDOW_S`], of the best
//! set-up time in each window, for the reason session figures use best
//! times (below). Neither session times nor pass times include set-ups.
//!
//! The end-to-end session figures charge every session the best time its
//! work took in the run ([`Phase::best_ms`]): the work is deterministic, so
//! what its runs differ by is what other tenants of a shared host cost them.
//! `session_ms_p50` and `session_ms_tail` are percentiles of those times,
//! each one session type's best time, and `sessions_per_s` is the rate of a
//! pass at them. The summary line also gives both percentiles as measured.
//!
//! Every session's output is checked (see each workload's module), and the
//! per-layer counts of every pass must repeat exactly on the passes that
//! share its inputs: every pass of a run, traced or not, unless the
//! workload says otherwise ([`Workload::input_group`]). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.
//!
//! With `--trace 1` every second pass records spans around every call the
//! benchmark makes into a layer (see `calls.rs`). Spans are written to
//! `perfbench/out/` when the run ends; per-layer times come from the traced
//! passes, and `spans.overhead_pct` compares their throughput with the
//! untraced passes'. End-to-end numbers come only from untraced runs.

mod attacks;
mod calls;
mod campaign;
mod lint;
mod report;
mod spans;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calls::Counts;
use spans::Tracer;

/// The repository's pinned campaign and analysis counts.
const TREND_JSON: &str = include_str!("../../TREND.json");

/// TREND.json, parsed.
pub fn trend() -> Result<ptaint_bench::json::Value, String> {
    ptaint_bench::json::Value::parse(TREND_JSON).map_err(|e| format!("TREND.json: {e}"))
}

/// How often set-up runs again during the measurement, and for how long
/// each time (at least once). Host speed on a shared machine changes from
/// second to second, and set-up (mostly compiling) feels it more than the
/// sessions do, so set-up is sampled every half second rather than once a
/// pass (a lint pass lasts about 2.5 s).
const SETUP_EVERY_S: f64 = 0.5;
const SETUP_SLICE_S: f64 = 0.02;

/// The windows of the measurement whose best set-up times `setup_s` takes
/// the median of: eight or more samples each, and about ten a run.
const SETUP_WINDOW_S: f64 = 4.0;

const USAGE: &str = "usage: perfbench --workload <spec|attacks|campaign|lint> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// A fixed mix of session types, run pass after pass.
pub trait Workload {
    /// Session types in the mix.
    fn mix_len(&self) -> usize;

    /// The input group of pass `pass`. Passes of one group run the same
    /// sessions on the same inputs, so their counts must be identical. A
    /// fixed mix has one group for the whole run.
    fn input_group(&self, _pass: u64) -> u64 {
        0
    }

    /// Passes every run measures, however slow the host. They fix the tail
    /// percentile (see [`stats::tail_percentile`]).
    fn min_passes(&self) -> u64;

    /// Runs session type `item` of pass `pass`, adding its per-layer counts
    /// to `counts`. Returns the work done, in the unit of
    /// [`Workload::work_metric`] (times its scale), or why the session's
    /// output was wrong.
    fn session(
        &mut self,
        pass: u64,
        item: usize,
        tr: &Tracer,
        counts: &mut Counts,
    ) -> Result<u64, String>;

    /// The workload's own throughput metric, when it has one besides
    /// `sessions_per_s`: its name and the work units per metric unit.
    fn work_metric(&self) -> Option<(&'static str, f64)>;

    /// What session type `item` runs, for the summary line.
    fn item_name(&self, item: usize) -> String;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: match trace.unwrap_or(0) {
                0 => false,
                1 => true,
                t => return Err(format!("--trace must be 0 or 1, got {t}")),
            },
        })
    }
}

fn setup(
    name: &str,
    seed: u64,
    tr: &Tracer,
    checks: &mut Vec<String>,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "spec" => Box::new(spec::Spec::setup(tr)?),
        "attacks" => Box::new(attacks::Attacks::setup(tr)?),
        "campaign" => Box::new(campaign::Campaign::setup(seed, tr, checks)?),
        "lint" => Box::new(lint::Lint::setup()?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// The work of a session: its pass's input group and its session type, the
/// first item of the mix with its name (copies of one program in a mix are
/// one type).
pub type Work = (u64, usize);

/// What the untraced (or the traced) passes of a run produced.
#[derive(Default)]
pub struct Phase {
    /// Every session: the work it did and its time, in ms.
    pub session_ms: Vec<(Work, f64)>,
    /// Per pass: sessions per second and work units per second, wall time.
    pub pass_rates: Vec<(f64, f64)>,
    /// Per pass: its input group and its counts.
    pub counts: Vec<(u64, Counts)>,
    pub attempted: u64,
    pub failed: u64,
    pub seconds: f64,
}

impl Phase {
    /// The best (lowest) time, in ms, of each work a session did in the run.
    ///
    /// Sessions are deterministic: the same work costs the same on every
    /// pass, so what varies between its runs is what other tenants of a
    /// shared host cost it, and that only ever adds time. The best time is
    /// the estimate of the work's own cost least moved by them. On a 2-vCPU
    /// shared host, a session type's median time ranged over ±18% between
    /// runs of the same code, and its best time over ±4%.
    pub fn best_ms(&self) -> BTreeMap<Work, f64> {
        stats::best_by_key(self.session_ms.iter().copied())
    }

    /// Every session at the best time of its work, sorted by that time: the
    /// distribution the end-to-end percentiles are taken from. As passes are
    /// whole, a percentile's rank always falls on the same place in the
    /// order of session types, and its value is one type's best time.
    pub fn best_sessions(&self) -> Vec<(f64, Work)> {
        let best = self.best_ms();
        let mut v: Vec<(f64, Work)> = self.session_ms.iter().map(|(w, _)| (best[w], *w)).collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        v
    }

    /// Sessions per second with every session at the best time of its work.
    pub fn sessions_per_s(&self) -> f64 {
        let best = self.best_sessions();
        best.len() as f64 * 1e3 / best.iter().map(|s| s.0).sum::<f64>()
    }

    /// Every session's time as measured, sorted.
    pub fn measured_session_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.session_ms.iter().map(|s| s.1).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn work_per_s(&self) -> f64 {
        stats::median(&self.pass_rates.iter().map(|r| r.1).collect::<Vec<_>>())
    }
}

/// Every set-up timed during a run: its [`SETUP_WINDOW_S`] window and its
/// time, in s.
type SetUps = Vec<(u64, f64)>;

/// Runs whole passes until `seconds` have gone by and at least
/// [`Workload::min_passes`] have run, with a slice of `set_up` between
/// sessions every [`SETUP_EVERY_S`]. Returns the untraced passes, the
/// traced ones and the time of every set-up, with its [`SETUP_WINDOW_S`]
/// window. With `trace`, every second pass records spans, so that
/// both sets see the same host and the tracing overhead is not confused
/// with its drift.
fn measure(
    wl: &mut dyn Workload,
    set_up: &mut dyn FnMut() -> Result<(), String>,
    tr: &Tracer,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Phase, Phase, SetUps), String> {
    let mut phases = (Phase::default(), Phase::default());
    let names: Vec<String> = (0..wl.mix_len()).map(|i| wl.item_name(i)).collect();
    let types: Vec<usize> = names
        .iter()
        .map(|n| names.iter().position(|m| m == n).expect("own name"))
        .collect();
    let mut setup_s = Vec::new();
    let start = Instant::now();
    let mut setup_due = start;
    let mut next_session = 0;
    let mut pass = 0;
    loop {
        let traced = trace && pass % 2 == 1;
        tr.set_enabled(traced);
        let phase = if traced { &mut phases.1 } else { &mut phases.0 };
        let order = pass_order(wl.mix_len(), seed, pass);
        let group = wl.input_group(pass);
        let pass_start = Instant::now();
        let mut setup_in_pass = Duration::ZERO;
        let mut counts = Counts::new();
        let mut work = 0u64;
        for item in order {
            if Instant::now() >= setup_due {
                tr.set_enabled(false);
                let slice = Instant::now();
                loop {
                    let t = Instant::now();
                    set_up()?;
                    let window = (t - start).as_secs_f64() / SETUP_WINDOW_S;
                    setup_s.push((window as u64, t.elapsed().as_secs_f64()));
                    if slice.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                        break;
                    }
                }
                setup_in_pass += slice.elapsed();
                setup_due = Instant::now() + Duration::from_secs_f64(SETUP_EVERY_S);
                tr.set_enabled(traced);
            }
            next_session += 1;
            tr.set_session(next_session);
            let t = Instant::now();
            let result = {
                let _g = tr.enter("bench.session");
                wl.session(pass, item, tr, &mut counts)
            };
            phase
                .session_ms
                .push(((group, types[item]), t.elapsed().as_secs_f64() * 1e3));
            phase.attempted += 1;
            match result {
                Ok(w) => work += w,
                Err(e) => {
                    phase.failed += 1;
                    if phase.failed <= 5 {
                        eprintln!("perfbench: session {item} of pass {pass} failed: {e}");
                    }
                }
            }
        }
        let pass_s = (pass_start.elapsed() - setup_in_pass).as_secs_f64();
        phase.seconds += pass_s;
        phase
            .pass_rates
            .push((wl.mix_len() as f64 / pass_s, work as f64 / pass_s));
        phase.counts.push((group, counts));
        pass += 1;
        if start.elapsed().as_secs_f64() >= seconds
            && (!trace || pass.is_multiple_of(2))
            && pass >= wl.min_passes()
        {
            break;
        }
    }
    tr.set_enabled(false);
    tr.set_session(0);
    Ok((phases.0, phases.1, setup_s))
}

/// The seeded order of pass `pass`: every session type once.
fn pass_order(len: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    stats::shuffle(&mut order, &mut stats::rng(seed, 0x5e55_1000 + pass));
    order
}

/// Runs every session type of pass 0, in a fixed order, outside the
/// measurement and the counts; a wrong output still fails the run.
fn warm_up(wl: &mut dyn Workload, tr: &Tracer, checks: &mut Vec<String>) {
    for item in 0..wl.mix_len() {
        if let Err(e) = wl.session(0, item, tr, &mut Counts::new()) {
            checks.push(format!("warm-up session {item}: {e}"));
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let tr = Tracer::new(args.trace);
    let mut checks = Vec::new();

    let mut wl = setup(&args.workload, args.seed, &tr, &mut checks)?;
    checks.extend(calls::check_build_paths());
    // One pass over the whole mix in a fixed order, so that every seed
    // starts measuring from the same heap (peak RSS otherwise depends on the
    // order in which the largest sessions first run).
    warm_up(wl.as_mut(), &tr, &mut checks);

    // Set-ups during the measurement are timed only; what they check, the
    // first set-up has checked.
    let mut set_up = || setup(&args.workload, args.seed, &tr, &mut Vec::new()).map(drop);
    let (plain, traced, setup_s) = measure(
        wl.as_mut(),
        &mut set_up,
        &tr,
        args.seed,
        args.seconds,
        args.trace,
    )?;
    let traced = args.trace.then_some(traced);

    // Counts must repeat exactly on every pass that shares its inputs.
    let all_counts = plain
        .counts
        .iter()
        .chain(traced.iter().flat_map(|p| &p.counts));
    let mut first_of_group: BTreeMap<u64, &Counts> = BTreeMap::new();
    for (group, counts) in all_counts {
        let first = first_of_group.entry(*group).or_insert(counts);
        if *first != counts {
            checks.push(format!(
                "per-layer counts differ between passes of input group {group}"
            ));
        }
    }

    let report = report::Report {
        workload: &args.workload,
        seed: args.seed,
        setup_s: stats::median(
            &stats::best_by_key(setup_s)
                .into_values()
                .collect::<Vec<_>>(),
        ),
        rss_mb: stats::status_mb("VmHWM:"),
        tail_p: stats::tail_percentile(wl.min_passes() as usize * wl.mix_len()),
        plain: &plain,
        traced: traced.as_ref(),
        work_metric: wl.work_metric(),
        item_names: (0..wl.mix_len()).map(|i| wl.item_name(i)).collect(),
        tracer: &tr,
    };
    let metrics = if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        report.per_layer()
    } else {
        report.end_to_end()
    };
    for c in &checks {
        eprintln!("perfbench: check failed: {c}");
    }
    let phases = [Some(&plain), traced.as_ref()];
    let attempted: u64 = phases.iter().flatten().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().flatten().map(|p| p.failed).sum();
    Ok(report::render(
        checks.is_empty() && failed == 0,
        attempted,
        failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
