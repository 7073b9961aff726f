#![warn(missing_docs)]

//! # ptaint-inject — deterministic fault-injection campaigns
//!
//! The paper evaluates the pointer-taintedness detector against *attacks*;
//! this crate evaluates it against *faults* — the dependability side of the
//! same DSN tradition. A campaign sweeps seeded injections across the whole
//! stack and classifies what each one does to the detection verdict:
//!
//! * **I/O-level** ([`FaultKind::is_io`]): short reads, `EINTR`, connection
//!   resets, and stream fragmentation on the taint-delivering syscalls —
//!   scheduled on the kernel via [`Fault::io_plan`] and applied by
//!   `ptaint-os` at the kernel→user boundary.
//! * **State-level**: seeded bit flips in tainted data bytes, shadow taint
//!   bits (taint *loss* → missed detections, taint *gain* → false alerts),
//!   multi-bit bursts, the register file, and L1/L2 cache lines — applied
//!   by a [`StateInjector`] hooked into the execution driver.
//! * **Meta-level** ([`FaultKind::targets_detector`]): faults aimed at the
//!   detection machinery itself — whole-machine taint sweeps and
//!   decode-cache slot corruption. Crashes under these classify as
//!   [`OutcomeClass::DetectorFault`] ("detector corrupted"), distinct from
//!   [`OutcomeClass::GuestFault`] ("guest corrupted").
//!
//! Everything derives from one `u64` seed through [`SplitMix64`], so a
//! campaign report is byte-identical across runs: `ptaint-run inject
//! --seed S` is a reproducible experiment, not an anecdote. The sharded
//! runner ([`run_campaign_jobs`]) extends the same contract across worker
//! threads: trials are embarrassingly parallel (each fault derives from
//! the spec and the trial index alone), workers steal trial indices from a
//! shared counter, and records merge in trial order — so `-j1` and `-jN`
//! produce byte-identical reports.
//!
//! The crate is workload-agnostic: [`run_campaign`] takes a closure that
//! executes one trial ([`run_campaign_jobs`] takes a *factory* of such
//! closures, one per worker), and `ptaint::Machine` binds the closure to a
//! real guest boot. Classification ([`classify`], [`classify_fault`]) is
//! judged against the fault-free baseline — in particular, a clean exit of
//! a workload whose baseline *detects* an attack is always reported as a
//! **missed** detection, never silently benign.

mod campaign;
mod fault;
mod injector;
mod rng;

pub use campaign::{
    classify, classify_fault, run_campaign, run_campaign_jobs, CampaignReport, CampaignSpec,
    OutcomeClass, TrialRecord, TrialRun,
};
pub use fault::{Fault, FaultKind};
pub use injector::StateInjector;
pub use rng::SplitMix64;
