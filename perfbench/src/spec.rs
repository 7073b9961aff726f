//! `spec`: the six Table 3 SPEC-2000-like programs under full
//! pointer-taintedness detection.
//!
//! Images are built at set-up. A session boots a fresh machine with
//! `ptaint_os::load` and runs it to exit with `run_to_exit`. The mix is
//! every program at scales 1, 3 and 6 on the `flat` hierarchy plus every
//! program at scales 1 and 2 on `two_level`: three sessions in five are
//! flat, and about 40% of host time is two-level. Three flat scales rather
//! than six cut the pass by about 40%, so each session type runs about 1.6
//! times as often in a run, and its best time (see `main.rs`) is found in
//! that many more runs.
//! It stays a minority because two-level times are far noisier (in-process
//! repeats of gzip at scale 4 ranged 354–580 ms under `two_level` against
//! 165–191 ms under `flat`).
//!
//! Checked per session: exit status 0, no alert (Table 3's zero false
//! positives), and the retired-instruction count and stdout digest equal to
//! `expected/spec.tsv` — the same row for both hierarchies.

use std::collections::BTreeMap;

use ptaint_asm::Image;
use ptaint_cpu::DetectionPolicy;
use ptaint_guest::workloads::{self, Workload as Program};
use ptaint_mem::HierarchyConfig;
use ptaint_os::ExitReason;

use crate::calls::{self, Counts};
use crate::spans::Tracer;
use crate::stats::fnv64;
use crate::Workload;

const EXPECTED: &str = include_str!("../expected/spec.tsv");
const FLAT_SCALES: [u32; 3] = [1, 3, 6];
const TWO_LEVEL_SCALES: [u32; 2] = [1, 2];
const STEP_LIMIT: u64 = 500_000_000;

struct Item {
    program: usize,
    scale: u32,
    hierarchy: HierarchyConfig,
}

/// (program, scale) -> (instructions, stdout digest).
type Expected = BTreeMap<(String, u32), (u64, u64)>;

pub struct Spec {
    programs: Vec<(Program, Image)>,
    items: Vec<Item>,
    expected: Expected,
}

impl Spec {
    pub fn setup(tr: &Tracer) -> Result<Spec, String> {
        let expected = parse_expected(EXPECTED)?;
        let mut programs = Vec::new();
        for p in workloads::all() {
            let image = calls::build(tr, p.source).map_err(|e| format!("{}: {e}", p.name))?;
            programs.push((p, image));
        }
        let mut items = Vec::new();
        for (hierarchy, scales) in [
            (HierarchyConfig::flat(), &FLAT_SCALES[..]),
            (HierarchyConfig::two_level(), &TWO_LEVEL_SCALES[..]),
        ] {
            for program in 0..programs.len() {
                for &scale in scales {
                    items.push(Item {
                        program,
                        scale,
                        hierarchy,
                    });
                }
            }
        }
        Ok(Spec {
            programs,
            items,
            expected,
        })
    }
}

impl Workload for Spec {
    fn mix_len(&self) -> usize {
        self.items.len()
    }

    fn session(
        &mut self,
        _pass: u64,
        item: usize,
        tr: &Tracer,
        counts: &mut Counts,
    ) -> Result<u64, String> {
        let Item {
            program,
            scale,
            hierarchy,
        } = self.items[item];
        let (p, image) = &self.programs[program];
        let world = p.world(scale);
        let (mut cpu, mut os) = calls::boot(
            tr,
            image,
            world,
            DetectionPolicy::PointerTaintedness,
            hierarchy,
        );
        let out = calls::run(tr, &mut cpu, &mut os, STEP_LIMIT, counts);
        let what = format!("{} scale {scale}", p.name);
        if out.reason != ExitReason::Exited(0) {
            return Err(format!("{what}: {:?}", out.reason));
        }
        let got = (out.stats.instructions, fnv64(&out.stdout));
        match self.expected.get(&(p.name.to_string(), scale)) {
            Some(&want) if want == got => Ok(out.stats.instructions),
            Some(want) => Err(format!(
                "{what}: (instructions, digest) {got:?}, expected {want:?}"
            )),
            None => Err(format!("{what}: no expected row")),
        }
    }

    /// 30 sessions a pass: 210 sessions put the tail at p95.
    fn min_passes(&self) -> u64 {
        7
    }

    fn work_metric(&self) -> Option<(&'static str, f64)> {
        Some(("mips", 1e6))
    }

    fn item_name(&self, item: usize) -> String {
        let Item {
            program,
            scale,
            hierarchy,
        } = &self.items[item];
        let levels = if hierarchy.l1.is_some() {
            "two_level"
        } else {
            "flat"
        };
        format!("{} scale {scale} {levels}", self.programs[*program].0.name)
    }
}

/// Rows of `program scale instructions stdout-fnv64-hex`; `#` comments.
fn parse_expected(text: &str) -> Result<Expected, String> {
    let mut out = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = match f.as_slice() {
            [name, scale, insns, digest] => scale
                .parse()
                .ok()
                .zip(insns.parse().ok().zip(u64::from_str_radix(digest, 16).ok()))
                .map(|(s, v)| ((name.to_string(), s), v)),
            _ => None,
        };
        let (key, value) = parsed.ok_or_else(|| format!("expected/spec.tsv: bad row {line:?}"))?;
        out.insert(key, value);
    }
    Ok(out)
}
