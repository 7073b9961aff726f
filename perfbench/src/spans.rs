//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.call`), a start, an end, the span that was
//! open when it started, and the session it belongs to (0 for set-up). The
//! recorder is off in untraced runs and on untraced passes: `enter` then
//! returns an inert guard and reads no clock. Spans stay in memory until
//! the run ends; [`Tracer::write_jsonl`] writes them out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: u64,
    /// Guest instructions retired inside the span (runs only).
    pub insns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Values the workloads measure themselves (sum, count).
    samples: BTreeMap<&'static str, (f64, u64)>,
}

/// The span recorder. `Sync`, so it can ride into the campaign runner's
/// worker factory (which the benchmark only ever runs on one thread).
pub struct Tracer {
    on: AtomicBool,
    session: AtomicU64,
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            session: AtomicU64::new(0),
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Later spans belong to session `id` (0 = set-up).
    pub fn set_session(&self, id: u64) {
        self.session.store(id, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no span update panics while holding the lock")
    }

    /// Opens a span that closes when the guard drops (or on [`Guard::end`]).
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled() {
            return Guard {
                tracer: self,
                idx: None,
            };
        }
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        let idx = inner.spans.len();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            session: self.session.load(Ordering::Relaxed),
            insns: 0,
        });
        inner.open.push(idx);
        Guard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Records one value of a quantity the workload measures itself.
    pub fn observe(&self, key: &'static str, value: f64) {
        if self.enabled() {
            let mut inner = self.lock();
            let e = inner.samples.entry(key).or_insert((0.0, 0));
            e.0 += value;
            e.1 += 1;
        }
    }

    /// Mean of the observed values of `key` (0 when none).
    pub fn observed_mean(&self, key: &str) -> f64 {
        match self.lock().samples.get(key) {
            Some(&(sum, n)) if n > 0 => sum / n as f64,
            _ => 0.0,
        }
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let inner = self.lock();
        let mut out = String::new();
        for (id, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"session\":{},\"insns\":{}}}",
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns,
                s.session,
                s.insns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// An open span; closes on drop.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Guard<'_> {
    /// Notes the guest instructions retired inside this span.
    pub fn insns(&self, n: u64) {
        if let Some(idx) = self.idx {
            self.tracer.lock().spans[idx].insns = n;
        }
    }

    /// Closes the span and returns its duration (zero when tracing is off).
    pub fn end(mut self) -> Duration {
        Duration::from_nanos(self.close())
    }

    fn close(&mut self) -> u64 {
        let Some(idx) = self.idx.take() else {
            return 0;
        };
        let end_ns = self.tracer.now_ns();
        let mut inner = self.tracer.lock();
        inner.open.pop();
        let span = &mut inner.spans[idx];
        span.end_ns = end_ns;
        span.dur_ns()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Per-layer self time: each span's duration minus the part its children
/// cover, summed by layer over the spans of sessions (not set-up).
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        if s.session > 0 {
            *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(child);
        }
    }
    out
}
