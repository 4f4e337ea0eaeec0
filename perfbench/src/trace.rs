//! Outside-in tracing: spans recorded by the benchmark around its own
//! calls into each layer's public function, kept in memory and summarised
//! when the run ends. The program itself is not instrumented.

use falcon_crowd::Crowd;
use falcon_table::IdPair;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One recorded span: a layer name, its interval and the span that was
/// open when it started (its cause).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

/// A cloneable handle on one in-memory trace. Spans nest by call order:
/// the program's crowd calls happen on the thread that is inside the
/// enclosing layer span, so the open-span stack names their cause.
#[derive(Clone)]
pub struct Trace {
    origin: Instant,
    log: Arc<Mutex<Log>>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            log: Arc::new(Mutex::new(Log::default())),
        }
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("trace log poisoned by a panicking span")
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let start = self.origin.elapsed();
            let mut log = self.log();
            let parent = log.open.last().copied();
            log.spans.push(Span {
                name,
                parent,
                start,
                end: start,
            });
            let id = log.spans.len() - 1;
            log.open.push(id);
            id
        };
        let out = f();
        let end = self.origin.elapsed();
        let mut log = self.log();
        log.spans[id].end = end;
        log.open.pop();
        out
    }

    /// Add `v` to the counter `name`.
    pub fn count(&self, name: &str, v: f64) {
        *self.log().counts.entry(name.to_string()).or_default() += v;
    }

    /// Raise the counter `name` to at least `v`.
    pub fn max(&self, name: &str, v: f64) {
        let mut log = self.log();
        let c = log.counts.entry(name.to_string()).or_default();
        *c = c.max(v);
    }

    /// Summarise the trace: per-name wall and self time, the counters, and
    /// the share of the root spans' time that named child spans cover.
    pub fn summary(&self) -> Summary {
        let log = self.log();
        let mut child_time = vec![Duration::ZERO; log.spans.len()];
        for s in &log.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur();
            }
        }
        let mut wall: BTreeMap<&'static str, Duration> = BTreeMap::new();
        let mut calls: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut self_time: BTreeMap<&'static str, Duration> = BTreeMap::new();
        let (mut root, mut covered) = (Duration::ZERO, Duration::ZERO);
        for (i, s) in log.spans.iter().enumerate() {
            *wall.entry(s.name).or_default() += s.dur();
            *calls.entry(s.name).or_default() += 1;
            *self_time.entry(s.name).or_default() += s.dur().saturating_sub(child_time[i]);
            if s.parent.is_none() {
                root += s.dur();
                covered += child_time[i];
            }
        }
        Summary {
            wall,
            calls,
            self_time,
            counts: log.counts.clone(),
            root,
            coverage: if root.is_zero() {
                0.0
            } else {
                covered.as_secs_f64() / root.as_secs_f64()
            },
        }
    }
}

/// Per-name totals of one trace.
pub struct Summary {
    pub wall: BTreeMap<&'static str, Duration>,
    /// Spans recorded per name.
    pub calls: BTreeMap<&'static str, usize>,
    pub self_time: BTreeMap<&'static str, Duration>,
    pub counts: BTreeMap<String, f64>,
    /// Total duration of the root spans (one per traced job).
    pub root: Duration,
    /// Share of `root` covered by named child spans.
    pub coverage: f64,
}

impl Summary {
    pub fn wall_s(&self, name: &str) -> f64 {
        self.wall.get(name).map_or(0.0, Duration::as_secs_f64)
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.self_time.get(name).map_or(0.0, Duration::as_secs_f64)
    }
}

/// The crowd layer seen from outside: every answer the program asks for
/// becomes a `crowd` span under the layer that asked, so the span count
/// is the answer count.
pub struct TracedCrowd<C> {
    inner: C,
    trace: Trace,
}

impl<C: Crowd> TracedCrowd<C> {
    pub fn new(inner: C, trace: Trace) -> Self {
        Self { inner, trace }
    }
}

impl<C: Crowd> Crowd for TracedCrowd<C> {
    fn answer(&self, pair: IdPair) -> bool {
        self.trace.span("crowd", || self.inner.answer(pair))
    }
    fn try_answer(&self, pair: IdPair) -> Option<bool> {
        self.trace.span("crowd", || self.inner.try_answer(pair))
    }
    fn fast_forward(&self, draws: usize) {
        self.inner.fast_forward(draws);
    }
    fn latency_per_round(&self) -> Duration {
        self.inner.latency_per_round()
    }
    fn cost_per_answer(&self) -> f64 {
        self.inner.cost_per_answer()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}
