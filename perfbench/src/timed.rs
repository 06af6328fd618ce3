//! A timing decorator for delay engines, built from outside the crates.
//!
//! [`DelayEngine`] is a public trait, so the traced runs wrap the engine
//! stack at both of its layer boundaries:
//!
//! ```text
//! Timed(SharedCachedEngine(Timed(ExactEngine), cache))
//!   outer: every window lookup       inner: every exact solve (cache miss)
//! ```
//!
//! The outer sink's time minus the inner sink's is the cache layer's
//! self time; everything above the outer sink (window building, the WCRT
//! fixed point, LS marking, session bookkeeping) is its caller's.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmcs_core::wcrt::DelayBound;
use pmcs_core::{
    CoreError, DelayEngine, ExactEngine, SharedCachedEngine, SharedDelayCache, WindowModel,
};

/// Accumulated calls through one layer boundary. Several engines may
/// share one sink (one engine per session, one sink per layer).
#[derive(Debug, Default)]
pub struct Sink {
    calls: Cell<u64>,
    busy: Cell<Duration>,
    inexact: Cell<u64>,
    per_call: RefCell<Vec<f64>>,
}

impl Sink {
    /// Calls made through the boundary.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Total time spent below the boundary.
    pub fn busy(&self) -> Duration {
        self.busy.get()
    }

    /// Calls that returned a bound with `exact == false`.
    pub fn inexact(&self) -> u64 {
        self.inexact.get()
    }

    /// Per-call durations in milliseconds.
    pub fn per_call_ms(&self) -> Vec<f64> {
        self.per_call.borrow().clone()
    }
}

/// Times every `max_total_delay` call of the wrapped engine into a
/// shared [`Sink`].
#[derive(Debug)]
pub struct Timed<E> {
    inner: E,
    sink: Rc<Sink>,
}

impl<E> Timed<E> {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: E, sink: Rc<Sink>) -> Self {
        Timed { inner, sink }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: DelayEngine> DelayEngine for Timed<E> {
    fn max_total_delay(&self, window: &WindowModel) -> Result<DelayBound, CoreError> {
        let started = Instant::now();
        let result = self.inner.max_total_delay(window);
        let took = started.elapsed();
        let s = &self.sink;
        s.calls.set(s.calls.get() + 1);
        s.busy.set(s.busy.get() + took);
        s.per_call.borrow_mut().push(took.as_secs_f64() * 1e3);
        if matches!(&result, Ok(b) if !b.exact) {
            s.inexact.set(s.inexact.get() + 1);
        }
        result
    }
}

/// The decorated stack the traced runs analyze over.
pub type TracedEngine = Timed<SharedCachedEngine<Timed<ExactEngine>>>;

/// The two sinks of a [`TracedEngine`] family.
#[derive(Debug, Default, Clone)]
pub struct Sinks {
    /// Every window lookup (cache layer and below).
    pub lookup: Rc<Sink>,
    /// Every exact solve (cache misses only).
    pub solve: Rc<Sink>,
}

impl Sinks {
    /// A decorated engine over `cache`, recording into these sinks.
    pub fn engine(&self, cache: &Arc<SharedDelayCache>) -> TracedEngine {
        Timed::new(
            SharedCachedEngine::new(
                Timed::new(ExactEngine::default(), Rc::clone(&self.solve)),
                Arc::clone(cache),
            ),
            Rc::clone(&self.lookup),
        )
    }
}

/// Engine-layer totals gathered from a family of decorated engines.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTotals {
    /// Cache hits across the family.
    pub hits: u64,
    /// Branch-and-bound / DP search nodes across the family.
    pub bb_nodes: u64,
}

impl EngineTotals {
    /// Adds one decorated engine's counters.
    pub fn add(&mut self, engine: &TracedEngine) {
        self.hits += engine.inner().stats().hits;
        self.bb_nodes += engine.inner().inner().inner().solver_stats().bb_nodes;
    }
}

/// Writes the `core.engine.*` and `core.cache.*` metrics for a family of
/// decorated engines.
pub fn record_engine(out: &mut crate::report::Outcome, sinks: &Sinks, totals: EngineTotals) {
    let lookups = sinks.lookup.calls();
    out.set("core.engine.solves", sinks.solve.calls() as f64);
    out.set("core.engine.busy_s", sinks.solve.busy().as_secs_f64());
    out.set(
        "core.engine.solve_p99_ms",
        crate::report::percentile(&sinks.solve.per_call_ms(), 0.99),
    );
    out.set("core.engine.bb_nodes", totals.bb_nodes as f64);
    out.set("core.engine.inexact", sinks.solve.inexact() as f64);
    out.set("core.cache.lookups", lookups as f64);
    out.set(
        "core.cache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            totals.hits as f64 / lookups as f64
        },
    );
    out.set(
        "core.cache.self_s",
        sinks
            .lookup
            .busy()
            .saturating_sub(sinks.solve.busy())
            .as_secs_f64(),
    );
}
