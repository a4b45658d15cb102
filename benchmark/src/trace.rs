//! Outside-in tracing: spans recorded around calls *into* the engine's
//! layers, from wrappers that live in this benchmark and implement the
//! engine's own extension traits.
//!
//! * [`TimedProtocol`] wraps a protocol; its [`Protocol::columnar`] hands the
//!   engine a [`TimedColumns`] around the inner [`ColumnarStep`], so every
//!   `load` / `step` / `apply` / `store` becomes a `columns.*` span.
//! * [`TimedAdversary`] wraps [`Adversary::act`] in an `adversary.act` span
//!   whose value is the number of alterations the engine will apply.
//! * [`RoundClock`] is the observer of every run, traced or not: it stamps
//!   each `on_round` (the per-round host latency), and when tracing it also
//!   closes one `round` span per round and wraps the inner observer in a
//!   `metrics.on_round` span.
//!
//! All wrappers forward [`Adversary::is_noop`] and
//! [`Observer::needs_engine_state`], so the engine takes the same
//! materialize/reload decisions as it does for the bare types: a traced run
//! executes the untraced program plus clock reads, never a different one.
//!
//! Spans go to a per-thread [`Tracer`] that a job installs on entry and
//! takes on exit (a job runs start to finish on one thread, and every layer
//! call of an engine happens on the thread driving it). Spans nest by a
//! stack: a span's parent is whichever span was open when it began.

use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

use popstab_sim::batch::ShardPool;
use popstab_sim::{
    Action, Adversary, Alteration, ColumnarStep, EngineView, Observer, Protocol, RoundContext,
    RoundReport, SimRng,
};

/// Nanoseconds since the process-wide trace origin (the first call).
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Parent id of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Its id is its index in its job's span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `columns.step`.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start: u64,
    /// End, ns since the trace origin (0 while open).
    pub end: u64,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// A count measured where the work happens (agents transposed,
    /// alterations applied), or 0.
    pub value: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The spans of one job, in begin order, and the stack of open ones.
#[derive(Debug, Default)]
struct Tracer {
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread, appending to `spans` (ids
/// continue from its length).
pub fn install(spans: Vec<Span>) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            spans,
            open: Vec::new(),
        })
    });
}

/// Stops recording on this thread and returns the spans (empty when it
/// was not recording).
pub fn take() -> Vec<Span> {
    TRACER
        .with(|t| t.borrow_mut().take())
        .map(|t| t.spans)
        .unwrap_or_default()
}

/// Whether this thread is recording.
pub fn active() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Opens a span at time `at`; `None` when not recording.
pub fn begin_at(name: &'static str, at: u64) -> Option<u32> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let id = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        t.spans.push(Span {
            name,
            start: at,
            end: 0,
            parent,
            value: 0,
        });
        t.open.push(id);
        Some(id)
    })
}

/// Closes span `id` (the innermost open one) at time `at`, recording
/// `value`; optionally renames it.
pub fn end_at(id: Option<u32>, at: u64, value: u64, rename: Option<&'static str>) {
    let Some(id) = id else { return };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t
            .as_mut()
            .expect("span closed on a thread that is not recording");
        assert_eq!(t.open.pop(), Some(id), "spans must close innermost first");
        let span = &mut t.spans[id as usize];
        span.end = at;
        span.value = value;
        if let Some(name) = rename {
            span.name = name;
        }
    });
}

/// Runs `f` inside a span named `name`; `value` derives the span's count
/// from the result. Costs one thread-local check when not recording.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R, value: impl FnOnce(&R) -> u64) -> R {
    if !active() {
        return f();
    }
    let id = begin_at(name, now_ns());
    let out = f();
    end_at(id, now_ns(), value(&out), None);
    out
}

/// A protocol whose columnar stepper is wrapped in [`TimedColumns`].
/// Everything else forwards, so the trajectory is the inner protocol's.
#[derive(Debug, Clone)]
pub struct TimedProtocol<P>(pub P);

impl<P: Protocol> Protocol for TimedProtocol<P>
where
    P::State: 'static,
{
    type State = P::State;
    type Message = P::Message;

    fn initial_state(&self, rng: &mut SimRng) -> P::State {
        self.0.initial_state(rng)
    }

    fn message(&self, state: &P::State) -> P::Message {
        self.0.message(state)
    }

    fn step(
        &self,
        state: &mut P::State,
        incoming: Option<&P::Message>,
        rng: &mut SimRng,
    ) -> Action {
        self.0.step(state, incoming, rng)
    }

    fn columnar(&self) -> Option<Box<dyn ColumnarStep<P::State>>> {
        let inner = self.0.columnar()?;
        Some(Box::new(TimedColumns(inner)))
    }
}

/// A [`ColumnarStep`] that times every call into the one it wraps.
pub struct TimedColumns<S>(Box<dyn ColumnarStep<S>>);

impl<S> fmt::Debug for TimedColumns<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TimedColumns").field(&self.0).finish()
    }
}

impl<S> ColumnarStep<S> for TimedColumns<S> {
    fn load(&mut self, agents: &[S], pool: Option<&ShardPool>) {
        span(
            "columns.load",
            || self.0.load(agents, pool),
            |_| agents.len() as u64,
        );
    }

    fn step(
        &mut self,
        partners: &[u32],
        round_key: u64,
        pool: Option<&ShardPool>,
        splits: &mut Vec<usize>,
        deaths: &mut Vec<usize>,
    ) {
        span(
            "columns.step",
            || self.0.step(partners, round_key, pool, splits, deaths),
            |_| partners.len() as u64,
        );
    }

    fn apply(&mut self, splits: &[usize], deaths: &[usize]) {
        span(
            "columns.apply",
            || self.0.apply(splits, deaths),
            |_| (splits.len() + deaths.len()) as u64,
        );
    }

    fn store(&self, agents: &mut Vec<S>) {
        span(
            "columns.store",
            || self.0.store(agents),
            |_| self.0.len() as u64,
        );
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn mem_bytes(&self) -> usize {
        self.0.mem_bytes()
    }
}

/// An adversary whose `act` is an `adversary.act` span valued with the
/// alterations the engine applies (the list truncated to the budget).
#[derive(Debug, Clone)]
pub struct TimedAdversary<A>(pub A);

impl<S, A: Adversary<S>> Adversary<S> for TimedAdversary<A> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn act(&mut self, ctx: &RoundContext, agents: &[S], rng: &mut SimRng) -> Vec<Alteration<S>> {
        span(
            "adversary.act",
            || self.0.act(ctx, agents, rng),
            |alts| alts.len().min(ctx.budget) as u64,
        )
    }

    fn is_noop(&self) -> bool {
        self.0.is_noop()
    }
}

/// What one job's observer saw: every round's report and host latency.
#[derive(Debug, Default)]
pub struct RoundLog {
    /// Reports in execution order.
    pub reports: Vec<RoundReport>,
    /// Per-round host latency, ns: the gap between consecutive `on_round`
    /// returns (the first round of a run counts from the run's start).
    pub round_ns: Vec<u64>,
    last: u64,
    open_round: Option<u32>,
}

impl RoundLog {
    /// Marks the start of an `Engine::run` call.
    pub fn run_started(&mut self) {
        self.last = now_ns();
        self.open_round = begin_at("round", self.last);
    }

    /// Marks the return of an `Engine::run` call. The round span left open
    /// after the last `on_round` covers the engine's end-of-run work (the
    /// final `store`), so it closes as `run.tail`.
    pub fn run_finished(&mut self) {
        end_at(self.open_round.take(), now_ns(), 0, Some("run.tail"));
    }
}

/// The observer of every run: stamps each round into a [`RoundLog`],
/// forwarding to `inner` (`()` or `RecordStats`) first.
#[derive(Debug)]
pub struct RoundClock<'a, O> {
    /// Where the stamps go.
    pub log: &'a mut RoundLog,
    /// The workload's own observer.
    pub inner: O,
}

impl<P: Protocol, O: Observer<P>> Observer<P> for RoundClock<'_, O> {
    fn on_round(&mut self, report: &RoundReport, view: &EngineView<'_, P>) {
        if self.log.open_round.is_some() {
            let id = begin_at("metrics.on_round", now_ns());
            self.inner.on_round(report, view);
            end_at(id, now_ns(), 0, None);
        } else {
            self.inner.on_round(report, view);
        }
        let t = now_ns();
        self.log.round_ns.push(t - self.log.last);
        self.log.reports.push(*report);
        self.log.last = t;
        if self.log.open_round.is_some() {
            end_at(
                self.log.open_round,
                t,
                report.population_before as u64,
                None,
            );
            self.log.open_round = begin_at("round", t);
        }
    }

    fn needs_engine_state(&self) -> bool {
        self.inner.needs_engine_state()
    }
}
