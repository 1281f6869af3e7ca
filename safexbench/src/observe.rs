//! Observation-only instruments: a recording [`ClockSource`] and timed
//! wrappers over the public [`Backend`] and [`RoutingPolicy`] traits.
//!
//! None of them decides anything. Every call forwards to the wrapped
//! value unchanged and only notes wall time, so a run through them
//! produces the same `ServeReport` and evidence chain as a run without
//! them; `tests/serve_bench.rs` checks the digests on every workload.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use safex_serve::{
    Backend, BatchVerdict, ClockSource, ModelId, PoolBackend, Request, RouteView, RoutingPolicy,
    ServeError,
};
use safex_trace::json::Json;

use crate::workload::Strike;

/// Records when each event tick of the serving loop starts and ends.
///
/// The server calls `pace` once per loop pass, before processing the
/// tick; the pass runs until the next `pace` call, and the last one until
/// the caller's [`RecordingClock::finish`]. Time the wrapped clock spends
/// pacing (a [`safex_serve::WallClock`] sleeping) is outside every tick.
#[derive(Debug)]
pub struct RecordingClock<C> {
    inner: C,
    ticks: Vec<u64>,
    starts: Vec<Instant>,
    ends: Vec<Instant>,
}

impl<C: ClockSource> RecordingClock<C> {
    /// Wraps `inner`, with room for a typical rep's ticks so recording
    /// does not reallocate inside the timed loop.
    pub fn new(inner: C) -> Self {
        const TICKS: usize = 1 << 14;
        RecordingClock {
            inner,
            ticks: Vec::with_capacity(TICKS),
            starts: Vec::with_capacity(TICKS),
            ends: Vec::with_capacity(TICKS),
        }
    }

    /// Ends the last tick at `at`, the instant the run returned.
    pub fn finish(&mut self, at: Instant) {
        if self.ends.len() < self.starts.len() {
            self.ends.push(at);
        }
    }

    /// The logical tick of each loop pass, in order.
    pub fn ticks(&self) -> &[u64] {
        &self.ticks
    }

    /// When each loop pass started.
    pub fn starts(&self) -> &[Instant] {
        &self.starts
    }

    /// When each loop pass ended (one per start after `finish`).
    pub fn ends(&self) -> &[Instant] {
        &self.ends
    }

    /// Each finished loop pass's duration in ns.
    pub fn durations_ns(&self) -> Vec<f64> {
        self.starts
            .iter()
            .zip(&self.ends)
            .map(|(s, e)| e.duration_since(*s).as_nanos() as f64)
            .collect()
    }
}

impl<C: ClockSource> ClockSource for RecordingClock<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pace(&mut self, tick: u64) {
        let entered = Instant::now();
        if self.ends.len() < self.starts.len() {
            self.ends.push(entered);
        }
        self.inner.pace(tick);
        self.ticks.push(tick);
        self.starts.push(Instant::now());
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// When the call was entered.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

impl Call {
    /// The call's duration in ns.
    pub fn ns(&self) -> f64 {
        self.end.duration_since(self.start).as_nanos() as f64
    }
}

/// One timed `Backend::serve` call.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The member that served it.
    pub member: ModelId,
    /// When it ran.
    pub call: Call,
    /// The ids of its requests, in batch order.
    pub requests: Vec<u64>,
}

/// What the timed wrappers saw during one run.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Input buffer address → id of the request that owns it.
    owners: HashMap<usize, u64>,
    /// Every `serve` call, in dispatch order (the index is the batch id).
    pub batches: Vec<Batch>,
    /// Batch items whose request could not be identified.
    pub unidentified: usize,
    /// Every `route` call.
    pub routes: Vec<Call>,
    /// Every `prepare_swap` call.
    pub swaps: Vec<Call>,
}

impl Recorder {
    /// A recorder the wrappers and the arrival hook can share.
    pub fn shared() -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder::default()))
    }

    /// Notes which request owns `request.input`'s buffer.
    ///
    /// `Backend::serve` sees only input slices, so the arrival hook
    /// records the address of each admitted request's input; the server
    /// moves the request but never its heap buffer, so the same address
    /// reaches `serve`. An address reused after a request is dropped is
    /// re-noted when its new owner arrives.
    pub fn note_request(&mut self, request: &Request) {
        self.owners
            .insert(request.input.as_ptr() as usize, request.id);
    }
}

/// A [`Backend`] that times `serve` and `prepare_swap` and forwards all
/// six methods to the wrapped backend.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    member: ModelId,
    recorder: Rc<RefCell<Recorder>>,
}

impl<B> TimedBackend<B> {
    /// Wraps the backend of fleet member `member`.
    pub fn new(inner: B, member: ModelId, recorder: Rc<RefCell<Recorder>>) -> Self {
        TimedBackend {
            inner,
            member,
            recorder,
        }
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn serve(&mut self, inputs: &[&[f32]]) -> Result<Vec<BatchVerdict>, ServeError> {
        let start = Instant::now();
        let verdicts = self.inner.serve(inputs);
        let end = Instant::now();
        let mut recorder = self.recorder.borrow_mut();
        let mut requests = Vec::with_capacity(inputs.len());
        for input in inputs {
            match recorder.owners.get(&(input.as_ptr() as usize)) {
                Some(&id) => requests.push(id),
                None => recorder.unidentified += 1,
            }
        }
        recorder.batches.push(Batch {
            member: self.member,
            call: Call { start, end },
            requests,
        });
        verdicts
    }

    fn prepare_swap(&mut self) -> Result<(), ServeError> {
        let start = Instant::now();
        let prepared = self.inner.prepare_swap();
        let end = Instant::now();
        self.recorder.borrow_mut().swaps.push(Call { start, end });
        prepared
    }

    fn swap_digest(&self) -> Option<u64> {
        self.inner.swap_digest()
    }

    fn clock(&self) -> u64 {
        self.inner.clock()
    }

    fn resync(&mut self, clock: u64) {
        self.inner.resync(clock);
    }
}

impl<B: Strike> Strike for TimedBackend<B> {
    fn pool(&mut self) -> &mut PoolBackend {
        self.inner.pool()
    }
}

/// A [`RoutingPolicy`] that times each decision of the wrapped policy and
/// reports its name, so `Server::config_digest` does not change.
pub struct TimedRouter {
    inner: Box<dyn RoutingPolicy>,
    recorder: Rc<RefCell<Recorder>>,
}

impl TimedRouter {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn RoutingPolicy>, recorder: Rc<RefCell<Recorder>>) -> Self {
        TimedRouter { inner, recorder }
    }
}

impl RoutingPolicy for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&self, view: &RouteView<'_>) -> ModelId {
        let start = Instant::now();
        let choice = self.inner.route(view);
        let end = Instant::now();
        self.recorder.borrow_mut().routes.push(Call { start, end });
        choice
    }
}

/// The traced run as spans: `run` → `tick` → `backend.serve` / `route`
/// (and `backend.prepare_swap`). Times are ns from the start of the run;
/// `parent` is the index of the enclosing span.
pub fn spans_json<C: ClockSource>(
    run: Call,
    clock: &RecordingClock<C>,
    recorder: &Recorder,
) -> Json {
    let at = |i: Instant| Json::from(i.duration_since(run.start).as_nanos() as u64);
    let span = |name: &str, call: Call, parent: Option<usize>| {
        let mut obj = Json::object();
        obj.set("name", Json::from(name))
            .set("start_ns", at(call.start))
            .set("end_ns", at(call.end))
            .set("parent", parent.map_or(Json::Null, Json::from));
        obj
    };
    // Span 0 is the run and span k >= 1 is loop pass k - 1, so the span
    // enclosing a call is the number of passes started before it.
    let tick_of = |call: &Call| clock.starts().partition_point(|s| *s <= call.start);
    let mut spans = vec![span("run", run, None)];
    for (k, ((&tick, &start), &end)) in clock
        .ticks()
        .iter()
        .zip(clock.starts())
        .zip(clock.ends())
        .enumerate()
    {
        let mut obj = span("tick", Call { start, end }, Some(0));
        obj.set("tick", Json::from(tick)).set("pass", Json::from(k));
        spans.push(obj);
    }
    for (id, batch) in recorder.batches.iter().enumerate() {
        let mut obj = span("backend.serve", batch.call, Some(tick_of(&batch.call)));
        obj.set("batch", Json::from(id))
            .set("member", Json::from(batch.member.to_string()))
            .set(
                "requests",
                Json::Arr(batch.requests.iter().map(|&r| Json::from(r)).collect()),
            );
        spans.push(obj);
    }
    for call in &recorder.routes {
        spans.push(span("route", *call, Some(tick_of(call))));
    }
    for call in &recorder.swaps {
        spans.push(span("backend.prepare_swap", *call, Some(tick_of(call))));
    }
    Json::Arr(spans)
}
