//! One benchmark run of one workload: set-up, reps, the correctness
//! gate, and, when traced, the per-layer breakdown.

use std::cell::RefCell;
use std::error::Error;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use safex_core::health::HealthState;
use safex_nn::Engine;
use safex_serve::{
    Backend, CacheConfig, ClockSource, ModelId, OpsPlan, Outcome, PoolBackend, Request,
    ResultCache, RoundRobin, RoutingKind, RoutingPolicy, Server, ServerSnapshot, SimClock,
    SoakOutcome, TierLeastLoaded,
};
use safex_trace::json::Json;
use safex_trace::{EvidenceChain, RecordKind, Value};

use crate::manifest::Manifest;
use crate::mintick::{Answer, TickSeries};
use crate::observe::{spans_json, Call, Recorder, RecordingClock, TimedBackend, TimedRouter};
use crate::workload::{Setup, Strike, Workload, ALPHA, BETA, REQUESTS, WORKERS};
use crate::{median, percentile};

/// Fallible benchmark steps.
pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// Share of completed requests that must meet their deadline in wall
/// time at `min_tick_us`.
pub const MET_SHARE: f64 = 0.99;

/// Timed passes per layer probe; the probe reports their median.
const PROBE_PASSES: usize = 5;

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Drives input jitter, arrival gaps and tiers.
    pub seed: u64,
    /// Keep starting timed reps until this many seconds have passed.
    pub seconds: f64,
    /// Run the traced rep and the layer probes.
    pub trace: bool,
    /// Requests per rep.
    pub requests: usize,
    /// Untimed reps before the timed ones; the first is checked in full.
    pub warmup: usize,
    /// Timed reps made however short `seconds` is.
    pub min_reps: usize,
    /// Times set-up is made; `setup_s` is their median.
    pub setup_runs: usize,
}

impl Options {
    /// The benchmark's defaults for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64) -> Options {
        Options {
            workload,
            seed,
            seconds: 20.0,
            trace: false,
            requests: REQUESTS,
            warmup: 2,
            min_reps: 5,
            setup_runs: 8,
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Everything one run found.
#[derive(Debug)]
pub struct Report {
    /// Provenance of the run.
    pub manifest: Manifest,
    /// Timed reps made.
    pub reps: usize,
    /// Requests offered over the timed reps.
    pub attempted: u64,
    /// Requests shed, timed out or refused over the timed reps.
    pub failed: u64,
    /// Correctness-gate failures; empty when the run is correct.
    pub errors: Vec<String>,
    /// The end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable context: percentiles, sample counts, shares.
    pub notes: Vec<String>,
    /// The traced rep's spans (traced runs only).
    pub spans: Option<Json>,
}

impl Report {
    /// `true` when every correctness check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The metrics a run reports: the per-layer ones when traced, the
    /// end-to-end ones otherwise.
    pub fn metrics(&self) -> &[Metric] {
        if self.spans.is_some() {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The one-line result carrying [`Report::metrics`].
    pub fn result_json(&self) -> String {
        let mut all = Json::object();
        for m in self.metrics() {
            let mut value = Json::object();
            value
                .set("value", Json::from(m.value))
                .set("unit", Json::from(m.unit));
            all.set(m.name, value);
        }
        let mut root = Json::object();
        root.set("correct", Json::from(self.correct()))
            .set("attempted", Json::from(self.attempted))
            .set("failed", Json::from(self.failed))
            .set("metrics", all);
        root.to_string_compact()
    }
}

/// One replay of the trace through a fresh server.
pub struct Served<B: Backend, C> {
    /// The server after the run (evidence, config digest).
    pub server: Server<B>,
    /// The run's report and captured snapshot.
    pub outcome: SoakOutcome,
    /// The loop passes, as the recording clock saw them.
    pub clock: RecordingClock<C>,
    /// The `run_soak_with` call itself.
    pub run: Call,
}

/// Replays `setup`'s trace once through `server` with `plan`, paced by
/// `clock`. Only the `run_soak_with` call is timed; `observe` sees each
/// arrival before the workload's fault hook does.
///
/// # Errors
///
/// Propagates serving failures.
pub fn serve<B, C>(
    setup: &Setup,
    mut server: Server<B>,
    plan: OpsPlan<B>,
    clock: C,
    mut observe: impl FnMut(&Request),
) -> BenchResult<Served<B, C>>
where
    B: Backend + Strike,
    C: ClockSource,
{
    let mut clock = RecordingClock::new(clock);
    let mut strikes = setup.strikes::<B>();
    let start = Instant::now();
    let outcome = server.run_soak_with(&setup.trace, plan, &mut clock, |request, fleet| {
        observe(request);
        strikes(request, fleet);
    })?;
    let end = Instant::now();
    clock.finish(end);
    Ok(Served {
        server,
        outcome,
        clock,
        run: Call { start, end },
    })
}

/// An untraced rep: plain pools, the built-in router, the sim clock.
///
/// # Errors
///
/// Propagates assembly and serving failures.
pub fn plain_rep(setup: &Setup) -> BenchResult<Served<PoolBackend, SimClock>> {
    let server = Server::new(setup.config.clone(), setup.fleet(|_, pool| pool)?)?;
    let plan = setup.plan(PoolBackend::new(&setup.engine, WORKERS)?);
    serve(setup, server, plan, SimClock, |_| {})
}

/// A traced rep and what its wrappers recorded.
pub type Traced<C> = (Served<TimedBackend<PoolBackend>, C>, Rc<RefCell<Recorder>>);

/// A traced rep: every backend in a [`TimedBackend`], the built-in
/// policy in a [`TimedRouter`], each arrival noted for request ids.
///
/// # Errors
///
/// Propagates assembly and serving failures.
pub fn traced_rep<C: ClockSource>(setup: &Setup, clock: C) -> BenchResult<Traced<C>> {
    let recorder = Recorder::shared();
    let fleet = setup.fleet(|id, pool| TimedBackend::new(pool, id, recorder.clone()))?;
    let router = TimedRouter::new(builtin(setup.config.routing)?, recorder.clone());
    let server = Server::with_router(setup.config.clone(), fleet, Box::new(router))?;
    let incoming = TimedBackend::new(
        PoolBackend::new(&setup.engine, WORKERS)?,
        BETA,
        recorder.clone(),
    );
    let hook = recorder.clone();
    let served = serve(setup, server, setup.plan(incoming), clock, move |request| {
        hook.borrow_mut().note_request(request)
    })?;
    Ok((served, recorder))
}

fn builtin(kind: RoutingKind) -> BenchResult<Box<dyn RoutingPolicy>> {
    match kind {
        RoutingKind::TierLeastLoaded => Ok(Box::new(TierLeastLoaded)),
        RoutingKind::RoundRobin => Ok(Box::new(RoundRobin)),
        other => Err(format!("no timed wrapper for routing {}", other.tag()).into()),
    }
}

/// What must repeat bit for bit between reps: the replay artefact's
/// digest and the evidence chain's head.
pub fn fingerprint(outcome: &SoakOutcome) -> (u64, u64) {
    (outcome.report.replay_digest(), outcome.report.chain_head)
}

/// The correctness gate for one rep checked in full.
pub fn gate<B: Backend, C>(setup: &Setup, served: &Served<B, C>) -> Vec<String> {
    let mut errors = Vec::new();
    let report = &served.outcome.report;
    let n = setup.trace.len();
    if report.responses.len() != n
        || report
            .responses
            .iter()
            .enumerate()
            .any(|(i, r)| r.id != i as u64)
    {
        errors.push(format!(
            "expected exactly one response for each of {n} requests, got {}",
            report.responses.len()
        ));
    }
    let silent = report
        .responses
        .iter()
        .filter(|r| match r.outcome {
            Outcome::Completed {
                class,
                flagged: false,
                ..
            } => class != setup.label(r.id),
            _ => false,
        })
        .count();
    if silent > 0 {
        errors.push(format!(
            "silent corruption: {silent} unflagged answers differ from the pristine label"
        ));
    }
    let chain = served.server.evidence();
    if let Err(defect) = chain.verify() {
        errors.push(defect.to_string());
    }
    let hit_records = chain.records_of_kind(RecordKind::CacheHit).len() as u64;
    if hit_records != report.snapshot.cache_hits {
        errors.push(format!(
            "{hit_records} cache_hit records for {} cache hits",
            report.snapshot.cache_hits
        ));
    }
    if setup.workload == Workload::FaultSoak {
        let walk: Vec<(HealthState, HealthState)> = report
            .transitions
            .iter()
            .filter(|t| t.model == ALPHA)
            .map(|t| (t.from, t.to))
            .collect();
        let expected = [
            (HealthState::Nominal, HealthState::Degraded),
            (HealthState::Degraded, HealthState::SafeStop),
        ];
        if walk != expected {
            errors.push(format!(
                "alpha must walk Nominal -> Degraded -> SafeStop, walked {walk:?}"
            ));
        }
        if !report
            .soak
            .swaps
            .iter()
            .any(|s| s.committed && s.model == BETA)
        {
            errors.push("the hot swap of beta did not commit".into());
        }
        if chain.records_of_kind(RecordKind::FaultCorrected).is_empty() {
            errors.push("the 1-bit strike left no fault_corrected record".into());
        }
        if served.outcome.snapshot.is_none() {
            errors.push("the scripted snapshot was not captured".into());
        }
    }
    errors
}

/// The completed requests of `report`, for the `min_tick_us` model.
pub fn answers(setup: &Setup, report: &safex_serve::ServeReport) -> Vec<Answer> {
    let arrivals = setup.trace.arrivals();
    report
        .responses
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Completed { .. }))
        .map(|r| Answer {
            resolved: r.resolved_at,
            deadline: arrivals[r.id as usize].request.deadline,
        })
        .collect()
}

/// The tick series a recording clock captured.
pub fn series<C: ClockSource>(clock: &RecordingClock<C>) -> TickSeries {
    TickSeries::new(clock.ticks().to_vec(), clock.durations_ns())
}

/// The timing of one rep.
struct RepTiming {
    ns_per_completed: f64,
    tick_p50_ns: f64,
    tick_p95_ns: f64,
    tick_p99_ns: f64,
    min_tick_ns: Option<f64>,
}

fn rep_timing<B: Backend, C: ClockSource>(
    served: &Served<B, C>,
    answers: &[Answer],
    need: usize,
) -> RepTiming {
    let completed = served.outcome.report.snapshot.total_completed();
    let mut ticks = served.clock.durations_ns();
    ticks.sort_by(f64::total_cmp);
    RepTiming {
        ns_per_completed: served.run.ns() / completed.max(1) as f64,
        tick_p50_ns: percentile(&ticks, 50.0),
        tick_p95_ns: percentile(&ticks, 95.0),
        tick_p99_ns: percentile(&ticks, 99.0),
        min_tick_ns: series(&served.clock).min_tick_ns(answers, need),
    }
}

/// Runs one workload as `opts` says.
///
/// # Errors
///
/// Set-up, assembly and serving failures; correctness failures are
/// reported in [`Report::errors`] instead.
pub fn run(opts: &Options) -> BenchResult<Report> {
    let (setup, first_setup_s) = timed_setup(opts)?;
    let mut setup_s = vec![first_setup_s];

    // The first rep is checked in full; every later one must replay it
    // bit for bit.
    let reference = plain_rep(&setup)?;
    let mut errors = gate(&setup, &reference);
    let expected = fingerprint(&reference.outcome);
    let report = &reference.outcome.report;
    let answers = answers(&setup, report);
    let need = (MET_SHARE * answers.len() as f64).ceil() as usize;
    let mut diverged = 0usize;
    for _ in 1..opts.warmup {
        let served = plain_rep(&setup)?;
        diverged += usize::from(fingerprint(&served.outcome) != expected);
    }
    // The remaining set-ups are spread over the timed phase, between
    // reps, so a slow spell of the host skews the set-up median no more
    // than it skews the reps'.
    let setup_every = opts.seconds / opts.setup_runs.max(1) as f64;
    let mut timings = Vec::new();
    let started = Instant::now();
    while timings.len() < opts.min_reps || started.elapsed().as_secs_f64() < opts.seconds {
        let served = plain_rep(&setup)?;
        diverged += usize::from(fingerprint(&served.outcome) != expected);
        timings.push(rep_timing(&served, &answers, need));
        if setup_s.len() < opts.setup_runs
            && started.elapsed().as_secs_f64() >= setup_every * setup_s.len() as f64
        {
            setup_s.push(timed_setup(opts)?.1);
        }
    }
    while setup_s.len() < opts.setup_runs {
        setup_s.push(timed_setup(opts)?.1);
    }
    if diverged > 0 {
        errors.push(format!(
            "{diverged} reps did not replay the first bit for bit"
        ));
    }
    if timings.iter().any(|t| t.min_tick_ns.is_none()) {
        errors.push(format!(
            "no tick duration up to 1 s lets {need} of {} answers meet their deadline",
            answers.len()
        ));
    }

    let reps = timings.len();
    let snapshot = &report.snapshot;
    let failed_per_rep = snapshot.total() - snapshot.total_completed();
    let ns: Vec<f64> = timings.iter().map(|t| t.ns_per_completed).collect();
    let p50: Vec<f64> = timings.iter().map(|t| t.tick_p50_ns).collect();
    let p95: Vec<f64> = timings.iter().map(|t| t.tick_p95_ns).collect();
    let p99: Vec<f64> = timings.iter().map(|t| t.tick_p99_ns).collect();
    let min_tick: Vec<f64> = timings
        .iter()
        .map(|t| t.min_tick_ns.unwrap_or(f64::NAN))
        .collect();
    let mut sorted_ns = ns.clone();
    sorted_ns.sort_by(f64::total_cmp);
    let ns_per_completed = percentile(&sorted_ns, 50.0);
    let mut notes = vec![
        format!(
            "{reps} timed reps after {} warm-up, {} requests each, {} loop passes (tick samples) per rep",
            opts.warmup.max(1),
            setup.trace.len(),
            reference.clock.ticks().len()
        ),
        format!(
            "ns_per_completed median {ns_per_completed:.1} ns, p90 {:.1} ns over {reps} reps",
            percentile(&sorted_ns, 90.0)
        ),
        format!(
            "min_tick_us: {need} of {} completed answers must meet their deadline; failed {failed_per_rep} of {} per rep",
            answers.len(),
            setup.trace.len()
        ),
        format!(
            "tick p99 median {:.3} us ({} ticks per rep, {} beyond it)",
            median(&p99) / 1e3,
            reference.clock.ticks().len(),
            reference.clock.ticks().len() / 100
        ),
        format!("setup_s over {} set-ups: {setup_s:.3?}", setup_s.len()),
    ];

    let mut per_layer = Vec::new();
    let mut spans = None;
    if opts.trace {
        let (traced, recorder) = traced_rep(&setup, SimClock)?;
        errors.extend(gate(&setup, &traced));
        if fingerprint(&traced.outcome) != expected {
            errors.push("the traced rep did not replay the untraced one bit for bit".into());
        }
        if traced.server.config_digest() != reference.server.config_digest() {
            errors.push("the timed router changed the config digest".into());
        }
        let recorder = recorder.borrow();
        if recorder.unidentified > 0 {
            errors.push(format!(
                "{} batch items had no request id",
                recorder.unidentified
            ));
        }
        per_layer = layers(
            &setup,
            &reference,
            &traced,
            &recorder,
            ns_per_completed,
            &mut notes,
        )?;
        spans = Some(spans_json(traced.run, &traced.clock, &recorder));
    }

    let manifest = Manifest::collect(
        setup.workload.name(),
        opts.seed,
        reference.server.config_digest(),
        setup.model.digest(),
        safex_serve::trace_digest(&setup.trace),
    );
    let spans = spans.map(|spans| {
        let mut root = Json::object();
        root.set("manifest", manifest.to_json()).set("spans", spans);
        root
    });
    let end_to_end = vec![
        metric("ns_per_completed", "ns", ns_per_completed),
        metric("tick_p50_us", "us", median(&p50) / 1e3),
        metric("tick_p95_us", "us", median(&p95) / 1e3),
        metric("min_tick_us", "us", median(&min_tick) / 1e3),
        metric("setup_s", "s", median(&setup_s)),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    Ok(Report {
        manifest,
        reps,
        attempted: (reps * setup.trace.len()) as u64,
        failed: reps as u64 * failed_per_rep,
        errors,
        end_to_end,
        per_layer,
        notes,
        spans,
    })
}

/// Builds the set-up and a fleet from it, returning the seconds taken.
fn timed_setup(opts: &Options) -> BenchResult<(Setup, f64)> {
    let start = Instant::now();
    let setup = Setup::build(opts.workload, opts.seed, opts.requests)?;
    black_box(setup.fleet(|_, pool| pool)?);
    Ok((setup, start.elapsed().as_secs_f64()))
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The per-layer metrics: the traced rep's split of wall time, the layer
/// probes on the workload's own inputs and config, and the exact counts.
fn layers(
    setup: &Setup,
    reference: &Served<PoolBackend, SimClock>,
    traced: &Served<TimedBackend<PoolBackend>, SimClock>,
    recorder: &Recorder,
    untraced_ns_per_completed: f64,
    notes: &mut Vec<String>,
) -> BenchResult<Vec<Metric>> {
    let report = &reference.outcome.report;
    let s = &report.snapshot;
    let requests = setup.trace.len() as f64;
    let completed = s.total_completed();
    let batches: u64 = s.models.iter().map(|m| m.batches).sum();
    let items: u64 = s.models.iter().map(|m| m.items).sum();

    // Backend + route + loop add up to the run's wall time by
    // construction: the loop is what the other two leave.
    let run_ns = traced.run.ns();
    let mut batch_ns: Vec<f64> = recorder.batches.iter().map(|b| b.call.ns()).collect();
    batch_ns.sort_by(f64::total_cmp);
    let serve_ns: f64 = batch_ns.iter().sum();
    let route_ns: f64 = recorder.routes.iter().map(Call::ns).sum();
    let loop_ns = run_ns - serve_ns - route_ns;
    notes.push(format!(
        "traced rep {:.3} ms = backend {:.1} % + route {:.1} % + loop {:.1} %",
        run_ns / 1e6,
        100.0 * serve_ns / run_ns,
        100.0 * route_ns / run_ns,
        100.0 * loop_ns / run_ns
    ));

    // The workload's request stream, payload by payload.
    let payloads: Vec<&[f32]> = setup
        .trace
        .arrivals()
        .iter()
        .map(|a| a.request.input.as_slice())
        .collect();
    let mut bare = Engine::new(setup.model.clone());
    let bare_ns = median_pass_ns(
        || (),
        |()| {
            for x in &payloads {
                black_box(bare.classify(x).map(|c| c.class).ok());
            }
        },
    ) / payloads.len() as f64;
    let mut hardened = setup.engine.clone();
    let hardened_ns = median_pass_ns(
        || (),
        |()| {
            for x in &payloads {
                black_box(hardened.classify(x).map(|c| c.class).ok());
            }
        },
    ) / payloads.len() as f64;
    const CRC_CALLS: usize = 256;
    let crc_ns = median_pass_ns(
        || (),
        |()| {
            for _ in 0..CRC_CALLS {
                black_box(hardened.verify_weights().is_ok());
            }
        },
    ) / CRC_CALLS as f64;
    const SWAP_CALLS: usize = 16;
    let mut incoming = PoolBackend::new(&setup.engine, WORKERS)?;
    let swap_ns = median_pass_ns(
        || (),
        |()| {
            for _ in 0..SWAP_CALLS {
                black_box(incoming.prepare_swap().is_ok());
            }
        },
    ) / SWAP_CALLS as f64;

    // The rep's own batches, through a 1-worker pool and a 2-worker one.
    let arrivals = setup.trace.arrivals();
    let recorded: Vec<Vec<&[f32]>> = recorder
        .batches
        .iter()
        .map(|b| {
            b.requests
                .iter()
                .map(|&id| arrivals[id as usize].request.input.as_slice())
                .collect()
        })
        .collect();
    let mut one = PoolBackend::new(&setup.engine, 1)?;
    let mut two = PoolBackend::new(&setup.engine, WORKERS)?;
    let replay = |pool: &mut PoolBackend| {
        let start = Instant::now();
        for batch in &recorded {
            black_box(pool.serve(batch).map(|v| v.len()).ok());
        }
        start.elapsed().as_nanos() as f64
    };
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        t1.push(replay(&mut one));
        t2.push(replay(&mut two));
    }
    let speedup = median(&t1) / median(&t2);

    // Cache-off workloads probe the 512-entry cache the others run.
    let cache_config = if setup.config.cache.enabled {
        setup.config.cache
    } else {
        CacheConfig::enabled(512)
    };
    let fill = |cache: &mut ResultCache| {
        for (i, x) in payloads.iter().enumerate() {
            cache.insert(x, setup.label(i as u64), 1.0, ModelId::new(0));
        }
    };
    let insert_ns = median_pass_ns(
        || ResultCache::new(cache_config),
        |mut cache| {
            fill(&mut cache);
            black_box(cache.len());
        },
    ) / requests;
    let mut cache = ResultCache::new(cache_config);
    fill(&mut cache);
    let lookup_ns = median_pass_ns(
        || (),
        |()| {
            for x in &payloads {
                black_box(cache.lookup(x).is_some());
            }
        },
    ) / requests;

    // The run's evidence records replayed onto a fresh chain; a run that
    // wrote none replays the server's commonest record, a cache hit.
    let mut records: Vec<(RecordKind, Vec<(String, Value)>)> = traced
        .server
        .evidence()
        .records()
        .iter()
        .map(|r| (r.kind, r.fields.clone()))
        .collect();
    if records.is_empty() {
        records.push((
            RecordKind::CacheHit,
            vec![
                ("server".into(), Value::Str("safex-serve".into())),
                ("at_tick".into(), Value::U64(0)),
                ("request".into(), Value::U64(0)),
                ("digest".into(), Value::Str(format!("{:016x}", 0u64))),
                ("model".into(), Value::Str(ModelId::new(0).to_string())),
            ],
        ));
    }
    let appends = records.len().max(REQUESTS);
    let append_ns = median_pass_ns(
        || {
            (
                EvidenceChain::new(setup.config.campaign.clone()),
                (0..appends)
                    .map(|i| records[i % records.len()].clone())
                    .collect::<Vec<_>>(),
            )
        },
        |(mut chain, batch)| {
            for (kind, fields) in batch {
                chain.append(kind, fields);
            }
            black_box(chain.head_hash());
        },
    ) / appends as f64;

    let bytes = match &traced.outcome.snapshot {
        Some(bytes) => bytes.clone(),
        None => capture_snapshot(setup)?,
    };
    const CODEC_CALLS: usize = 16;
    let decode_ns = median_pass_ns(
        || (),
        |()| {
            for _ in 0..CODEC_CALLS {
                black_box(ServerSnapshot::decode(&bytes).is_ok());
            }
        },
    ) / CODEC_CALLS as f64;
    let decoded = ServerSnapshot::decode(&bytes)?;
    let encode_ns = median_pass_ns(
        || (),
        |()| {
            for _ in 0..CODEC_CALLS {
                black_box(decoded.encode().len());
            }
        },
    ) / CODEC_CALLS as f64;

    let chain = reference.server.evidence();
    let hit_ratio = if s.cache_lookups == 0 {
        0.0
    } else {
        s.cache_hits as f64 / s.cache_lookups as f64
    };
    Ok(vec![
        metric(
            "serve.backend_ns_per_item",
            "ns",
            serve_ns / items.max(1) as f64,
        ),
        metric("serve.batch_ns_p50", "ns", percentile(&batch_ns, 50.0)),
        metric("serve.batch_ns_p99", "ns", percentile(&batch_ns, 99.0)),
        metric("serve.backend_share", "ratio", serve_ns / run_ns),
        metric(
            "serve.route_ns_per_decision",
            "ns",
            route_ns / recorder.routes.len().max(1) as f64,
        ),
        metric("serve.loop_ns_per_request", "ns", loop_ns / requests),
        metric("soak.prepare_swap_ns", "ns", swap_ns),
        metric("nn.bare_ns_per_item", "ns", bare_ns),
        metric("nn.hardened_ns_per_item", "ns", hardened_ns),
        metric("nn.crc_verify_ns", "ns", crc_ns),
        metric("pool.speedup", "ratio", speedup),
        metric("cache.lookup_ns", "ns", lookup_ns),
        metric("cache.insert_ns", "ns", insert_ns),
        metric("evidence.append_ns", "ns", append_ns),
        metric("snapshot.encode_ns", "ns", encode_ns),
        metric("snapshot.decode_ns", "ns", decode_ns),
        metric(
            "tracing.overhead_ratio",
            "ratio",
            run_ns / completed.max(1) as f64 / untraced_ns_per_completed,
        ),
        metric("serve.requests", "count", requests),
        metric("serve.completed", "count", completed as f64),
        metric("serve.cached", "count", s.total_cached() as f64),
        metric("serve.failed", "count", (s.total() - completed) as f64),
        metric("serve.batches", "count", batches as f64),
        metric(
            "serve.mean_batch",
            "items",
            items as f64 / batches.max(1) as f64,
        ),
        metric("serve.ticks", "count", reference.clock.ticks().len() as f64),
        metric(
            "serve.route_decisions",
            "count",
            recorder.routes.len() as f64,
        ),
        metric("serve.queue_peak", "count", s.peak_queue_depth as f64),
        metric("serve.latency_p50_ticks", "ticks", s.latency_p50 as f64),
        metric("serve.latency_p99_ticks", "ticks", s.latency_p99 as f64),
        metric("cache.hit_ratio", "ratio", hit_ratio),
        metric("evidence.records", "count", chain.len() as f64),
        metric(
            "health.transitions",
            "count",
            report.transitions.len() as f64,
        ),
        metric(
            "nn.corrected_faults",
            "count",
            chain.records_of_kind(RecordKind::FaultCorrected).len() as f64,
        ),
    ])
}

/// Median wall time in ns of [`PROBE_PASSES`] runs of `pass`, each given
/// a fresh `prepare()` value made outside the timing.
fn median_pass_ns<S>(mut prepare: impl FnMut() -> S, mut pass: impl FnMut(S)) -> f64 {
    let times: Vec<f64> = (0..PROBE_PASSES)
        .map(|_| {
            let state = prepare();
            let start = Instant::now();
            pass(state);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// Snapshot bytes for a workload whose plan captures none: an untimed
/// replay captured halfway through the trace.
fn capture_snapshot(setup: &Setup) -> BenchResult<Vec<u8>> {
    let mut server = Server::new(setup.config.clone(), setup.fleet(|_, pool| pool)?)?;
    let plan = OpsPlan::none().with_snapshot_at(setup.trace.len() as u64 / 2);
    server
        .run_soak(&setup.trace, plan, &mut SimClock)?
        .snapshot
        .ok_or_else(|| "the halfway snapshot was not captured".into())
}

/// `VmHWM`, the process's peak resident set, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
