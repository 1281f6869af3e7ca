//! Versioned, checksummed server snapshots.
//!
//! A snapshot freezes everything a process restart would otherwise lose:
//! per-member [`HealthMonitor`](safex_core::HealthMonitor) ladder state
//! (rung, windows, streaks, warn-budget consumption), mid-run loop state
//! (queue residue, in-flight batches, metrics counters, the event
//! clock), the result cache, the evidence chain, per-backend dispatch
//! clocks, and accumulated soak statistics. Restoring resumes the run
//! exactly where it left off instead of silently resetting every ladder
//! to Nominal — and a mid-traffic snapshot/restore reproduces the
//! uninterrupted run's replay JSON bit-for-bit.
//!
//! ## Wire format (version 2)
//!
//! ```text
//! "SXSNAP"  | 6 bytes  | magic
//! version   | u16 LE   | currently 2
//! length    | u64 LE   | payload byte count
//! payload   | ...      | field-by-field little-endian body
//! checksum  | u32 LE   | CRC-32 of the payload
//! ```
//!
//! Version 2 changed what the stored `trace_digest` means: it is a
//! [`WordHash`] over 64-bit words (see [`trace_digest`]), where version 1
//! ran FNV-1a byte by byte over every input float — ~13 ms per capture
//! on a 4 000-arrival trace. The layout is unchanged, but a version-1
//! digest can never match, so a version-1 snapshot is refused with the
//! version error rather than failing later as a trace mismatch.
//!
//! Capture cost follows the live state, not the trace: the trace digest
//! is fixed when the trace is built ([`ArrivalTrace::digest`]), and a
//! live capture encodes straight from borrowed server state through
//! `SnapshotView`, the one encode path ([`ServerSnapshot::encode`]
//! builds the same view from its owned fields).
//!
//! Decoding fails **closed**: a bad magic, unknown version, wrong
//! length, checksum mismatch, short read, invalid enum tag, or trailing
//! garbage all return [`ServeError::BadSnapshot`] and no partial state
//! is ever applied. Decoding is also panic-free: the non-test code of
//! this module denies `unwrap` and `expect`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use safex_core::health::{HealthState, LadderState, Transition};
use safex_nn::crc32;
use safex_trace::{RecordKind, Value, WordHash};

use crate::backend::BatchVerdict;
use crate::error::ServeError;
use crate::metrics::{Metrics, ModelCounters};
use crate::queue::Pending;
use crate::request::{ModelId, Outcome, Request, Response, ShedReason, Tier};
use crate::server::{InFlightBatch, ServiceTransition};
use crate::soak::{SoakStats, SwapEvent, WatchdogState};
use crate::traffic::ArrivalTrace;

/// Snapshot container magic.
pub const SNAPSHOT_MAGIC: &[u8; 6] = b"SXSNAP";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 2;

/// One evidence record as stored in a snapshot: kind and fields only.
/// Hashes are *recomputed* by re-appending on restore and verified
/// against the stored head, so a tampered chain cannot be smuggled in.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainEntry {
    /// The record kind.
    pub kind: RecordKind,
    /// The record's fields, in order.
    pub fields: Vec<(String, Value)>,
}

/// One cached verified result as stored in a snapshot (insertion order
/// is preserved so FIFO eviction resumes identically).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntrySnapshot {
    /// The exact input bits.
    pub input: Vec<f32>,
    /// Predicted class.
    pub class: usize,
    /// Winning confidence.
    pub confidence: f32,
    /// The member that computed the entry.
    pub model: ModelId,
}

/// Mid-run event-loop state.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSnapshot {
    /// Responses resolved so far.
    pub responses: Vec<Response>,
    /// Service transitions recorded so far.
    pub transitions: Vec<ServiceTransition>,
    /// Metrics counters mid-run.
    pub metrics: Metrics,
    /// Queue residue in admission order.
    pub queue_items: Vec<Pending>,
    /// Queue capacity bound.
    pub queue_cap: u64,
    /// Historical queue peak.
    pub queue_peak: u64,
    /// Batches executed but not yet retired.
    pub inflight: Vec<InFlightBatch>,
    /// Per-member busy-until ticks.
    pub free_at: Vec<u64>,
    /// Routing decisions made so far.
    pub decisions: u64,
    /// Index of the next arrival to admit.
    pub next_arrival: u64,
    /// The event clock at capture.
    pub now: u64,
    /// Whether the last dispatch round made no progress.
    pub stalled: bool,
    /// Watchdog bookkeeping.
    pub watchdog: WatchdogState,
    /// Soak statistics accumulated so far.
    pub stats: SoakStats,
}

/// A complete decoded snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSnapshot {
    /// Evidence-chain campaign name.
    pub campaign: String,
    /// Digest of the server configuration the snapshot belongs to.
    pub config_digest: u64,
    /// Digest of the arrival trace mid-replay.
    pub trace_digest: u64,
    /// Per-member ladder state, in member order.
    pub monitors: Vec<LadderState>,
    /// Result-cache entries in insertion order.
    pub cache_entries: Vec<CacheEntrySnapshot>,
    /// Evidence records in chain order.
    pub chain: Vec<ChainEntry>,
    /// Head hash the re-appended chain must reproduce.
    pub chain_head: u64,
    /// Per-member backend dispatch clocks.
    pub backend_clocks: Vec<u64>,
    /// Mid-run loop state.
    pub run: RunSnapshot,
}

impl RunSnapshot {
    /// The borrowed view [`SnapshotView::encode`] writes.
    fn view(&self) -> RunView<'_> {
        RunView {
            responses: &self.responses,
            transitions: &self.transitions,
            metrics: &self.metrics,
            queue_items: &self.queue_items,
            queue_cap: self.queue_cap,
            queue_peak: self.queue_peak,
            inflight: &self.inflight,
            free_at: &self.free_at,
            decisions: self.decisions,
            next_arrival: self.next_arrival,
            now: self.now,
            stalled: self.stalled,
            watchdog: &self.watchdog,
            stats: &self.stats,
        }
    }
}

/// Everything a snapshot stores, borrowed: the one encode path. A live
/// capture builds it from the server's state without copying the cache,
/// chain or run state, and [`ServerSnapshot::encode`] builds it from its
/// owned fields, so both write the same bytes.
pub(crate) struct SnapshotView<'a> {
    pub(crate) campaign: &'a str,
    pub(crate) config_digest: u64,
    pub(crate) trace_digest: u64,
    pub(crate) monitors: &'a [LadderState],
    /// Result-cache entries in insertion order: input, class,
    /// confidence, member.
    pub(crate) cache: Vec<(&'a [f32], usize, f32, ModelId)>,
    /// Evidence records in chain order: kind and fields.
    pub(crate) chain: Vec<(RecordKind, &'a [(String, Value)])>,
    pub(crate) chain_head: u64,
    pub(crate) backend_clocks: &'a [u64],
    pub(crate) run: RunView<'a>,
}

/// Mid-run loop state, borrowed (see [`RunSnapshot`] for the fields).
pub(crate) struct RunView<'a> {
    pub(crate) responses: &'a [Response],
    pub(crate) transitions: &'a [ServiceTransition],
    pub(crate) metrics: &'a Metrics,
    pub(crate) queue_items: &'a [Pending],
    pub(crate) queue_cap: u64,
    pub(crate) queue_peak: u64,
    pub(crate) inflight: &'a [InFlightBatch],
    pub(crate) free_at: &'a [u64],
    pub(crate) decisions: u64,
    pub(crate) next_arrival: u64,
    pub(crate) now: u64,
    pub(crate) stalled: bool,
    pub(crate) watchdog: &'a WatchdogState,
    pub(crate) stats: &'a SoakStats,
}

impl SnapshotView<'_> {
    /// Encodes to the versioned, checksummed wire format in one buffer:
    /// header, payload, then the patched length and the payload CRC.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::container(self.payload_estimate());
        w.str(self.campaign);
        w.u64(self.config_digest);
        w.u64(self.trace_digest);
        w.u64(self.monitors.len() as u64);
        for m in self.monitors {
            w.ladder(m);
        }
        w.u64(self.cache.len() as u64);
        for &(input, class, confidence, model) in &self.cache {
            w.f32s(input);
            w.u64(class as u64);
            w.f32(confidence);
            w.u16(model.index() as u16);
        }
        w.u64(self.chain.len() as u64);
        for &(kind, fields) in &self.chain {
            w.str(kind.tag());
            w.u64(fields.len() as u64);
            for (name, value) in fields {
                w.str(name);
                w.value(value);
            }
        }
        w.u64(self.chain_head);
        w.u64s(self.backend_clocks);
        w.run(&self.run);
        w.seal()
    }

    /// A payload size close to the encoded one, so the buffer is
    /// reserved once: exact for the float runs that dominate, a
    /// per-item allowance for the rest.
    fn payload_estimate(&self) -> usize {
        let run = &self.run;
        let request = |p: &Pending| 48 + 4 * p.request.input.len();
        let cache: usize = self.cache.iter().map(|e| 32 + 4 * e.0.len()).sum();
        let chain: usize = self.chain.iter().map(|e| 48 + 40 * e.1.len()).sum();
        let queue: usize = run.queue_items.iter().map(request).sum();
        let inflight: usize = run
            .inflight
            .iter()
            .flat_map(|b| &b.items)
            .map(|(p, _)| 24 + request(p))
            .sum();
        let latencies = run.metrics.latencies.len() * 16;
        1024 + cache + chain + queue + inflight + latencies + 48 * run.responses.len()
    }
}

impl ServerSnapshot {
    /// Encodes to the versioned, checksummed wire format, through the
    /// same `SnapshotView` path a live capture takes.
    pub fn encode(&self) -> Vec<u8> {
        SnapshotView {
            campaign: &self.campaign,
            config_digest: self.config_digest,
            trace_digest: self.trace_digest,
            monitors: &self.monitors,
            cache: self
                .cache_entries
                .iter()
                .map(|e| (e.input.as_slice(), e.class, e.confidence, e.model))
                .collect(),
            chain: self
                .chain
                .iter()
                .map(|e| (e.kind, e.fields.as_slice()))
                .collect(),
            chain_head: self.chain_head,
            backend_clocks: &self.backend_clocks,
            run: self.run.view(),
        }
        .encode()
    }

    /// Decodes and fully validates a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadSnapshot`] on any structural defect; no
    /// partially decoded state escapes.
    pub fn decode(bytes: &[u8]) -> Result<Self, ServeError> {
        let Some((header, rest)) = bytes.split_first_chunk::<HEADER>() else {
            return Err(bad("container shorter than the fixed header"));
        };
        let Some((payload, trailer)) = rest.split_last_chunk::<4>() else {
            return Err(bad("container shorter than the fixed header"));
        };
        if !header.starts_with(SNAPSHOT_MAGIC) {
            return Err(bad("bad magic"));
        }
        let [_, _, _, _, _, _, v0, v1, declared @ ..] = *header;
        let version = u16::from_le_bytes([v0, v1]);
        if version != SNAPSHOT_VERSION {
            return Err(ServeError::BadSnapshot(format!(
                "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
            )));
        }
        let len64 = u64::from_le_bytes(declared);
        // The declared payload length is attacker-controlled: compare against
        // the actual remainder (header + trailer already split off above)
        // rather than computing `16 + len + 4`, which overflows on a lie.
        if len64 != payload.len() as u64 {
            return Err(ServeError::BadSnapshot(format!(
                "container length {} does not match declared payload of {len64} bytes",
                bytes.len()
            )));
        }
        let stored = u32::from_le_bytes(*trailer);
        let actual = crc32(payload);
        if stored != actual {
            return Err(ServeError::BadSnapshot(format!(
                "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }

        let mut r = Reader::new(payload);
        let campaign = r.str()?;
        let config_digest = r.u64()?;
        let trace_digest = r.u64()?;
        let monitors = r.vec(|r| r.ladder())?;
        let cache_entries = r.vec(|r| {
            Ok(CacheEntrySnapshot {
                input: r.f32s()?,
                class: r.u64()? as usize,
                confidence: r.f32()?,
                model: ModelId::new(r.u16()?),
            })
        })?;
        let chain = r.vec(|r| {
            let tag = r.str()?;
            let kind = kind_from_tag(&tag)
                .ok_or_else(|| ServeError::BadSnapshot(format!("unknown record kind {tag:?}")))?;
            let fields = r.vec(|r| Ok((r.str()?, r.value()?)))?;
            Ok(ChainEntry { kind, fields })
        })?;
        let chain_head = r.u64()?;
        let backend_clocks = r.u64s()?;
        let run = r.run()?;
        r.finish()?;

        Ok(ServerSnapshot {
            campaign,
            config_digest,
            trace_digest,
            monitors,
            cache_entries,
            chain,
            chain_head,
            backend_clocks,
            run,
        })
    }

    /// The stored payload checksum of an encoded snapshot (the value the
    /// restore evidence record cites). `None` when the container is too
    /// short to carry one.
    pub fn stored_checksum(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < 20 {
            return None;
        }
        let (_, tail) = bytes.split_last_chunk::<4>()?;
        Some(u32::from_le_bytes(*tail))
    }
}

/// Digest of an arrival trace: at-ticks, ids, tiers, deadlines, pins,
/// and exact input bits, all absorbed as 64-bit words by one
/// [`WordHash`] (each input through its four-lane stripe loop). A
/// restored run refuses to resume against a trace with a different
/// digest. Snapshot version 2 introduced this digest.
pub fn trace_digest(trace: &ArrivalTrace) -> u64 {
    let mut h = WordHash::new();
    for a in trace.arrivals() {
        h.write_u64(a.at);
        h.write_u64(a.request.id);
        h.write_u64(a.request.tier.index() as u64);
        h.write_u64(a.request.deadline);
        match a.request.model {
            Some(m) => {
                h.write_u64(1);
                h.write_u64(m.index() as u64);
            }
            None => h.write_u64(0),
        }
        h.write_f32s(&a.request.input);
    }
    h.finish()
}

fn bad(msg: &str) -> ServeError {
    ServeError::BadSnapshot(msg.into())
}

fn kind_from_tag(tag: &str) -> Option<RecordKind> {
    Some(match tag {
        "dataset_generated" => RecordKind::DatasetGenerated,
        "model_trained" => RecordKind::ModelTrained,
        "model_quantized" => RecordKind::ModelQuantized,
        "monitor_calibrated" => RecordKind::MonitorCalibrated,
        "inference_performed" => RecordKind::InferencePerformed,
        "monitor_verdict" => RecordKind::MonitorVerdict,
        "pattern_decision" => RecordKind::PatternDecision,
        "explanation_produced" => RecordKind::ExplanationProduced,
        "timing_analysis" => RecordKind::TimingAnalysis,
        "verification_outcome" => RecordKind::VerificationOutcome,
        "health_transition" => RecordKind::HealthTransition,
        "fault_corrected" => RecordKind::FaultCorrected,
        "cache_hit" => RecordKind::CacheHit,
        "runtime_restored" => RecordKind::RuntimeRestored,
        "model_swapped" => RecordKind::ModelSwapped,
        "swap_aborted" => RecordKind::SwapAborted,
        "watchdog_alarm" => RecordKind::WatchdogAlarm,
        "watchdog_escalation" => RecordKind::WatchdogEscalation,
        "watchdog_proof" => RecordKind::WatchdogProof,
        _ => return None,
    })
}

fn state_tag(state: HealthState) -> u8 {
    match state {
        HealthState::Nominal => 0,
        HealthState::Degraded => 1,
        HealthState::SafeStop => 2,
    }
}

fn state_from(tag: u8) -> Result<HealthState, ServeError> {
    Ok(match tag {
        0 => HealthState::Nominal,
        1 => HealthState::Degraded,
        2 => HealthState::SafeStop,
        _ => {
            return Err(ServeError::BadSnapshot(format!(
                "bad health state tag {tag}"
            )))
        }
    })
}

fn tier_from(tag: u8) -> Result<Tier, ServeError> {
    Ok(match tag {
        0 => Tier::Low,
        1 => Tier::Medium,
        2 => Tier::High,
        _ => return Err(ServeError::BadSnapshot(format!("bad tier tag {tag}"))),
    })
}

/// Container header: magic, version, payload length.
const HEADER: usize = 16;

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A container buffer with room for a `payload`-byte body, its header
    /// written with a zero length that [`Writer::seal`] patches.
    fn container(payload: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER + payload + 4);
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        Writer { buf }
    }

    /// Patches the payload length into the header and appends the
    /// payload's CRC.
    fn seal(mut self) -> Vec<u8> {
        let (header, payload) = self.buf.split_at_mut(HEADER);
        header[HEADER - 8..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        let checksum = crc32(payload);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A length, then `vs` as one run of `N`-byte words, written in
    /// place after a single resize.
    fn words<T, const N: usize>(&mut self, vs: &[T], bytes: impl Fn(&T) -> [u8; N]) {
        self.u64(vs.len() as u64);
        let start = self.buf.len();
        self.buf.resize(start + N * vs.len(), 0);
        for (out, v) in self.buf[start..].as_chunks_mut::<N>().0.iter_mut().zip(vs) {
            *out = bytes(v);
        }
    }

    fn f32s(&mut self, vs: &[f32]) {
        self.words(vs, |v| v.to_bits().to_le_bytes());
    }

    fn u64s(&mut self, vs: &[u64]) {
        self.words(vs, |v| v.to_le_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Str(s) => {
                self.u8(0);
                self.str(s);
            }
            Value::U64(n) => {
                self.u8(1);
                self.u64(*n);
            }
            Value::F64(x) => {
                self.u8(2);
                self.u64(x.to_bits());
            }
            Value::Bool(b) => {
                self.u8(3);
                self.bool(*b);
            }
            // `Value` is #[non_exhaustive]; a future variant degrades to
            // its display form rather than corrupting the container.
            other => {
                self.u8(0);
                self.str(&format!("{other:?}"));
            }
        }
    }

    fn ladder(&mut self, m: &LadderState) {
        self.u8(state_tag(m.state));
        self.u64(m.history);
        self.u64(m.warn_history);
        self.u32(m.clean_streak);
        self.u64(m.decisions);
        for &t in &m.time_in {
            self.u64(t);
        }
        self.u64(m.transitions.len() as u64);
        for t in &m.transitions {
            self.u8(state_tag(t.from));
            self.u8(state_tag(t.to));
            self.u64(t.at_decision);
        }
    }

    fn request(&mut self, rq: &Request) {
        self.u64(rq.id);
        self.f32s(&rq.input);
        self.u8(rq.tier.index() as u8);
        self.u64(rq.deadline);
        match rq.model {
            Some(m) => {
                self.u8(1);
                self.u16(m.index() as u16);
            }
            None => self.u8(0),
        }
    }

    fn pending(&mut self, p: &Pending) {
        self.request(&p.request);
        self.u64(p.queued_at);
    }

    fn outcome(&mut self, o: &Outcome) {
        match o {
            Outcome::Completed {
                class,
                confidence,
                flagged,
                level,
                model,
                cached,
            } => {
                self.u8(0);
                self.u64(*class as u64);
                self.f32(*confidence);
                self.bool(*flagged);
                self.u8(state_tag(*level));
                self.u16(model.index() as u16);
                self.bool(*cached);
            }
            Outcome::Shed(reason) => {
                self.u8(1);
                match reason {
                    ShedReason::QueueFull => self.u8(0),
                    ShedReason::Displaced { by } => {
                        self.u8(1);
                        self.u64(*by);
                    }
                    ShedReason::DegradedTier { model } => {
                        self.u8(2);
                        self.u16(model.index() as u16);
                    }
                }
            }
            Outcome::Timeout => self.u8(2),
            Outcome::SafeStop { model } => {
                self.u8(3);
                match model {
                    Some(m) => {
                        self.u8(1);
                        self.u16(m.index() as u16);
                    }
                    None => self.u8(0),
                }
            }
        }
    }

    fn verdict(&mut self, v: &BatchVerdict) {
        match v {
            BatchVerdict::Ok {
                class,
                confidence,
                flagged,
                corrected,
            } => {
                self.u8(0);
                self.u64(*class as u64);
                self.f32(*confidence);
                self.bool(*flagged);
                self.bool(*corrected);
            }
            BatchVerdict::Stop => self.u8(1),
        }
    }

    fn run(&mut self, run: &RunView<'_>) {
        self.u64(run.responses.len() as u64);
        for r in run.responses {
            self.u64(r.id);
            self.u8(r.tier.index() as u8);
            self.u64(r.arrived_at);
            self.u64(r.resolved_at);
            self.outcome(&r.outcome);
        }
        self.u64(run.transitions.len() as u64);
        for t in run.transitions {
            self.u16(t.model.index() as u16);
            self.u8(state_tag(t.from));
            self.u8(state_tag(t.to));
            self.u64(t.at_tick);
            self.u64(t.after_request);
        }
        // Metrics.
        let m = run.metrics;
        self.u64s(&m.latencies);
        for tier in &m.tier_latencies {
            self.u64s(tier);
        }
        self.u64(m.batch_sizes.len() as u64);
        for (&size, &n) in &m.batch_sizes {
            self.u64(size as u64);
            self.u64(n);
        }
        for arr in [
            &m.completed,
            &m.cached,
            &m.shed_queue_full,
            &m.shed_displaced,
            &m.shed_degraded,
            &m.timeout,
            &m.safe_stop,
        ] {
            for &v in arr.iter() {
                self.u64(v);
            }
        }
        self.u64(m.peak_queue_depth as u64);
        self.u64(m.cache_lookups);
        self.u64(m.cache_hits);
        self.u64(m.models.len() as u64);
        for mc in &m.models {
            self.u64(mc.batches);
            self.u64(mc.items);
            self.u64(mc.completed);
        }
        // Queue.
        self.u64(run.queue_items.len() as u64);
        for p in run.queue_items {
            self.pending(p);
        }
        self.u64(run.queue_cap);
        self.u64(run.queue_peak);
        // In-flight batches.
        self.u64(run.inflight.len() as u64);
        for b in run.inflight {
            self.u16(b.model.index() as u16);
            self.u64(b.done_at);
            self.u64(b.items.len() as u64);
            for (p, v) in &b.items {
                self.pending(p);
                self.verdict(v);
            }
        }
        self.u64s(run.free_at);
        self.u64(run.decisions);
        self.u64(run.next_arrival);
        self.u64(run.now);
        self.bool(run.stalled);
        // Watchdog.
        for &v in &run.watchdog.last_progress {
            self.u64(v);
        }
        for &v in &run.watchdog.strikes {
            self.u32(v);
        }
        self.u64(run.watchdog.next_proof);
        // Soak stats.
        self.u64(run.stats.swaps.len() as u64);
        for s in &run.stats.swaps {
            self.u16(s.model.index() as u16);
            self.u64(s.requested_at);
            self.u64(s.resolved_at);
            self.bool(s.committed);
            self.u64(s.digest);
        }
        for &v in &run.stats.watchdog_kicks {
            self.u64(v);
        }
        self.u64(run.stats.watchdog_alarms);
        self.u64(run.stats.watchdog_escalations);
        self.u64(run.stats.watchdog_proofs);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| bad("payload truncated"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn finish(&self) -> Result<(), ServeError> {
        if self.pos != self.bytes.len() {
            return Err(ServeError::BadSnapshot(format!(
                "{} trailing bytes after the last field",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ServeError> {
        let (head, _) = self
            .bytes
            .get(self.pos..)
            .and_then(<[u8]>::split_first_chunk::<N>)
            .ok_or_else(|| bad("payload truncated"))?;
        self.pos += N;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        let [b] = self.array()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, ServeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f32(&mut self) -> Result<f32, ServeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn bool(&mut self) -> Result<bool, ServeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ServeError::BadSnapshot(format!("bad bool byte {other}"))),
        }
    }

    fn len(&mut self) -> Result<usize, ServeError> {
        let n = self.u64()? as usize;
        // A length can never exceed the bytes that remain; rejecting here
        // keeps a corrupted length from attempting a huge allocation.
        if n > self.bytes.len().saturating_sub(self.pos) {
            return Err(bad("length field exceeds remaining payload"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, ServeError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string field is not UTF-8"))
    }

    /// `n` fixed-width elements as one slice of `n * N` bytes.
    fn words<const N: usize>(&mut self) -> Result<&'a [[u8; N]], ServeError> {
        let n = self.len()?;
        let bytes = self.take(n.checked_mul(N).ok_or_else(|| bad("payload truncated"))?)?;
        Ok(bytes.as_chunks::<N>().0)
    }

    fn f32s(&mut self) -> Result<Vec<f32>, ServeError> {
        let words = self.words::<4>()?;
        Ok(words
            .iter()
            .map(|&w| f32::from_bits(u32::from_le_bytes(w)))
            .collect())
    }

    fn u64s(&mut self) -> Result<Vec<u64>, ServeError> {
        Ok(self
            .words::<8>()?
            .iter()
            .map(|&w| u64::from_le_bytes(w))
            .collect())
    }

    fn vec<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, ServeError>,
    ) -> Result<Vec<T>, ServeError> {
        let n = self.len()?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn value(&mut self) -> Result<Value, ServeError> {
        Ok(match self.u8()? {
            0 => Value::Str(self.str()?),
            1 => Value::U64(self.u64()?),
            2 => Value::F64(f64::from_bits(self.u64()?)),
            3 => Value::Bool(self.bool()?),
            other => return Err(ServeError::BadSnapshot(format!("bad value tag {other}"))),
        })
    }

    fn ladder(&mut self) -> Result<LadderState, ServeError> {
        let state = state_from(self.u8()?)?;
        let history = self.u64()?;
        let warn_history = self.u64()?;
        let clean_streak = self.u32()?;
        let decisions = self.u64()?;
        let time_in = [self.u64()?, self.u64()?, self.u64()?];
        let transitions = self.vec(|r| {
            Ok(Transition {
                from: state_from(r.u8()?)?,
                to: state_from(r.u8()?)?,
                at_decision: r.u64()?,
            })
        })?;
        Ok(LadderState {
            state,
            history,
            warn_history,
            clean_streak,
            decisions,
            time_in,
            transitions,
        })
    }

    fn request(&mut self) -> Result<Request, ServeError> {
        let id = self.u64()?;
        let input = self.f32s()?;
        let tier = tier_from(self.u8()?)?;
        let deadline = self.u64()?;
        let model = match self.u8()? {
            0 => None,
            1 => Some(ModelId::new(self.u16()?)),
            other => return Err(ServeError::BadSnapshot(format!("bad pin tag {other}"))),
        };
        Ok(Request {
            id,
            input,
            tier,
            deadline,
            model,
        })
    }

    fn pending(&mut self) -> Result<Pending, ServeError> {
        Ok(Pending {
            request: self.request()?,
            queued_at: self.u64()?,
        })
    }

    fn outcome(&mut self) -> Result<Outcome, ServeError> {
        Ok(match self.u8()? {
            0 => Outcome::Completed {
                class: self.u64()? as usize,
                confidence: self.f32()?,
                flagged: self.bool()?,
                level: state_from(self.u8()?)?,
                model: ModelId::new(self.u16()?),
                cached: self.bool()?,
            },
            1 => Outcome::Shed(match self.u8()? {
                0 => ShedReason::QueueFull,
                1 => ShedReason::Displaced { by: self.u64()? },
                2 => ShedReason::DegradedTier {
                    model: ModelId::new(self.u16()?),
                },
                other => return Err(ServeError::BadSnapshot(format!("bad shed tag {other}"))),
            }),
            2 => Outcome::Timeout,
            3 => Outcome::SafeStop {
                model: match self.u8()? {
                    0 => None,
                    1 => Some(ModelId::new(self.u16()?)),
                    other => return Err(ServeError::BadSnapshot(format!("bad stop tag {other}"))),
                },
            },
            other => return Err(ServeError::BadSnapshot(format!("bad outcome tag {other}"))),
        })
    }

    fn verdict(&mut self) -> Result<BatchVerdict, ServeError> {
        Ok(match self.u8()? {
            0 => BatchVerdict::Ok {
                class: self.u64()? as usize,
                confidence: self.f32()?,
                flagged: self.bool()?,
                corrected: self.bool()?,
            },
            1 => BatchVerdict::Stop,
            other => return Err(ServeError::BadSnapshot(format!("bad verdict tag {other}"))),
        })
    }

    fn run(&mut self) -> Result<RunSnapshot, ServeError> {
        let responses = self.vec(|r| {
            Ok(Response {
                id: r.u64()?,
                tier: tier_from(r.u8()?)?,
                arrived_at: r.u64()?,
                resolved_at: r.u64()?,
                outcome: r.outcome()?,
            })
        })?;
        let transitions = self.vec(|r| {
            Ok(ServiceTransition {
                model: ModelId::new(r.u16()?),
                from: state_from(r.u8()?)?,
                to: state_from(r.u8()?)?,
                at_tick: r.u64()?,
                after_request: r.u64()?,
            })
        })?;
        let latencies = self.u64s()?;
        let tier_latencies = [self.u64s()?, self.u64s()?, self.u64s()?];
        let mut batch_sizes = std::collections::BTreeMap::new();
        let pairs = self.len()?;
        for _ in 0..pairs {
            let size = self.u64()? as usize;
            let n = self.u64()?;
            if batch_sizes.insert(size, n).is_some() {
                return Err(bad("duplicate batch-size key"));
            }
        }
        let mut tier3 =
            || -> Result<[u64; 3], ServeError> { Ok([self.u64()?, self.u64()?, self.u64()?]) };
        let completed = tier3()?;
        let cached = tier3()?;
        let shed_queue_full = tier3()?;
        let shed_displaced = tier3()?;
        let shed_degraded = tier3()?;
        let timeout = tier3()?;
        let safe_stop = tier3()?;
        let peak_queue_depth = self.u64()? as usize;
        let cache_lookups = self.u64()?;
        let cache_hits = self.u64()?;
        let models = self.vec(|r| {
            Ok(ModelCounters {
                batches: r.u64()?,
                items: r.u64()?,
                completed: r.u64()?,
            })
        })?;
        let metrics = Metrics {
            latencies,
            tier_latencies,
            batch_sizes,
            completed,
            cached,
            shed_queue_full,
            shed_displaced,
            shed_degraded,
            timeout,
            safe_stop,
            peak_queue_depth,
            cache_lookups,
            cache_hits,
            models,
        };
        let queue_items = self.vec(|r| r.pending())?;
        let queue_cap = self.u64()?;
        let queue_peak = self.u64()?;
        let inflight = self.vec(|r| {
            Ok(InFlightBatch {
                model: ModelId::new(r.u16()?),
                done_at: r.u64()?,
                items: r.vec(|r| Ok((r.pending()?, r.verdict()?)))?,
            })
        })?;
        let free_at = self.u64s()?;
        let decisions = self.u64()?;
        let next_arrival = self.u64()?;
        let now = self.u64()?;
        let stalled = self.bool()?;
        let watchdog = WatchdogState {
            last_progress: [self.u64()?, self.u64()?, self.u64()?, self.u64()?],
            strikes: [self.u32()?, self.u32()?, self.u32()?, self.u32()?],
            next_proof: self.u64()?,
        };
        let swaps = self.vec(|r| {
            Ok(SwapEvent {
                model: ModelId::new(r.u16()?),
                requested_at: r.u64()?,
                resolved_at: r.u64()?,
                committed: r.bool()?,
                digest: r.u64()?,
            })
        })?;
        let stats = SoakStats {
            swaps,
            watchdog_kicks: [self.u64()?, self.u64()?, self.u64()?, self.u64()?],
            watchdog_alarms: self.u64()?,
            watchdog_escalations: self.u64()?,
            watchdog_proofs: self.u64()?,
        };
        Ok(RunSnapshot {
            responses,
            transitions,
            metrics,
            queue_items,
            queue_cap,
            queue_peak,
            inflight,
            free_at,
            decisions,
            next_arrival,
            now,
            stalled,
            watchdog,
            stats,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> ServerSnapshot {
        ServerSnapshot {
            campaign: "soak".into(),
            config_digest: 0xDEAD,
            trace_digest: 0xBEEF,
            monitors: vec![LadderState {
                state: HealthState::Degraded,
                history: 0b101,
                warn_history: 0b1,
                clean_streak: 2,
                decisions: 40,
                time_in: [30, 10, 0],
                transitions: vec![Transition {
                    from: HealthState::Nominal,
                    to: HealthState::Degraded,
                    at_decision: 31,
                }],
            }],
            cache_entries: vec![CacheEntrySnapshot {
                input: vec![0.25, -1.5],
                class: 3,
                confidence: 0.75,
                model: ModelId::new(0),
            }],
            chain: vec![ChainEntry {
                kind: RecordKind::HealthTransition,
                fields: vec![
                    ("server".into(), Value::Str("safex-serve".into())),
                    ("at_tick".into(), Value::U64(99)),
                    ("score".into(), Value::F64(0.5)),
                    ("ok".into(), Value::Bool(true)),
                ],
            }],
            chain_head: 0x1234,
            backend_clocks: vec![40],
            run: RunSnapshot {
                responses: vec![Response {
                    id: 0,
                    tier: Tier::High,
                    arrived_at: 1,
                    resolved_at: 5,
                    outcome: Outcome::Completed {
                        class: 1,
                        confidence: 0.9,
                        flagged: false,
                        level: HealthState::Nominal,
                        model: ModelId::new(0),
                        cached: false,
                    },
                }],
                transitions: vec![],
                metrics: Metrics::new(1),
                queue_items: vec![Pending {
                    request: Request {
                        id: 7,
                        input: vec![1.0],
                        tier: Tier::Low,
                        deadline: 400,
                        model: None,
                    },
                    queued_at: 90,
                }],
                queue_cap: 64,
                queue_peak: 3,
                inflight: vec![InFlightBatch {
                    model: ModelId::new(0),
                    done_at: 120,
                    items: vec![(
                        Pending {
                            request: Request {
                                id: 8,
                                input: vec![2.0],
                                tier: Tier::Medium,
                                deadline: 300,
                                model: Some(ModelId::new(0)),
                            },
                            queued_at: 95,
                        },
                        BatchVerdict::Ok {
                            class: 2,
                            confidence: 0.6,
                            flagged: false,
                            corrected: true,
                        },
                    )],
                }],
                free_at: vec![120],
                decisions: 11,
                next_arrival: 9,
                now: 100,
                stalled: false,
                watchdog: WatchdogState {
                    last_progress: [100, 90, 95, 80],
                    strikes: [0, 1, 0, 0],
                    next_proof: 128,
                },
                stats: SoakStats::default(),
            },
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let snap = tiny_snapshot();
        let bytes = snap.encode();
        let back = ServerSnapshot::decode(&bytes).unwrap();
        assert_eq!(snap, back);
        assert!(ServerSnapshot::stored_checksum(&bytes).is_some());
    }

    #[test]
    fn every_truncation_fails_closed() {
        let bytes = tiny_snapshot().encode();
        for len in 0..bytes.len() {
            assert!(
                ServerSnapshot::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
    }

    #[test]
    fn any_flipped_byte_fails_closed() {
        let bytes = tiny_snapshot().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                ServerSnapshot::decode(&bad).is_err(),
                "flip at byte {i} must fail"
            );
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let bytes = tiny_snapshot().encode();
        let mut wrong_version = bytes.clone();
        wrong_version[6] = 9;
        assert!(matches!(
            ServerSnapshot::decode(&wrong_version),
            Err(ServeError::BadSnapshot(msg)) if msg.contains("version")
        ));
        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        assert!(ServerSnapshot::decode(&wrong_magic).is_err());
    }

    #[test]
    fn version_one_snapshot_is_refused_with_the_version_error() {
        // A version-1 container is otherwise well formed (valid length and
        // checksum), but its trace digest meant something else.
        let mut v1 = tiny_snapshot().encode();
        v1[6..8].copy_from_slice(&1u16.to_le_bytes());
        match ServerSnapshot::decode(&v1) {
            Err(ServeError::BadSnapshot(msg)) => assert_eq!(
                msg,
                format!("unsupported snapshot version 1 (expected {SNAPSHOT_VERSION})")
            ),
            other => panic!("want the version error, got {other:?}"),
        }
    }

    #[test]
    fn trace_digest_known_answer() {
        // Pinned: snapshots store this digest, so any change to it (or to
        // `WordHash`) must bump SNAPSHOT_VERSION.
        use crate::traffic::Arrival;
        let arrival = |id: u64, at: u64, tier, model, input: Vec<f32>| Arrival {
            at,
            request: Request {
                id,
                input,
                tier,
                deadline: at + 100,
                model,
            },
        };
        let trace = ArrivalTrace::from_arrivals(vec![
            arrival(0, 0, Tier::High, None, vec![0.5, -1.25, 3.0]),
            arrival(
                1,
                4,
                Tier::Low,
                Some(ModelId::new(2)),
                (0..17).map(|i| i as f32 * 0.125).collect(),
            ),
            arrival(2, 4, Tier::Medium, None, vec![]),
        ])
        .unwrap();
        assert_eq!(trace_digest(&trace), 0x7dbc_ca35_c3f1_986d);
    }

    #[test]
    fn trace_digest_distinguishes_traces() {
        use crate::traffic::TrafficConfig;
        let inputs = vec![vec![0.1, 0.2], vec![0.3, 0.4]];
        let a = TrafficConfig::default().synthesize(&inputs).unwrap();
        let b = TrafficConfig {
            seed: 0x1234,
            ..TrafficConfig::default()
        }
        .synthesize(&inputs)
        .unwrap();
        assert_eq!(trace_digest(&a), trace_digest(&a));
        assert_ne!(trace_digest(&a), trace_digest(&b));
    }
}
