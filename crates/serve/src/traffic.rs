//! Recorded arrival traces and deterministic traffic synthesis.
//!
//! The server never reads a wall clock: it replays an [`ArrivalTrace`]
//! under a simulated tick clock, so batch formation — and therefore every
//! response — is a pure function of `(trace, config, model)`. Replaying
//! the same trace reproduces the full report byte for byte, which is what
//! turns a load test into certification evidence.

use safex_tensor::DetRng;

use crate::error::ServeError;
use crate::request::{Request, Tier};
use crate::snapshot::trace_digest;

/// One timestamped arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Arrival tick (non-decreasing along the trace).
    pub at: u64,
    /// The request that arrived.
    pub request: Request,
}

/// A recorded request stream: the replayable unit of serving load.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
    /// [`trace_digest`] of `arrivals`, computed once: a trace never
    /// changes after construction, so snapshot capture and restore read
    /// this instead of re-hashing every input.
    digest: u64,
}

impl Default for ArrivalTrace {
    fn default() -> Self {
        ArrivalTrace::sealed(Vec::new())
    }
}

impl ArrivalTrace {
    /// Wraps validated arrivals and fixes their digest.
    fn sealed(arrivals: Vec<Arrival>) -> Self {
        let mut trace = ArrivalTrace {
            arrivals,
            digest: 0,
        };
        trace.digest = trace_digest(&trace);
        trace
    }

    /// Builds a trace from explicit arrivals.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadTrace`] when arrival times decrease, an
    /// id differs from its position, or a deadline precedes its arrival.
    pub fn from_arrivals(arrivals: Vec<Arrival>) -> Result<Self, ServeError> {
        let mut last = 0u64;
        for (i, a) in arrivals.iter().enumerate() {
            if a.at < last {
                return Err(ServeError::BadTrace(format!(
                    "arrival {i} at tick {} after tick {last}",
                    a.at
                )));
            }
            if a.request.id != i as u64 {
                return Err(ServeError::BadTrace(format!(
                    "arrival {i} carries id {} (ids must equal position)",
                    a.request.id
                )));
            }
            if a.request.deadline <= a.at {
                return Err(ServeError::BadTrace(format!(
                    "request {i} deadline {} not after arrival {}",
                    a.request.deadline, a.at
                )));
            }
            last = a.at;
        }
        Ok(ArrivalTrace::sealed(arrivals))
    }

    /// The trace's [`trace_digest`], computed when the trace was built.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The arrivals, in time order.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// Parameters for synthetic Poisson-like traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Seed for the inter-arrival and tier streams.
    pub seed: u64,
    /// Number of requests to synthesise.
    pub requests: usize,
    /// Mean inter-arrival gap in ticks (exponential, rounded, min 1).
    pub mean_interarrival: f64,
    /// Relative deadline in ticks (absolute deadline = arrival + this).
    pub deadline: u64,
    /// Relative weights for drawing `[Low, Medium, High]` tiers.
    pub tier_weights: [u32; 3],
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0x5EEB,
            requests: 256,
            mean_interarrival: 8.0,
            deadline: 200,
            tier_weights: [2, 1, 1],
        }
    }
}

impl TrafficConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for zero requests, a
    /// non-positive mean gap, a zero deadline, or all-zero tier weights.
    pub fn validate(&self) -> Result<(), ServeError> {
        let bad = |msg: String| Err(ServeError::BadConfig(msg));
        if self.requests == 0 {
            return bad("traffic needs at least one request".into());
        }
        if !self.mean_interarrival.is_finite() || self.mean_interarrival <= 0.0 {
            return bad(format!(
                "mean inter-arrival must be positive, got {}",
                self.mean_interarrival
            ));
        }
        if self.deadline == 0 {
            return bad("relative deadline must be at least one tick".into());
        }
        if self.tier_weights.iter().all(|&w| w == 0) {
            return bad("tier weights must not all be zero".into());
        }
        Ok(())
    }

    /// Synthesises a trace, cycling `inputs` by request index.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for an invalid config or empty
    /// inputs.
    pub fn synthesize(&self, inputs: &[Vec<f32>]) -> Result<ArrivalTrace, ServeError> {
        self.validate()?;
        if inputs.is_empty() {
            return Err(ServeError::BadConfig(
                "traffic needs inputs to cycle".into(),
            ));
        }
        let mut rng = DetRng::new(self.seed);
        let rate = 1.0 / self.mean_interarrival;
        let total: u64 = self.tier_weights.iter().map(|&w| u64::from(w)).sum();
        let mut at = 0u64;
        let arrivals = (0..self.requests)
            .map(|i| {
                let gap = rng.exponential(rate).round().max(1.0) as u64;
                at += gap;
                let draw = rng.below_usize(total as usize) as u64;
                let tier = if draw < u64::from(self.tier_weights[0]) {
                    Tier::Low
                } else if draw < u64::from(self.tier_weights[0] + self.tier_weights[1]) {
                    Tier::Medium
                } else {
                    Tier::High
                };
                Arrival {
                    at,
                    request: Request::new(
                        i as u64,
                        inputs[i % inputs.len()].clone(),
                        tier,
                        at + self.deadline,
                    ),
                }
            })
            .collect();
        ArrivalTrace::from_arrivals(arrivals)
    }
}

/// A deterministic shape for replaying a recorded payload sequence —
/// e.g. the observation stream of a falsifier counterexample episode —
/// as serving load.
///
/// Unlike [`TrafficConfig`], nothing is drawn from an RNG and inputs are
/// not cycled: request `i` carries payload `i` exactly, so a temporal
/// workload's frame order survives the trip through the server. The
/// shape only decides *pacing*: requests arrive in bursts of `burst`
/// sharing one tick, consecutive bursts `gap` ticks apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficShape {
    /// Tick of the first burst (the trace's earliest arrival).
    pub start: u64,
    /// Requests per burst; a whole burst shares one arrival tick.
    pub burst: usize,
    /// Gap in ticks between consecutive bursts.
    pub gap: u64,
    /// Tier every shaped request carries.
    pub tier: Tier,
    /// Relative deadline in ticks (absolute deadline = arrival + this).
    pub deadline: u64,
}

impl Default for TrafficShape {
    fn default() -> Self {
        TrafficShape {
            start: 1,
            burst: 1,
            gap: 4,
            tier: Tier::High,
            deadline: 200,
        }
    }
}

impl TrafficShape {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for a zero burst, gap, or
    /// deadline.
    pub fn validate(&self) -> Result<(), ServeError> {
        let bad = |msg: &str| Err(ServeError::BadConfig(msg.into()));
        if self.burst == 0 {
            return bad("burst must contain at least one request");
        }
        if self.gap == 0 {
            return bad("burst gap must be at least one tick");
        }
        if self.deadline == 0 {
            return bad("relative deadline must be at least one tick");
        }
        Ok(())
    }

    /// Shapes the payload sequence into a trace: one request per input,
    /// in order, paced by the burst structure. A pure function of
    /// `(shape, inputs)` — replaying the same pair reproduces the trace
    /// byte for byte.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for invalid parameters or an
    /// empty payload sequence.
    pub fn shape(&self, inputs: &[Vec<f32>]) -> Result<ArrivalTrace, ServeError> {
        self.validate()?;
        if inputs.is_empty() {
            return Err(ServeError::BadConfig(
                "a traffic shape needs payloads to carry".into(),
            ));
        }
        let arrivals = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let at = self.start + (i / self.burst) as u64 * self.gap;
                Arrival {
                    at,
                    request: Request::new(i as u64, input.clone(), self.tier, at + self.deadline),
                }
            })
            .collect();
        ArrivalTrace::from_arrivals(arrivals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> Vec<Vec<f32>> {
        vec![vec![0.1, 0.2], vec![0.3, 0.4]]
    }

    #[test]
    fn synthesis_is_deterministic() {
        let cfg = TrafficConfig::default();
        let a = cfg.synthesize(&inputs()).unwrap();
        let b = cfg.synthesize(&inputs()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.requests);
        let other = TrafficConfig { seed: 1, ..cfg }
            .synthesize(&inputs())
            .unwrap();
        assert_ne!(a, other, "a different seed must change the trace");
    }

    #[test]
    fn synthesis_draws_every_tier() {
        let trace = TrafficConfig::default().synthesize(&inputs()).unwrap();
        for tier in Tier::all() {
            assert!(
                trace.arrivals().iter().any(|a| a.request.tier == tier),
                "default weights should draw {tier}"
            );
        }
    }

    #[test]
    fn bad_traces_are_rejected() {
        let mk = |id, at, deadline| Arrival {
            at,
            request: Request::new(id, vec![0.0], Tier::Low, deadline),
        };
        // Decreasing time.
        assert!(ArrivalTrace::from_arrivals(vec![mk(0, 5, 10), mk(1, 3, 10)]).is_err());
        // Wrong id.
        assert!(ArrivalTrace::from_arrivals(vec![mk(1, 1, 10)]).is_err());
        // Deadline at/before arrival.
        assert!(ArrivalTrace::from_arrivals(vec![mk(0, 5, 5)]).is_err());
        // Valid.
        assert!(ArrivalTrace::from_arrivals(vec![mk(0, 1, 10), mk(1, 1, 12)]).is_ok());
    }

    #[test]
    fn shaping_preserves_payload_order_and_paces_in_bursts() {
        let payloads: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32]).collect();
        let shape = TrafficShape {
            start: 10,
            burst: 2,
            gap: 7,
            ..TrafficShape::default()
        };
        let trace = shape.shape(&payloads).unwrap();
        assert_eq!(trace.len(), 5);
        for (i, a) in trace.arrivals().iter().enumerate() {
            assert_eq!(a.request.input, payloads[i], "payload {i} not cycled");
            assert_eq!(a.at, 10 + (i as u64 / 2) * 7);
            assert_eq!(a.request.deadline, a.at + shape.deadline);
            assert_eq!(a.request.tier, shape.tier);
        }
        assert_eq!(shape.shape(&payloads).unwrap(), trace, "pure function");
    }

    #[test]
    fn bad_shapes_are_rejected() {
        let base = TrafficShape::default();
        for bad in [
            TrafficShape { burst: 0, ..base },
            TrafficShape { gap: 0, ..base },
            TrafficShape {
                deadline: 0,
                ..base
            },
        ] {
            assert!(bad.validate().is_err());
        }
        assert!(base.shape(&[]).is_err(), "empty payloads are rejected");
    }

    #[test]
    fn bad_configs_are_rejected() {
        for bad in [
            TrafficConfig {
                requests: 0,
                ..TrafficConfig::default()
            },
            TrafficConfig {
                mean_interarrival: 0.0,
                ..TrafficConfig::default()
            },
            TrafficConfig {
                deadline: 0,
                ..TrafficConfig::default()
            },
            TrafficConfig {
                tier_weights: [0, 0, 0],
                ..TrafficConfig::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
        assert!(TrafficConfig::default().synthesize(&Vec::new()).is_err());
    }

    #[test]
    fn stored_digest_is_the_trace_digest() {
        let synthesized = TrafficConfig::default().synthesize(&inputs()).unwrap();
        let explicit = ArrivalTrace::from_arrivals(synthesized.arrivals().to_vec()).unwrap();
        let shaped = TrafficShape::default().shape(&inputs()).unwrap();
        let empty = ArrivalTrace::default();
        for trace in [
            &synthesized,
            &explicit,
            &shaped,
            &empty,
            &synthesized.clone(),
        ] {
            assert_eq!(trace.digest(), trace_digest(trace));
        }
        assert_eq!(explicit.digest(), synthesized.digest());
        assert_ne!(shaped.digest(), synthesized.digest());
        // An empty trace carries the digest of no arrivals, not a zero.
        assert_eq!(empty.digest(), safex_trace::WordHash::new().finish());
        assert_ne!(empty.digest(), 0);
    }
}
