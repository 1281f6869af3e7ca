//! The four workloads and the set-up they share.
//!
//! Every workload is an open loop: arrivals are a seeded Poisson schedule
//! on the tick axis from [`TrafficConfig::synthesize`], fixed before the
//! run and independent of service, like independent sensors. The seed
//! drives input jitter, arrival gaps and tiers; the model, its training
//! and the server configuration are fixed, so the server only ever sees
//! the generated trace.

use std::error::Error;

use safex_core::health::HealthConfig;
use safex_nn::{EccConfig, Engine, HardenConfig, HardenedEngine, Model};
use safex_scenarios::automotive::{self, AutomotiveConfig};
use safex_serve::{
    ArrivalTrace, Backend, BatchPolicy, CacheConfig, Fleet, ModelId, OpsPlan, PoolBackend, Request,
    RoutingKind, ServerConfig, ServiceModel, SwapOp, TrafficConfig, WatchdogConfig,
};
use safex_tensor::DetRng;

/// Requests offered by every rep.
pub const REQUESTS: usize = 4096;
/// Relative deadline of every request, in ticks.
pub const DEADLINE: u64 = 300;
/// Seed used when the command line names none.
pub const DEFAULT_SEED: u64 = 0x5AFE;
/// Workers per `PoolBackend`. Members dispatch in sequence, so at most
/// this many threads compute at once; it matches the 2-CPU host.
pub const WORKERS: usize = 2;

/// The struck member on `fault_soak`.
pub const ALPHA: ModelId = ModelId::new(0);
/// The hot-swapped member on `fault_soak`.
pub const BETA: ModelId = ModelId::new(1);

const MEMBER_NAMES: [&str; 3] = ["alpha", "beta", "gamma"];
const JITTER_STREAM: u64 = 0x0011_77E4;

/// One traffic mix offered to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One member, batches of ~14 hardened items on a 2-worker pool:
    /// kernels, CRC and pool fan-out.
    BurstB16,
    /// Three members, batch size 1 at ~70 % of capacity: the same
    /// per-item hardening with no fan-out and one routing decision per
    /// request.
    TrickleB1,
    /// Three members answering ~98 % of requests from the result cache:
    /// admission, digest, bit-exact compare and evidence, no inference.
    CacheHot,
    /// Three members under a strike, a snapshot and a hot swap, with the
    /// watchdog armed and cache writes and purges beside reads.
    FaultSoak,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::BurstB16,
        Workload::TrickleB1,
        Workload::CacheHot,
        Workload::FaultSoak,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BurstB16 => "burst_b16",
            Workload::TrickleB1 => "trickle_b1",
            Workload::CacheHot => "cache_hot",
            Workload::FaultSoak => "fault_soak",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn members(self) -> usize {
        match self {
            Workload::BurstB16 => 1,
            _ => 3,
        }
    }

    fn mean_gap(self) -> f64 {
        match self {
            Workload::BurstB16 | Workload::CacheHot => 2.0,
            Workload::TrickleB1 => 8.0,
            Workload::FaultSoak => 3.0,
        }
    }

    /// The server configuration the workload runs under.
    pub fn config(self) -> ServerConfig {
        let max_batch = match self {
            Workload::TrickleB1 => 1,
            _ => 16,
        };
        let base = ServerConfig::default()
            .with_policy(
                BatchPolicy::default()
                    .with_max_batch(max_batch)
                    .with_queue_cap(64)
                    .with_flush_slack(40)
                    .with_max_linger(24),
            )
            .with_service(ServiceModel {
                batch_overhead: 16,
                per_item: 1,
            })
            .with_campaign("safexbench");
        match self {
            Workload::BurstB16 | Workload::TrickleB1 => base,
            Workload::CacheHot => base.with_cache(CacheConfig::enabled(512)),
            Workload::FaultSoak => base
                // Round-robin keeps routing work onto the degraded member,
                // so the uncorrectable strike walks the whole ladder.
                .with_routing(RoutingKind::RoundRobin)
                .with_health(HealthConfig {
                    window: 8,
                    degrade_events: 2,
                    stop_events: 6,
                    recover_after: 16,
                    resume_after: 0,
                    warn_budget: 3,
                })
                .with_cache(CacheConfig::enabled(512))
                .with_watchdog(WatchdogConfig::enabled(1024).with_proof_cadence(1800)),
        }
    }

    /// The hardening every member runs: Full CRC at every decision, plus
    /// ECC repair on `fault_soak`, whose 1-bit strike it corrects.
    pub fn harden(self) -> HardenConfig {
        match self {
            Workload::FaultSoak => HardenConfig {
                repair: Some(EccConfig::default()),
                ..HardenConfig::default()
            },
            _ => HardenConfig::default(),
        }
    }
}

/// Gives the fault hook the `PoolBackend` to strike inside whatever
/// wrapper the fleet holds.
pub trait Strike {
    /// The struck pool.
    fn pool(&mut self) -> &mut PoolBackend;
}

impl Strike for PoolBackend {
    fn pool(&mut self) -> &mut PoolBackend {
        self
    }
}

/// Everything a workload needs before its first rep: the trained model,
/// the calibrated engine, the pristine label of every payload, and the
/// trace. Built from `(workload, seed, requests)` alone.
pub struct Setup {
    /// The workload this set-up serves.
    pub workload: Workload,
    /// The trained model every member deploys.
    pub model: Model,
    /// The calibrated hardened engine every pool replicates.
    pub engine: HardenedEngine,
    /// `Engine::classify` on the pristine model, per payload; request `i`
    /// carries payload `i % labels.len()`.
    labels: Vec<usize>,
    /// The arrival trace every rep replays.
    pub trace: ArrivalTrace,
    /// The server configuration.
    pub config: ServerConfig,
    /// Weight digest the `fault_soak` hot swap is gated on.
    swap_digest: Option<u64>,
}

impl Setup {
    /// Generates the dataset, trains and calibrates the model, labels the
    /// inputs with the pristine engine and synthesizes the trace.
    ///
    /// # Errors
    ///
    /// Propagates dataset, training, hardening and trace failures.
    pub fn build(workload: Workload, seed: u64, requests: usize) -> Result<Setup, Box<dyn Error>> {
        let mut rng = DetRng::new(9001);
        let data = automotive::generate(
            &AutomotiveConfig {
                samples_per_class: 60,
                ..Default::default()
            },
            &mut rng,
        )?;
        let (train, test) = data.split(0.7, &mut rng)?;
        let model = safexplain::demo::train_mlp(&train, 60, 17)?;
        let samples: Vec<Vec<f32>> = test.samples().iter().map(|s| s.input.clone()).collect();
        let inputs = workload_inputs(workload, &samples, seed, requests);

        let mut pristine = Engine::new(model.clone());
        let labels = inputs
            .iter()
            .map(|x| pristine.classify(x).map(|c| c.class))
            .collect::<Result<Vec<_>, _>>()?;
        let mut engine = HardenedEngine::new(model.clone(), workload.harden())?;
        engine.calibrate(&inputs)?;
        let trace = TrafficConfig {
            seed,
            requests,
            mean_interarrival: workload.mean_gap(),
            deadline: DEADLINE,
            tier_weights: [2, 1, 1],
        }
        .synthesize(&inputs)?;
        let swap_digest = match workload {
            Workload::FaultSoak => PoolBackend::new(&engine, WORKERS)?.swap_digest(),
            _ => None,
        };
        Ok(Setup {
            workload,
            model,
            engine,
            labels,
            trace,
            config: workload.config(),
            swap_digest,
        })
    }

    /// The pristine label of request `id`.
    pub fn label(&self, id: u64) -> usize {
        self.labels[id as usize % self.labels.len()]
    }

    /// A fresh fleet of 2-worker pools, each passed through `wrap`.
    ///
    /// # Errors
    ///
    /// Propagates pool and fleet construction failures.
    pub fn fleet<B: Backend>(
        &self,
        mut wrap: impl FnMut(ModelId, PoolBackend) -> B,
    ) -> Result<Fleet<B>, Box<dyn Error>> {
        let mut builder = Fleet::builder();
        for (i, name) in MEMBER_NAMES[..self.workload.members()].iter().enumerate() {
            let pool = PoolBackend::new(&self.engine, WORKERS)?;
            builder = builder.register(*name, wrap(ModelId::new(i as u16), pool));
        }
        Ok(builder.build()?)
    }

    /// Scales a request id given for a 4096-request trace to this trace.
    fn at(&self, id: u64) -> u64 {
        id * self.trace.len() as u64 / REQUESTS as u64
    }

    /// The scripted operations: on `fault_soak` a snapshot capture at
    /// request 1500 and a digest-gated hot swap of beta at 2000 that
    /// re-deploys the same weights (`incoming`); none elsewhere.
    pub fn plan<B>(&self, incoming: B) -> OpsPlan<B> {
        match self.workload {
            Workload::FaultSoak => {
                OpsPlan::none()
                    .with_snapshot_at(self.at(1500))
                    .with_swap(SwapOp {
                        at_request: self.at(2000),
                        model: BETA,
                        incoming,
                        expected_digest: self.swap_digest,
                    })
            }
            _ => OpsPlan::none(),
        }
    }

    /// The fault hook: on `fault_soak` a 1-bit strike on alpha at request
    /// 500, which ECC repairs, and a 2-bit strike at 3000, which walks
    /// alpha to SafeStop; nothing elsewhere.
    pub fn strikes<B: Backend + Strike>(&self) -> impl FnMut(&Request, &mut Fleet<B>) {
        let strikes: Vec<(u64, u64, u32)> = match self.workload {
            Workload::FaultSoak => vec![(self.at(500), 0xA11CE, 1), (self.at(3000), 0xBAD5EED, 2)],
            _ => Vec::new(),
        };
        move |request: &Request, fleet: &mut Fleet<B>| {
            for &(at, seed, bits) in &strikes {
                if request.id == at {
                    fleet
                        .backend_mut(ALPHA)
                        .expect("fault_soak has an alpha member")
                        .pool()
                        .strike_weights(seed, 1, bits)
                        .expect("a trained model has weights and 1..=32 bits is valid");
                }
            }
        }
    }
}

/// The payload sequence of each workload, from the 72 test samples.
fn workload_inputs(
    workload: Workload,
    samples: &[Vec<f32>],
    seed: u64,
    requests: usize,
) -> Vec<Vec<f32>> {
    let mut rng = DetRng::new(seed ^ JITTER_STREAM);
    let jittered = |i: usize, rng: &mut DetRng| -> Vec<f32> {
        samples[i % samples.len()]
            .iter()
            .map(|x| x + (rng.next_f32() - 0.5) * 0.01)
            .collect()
    };
    match workload {
        Workload::BurstB16 | Workload::TrickleB1 => {
            (0..requests).map(|i| jittered(i, &mut rng)).collect()
        }
        Workload::CacheHot => samples.to_vec(),
        Workload::FaultSoak => {
            // About half the requests repeat one of the previous 256.
            let mut out: Vec<Vec<f32>> = Vec::with_capacity(requests);
            for i in 0..requests {
                let input = if i > 0 && rng.chance(0.5) {
                    out[i - 1 - rng.below_usize(i.min(256))].clone()
                } else {
                    jittered(i, &mut rng)
                };
                out.push(input);
            }
            out
        }
    }
}
