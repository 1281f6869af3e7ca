//! Two-level memory hierarchy with latencies and interference hooks.

use safex_tensor::DetRng;

use crate::cache::{AccessResult, Cache, CacheConfig};
use crate::error::PlatformError;

/// Latency parameters in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Latencies {
    /// L1 hit.
    pub l1_hit: u64,
    /// L2 hit (on L1 miss).
    pub l2_hit: u64,
    /// Main-memory access (on L2 miss).
    pub memory: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            l1_hit: 1,
            l2_hit: 10,
            memory: 80,
        }
    }
}

impl Latencies {
    /// Validates monotone, non-zero latencies.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::BadConfig`] if any latency is zero or the
    /// ordering `l1 <= l2 <= memory` is violated.
    pub fn validate(&self) -> Result<(), PlatformError> {
        if self.l1_hit == 0 || self.l2_hit == 0 || self.memory == 0 {
            return Err(PlatformError::BadConfig(
                "latencies must be non-zero".into(),
            ));
        }
        if self.l1_hit > self.l2_hit || self.l2_hit > self.memory {
            return Err(PlatformError::BadConfig(
                "latencies must satisfy l1 <= l2 <= memory".into(),
            ));
        }
        Ok(())
    }
}

/// Interference injected by co-runner cores on shared resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interference {
    /// Number of actively contending co-runner cores.
    pub co_runners: usize,
    /// Maximum extra arbitration cycles a contended L2/memory access can
    /// suffer *per co-runner* (uniform in `[0, per_runner]`).
    pub bus_delay_per_runner: u64,
    /// Probability per primary L2 access that co-runners evict one random
    /// shared-L2 line, *per co-runner*.
    pub pollution_per_runner: f64,
    /// When true the L2 is partitioned per core: co-runners cause no
    /// pollution and no arbitration delay on the cache slice (only the
    /// memory bus is still shared, at a reduced factor).
    pub partitioned_l2: bool,
}

impl Interference {
    /// No co-runners.
    pub fn none() -> Self {
        Interference {
            co_runners: 0,
            bus_delay_per_runner: 0,
            pollution_per_runner: 0.0,
            partitioned_l2: false,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::BadConfig`] if the pollution probability
    /// is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), PlatformError> {
        if !(0.0..=1.0).contains(&self.pollution_per_runner)
            || !self.pollution_per_runner.is_finite()
        {
            return Err(PlatformError::BadConfig(
                "pollution probability must be in [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

/// A private L1 + (shared or partitioned) L2 + memory, with co-runner
/// interference applied at the shared levels.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1: Cache,
    l2: Cache,
    latencies: Latencies,
    interference: Interference,
}

impl MemoryHierarchy {
    /// Builds the hierarchy. Under partitioned L2 the primary core's L2
    /// slice shrinks to `size / (co_runners + 1)` (rounded down to a
    /// power of two), modelling way/colour partitioning.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::BadConfig`] on invalid cache geometry,
    /// latencies, or interference parameters.
    pub fn new(
        l1: CacheConfig,
        mut l2: CacheConfig,
        latencies: Latencies,
        interference: Interference,
        rng: &mut DetRng,
    ) -> Result<Self, PlatformError> {
        latencies.validate()?;
        interference.validate()?;
        if interference.partitioned_l2 && interference.co_runners > 0 {
            let share = (interference.co_runners + 1).next_power_of_two();
            let new_size = (l2.size_bytes / share).max(l2.line_bytes * l2.ways);
            l2.size_bytes = new_size.next_power_of_two().min(l2.size_bytes);
            // Keep geometry consistent: shrink ways if needed.
            while !(l2.size_bytes / l2.line_bytes).is_multiple_of(l2.ways)
                || l2.size_bytes / l2.line_bytes < l2.ways
            {
                l2.ways /= 2;
                if l2.ways == 0 {
                    return Err(PlatformError::BadConfig(
                        "partitioned L2 slice too small".into(),
                    ));
                }
            }
        }
        Ok(MemoryHierarchy {
            l1: Cache::new(l1, rng)?,
            l2: Cache::new(l2, rng)?,
            latencies,
            interference,
        })
    }

    /// The latency parameters.
    pub fn latencies(&self) -> &Latencies {
        &self.latencies
    }

    /// `(l1_hit_rate, l2_hit_rate)` so far.
    pub fn hit_rates(&self) -> (f64, f64) {
        (self.l1.hit_rate(), self.l2.hit_rate())
    }

    /// Performs one data access and returns its latency in cycles,
    /// including any interference delay.
    pub fn access(&mut self, addr: u64, rng: &mut DetRng) -> u64 {
        let inter = self.interference;
        match self.l1.access(addr, rng) {
            AccessResult::Hit => self.latencies.l1_hit,
            AccessResult::Miss => {
                // Co-runner pollution of the shared L2 (none if partitioned).
                if inter.co_runners > 0 && !inter.partitioned_l2 {
                    let p = inter.pollution_per_runner * inter.co_runners as f64;
                    if rng.chance(p.min(1.0)) {
                        self.l2.evict_random_line(rng);
                    }
                }
                let base = match self.l2.access(addr, rng) {
                    AccessResult::Hit => self.latencies.l2_hit,
                    AccessResult::Miss => self.latencies.memory,
                };
                let contention = self.contention_delay(rng);
                self.latencies.l1_hit + base + contention
            }
        }
    }

    fn contention_delay(&mut self, rng: &mut DetRng) -> u64 {
        let inter = self.interference;
        if inter.co_runners == 0 || inter.bus_delay_per_runner == 0 {
            return 0;
        }
        // Partitioning removes cache-bank contention; the memory bus is
        // still shared but with a much smaller window.
        let per_runner = if inter.partitioned_l2 {
            inter.bus_delay_per_runner / 4
        } else {
            inter.bus_delay_per_runner
        };
        let max = per_runner * inter.co_runners as u64;
        if max == 0 {
            0
        } else {
            rng.below(max + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{Placement, Replacement};

    fn l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            ways: 2,
            placement: Placement::Modulo,
            replacement: Replacement::Lru,
        }
    }

    fn l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 8192,
            line_bytes: 32,
            ways: 4,
            placement: Placement::Modulo,
            replacement: Replacement::Lru,
        }
    }

    #[test]
    fn latency_levels() {
        let mut rng = DetRng::new(1);
        let mut h = MemoryHierarchy::new(
            l1(),
            l2(),
            Latencies::default(),
            Interference::none(),
            &mut rng,
        )
        .unwrap();
        // Cold: L1 miss + L2 miss -> 1 + 80.
        assert_eq!(h.access(0, &mut rng), 81);
        // Warm: L1 hit.
        assert_eq!(h.access(0, &mut rng), 1);
        // Evict from L1 only (L1 has 32 sets * 2 ways; force conflict):
        let stride = 32 * (1024 / 32 / 2) as u64; // L1 set stride
        h.access(stride, &mut rng);
        h.access(2 * stride, &mut rng);
        // addr 0 now out of L1 but still in L2 -> 1 + 10.
        assert_eq!(h.access(0, &mut rng), 11);
    }

    #[test]
    fn latency_validation() {
        let bad = Latencies {
            l1_hit: 10,
            l2_hit: 5,
            memory: 80,
        };
        assert!(bad.validate().is_err());
        let zero = Latencies {
            l1_hit: 0,
            l2_hit: 5,
            memory: 80,
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn interference_adds_delay() {
        let run = |co_runners: usize, seed: u64| {
            let mut rng = DetRng::new(seed);
            let mut h = MemoryHierarchy::new(
                l1(),
                l2(),
                Latencies::default(),
                Interference {
                    co_runners,
                    bus_delay_per_runner: 20,
                    pollution_per_runner: 0.1,
                    partitioned_l2: false,
                },
                &mut rng,
            )
            .unwrap();
            let mut total = 0u64;
            for i in 0..2000u64 {
                total += h.access((i * 64) % 65536, &mut rng);
            }
            total
        };
        let alone = run(0, 1);
        let contended = run(3, 1);
        assert!(
            contended as f64 > alone as f64 * 1.2,
            "contention should slow down: {alone} vs {contended}"
        );
    }

    #[test]
    fn partitioning_reduces_interference() {
        let run = |partitioned: bool| {
            let mut rng = DetRng::new(7);
            let mut h = MemoryHierarchy::new(
                l1(),
                l2(),
                Latencies::default(),
                Interference {
                    co_runners: 3,
                    bus_delay_per_runner: 20,
                    pollution_per_runner: 0.2,
                    partitioned_l2: partitioned,
                },
                &mut rng,
            )
            .unwrap();
            // Working set sized to fit even the partitioned slice, so the
            // comparison isolates contention rather than capacity.
            let mut total = 0u64;
            for i in 0..2000u64 {
                total += h.access((i * 64) % 1024, &mut rng);
            }
            total
        };
        let shared = run(false);
        let partitioned = run(true);
        assert!(
            partitioned < shared,
            "partitioning should reduce slowdown: {partitioned} vs {shared}"
        );
    }

    #[test]
    fn partitioned_l2_shrinks() {
        let mut rng = DetRng::new(2);
        let h = MemoryHierarchy::new(
            l1(),
            l2(),
            Latencies::default(),
            Interference {
                co_runners: 3,
                bus_delay_per_runner: 0,
                pollution_per_runner: 0.0,
                partitioned_l2: true,
            },
            &mut rng,
        )
        .unwrap();
        assert!(h.l2.config().size_bytes <= 8192 / 4);
    }

    #[test]
    fn interference_validation() {
        let mut i = Interference::none();
        i.pollution_per_runner = 1.5;
        assert!(i.validate().is_err());
        i.pollution_per_runner = f64::NAN;
        assert!(i.validate().is_err());
    }

    #[test]
    fn hit_rates_tracked() {
        let mut rng = DetRng::new(3);
        let mut h = MemoryHierarchy::new(
            l1(),
            l2(),
            Latencies::default(),
            Interference::none(),
            &mut rng,
        )
        .unwrap();
        h.access(0, &mut rng);
        h.access(0, &mut rng);
        let (r1, _r2) = h.hit_rates();
        assert_eq!(r1, 0.5);
    }
}
