//! Pool helper lanes are joined when their pool drops: building,
//! dispatching on and dropping many pools leaves the process's thread
//! count where it started. Kept alone in its own test binary so no
//! concurrently running test moves the count.

use std::time::{Duration, Instant};

use safex_nn::{EnginePool, ModelBuilder};
use safex_tensor::{DetRng, Shape};

/// The `Threads:` line of `/proc/self/status`, where the platform has one.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

#[test]
fn dropped_pools_join_their_lanes() {
    let Some(start) = threads() else {
        eprintln!("skipped: no /proc/self/status on this platform");
        return;
    };
    let mut rng = DetRng::new(5);
    let model = ModelBuilder::new(Shape::vector(3))
        .dense(4, &mut rng)
        .unwrap()
        .softmax()
        .build()
        .unwrap();
    let batch = vec![vec![0.5f32, -0.25, 1.0]; 4];
    for _ in 0..200 {
        let mut pool = EnginePool::new(model.clone(), 2).unwrap();
        assert_eq!(pool.infer_batch(&batch).unwrap().len(), 4);
        assert!(threads() > Some(start), "a two-item dispatch spawns a lane");
    }
    // A joined thread can still be counted for a moment after `join`
    // returns, while the kernel reaps it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != Some(start) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), Some(start), "pool lanes leaked threads");
}
