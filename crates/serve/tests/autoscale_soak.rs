//! Autoscaler soak: a sustained burst grows the pool to `max_workers`,
//! sustained idleness shrinks it back to `min_workers`, and resizes are
//! invisible to correctness — no ticket is lost across grow/shrink, FIFO
//! order survives a shrink back to one worker, and the kernel exec pool
//! never respawns OS threads (`exec::os_threads_spawned` stays flat:
//! session workers are owned threads, resized by retire/spawn of
//! *serving* threads only, and those come from the session pool, not the
//! kernel pool).

use cq_cim::CimConfig;
use cq_core::{build_cim_resnet, PreparedCimModel, QuantScheme};
use cq_nn::{Layer, Mode, ResNetSpec};
use cq_serve::{Admission, CimServer, CompletionSet, ModelRegistry, Request, ServeConfig, Slo};
use cq_tensor::{exec, CqRng, Tensor};
use std::time::{Duration, Instant};

fn prepared(seed: u64) -> PreparedCimModel {
    let mut net = build_cim_resnet(
        ResNetSpec::resnet8(4, 4),
        &CimConfig::tiny(),
        &QuantScheme::ours(),
        seed,
    );
    let x = CqRng::new(seed + 1000).normal_tensor(&[2, 3, 12, 12], 1.0);
    let _ = net.forward(&x, Mode::Eval);
    PreparedCimModel::new(Box::new(net))
}

fn input(rng: &mut CqRng, batch: usize) -> Tensor {
    rng.normal_tensor(&[batch, 3, 12, 12], 1.0)
}

/// Polls `probe` until it returns true or `bound` elapses.
fn eventually(bound: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + bound;
    loop {
        if probe() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn pool_grows_under_burst_shrinks_when_idle_and_loses_nothing() {
    const MIN: usize = 1;
    const MAX: usize = 3;
    // The kernel exec pool starts lazily on the first task spawn. Start
    // it before reading the baseline, so its own worker threads are not
    // counted as respawns when the first sweep happens mid-burst.
    exec::scope(|s| s.spawn(|| {}));
    let spawned_before = exec::os_threads_spawned();

    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(400));
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .queue_capacity(64)
            .admission(Admission::Block)
            .max_batch(Some(1)) // one request per sweep: depth stays visible
            .max_wait(Duration::ZERO)
            .autoscale(MIN, MAX)
            .scale_up_after(Duration::from_millis(1))
            .scale_down_idle(Duration::from_millis(20))
            .build()
            .unwrap(),
    )
    .start();
    assert_eq!(session.live_workers(), MIN, "pool starts at the floor");

    // Phase 1 — burst. Keep the queue deeper than the live worker count
    // long enough for the sustain filter, and hold every ticket.
    let rng = &mut CqRng::new(401);
    let mut inflight = CompletionSet::new();
    let mut submitted = 0usize;
    let grew = eventually(Duration::from_secs(30), || {
        for _ in 0..8 {
            inflight.insert(
                session
                    .submit(Request::to("m").batch(input(rng, 2)).slo(Slo::Bulk))
                    .unwrap(),
            );
            submitted += 1;
        }
        session.live_workers() == MAX
    });
    assert!(grew, "sustained burst must grow the pool to max_workers");

    // No lost tickets across the grows: everything submitted resolves.
    let mut completed = 0usize;
    while inflight.wait_any().is_some() {
        completed += 1;
    }
    assert_eq!(completed, submitted, "no ticket lost across scale-ups");

    // Phase 2 — sustained idle. Surplus workers retire down to the floor.
    let shrank = eventually(Duration::from_secs(30), || session.live_workers() == MIN);
    assert!(shrank, "sustained idle must shrink the pool to min_workers");

    // Phase 3 — FIFO order through the shrunk pool: one worker, bulk
    // class, one request per sweep ⇒ completion order is submission
    // order. A resize must never have reordered the queue.
    let mut order = CompletionSet::new();
    for _ in 0..10 {
        order.insert(
            session
                .submit(Request::to("m").batch(input(rng, 1)).slo(Slo::Bulk))
                .unwrap(),
        );
    }
    let mut got = Vec::new();
    while let Some((key, _)) = order.wait_any() {
        got.push(key.index());
    }
    assert_eq!(
        got,
        (0..10).collect::<Vec<_>>(),
        "single-worker completion order must match submission order"
    );

    let (stats, _) = session.shutdown();
    assert_eq!(stats.served, submitted as u64 + 10);
    assert_eq!(stats.workers.min, MIN);
    assert_eq!(stats.workers.max, MAX);
    assert_eq!(stats.workers.peak, MAX, "burst reached the ceiling");
    assert!(
        stats.workers.resizes >= ((MAX - MIN) * 2) as u64,
        "at least one full grow+shrink cycle recorded, got {}",
        stats.workers.resizes
    );
    assert!(
        stats.workers.spawned >= MAX as u64,
        "grows spawn real workers"
    );
    assert_eq!(
        exec::os_threads_spawned(),
        spawned_before,
        "kernel exec pool must not respawn OS threads across resizes"
    );
}

/// A fixed pool (`workers(n)`, i.e. `min == max`) never resizes and
/// never idles out — the PR 7 behaviour is the degenerate case.
#[test]
fn fixed_pool_never_resizes() {
    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(410));
    let session =
        CimServer::new(registry, ServeConfig::builder().workers(2).build().unwrap()).start();
    assert_eq!(session.live_workers(), 2);
    // Long enough that a (buggy) idle-retirement path would fire.
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(session.live_workers(), 2, "fixed pools must not idle out");
    let rng = &mut CqRng::new(411);
    let t = session
        .submit(Request::to("m").batch(input(rng, 1)))
        .unwrap();
    let _ = t.wait();
    let (stats, _) = session.shutdown();
    assert_eq!(stats.workers.resizes, 0);
    assert_eq!(stats.workers.peak, 2);
    assert_eq!(stats.workers.spawned, 2);
}

/// Scale-down races shutdown cleanly: an autoscaling session that is
/// mid-shrink when `shutdown` lands still joins every thread and
/// resolves every ticket.
#[test]
fn shutdown_during_scale_transitions_is_clean() {
    for trial in 0..4u64 {
        let mut registry = ModelRegistry::new();
        registry.register("m", prepared(420 + trial));
        let session = CimServer::new(
            registry,
            ServeConfig::builder()
                .queue_capacity(32)
                .autoscale(1, 3)
                .scale_up_after(Duration::from_millis(1))
                .scale_down_idle(Duration::from_millis(3))
                .max_batch(Some(1))
                .max_wait(Duration::ZERO)
                .build()
                .unwrap(),
        )
        .start();
        let rng = &mut CqRng::new(430 + trial);
        let tickets: Vec<_> = (0..12)
            .map(|_| {
                session
                    .submit(Request::to("m").batch(input(rng, 1)))
                    .unwrap()
            })
            .collect();
        // Vary how deep into the burst the shutdown lands.
        std::thread::sleep(Duration::from_millis(trial * 4));
        let (stats, models) = session.shutdown();
        assert_eq!(stats.served, 12, "shutdown drains everything admitted");
        assert_eq!(models.len(), 1);
        for t in tickets {
            let _ = t.wait(); // already resolved; must not hang or panic
        }
    }
}
