//! Deterministic concurrency test harness for the scheduler and the
//! pollable completion handles: seeded multi-producer stress over mixed
//! `try_wait`/`wait_timeout`/`wait_any` spin+block resolution (no
//! deadlock, no lost wakeup, no lost ticket), bit-exactness of every
//! resolution path across the psq/granularity/digitizer matrix, deadline
//! `missed` stamping, and panic propagation out of workers.

use cq_cim::CimConfig;
use cq_core::{
    build_cim_resnet, CimConv2d, PreparedCimModel, QuantScheme, VariationCfg, VariationMode,
};
use cq_nn::{Layer, Mode, ResNet, ResNetSpec};
use cq_quant::Granularity;
use cq_serve::{Admission, CimServer, CompletionSet, ModelRegistry, Request, ServeConfig, Ticket};
use cq_tensor::{CqRng, Tensor};
use std::time::Duration;

/// A small CIM ResNet with all lazy scales initialized (deterministic per
/// seed).
fn warmed_net(seed: u64) -> ResNet {
    let mut net = build_cim_resnet(
        ResNetSpec::resnet8(4, 4),
        &CimConfig::tiny(),
        &QuantScheme::ours(),
        seed,
    );
    let x = CqRng::new(seed + 1000).normal_tensor(&[2, 3, 12, 12], 1.0);
    let _ = net.forward(&x, Mode::Eval);
    net
}

fn prepared(seed: u64) -> PreparedCimModel {
    PreparedCimModel::new(Box::new(warmed_net(seed)))
}

fn request(rng: &mut CqRng, batch: usize) -> Tensor {
    rng.normal_tensor(&[batch, 3, 12, 12], 1.0)
}

/// Seeded-RNG stress: N producer threads submit tickets (varied batch
/// sizes, some oversized and chunked, half with a deadline) against two
/// resident models through a small queue — and each producer resolves its
/// tickets through a **different mix** of completion paths (blocking
/// `wait`, `try_wait` spin, `wait_timeout` loop, `CompletionSet`
/// multiplexing). The owned session must terminate (no deadlock), resolve
/// every ticket with a correctly-shaped output (no lost wakeup, no lost
/// ticket), and keep exact deadline accounting.
#[test]
fn mixed_resolution_stress_no_deadlock_no_lost_tickets() {
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: usize = 12;

    let mut registry = ModelRegistry::new();
    let ids = [
        registry.register("model-a", prepared(70)),
        registry.register("model-b", prepared(71)),
    ];
    let cfg = ServeConfig::builder()
        .queue_capacity(8) // small: producers must block on admission
        .admission(Admission::Block)
        .max_batch(Some(3))
        .max_wait(Duration::from_micros(200))
        .workers(3)
        .build()
        .unwrap();
    let session = CimServer::new(registry, cfg).start();

    let outcomes = std::thread::scope(|sc| {
        let session = &session;
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                sc.spawn(move || {
                    let mut rng = CqRng::new(7000 + p);
                    let mut in_flight: Vec<(usize, bool, Ticket)> = Vec::new();
                    for _ in 0..PER_PRODUCER {
                        let batch = [1, 1, 2, 5][rng.below(4)];
                        let has_deadline = rng.below(2) == 0;
                        let model = ids[rng.below(2)];
                        let x = request(&mut rng, batch);
                        let mut req = Request::to_id(model).batch(x);
                        if has_deadline {
                            req = req.deadline(Duration::from_secs(30));
                        }
                        // Submission blocks when the 8-slot queue is
                        // full — producers and workers exercise the
                        // admission/linger/steal interleavings hard.
                        let ticket = session.submit(req).unwrap();
                        in_flight.push((batch, has_deadline, ticket));
                    }
                    // Resolve through a producer-specific path mix.
                    match p % 4 {
                        0 => in_flight
                            .into_iter()
                            .map(|(b, d, t)| (b, d, t.wait()))
                            .collect::<Vec<_>>(),
                        1 => in_flight
                            .into_iter()
                            .map(|(b, d, mut t)| loop {
                                // try_wait spin (with yields): the pure
                                // polling path must observe every wakeup.
                                match t.try_wait() {
                                    Ok(done) => break (b, d, done),
                                    Err(back) => {
                                        t = back;
                                        std::thread::yield_now();
                                    }
                                }
                            })
                            .collect(),
                        2 => in_flight
                            .into_iter()
                            .map(|(b, d, mut t)| loop {
                                // Short-timeout block loop: mixes timed
                                // parking with re-polling.
                                match t.wait_timeout(Duration::from_millis(1)) {
                                    Ok(done) => break (b, d, done),
                                    Err(back) => t = back,
                                }
                            })
                            .collect(),
                        _ => {
                            // Condvar-backed multiplexer over all of this
                            // producer's tickets at once.
                            let mut set = CompletionSet::new();
                            let metas: Vec<(usize, bool)> = in_flight
                                .into_iter()
                                .map(|(b, d, t)| {
                                    set.insert(t);
                                    (b, d)
                                })
                                .collect();
                            let mut done = Vec::new();
                            while let Some((key, completed)) = set.wait_any() {
                                let (b, d) = metas[key.index()];
                                done.push((b, d, completed));
                            }
                            done
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    let (stats, models) = session.shutdown();
    assert_eq!(models.len(), 2, "both models handed back");

    let total = (PRODUCERS as usize * PER_PRODUCER) as u64;
    assert_eq!(outcomes.len() as u64, total, "every ticket resolved");
    for (batch, has_deadline, completed) in &outcomes {
        assert_eq!(
            completed.output.dim(0),
            *batch,
            "output batch dim matches the request"
        );
        if !has_deadline {
            assert!(!completed.missed, "a deadline-free ticket cannot miss");
        }
    }
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.rejected, 0, "Block admission never rejects");
    assert_eq!(stats.served, total);
    assert_eq!(
        stats.latency_hist.count(),
        total,
        "every fulfilment recorded"
    );
    let with_deadline = outcomes.iter().filter(|(_, d, _)| *d).count() as u64;
    assert_eq!(
        stats.with_deadline, with_deadline,
        "every deadline-carrying ticket counted, and only those"
    );
    let missed = outcomes.iter().filter(|(_, _, c)| c.missed).count() as u64;
    assert_eq!(stats.missed, missed, "stats agree with the tickets");
    assert!(
        stats.peak_queue_depth <= 8,
        "capacity bound violated under stress"
    );
}

/// One digitizer regime of the resolution-path matrix.
#[derive(Clone, Copy, Debug)]
enum Digitizer {
    /// Partial-sum quantization off (ideal infinite-precision converter).
    Ideal,
    /// Behavioural ADC on the trained psum scales.
    Adc,
    /// ADC plus weight-side log-normal device variation.
    Variation,
}

/// Every completion path — `wait`, `try_wait`, `wait_timeout`,
/// `CompletionSet::wait_any` — must return **bit-identical** outputs for
/// the same submission, and identical to the direct per-call engine,
/// across psum quantization {off, on} × weight/psum granularity ×
/// digitizer. The matrix runs one small CIM conv per cell as the served
/// model.
#[test]
fn resolution_paths_are_bit_exact_across_matrix() {
    let mut seed = 400;
    for w_gran in Granularity::ALL {
        for p_gran in Granularity::ALL {
            for dig in [Digitizer::Ideal, Digitizer::Adc, Digitizer::Variation] {
                check_cell(w_gran, p_gran, dig, seed);
                seed += 10;
            }
        }
    }

    fn check_cell(w_gran: Granularity, p_gran: Granularity, dig: Digitizer, seed: u64) {
        let mut rng = CqRng::new(seed);
        let mut layer = CimConv2d::new(
            7,
            5,
            3,
            1,
            1,
            CimConfig::tiny(),
            w_gran,
            p_gran,
            true,
            &mut rng,
        );
        match dig {
            Digitizer::Ideal => layer.set_psum_quant_enabled(false),
            Digitizer::Adc => {}
            Digitizer::Variation => layer.set_variation(Some(VariationCfg {
                mode: VariationMode::PerWeight,
                sigma: 0.15,
                seed: 77,
            })),
        }
        let x = CqRng::new(seed + 1)
            .normal_tensor(&[2, 7, 6, 6], 1.0)
            .map(|v| v.max(0.0));
        // Per-call reference (also initializes lazy scales).
        let want = layer.forward(&x, Mode::Eval);

        let mut registry = ModelRegistry::new();
        registry.register("conv", PreparedCimModel::new(Box::new(layer)));
        let session =
            CimServer::new(registry, ServeConfig::builder().workers(2).build().unwrap()).start();
        let submit = || {
            session
                .submit(Request::to("conv").batch(x.clone()))
                .unwrap()
        };
        // Path 1: blocking wait.
        let via_wait = submit().wait().output;
        // Path 2: try_wait spin.
        let mut t = submit();
        let via_try = loop {
            match t.try_wait() {
                Ok(done) => break done.output,
                Err(back) => {
                    t = back;
                    std::thread::yield_now();
                }
            }
        };
        // Path 3: wait_timeout loop.
        let mut t = submit();
        let via_timeout = loop {
            match t.wait_timeout(Duration::from_millis(1)) {
                Ok(done) => break done.output,
                Err(back) => t = back,
            }
        };
        // Path 4: CompletionSet::wait_any.
        let mut set = CompletionSet::new();
        set.insert(submit());
        let via_any = set.wait_any().unwrap().1.output;
        let (stats, _) = session.shutdown();
        assert_eq!(stats.served, 4);

        let cell = format!("w={w_gran} p={p_gran} dig={dig:?}");
        assert_eq!(via_wait, want, "wait diverged at {cell}");
        assert_eq!(via_try, want, "try_wait diverged at {cell}");
        assert_eq!(via_timeout, want, "wait_timeout diverged at {cell}");
        assert_eq!(via_any, want, "wait_any diverged at {cell}");
    }
}

/// One client thread multiplexes hundreds of in-flight tickets through a
/// single `CompletionSet`: every ticket is delivered exactly once with
/// its own output (keys map back to submissions), nothing is lost, and
/// the drain needs no per-ticket thread.
#[test]
fn completion_set_multiplexes_hundreds_in_flight() {
    const IN_FLIGHT: usize = 240;
    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(75));
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .queue_capacity(IN_FLIGHT)
            .max_batch(Some(8))
            .workers(3)
            .build()
            .unwrap(),
    )
    .start();
    let mut rng = CqRng::new(76);
    let mut set = CompletionSet::new();
    let mut rows = Vec::with_capacity(IN_FLIGHT);
    for _ in 0..IN_FLIGHT {
        let b = 1 + rng.below(3);
        let key = set.insert(
            session
                .submit(Request::to("m").batch(request(&mut rng, b)))
                .unwrap(),
        );
        assert_eq!(key.index(), rows.len(), "keys are dense insertion order");
        rows.push(b);
    }
    assert_eq!(set.len(), IN_FLIGHT);
    let mut seen = vec![false; IN_FLIGHT];
    while let Some((key, done)) = set.wait_any_timeout(Duration::from_secs(60)) {
        assert!(!seen[key.index()], "ticket delivered twice");
        seen[key.index()] = true;
        assert_eq!(done.output.dim(0), rows[key.index()], "key↔output mapping");
    }
    assert!(set.is_empty(), "wait_any_timeout starved under load");
    assert!(seen.iter().all(|&s| s), "a ticket was lost");
    let (stats, _) = session.shutdown();
    assert_eq!(stats.served, IN_FLIGHT as u64);
}

/// Deadline-expired tickets still complete — with bit-exact outputs — but
/// carry the `missed` status, and the stats count them. Generous
/// deadlines never miss, including one too far away to represent as an
/// `Instant`, which must neither panic `submit` nor leave the model's
/// admission behind.
#[test]
fn expired_deadlines_complete_with_missed_status() {
    let mut reference = warmed_net(90);
    let rng = &mut CqRng::new(91);
    let plug_input = request(rng, 24);
    let inputs: Vec<Tensor> = (0..4).map(|_| request(rng, 1)).collect();
    let want: Vec<Tensor> = inputs
        .iter()
        .map(|x| reference.forward(x, Mode::Eval))
        .collect();

    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(90));
    let cfg = ServeConfig::builder()
        .queue_capacity(64)
        .admission(Admission::Block)
        .max_batch(Some(2))
        .max_wait(Duration::ZERO)
        .workers(1)
        .build()
        .unwrap();
    let session = CimServer::new(registry, cfg.clone()).start();
    // The plug guarantees the deadline below expires while queued.
    let plug = session
        .submit(Request::to("m").batch(plug_input.clone()))
        .unwrap();
    let tickets: Vec<Ticket> = inputs
        .iter()
        .map(|x| {
            session
                .submit(Request::to("m").batch(x.clone()).deadline(Duration::ZERO))
                .unwrap()
        })
        .collect();
    let outcomes: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
    let _ = plug.wait();
    let (stats, models) = session.shutdown();
    for (completed, want) in outcomes.iter().zip(&want) {
        assert!(completed.missed, "zero deadline behind a plug must miss");
        assert_eq!(&completed.output, want, "missed ticket output diverged");
    }
    assert_eq!((stats.with_deadline, stats.missed), (4, 4));
    assert_eq!(stats.served, 5);

    // Generous deadlines on the handed-back model do not miss.
    let session = CimServer::new(ModelRegistry::from_models(models), cfg).start();
    for deadline in [Duration::from_secs(600), Duration::MAX] {
        let completed = session
            .submit(Request::to("m").batch(inputs[0].clone()).deadline(deadline))
            .unwrap()
            .wait();
        assert!(!completed.missed, "{deadline:?}");
        assert_eq!(completed.output, want[0], "{deadline:?}: output diverged");
    }
    let evicted = session
        .evict("m")
        .unwrap()
        .wait_timeout(Duration::from_secs(5));
    assert!(
        evicted.is_ok(),
        "a served request left its admission behind"
    );
    let (stats, _) = session.shutdown();
    assert_eq!(stats.missed, 0);
}

/// A worker panic in the **owned** flow propagates out of `shutdown`
/// (after every worker joined), and the abandoned ticket's resolution
/// panics too — the loud-failure contract survives the session redesign.
#[test]
fn owned_session_shutdown_propagates_worker_panics() {
    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(96));
    let session =
        CimServer::new(registry, ServeConfig::builder().workers(1).build().unwrap()).start();
    let bad = Tensor::zeros(&[1, 3, 0, 0]); // the stem's kernel does not fit
    let ticket = session.submit(Request::to("m").batch(bad)).unwrap();
    // The worker abandons the ticket while unwinding: waiting on it
    // panics instead of hanging.
    let wait_panics = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.wait()));
    assert!(
        wait_panics.is_err(),
        "the abandoned ticket must panic its waiter"
    );
    let shutdown_panics =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.shutdown()));
    assert!(
        shutdown_panics.is_err(),
        "shutdown must re-raise the worker panic"
    );
}
