//! Deterministic concurrency test harness for the SLO-aware scheduler
//! and the pollable completion handles:
//! seeded multi-producer stress over mixed `try_wait`/`wait_timeout`/
//! `wait_any` spin+block resolution (no deadlock, no lost wakeup, no
//! lost ticket), bit-exactness of every resolution path across the
//! psq/granularity/digitizer matrix, the aging starvation bound under a
//! sustained latency flood, latency-over-stale-bulk completion ordering,
//! deadline `missed` stamping, and panic propagation out of workers.

use cq_cim::CimConfig;
use cq_core::{
    build_cim_resnet, CimConv2d, PreparedCimModel, QuantScheme, VariationCfg, VariationMode,
};
use cq_nn::{Layer, Mode, ResNet, ResNetSpec};
use cq_quant::Granularity;
use cq_serve::{
    Admission, CimServer, CompletionSet, ModelRegistry, Request, ServeConfig, Slo, Ticket,
};
use cq_tensor::{CqRng, Tensor};
use std::time::{Duration, Instant};

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

/// Seeded-RNG stress: N producer threads submit mixed `Latency`/`Bulk`
/// tickets (varied batch sizes, some oversized and chunked) against two
/// resident models through a small queue — and each producer resolves its
/// tickets through a **different mix** of completion paths (blocking
/// `wait`, `try_wait` spin, `wait_timeout` loop, `CompletionSet`
/// multiplexing). The owned session must terminate (no deadlock), resolve
/// every ticket with a correctly-shaped output (no lost wakeup, no lost
/// ticket), and keep exact per-class accounting.
#[test]
fn mixed_slo_stress_no_deadlock_no_lost_tickets() {
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
                    let mut in_flight: Vec<(usize, Ticket)> = Vec::new();
                    for _ in 0..PER_PRODUCER {
                        let batch = [1, 1, 2, 5][rng.below(4)];
                        let slo = if rng.below(2) == 0 {
                            Slo::Latency
                        } else {
                            Slo::Bulk
                        };
                        let model = ids[rng.below(2)];
                        let x = request(&mut rng, batch);
                        let mut req = Request::to_id(model).batch(x).slo(slo);
                        if slo == Slo::Latency {
                            req = req.deadline(Duration::from_secs(30));
                        }
                        // Submission blocks when the 8-slot queue is
                        // full — producers and workers exercise the
                        // admission/linger/steal interleavings hard.
                        in_flight.push((batch, session.submit(req).unwrap()));
                    }
                    // Resolve through a producer-specific path mix.
                    match p % 4 {
                        0 => in_flight
                            .into_iter()
                            .map(|(b, t)| (b, t.wait()))
                            .collect::<Vec<_>>(),
                        1 => in_flight
                            .into_iter()
                            .map(|(b, mut t)| loop {
                                // try_wait spin (with yields): the pure
                                // polling path must observe every wakeup.
                                match t.try_wait() {
                                    Ok(done) => break (b, done),
                                    Err(back) => {
                                        t = back;
                                        std::thread::yield_now();
                                    }
                                }
                            })
                            .collect(),
                        2 => in_flight
                            .into_iter()
                            .map(|(b, mut t)| loop {
                                // Short-timeout block loop: mixes timed
                                // parking with re-polling.
                                match t.wait_timeout(Duration::from_millis(1)) {
                                    Ok(done) => break (b, done),
                                    Err(back) => t = back,
                                }
                            })
                            .collect(),
                        _ => {
                            // Condvar-backed multiplexer over all of this
                            // producer's tickets at once.
                            let mut set = CompletionSet::new();
                            let batches: Vec<usize> = in_flight
                                .into_iter()
                                .map(|(b, t)| {
                                    set.insert(t);
                                    b
                                })
                                .collect();
                            let mut done = Vec::new();
                            while let Some((key, completed)) = set.wait_any() {
                                done.push((batches[key.index()], completed));
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
    for (batch, completed) in &outcomes {
        assert_eq!(
            completed.output.dim(0),
            *batch,
            "output batch dim matches the request"
        );
        if completed.slo == Slo::Bulk {
            assert!(!completed.missed, "deadline-free bulk cannot miss");
        }
    }
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.rejected, 0, "Block admission never rejects");
    assert_eq!(stats.served, total);
    assert_eq!(
        stats.latency.served + stats.bulk.served,
        total,
        "per-class served covers every request"
    );
    assert_eq!(
        stats.latency.submitted + stats.bulk.submitted,
        total,
        "per-class submitted covers every request"
    );
    assert_eq!(stats.bulk.missed, 0, "deadline-free bulk cannot miss");
    assert_eq!(stats.bulk.with_deadline, 0);
    assert_eq!(
        stats.latency.with_deadline, stats.latency.served,
        "every latency ticket carried a deadline"
    );
    assert!(stats.latency.missed <= stats.latency.served);
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

/// The aging starvation bound: under a **sustained latency flood**, bulk
/// tickets submitted at the start are still served within `bulk_max_age`
/// plus one in-flight sweep — instead of starving until the flood ends.
/// The promotion counter proves the mechanism (not a lucky idle gap)
/// served them.
#[test]
fn bulk_starvation_is_bounded_under_latency_flood() {
    let bulk_max_age = Duration::from_millis(150);
    // Generous allowance for the sweep(s) already in flight when the age
    // trips (CI machines are slow); still far below the flood duration,
    // so meeting the bound proves bulk cut *through* the flood.
    let slack = Duration::from_millis(1000);
    let flood = Duration::from_millis(2000);

    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(80));
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .queue_capacity(64)
            .admission(Admission::Block)
            .max_batch(Some(4))
            .max_wait(Duration::ZERO)
            .workers(1) // one worker: promotions must cut through it
            .bulk_max_age(bulk_max_age)
            .build()
            .unwrap(),
    )
    .start();

    // Two producers flood latency requests back-to-back (Block admission,
    // so the bounded queue stays full of latency work — the single worker
    // is saturated with no idle gaps for bulk to slip through). Bulk is
    // submitted only once the flood is established, so *only* the aging
    // promotion can serve it before the flood ends.
    let (bulk_waits, latency_done) = std::thread::scope(|sc| {
        let session = &session;
        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                sc.spawn(move || {
                    let mut rng = CqRng::new(81 + p);
                    let mut tickets = Vec::new();
                    let t0 = Instant::now();
                    while t0.elapsed() < flood {
                        tickets.push(
                            session
                                .submit(
                                    Request::to("m")
                                        .batch(request(&mut rng, 1))
                                        .slo(Slo::Latency),
                                )
                                .unwrap(),
                        );
                    }
                    tickets
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(200)); // flood established
        let mut rng = CqRng::new(90);
        let bulk: Vec<(Instant, Ticket)> = (0..3)
            .map(|_| {
                // Block admission: submission may stall on the full
                // queue, but the aging clock starts at the submit call.
                let t = session
                    .submit(Request::to("m").batch(request(&mut rng, 1)).slo(Slo::Bulk))
                    .unwrap();
                (Instant::now(), t)
            })
            .collect();
        // Poll while the flood runs: record the first instant each bulk
        // ticket is observed served, relative to its own submission.
        let mut bulk_waits: Vec<Option<Duration>> = vec![None; bulk.len()];
        let poll_end = Instant::now() + flood;
        while bulk_waits.iter().any(|w| w.is_none()) && Instant::now() < poll_end {
            for (i, (at, t)) in bulk.iter().enumerate() {
                if bulk_waits[i].is_none() && t.is_ready() {
                    bulk_waits[i] = Some(at.elapsed());
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Drain everything: every latency ticket resolves (bounded waits
        // so a scheduler regression fails instead of hanging).
        let mut latency_set = CompletionSet::new();
        for h in producers {
            for t in h.join().unwrap() {
                latency_set.insert(t);
            }
        }
        let mut latency_done = 0u64;
        while let Some((_k, done)) = latency_set.wait_any_timeout(Duration::from_secs(60)) {
            assert_eq!(done.slo, Slo::Latency);
            latency_done += 1;
        }
        assert!(latency_set.is_empty(), "latency drain starved");
        for (_, t) in bulk {
            assert_eq!(t.wait().output.dim(0), 1);
        }
        (bulk_waits, latency_done)
    });
    for (i, ready) in bulk_waits.iter().enumerate() {
        let waited = ready.unwrap_or_else(|| {
            panic!("bulk ticket {i} starved through the whole {flood:?} latency flood")
        });
        assert!(
            waited <= bulk_max_age + slack,
            "bulk ticket {i} waited {waited:?}, bound is {bulk_max_age:?} + {slack:?}"
        );
    }
    let (stats, _) = session.shutdown();
    assert!(
        stats.aged_promotions >= 1,
        "the aging mechanism never fired: bulk was served by idle gaps only"
    );
    assert_eq!(stats.latency.served, latency_done);
    assert_eq!(stats.bulk.served, 3);
}

/// Priority ordering: with one worker pinned on a long bulk sweep, every
/// `Latency` ticket submitted afterwards completes before any `Bulk`
/// ticket that was submitted ≥ `max_wait` earlier than the latency batch
/// — the scheduler drains the whole latency class before returning to
/// queued bulk work (strict policy, no aging).
#[test]
fn latency_completes_before_stale_bulk() {
    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(80));
    let max_wait = Duration::from_millis(1);
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .queue_capacity(64)
            .admission(Admission::Block)
            .max_batch(Some(2))
            .max_wait(max_wait)
            .workers(1)
            .build()
            .unwrap(),
    )
    .start();

    let t0 = Instant::now();
    let rng = &mut CqRng::new(81);
    // A long plug occupies the single worker (32 rows, chunked into 16
    // internal sweeps) while everything else is submitted.
    let plug = session
        .submit(Request::to("m").batch(request(rng, 32)))
        .unwrap();
    // Stale bulk backlog, submitted well over `max_wait` before the
    // latency tickets below.
    let bulk: Vec<(Duration, Ticket)> = (0..6)
        .map(|_| {
            let t = session
                .submit(Request::to("m").batch(request(rng, 1)))
                .unwrap();
            (t0.elapsed(), t)
        })
        .collect();
    std::thread::sleep(3 * max_wait);
    let latency: Vec<(Duration, Ticket)> = (0..6)
        .map(|_| {
            let t = session
                .submit(Request::to("m").batch(request(rng, 1)).slo(Slo::Latency))
                .unwrap();
            (t0.elapsed(), t)
        })
        .collect();
    let finish = |v: Vec<(Duration, Ticket)>| {
        v.into_iter()
            .map(|(at, t)| at + t.wait().latency)
            .collect::<Vec<Duration>>()
    };
    let latency_done = finish(latency);
    let bulk_done = finish(bulk);
    let _ = plug.wait();
    let (stats, _) = session.shutdown();

    let last_latency = latency_done.iter().max().unwrap();
    let first_bulk = bulk_done.iter().min().unwrap();
    assert!(
        last_latency < first_bulk,
        "a latency ticket completed after a bulk ticket submitted \
         ≥ max_wait earlier: last latency at {last_latency:?}, first bulk \
         at {first_bulk:?}"
    );
    assert_eq!(stats.latency.served, 6);
    assert_eq!(stats.bulk.served, 7);
    assert_eq!(stats.aged_promotions, 0, "strict policy never promotes");
}

/// Deadline-expired tickets still complete — with bit-exact outputs — but
/// carry the `Missed` status, and the per-class stats count them.
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
                .submit(
                    Request::to("m")
                        .batch(x.clone())
                        .slo(Slo::Latency)
                        .deadline(Duration::ZERO),
                )
                .unwrap()
        })
        .collect();
    let outcomes: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
    let _ = plug.wait();
    let (stats, models) = session.shutdown();
    for (completed, want) in outcomes.iter().zip(&want) {
        assert!(completed.missed, "zero deadline behind a plug must miss");
        assert_eq!(completed.slo, Slo::Latency);
        assert_eq!(&completed.output, want, "missed ticket output diverged");
    }
    assert_eq!(stats.latency.missed, 4);
    assert_eq!(stats.latency.served, 4);

    // A generous deadline on the handed-back model does not miss.
    let session = CimServer::new(ModelRegistry::from_models(models), cfg).start();
    let completed = session
        .submit(
            Request::to("m")
                .batch(inputs[0].clone())
                .slo(Slo::Latency)
                .deadline(Duration::from_secs(600)),
        )
        .unwrap()
        .wait();
    let (stats, _) = session.shutdown();
    assert!(!completed.missed);
    assert_eq!(stats.latency.missed, 0);
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
