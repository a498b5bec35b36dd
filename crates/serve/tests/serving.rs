//! Serving-layer integration tests: admission control, multi-model
//! isolation, deterministic scheduling under a seeded stream, the owned
//! session lifecycle, and bit-exactness of every serving path against
//! the direct `PreparedCimModel::infer` result.

use cq_cim::CimConfig;
use cq_core::{build_cim_resnet, for_each_cim_conv, BackendSet, PreparedCimModel, QuantScheme};
use cq_nn::{Layer, Mode, ResNet, ResNetSpec};
use cq_serve::{
    Admission, BackendKind, CimServer, ModelRegistry, Request, ServeConfig, ServeSession,
    ServeStats, SubmitError, Ticket,
};
use cq_tensor::{CqRng, Tensor};
use std::time::Duration;

/// A small CIM ResNet with all lazy scales initialized. Construction is
/// deterministic per seed, so two calls yield bit-identical models.
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

/// Submits every input to model "m" up front, then waits the tickets in
/// submission order.
fn submit_and_wait(session: &ServeSession, inputs: &[Tensor]) -> Vec<Tensor> {
    let tickets: Vec<Ticket> = inputs
        .iter()
        .map(|x| session.submit(Request::to("m").batch(x.clone())).unwrap())
        .collect();
    tickets.into_iter().map(|t| t.wait().output).collect()
}

/// Block admission admits everything; all outputs are bit-identical to
/// the direct standalone path, including oversized (chunked) requests.
#[test]
fn queued_serving_is_bit_exact_vs_direct() {
    let mut reference = warmed_net(1);
    let rng = &mut CqRng::new(2);
    // Mixed batch sizes; 7 exceeds max_batch=3 and must be chunked.
    let inputs: Vec<Tensor> = [1usize, 2, 7, 1, 3, 1, 5]
        .iter()
        .map(|&b| request(rng, b))
        .collect();
    let want: Vec<Tensor> = inputs
        .iter()
        .map(|x| reference.forward(x, Mode::Eval))
        .collect();

    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(1));
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .queue_capacity(4)
            .admission(Admission::Block)
            .max_batch(Some(3))
            .max_wait(Duration::from_millis(1))
            .workers(2)
            .build()
            .unwrap(),
    )
    .start();
    let got = submit_and_wait(&session, &inputs);
    let (stats, _) = session.shutdown();
    assert_eq!(got, want, "queued path diverged from direct inference");
    assert_eq!(stats.submitted, 7);
    assert_eq!(stats.served, 7);
    assert_eq!(stats.rejected, 0, "Block admission never rejects");
    assert_eq!(stats.rows_swept, 20);
}

/// The owned-session flow: `start` detaches the server into a session,
/// tickets resolve through pollable paths while the session runs, and
/// `shutdown` resolves every outstanding ticket, returns exact stats,
/// and hands the resident models back (still frozen and usable).
#[test]
fn owned_session_start_shutdown_roundtrip() {
    let mut reference = warmed_net(5);
    let rng = &mut CqRng::new(6);
    let inputs: Vec<Tensor> = (0..6).map(|_| request(rng, 1)).collect();
    let want: Vec<Tensor> = inputs
        .iter()
        .map(|x| reference.forward(x, Mode::Eval))
        .collect();

    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(5));
    let cfg = ServeConfig::builder()
        .max_batch(Some(2))
        .workers(2)
        .build()
        .unwrap();
    let session = CimServer::new(registry, cfg.clone()).start();
    let tickets: Vec<Ticket> = inputs
        .iter()
        .map(|x| session.submit(Request::to("m").batch(x.clone())).unwrap())
        .collect();
    // Shut down with every ticket still outstanding: shutdown must
    // resolve all of them (drain-then-join), and the tickets stay
    // waitable afterwards.
    let (stats, models) = session.shutdown();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.served, 6, "shutdown drains every admitted request");
    let got: Vec<Tensor> = tickets.into_iter().map(|t| t.wait().output).collect();
    assert_eq!(got, want, "post-shutdown resolution diverged");

    // The models come back by name and still serve directly.
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].0, "m");
    let registry = ModelRegistry::from_models(models);
    let session = CimServer::new(registry, cfg).start();
    let direct = submit_and_wait(&session, &inputs[..1]);
    let (stats2, _) = session.shutdown();
    assert_eq!(
        direct[0], want[0],
        "returned model diverged after round-trip"
    );
    assert_eq!(stats2.served, 1);
}

/// Many concurrent clients hammering one owned session: every ticket
/// resolves bit-exactly against the direct path, accounting is exact,
/// and — once the executor pool is warm — serving spawns **zero** OS
/// threads, no matter how many clients and sweeps run.
#[test]
fn many_client_hammer_is_bit_exact_with_zero_spawns() {
    let mut reference = warmed_net(21);
    let rng = &mut CqRng::new(22);
    let (n_clients, per_client) = (8usize, 6usize);
    let inputs: Vec<Vec<Tensor>> = (0..n_clients)
        .map(|c| {
            (0..per_client)
                .map(|i| request(rng, 1 + (c + i) % 3))
                .collect()
        })
        .collect();
    let want: Vec<Vec<Tensor>> = inputs
        .iter()
        .map(|client| {
            client
                .iter()
                .map(|x| reference.forward(x, Mode::Eval))
                .collect()
        })
        .collect();

    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(21));
    let cfg = ServeConfig::builder()
        .admission(Admission::Block)
        .max_batch(Some(4))
        .max_wait(Duration::from_millis(1))
        .workers(3)
        .build()
        .unwrap();
    let session = CimServer::new(registry, cfg).start();
    // Warm-up: first sweep lazily creates the global executor pool (and
    // any lazy serve state); everything after must spawn nothing.
    let warm = session
        .submit(Request::to("m").batch(inputs[0][0].clone()))
        .unwrap();
    assert_eq!(warm.wait().output, want[0][0]);
    let spawned_before = cq_tensor::exec::os_threads_spawned();

    let got: Vec<Vec<Tensor>> = std::thread::scope(|sc| {
        let session = &session;
        let handles: Vec<_> = inputs
            .iter()
            .map(|client| {
                sc.spawn(move || {
                    client
                        .iter()
                        .map(|x| {
                            session
                                .submit(Request::to("m").batch(x.clone()))
                                .unwrap()
                                .wait()
                                .output
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(got, want, "hammered session diverged from direct path");
    assert_eq!(
        cq_tensor::exec::os_threads_spawned(),
        spawned_before,
        "steady-state serving must not spawn OS threads"
    );
    let (stats, _) = session.shutdown();
    assert_eq!(stats.submitted as usize, n_clients * per_client + 1);
    assert_eq!(stats.served as usize, n_clients * per_client + 1);
}

/// Live stats scrapes run concurrently with serving: `session.stats()`,
/// `render_prometheus`, and the registry's `&self` backend accessors
/// (`primary_backends`, `backend_layer_counts`) never block on or
/// corrupt the serving path, and the monotone counters only grow.
#[test]
fn stats_scrape_runs_concurrently_with_serving() {
    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(33));
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .admission(Admission::Block)
            .max_batch(Some(2))
            .max_wait(Duration::from_micros(200))
            .workers(2)
            .build()
            .unwrap(),
    )
    .start();

    let served = std::thread::scope(|sc| {
        let session = &session;
        let submitter = sc.spawn(move || {
            let rng = &mut CqRng::new(34);
            let tickets: Vec<Ticket> = (0..30)
                .map(|_| {
                    session
                        .submit(Request::to("m").batch(request(rng, 1)))
                        .unwrap()
                })
                .collect();
            let mut served = 0usize;
            for t in tickets {
                let _ = t.wait();
                served += 1;
            }
            served
        });
        let scraper = sc.spawn(move || {
            let mut last_served = 0u64;
            for _ in 0..200 {
                let stats = session.stats();
                assert!(stats.served >= last_served, "served count went backwards");
                last_served = stats.served;
                assert!(stats.served <= stats.submitted);
                // The registry accessors take &self — no exclusive lock,
                // so they are scrapeable mid-flight too.
                assert_eq!(session.registry().primary_backends().len(), 1);
                let _layers: [usize; 3] = session.registry().backend_layer_counts();
                let text = stats.render_prometheus();
                assert!(text.contains("cq_serve_served_total"));
                assert!(text.contains("cq_serve_workers 2\n"));
            }
            last_served
        });
        let served = submitter.join().unwrap();
        let _ = scraper.join().unwrap();
        served
    });
    assert_eq!(served, 30);
    let (stats, _) = session.shutdown();
    assert_eq!(stats.served, 30);
    assert_eq!(stats.models.len(), 1);
    assert_eq!(stats.models[0].name, "m");
    assert!(!stats.models[0].evicted);
    assert_eq!(stats.models[0].served, 30);
    assert_eq!(
        stats.latency_hist.count(),
        30,
        "every fulfilment lands in the one histogram"
    );
    assert!(stats.bulk_hist.is_empty(), "bulk_hist is always empty");
    assert!(
        stats
            .render_prometheus()
            .contains("\ncq_serve_latency_seconds_count 30\n"),
        "the histogram renders unlabelled, with no empty braces"
    );
}

/// Reject admission bounds the queue: some of a fast burst is shed, the
/// accounting is exact, and every admitted request completes correctly.
#[test]
fn reject_admission_sheds_load_with_exact_accounting() {
    let mut reference = warmed_net(3);
    let rng = &mut CqRng::new(4);
    let inputs: Vec<Tensor> = (0..48).map(|_| request(rng, 1)).collect();
    let want: Vec<Tensor> = inputs
        .iter()
        .map(|x| reference.forward(x, Mode::Eval))
        .collect();

    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(3));
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .queue_capacity(2)
            .admission(Admission::Reject)
            .max_batch(Some(2))
            .max_wait(Duration::ZERO)
            .workers(1)
            .build()
            .unwrap(),
    )
    .start();
    // Submit the whole burst first (the worker needs milliseconds per
    // sweep; submission takes microseconds, so the tiny queue must
    // overflow), then wait the admitted tickets.
    let tickets: Vec<Result<Ticket, SubmitError>> = inputs
        .iter()
        .map(|x| session.submit(Request::to("m").batch(x.clone())))
        .collect();
    let results: Vec<_> = tickets.into_iter().map(|r| r.map(Ticket::wait)).collect();
    let (stats, _) = session.shutdown();
    let mut admitted = 0u64;
    let mut shed = 0u64;
    for (r, want) in results.into_iter().zip(&want) {
        match r {
            Ok(completed) => {
                admitted += 1;
                assert_eq!(&completed.output, want, "admitted output diverged");
            }
            Err(SubmitError::QueueFull(given_back)) => {
                shed += 1;
                assert_eq!(given_back.rank(), 4, "rejected input handed back");
            }
            Err(e) => panic!("unexpected submit error: {e:?}"),
        }
    }
    assert_eq!(stats.submitted, admitted);
    assert_eq!(stats.rejected, shed);
    assert_eq!(admitted + shed, 48);
    assert!(shed > 0, "a 48-request burst into a 2-slot queue must shed");
    assert_eq!(stats.served, admitted, "every admitted request was served");
    assert!(stats.peak_queue_depth <= 2, "capacity bound violated");
}

/// Two resident models must be fully isolated: each request's output is
/// bit-identical to its own standalone `PreparedCimModel`, regardless of
/// interleaving.
#[test]
fn multi_model_residency_is_isolated_and_bit_exact() {
    let mut ref_a = warmed_net(10);
    let mut ref_b = warmed_net(20);
    // A seeded interleaving of models and batch sizes.
    let pick = &mut CqRng::new(99);
    let rng = &mut CqRng::new(5);
    let inputs: Vec<(usize, Tensor)> = (0..24)
        .map(|_| {
            let model = pick.below(2);
            let batch = [1, 2, 5][pick.below(3)];
            (model, request(rng, batch))
        })
        .collect();
    let want: Vec<Tensor> = inputs
        .iter()
        .map(|(m, x)| {
            if *m == 0 {
                ref_a.forward(x, Mode::Eval)
            } else {
                ref_b.forward(x, Mode::Eval)
            }
        })
        .collect();

    let mut registry = ModelRegistry::new();
    let id_a = registry.register("model-a", prepared(10));
    let id_b = registry.register("model-b", prepared(20));
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .queue_capacity(32)
            .admission(Admission::Block)
            .max_batch(Some(4))
            .max_wait(Duration::from_millis(1))
            .workers(3)
            .build()
            .unwrap(),
    )
    .start();
    let tickets: Vec<Ticket> = inputs
        .iter()
        .map(|(m, x)| {
            let id = if *m == 0 { id_a } else { id_b };
            session.submit(Request::to_id(id).batch(x.clone())).unwrap()
        })
        .collect();
    let got: Vec<Tensor> = tickets.into_iter().map(|t| t.wait().output).collect();
    let (stats, _) = session.shutdown();
    assert_eq!(got, want, "multi-model outputs diverged from standalone");
    assert_eq!(stats.served, 24);
}

/// With one worker and a generous linger, batch formation over a seeded
/// pre-submitted stream is deterministic: identical stats across runs,
/// and the scheduler coalesces up to the cap.
#[test]
fn scheduler_is_deterministic_under_a_seeded_stream() {
    let run = || {
        let rng = &mut CqRng::new(6);
        let inputs: Vec<Tensor> = (0..16).map(|_| request(rng, 1)).collect();
        let mut registry = ModelRegistry::new();
        registry.register("m", prepared(30));
        let session = CimServer::new(
            registry,
            ServeConfig::builder()
                .queue_capacity(32)
                .admission(Admission::Block)
                .max_batch(Some(4))
                .max_wait(Duration::from_secs(2))
                .workers(1)
                .build()
                .unwrap(),
        )
        .start();
        // Pre-submit the whole stream, then wait: the single worker's
        // scheduler always finds a full queue (or lingers far longer than
        // the submission loop takes), so sweeps fill to the cap.
        let out = submit_and_wait(&session, &inputs);
        (out, session.shutdown().0)
    };
    let (out1, stats1) = run();
    let (out2, stats2) = run();
    assert_eq!(out1, out2, "outputs must be identical across runs");
    assert_eq!(stats1.batches, stats2.batches, "batch count diverged");
    assert_eq!(stats1.rows_swept, 16);
    assert_eq!(stats1.batches, 4, "16 single-image requests at cap 4");
    assert_eq!(stats1.max_sweep_rows, 4);
}

/// A request whose shape the model rejects must make its waiting client
/// panic — worker panics propagate through abandoned tickets, and the
/// session's drop-on-unwind joins the workers — never deadlock.
#[test]
#[should_panic]
fn model_rejecting_an_input_panics_instead_of_hanging() {
    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(50));
    let session =
        CimServer::new(registry, ServeConfig::builder().workers(1).build().unwrap()).start();
    // An empty image: admitted (rank 4, 3 channels), but the stem's
    // 3×3 kernel does not fit it.
    let bad = Tensor::zeros(&[1, 3, 0, 0]);
    let t = session.submit(Request::to("m").batch(bad)).unwrap();
    let _ = t.wait(); // panics: the worker abandoned the ticket
}

/// One bad request must not break the model for everyone else: its sweep
/// panics on one worker of a two-worker session, the next valid request
/// is served by the other worker bit-identical to a direct `infer`, and
/// `shutdown` still re-raises the worker panic.
#[test]
fn panicking_sweep_leaves_the_model_servable_by_other_workers() {
    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(52));
    let session =
        CimServer::new(registry, ServeConfig::builder().workers(2).build().unwrap()).start();
    let bad = Tensor::zeros(&[1, 3, 0, 0]); // the stem's kernel does not fit
    let t = session.submit(Request::to("m").batch(bad)).unwrap();
    let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.wait()));
    assert!(waited.is_err(), "the rejected request's ticket must panic");

    let x = request(&mut CqRng::new(53), 1);
    let got = session
        .submit(Request::to("m").batch(x.clone()))
        .unwrap()
        .wait()
        .output;
    assert_eq!(got, prepared(52).infer(&x), "served output diverged");
    let shut = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.shutdown()));
    assert!(shut.is_err(), "shutdown must re-raise the worker panic");
}

/// Unknown models, batch-less requests and inputs that are not rank 4
/// fail recoverably at submission — no panic, the session stays usable.
#[test]
fn unknown_model_and_missing_input_are_rejected_at_submit() {
    let mut registry = ModelRegistry::new();
    registry.register("only", prepared(40));
    let session = CimServer::new(registry, ServeConfig::default()).start();
    let unknown = session
        .submit(Request::to("missing").batch(Tensor::zeros(&[1, 3, 12, 12])))
        .err()
        .unwrap();
    let missing = session.submit(Request::to("only")).err().unwrap();
    let invalid = session
        .submit(Request::to("only").batch(Tensor::zeros(&[3, 12, 12])))
        .err()
        .unwrap();
    // The session survives every rejection.
    let served = session
        .submit(Request::to("only").batch(Tensor::zeros(&[1, 3, 12, 12])))
        .unwrap()
        .wait();
    let (stats, _) = session.shutdown();
    assert!(matches!(unknown, SubmitError::UnknownModel(name) if name == "missing"));
    assert!(matches!(missing, SubmitError::MissingInput));
    match invalid {
        SubmitError::InvalidInput(given_back) => {
            assert_eq!(given_back.shape(), &[3, 12, 12], "input handed back")
        }
        other => panic!("a rank-3 input must be rejected, got {other:?}"),
    }
    assert_eq!(served.output.dim(0), 1);
    assert_eq!(stats.submitted, 1, "rejected requests are never admitted");
}

/// A request whose channel count is not the model's (`[1,5,12,12]` to a
/// 3-channel model) is refused at submit with its input handed back; it
/// never reaches a sweep, where it would panic the worker. On a
/// one-worker session a valid request is then still served bit-exact,
/// the refusal leaves no admission behind (eviction drains at once), and
/// shutdown is clean.
#[test]
fn wrong_channel_count_is_rejected_at_submit() {
    let reference = prepared(47);
    assert_eq!(reference.in_channels(), Some(3));
    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(47));
    let cfg = ServeConfig::builder().workers(1).build().unwrap();
    let session = CimServer::new(registry, cfg).start();
    let id = session.model_id("m").unwrap();
    let by_name = session
        .submit(Request::to("m").batch(Tensor::zeros(&[1, 5, 12, 12])))
        .err()
        .unwrap();
    let by_id = session
        .submit(Request::to_id(id).batch(Tensor::zeros(&[2, 1, 12, 12])))
        .err()
        .unwrap();
    let x = request(&mut CqRng::new(48), 2);
    let served = session
        .submit(Request::to("m").batch(x.clone()))
        .unwrap()
        .wait();
    let model = session
        .evict("m")
        .unwrap()
        .wait_timeout(Duration::from_secs(5))
        .expect("no refused request left an admission behind");
    let (stats, _) = session.shutdown();
    for (refused, shape) in [(by_name, [1, 5, 12, 12]), (by_id, [2, 1, 12, 12])] {
        match refused {
            SubmitError::InvalidInput(given_back) => {
                assert_eq!(given_back.shape(), &shape, "input handed back")
            }
            other => panic!("a {shape:?} input must be refused, got {other:?}"),
        }
    }
    assert_eq!(
        served.output,
        reference.infer(&x),
        "bit-exact after refusals"
    );
    assert_eq!(model.infer(&x), served.output);
    assert_eq!((stats.submitted, stats.served), (1, 1));
}

/// Session ergonomics: `model_id` resolves names for `Request::to_id`
/// hot paths, a ticket resolved before shutdown stays valid, and a
/// session dropped without `shutdown` (client bailed out) neither leaks
/// worker threads nor hangs.
#[test]
fn session_model_ids_and_drop_without_shutdown() {
    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(45));
    let session = CimServer::new(registry, ServeConfig::default()).start();
    assert!(session.model_id("missing").is_none());
    let id = session.model_id("m").unwrap();
    let warm = session
        .submit(Request::to_id(id).batch(Tensor::zeros(&[1, 3, 12, 12])))
        .unwrap();
    let (stats, models) = session.shutdown();
    assert_eq!(stats.served, 1);
    assert!(!warm.wait().missed);
    // A fresh session over the returned models works; dropping it without
    // shutdown must close the queue and join the workers.
    let session =
        CimServer::new(ModelRegistry::from_models(models), ServeConfig::default()).start();
    drop(session);
}

/// Oversized requests on a multi-worker session (each chunked to the
/// sweep cap inside the model, its waves and kernels on the exec pool)
/// must leave every output bit-identical to the direct standalone path.
#[test]
fn oversized_requests_across_workers_are_bit_exact_vs_direct() {
    let mut reference = warmed_net(60);
    let rng = &mut CqRng::new(61);
    let inputs: Vec<Tensor> = [9usize, 1, 7, 2, 1]
        .iter()
        .map(|&b| request(rng, b))
        .collect();
    let want: Vec<Tensor> = inputs
        .iter()
        .map(|x| reference.forward(x, Mode::Eval))
        .collect();

    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(60));
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .queue_capacity(16)
            .admission(Admission::Block)
            .max_batch(Some(4))
            .max_wait(Duration::from_millis(1))
            .workers(3)
            .build()
            .unwrap(),
    )
    .start();
    let got = submit_and_wait(&session, &inputs);
    let (stats, _) = session.shutdown();
    assert_eq!(
        got, want,
        "oversized serving diverged from direct inference"
    );
    assert_eq!(stats.served, 5);
    assert_eq!(stats.max_sweep_rows, 9, "an oversized request sweeps alone");
}

/// A one-worker session serves an oversized request in one sweep
/// (chunked inside the model) without deadlocking.
#[test]
fn single_worker_serves_oversized_request_bit_exactly() {
    let mut reference = warmed_net(62);
    let big = CqRng::new(63).normal_tensor(&[6, 3, 12, 12], 1.0);
    let want = reference.forward(&big, Mode::Eval);
    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(62));
    let session =
        CimServer::new(registry, ServeConfig::builder().workers(1).build().unwrap()).start();
    let got = submit_and_wait(&session, std::slice::from_ref(&big));
    let (stats, _) = session.shutdown();
    assert_eq!(got, [want]);
    assert_eq!(stats.batches, 1);
}

/// Per-backend attribution: every sweep and image of a one-model session
/// lands on the model's primary backend and nowhere else,
/// `active_layers` mirrors the model's resolved layer counts until it is
/// evicted, and the Prometheus rendering carries the sweep counters. Run
/// with the layers frozen on the scalar chain and on the auto chain (the
/// default without `CQ_BACKEND`).
#[test]
fn backend_counters_attribute_sweeps_to_the_primary_backend() {
    for (backends, primary) in [
        (BackendSet::scalar(), BackendKind::Scalar),
        (BackendSet::auto(), BackendKind::IntPanels),
    ] {
        let prepared_on = |backends: &BackendSet| {
            let mut net = warmed_net(70);
            for_each_cim_conv(&mut net, |c| c.set_backends(backends.clone()).unwrap());
            PreparedCimModel::new(Box::new(net))
        };
        let mut registry = ModelRegistry::new();
        registry.register("m", prepared_on(&backends));
        let session = CimServer::new(
            registry,
            ServeConfig::builder()
                .workers(1)
                .max_batch(Some(2))
                .build()
                .unwrap(),
        )
        .start();
        let rng = &mut CqRng::new(71);
        let inputs: Vec<Tensor> = [1usize, 2, 1, 3].iter().map(|&b| request(rng, b)).collect();
        submit_and_wait(&session, &inputs);

        let layers = prepared_on(&backends).backend_layer_counts();
        assert!(layers[primary.index()] > 0, "{primary:?} serves the model");
        let active = |s: &ServeStats| s.backends.map(|b| b.active_layers);
        assert_eq!(active(&session.stats()), layers, "live active layers");
        let evicted = session
            .evict("m")
            .unwrap()
            .wait_timeout(Duration::from_secs(60))
            .expect("idle model drains");
        assert_eq!(evicted.backend_layer_counts(), layers);
        let (stats, _) = session.shutdown();
        assert_eq!(active(&stats), [0; 3], "eviction retires the layers");

        assert_eq!(stats.rows_swept, 7);
        for kind in BackendKind::ALL {
            let b = stats.backends[kind.index()];
            let want = if kind == primary {
                (stats.batches, stats.rows_swept)
            } else {
                (0, 0)
            };
            assert_eq!((b.sweeps, b.images), want, "{kind:?} sweeps/images");
        }
        let line = format!(
            "cq_serve_backend_sweeps_total{{backend=\"{}\"}} {}\n",
            primary.name(),
            stats.batches
        );
        assert!(stats.render_prometheus().contains(&line), "missing {line}");
    }
}
