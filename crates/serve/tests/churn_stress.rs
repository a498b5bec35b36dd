//! Hot-swap churn under multi-producer load: a live session keeps
//! serving while one thread repeatedly evicts the model behind a name
//! and registers a fresh version under it. The invariants pinned here:
//!
//! * **zero lost tickets** — every submitted ticket resolves, across
//!   every swap;
//! * **versioned bit-exactness** — each ticket's output is bit-identical
//!   to the standalone forward of the *version that served it* (the
//!   version its `ModelId` was resolved against at submit time);
//! * **recoverable unknown-model** — a producer racing an eviction gets
//!   `SubmitError::UnknownModel`, re-resolves, and carries on;
//! * **reclaim round-trip** — every evict ticket resolves with its
//!   drained `PreparedCimModel`, which then round-trips through
//!   `ModelRegistry::from_models` and serves bit-exactly again.

use cq_cim::CimConfig;
use cq_core::{build_cim_resnet, PreparedCimModel, QuantScheme};
use cq_nn::{Layer, Mode, ResNet, ResNetSpec};
use cq_serve::{Admission, CimServer, ModelRegistry, Request, ServeConfig, SubmitError, Ticket};
use cq_tensor::{CqRng, Tensor};
use std::sync::Mutex;
use std::time::Duration;

/// Deterministic per seed: two calls yield bit-identical models.
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

/// Like [`prepared`] but under an arbitrary quantization scheme.
fn prepared_with(seed: u64, scheme: &QuantScheme) -> PreparedCimModel {
    let mut net = build_cim_resnet(ResNetSpec::resnet8(4, 4), &CimConfig::tiny(), scheme, seed);
    let x = CqRng::new(seed + 1000).normal_tensor(&[2, 3, 12, 12], 1.0);
    let _ = net.forward(&x, Mode::Eval);
    PreparedCimModel::new(Box::new(net))
}

/// Seed of the churned model's `version` build (version 0 is resident at
/// start; versions 1.. are hot-registered mid-load).
fn version_seed(version: usize) -> u64 {
    200 + version as u64
}

const SWAPS: usize = 3;

/// Runs the churn scenario on a session built from `cfg` while a swapper
/// hot-swaps "hot" `SWAPS` times. Asserts zero lost tickets, versioned
/// bit-exactness, the swap counters and the reclaim round-trip.
fn run_churn(cfg: ServeConfig) {
    const PRODUCERS: usize = 3;
    const PER_PRODUCER: usize = 14;

    let mut registry = ModelRegistry::new();
    registry.register("keep", prepared(99));
    let hot_v0 = registry.register("hot", prepared(version_seed(0)));
    let session = CimServer::new(registry, cfg).start();

    // The swapper publishes (version, id) of the live "hot" model here;
    // producers snapshot it per request and retry on the eviction race.
    let live_hot = Mutex::new((0usize, hot_v0));
    // (version, input, ticket) per "hot" submission, (usize::MAX, ..) for
    // "keep" ones — verified against the matching reference net below.
    type Submitted = (usize, Tensor, Ticket);
    let mut all: Vec<Submitted> = Vec::new();
    let mut reclaimed: Vec<(usize, PreparedCimModel)> = Vec::new();

    std::thread::scope(|scope| {
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let session = &session;
            let live_hot = &live_hot;
            producers.push(scope.spawn(move || {
                let rng = &mut CqRng::new(7000 + p as u64);
                let mut mine: Vec<Submitted> = Vec::new();
                for _ in 0..PER_PRODUCER {
                    let batch = 1 + rng.below(2);
                    let x = rng.normal_tensor(&[batch, 3, 12, 12], 1.0);
                    if rng.below(4) == 0 {
                        let t = session
                            .submit(Request::to("keep").batch(x.clone()))
                            .expect("stable model always admits");
                        mine.push((usize::MAX, x, t));
                        continue;
                    }
                    // Swap race: the id snapshot may be evicted before the
                    // submit lands — UnknownModel is recoverable, re-resolve
                    // and retry (bounded: the swapper re-registers the name
                    // immediately after every evict).
                    loop {
                        let (version, id) = *live_hot.lock().unwrap();
                        match session.submit(Request::to_id(id).batch(x.clone())) {
                            Ok(t) => {
                                mine.push((version, x, t));
                                break;
                            }
                            Err(SubmitError::UnknownModel(_)) => continue,
                            Err(e) => panic!("unexpected submit error: {e:?}"),
                        }
                    }
                }
                mine
            }));
        }

        // The swapper: evict the live "hot" version, immediately register
        // the next one under the same name, and keep the producers' id
        // snapshot fresh. Every evict ticket must hand its model back.
        let swapper = scope.spawn(|| {
            let mut got = Vec::new();
            for version in 1..=SWAPS {
                std::thread::sleep(Duration::from_millis(15));
                let evict = session.evict("hot").expect("hot model is live");
                let id = session
                    .register("hot", prepared(version_seed(version)))
                    .expect("evicted name is immediately reusable");
                *live_hot.lock().unwrap() = (version, id);
                let model = match evict.wait_timeout(Duration::from_secs(60)) {
                    Ok(m) => m,
                    Err(_) => panic!("evict ticket resolves once in-flight work drains"),
                };
                got.push((version - 1, model));
            }
            got
        });

        for p in producers {
            all.extend(p.join().unwrap());
        }
        reclaimed = swapper.join().unwrap();
    });

    // Zero lost tickets: every submission resolves, bit-exact against the
    // version that served it.
    let submitted = all.len();
    assert_eq!(submitted, PRODUCERS * PER_PRODUCER);
    let mut keep_ref = warmed_net(99);
    let mut hot_refs: Vec<ResNet> = (0..=SWAPS).map(|v| warmed_net(version_seed(v))).collect();
    for (version, x, ticket) in all {
        let done = ticket.wait();
        let want = if version == usize::MAX {
            keep_ref.forward(&x, Mode::Eval)
        } else {
            hot_refs[version].forward(&x, Mode::Eval)
        };
        assert_eq!(done.output, want, "output diverged from serving version");
    }

    let (stats, models) = session.shutdown();
    assert_eq!(stats.served, submitted as u64, "every ticket fulfilled");
    assert_eq!(stats.hot_registered, SWAPS as u64);
    assert_eq!(stats.evictions, SWAPS as u64);
    let names: Vec<&str> = models.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        ["keep", "hot"],
        "shutdown hands back only the live models"
    );

    // Reclaimed versions round-trip through `from_models` unchanged: a
    // fresh session over the evicted model still serves bit-exactly.
    assert_eq!(reclaimed.len(), SWAPS, "every evict ticket delivered");
    for (version, model) in reclaimed {
        let registry = ModelRegistry::from_models(vec![("hot".to_string(), model)]);
        let session =
            CimServer::new(registry, ServeConfig::builder().workers(1).build().unwrap()).start();
        let x = CqRng::new(version_seed(version) + 77).normal_tensor(&[2, 3, 12, 12], 1.0);
        let want = hot_refs[version].forward(&x, Mode::Eval);
        let got = session
            .submit(Request::to("hot").batch(x))
            .unwrap()
            .wait()
            .output;
        session.shutdown();
        assert_eq!(got, want, "reclaimed v{version} diverged after round-trip");
    }
}

#[test]
fn hot_swap_churn_loses_nothing_and_stays_version_exact() {
    run_churn(
        ServeConfig::builder()
            .queue_capacity(8)
            .admission(Admission::Block)
            .max_batch(Some(3))
            .max_wait(Duration::from_micros(200))
            .workers(2)
            .build()
            .unwrap(),
    );
}

/// Evicting while idle resolves the ticket immediately; the name becomes
/// unknown to new submissions the moment `evict` returns.
#[test]
fn evict_on_idle_session_is_immediate_and_unroutable() {
    let mut registry = ModelRegistry::new();
    registry.register("a", prepared(300));
    registry.register("b", prepared(301));
    let session =
        CimServer::new(registry, ServeConfig::builder().workers(1).build().unwrap()).start();

    let ticket = session.evict("a").unwrap();
    assert!(ticket.is_ready(), "idle model drains instantly");
    let x = CqRng::new(1).normal_tensor(&[1, 3, 12, 12], 1.0);
    match session.submit(Request::to("a").batch(x.clone())) {
        Err(SubmitError::UnknownModel(name)) => assert_eq!(name, "a"),
        other => panic!("evicted name must be unroutable, got {other:?}"),
    }
    // Recovery: the caller falls back to the surviving model.
    let done = session
        .submit(Request::to("b").batch(x.clone()))
        .unwrap()
        .wait();
    assert_eq!(done.output, warmed_net(301).forward(&x, Mode::Eval));
    let model = match ticket.try_wait() {
        Ok(m) => m,
        Err(_) => panic!("already resolved"),
    };
    drop(model);

    let (stats, models) = session.shutdown();
    assert_eq!(stats.evictions, 1);
    assert_eq!(models.len(), 1, "only 'b' is still resident");
}

/// A pending evict ticket is still delivered when the session shuts down
/// before the name sees more traffic — shutdown is the delivery backstop.
#[test]
fn shutdown_delivers_pending_evict_tickets() {
    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(310));
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .workers(1)
            .max_batch(Some(1))
            .build()
            .unwrap(),
    )
    .start();
    let x = CqRng::new(2).normal_tensor(&[1, 3, 12, 12], 1.0);
    let id = session.model_id("m").unwrap();
    let ticket = session.submit(Request::to_id(id).batch(x)).unwrap();
    let evict = session.evict("m").unwrap();
    // The in-flight request drains and delivers; either way, after
    // shutdown the ticket must be resolved.
    let _ = ticket.wait();
    let (stats, models) = session.shutdown();
    assert_eq!(stats.served, 1);
    assert!(models.is_empty(), "evicted model is not handed back twice");
    let model = match evict.wait_timeout(Duration::from_secs(5)) {
        Ok(m) => m,
        Err(_) => panic!("shutdown delivers the reclaim"),
    };
    drop(model);
}

#[test]
fn duplicate_name_and_unknown_evict_hand_errors_back() {
    let mut registry = ModelRegistry::new();
    registry.register("m", prepared(320));
    let session =
        CimServer::new(registry, ServeConfig::builder().workers(1).build().unwrap()).start();
    match session.register("m", prepared(321)) {
        Err(cq_serve::SwapError::DuplicateName {
            name,
            existing_scheme,
            model,
        }) => {
            assert_eq!(name, "m");
            assert_eq!(existing_scheme, "paper-lsq-column");
            drop(model); // the rejected model is handed back intact
        }
        other => panic!("duplicate live name must be rejected, got {other:?}"),
    }
    // Same name under a *different* scheme: still the recoverable
    // duplicate error — never a silent overwrite — and the error
    // attributes the scheme of the live holder, not the offered model.
    match session.register("m", prepared_with(322, &QuantScheme::bwma())) {
        Err(cq_serve::SwapError::DuplicateName {
            name,
            existing_scheme,
            model,
        }) => {
            assert_eq!(name, "m");
            assert_eq!(existing_scheme, "paper-lsq-column");
            drop(model);
        }
        other => panic!("cross-scheme duplicate must be rejected, got {other:?}"),
    }
    match session.evict("ghost") {
        Err(cq_serve::SwapError::UnknownModel(name)) => assert_eq!(name, "ghost"),
        other => panic!("unknown evict must be recoverable, got {other:?}"),
    }
    let (stats, models) = session.shutdown();
    assert_eq!(stats.hot_registered, 0);
    assert_eq!(models.len(), 1);
}

/// Hot-swap **across quantization schemes**: the paper-scheme model is
/// evicted and a BWMA model takes over its name mid-load. Pinned: zero
/// lost tickets, per-version bit-exactness (each ticket matches the
/// standalone forward of the scheme/version that served it), and the
/// final stats attribute images to both schemes.
#[test]
fn cross_scheme_hot_swap_stays_version_exact_and_attributes_schemes() {
    let mut registry = ModelRegistry::new();
    let v0 = registry.register("hot", prepared_with(400, &QuantScheme::ours()));
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .queue_capacity(8)
            .max_batch(Some(2))
            .workers(2)
            .build()
            .unwrap(),
    )
    .start();

    let rng = &mut CqRng::new(8100);
    let mut before = Vec::new();
    for _ in 0..5 {
        let x = rng.normal_tensor(&[1, 3, 12, 12], 1.0);
        let t = session.submit(Request::to_id(v0).batch(x.clone())).unwrap();
        before.push((x, t));
    }

    // Swap the name over to a *different scheme* while tickets resolve.
    let evict = session.evict("hot").unwrap();
    let v1 = session
        .register("hot", prepared_with(401, &QuantScheme::bwma()))
        .expect("evicted name is reusable under a new scheme");
    assert_eq!(session.registry().scheme(v1), "bwma");
    let reclaimed = evict
        .wait_timeout(Duration::from_secs(60))
        .expect("v0 drains");

    let mut after = Vec::new();
    for _ in 0..5 {
        let x = rng.normal_tensor(&[1, 3, 12, 12], 1.0);
        let t = session.submit(Request::to_id(v1).batch(x.clone())).unwrap();
        after.push((x, t));
    }

    // Zero lost tickets, each bit-exact against the version that served it.
    let mut ref_v0 = build_cim_resnet(
        ResNetSpec::resnet8(4, 4),
        &CimConfig::tiny(),
        &QuantScheme::ours(),
        400,
    );
    let warm = CqRng::new(1400).normal_tensor(&[2, 3, 12, 12], 1.0);
    let _ = ref_v0.forward(&warm, Mode::Eval);
    let mut ref_v1 = build_cim_resnet(
        ResNetSpec::resnet8(4, 4),
        &CimConfig::tiny(),
        &QuantScheme::bwma(),
        401,
    );
    let warm = CqRng::new(1401).normal_tensor(&[2, 3, 12, 12], 1.0);
    let _ = ref_v1.forward(&warm, Mode::Eval);
    for (x, t) in before {
        assert_eq!(t.wait().output, ref_v0.forward(&x, Mode::Eval));
    }
    for (x, t) in after {
        assert_eq!(t.wait().output, ref_v1.forward(&x, Mode::Eval));
    }
    drop(reclaimed);

    let (stats, _models) = session.shutdown();
    assert_eq!(stats.served, 10, "zero lost tickets across the scheme swap");
    let by_scheme = stats.images_by_scheme();
    let images_of = |name: &str| {
        by_scheme
            .iter()
            .find(|(s, _)| s == name)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    };
    assert_eq!(images_of("paper-lsq-column"), 5);
    assert_eq!(images_of("bwma"), 5);
    for m in &stats.models {
        assert!(!m.scheme.is_empty(), "session overlays scheme attribution");
    }
    let prom = stats.render_prometheus();
    assert!(prom.contains("cq_serve_scheme_images_total{scheme=\"bwma\"} 5"));
    assert!(prom.contains("scheme=\"paper-lsq-column\""));
}

/// A non-empty `scheme_allowlist` refuses out-of-list schemes on live
/// registration with a recoverable error that hands the model back;
/// allowed schemes register normally.
#[test]
fn scheme_allowlist_gates_live_registration_recoverably() {
    let mut registry = ModelRegistry::new();
    registry.register("seed", prepared(409));
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .workers(1)
            .scheme_allowlist(["paper-lsq-column"])
            .build()
            .unwrap(),
    )
    .start();

    let model = match session.register("m", prepared_with(410, &QuantScheme::bwma())) {
        Err(cq_serve::SwapError::SchemeNotAllowed { scheme, model }) => {
            assert_eq!(scheme, "bwma");
            model // handed back untouched — reusable elsewhere
        }
        other => panic!("out-of-list scheme must be refused, got {other:?}"),
    };
    drop(model);

    session
        .register("m", prepared_with(411, &QuantScheme::ours()))
        .expect("allowlisted scheme registers");
    let x = CqRng::new(5).normal_tensor(&[1, 3, 12, 12], 1.0);
    let done = session.submit(Request::to("m").batch(x)).unwrap().wait();
    assert_eq!(done.output.shape(), &[1, 4]);
    let (stats, models) = session.shutdown();
    assert_eq!(stats.served, 1);
    assert_eq!(models.len(), 2, "seed model and the allowlisted register");
}
