//! End-to-end contracts of the prediction server: bit-equality with
//! direct suite calls, staleness-free suite swaps, structured load
//! shedding, and the TCP front door.

use dnnperf_core::Workflow;
use dnnperf_data::collect::collect;
use dnnperf_dnn::{zoo, Network};
use dnnperf_gpu::GpuSpec;
use dnnperf_serve::{
    CacheConfig, Client, PredictionServer, Request, Response, ServeError, ServerConfig, TcpServer,
};
use std::sync::Arc;

fn small_nets() -> Vec<Network> {
    vec![
        zoo::mobilenet::mobilenet_v2(0.25, 1.0),
        zoo::mobilenet::mobilenet_v2(0.5, 1.5),
        zoo::squeezenet::squeezenet(64, 32, 0.125),
        zoo::squeezenet::squeezenet(128, 128, 0.25),
    ]
}

fn train_suite(gpu: &str) -> Arc<Workflow> {
    let gpu_spec = GpuSpec::by_name(gpu).unwrap();
    let ds = collect(&small_nets(), &[gpu_spec], &[1, 8]);
    Arc::new(Workflow::train(&ds, gpu).unwrap())
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 64,
        max_batch: 8,
        cache: CacheConfig {
            shards: 4,
            budget_bytes: 8 << 20,
        },
        panic_plan: None,
    }
}

#[test]
fn served_predictions_are_bit_identical_to_direct_calls() {
    let suite = train_suite("A100");
    let server = PredictionServer::start(&test_config());
    server.register_tenant("team-a", Arc::clone(&suite));
    server.add_networks(small_nets());

    for net in &small_nets() {
        for batch in [1usize, 8, 32] {
            let direct = suite.predict(net, batch).unwrap();
            let served = server.predict("team-a", net.name(), batch).unwrap();
            assert_eq!(
                served.to_bits(),
                direct.to_bits(),
                "{} batch {batch}",
                net.name()
            );

            let direct_g = suite.predict_graceful(net, batch).unwrap();
            let served_g = server
                .predict_graceful("team-a", net.name(), batch)
                .unwrap();
            assert_eq!(served_g.seconds.to_bits(), direct_g.seconds.to_bits());
            assert_eq!(served_g.notes.len(), direct_g.notes.len());
        }
    }

    // The second sweep of the same requests must be all cache hits.
    let before = server.stats();
    for net in &small_nets() {
        let _ = server.predict("team-a", net.name(), 8).unwrap();
    }
    let after = server.stats();
    assert_eq!(after.cache.misses, before.cache.misses, "no new compiles");
    assert!(after.cache.hits > before.cache.hits);
    server.shutdown();
}

#[test]
fn suite_swap_serves_the_new_models_immediately() {
    let old_suite = train_suite("A100");
    let new_suite = train_suite("V100");
    let net = zoo::mobilenet::mobilenet_v2(0.25, 1.0);

    let server = PredictionServer::start(&test_config());
    server.register_tenant("tenant", Arc::clone(&old_suite));
    server.add_networks(small_nets());

    let before = server.predict("tenant", net.name(), 8).unwrap();
    assert_eq!(
        before.to_bits(),
        old_suite.predict(&net, 8).unwrap().to_bits()
    );

    // Retrain: swap the suite. The old generation's plans are purged and
    // the very next request is served by the new models.
    let purged = server.update_suite("tenant", Arc::clone(&new_suite));
    assert!(purged > 0, "old generation should have resident plans");

    let after = server.predict("tenant", net.name(), 8).unwrap();
    assert_eq!(
        after.to_bits(),
        new_suite.predict(&net, 8).unwrap().to_bits()
    );
    assert_ne!(
        after.to_bits(),
        before.to_bits(),
        "suites trained on different GPUs must serve different times"
    );
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_overloaded_and_shutdown_answers_the_rest() {
    let suite = train_suite("A100");
    let server = PredictionServer::start(&ServerConfig {
        workers: 0, // nothing drains the queue: admitted requests park
        queue_depth: 2,
        max_batch: 4,
        cache: CacheConfig::default(),
        panic_plan: None,
    });
    server.register_tenant("t", suite);
    server.add_networks(small_nets());
    let net = small_nets().remove(0);

    let p1 = server.submit("t", net.name(), 1).unwrap();
    let p2 = server.submit("t", net.name(), 2).unwrap();
    assert_eq!(
        server.submit("t", net.name(), 4).unwrap_err(),
        ServeError::Overloaded
    );
    assert_eq!(server.stats().shed, 1);

    // Shutdown answers the parked requests instead of hanging them.
    server.shutdown();
    assert_eq!(p1.wait().unwrap_err(), ServeError::ShuttingDown);
    assert_eq!(p2.wait().unwrap_err(), ServeError::ShuttingDown);
    assert_eq!(
        server.submit("t", net.name(), 1).unwrap_err(),
        ServeError::ShuttingDown
    );
}

#[test]
fn warm_hits_are_answered_inline_and_only_misses_queue() {
    let suite = train_suite("A100");
    let server = PredictionServer::start(&ServerConfig {
        workers: 0, // nothing drains the queue: only misses park
        queue_depth: 1,
        max_batch: 4,
        cache: CacheConfig::default(),
        panic_plan: None,
    });
    server.register_tenant("t", Arc::clone(&suite));
    server.add_networks(small_nets());
    let net = small_nets().remove(0);
    server.cache().get_or_compile(&suite, &net, 8).unwrap();

    // With no worker a queued request could never be answered, so an
    // answer proves the hit ran on this thread.
    let before = server.stats();
    let served = server.predict("t", net.name(), 8).unwrap();
    assert_eq!(served.to_bits(), suite.predict(&net, 8).unwrap().to_bits());
    let after = server.stats();
    assert_eq!(after.admitted, before.admitted + 1);
    assert_eq!(after.completed, before.completed + 1);
    assert_eq!(after.cache.hits, before.cache.hits + 1);
    assert_eq!(after.cache.misses, before.cache.misses);

    // The hit left the one queue slot free: a cold key takes it and
    // parks, and the next cold key finds the queue full.
    let parked = server.submit("t", net.name(), 1).unwrap();
    assert_eq!(
        server.submit("t", net.name(), 2).unwrap_err(),
        ServeError::Overloaded
    );
    assert!(
        server.predict("t", net.name(), 8).is_ok(),
        "hits skip the full queue"
    );

    // Shutdown answers the parked miss, and once the queue is closed a
    // warm key is no longer served inline.
    server.shutdown();
    assert_eq!(parked.wait().unwrap_err(), ServeError::ShuttingDown);
    assert_eq!(
        server.predict("t", net.name(), 8).unwrap_err(),
        ServeError::ShuttingDown
    );
}

#[test]
fn every_request_is_one_cache_lookup_over_mixed_hits_and_misses() {
    let suite = train_suite("A100");
    let server = PredictionServer::start(&test_config());
    server.register_tenant("t", Arc::clone(&suite));
    server.add_networks(small_nets());
    let nets = small_nets();

    let mut requests = 0u64;
    let mut keys = std::collections::BTreeSet::new();
    for round in 0..3usize {
        for (i, net) in nets.iter().enumerate() {
            // Each round adds a fresh batch per network (misses) and
            // repeats the earlier ones (hits).
            for batch in [1usize, 8, 32].into_iter().take(round + 1) {
                let served = if (round + i) % 2 == 0 {
                    server.predict("t", net.name(), batch).unwrap()
                } else {
                    server
                        .predict_graceful("t", net.name(), batch)
                        .unwrap()
                        .seconds
                };
                assert_eq!(
                    served.to_bits(),
                    suite.predict(net, batch).unwrap().to_bits()
                );
                requests += 1;
                keys.insert((net.name().to_string(), batch));
            }
        }
    }
    let s = server.stats();
    assert_eq!(s.cache.hits + s.cache.misses, requests, "{s:?}");
    assert_eq!(
        s.cache.misses,
        keys.len() as u64,
        "one miss per distinct key"
    );
    assert_eq!(s.admitted, requests);
    assert_eq!(s.completed, requests);
    server.shutdown();
}

#[test]
fn unknown_names_fail_before_admission() {
    let server = PredictionServer::start(&test_config());
    server.register_tenant("t", train_suite("A100"));
    server.add_networks(small_nets());
    let net = small_nets().remove(0);
    assert!(matches!(
        server.predict("ghost", net.name(), 1),
        Err(ServeError::UnknownTenant(_))
    ));
    assert!(matches!(
        server.predict("t", "no-such-net", 1),
        Err(ServeError::UnknownNetwork(_))
    ));
    assert_eq!(server.stats().admitted, 0);
    server.shutdown();
}

#[test]
fn tcp_round_trip_is_bit_exact_for_many_concurrent_clients() {
    let suite = train_suite("A100");
    let server = Arc::new(PredictionServer::start(&test_config()));
    server.register_tenant("team", Arc::clone(&suite));
    server.add_networks(small_nets());
    let tcp = TcpServer::serve(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let addr = tcp.addr();

    let nets = small_nets();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for client_id in 0..8usize {
            let nets = &nets;
            let suite = &suite;
            handles.push(s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..6usize {
                    let net = &nets[(client_id + i) % nets.len()];
                    let batch = [1usize, 8, 32][(client_id + i) % 3];
                    let served = client.predict("team", net.name(), batch).unwrap();
                    let direct = suite.predict(net, batch).unwrap();
                    assert_eq!(served.to_bits(), direct.to_bits());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });

    let mut client = Client::connect(addr).unwrap();

    // Graceful over the wire carries the note count.
    let resp = client
        .call(&Request::Graceful {
            tenant: "team".into(),
            network: nets[0].name().into(),
            batch: 8,
            deadline_ms: None,
        })
        .unwrap();
    let direct = suite.predict_graceful(&nets[0], 8).unwrap();
    match resp {
        Response::Ok {
            seconds,
            degraded_notes,
        } => {
            assert_eq!(seconds.to_bits(), direct.seconds.to_bits());
            assert_eq!(degraded_notes, Some(direct.notes.len()));
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Bad requests come back as structured errors, not dropped sockets.
    let resp = client
        .call(&Request::Predict {
            tenant: "team".into(),
            network: "no-such-net".into(),
            batch: 1,
            deadline_ms: None,
        })
        .unwrap();
    assert!(matches!(resp, Response::Error(_)));

    // Stats round-trip and count the traffic we generated.
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(pairs) => {
            let completed = pairs
                .iter()
                .find(|(k, _)| k == "completed")
                .map(|(_, v)| *v)
                .unwrap();
            assert!(completed >= 48, "8 clients x 6 requests, got {completed}");
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Clean, idempotent shutdown.
    tcp.shutdown();
    tcp.shutdown();
    server.shutdown();
}
