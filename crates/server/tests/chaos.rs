//! The chaos soak: honest clients and a seeded client saboteur share one
//! server. The honest clients must get correct answers (or explicit
//! `overloaded` sheds), the saboteur must never wedge or kill the
//! daemon, and the service counters must reconcile exactly:
//! `received == completed + failed + shed` once the server is idle.

mod common;

use common::{assert_error, assert_healthy, eventually, Client, Server, PROBE};
use fj_server::ServeConfig;
use fj_testkit::chaos::{honest_client, run_episode, ChaosConfig, Episode};
use fj_testkit::SplitMix64;
use std::time::{Duration, Instant};

/// Fixed soak seed: failures replay exactly. Change it only on purpose.
const SOAK_SEED: u64 = 0xF1_5E57;

#[test]
fn chaos_soak_counters_reconcile_and_honest_clients_win() {
    let cfg = ServeConfig {
        workers: 2,
        queue_cap: 4,
        max_conns: 64,
        max_line: 4096,
        idle_timeout: Duration::from_millis(400),
        drain: Duration::from_millis(800),
        chaos: true,
    };
    let server = Server::spawn(cfg);
    let chaos_cfg = ChaosConfig {
        oversize_len: 8192, // > max_line: every Oversize episode trips the cap
        ..ChaosConfig::default()
    };

    // Two honest clients compile steadily while the saboteur rages.
    let honest: Vec<_> = (0..2)
        .map(|i| {
            let addr = server.addr;
            std::thread::spawn(move || {
                let source = format!("def main : Int = {i} + 1;");
                honest_client(addr, &source, 40, &chaos_cfg)
            })
        })
        .collect();

    // The saboteur: three threads, each running a deterministic stream
    // of hostile episodes derived from the soak seed.
    let saboteurs: Vec<_> = (0..3)
        .map(|t| {
            let addr = server.addr;
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(SOAK_SEED.wrapping_add(t));
                let mut opened = 0u64;
                for _ in 0..12 {
                    let episode = Episode::pick(&mut rng);
                    let report = run_episode(episode, addr, &mut rng, &chaos_cfg);
                    opened += report.conns_opened;
                }
                opened
            })
        })
        .collect();

    let mut sab_conns = 0u64;
    for s in saboteurs {
        sab_conns += s.join().expect("saboteur thread panicked");
    }
    let (mut ok, mut overloaded, mut other) = (0u64, 0u64, 0u64);
    for h in honest {
        let (o, ov, ot) = h
            .join()
            .expect("honest thread panicked")
            .expect("the server broke an honest connection");
        ok += o;
        overloaded += ov;
        other += ot;
    }

    // Honest clients: every request answered, correctly or with an
    // explicit shed — never a silent drop or a wrong-tag error.
    assert_eq!(ok + overloaded + other, 80, "every honest request answered");
    assert_eq!(other, 0, "honest compiles only succeed or shed");
    assert!(ok > 0, "some honest requests must get through");
    assert!(sab_conns > 0, "the saboteur must actually connect");

    // Let in-flight hostile stragglers finish, then audit the books.
    let state = std::sync::Arc::clone(&server.state);
    assert!(
        eventually(Duration::from_secs(5), || {
            let s = state.service_snapshot();
            s.conns_active == 0 && s.received == s.completed + s.failed + s.shed
        }),
        "counters must reconcile once idle: {:?}",
        state.service_snapshot()
    );
    let snap = state.service_snapshot();
    assert!(
        snap.received >= 80,
        "at least the honest load was received: {snap:?}"
    );
    // Bounds held: nothing exceeded the configured admission caps.
    assert!(snap.conns_active <= 64);
    // The saboteur's oversize and slow-loris work shows up as counted
    // disconnects, not silent thread deaths.
    assert!(
        snap.disc_clean + snap.disc_io + snap.disc_timeout + snap.disc_oversize > 0,
        "disconnect reasons must be recorded: {snap:?}"
    );
    assert_healthy(server.addr);
    assert!(server.shutdown(), "serve must exit cleanly after the soak");
}

#[test]
fn full_queue_sheds_requests_with_retry_hint_deterministically() {
    // One worker, one queue slot: with the worker parked on a chaos
    // sleep and the slot taken, every further request must shed.
    let server = Server::spawn(ServeConfig {
        workers: 1,
        queue_cap: 1,
        idle_timeout: Duration::from_secs(5),
        drain: Duration::from_secs(2),
        chaos: true,
        ..ServeConfig::default()
    });

    // Park the only worker.
    let mut sleeper = Client::connect(server.addr).unwrap();
    sleeper
        .send("{\"op\": \"__chaos_sleep\", \"ms\": 600}")
        .unwrap();
    // Wait until the worker has actually dequeued the sleep, so the
    // queue slot is free for the blocker below (no race on try_push).
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().received >= 1
        }),
        "sleeper request must be received"
    );
    std::thread::sleep(Duration::from_millis(100));

    // Fill the single queue slot.
    let mut blocker = Client::connect(server.addr).unwrap();
    blocker
        .send("{\"op\": \"__chaos_sleep\", \"ms\": 10}")
        .unwrap();
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().received >= 2
        }),
        "blocker request must be received"
    );
    std::thread::sleep(Duration::from_millis(50));

    // Now the pool is saturated: this request must shed, in-protocol,
    // with a retry hint — and the connection must stay open.
    let mut shed = Client::connect(server.addr).unwrap();
    let resp = shed.roundtrip(PROBE).unwrap();
    assert_error(&resp, "overloaded", 6);
    assert!(resp.contains("\"retry_after_ms\": "), "got: {resp}");
    assert_eq!(server.state.service_snapshot().shed, 1);

    // Back off and retry on the same connection: once the sleeper wakes,
    // the retried request succeeds — shedding is per-request.
    assert!(
        eventually(Duration::from_secs(3), || {
            server.state.service_snapshot().completed >= 2
        }),
        "parked work must eventually finish"
    );
    let resp = shed.roundtrip(PROBE).unwrap();
    assert!(resp.starts_with("{\"ok\": true"), "got: {resp}");

    // The parked clients got their answers too.
    assert_eq!(
        sleeper.recv().unwrap().as_deref(),
        Some("{\"ok\": true, \"slept_ms\": 600}")
    );
    assert_eq!(
        blocker.recv().unwrap().as_deref(),
        Some("{\"ok\": true, \"slept_ms\": 10}")
    );
    assert!(server.shutdown());
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = Server::spawn(ServeConfig {
        workers: 2,
        queue_cap: 4,
        drain: Duration::from_secs(2),
        chaos: true,
        ..ServeConfig::default()
    });

    // A slow request is mid-flight when shutdown arrives.
    let mut slow = Client::connect(server.addr).unwrap();
    slow.send("{\"op\": \"__chaos_sleep\", \"ms\": 300}")
        .unwrap();
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().received >= 1
        }),
        "slow request must be in flight first"
    );

    let state = std::sync::Arc::clone(&server.state);
    let clean = server.shutdown();
    assert!(clean, "serve must exit cleanly");
    // Drain semantics: the in-flight request completed — it was not
    // abandoned mid-compile.
    assert_eq!(
        slow.recv().unwrap().as_deref(),
        Some("{\"ok\": true, \"slept_ms\": 300}"),
        "in-flight work must finish inside the drain window"
    );
    let snap = state.service_snapshot();
    assert_eq!(snap.received, snap.completed + snap.failed + snap.shed);
}

#[test]
fn new_connections_refused_while_draining() {
    let server = Server::spawn(ServeConfig {
        workers: 1,
        queue_cap: 2,
        drain: Duration::from_secs(2),
        chaos: true,
        ..ServeConfig::default()
    });
    // Park the worker so the drain window stays open after shutdown.
    let mut sleeper = Client::connect(server.addr).unwrap();
    sleeper
        .send("{\"op\": \"__chaos_sleep\", \"ms\": 500}")
        .unwrap();
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().received >= 1
        }),
        "sleeper must be in flight"
    );

    // Shutdown on a second connection (queued behind the sleeper).
    let mut ctl = Client::connect(server.addr).unwrap();
    ctl.send("{\"op\": \"shutdown\"}").unwrap();

    // While draining, the listener is gone: new connections fail fast
    // (refused) instead of being accepted and silently dropped.
    assert!(
        eventually(Duration::from_secs(2), || {
            Client::connect(server.addr).is_err()
        }),
        "the listener must stop accepting during drain"
    );
    assert_eq!(
        sleeper.recv().unwrap().as_deref(),
        Some("{\"ok\": true, \"slept_ms\": 500}"),
        "drain still finishes the in-flight request"
    );
}

#[test]
fn two_workers_run_at_most_two_requests_at_once() {
    let server = Server::spawn(ServeConfig {
        workers: 2,
        queue_cap: 4,
        chaos: true,
        ..ServeConfig::default()
    });
    let mut clients: Vec<Client> = (0..4)
        .map(|_| Client::connect(server.addr).unwrap())
        .collect();
    let started = Instant::now();
    for c in &mut clients {
        c.send("{\"op\": \"__chaos_sleep\", \"ms\": 200}").unwrap();
    }
    for c in &mut clients {
        assert_eq!(
            c.recv().unwrap().as_deref(),
            Some("{\"ok\": true, \"slept_ms\": 200}"),
            "two run, two wait, none is shed"
        );
    }
    // A lower bound only: four 200 ms sleeps through two slots take at
    // least two rounds however fast the host is.
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(400),
        "more than two requests ran at once: {elapsed:?}"
    );
    assert!(server.shutdown());
}

#[test]
fn panic_frees_the_only_execution_slot() {
    let server = Server::spawn(ServeConfig {
        workers: 1,
        queue_cap: 1,
        chaos: true,
        ..ServeConfig::default()
    });
    let mut victim = Client::connect(server.addr).unwrap();
    let resp = victim.roundtrip("{\"op\": \"__chaos_panic\"}").unwrap();
    assert_error(&resp, "internal", 7);
    // Had the panic kept the slot, this request would wait for ever.
    let mut other = Client::connect(server.addr).unwrap();
    let resp = other.roundtrip(PROBE).unwrap();
    assert!(resp.starts_with("{\"ok\": true"), "got: {resp}");
    assert_eq!(server.state.service_snapshot().panics, 1);
    assert!(server.shutdown());
}

/// Threads of this process with the given name.
#[cfg(target_os = "linux")]
fn threads_named(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

/// Each connection thread runs its own deadline-guarded passes on a
/// guard worker of its own; both threads must end with the connection.
/// Other tests in this binary run in parallel and start threads of
/// their own, so only this server's connection threads (named after its
/// port) and the guard workers, which no other test here starts, are
/// counted.
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_leave_no_threads_behind() {
    const CONNS: usize = 20;
    let server = Server::spawn(ServeConfig::default());
    let conn_thread = format!("fj-conn-{}", server.addr.port());
    let count = || threads_named(&conn_thread) + threads_named("fj-guard-worker");
    let baseline = count();
    let req = "{\"op\": \"compile\", \"program\": \"def main : Int = 1 + 2;\", \
               \"deadline_ms\": 10000, \"cache\": \"bypass\"}";
    let clients: Vec<Client> = (0..CONNS)
        .map(|_| {
            let mut c = Client::connect(server.addr).unwrap();
            let resp = c.roundtrip(req).unwrap();
            assert!(resp.starts_with("{\"ok\": true"), "got: {resp}");
            c
        })
        .collect();
    // Every open connection holds its thread and that thread's worker.
    let open = count();
    assert!(
        open >= baseline + 2 * CONNS,
        "expected {CONNS} connection threads and {CONNS} guard workers over {baseline}, saw {open}"
    );
    drop(clients);
    assert!(
        eventually(Duration::from_secs(5), || count() == baseline),
        "threads left behind: {} over a baseline of {baseline}",
        count()
    );
    assert!(server.shutdown());
}
