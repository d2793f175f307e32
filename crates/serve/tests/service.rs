//! Integration tests of the hardened service: backpressure, deadlines,
//! panic isolation, slowloris defense, and graceful drain — the
//! robustness contract of `pmm serve`, exercised end to end through
//! both the direct [`Server::submit`] pipeline and the TCP transport.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmm_core::advisor::try_recommend;
use pmm_model::{AlgPlan, Case, MachineParams, MatMulDims};
use pmm_serve::{Engine, Response, ServeConfig, Server, TcpService};

fn cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_depth: 2,
        deadline: Duration::from_millis(200),
        read_timeout: Duration::from_millis(300),
        max_line_bytes: 256,
        chaos_verbs: true,
    }
}

#[test]
fn queue_overflow_sheds_instead_of_buffering() {
    // One worker, depth-2 queue: occupy the worker, fill the queue, and
    // the next request must be SHED immediately, not queued.
    let server = Arc::new(Server::start(ServeConfig {
        workers: 1,
        deadline: Duration::from_millis(500),
        ..cfg()
    }));
    // Stagger the saturation so it is deterministic: first occupy the
    // worker, *then* fill both queue slots.
    let mut busy = Vec::new();
    let s = Arc::clone(&server);
    busy.push(std::thread::spawn(move || s.submit(b"__SLEEP 300".to_vec())));
    std::thread::sleep(Duration::from_millis(60));
    for _ in 0..2 {
        let s = Arc::clone(&server);
        busy.push(std::thread::spawn(move || s.submit(b"__SLEEP 0".to_vec())));
    }
    std::thread::sleep(Duration::from_millis(60));
    let start = Instant::now();
    let resp = server.submit(b"PING".to_vec());
    assert_eq!(resp, Response::Shed { queue_depth: 2 }, "queue full must shed");
    assert!(start.elapsed() < Duration::from_millis(100), "shedding must be immediate");
    for h in busy {
        let r = h.join().expect("busy submitter");
        assert!(
            matches!(r, Response::Ok(_) | Response::Timeout { .. }),
            "accepted requests still complete: {r:?}"
        );
    }
    server.shutdown();
}

#[test]
fn deadline_exceeded_is_a_typed_timeout() {
    let server = Server::start(cfg());
    let start = Instant::now();
    let resp = server.submit(b"__SLEEP 2000".to_vec());
    let waited = start.elapsed();
    match resp {
        Response::Timeout { deadline_ms, waited_ms } => {
            assert_eq!(deadline_ms, 200);
            assert!(waited_ms >= 200, "reported wait {waited_ms} below deadline");
        }
        other => panic!("expected TIMEOUT, got {other:?}"),
    }
    assert!(waited >= Duration::from_millis(200));
    assert!(waited < Duration::from_millis(1500), "client must not wait for the full sleep");
    server.shutdown();
}

#[test]
fn stale_queued_requests_time_out_without_compute() {
    // With one worker held busy past the deadline, a queued request goes
    // stale; the worker sheds its compute and answers TIMEOUT.
    let server = Arc::new(Server::start(ServeConfig {
        workers: 1,
        deadline: Duration::from_millis(100),
        ..cfg()
    }));
    let s = Arc::clone(&server);
    let blocker = std::thread::spawn(move || s.submit(b"__SLEEP 400".to_vec()));
    std::thread::sleep(Duration::from_millis(30));
    let resp = server.submit(b"ADVISE 96 24 6 36 inf".to_vec());
    assert!(matches!(resp, Response::Timeout { .. }), "stale request must time out: {resp:?}");
    let _ = blocker.join();
    server.shutdown();
}

#[test]
fn worker_panics_are_isolated_and_counted() {
    let server = Server::start(cfg());
    // More panics than workers: if a panic killed its worker, the pool
    // would be gone and later requests would all time out.
    for i in 0..10 {
        let resp = server.submit(format!("__PANIC boom-{i}").into_bytes());
        match resp {
            Response::Err { detail, .. } => {
                assert!(detail.contains(&format!("boom-{i}")), "{detail}");
            }
            other => panic!("expected ERR internal, got {other:?}"),
        }
    }
    let resp = server.submit(b"PING".to_vec());
    assert_eq!(resp, Response::Ok("pong".into()), "workers must survive panics");
    assert_eq!(server.engine().stats().snapshot().panics, 10);
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = Arc::new(Server::start(ServeConfig {
        workers: 2,
        queue_depth: 8,
        deadline: Duration::from_millis(1000),
        ..cfg()
    }));
    let inflight: Vec<_> = (0..6)
        .map(|_| {
            let s = Arc::clone(&server);
            std::thread::spawn(move || s.submit(b"__SLEEP 40".to_vec()))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    server.shutdown();
    for h in inflight {
        let r = h.join().expect("in-flight submitter");
        assert!(
            matches!(r, Response::Ok(_) | Response::Timeout { .. } | Response::Shed { .. }),
            "in-flight request must get its response through the drain: {r:?}"
        );
    }
    // After the drain, new work is refused with a typed error.
    match server.submit(b"PING".to_vec()) {
        Response::Err { detail, .. } => assert!(detail.contains("shutting down"), "{detail}"),
        other => panic!("expected ERR draining, got {other:?}"),
    }
}

fn send_lines(addr: std::net::SocketAddr, lines: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(lines.as_bytes()).expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let n = lines.matches('\n').count();
    let mut out = Vec::new();
    for _ in 0..n {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read") == 0 {
            break;
        }
        out.push(line.trim_end().to_string());
    }
    out
}

#[test]
fn tcp_round_trip_and_stats() {
    let svc = TcpService::bind(cfg(), "127.0.0.1:0").expect("bind");
    let replies = send_lines(svc.addr(), "PING\nADVISE 96 24 6 36 inf\nSTATS\n");
    assert_eq!(replies[0], "OK pong");
    assert!(replies[1].starts_with("OK advise case=2D"), "{}", replies[1]);
    assert!(replies[2].starts_with("OK stats received="), "{}", replies[2]);
    let snap = svc.shutdown();
    assert_eq!(snap.connections, 1);
    assert_eq!(snap.received, 3);
    assert_eq!(snap.ok, 3);
}

#[test]
fn tcp_malformed_bytes_get_typed_errors_and_the_connection_survives() {
    let svc = TcpService::bind(cfg(), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(svc.addr()).expect("connect");
    stream.write_all(b"\xFF\xFE garbage\nADVISE 1 2\nPING\n").expect("write");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut l = String::new();
        reader.read_line(&mut l).expect("read");
        lines.push(l);
    }
    assert!(lines[0].starts_with("ERR encoding"), "{}", lines[0]);
    assert!(lines[1].starts_with("ERR parse"), "{}", lines[1]);
    assert_eq!(lines[2], "OK pong\n");
    svc.shutdown();
}

#[test]
fn tcp_oversized_line_is_rejected_without_buffering() {
    let svc = TcpService::bind(cfg(), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(svc.addr()).expect("connect");
    // 64 KiB of garbage against a 256-byte cap, then a valid request.
    let mut payload = vec![b'A'; 64 * 1024];
    payload.push(b'\n');
    payload.extend_from_slice(b"PING\n");
    stream.write_all(&payload).expect("write");
    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read");
    assert!(first.starts_with("ERR line-too-long"), "{first}");
    let mut second = String::new();
    reader.read_line(&mut second).expect("read");
    assert_eq!(second, "OK pong\n");
    let snap = svc.shutdown();
    assert_eq!(snap.oversized_lines, 1);
}

#[test]
fn tcp_slowloris_is_disconnected_while_service_stays_responsive() {
    let svc = TcpService::bind(cfg(), "127.0.0.1:0").expect("bind");
    // The slowloris: opens a connection, sends a partial line, stalls.
    let mut loris = TcpStream::connect(svc.addr()).expect("connect");
    loris.write_all(b"ADVISE 96 24").expect("dribble");
    // Meanwhile real traffic flows.
    let replies = send_lines(svc.addr(), "PING\n");
    assert_eq!(replies, ["OK pong"]);
    // The stalled connection is closed within (roughly) the read
    // timeout: the next read observes the ERR read-timeout line and EOF.
    loris.set_read_timeout(Some(Duration::from_millis(2000))).expect("timeout");
    let mut reader = BufReader::new(loris);
    let mut tail = String::new();
    let mut got_eof = false;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(3) {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => {
                got_eof = true;
                break;
            }
            Ok(_) => tail.push_str(&line),
            Err(_) => break,
        }
    }
    assert!(got_eof, "slowloris connection must be closed, read: {tail:?}");
    assert!(tail.contains("ERR read-timeout"), "stall must be answered before close: {tail:?}");
    let snap = svc.shutdown();
    assert!(snap.read_timeouts >= 1, "stall must be counted: {snap:?}");
}

#[test]
fn stats_totals_reconcile_after_drain() {
    let server = Server::start(ServeConfig { queue_depth: 64, ..cfg() });
    assert_eq!(server.engine().stats().snapshot().received, 0);
    let mixed: &[&[u8]] = &[
        b"PING",
        b"ADVISE 96 24 6 36 inf",
        b"ADVISE 96 24 6 36 inf",
        b"ADVISE 0 0 0 0 nan",
        b"NOT-A-VERB",
        b"__PANIC kaboom",
    ];
    for line in mixed {
        let resp = server.submit(line.to_vec());
        // Direct submits bypass the transport counters; tally by hand
        // the way a transport would.
        pmm_serve::Stats::bump(&server.engine().stats().received);
        server.engine().stats().count_response(&resp);
    }
    server.shutdown();
    let snap = server.engine().stats().snapshot();
    assert_eq!(snap.received, 6);
    assert_eq!(
        snap.received,
        snap.ok + snap.errors + snap.shed + snap.timeouts,
        "every received line got exactly one response: {snap:?}"
    );
    assert_eq!(snap.ok, 3);
    assert_eq!(snap.errors, 3);
    assert_eq!(snap.panics, 1);
}

/// The value of `key=` in an `OK advise …` payload.
fn field<'a>(payload: &'a str, key: &str) -> &'a str {
    payload
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {payload}"))
}

#[test]
fn advise_answers_are_the_advisors_first_choice_in_every_regime() {
    // Sorted, (96, 24, 6) has thresholds m/n = 4 (1D/2D) and mn/k² = 64
    // (2D/3D), so these P probe 1D, both boundaries (`classify` puts a
    // boundary P in the sparser regime), 2D and 3D.
    let (n1, n2, n3) = (96u64, 24u64, 6u64);
    let probes =
        [(2, Case::OneD), (4, Case::OneD), (36, Case::TwoD), (64, Case::TwoD), (512, Case::ThreeD)];
    // A finite budget comfortably above the floor, so the memory
    // constraint takes part in the ranking.
    let finite = 4.0 * (n1 * n2 + n1 * n3 + n2 * n3) as f64 / 36.0;
    let queries = probes
        .iter()
        .map(|&(p, case)| (p, f64::INFINITY, case))
        .chain(std::iter::once((36, finite, Case::TwoD)));
    let engine = Engine::new(ServeConfig::default());
    for (p, m, case) in queries {
        assert_eq!(MatMulDims::new(n1, n2, n3).sorted().classify(p as f64), case, "P={p}");
        let line = format!("ADVISE {n1} {n2} {n3} {p} {m}");
        let answer = engine.handle(line.as_bytes());
        let Response::Ok(payload) = &answer else { panic!("{line}: {answer:?}") };
        let best = &try_recommend(n1, n2, n3, p, m, MachineParams::TYPICAL_CLUSTER)
            .expect("probe query is feasible")[0];
        assert_eq!(field(payload, "case"), case.to_string(), "{line}: {payload}");
        match &best.plan {
            AlgPlan::Alg1 { grid: [p1, p2, p3] } => {
                assert_eq!(field(payload, "algo"), "alg1", "{line}: {payload}");
                assert_eq!(field(payload, "grid"), format!("{p1}x{p2}x{p3}"), "{line}");
            }
            AlgPlan::TwoFiveD { q, c } => {
                assert_eq!(field(payload, "algo"), "2.5d", "{line}: {payload}");
                assert_eq!(field(payload, "q"), q.to_string(), "{line}");
                assert_eq!(field(payload, "c"), c.to_string(), "{line}");
            }
            other => panic!("the advisor ranks no {other}"),
        }
        let time: f64 = field(payload, "time").parse().expect("time= is a number");
        assert_eq!(time.to_bits(), best.time.to_bits(), "{line}: {payload}");
        assert_eq!(engine.handle(line.as_bytes()).render(), answer.render(), "{line} repeated");
    }
}
