//! **Chaos load harness for `pmm serve`** — the robustness soak behind
//! `cargo xtask serve-soak`.
//!
//! Drives a live [`TcpService`] with mixed traffic for a wall-clock
//! budget (`PMM_SERVE_SOAK_SECS`, default 5):
//!
//! * **valid advisor queries** (4 connections, rotating through a small
//!   query pool so the memo cache sees repeats),
//! * **pipelined bursts** (8 simultaneous connections) that overflow the
//!   deliberately tiny queue and must be `SHED`, not buffered,
//! * **sleepers** (`__SLEEP` past the deadline) that pin workers and
//!   force `TIMEOUT`s,
//! * **panickers** (`__PANIC`) that the isolation boundary must absorb,
//! * **malformed bytes** (invalid UTF-8, NUL, truncated requests),
//! * **oversized lines** (~1 MiB against a 1 KiB cap), and
//! * **slowloris clients** that stall mid-line and must be disconnected.
//!
//! Invariants checked (exit nonzero on violation): the service answers
//! every request on every surviving connection (zero lost requests), the
//! process survives every panic and is still serving at the end, sheds /
//! timeouts / caught panics / disconnects all actually happened, the
//! cache got hits, and resident memory growth stays bounded.
//!
//! Emits machine-readable `SERVE: key=value ...` lines that
//! `cargo xtask serve-soak` turns into `BENCH_serve.json`.
//!
//! ```sh
//! cargo run --release -p pmm-bench --bin serve_chaos
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pmm_bench::Checks;
use pmm_serve::{ServeConfig, TcpService};

/// Per-thread tally of requests sent and responses seen, merged into one
/// total at join time.
#[derive(Debug, Default, Clone)]
struct Tally {
    sent: u64,
    answered: u64,
    ok: u64,
    err: u64,
    shed: u64,
    timeout: u64,
    /// Connections the server closed on us (slowloris only, expected).
    disconnects: u64,
    /// Round-trip latencies of *valid* queries, microseconds.
    latencies_us: Vec<u64>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.ok += other.ok;
        self.err += other.err;
        self.shed += other.shed;
        self.timeout += other.timeout;
        self.disconnects += other.disconnects;
        self.latencies_us.extend(other.latencies_us);
    }

    fn classify(&mut self, line: &str) {
        self.answered += 1;
        if line.starts_with("OK") {
            self.ok += 1;
        } else if line.starts_with("ERR") {
            self.err += 1;
        } else if line.starts_with("SHED") {
            self.shed += 1;
        } else if line.starts_with("TIMEOUT") {
            self.timeout += 1;
        } else {
            panic!("unclassifiable response line: {line:?}");
        }
    }
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect to the soak service");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set client read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone client stream"));
    (reader, stream)
}

/// One synchronous round trip; `None` if the server closed the
/// connection instead of answering.
fn round_trip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    line: &[u8],
) -> Option<String> {
    writer.write_all(line).ok()?;
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(0) | Err(_) => None,
        Ok(_) => Some(response),
    }
}

/// Resident-set size in bytes, if `/proc` is available.
fn rss_bytes() -> Option<u64> {
    pmm_simnet::HostMem::read().map(|m| m.rss_bytes)
}

/// The rotating pool of valid queries: repeats guarantee cache hits, and
/// the pool spans all three Theorem 3 regimes.
const QUERY_POOL: [&[u8]; 6] = [
    b"ADVISE 96 24 6 2 inf\n",
    b"ADVISE 96 24 6 36 inf\n",
    b"ADVISE 96 24 6 512 inf\n",
    b"ADVISE 512 512 512 64 inf\n",
    b"ADVISE 9600 2400 600 512 inf\n",
    b"ADVISE 128 128 128 8 20000\n",
];

fn valid_worker(addr: std::net::SocketAddr, stop: Arc<AtomicBool>, lane: usize) -> Tally {
    let mut t = Tally::default();
    'outer: while !stop.load(Ordering::Relaxed) {
        let (mut reader, mut writer) = connect(addr);
        for i in 0..64 {
            if stop.load(Ordering::Relaxed) {
                break 'outer;
            }
            let query = QUERY_POOL[(lane + i) % QUERY_POOL.len()];
            let start = Instant::now();
            t.sent += 1;
            match round_trip(&mut reader, &mut writer, query) {
                Some(line) => {
                    t.classify(&line);
                    if line.starts_with("OK") {
                        t.latencies_us.push(start.elapsed().as_micros() as u64);
                    }
                }
                None => panic!("server dropped a well-behaved connection"),
            }
            // A paced client, not a spin loop: keeps the valid share of
            // the mix meaningful instead of drowning in instant sheds.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    t
}

fn burst_worker(addr: std::net::SocketAddr, stop: Arc<AtomicBool>) -> Tally {
    const CONNS: usize = 8;
    const PER_CONN: usize = 24;
    let mut t = Tally::default();
    while !stop.load(Ordering::Relaxed) {
        // Pipeline a full burst on every connection first, then collect:
        // while the sleepers pin the workers this overflows the queue,
        // and every single line must still be answered (SHED counts).
        let mut conns: Vec<_> = (0..CONNS).map(|_| connect(addr)).collect();
        for (i, (_, writer)) in conns.iter_mut().enumerate() {
            let mut payload = Vec::new();
            for j in 0..PER_CONN {
                payload.extend_from_slice(QUERY_POOL[(i + j) % QUERY_POOL.len()]);
            }
            writer.write_all(&payload).expect("write burst");
            t.sent += PER_CONN as u64;
        }
        for (reader, _) in &mut conns {
            for _ in 0..PER_CONN {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => panic!("burst connection lost a response"),
                    Ok(_) => t.classify(&line),
                }
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    t
}

fn sleeper_worker(addr: std::net::SocketAddr, stop: Arc<AtomicBool>) -> Tally {
    let mut t = Tally::default();
    while !stop.load(Ordering::Relaxed) {
        let (mut reader, mut writer) = connect(addr);
        for _ in 0..32 {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            t.sent += 1;
            // Three deadlines long: pins a worker and forces TIMEOUT.
            match round_trip(&mut reader, &mut writer, b"__SLEEP 150\n") {
                Some(line) => {
                    // When the queue is full the sleep is shed instantly;
                    // back off instead of spinning on instant SHEDs.
                    if line.starts_with("SHED") {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    t.classify(&line);
                }
                None => panic!("server dropped the sleeper connection"),
            }
        }
    }
    t
}

fn panic_worker(addr: std::net::SocketAddr, stop: Arc<AtomicBool>) -> Tally {
    let mut t = Tally::default();
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let (mut reader, mut writer) = connect(addr);
        for _ in 0..16 {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            n += 1;
            t.sent += 1;
            let req = format!("__PANIC chaos-{n}\n");
            match round_trip(&mut reader, &mut writer, req.as_bytes()) {
                Some(line) => {
                    assert!(
                        line.starts_with("ERR")
                            || line.starts_with("SHED")
                            || line.starts_with("TIMEOUT"),
                        "a panic must surface as a typed non-OK response, got {line:?}"
                    );
                    t.classify(&line);
                }
                None => panic!("server died on an injected panic"),
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    t
}

fn malformed_worker(addr: std::net::SocketAddr, stop: Arc<AtomicBool>) -> Tally {
    let garbage: [&[u8]; 5] = [
        b"\xFF\xFE\xFD utter nonsense\n",
        b"ADVISE 96 24\n",
        b"ADVISE x y z p m\n",
        b"FROBNICATE 1 2 3\n",
        b"ADVISE 1 2 3 4\x00inf\n",
    ];
    let mut t = Tally::default();
    while !stop.load(Ordering::Relaxed) {
        let (mut reader, mut writer) = connect(addr);
        for chunk in &garbage {
            t.sent += 1;
            match round_trip(&mut reader, &mut writer, chunk) {
                Some(line) => {
                    t.classify(&line);
                    assert!(!line.starts_with("OK"), "malformed input must never be OK: {line:?}");
                }
                None => panic!("server dropped the malformed-traffic connection"),
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    t
}

fn oversized_worker(addr: std::net::SocketAddr, stop: Arc<AtomicBool>) -> Tally {
    let mut big = vec![b'Z'; 1 << 20]; // ~1 MiB against a 1 KiB cap
    big.push(b'\n');
    let mut t = Tally::default();
    while !stop.load(Ordering::Relaxed) {
        let (mut reader, mut writer) = connect(addr);
        for _ in 0..4 {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            t.sent += 1;
            match round_trip(&mut reader, &mut writer, &big) {
                Some(line) => {
                    assert!(line.starts_with("ERR line-too-long"), "oversized line: {line:?}");
                    t.classify(&line);
                }
                None => panic!("server dropped the oversized-line connection"),
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    t
}

fn slowloris_worker(addr: std::net::SocketAddr, stop: Arc<AtomicBool>) -> Tally {
    let mut t = Tally::default();
    while !stop.load(Ordering::Relaxed) {
        let (mut reader, mut writer) = connect(addr);
        // Dribble a partial request, then stall: the server must cut us
        // off around its read timeout rather than hold the thread.
        let _ = writer.write_all(b"ADVISE 96 24 ");
        let mut sink = String::new();
        loop {
            sink.clear();
            match reader.read_line(&mut sink) {
                Ok(0) | Err(_) => break, // disconnected, as required
                Ok(_) => {}              // the ERR read-timeout farewell line
            }
        }
        t.disconnects += 1;
    }
    t
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() -> std::process::ExitCode {
    let budget_secs: u64 = match std::env::var("PMM_SERVE_SOAK_SECS") {
        Err(_) => 5,
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(secs) => secs.max(1),
            Err(_) => {
                eprintln!("serve_chaos: PMM_SERVE_SOAK_SECS={v:?} is not a whole number of secs");
                std::process::exit(2)
            }
        },
    };

    // Deliberately tight knobs: 2 workers and a depth-4 queue against
    // ~15 concurrent in-flight requests is the ISSUE's "2× overload"
    // regime with room to spare; 50 ms deadlines and 250 ms read
    // timeouts keep every failure path hot.
    let config = ServeConfig {
        workers: 2,
        queue_depth: 4,
        deadline: Duration::from_millis(50),
        read_timeout: Duration::from_millis(250),
        max_line_bytes: 1024,
        cache_capacity: 256,
        chaos_verbs: true,
    };
    let service = TcpService::bind(config, "127.0.0.1:0").expect("bind the soak service");
    let addr = service.addr();
    println!("serve_chaos: soaking {addr} for {budget_secs}s");

    // Injected `__PANIC`s are the point of the soak; silence their
    // backtraces (the isolation boundary counts them) while keeping the
    // default report for any *unexpected* panic in a harness thread.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let worker =
            std::thread::current().name().is_some_and(|n| n.starts_with("pmm-serve-worker"));
        if !worker {
            default_hook(info);
        }
    }));

    let rss_before = rss_bytes();
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(Mutex::new(Tally::default()));
    let started = Instant::now();

    let mut threads = Vec::new();
    type Worker = fn(std::net::SocketAddr, Arc<AtomicBool>) -> Tally;
    let spawn = |worker: Worker, name: &str, threads: &mut Vec<std::thread::JoinHandle<()>>| {
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        let handle = std::thread::Builder::new()
            .name(format!("chaos-{name}"))
            .spawn(move || {
                let tally = worker(addr, stop);
                total.lock().expect("tally lock").absorb(tally);
            })
            .expect("spawn chaos thread");
        threads.push(handle);
    };
    for lane in 0..4 {
        let stop_c = Arc::clone(&stop);
        let total_c = Arc::clone(&total);
        let handle = std::thread::Builder::new()
            .name(format!("chaos-valid-{lane}"))
            .spawn(move || {
                let tally = valid_worker(addr, stop_c, lane);
                total_c.lock().expect("tally lock").absorb(tally);
            })
            .expect("spawn valid-traffic thread");
        threads.push(handle);
    }
    spawn(burst_worker, "burst", &mut threads);
    spawn(sleeper_worker, "sleep-a", &mut threads);
    spawn(sleeper_worker, "sleep-b", &mut threads);
    spawn(panic_worker, "panic", &mut threads);
    spawn(malformed_worker, "malformed", &mut threads);
    spawn(oversized_worker, "oversized", &mut threads);
    spawn(slowloris_worker, "loris-a", &mut threads);
    spawn(slowloris_worker, "loris-b", &mut threads);

    std::thread::sleep(Duration::from_secs(budget_secs));
    stop.store(true, Ordering::Relaxed);
    for handle in threads {
        if handle.join().is_err() {
            // A chaos thread's own assertion fired; the tally it held is
            // gone but the violation must fail the soak loudly.
            println!("SERVE: verdict=fail reason=client-invariant-violated");
            std::process::exit(1);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    // The service must still be fully alive after the storm. Workers may
    // be pinned for one last chaos sleep, so give the PING a few tries.
    let mut alive = false;
    for _ in 0..20 {
        let (mut reader, mut writer) = connect(addr);
        if round_trip(&mut reader, &mut writer, b"PING\n").as_deref() == Some("OK pong\n") {
            alive = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let rss_after = rss_bytes();
    let snapshot = service.shutdown();
    let tally = total.lock().expect("tally lock").clone();

    let mut lat: Vec<u64> = tally.latencies_us.clone();
    lat.sort_unstable();
    let p50 = percentile(&lat, 0.50);
    let p99 = percentile(&lat, 0.99);
    let throughput = snapshot.received as f64 / elapsed;
    let shed_rate = snapshot.shed as f64 / snapshot.received.max(1) as f64;
    let timeout_rate = snapshot.timeouts as f64 / snapshot.received.max(1) as f64;
    let cache_lookups = snapshot.cache_hits + snapshot.cache_misses;
    let cache_hit_rate = snapshot.cache_hits as f64 / cache_lookups.max(1) as f64;
    let rss_growth = match (rss_before, rss_after) {
        (Some(b), Some(a)) => Some(a.saturating_sub(b)),
        _ => None,
    };

    println!(
        "SERVE: budget_secs={budget_secs} elapsed_secs={elapsed:.2} requests={} answered={} \
         ok={} err={} shed={} timeout={} client_disconnects={}",
        tally.sent,
        tally.answered,
        tally.ok,
        tally.err,
        tally.shed,
        tally.timeout,
        tally.disconnects,
    );
    println!("SERVE: {}", snapshot.render().trim_start_matches("stats "));
    println!(
        "SERVE: throughput_rps={throughput:.1} p50_us={p50} p99_us={p99} \
         shed_rate={shed_rate:.4} timeout_rate={timeout_rate:.4} \
         cache_hit_rate={cache_hit_rate:.4} rss_growth_bytes={}",
        rss_growth.map_or_else(|| "unavailable".to_string(), |b| b.to_string()),
    );

    let mut checks = Checks::default();
    checks.check("service still answers PING after the storm", alive);
    checks.check(
        "every request on a surviving connection was answered",
        tally.answered == tally.sent,
    );
    checks.check("overload actually shed (backpressure exercised)", snapshot.shed > 0);
    checks.check("deadlines actually fired (timeout path exercised)", snapshot.timeouts > 0);
    checks.check("worker panics were caught, workers survived", snapshot.panics > 0);
    checks.check("slowloris clients were disconnected", snapshot.read_timeouts > 0);
    checks.check("slowloris clients observed their disconnects", tally.disconnects > 0);
    checks.check("oversized lines were rejected unbuffered", snapshot.oversized_lines > 0);
    checks.check("malformed traffic produced typed errors", snapshot.errors > 0);
    checks.check("the memo cache got hits", snapshot.cache_hits > 0);
    checks.check("valid traffic got OK responses", tally.ok > 0 && !lat.is_empty());
    checks.check(
        "post-drain totals reconcile (no lost responses server-side)",
        snapshot.received == snapshot.ok + snapshot.errors + snapshot.shed + snapshot.timeouts,
    );
    if let Some(growth) = rss_growth {
        checks.check("resident memory growth bounded (< 64 MiB)", growth < 64 * 1024 * 1024);
    }
    println!(
        "SERVE: verdict={}",
        if tally.answered == tally.sent && alive { "pass" } else { "fail" }
    );
    checks.finish().into()
}
