//! The live server and its clients: an in-process `fj serve` on
//! loopback, closed-loop connections, response checking, and the
//! `stats` counter reconciliation.

use crate::inputs::{Inputs, Req, Traffic};
use crate::trace::Span;
use fj_server::json::{self, Value};
use fj_server::{FileStore, ServeConfig, ServerState};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request workers of the served instance (the machine has two cores).
pub const WORKERS: usize = 2;

/// Cache geometry of one served instance.
#[derive(Clone, Debug)]
pub struct Geometry {
    /// Shards of both in-memory cache layers.
    pub shards: usize,
    /// `--cache-bytes`: the budget of each in-memory layer.
    pub cache_bytes: usize,
    /// Directory of the persistent tier (`--cache-dir`), if any.
    pub dir: Option<PathBuf>,
}

/// A running in-process `fj serve`.
pub struct Server {
    /// Loopback address it listens on.
    pub addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    dir: Option<PathBuf>,
}

/// The server state a geometry describes, with the persistent tier
/// attached when the geometry names a directory.
///
/// # Errors
///
/// The cache directory cannot be created.
pub fn state_for(geo: &Geometry) -> Result<ServerState, String> {
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let mut state = ServerState::with_config(geo.shards, geo.cache_bytes, config);
    if let Some(dir) = &geo.dir {
        let store =
            FileStore::open(dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
        state = state.with_store(Arc::new(store));
    }
    Ok(state)
}

impl Server {
    /// Bind an ephemeral loopback port and serve on a thread of its own.
    ///
    /// # Errors
    ///
    /// Binding or cache-directory failures.
    pub fn start(geo: &Geometry) -> Result<Server, String> {
        let state = Arc::new(state_for(geo)?);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let thread = std::thread::spawn(move || fj_server::serve(listener, state));
        Ok(Server {
            addr,
            thread: Some(thread),
            dir: geo.dir.clone(),
        })
    }

    /// Ask the server to shut down, wait for its drain, and remove its
    /// cache directory.
    ///
    /// # Errors
    ///
    /// The shutdown request or the serve loop failed.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = Conn::open(self.addr, false)
            .and_then(|mut c| c.call(r#"{"op": "shutdown"}"#))
            .map_err(|e| format!("shutdown request: {e}"));
        let joined = thread
            .join()
            .map_err(|_| "serve thread panicked".to_string())
            .and_then(|r| r.map_err(|e| format!("serve: {e}")));
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        sent.and(joined)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One client connection speaking newline-delimited JSON.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connect to `addr` with Nagle off, as the server's own clients do.
    /// A `one_shot` connection resets on close (see [`reset_on_close`]).
    ///
    /// # Errors
    ///
    /// Connect failures.
    pub fn open(addr: SocketAddr, one_shot: bool) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        if one_shot {
            reset_on_close(&stream)?;
        }
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and read its response line.
    ///
    /// # Errors
    ///
    /// Transport failures, or the server closing the connection.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        self.writer.flush()?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(resp.trim_end().to_string())
    }
}

/// Make closing `stream` reset the connection instead of sending a FIN,
/// so the client keeps no `TIME_WAIT` entry. A one-shot client opens
/// hundreds of connections a second; their `TIME_WAIT` entries would
/// fill the ephemeral port range over a few consecutive runs and slow
/// every later `connect`, a drift that is the client's, not the
/// server's.
#[cfg(target_os = "linux")]
fn reset_on_close(stream: &TcpStream) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        onoff: i32,
        linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let value = Linger {
        onoff: 1,
        linger: 0,
    };
    // SAFETY: the descriptor belongs to `stream`, which stays open for
    // the whole call, and `value` is a live `struct linger` whose size is
    // the length passed, as setsockopt(2) requires for SO_LINGER.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &value,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn reset_on_close(_stream: &TcpStream) -> std::io::Result<()> {
    Ok(())
}

/// Client-side request counts, kept per server so they can be
/// reconciled against that server's `stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Requests written to an admitted connection.
    pub sent: u64,
    /// `ok: true` responses.
    pub ok: u64,
    /// In-protocol errors other than sheds.
    pub errors: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Connections shed at the connection cap (the request never reached
    /// the server's counters).
    pub conn_shed: u64,
    /// Connects or transport failures.
    pub transport: u64,
    /// `ok: true` responses whose output disagreed with the reference.
    pub wrong: u64,
}

impl Tally {
    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.ok + self.errors + self.shed + self.conn_shed + self.transport
    }

    /// Operations that did not produce a correct answer.
    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.conn_shed + self.transport + self.wrong
    }

    /// Fold another tally into this one.
    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.errors += o.errors;
        self.shed += o.shed;
        self.conn_shed += o.conn_shed;
        self.transport += o.transport;
        self.wrong += o.wrong;
    }
}

/// Classify a response, check it against the request's reference, and
/// count it. Returns the parsed response when it is a correct answer.
pub fn check(inputs: &Inputs, req: &Req, resp: &str, tally: &mut Tally) -> Option<Value> {
    let v = match json::parse(resp) {
        Ok(v) => v,
        Err(e) => {
            tally.errors += 1;
            eprintln!("servebench: unparseable response ({e}): {resp}");
            return None;
        }
    };
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        let err = v.get("error");
        let tag = err.and_then(|e| e.get("tag")).and_then(Value::as_str);
        let msg = err
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap_or("");
        match tag {
            Some("overloaded") if msg.starts_with("connection shed") => tally.conn_shed += 1,
            Some("overloaded") => tally.shed += 1,
            _ => {
                tally.errors += 1;
                eprintln!(
                    "servebench: {} failed: {}",
                    inputs.progs[req.prog].name, resp
                );
            }
        }
        return None;
    }
    tally.ok += 1;
    let p = &inputs.progs[req.prog];
    let verdict = match req.mode {
        Some(_) => match v.get("value").and_then(Value::as_str) {
            Some(got) if got == p.value => Ok(()),
            got => Err(format!("value {got:?}, reference {}", p.value)),
        },
        None => match (&p.fingerprint, v.get("fingerprint").and_then(Value::as_str)) {
            (Some(want), Some(got)) if got == want => Ok(()),
            (None, Some(_)) => Ok(()),
            (want, got) => Err(format!("fingerprint {got:?}, reference {want:?}")),
        },
    };
    match verdict {
        Ok(()) => Some(v),
        Err(why) => {
            tally.wrong += 1;
            eprintln!("servebench: wrong output for {}: {why}", p.name);
            None
        }
    }
}

/// Send `req` on `conn`, check and count the answer.
///
/// # Errors
///
/// Transport failures (also counted).
pub fn call_checked(
    conn: &mut Conn,
    inputs: &Inputs,
    req: &Req,
    tally: &mut Tally,
) -> Result<Option<Value>, String> {
    tally.sent += 1;
    match conn.call(&inputs.line(req)) {
        Ok(resp) => Ok(check(inputs, req, &resp, tally)),
        Err(e) => {
            tally.transport += 1;
            Err(format!("{}: {e}", inputs.progs[req.prog].name))
        }
    }
}

/// One served request of the measured window.
#[derive(Clone, Debug)]
pub struct Served {
    /// What was asked.
    pub req: Req,
    /// Send time, from the window start.
    pub sent_ns: u64,
    /// Send to full response line.
    pub latency_ns: u64,
    /// The answer was correct.
    pub correct: bool,
}

/// The outcome of one closed-loop window.
pub struct Window {
    /// Every request, in send order.
    pub served: Vec<Served>,
    /// Counts over the window.
    pub tally: Tally,
    /// Window start to the last response.
    pub wall: Duration,
    /// One `client.request` span per request, when traced.
    pub spans: Vec<Span>,
}

impl Window {
    /// Latencies of correct responses, sorted, in nanoseconds.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .served
            .iter()
            .filter(|s| s.correct)
            .map(|s| s.latency_ns)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Drive `inputs`' closed-loop mix against `addr` for `seconds` (or for
/// `requests` requests per client, when given). Each client draws from
/// its own stream seeded from the workload seed and `stream`, and sends
/// its next request only after the previous answer arrived. With
/// `trace`, each client also records a span per request.
pub fn closed_loop(
    inputs: &Inputs,
    addr: SocketAddr,
    stream: u64,
    seconds: f64,
    requests: Option<usize>,
    trace: bool,
) -> Window {
    let clients = inputs.workload.clients();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Served>, Tally, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let seed = inputs.seed ^ (stream << 32) ^ (c as u64 + 1).wrapping_mul(0x9e37);
                    client(
                        inputs,
                        addr,
                        inputs.traffic(seed),
                        start,
                        deadline,
                        requests,
                        trace,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut served = Vec::new();
    let mut tally = Tally::default();
    let mut spans = Vec::new();
    for (s, t, sp) in results {
        served.extend(s);
        tally.add(&t);
        spans.extend(sp);
    }
    served.sort_by_key(|s| s.sent_ns);
    Window {
        served,
        tally,
        wall,
        spans,
    }
}

fn client(
    inputs: &Inputs,
    addr: SocketAddr,
    mut traffic: Traffic<'_>,
    start: Instant,
    deadline: Instant,
    requests: Option<usize>,
    trace: bool,
) -> (Vec<Served>, Tally, Vec<Span>) {
    let mut spans = Vec::new();
    let mut served = Vec::new();
    let mut tally = Tally::default();
    let one_shot = inputs.workload.one_shot();
    let mut conn: Option<Conn> = None;
    loop {
        match requests {
            Some(n) if served.len() >= n => break,
            None if Instant::now() >= deadline => break,
            _ => {}
        }
        let req = traffic.next_req();
        let line = inputs.line(&req);
        let t0 = Instant::now();
        if conn.is_none() {
            match Conn::open(addr, one_shot) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    tally.transport += 1;
                    eprintln!("servebench: connect failed: {e}");
                    served.push(Served {
                        req,
                        sent_ns: (t0 - start).as_nanos() as u64,
                        latency_ns: t0.elapsed().as_nanos() as u64,
                        correct: false,
                    });
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
        }
        let Some(c) = conn.as_mut() else { continue };
        tally.sent += 1;
        let answer = c.call(&line);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let correct = match answer {
            Ok(resp) => check(inputs, &req, &resp, &mut tally).is_some(),
            Err(e) => {
                tally.transport += 1;
                eprintln!("servebench: transport failure: {e}");
                conn = None;
                false
            }
        };
        if one_shot {
            conn = None;
        }
        if trace {
            let start_ns = (t0 - start).as_nanos() as u64;
            spans.push(Span {
                name: "client.request",
                req: served.len() as u32,
                parent: 0,
                start_ns,
                end_ns: start_ns + latency_ns,
            });
        }
        served.push(Served {
            req,
            sent_ns: (t0 - start).as_nanos() as u64,
            latency_ns,
            correct,
        });
    }
    (served, tally, spans)
}

/// Read the server's `stats` on `conn`, counting the request.
///
/// # Errors
///
/// Transport failures or a malformed answer.
pub fn stats(conn: &mut Conn, tally: &mut Tally) -> Result<Stats, String> {
    tally.sent += 1;
    let resp = conn
        .call(r#"{"op": "stats"}"#)
        .map_err(|e| format!("stats: {e}"))?;
    let v = json::parse(&resp).map_err(|e| format!("stats: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("stats failed: {resp}"));
    }
    tally.ok += 1;
    let num = |path: &[&str]| -> Result<u64, String> {
        let mut cur = &v;
        for key in path {
            cur = cur
                .get(key)
                .ok_or_else(|| format!("stats lacks {}", path.join(".")))?;
        }
        cur.as_u64()
            .ok_or_else(|| format!("stats {} is not a count", path.join(".")))
    };
    Ok(Stats {
        received: num(&["service", "received"])?,
        completed: num(&["service", "completed"])?,
        failed: num(&["service", "failed"])?,
        shed: num(&["service", "shed"])?,
        conns_shed: num(&["service", "conns_shed"])?,
        requests: num(&["requests"])?,
        hits: num(&["cache", "hits"])?,
        source_hits: num(&["cache", "source_hits"])?,
        misses: num(&["cache", "misses"])?,
        coalesced: num(&["cache", "coalesced"])?,
        evictions: num(&["cache", "evictions"])?,
        disk_hits: num(&["disk", "hits"])?,
        disk_verify_failures: num(&["disk", "verify_failures"])?,
    })
}

/// The `stats` counters the benchmark uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Frames received from admitted connections.
    pub received: u64,
    /// Answered `ok: true`.
    pub completed: u64,
    /// Answered with an in-protocol error.
    pub failed: u64,
    /// Shed at the request queue.
    pub shed: u64,
    /// Connections shed at the cap.
    pub conns_shed: u64,
    /// Requests that reached `handle_line`.
    pub requests: u64,
    /// Term-cache hits (memory tier).
    pub hits: u64,
    /// Front-cache hits.
    pub source_hits: u64,
    /// Term-cache misses (pipeline runs).
    pub misses: u64,
    /// Followers that adopted a concurrent leader's result.
    pub coalesced: u64,
    /// Term-cache evictions.
    pub evictions: u64,
    /// Persistent-tier hits.
    pub disk_hits: u64,
    /// Persisted entries refused on load.
    pub disk_verify_failures: u64,
}

impl Stats {
    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Stats) -> Stats {
        Stats {
            received: self.received - before.received,
            completed: self.completed - before.completed,
            failed: self.failed - before.failed,
            shed: self.shed - before.shed,
            conns_shed: self.conns_shed - before.conns_shed,
            requests: self.requests - before.requests,
            hits: self.hits - before.hits,
            source_hits: self.source_hits - before.source_hits,
            misses: self.misses - before.misses,
            coalesced: self.coalesced - before.coalesced,
            evictions: self.evictions - before.evictions,
            disk_hits: self.disk_hits - before.disk_hits,
            disk_verify_failures: self.disk_verify_failures - before.disk_verify_failures,
        }
    }
}

/// Check a server's final `stats` against itself and against the client
/// tally of every request ever sent to it. The `stats` request that
/// produced `s` is in flight while the counters are read: it is received
/// but not yet completed, and the tally has already counted it as ok.
///
/// # Errors
///
/// The first counter that does not reconcile.
pub fn reconcile(s: &Stats, client: &Tally) -> Result<(), String> {
    let checks = [
        (
            "received == completed + failed + shed + 1",
            s.received,
            s.completed + s.failed + s.shed + 1,
        ),
        (
            "server received == client sent",
            s.received,
            client.sent - client.conn_shed,
        ),
        (
            "server completed == client ok - 1",
            s.completed,
            client.ok - 1,
        ),
        ("server failed == client errors", s.failed, client.errors),
        ("server shed == client shed", s.shed, client.shed),
        (
            "server conns_shed == client conn sheds",
            s.conns_shed,
            client.conn_shed,
        ),
    ];
    for (what, got, want) in checks {
        if got != want {
            return Err(format!(
                "counter reconciliation failed: {what}: {got} != {want}"
            ));
        }
    }
    Ok(())
}
