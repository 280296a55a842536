//! The service execution model under `fj serve`: each admitted
//! connection's thread runs its own requests behind a bounded admission
//! gate, with hostile-input framing, crash-only request handling, and a
//! graceful drain.
//!
//! ## Execution model
//!
//! ```text
//!             ┌─ thread per admitted connection (≤ max_conns) ────────┐
//! accept ───> │ FrameReader: max-line enforced *while reading*,       │
//!  loop       │ idle timeout, lossy UTF-8 — hostile bytes become      │
//! (nonblock,  │ in-protocol `proto` errors or counted disconnects     │
//!  backoff)   └──────────────┬────────────────────────────────────────┘
//!                            │ Gate::admit        (`workers` running and
//!                   ┌────────▼─────────┐           `queue_cap` waiting ⇒
//!                   │  admission gate  │           shed with `overloaded`
//!                   └────────┬─────────┘           + retry hint)
//!             ┌──────────────▼───────────────┐
//!             │ same thread, ≤ `workers` at  │  catch_unwind per request:
//!             │ once: handle_line +          │  a handler panic is an
//!             │ catch_unwind                 │  `internal` error response,
//!             └──────────────────────────────┘  the daemon survives
//! ```
//!
//! A request never crosses threads: the connection thread that framed it
//! runs it and writes the answer. Admission control is two-level: a
//! **connection cap** (`max_conns`) sheds whole connections at accept
//! time, and the **admission gate** lets at most `workers` requests run
//! at once and at most `queue_cap` more wait for a slot; the next one is
//! shed. Both sheds answer in-protocol with an `overloaded` error
//! carrying a `retry_after_ms` hint, so a well-behaved client can back
//! off instead of seeing a silent close.
//!
//! Shutdown is a **drain**: the accept loop stops admitting, connection
//! threads stop pulling new frames, requests already admitted (running
//! or waiting) finish, and [`serve`] returns once every connection has
//! ended or the `drain` deadline passes — whichever comes first. A
//! request stuck past the deadline is abandoned (crash-only exit), never
//! waited on forever.

use crate::{error_response, ServeError, ServerState};
use fj_core::{panic_message, quiet_panics};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How often the nonblocking accept loop re-checks for connections and
/// the shutdown flag. This replaces the old self-connect "poke": a
/// `shutdown` request can never hang waiting for a wake-up connection
/// that might itself be shed.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Upper bound on the accept-error backoff sleep.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// How often drain progress is re-checked during shutdown.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Per-read poll quantum for connection reads; idle time accumulates in
/// these steps until the configured idle timeout trips.
const READ_POLL: Duration = Duration::from_millis(25);

/// Tuning knobs for the serving layer (the caches are configured
/// separately, on [`ServerState::new`]). Stored inside the
/// [`ServerState`] so `serve` and the `stats` op see the same values.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Most requests executing at once (each on its connection's thread).
    pub workers: usize,
    /// Most requests waiting for an execution slot; the next one sheds.
    pub queue_cap: usize,
    /// Maximum concurrently admitted connections; excess is shed.
    pub max_conns: usize,
    /// Maximum request-frame length in bytes, enforced *while reading*.
    pub max_line: usize,
    /// Disconnect a connection that produces no complete frame for this
    /// long (slow-loris defense).
    pub idle_timeout: Duration,
    /// How long `shutdown` waits for in-flight work before exiting.
    pub drain: Duration,
    /// Honor the `__chaos_panic` / `__chaos_sleep` fault-injection ops
    /// (test harnesses only; off by default).
    pub chaos: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .clamp(1, 16);
        ServeConfig {
            workers,
            queue_cap: workers * 8,
            max_conns: 256,
            max_line: 1 << 20,
            idle_timeout: Duration::from_secs(10),
            drain: Duration::from_secs(2),
            chaos: false,
        }
    }
}

/// Why a connection ended, counted in [`ServiceStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Disconnect {
    /// EOF, shutdown drain, or post-`shutdown` close.
    Clean,
    /// A transport error mid-connection (previously discarded silently).
    Io,
    /// The idle timeout tripped: a slow-loris client was cut off.
    Timeout,
    /// A frame exceeded `max_line` and the connection was closed.
    Oversize,
}

/// Service-layer counters. All request-level counters reconcile:
/// `received == completed + failed + shed` once no request is in flight.
#[derive(Default)]
pub(crate) struct ServiceStats {
    pub(crate) conns_accepted: AtomicU64,
    pub(crate) conns_shed: AtomicU64,
    pub(crate) conns_active: AtomicU64,
    pub(crate) accept_errors: AtomicU64,
    pub(crate) received: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) disc_clean: AtomicU64,
    pub(crate) disc_io: AtomicU64,
    pub(crate) disc_timeout: AtomicU64,
    pub(crate) disc_oversize: AtomicU64,
}

/// A point-in-time copy of the service counters, for tests and the
/// `stats` op.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceSnapshot {
    /// Connections accepted by the listener (admitted + shed).
    pub conns_accepted: u64,
    /// Connections shed at the connection cap.
    pub conns_shed: u64,
    /// Connections currently admitted (gauge).
    pub conns_active: u64,
    /// Transient accept-loop errors (EMFILE and friends, or no thread
    /// for an accepted connection), backed off.
    pub accept_errors: u64,
    /// Non-empty request frames received from admitted connections.
    pub received: u64,
    /// Requests answered with `ok: true`.
    pub completed: u64,
    /// Requests answered with an in-protocol error (parse, type, …,
    /// including `internal` panic responses).
    pub failed: u64,
    /// Requests shed with `overloaded` because every execution slot was
    /// busy and `queue_cap` requests were already waiting.
    pub shed: u64,
    /// Request handlers that panicked (each also counts as `failed`).
    pub panics: u64,
    /// Connections that ended cleanly (EOF, shutdown drain).
    pub disc_clean: u64,
    /// Connections that ended on a transport error.
    pub disc_io: u64,
    /// Connections cut off by the idle timeout.
    pub disc_timeout: u64,
    /// Connections closed for an oversized frame.
    pub disc_oversize: u64,
}

impl ServiceStats {
    pub(crate) fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_shed: self.conns_shed.load(Ordering::Relaxed),
            conns_active: self.conns_active.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            disc_clean: self.disc_clean.load(Ordering::Relaxed),
            disc_io: self.disc_io.load(Ordering::Relaxed),
            disc_timeout: self.disc_timeout.load(Ordering::Relaxed),
            disc_oversize: self.disc_oversize.load(Ordering::Relaxed),
        }
    }
}

/// Admission control for requests: at most `workers` run at once and
/// at most `queue_cap` more wait for a slot; [`Gate::admit`] refuses the
/// next one. Waiters block on their own connection thread and are
/// admitted in no fixed order as slots free.
struct Gate {
    slots: Mutex<Slots>,
    freed: Condvar,
    workers: usize,
    queue_cap: usize,
}

#[derive(Default)]
struct Slots {
    running: usize,
    waiting: usize,
}

/// An execution slot, released on drop — also when the request that
/// holds it panics.
struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(workers: usize, queue_cap: usize) -> Gate {
        Gate {
            slots: Mutex::new(Slots::default()),
            freed: Condvar::new(),
            workers: workers.max(1),
            queue_cap: queue_cap.max(1),
        }
    }

    /// A panic while the lock is held cannot leave the counts torn (each
    /// update is one statement), so a poisoned lock is taken as is.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Take an execution slot, waiting for one if every slot is busy and
    /// fewer than `queue_cap` requests wait already.
    ///
    /// # Errors
    ///
    /// Returns how many requests are waiting when the request must be
    /// shed instead; it sizes the retry hint.
    fn admit(&self) -> Result<Permit<'_>, usize> {
        let mut slots = self.lock();
        if slots.running >= self.workers {
            if slots.waiting >= self.queue_cap {
                return Err(slots.waiting);
            }
            slots.waiting += 1;
            while slots.running >= self.workers {
                slots = self.freed.wait(slots).unwrap_or_else(|p| p.into_inner());
            }
            slots.waiting -= 1;
        }
        slots.running += 1;
        Ok(Permit(self))
    }

    /// How many requests wait for a slot right now (racy, for hints).
    fn waiting(&self) -> usize {
        self.lock().waiting
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut slots = self.0.lock();
        slots.running -= 1;
        // A waiter counts itself under the lock before it sleeps, so with
        // none counted there is nobody to wake (and no wake syscall).
        let wake = slots.waiting > 0;
        drop(slots);
        if wake {
            self.0.freed.notify_one();
        }
    }
}

/// The backoff sleep after `consecutive` accept errors in a row:
/// exponential from 1ms, capped at [`ACCEPT_BACKOFF_CAP`]. Transient
/// resource exhaustion (EMFILE/ENFILE) degrades into slow accepting
/// instead of a hot spin that starves the very connections whose close
/// would free descriptors.
pub fn accept_backoff(consecutive: u32) -> Duration {
    let shift = consecutive.saturating_sub(1).min(16);
    Duration::from_millis(1u64 << shift).min(ACCEPT_BACKOFF_CAP)
}

/// The `retry_after_ms` hint attached to shed responses: proportional to
/// the waiting requests per execution slot, clamped to a sane band.
fn retry_hint_ms(waiting: usize, workers: usize) -> u64 {
    let per_worker = waiting as u64 / workers.max(1) as u64;
    per_worker
        .saturating_add(1)
        .saturating_mul(10)
        .clamp(10, 2_000)
}

/// Serve requests on `listener` until a `shutdown` op arrives, then
/// drain and return. The execution model is the gated thread per
/// connection described in the module docs; all tuning comes from the
/// state's [`ServeConfig`]. Blocks the calling thread.
///
/// # Errors
///
/// Propagates listener-level setup errors (nonblocking mode, local
/// address). Per-connection errors never escape: they are counted in
/// the service stats and end only that connection.
pub fn serve(listener: TcpListener, state: Arc<ServerState>) -> std::io::Result<()> {
    let cfg = state.config().clone();
    listener.set_nonblocking(true)?;
    let gate = Arc::new(Gate::new(cfg.workers, cfg.queue_cap));
    // Connection threads carry the port, so a thread listing tells
    // which listener each belongs to.
    let conn_thread = format!("fj-conn-{}", listener.local_addr()?.port());

    let mut consecutive_errors = 0u32;
    while !state.shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => {
                consecutive_errors = 0;
                // One-line request/response traffic is latency-bound:
                // without this, Nagle + delayed ACK add ~40ms per turn.
                let _ = stream.set_nodelay(true);
                let sv = state.service();
                sv.conns_accepted.fetch_add(1, Ordering::Relaxed);
                if sv.conns_active.load(Ordering::Relaxed) >= cfg.max_conns as u64 {
                    // Over the connection cap: shed in-protocol, close.
                    sv.conns_shed.fetch_add(1, Ordering::Relaxed);
                    shed_connection(stream, &gate, &cfg);
                    continue;
                }
                sv.conns_active.fetch_add(1, Ordering::Relaxed);
                let st = Arc::clone(&state);
                let g = Arc::clone(&gate);
                let run = move || {
                    handle_connection(stream, &st, &g);
                    st.service().conns_active.fetch_sub(1, Ordering::Relaxed);
                };
                let thread = std::thread::Builder::new().name(conn_thread.clone());
                if thread.spawn(run).is_err() {
                    // The OS refused a thread; the connection closes with
                    // the dropped closure. Count and back off as for a
                    // failed accept.
                    sv.conns_active.fetch_sub(1, Ordering::Relaxed);
                    sv.accept_errors.fetch_add(1, Ordering::Relaxed);
                    consecutive_errors = consecutive_errors.saturating_add(1);
                    std::thread::sleep(accept_backoff(consecutive_errors));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                consecutive_errors = 0;
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                state
                    .service()
                    .accept_errors
                    .fetch_add(1, Ordering::Relaxed);
                consecutive_errors = consecutive_errors.saturating_add(1);
                std::thread::sleep(accept_backoff(consecutive_errors));
            }
        }
    }

    // Graceful drain: stop accepting (listener drops here) and let
    // admitted connections notice the flag. A connection thread ends only
    // after its admitted requests (running or waiting) have answered, so
    // no live connection means no request in flight. Past the deadline,
    // anything still running is abandoned rather than waited on.
    drop(listener);
    let deadline = Instant::now() + cfg.drain;
    while state.service().conns_active.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
        std::thread::sleep(DRAIN_POLL);
    }
    Ok(())
}

/// Answer a connection shed at the connection cap with a single
/// `overloaded` line, then close it.
fn shed_connection(stream: TcpStream, gate: &Gate, cfg: &ServeConfig) {
    let hint = retry_hint_ms(gate.waiting(), cfg.workers);
    let e = ServeError::overloaded("connection shed: server at its connection cap", hint);
    let mut stream = stream;
    let _ = write_line(&mut stream, &error_response(&e));
}

/// Run one admitted request under `catch_unwind`: a panic becomes a
/// structured `internal` error response and a counter bump — the
/// connection and the daemon both survive (crash-only requests).
/// Returns the response line and whether the request asked to shut down.
fn run_request(state: &ServerState, line: &str) -> (String, bool) {
    let run = || catch_unwind(AssertUnwindSafe(|| state.handle_line(line)));
    // Chaos harnesses inject panics on purpose; keep their reports off
    // stderr. Real deployments keep the default hook and log.
    let outcome = if state.config().chaos {
        quiet_panics(run)
    } else {
        run()
    };
    let sv = state.service();
    let (response, shutdown) = match outcome {
        Ok(reply) => reply,
        Err(payload) => {
            sv.panics.fetch_add(1, Ordering::Relaxed);
            let e = ServeError::Internal(format!(
                "request handler panicked: {}",
                panic_message(payload)
            ));
            (error_response(&e), false)
        }
    };
    // Every response is built by `ok_response`/`error_response`, so the
    // leading field is authoritative for the outcome counters.
    if response.starts_with("{\"ok\": false") {
        sv.failed.fetch_add(1, Ordering::Relaxed);
    } else {
        sv.completed.fetch_add(1, Ordering::Relaxed);
    }
    (response, shutdown)
}

/// What one attempt to read a frame produced.
enum Frame {
    /// A complete newline-terminated request line (lossy UTF-8: hostile
    /// bytes become replacement characters and fail JSON parsing
    /// in-protocol rather than killing the connection).
    Line(String),
    /// Clean EOF (any partial trailing frame is discarded).
    Eof,
    /// No complete frame within the idle timeout.
    Timeout,
    /// The frame exceeded `max_line` before a newline arrived.
    Oversize,
    /// A transport error.
    Io,
    /// The server is draining; stop reading new requests.
    Shutdown,
}

/// An incremental line framer over a blocking socket with a short read
/// timeout. The buffer never grows past `max_line` plus one read chunk:
/// oversized frames are rejected *while reading*, not after buffering.
struct FrameReader {
    stream: TcpStream,
    pending: Vec<u8>,
    /// Bytes of `pending` already scanned for a newline.
    scanned: usize,
    max_line: usize,
    idle_timeout: Duration,
    poll: Duration,
}

impl FrameReader {
    fn new(stream: TcpStream, cfg: &ServeConfig) -> std::io::Result<FrameReader> {
        let poll = READ_POLL
            .min(cfg.idle_timeout)
            .max(Duration::from_millis(1));
        stream.set_read_timeout(Some(poll))?;
        Ok(FrameReader {
            stream,
            pending: Vec::new(),
            scanned: 0,
            max_line: cfg.max_line,
            idle_timeout: cfg.idle_timeout,
            poll,
        })
    }

    fn read_frame(&mut self, shutting_down: impl Fn() -> bool) -> Frame {
        let mut idle = Duration::ZERO;
        loop {
            if let Some(pos) = self.pending[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
            {
                let end = self.scanned + pos + 1;
                // The common frame ends the buffer and is taken as is;
                // pipelined bytes after it move to a buffer of their own.
                let mut line = if end == self.pending.len() {
                    std::mem::take(&mut self.pending)
                } else {
                    let rest = self.pending.split_off(end);
                    std::mem::replace(&mut self.pending, rest)
                };
                self.scanned = 0;
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                let line = String::from_utf8(line)
                    .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
                return Frame::Line(line);
            }
            self.scanned = self.pending.len();
            if self.pending.len() > self.max_line {
                return Frame::Oversize;
            }
            // Already-buffered complete frames (pipelining) are served
            // above even while draining; only *new* reads stop.
            if shutting_down() {
                return Frame::Shutdown;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Frame::Eof,
                Ok(n) => {
                    idle = Duration::ZERO;
                    self.pending.extend_from_slice(&chunk[..n]);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    idle += self.poll;
                    if idle >= self.idle_timeout {
                        return Frame::Timeout;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Frame::Io,
            }
        }
    }
}

fn write_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    // One write per response: a trailing-newline write of its own can
    // stall behind Nagle until the previous segment is acknowledged.
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    writer.write_all(&framed)?;
    writer.flush()
}

/// Drive one admitted connection: frame requests defensively, run each
/// behind the admission gate (or shed it), write responses in order, and
/// record why the connection ended.
fn handle_connection(stream: TcpStream, state: &ServerState, gate: &Gate) {
    let cfg = state.config();
    let sv = state.service();
    let mut framer = match stream.try_clone().and_then(|s| FrameReader::new(s, cfg)) {
        Ok(f) => f,
        Err(_) => {
            sv.disc_io.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let mut writer = stream;
    let reason = loop {
        match framer.read_frame(|| state.shutting_down()) {
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                sv.received.fetch_add(1, Ordering::Relaxed);
                let (response, shutdown) = match gate.admit() {
                    Ok(permit) => {
                        let reply = run_request(state, &line);
                        // Free the slot before the write: a slow reader
                        // must not hold an execution slot.
                        drop(permit);
                        reply
                    }
                    Err(waiting) => {
                        // Admission refused: shed this request, keep the
                        // connection — the client may back off and retry.
                        sv.shed.fetch_add(1, Ordering::Relaxed);
                        let hint = retry_hint_ms(waiting, cfg.workers);
                        let e = ServeError::overloaded(
                            "request shed: every execution slot is busy and the wait queue is full",
                            hint,
                        );
                        (error_response(&e), false)
                    }
                };
                if write_line(&mut writer, &response).is_err() {
                    break Disconnect::Io;
                }
                if shutdown {
                    break Disconnect::Clean;
                }
            }
            Frame::Eof | Frame::Shutdown => break Disconnect::Clean,
            Frame::Timeout => {
                let e = ServeError::Proto(format!(
                    "idle timeout: no complete request within {}ms",
                    cfg.idle_timeout.as_millis()
                ));
                let _ = write_line(&mut writer, &error_response(&e));
                break Disconnect::Timeout;
            }
            Frame::Oversize => {
                let e = ServeError::Proto(format!(
                    "request line exceeds the {}-byte frame limit",
                    cfg.max_line
                ));
                let _ = write_line(&mut writer, &error_response(&e));
                break Disconnect::Oversize;
            }
            Frame::Io => break Disconnect::Io,
        }
    };
    let counter = match reason {
        Disconnect::Clean => &sv.disc_clean,
        Disconnect::Io => &sv.disc_io,
        Disconnect::Timeout => &sv.disc_timeout,
        Disconnect::Oversize => &sv.disc_oversize,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_grows_exponentially_and_caps() {
        assert_eq!(accept_backoff(1), Duration::from_millis(1));
        assert_eq!(accept_backoff(2), Duration::from_millis(2));
        assert_eq!(accept_backoff(3), Duration::from_millis(4));
        assert_eq!(accept_backoff(6), Duration::from_millis(32));
        // Capped: a long error streak never sleeps unboundedly...
        assert_eq!(accept_backoff(11), ACCEPT_BACKOFF_CAP);
        // ...and huge streak counters don't overflow the shift.
        assert_eq!(accept_backoff(u32::MAX), ACCEPT_BACKOFF_CAP);
    }

    /// Poll `cond` for up to five seconds.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn gate_sheds_when_every_slot_and_the_queue_are_full() {
        let gate = Gate::new(1, 1);
        let held = gate.admit().expect("a free slot admits at once");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.admit().map(drop).is_ok());
            assert!(eventually(|| gate.waiting() == 1), "the waiter queues");
            // One running, one waiting: the next request is refused and
            // told how many wait (the retry hint's input).
            assert!(matches!(gate.admit(), Err(1)));
            drop(held);
            assert!(waiter.join().unwrap(), "the waiter is admitted");
        });
        // Everything released: the gate admits again, shedding nothing.
        assert!(gate.admit().is_ok());
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn gate_admits_a_waiter_when_a_slot_frees() {
        let gate = Gate::new(1, 4);
        let held = gate.admit().unwrap();
        let (admitted_tx, admitted) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _permit = gate.admit().unwrap();
                admitted_tx.send(()).unwrap();
            });
            assert!(
                admitted.recv_timeout(Duration::from_millis(50)).is_err(),
                "no slot is free while the first request runs"
            );
            drop(held);
            admitted
                .recv_timeout(Duration::from_secs(5))
                .expect("the freed slot admits the waiter");
        });
        // A request that panics while it holds a slot frees it on unwind.
        let panicked = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                let _permit = gate.admit().unwrap();
                panic!("request panics while running");
            }))
        });
        assert!(panicked.is_err());
        assert_eq!(
            gate.lock().running,
            0,
            "the panicking request's slot is free"
        );
    }

    #[test]
    fn gate_bounds_concurrency_across_threads() {
        const THREADS: usize = 6;
        const ROUNDS: usize = 200;
        // Two slots plus four waiting places hold all six threads, so
        // every request is admitted and none is shed.
        let gate = Gate::new(2, 4);
        let running = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        let admitted = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        let _permit = gate.admit().expect("nothing sheds under the cap");
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        running.fetch_sub(1, Ordering::SeqCst);
                        admitted.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(admitted.load(Ordering::SeqCst), (THREADS * ROUNDS) as u64);
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            (1..=2).contains(&peak),
            "at most two run at once, saw {peak}"
        );
        let slots = gate.lock();
        assert_eq!((slots.running, slots.waiting), (0, 0));
    }

    #[test]
    fn retry_hint_tracks_queue_depth() {
        assert_eq!(retry_hint_ms(0, 4), 10);
        assert!(retry_hint_ms(64, 4) > retry_hint_ms(8, 4));
        assert_eq!(retry_hint_ms(usize::MAX, 1), 2_000, "hint is clamped");
    }
}
