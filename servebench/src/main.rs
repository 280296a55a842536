//! `servebench`: the served compile-and-run benchmark of `fj serve`.
//!
//! ```text
//! servebench --workload <cold-compile|hot-run|cache-churn|one-shot>
//!            --seed N --seconds S --trace <0|1>
//! servebench --self-test [--seed N]
//! ```
//!
//! One process starts a live in-process `fj serve` (two workers) on
//! loopback, drives it with a seeded closed loop, checks every response
//! against an independent reference, reconciles the server's `stats`
//! counters with the client's, and prints one JSON object as its last
//! line. `--trace 1` adds an in-process replay that records one span per
//! call into each layer. See README.md for the workloads and metrics.

mod inputs;
mod serve;
mod trace;

use inputs::{Inputs, Req, Workload};
use serve::{Conn, Geometry, Server, Stats, Tally, Window};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. The first half runs
/// before the measured window (the last of them is the served instance),
/// the rest after it, so that one burst of host noise does not spoil
/// them all.
const SETUPS: usize = 21;

/// Answers per time slice of the measured window for the median and
/// throughput: two rounds of `cold-compile`'s 149 requests.
const SLICE_ANSWERS: usize = 300;

/// At most this many such slices per window.
const MAX_SLICES: usize = 31;

/// Answers per time slice for the 99th percentile: enough for ten
/// answers beyond it.
const TAIL_SLICE_ANSWERS: usize = 1000;

/// At most this many such slices per window.
const MAX_TAIL_SLICES: usize = 9;

/// Share of a traced run spent on the untraced and traced served
/// windows; the rest goes to the in-process replay.
const TRACE_SERVED_SHARE: f64 = 0.25;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_none() && !args.self_test {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() {
    let code = match run_main() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("servebench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run_main() -> Result<(), String> {
    // A debug build times a different program: `OptConfig::lint_between`
    // defaults on there, re-linting after every pass.
    if cfg!(debug_assertions) || fj_core::OptConfig::join_points().lint_between {
        return Err("refusing to measure a debug build; build with --release".to_string());
    }
    let args = parse_args()?;
    if args.self_test {
        return self_test(args.seed);
    }
    let workload = args.workload.expect("checked in parse_args");
    let run = run(
        workload,
        args.seed,
        Length::Seconds(args.seconds),
        args.trace,
    )?;
    let metrics = if args.trace {
        run.per_layer
    } else {
        run.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        run.tally.attempted(),
        run.tally.failed(),
        body.join(", ")
    );
    Ok(())
}

/// A JSON number for a measured value (JSON has no NaN or infinity).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// How long the measured window lasts.
#[derive(Clone, Copy)]
enum Length {
    Seconds(f64),
    /// A fixed number of requests per client (the self-test).
    Requests(usize),
}

/// One program's exact counts from the counts pass.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ProgCounts {
    name: String,
    nofib: bool,
    /// Allocation units (let + arg + con) per mode of the workload.
    allocs: Vec<u64>,
    /// VM steps per mode.
    steps: Vec<u64>,
    size_after: u64,
    rewrites: u64,
}

/// Exact counts: one sequential pass over the distinct programs after
/// the measured window, plus the cache hits that pass saw.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counts {
    progs: Vec<ProgCounts>,
    pass_stats: Stats,
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct RunResult {
    correct: bool,
    tally: Tally,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    counts: Counts,
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// The cache geometry of a workload's server.
fn geometry(inputs: &Inputs, instance: usize) -> Geometry {
    match inputs.workload {
        Workload::CacheChurn => {
            // Memory holds part of the working set; the disk tier holds
            // all of it.
            let working_set: usize = inputs.progs.iter().map(|p| p.entry_bytes).sum();
            Geometry {
                shards: 2,
                cache_bytes: working_set / inputs::CHURN_BUDGET_DIVISOR,
                dir: Some(out_dir().join(format!(
                    "cache-{}-{}-{instance}",
                    std::process::id(),
                    inputs.seed
                ))),
            }
        }
        _ => Geometry {
            shards: fj_core::cache::DEFAULT_SHARDS,
            cache_bytes: fj_core::cache::DEFAULT_CACHE_BYTES,
            dir: None,
        },
    }
}

/// Requests that bring a fresh server to its steady state: the front
/// cache for `hot-run` and `one-shot`, the disk tier for `cache-churn`,
/// and for `cold-compile` the workers' lazily built per-thread state (one
/// run of each nofib program).
fn warmup(inputs: &Inputs) -> Vec<Req> {
    match inputs.workload {
        Workload::ColdCompile => inputs
            .distinct_runs()
            .into_iter()
            .filter(|r| inputs.progs[r.prog].nofib)
            .collect(),
        _ => inputs.distinct_requests(),
    }
}

/// Start a server and bring it to ready: answering, and warmed up.
/// Returns the server, its set-up time, and the requests it was sent.
fn setup(inputs: &Inputs, instance: usize) -> Result<(Server, f64, Tally), String> {
    let geo = geometry(inputs, instance);
    if let Some(dir) = &geo.dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut tally = Tally::default();
    let started = Instant::now();
    let server = Server::start(&geo)?;
    let mut conn = Conn::open(server.addr, false).map_err(|e| format!("connect: {e}"))?;
    serve::stats(&mut conn, &mut tally)?;
    for req in warmup(inputs) {
        serve::call_checked(&mut conn, inputs, &req, &mut tally)?;
    }
    let secs = started.elapsed().as_secs_f64();
    Ok((server, secs, tally))
}

/// The counts pass: every distinct program once per mode, then one
/// compile each, sequentially on one connection.
fn counts_pass(inputs: &Inputs, conn: &mut Conn, tally: &mut Tally) -> Result<Counts, String> {
    let before = serve::stats(conn, tally)?;
    let mut progs = Vec::new();
    for (prog, p) in inputs.progs.iter().enumerate() {
        let mut pc = ProgCounts {
            name: p.name.clone(),
            nofib: p.nofib,
            allocs: Vec::new(),
            steps: Vec::new(),
            size_after: 0,
            rewrites: 0,
        };
        for &mode in inputs.workload.modes() {
            let req = Req {
                prog,
                mode: Some(mode),
                nonce: None,
            };
            let v = serve::call_checked(conn, inputs, &req, tally)?
                .ok_or_else(|| format!("{}: counts-pass run failed", p.name))?;
            let m = v.get("metrics").ok_or("run response lacks metrics")?;
            let count = |k: &str| m.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
            pc.allocs
                .push(count("let_allocs") + count("arg_allocs") + count("con_allocs"));
            pc.steps.push(count("steps"));
        }
        // A bypass compile: a cached answer would carry the report of
        // whichever run produced it (none at all for a disk load).
        tally.sent += 1;
        let resp = conn
            .call(&inputs.bypass_compile_line(prog))
            .map_err(|e| format!("{}: {e}", p.name))?;
        let req = Req {
            prog,
            mode: None,
            nonce: None,
        };
        let v = serve::check(inputs, &req, &resp, tally)
            .ok_or_else(|| format!("{}: counts-pass compile failed", p.name))?;
        pc.size_after = v.get("size_after").and_then(|x| x.as_u64()).unwrap_or(0);
        pc.rewrites = v.get("rewrites").and_then(|x| x.as_u64()).unwrap_or(0);
        progs.push(pc);
    }
    let after = serve::stats(conn, tally)?;
    Ok(Counts {
        progs,
        pass_stats: after.since(&before),
    })
}

/// Requests per client of the fixed pass `peak_rss_mb` is read after.
/// The timed window serves as many requests as the host's speed allows,
/// and the server's memory grows with the requests it has served (see
/// README.md), so the peak is read after a fixed amount of work instead.
fn memory_requests(workload: Workload) -> usize {
    match workload {
        // One connection at a few milliseconds a request: about 3 s.
        Workload::ColdCompile => 500,
        // About 5 s. Fewer leave the peak bimodal (it moves by 1.5-2 MB
        // with how the two workers' runs happened to overlap); with
        // these, the memory the requests keep outweighs that.
        Workload::HotRun => 8000,
        // Enough that the two workers' largest compiles overlap, as they
        // do in the timed window.
        Workload::CacheChurn | Workload::OneShot => 2000,
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The window's latency p50 and p99 (microseconds) and throughput
/// (correct answers per second), each the median over equal time slices
/// of the window, by send time: a burst of host noise that spoils a few
/// slices does not move the figure. There are as many slices as keep
/// [`SLICE_ANSWERS`] answers in each, up to [`MAX_SLICES`]; the p99 uses
/// coarser slices of [`TAIL_SLICE_ANSWERS`], up to [`MAX_TAIL_SLICES`].
fn sliced(window: &Window) -> (f64, f64, f64) {
    let (mut p50, mut rps) = (Vec::new(), Vec::new());
    for (lat, secs) in slices(window, SLICE_ANSWERS, MAX_SLICES) {
        p50.push(percentile_us(&lat, 50.0));
        rps.push(lat.len() as f64 / secs);
    }
    let mut p99: Vec<f64> = slices(window, TAIL_SLICE_ANSWERS, MAX_TAIL_SLICES)
        .iter()
        .map(|(lat, _)| percentile_us(lat, 99.0))
        .collect();
    (median(&mut p50), median(&mut p99), median(&mut rps))
}

/// The latencies of the window's correct answers, cut by send time into
/// as many equal slices as keep `answers` in each (at least one, at most
/// `max`): each slice's latencies sorted, with its length in seconds.
fn slices(window: &Window, answers: usize, max: usize) -> Vec<(Vec<u64>, f64)> {
    let correct = window.served.iter().filter(|s| s.correct).count();
    let n = (correct / answers).clamp(1, max);
    let slice_ns = (window.wall.as_nanos() as u64 / n as u64).max(1);
    let mut lat = vec![Vec::new(); n];
    for s in window.served.iter().filter(|s| s.correct) {
        lat[((s.sent_ns / slice_ns) as usize).min(n - 1)].push(s.latency_ns);
    }
    lat.into_iter()
        .map(|mut l| {
            l.sort_unstable();
            (l, slice_ns as f64 / 1e9)
        })
        .collect()
}

/// Nearest-rank percentile of sorted nanoseconds, in microseconds.
fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
}

/// Peak resident memory of this process (server, clients, inputs), MB.
///
/// # Errors
///
/// The kernel does not report `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak resident memory (VmHWM) is unavailable".to_string())
}

fn run(workload: Workload, seed: u64, length: Length, traced: bool) -> Result<RunResult, String> {
    let inputs = Inputs::build(workload, seed)?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("out dir: {e}"))?;
    let mut total = Tally::default();
    let setups = match length {
        Length::Seconds(_) => SETUPS,
        Length::Requests(_) => 1,
    };
    let mut setup_secs = Vec::new();
    let mut kept: Option<(Server, Tally)> = None;
    for instance in 0..setups.div_ceil(2) {
        if let Some((server, tally)) = kept.take() {
            total.add(&tally);
            server.stop()?;
        }
        let (server, secs, tally) = setup(&inputs, instance)?;
        setup_secs.push(secs);
        kept = Some((server, tally));
    }
    let (server, mut tally) = kept.expect("at least one set-up");
    let memory = serve::closed_loop(
        &inputs,
        server.addr,
        3,
        3600.0,
        Some(match length {
            Length::Seconds(_) => memory_requests(workload),
            Length::Requests(n) => n,
        }),
        false,
    );
    tally.add(&memory.tally);
    let peak_rss = peak_rss_mb()?;
    let connect = || Conn::open(server.addr, false).map_err(|e| format!("connect: {e}"));
    // A connection idle for the whole window would hit the server's idle
    // timeout, so the window's opening `stats` gets one of its own.
    let before = serve::stats(&mut connect()?, &mut tally)?;
    let (requests, seconds) = match length {
        Length::Seconds(s) => (None, s),
        Length::Requests(n) => (Some(n), 3600.0),
    };
    let served_seconds = if traced {
        seconds * TRACE_SERVED_SHARE
    } else {
        seconds
    };
    let window: Window =
        serve::closed_loop(&inputs, server.addr, 1, served_seconds, requests, false);
    tally.add(&window.tally);
    let traced_window = if traced {
        // A stream of its own: the traced window draws fresh traffic from
        // the same mix rather than resending what the untraced window sent
        // (and, on `cache-churn`, already inserted into the front cache).
        let w = serve::closed_loop(&inputs, server.addr, 2, served_seconds, requests, true);
        tally.add(&w.tally);
        Some(w)
    } else {
        None
    };
    let mut conn = connect()?;
    let after_window = serve::stats(&mut conn, &mut tally)?;
    let window_stats = after_window.since(&before);
    let counts = counts_pass(&inputs, &mut conn, &mut tally)?;
    let final_stats = serve::stats(&mut conn, &mut tally)?;
    let reconciled = serve::reconcile(&final_stats, &tally);
    if let Err(e) = &reconciled {
        eprintln!("servebench: {e}");
    }
    drop(conn);
    server.stop()?;
    total.add(&tally);
    for instance in setups.div_ceil(2)..setups {
        let (server, secs, tally) = setup(&inputs, instance)?;
        setup_secs.push(secs);
        total.add(&tally);
        server.stop()?;
    }
    eprintln!("servebench: set-up times {setup_secs:?}");

    let (p50, p99, throughput) = sliced(&window);
    let nofib_sum = |f: &dyn Fn(&ProgCounts) -> u64| -> f64 {
        counts.progs.iter().filter(|p| p.nofib).map(f).sum::<u64>() as f64
    };
    let end_to_end: Vec<Metric> = vec![
        ("setup_s", median(&mut setup_secs), "s"),
        ("latency_p50_us", p50, "us"),
        ("latency_p99_us", p99, "us"),
        ("throughput_rps", throughput, "1/s"),
        (
            "success_rate",
            1.0 - total.failed() as f64 / total.attempted().max(1) as f64,
            "ratio",
        ),
        (
            "allocs_total",
            nofib_sum(&|p| p.allocs.iter().sum()),
            "count",
        ),
        ("code_size_nodes", nofib_sum(&|p| p.size_after), "count"),
        ("peak_rss_mb", peak_rss, "MB"),
    ];
    let mut correct =
        total.failed() == 0 && reconciled.is_ok() && window.tally.ok > 0 && memory.tally.ok > 0;
    let mut per_layer = Vec::new();
    if let Some(tw) = traced_window {
        let budget = match length {
            Length::Seconds(s) => Duration::from_secs_f64(s * (1.0 - 2.0 * TRACE_SERVED_SHARE)),
            Length::Requests(_) => Duration::from_secs(3600),
        };
        let replay = trace::replay(
            &inputs,
            &geometry(&inputs, setups),
            &warmup(&inputs),
            &window,
            budget,
        )?;
        correct &= replay.ok;
        total.add(&replay.tally);
        per_layer = trace::per_layer(&window, &tw, &replay, &window_stats, &counts);
        let path = out_dir().join(format!("trace-{}-{seed}.jsonl", workload.name()));
        trace::write_spans(&path, &tw.spans, &replay.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("servebench: spans written to {}", path.display());
    }
    Ok(RunResult {
        correct,
        tally: total,
        end_to_end,
        per_layer,
        counts,
    })
}

/// The determinism self-test: exact counts repeat bit-for-bit across two
/// runs with one seed; a second seed changes the generated programs but
/// no nofib program's counts.
fn self_test(seed: u64) -> Result<(), String> {
    let mut failures = Vec::new();
    for w in Workload::ALL {
        let a = run(w, seed, Length::Requests(100), false)?;
        let b = run(w, seed, Length::Requests(100), false)?;
        let c = run(w, seed + 1, Length::Requests(100), false)?;
        for (label, r) in [("first", &a), ("second", &b), ("other-seed", &c)] {
            if !r.correct {
                failures.push(format!("{}: {label} run was not correct", w.name()));
            }
        }
        if a.counts.progs != b.counts.progs {
            failures.push(format!(
                "{}: counts differ between two runs of seed {seed}",
                w.name()
            ));
        }
        // How many of the counts pass's requests hit which cache is exact
        // too, except under `cache-churn`, where the LRU contents it
        // starts from depend on how the two clients interleaved.
        if w != Workload::CacheChurn && a.counts.pass_stats != b.counts.pass_stats {
            failures.push(format!(
                "{}: cache hits differ between two runs of seed {seed}: {:?} vs {:?}",
                w.name(),
                a.counts.pass_stats,
                b.counts.pass_stats
            ));
        }
        for name in ["allocs_total", "code_size_nodes"] {
            let get = |r: &RunResult| r.end_to_end.iter().find(|m| m.0 == name).map(|m| m.1);
            if get(&a) != get(&b) || get(&a) != get(&c) {
                failures.push(format!("{}: {name} moved between runs", w.name()));
            }
        }
        let nofib = |r: &RunResult| -> Vec<ProgCounts> {
            r.counts.progs.iter().filter(|p| p.nofib).cloned().collect()
        };
        if nofib(&a) != nofib(&c) {
            failures.push(format!("{}: a second seed changed nofib counts", w.name()));
        }
        let generated = |seed: u64| -> Result<Vec<String>, String> {
            let inputs = Inputs::build(w, seed)?;
            Ok(inputs
                .progs
                .iter()
                .filter(|p| !p.nofib)
                .map(|p| p.source.to_string())
                .collect())
        };
        let (mine, other) = (generated(seed)?, generated(seed + 1)?);
        if !mine.is_empty() && mine.iter().all(|p| other.contains(p)) {
            failures.push(format!(
                "{}: a second seed kept the generated programs",
                w.name()
            ));
        }
        eprintln!(
            "servebench: self-test {}: {} programs, counts pass hits front={} term={}",
            w.name(),
            a.counts.progs.len(),
            a.counts.pass_stats.source_hits,
            a.counts.pass_stats.hits
        );
    }
    if failures.is_empty() {
        println!("servebench self-test: ok");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}
