//! The traced run: in-memory spans around calls into each layer's public
//! functions, and the per-layer metrics derived from them.
//!
//! The served windows measure latency with tracing off and on (the
//! client records one span per request when on). The replay then feeds
//! the served requests, in send order, to a fresh in-process
//! [`ServerState`] built like the served one: each request is timed as a
//! whole `handle_line` call, then the layers on the path it took are
//! called one by one, each in its own span. Spans of one request share a
//! request id; a span's self time is its duration minus its children's.
//!
//! Work that happens *inside* a layer call and that a span cannot
//! enclose (the α-fingerprint and verify inside `optimize_cached`, the
//! passes inside `optimize_with_report`, the VM's dispatch count) is
//! re-run afterwards under a `probe` span, which the reconciliation with
//! `handle_line` leaves out.

use crate::inputs::{Inputs, Req, Workload};
use crate::serve::{self, Geometry, Stats, Tally, Window};
use crate::Counts;
use fj_ast::{alpha_eq, alpha_fingerprint, Expr};
use fj_core::cache::OptCache;
use fj_core::{apply_pass, optimize_cached, optimize_with_report, OptConfig, Pass};
use fj_eval::EvalMode;
use fj_server::json;
use fj_server::{CompileOpts, FileStore};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reconciliation bounds. Over the whole replay, the layer spans on the
/// requests' paths must sum to the `handle_line` time within this share
/// of it, and on `cold-compile` the `apply_pass` spans must sum to the
/// `optimize_with_report` time within it too; the remainder is work no
/// public layer function encloses (option decoding, response building,
/// front-cache bookkeeping, the pipeline's own census).
const COVERAGE_SLACK: f64 = 0.25;
/// Per-request bound, reported as `trace.unreconciled_share`: a request
/// is unreconciled when its layer spans miss its `handle_line` time by
/// more than this share of it plus [`REQUEST_SLACK_NS`]. Scheduling noise
/// on a shared machine moves single requests, so this is reported, not
/// enforced.
const REQUEST_SLACK_SHARE: f64 = 0.25;
/// See [`REQUEST_SLACK_SHARE`].
const REQUEST_SLACK_NS: f64 = 20_000.0;

/// VM fuel for replayed runs (the server's own default).
const RUN_FUEL: u64 = 100_000_000;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `surface.lex`.
    pub name: &'static str,
    /// Request id shared by every span of one request.
    pub req: u32,
    /// Index of the enclosing span plus one; 0 for a root.
    pub parent: u32,
    /// Start, in nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds from the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder with an explicit open-span stack.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    req: u32,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().map_or(0, |p| *p as u32 + 1);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            req: self.req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        debug_assert_eq!(self.stack.last(), Some(&id));
        self.stack.pop();
        self.spans[id].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }
}

/// What one replayed request measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replayed {
    /// Index into the untraced window's `served`.
    pub served: usize,
    /// The whole `handle_line` call.
    pub handle_ns: u64,
    /// Sum of the layer spans on the request's path (probes excluded).
    pub layers_ns: u64,
    /// `optimize_with_report`, when the request took the bypass path.
    pub optimize_ns: u64,
    /// Sum of the replayed `apply_pass` spans.
    pub passes_ns: u64,
    /// VM steps of the replayed run, if any.
    pub steps: u64,
    /// Passes executed by the pass replay, and how many rewrote nothing.
    pub passes_run: u64,
    /// Passes that rewrote nothing.
    pub passes_noop: u64,
}

/// The replay's record.
pub struct Replay {
    /// Every span, request roots first in each request.
    pub spans: Vec<Span>,
    /// Per replayed request.
    pub requests: Vec<Replayed>,
    /// Counts of the in-process answers, checked like served ones.
    pub tally: Tally,
    /// Every in-process answer was correct and both reconciliations
    /// held within their bounds.
    pub ok: bool,
    /// VM dispatches over one pass of the workload's distinct runs.
    pub dispatches: u64,
    /// Share of requests whose layer spans miss `handle_line`'s time by
    /// more than the per-request bound.
    pub unreconciled_share: f64,
}

struct ReplayCtx<'a> {
    inputs: &'a Inputs,
    state: fj_server::ServerState,
    mirror: OptCache,
    cfg: OptConfig,
    opts: CompileOpts,
    tally: Tally,
}

fn pass_named(name: &str) -> Option<Pass> {
    [
        Pass::Simplify,
        Pass::Contify,
        Pass::FloatIn,
        Pass::FloatOut,
        Pass::Cse,
    ]
    .into_iter()
    .find(|p| p.name() == name)
}

fn pass_span(pass: Pass) -> &'static str {
    match pass {
        Pass::Simplify => "core.apply_pass.simplify",
        Pass::Contify => "core.apply_pass.contify",
        Pass::FloatIn => "core.apply_pass.float-in",
        Pass::FloatOut => "core.apply_pass.float-out",
        Pass::Cse => "core.apply_pass.cse",
    }
}

impl ReplayCtx<'_> {
    /// Replay one request: `handle_line` as a whole, then its path layer
    /// by layer.
    fn request(&mut self, tr: &mut Tracer, req: &Req) -> Result<Replayed, String> {
        let line = self.inputs.line(req);
        let mut rec = Replayed::default();
        let root = tr.open("request");
        let front_before = self.state.source_hits();
        let h = tr.open("server.handle_line");
        let (resp, _) = self.state.handle_line(&line);
        tr.close(h);
        let front_hit = self.state.source_hits() > front_before;
        self.tally.sent += 1;
        serve::check(self.inputs, req, &resp, &mut self.tally);

        let path = tr.open("replay");
        let v = tr
            .timed("json.parse", || json::parse(&line))
            .map_err(|e| format!("replayed request does not parse: {e}"))?;
        let source = v
            .get("program")
            .and_then(json::Value::as_str)
            .ok_or("replayed request lacks a program")?;
        let term: Arc<Expr> = if front_hit {
            let c = tr
                .timed("server.front_lookup", || {
                    self.state.compile_source(source, &self.opts)
                })
                .map_err(|e| e.message().to_string())?;
            c.term
        } else {
            self.frontend_and_optimize(tr, source, req, &mut rec)?
        };
        match req.mode {
            Some(mode) => {
                let prog = tr
                    .timed("vm.compile", || fj_vm::compile(&term, mode))
                    .map_err(|e| format!("vm compile: {e:?}"))?;
                let name = if mode == EvalMode::CallByNeed {
                    "vm.run_program.need"
                } else {
                    "vm.run_program"
                };
                let out = tr
                    .timed(name, || fj_vm::run_program(&prog, RUN_FUEL))
                    .map_err(|e| format!("vm run: {e}"))?;
                rec.steps = out.metrics.steps;
            }
            None => {
                tr.timed("alpha.fingerprint", || alpha_fingerprint(&term));
            }
        }
        let answer = json::parse(&resp).map_err(|e| format!("response does not parse: {e}"))?;
        tr.timed("json.encode", || answer.to_string());
        tr.close(path);
        tr.close(root);

        let path_span = &tr.spans[path];
        rec.handle_ns = tr.spans[h].dur();
        rec.layers_ns = tr.spans[path + 1..]
            .iter()
            .filter(|s| s.parent as usize == path + 1 && !s.name.starts_with("probe"))
            .map(Span::dur)
            .sum();
        debug_assert!(rec.layers_ns <= path_span.dur());
        Ok(rec)
    }

    fn frontend_and_optimize(
        &mut self,
        tr: &mut Tracer,
        source: &str,
        req: &Req,
        rec: &mut Replayed,
    ) -> Result<Arc<Expr>, String> {
        let toks = tr
            .timed("surface.lex", || fj_surface::lex(source))
            .map_err(|e| e.to_string())?;
        let ast = tr
            .timed("surface.parse_program", || fj_surface::parse_program(&toks))
            .map_err(|e| e.to_string())?;
        let mut low = tr
            .timed("surface.lower_program", || fj_surface::lower_program(&ast))
            .map_err(|e| e.to_string())?;
        if self.opts.use_cache {
            let before = self.mirror.stats();
            let id = tr.open("core.optimize_cached");
            let out = optimize_cached(
                &low.expr,
                &low.data_env,
                &mut low.supply,
                &self.cfg,
                false,
                &self.mirror,
            );
            tr.close(id);
            let (term, _, hit) = out.map_err(|e| e.to_string())?;
            let after = self.mirror.stats();
            let disk = after.disk_hits > before.disk_hits;
            tr.spans[id].name = if disk {
                "core.optimize_cached.disk"
            } else if hit {
                "core.optimize_cached.hit"
            } else {
                "core.optimize_cached.miss"
            };
            if hit || disk {
                // What a hit does inside `optimize_cached`: key the term,
                // then α-verify it against the stored input; a disk load
                // also lints the adopted output.
                let p = tr.open("probe.cache");
                tr.timed("alpha.fingerprint.key", || alpha_fingerprint(&low.expr));
                let stored = &self.inputs.progs[req.prog].lowered;
                let same = tr.timed("alpha.verify", || alpha_eq(&low.expr, stored));
                if disk {
                    tr.timed("check.lint.load", || fj_check::lint(&term, &low.data_env))
                        .map_err(|e| format!("adopted entry does not lint: {e}"))?;
                }
                tr.close(p);
                if !same {
                    return Err("perturbed request is not α-equal to its program".to_string());
                }
            }
            Ok(term)
        } else {
            tr.timed("check.lint", || fj_check::lint(&low.expr, &low.data_env))
                .map_err(|e| e.to_string())?;
            let supply = low.supply.clone();
            let id = tr.open("core.optimize_with_report");
            let out = optimize_with_report(&low.expr, &low.data_env, &mut low.supply, &self.cfg);
            tr.close(id);
            rec.optimize_ns = tr.spans[id].dur();
            let (term, report) = out.map_err(|e| e.to_string())?;
            // Replay the pipeline pass by pass, skipping a pass already
            // shown to be a no-op on the current term, as the pipeline does.
            let p = tr.open("probe.passes");
            let mut cur = low.expr.clone();
            let mut supply = supply;
            let mut noop: Vec<Pass> = Vec::new();
            for ps in &report.passes {
                let pass =
                    pass_named(ps.pass).ok_or_else(|| format!("unknown pass {}", ps.pass))?;
                if noop.contains(&pass) {
                    continue;
                }
                let id = tr.open(pass_span(pass));
                let ran = apply_pass(&cur, &low.data_env, &mut supply, pass, &self.cfg.simpl);
                tr.close(id);
                rec.passes_ns += tr.spans[id].dur();
                rec.passes_run += 1;
                let (next, _, changed) = ran.map_err(|e| e.to_string())?;
                if changed {
                    cur = next;
                    noop.clear();
                } else {
                    rec.passes_noop += 1;
                    noop.push(pass);
                }
            }
            tr.close(p);
            if !alpha_eq(&cur, &term) {
                return Err("pass-by-pass replay diverged from optimize_with_report".to_string());
            }
            Ok(Arc::new(term))
        }
    }
}

/// Replay the untraced window's requests in send order on a fresh
/// in-process server built like the served one, within `budget`.
///
/// # Errors
///
/// A layer call that the served request passed fails in the replay.
pub fn replay(
    inputs: &Inputs,
    geo: &Geometry,
    warmup: &[Req],
    window: &Window,
    budget: Duration,
) -> Result<Replay, String> {
    let mirror_dir = geo.dir.as_ref().map(|d| d.with_extension("mirror"));
    for dir in geo.dir.iter().chain(mirror_dir.iter()) {
        let _ = std::fs::remove_dir_all(dir);
    }
    let state = serve::state_for(geo)?;
    let mut mirror = OptCache::with_budget(geo.shards, geo.cache_bytes);
    if let Some(dir) = &mirror_dir {
        let store =
            FileStore::open(dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
        mirror = mirror.with_store(Arc::new(store));
    }
    let mut ctx = ReplayCtx {
        inputs,
        state,
        mirror,
        cfg: OptConfig::join_points(),
        opts: CompileOpts {
            use_cache: inputs.workload.cache_field() == "use",
            ..CompileOpts::default()
        },
        tally: Tally::default(),
    };
    let result = replay_in(&mut ctx, warmup, window, budget);
    for dir in geo.dir.iter().chain(mirror_dir.iter()) {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

fn replay_in(
    ctx: &mut ReplayCtx<'_>,
    warmup: &[Req],
    window: &Window,
    budget: Duration,
) -> Result<Replay, String> {
    // The warm-up brings the replay server (and the mirror cache) to the
    // state the served one measured from; its spans are dropped.
    let mut warm = Tracer::new(Instant::now());
    for req in warmup {
        ctx.request(&mut warm, req)?;
    }
    let started = Instant::now();
    let mut tr = Tracer::new(started);
    let mut requests = Vec::new();
    for (i, s) in window.served.iter().enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        if !s.correct {
            continue;
        }
        tr.req = i as u32;
        let mut rec = ctx.request(&mut tr, &s.req)?;
        rec.served = i;
        requests.push(rec);
    }
    let dispatches = dispatch_probe(ctx)?;
    let outliers = requests
        .iter()
        .filter(|r| {
            let (h, l) = (r.handle_ns as f64, r.layers_ns as f64);
            (h - l).abs() > REQUEST_SLACK_SHARE * h + REQUEST_SLACK_NS
        })
        .count();
    let unreconciled_share = outliers as f64 / requests.len().max(1) as f64;
    let mut ok = ctx.tally.failed() == 0 && !requests.is_empty();
    let sum = |f: fn(&Replayed) -> u64| requests.iter().map(f).sum::<u64>() as f64;
    let (handle, layers) = (sum(|r| r.handle_ns), sum(|r| r.layers_ns));
    if (layers / handle - 1.0).abs() > COVERAGE_SLACK {
        eprintln!(
            "servebench: trace reconciliation failed: layer spans sum to {layers} ns against \
             {handle} ns of handle_line"
        );
        ok = false;
    }
    let (opt, passes) = (sum(|r| r.optimize_ns), sum(|r| r.passes_ns));
    if opt > 0.0 && (passes / opt - 1.0).abs() > COVERAGE_SLACK {
        eprintln!(
            "servebench: pass reconciliation failed: apply_pass spans sum to {passes} ns \
             against {opt} ns of optimize_with_report"
        );
        ok = false;
    }
    Ok(Replay {
        spans: tr.spans,
        requests,
        tally: ctx.tally,
        ok,
        dispatches,
        unreconciled_share,
    })
}

/// VM dispatches over one pass of the workload's distinct runs, from the
/// profiling interpreter (which is too slow to sit on a timed path).
fn dispatch_probe(ctx: &ReplayCtx<'_>) -> Result<u64, String> {
    if ctx.inputs.workload.modes().is_empty()
        || matches!(
            ctx.inputs.workload,
            Workload::CacheChurn | Workload::OneShot
        )
    {
        return Ok(0);
    }
    let mut total = 0;
    for req in ctx.inputs.distinct_runs() {
        let p = &ctx.inputs.progs[req.prog];
        let c = ctx
            .state
            .compile_source(&p.source, &ctx.opts)
            .map_err(|e| e.message().to_string())?;
        let mode = req.mode.unwrap_or(EvalMode::CallByValue);
        let prog = fj_vm::compile(&c.term, mode).map_err(|e| format!("vm compile: {e:?}"))?;
        let (_, profile) =
            fj_vm::run_program_profiled(&prog, RUN_FUEL).map_err(|e| format!("vm run: {e}"))?;
        total += profile.dispatches;
    }
    Ok(total)
}

/// Self time per span name over the replayed requests, in nanoseconds.
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent > 0 {
            child[s.parent as usize - 1] += s.dur();
        }
    }
    let mut by_name = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *by_name.entry(s.name).or_insert(0) += s.dur().saturating_sub(child[i]);
    }
    by_name
}

/// Span count and summed duration per span name.
fn durations(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += s.dur();
    }
    by_name
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. Times are mean
/// microseconds of self time per replayed request (0 where the workload
/// never reaches the layer), except `cache.hit_us` and `persist.load_us`,
/// which are per term-cache or disk hit; counts come from `stats` over
/// the served windows or from the counts pass.
pub fn per_layer(
    window: &Window,
    traced: &Window,
    replay: &Replay,
    window_stats: &Stats,
    counts: &Counts,
) -> Vec<crate::Metric> {
    let n = replay.requests.len().max(1) as f64;
    let selft = self_times(&replay.spans);
    let dur = durations(&replay.spans);
    let self_us = |name: &str| selft.get(name).copied().unwrap_or(0) as f64 / 1e3 / n;
    let per_event_us = |name: &str| {
        dur.get(name)
            .map_or(0.0, |&(c, d)| ratio(d as f64 / 1e3, c as f64))
    };
    let mut overhead_us: Vec<f64> = replay
        .requests
        .iter()
        .map(|r| (window.served[r.served].latency_ns as f64 - r.handle_ns as f64) / 1e3)
        .collect();
    let p50_us = |w: &Window| crate::percentile_us(&w.sorted_latencies(), 50.0);
    let total_ns = |name: &str| dur.get(name).map_or(0, |&(_, d)| d) as f64;
    let optimize_ns = total_ns("core.optimize_with_report") + total_ns("core.optimize_cached.miss");
    let passes_ns: u64 = replay.requests.iter().map(|r| r.passes_ns).sum();
    let (run, noop) = replay
        .requests
        .iter()
        .fold((0, 0), |(r, z), q| (r + q.passes_run, z + q.passes_noop));
    let exec_ns = total_ns("vm.run_program") + total_ns("vm.run_program.need");
    let steps: u64 = replay.requests.iter().map(|r| r.steps).sum();
    let (handle, layers) = replay
        .requests
        .iter()
        .fold((0u64, 0u64), |(h, l), r| (h + r.handle_ns, l + r.layers_ns));
    let s = window_stats;
    // The `stats` request that closes the window is itself counted.
    let handled = s.requests.saturating_sub(1) as f64;
    let term_lookups = (s.hits + s.misses + s.disk_hits) as f64;
    let sum =
        |f: &dyn Fn(&crate::ProgCounts) -> u64| counts.progs.iter().map(f).sum::<u64>() as f64;
    vec![
        ("service.overhead_us", crate::median(&mut overhead_us), "us"),
        ("service.shed", s.shed as f64, "count"),
        ("json.decode_us", self_us("json.parse"), "us"),
        ("json.encode_us", self_us("json.encode"), "us"),
        ("server.handle_us", self_us("server.handle_line"), "us"),
        (
            "server.front_hit_ratio",
            ratio(s.source_hits as f64, handled),
            "ratio",
        ),
        ("surface.lex_us", self_us("surface.lex"), "us"),
        ("surface.parse_us", self_us("surface.parse_program"), "us"),
        ("surface.lower_us", self_us("surface.lower_program"), "us"),
        (
            "check.lint_us",
            self_us("check.lint") + self_us("check.lint.load"),
            "us",
        ),
        (
            "alpha.fingerprint_us",
            self_us("alpha.fingerprint") + self_us("alpha.fingerprint.key"),
            "us",
        ),
        ("alpha.verify_us", self_us("alpha.verify"), "us"),
        (
            "cache.hit_us",
            per_event_us("core.optimize_cached.hit"),
            "us",
        ),
        (
            "cache.term_hit_ratio",
            ratio(s.hits as f64, term_lookups),
            "ratio",
        ),
        ("cache.evictions", s.evictions as f64, "count"),
        ("cache.coalesced", s.coalesced as f64, "count"),
        (
            "persist.load_us",
            per_event_us("core.optimize_cached.disk"),
            "us",
        ),
        ("persist.disk_hits", s.disk_hits as f64, "count"),
        (
            "persist.verify_failures",
            s.disk_verify_failures as f64,
            "count",
        ),
        ("core.optimize_us", optimize_ns / 1e3 / n, "us"),
        (
            "core.float_in_us",
            self_us("core.apply_pass.float-in"),
            "us",
        ),
        ("core.contify_us", self_us("core.apply_pass.contify"), "us"),
        (
            "core.simplify_us",
            self_us("core.apply_pass.simplify"),
            "us",
        ),
        (
            "core.float_out_us",
            self_us("core.apply_pass.float-out"),
            "us",
        ),
        (
            "core.contify_share",
            ratio(
                total_ns("core.apply_pass.contify"),
                total_ns("core.optimize_with_report"),
            ),
            "ratio",
        ),
        (
            "core.noop_pass_share",
            ratio(noop as f64, run as f64),
            "ratio",
        ),
        ("core.rewrites", sum(&|p| p.rewrites), "count"),
        ("core.size_after", sum(&|p| p.size_after), "count"),
        ("vm.compile_us", self_us("vm.compile"), "us"),
        ("vm.exec_us", self_us("vm.run_program"), "us"),
        ("vm.exec_need_us", self_us("vm.run_program.need"), "us"),
        ("vm.ns_per_step", ratio(exec_ns, steps as f64), "ns"),
        ("vm.steps", sum(&|p| p.steps.iter().sum()), "count"),
        ("vm.dispatches", replay.dispatches as f64, "count"),
        ("vm.allocs", sum(&|p| p.allocs.iter().sum()), "count"),
        ("trace.overhead_us", p50_us(traced) - p50_us(window), "us"),
        (
            "trace.handle_coverage",
            ratio(layers as f64, handle as f64),
            "ratio",
        ),
        (
            "trace.unreconciled_share",
            replay.unreconciled_share,
            "ratio",
        ),
        (
            "trace.pass_coverage",
            ratio(passes_ns as f64, total_ns("core.optimize_with_report")),
            "ratio",
        ),
        ("trace.requests", replay.requests.len() as f64, "count"),
    ]
}

/// Write every span as one JSON line: the client spans of the traced
/// window, then the replay's.
///
/// # Errors
///
/// File-system failures.
pub fn write_spans(path: &Path, client: &[Span], replay: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (source, spans) in [("client", client), ("replay", replay)] {
        for (id, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"source\": \"{source}\", \"id\": {}, \"parent\": {}, \"req\": {}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                id + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}
