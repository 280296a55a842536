//! Seeded inputs: each workload's program pool, its request lines, and
//! the independent references every response is checked against.
//!
//! References never come from the optimizer under test, with one
//! deliberate exception that the workload itself is about: the
//! `cache-churn` fingerprints are those of a `"cache": "bypass"` compile,
//! so a cache tier that returns anything but what a cold compile would
//! have produced shows up as a wrong answer.

use fj_ast::{alpha_fingerprint, Expr};
use fj_eval::EvalMode;
use fj_server::json::Value;
use fj_server::{CompileOpts, ServerState};
use fj_testkit::{gen, gen::build_closed, SplitMix64, G};
use std::sync::Arc;

/// Step budget for the Fig. 3 reference runs of generated programs; a
/// draw that needs more is rejected while the pool is built.
const REFERENCE_FUEL: u64 = 2_000_000;

/// The term cache's charge per node and per entry (its own constants
/// are private); used only to size the `cache-churn` budget.
const NODE_BYTES: usize = 96;
const ENTRY_OVERHEAD: usize = 256;

/// Spines of at most this many pieces are drawn afresh from the workload
/// seed; longer ones come from a fixed corpus. The long spines set the
/// latency tail, and a tail that moved with the seed would swamp the
/// figures a change is judged by; the short fresh ones, all below the
/// median, still make every seed send programs no other seed sends.
const FRESH_PIECES: usize = 2;

/// Seed of the fixed corpus of longer spines.
const CORPUS_SEED: u64 = 0x00c0_ffee_5a9e_5eed;

/// Generated programs per spine length, for `cold-compile`: the spine
/// length sets term size and `let`-nesting depth. Many programs per
/// band keep each seed's size mix (and so the latency tail) alike.
const COLD_BANDS: &[(usize, usize)] = &[(2, 24), (4, 24), (8, 24), (16, 24), (24, 24)];

/// Size strata the `cache-churn` popularity ranking deals from.
const STRATA: usize = 12;

/// Generated programs per spine length, for `cache-churn`.
const CHURN_BANDS: &[(usize, usize)] = &[(2, 16), (4, 16), (8, 16)];

// `cache-churn`'s traffic mix. These are stress parameters, not a model
// of recorded traffic (there is no request log of `fj serve` to model):
// they are set so that every run drives each cache tier through its
// lookups, inserts, evictions and disk loads. README.md gives the reason
// for each value and the path mix they produce.

/// Zipf exponent of `cache-churn`'s popularity over its ranking.
const CHURN_ZIPF: f64 = 1.0;

/// One `cache-churn` request in this many is byte-identical; the others
/// carry a fresh comment and whitespace.
const CHURN_IDENTICAL_ONE_IN: u64 = 4;

/// `cache-churn`'s in-memory budget is the working set over this.
pub const CHURN_BUDGET_DIVISOR: usize = 3;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Bypass-cache VM runs over nofib plus generated programs.
    ColdCompile,
    /// Front-cache-hit VM runs of nofib, call-by-value and call-by-need.
    HotRun,
    /// Cached compiles against a memory budget below the working set.
    CacheChurn,
    /// One connection per front-cache-hit compile.
    OneShot,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdCompile,
        Workload::HotRun,
        Workload::CacheChurn,
        Workload::OneShot,
    ];

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name as it appears in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCompile => "cold-compile",
            Workload::HotRun => "hot-run",
            Workload::CacheChurn => "cache-churn",
            Workload::OneShot => "one-shot",
        }
    }

    /// Closed-loop clients (connections, or threads for `one-shot`).
    pub fn clients(self) -> usize {
        match self {
            Workload::ColdCompile => 1,
            _ => 2,
        }
    }

    /// Whether every request opens its own connection.
    pub fn one_shot(self) -> bool {
        self == Workload::OneShot
    }

    /// Evaluation modes of the workload's `run` requests.
    pub fn modes(self) -> &'static [EvalMode] {
        match self {
            Workload::HotRun => &[EvalMode::CallByValue, EvalMode::CallByNeed],
            _ => &[EvalMode::CallByValue],
        }
    }

    /// The `cache` request field every request of this workload carries.
    pub fn cache_field(self) -> &'static str {
        match self {
            Workload::ColdCompile => "bypass",
            _ => "use",
        }
    }
}

/// The wire name of an evaluation mode.
pub fn mode_name(mode: EvalMode) -> &'static str {
    match mode {
        EvalMode::CallByValue => "value",
        EvalMode::CallByName => "name",
        EvalMode::CallByNeed => "need",
    }
}

/// One program of a workload's pool, with its references.
pub struct Prog {
    /// nofib row name, or `gen-<band>-<i>`.
    pub name: String,
    /// Surface source, exactly as the server receives it unperturbed.
    pub source: Arc<str>,
    /// From the nofib suite (else generated).
    pub nofib: bool,
    /// Expected `main` value: the native candle for nofib, the Fig. 3
    /// machine on the unoptimized lowered term for generated programs.
    pub value: String,
    /// Output fingerprint of a cache-bypass compile (compile workloads).
    pub fingerprint: Option<String>,
    /// Estimated term-cache charge of the program's entry (compile
    /// workloads): input plus output nodes at the cache's per-node rate.
    pub entry_bytes: usize,
    /// Lowered (-O0) input term: the replay's α-verify probe compares a
    /// re-lowered request against it, as a term-cache hit does.
    pub lowered: Arc<Expr>,
}

/// What a request asks for: which program, how, and whether its text is
/// perturbed (comment plus whitespace) so it misses the front cache.
#[derive(Clone, Debug)]
pub struct Req {
    /// Index into the pool.
    pub prog: usize,
    /// `Some(mode)` for a `run`, `None` for a `compile`.
    pub mode: Option<EvalMode>,
    /// Perturbation nonce; `None` sends the byte-identical source.
    pub nonce: Option<u64>,
}

/// A workload's pool and request mix for one seed.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The seed everything below was drawn from.
    pub seed: u64,
    /// Distinct programs.
    pub progs: Vec<Prog>,
    /// Cumulative popularity weights over `progs` for `cache-churn`'s
    /// draws, Zipf-skewed over a seeded ranking; empty for the other
    /// workloads, which deal rounds (see [`Traffic`]).
    cumulative: Vec<f64>,
}

/// One client's source of requests, seeded.
pub struct Traffic<'a> {
    inputs: &'a Inputs,
    rng: SplitMix64,
    /// What is left of the current round, for the uniform workloads.
    deck: Vec<Req>,
}

impl Traffic<'_> {
    /// The client's next request. `cache-churn` draws each request from
    /// its skewed mix. The uniform workloads deal every distinct request
    /// once per round, in a freshly shuffled order: each stretch of the
    /// window then sends the same mix, so a latency percentile does not
    /// move with which programs a stretch happened to draw more often.
    /// (Drawn independently, the `cold-compile` median shifted by about
    /// three programs' worth of latency, 10-15 %, from stretch to stretch.)
    pub fn next_req(&mut self) -> Req {
        if self.inputs.workload == Workload::CacheChurn {
            return self.inputs.draw(&mut self.rng);
        }
        if self.deck.is_empty() {
            self.deck = self.inputs.distinct_requests();
            shuffle(&mut self.deck, &mut self.rng);
        }
        self.deck
            .pop()
            .expect("a workload has at least one request")
    }
}

impl Inputs {
    /// Build the pool and every reference for `workload` under `seed`.
    ///
    /// # Errors
    ///
    /// A nofib program without a candle, or a reference that fails.
    pub fn build(workload: Workload, seed: u64) -> Result<Inputs, String> {
        let mut progs = Vec::new();
        let nofib = fj_nofib::programs();
        let min_size = nofib
            .iter()
            .map(|p| fj_surface::compile(p.source).map(|l| l.expr.size()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("nofib program does not lower: {e}"))?
            .into_iter()
            .min()
            .unwrap_or(1);
        for p in &nofib {
            let candle = fj_nofib::candles::candle(p.name)
                .ok_or_else(|| format!("no candle for nofib program {}", p.name))?;
            let lowered = fj_surface::compile(p.source).map_err(|e| format!("{}: {e}", p.name))?;
            progs.push(Prog {
                name: p.name.to_string(),
                source: Arc::from(p.source),
                nofib: true,
                value: std::hint::black_box(candle)().to_string(),
                fingerprint: None,
                entry_bytes: 0,
                lowered: Arc::new(lowered.expr),
            });
        }
        let bands = match workload {
            Workload::ColdCompile => COLD_BANDS,
            Workload::CacheChurn => CHURN_BANDS,
            Workload::HotRun | Workload::OneShot => &[],
        };
        let mut rng = SplitMix64::new(seed ^ 0x005e_ed0f_9e4e_a7ed);
        for &(pieces, count) in bands {
            for i in 0..count {
                let name = format!("gen-{pieces}-{i}");
                let prog = if pieces <= FRESH_PIECES {
                    generated(&mut rng, pieces, min_size, name)?
                } else {
                    let slot = ((pieces as u64) << 32) ^ i as u64;
                    generated(
                        &mut SplitMix64::new(CORPUS_SEED ^ slot),
                        pieces,
                        min_size,
                        name,
                    )?
                };
                progs.push(prog);
            }
        }
        if matches!(workload, Workload::CacheChurn | Workload::OneShot) {
            let reference = ServerState::with_defaults();
            let bypass = CompileOpts {
                use_cache: false,
                ..CompileOpts::default()
            };
            for p in &mut progs {
                let c = reference
                    .compile_source(&p.source, &bypass)
                    .map_err(|e| format!("{}: reference compile: {}", p.name, e.message()))?;
                p.fingerprint = Some(format!("{:016x}", alpha_fingerprint(&c.term)));
                p.entry_bytes = (c.report.census_before.size + c.report.census_after.size)
                    * NODE_BYTES
                    + ENTRY_OVERHEAD;
            }
        }
        let weights: Vec<f64> = match workload {
            Workload::CacheChurn => {
                // Zipf over a seeded ranking of the pool. The ranking
                // deals programs round-robin from narrow size strata, each
                // shuffled by the seed: the seed decides which programs
                // are popular, but every seed's popular set has the same
                // mix of sizes, so the latency median stays put.
                let mut by_size: Vec<usize> = (0..progs.len()).collect();
                by_size.sort_by_key(|&i| (progs[i].source.len(), i));
                let mut strata: Vec<Vec<usize>> = by_size
                    .chunks(progs.len().div_ceil(STRATA))
                    .map(<[usize]>::to_vec)
                    .collect();
                for stratum in &mut strata {
                    shuffle(stratum, &mut rng);
                }
                let rank = (0..by_size.len().div_ceil(STRATA))
                    .flat_map(|k| strata.iter().filter_map(move |s| s.get(k).copied()));
                let mut w = vec![0.0; progs.len()];
                for (r, i) in rank.enumerate() {
                    w[i] = 1.0 / (r as f64 + 1.0).powf(CHURN_ZIPF);
                }
                w
            }
            _ => Vec::new(),
        };
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Ok(Inputs {
            workload,
            seed,
            progs,
            cumulative,
        })
    }

    /// A request source for one client, seeded with `seed`.
    pub fn traffic(&self, seed: u64) -> Traffic<'_> {
        Traffic {
            inputs: self,
            rng: SplitMix64::new(seed),
            deck: Vec::new(),
        }
    }

    /// Draw the next `cache-churn` request from its skewed mix.
    fn draw(&self, rng: &mut SplitMix64) -> Req {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let prog = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.progs.len() - 1);
        // Byte-identical: a front-cache hit while resident. Perturbed: a
        // front miss that the term cache or the disk tier serves.
        let nonce = (rng.below(CHURN_IDENTICAL_ONE_IN) != 0).then(|| rng.next_u64());
        Req {
            prog,
            mode: None,
            nonce,
        }
    }

    /// Every distinct unperturbed request of the workload: each program
    /// in each of the workload's modes, or once as a `compile`.
    pub fn distinct_requests(&self) -> Vec<Req> {
        match self.workload {
            Workload::ColdCompile | Workload::HotRun => self.distinct_runs(),
            Workload::CacheChurn | Workload::OneShot => (0..self.progs.len())
                .map(|prog| Req {
                    prog,
                    mode: None,
                    nonce: None,
                })
                .collect(),
        }
    }

    /// Every distinct unperturbed `run` request of the workload: each
    /// program in each of the workload's modes.
    pub fn distinct_runs(&self) -> Vec<Req> {
        let mut v = Vec::new();
        for prog in 0..self.progs.len() {
            for &mode in self.workload.modes() {
                v.push(Req {
                    prog,
                    mode: Some(mode),
                    nonce: None,
                });
            }
        }
        v
    }

    /// The request text the server receives for `req`.
    pub fn source_of(&self, req: &Req) -> String {
        let src = &self.progs[req.prog].source;
        match req.nonce {
            None => src.to_string(),
            Some(n) => {
                // A comment line and a nonce-dependent amount of trailing
                // whitespace: the lowered term is unchanged.
                let pad = " ".repeat((n % 7) as usize);
                format!("-- churn {n:016x}\n{src}{pad}\n")
            }
        }
    }

    /// The request line for `req`.
    pub fn line(&self, req: &Req) -> String {
        self.line_with_cache(req, self.workload.cache_field())
    }

    /// A cache-bypass `compile` of program `prog`.
    pub fn bypass_compile_line(&self, prog: usize) -> String {
        let req = Req {
            prog,
            mode: None,
            nonce: None,
        };
        self.line_with_cache(&req, "bypass")
    }

    fn line_with_cache(&self, req: &Req, cache: &str) -> String {
        let source = self.source_of(req);
        match req.mode {
            Some(mode) => Value::obj([
                ("op", Value::str("run")),
                ("program", Value::str(source)),
                ("backend", Value::str("vm")),
                ("mode", Value::str(mode_name(mode))),
                ("cache", Value::str(cache)),
            ])
            .to_string(),
            None => Value::obj([
                ("op", Value::str("compile")),
                ("program", Value::str(source)),
                ("cache", Value::str(cache)),
            ])
            .to_string(),
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// One piece of a generated spine: a closed, total `Int` program of
/// moderate size, so that spine length rather than luck sets the size.
fn piece(rng: &mut SplitMix64) -> G {
    loop {
        let g = gen(rng, 5);
        if (6..=40).contains(&g.size()) {
            return g;
        }
    }
}

/// A generated program: a `let` spine binding `pieces` independently
/// generated pieces, each able to refer to the binders before it. The
/// spine length sets both term size and nesting depth, the traffic
/// dimension that a ~100-node nofib term cannot show; summing many
/// pieces keeps programs of one band alike in optimization cost.
fn generated(
    rng: &mut SplitMix64,
    pieces: usize,
    min_size: usize,
    name: String,
) -> Result<Prog, String> {
    for _ in 0..1000 {
        let mut g = G::Add(Box::new(G::Var(0)), Box::new(G::Var(1)));
        for _ in 0..pieces {
            g = G::Let(Box::new(piece(rng)), Box::new(g));
        }
        let (_, e) = build_closed(&g);
        let source = fj_surface::unparse_main(&e);
        let lowered = fj_surface::compile(&source)
            .map_err(|err| format!("{name}: generated program does not lower: {err}"))?;
        if lowered.expr.size() < min_size {
            continue;
        }
        let Ok(out) = fj_eval::run(&lowered.expr, EvalMode::CallByValue, REFERENCE_FUEL) else {
            continue;
        };
        return Ok(Prog {
            name,
            source: Arc::from(source),
            nofib: false,
            value: out.value.to_string(),
            fingerprint: None,
            entry_bytes: 0,
            lowered: Arc::new(lowered.expr),
        });
    }
    Err(format!(
        "{name}: no draw met the size floor of {min_size} nodes"
    ))
}
