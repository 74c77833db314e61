//! The solver workloads: one k-selection through `SolveSession::run`,
//! and — in the traced run — a replay of the same selection through the
//! solvers' public round functions with a span around each call.

use crate::stats::{median, metric, peak_rss_mb, Latency, Metric};
use crate::trace::Recorder;
use crate::workload::{proxy, SolverWorkload, SETUP_REPS};
use crate::Outcome;
use cfcc_core::adaptive::batch_schedule;
use cfcc_core::cfcc::{cfcc_group_exact, cfcc_group_hutchinson};
use cfcc_core::engine::GreedyWorkspace;
use cfcc_core::first_phase::first_phase;
use cfcc_core::forest_delta::forest_delta;
use cfcc_core::params::{t_star, top_degree_nodes};
use cfcc_core::schur::{estimated_schur, invert_estimated_schur};
use cfcc_core::schur_delta::schur_delta_ws;
use cfcc_core::{CfcmError, CfcmParams, Selection, SolveContext, SolveSession};
use cfcc_forest::estimators::{DiagMode, ElectricalAccumulator};
use cfcc_forest::forest::Forest;
use cfcc_forest::rooted::RootIndex;
use cfcc_forest::sampler::{absorb_batch, ForestAccumulator, SamplerConfig};
use cfcc_graph::{Graph, Node};
use cfcc_linalg::cg::{solve_pseudoinverse, CgConfig};
use cfcc_linalg::jl::JlSketch;
use cfcc_linalg::{SddBackend, SolveStats};
use cfcc_util::json::JsonObject;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the set-up's first pick, the same for every workload seed.
const SETUP_SEED: u64 = 0;
/// Graphs up to this size are scored with the exact dense evaluator.
const EXACT_EVAL_MAX_N: usize = 2_500;
/// Probes and seed of the Hutchinson evaluator used above that size.
const EVAL_PROBES: usize = 64;
const EVAL_SEED: u64 = 0xC0DE_CFCC;

/// Run a solver workload. Untraced, it makes selections with sub-seeds
/// 0, 1, … of the workload seed until `seconds` have passed. Traced, it
/// makes one untraced selection and one traced replay with sub-seed 0,
/// and reports per-layer metrics.
pub fn run(w: &SolverWorkload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let params = w.params(seed, 0);
    let (g, first_setup) = match set_up(w) {
        Ok(done) => done,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    let mut setup = vec![first_setup];
    out.info = routing(w, &g, &params);

    let mut times = Vec::new();
    let mut scores = Vec::new();
    let mut first: Option<Selection> = None;
    let started = Instant::now();
    for sub in 0u64.. {
        if sub > 0 && (traced || started.elapsed().as_secs_f64() >= seconds) {
            break;
        }
        out.attempted += 1;
        let t = Instant::now();
        let sel = SolveSession::new(&g)
            .k(w.k)
            .solver(w.solver)
            .params(w.params(seed, sub))
            .run();
        let dt = t.elapsed().as_secs_f64();
        let sel = match sel {
            Ok(sel) => sel,
            Err(e) => {
                out.fail(format!("selection failed: {e}"));
                continue;
            }
        };
        times.push(dt);
        out.check(valid_selection(&g, w.k, &sel.nodes));
        // Quality, outside the timed region, with one fixed evaluator.
        match score(&g, &sel.nodes, w.threads) {
            Ok(c) if c.is_finite() && c > 0.0 => scores.push(c),
            Ok(c) => out.fail(format!("C(S) = {c} is not finite and positive")),
            Err(e) => out.fail(format!("C(S) evaluation failed: {e}")),
        }
        first.get_or_insert(sel);
    }
    let Some(first) = first else {
        return out;
    };
    let stats = &first.stats;
    out.info = out
        .info
        .int("forests", stats.total_forests())
        .int("walk_steps", stats.total_walk_steps())
        .int("pcg_iters", stats.solve.iterations)
        .raw(
            "round_s",
            cfcc_util::json::array(stats.iterations.iter().map(|it| it.seconds.to_string())),
        )
        .raw(
            "selection",
            cfcc_util::json::array(first.nodes.iter().map(u32::to_string)),
        );

    if traced {
        let mut rec = Recorder::new(Instant::now());
        rec.span("datasets.generate", 0, |_| proxy(w.dataset, w.scale));
        let replayed = match w.solver {
            "schur" => replay_schur(&g, w.k, &params, &mut rec).map(|(nodes, rounds)| {
                let split = forest_split(&g, &params, &rounds, &mut rec);
                (nodes, Some(split), SolveStats::default())
            }),
            _ => replay_approx(&g, w.k, &params, &mut rec).map(|(nodes, st)| (nodes, None, st)),
        };
        out.attempted += 1;
        match replayed {
            Err(e) => out.fail(format!("traced replay failed: {e}")),
            Ok((replay_nodes, split, solve)) => {
                out.check(if replay_nodes == first.nodes {
                    Ok(())
                } else {
                    Err(format!(
                        "traced replay picked {replay_nodes:?}, untraced run picked {:?}",
                        first.nodes
                    ))
                });
                if let Some(split) = &split {
                    out.check(split.check.clone());
                }
                out.metrics = layer_metrics(&rec, split.as_ref(), &solve, times[0]);
            }
        }
        out.recorder = Some(rec);
    } else if !scores.is_empty() {
        // The further set-ups behind the `setup_s` median run after the
        // selections, so the median spans the run.
        while setup.len() < SETUP_REPS {
            match set_up(w) {
                Ok((_, t)) => setup.push(t),
                Err(e) => {
                    out.fail(e);
                    return out;
                }
            }
        }
        let lat_ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
        let lat = Latency::of(&lat_ms);
        out.info = out
            .info
            .int("selections", times.len() as u64)
            .raw(
                "selection_s",
                cfcc_util::json::array(times.iter().map(|t| t.to_string())),
            )
            .raw("tail_percentile", lat.label());
        out.metrics = vec![
            metric("latency_ms_p50", "ms", lat.p50),
            metric("latency_ms_tail", "ms", lat.tail),
            metric(
                "throughput_per_s",
                "1/s",
                times.len() as f64 / times.iter().sum::<f64>(),
            ),
            metric("cfcc", "score", median(&scores)),
            metric("setup_s", "s", median(&setup)),
            metric("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(f64::NAN)),
        ];
    }
    out
}

/// One set-up: generate the proxy and make a first pick (a k = 1
/// selection). Generating a proxy alone takes 0.2–3 ms, too short to
/// time steadily: its cost switches between levels 1.5× apart in episodes
/// lasting seconds. The pick uses a fixed seed, because the adaptive stop
/// makes its work depend on the seed in steps of 2×.
fn set_up(w: &SolverWorkload) -> Result<(Graph, f64), String> {
    let t = Instant::now();
    let g = proxy(w.dataset, w.scale);
    SolveSession::new(&g)
        .k(1)
        .solver(w.solver)
        .params(w.params(SETUP_SEED, 0))
        .run()
        .map_err(|e| format!("set-up first pick failed: {e}"))?;
    Ok((g, t.elapsed().as_secs_f64()))
}

/// C(S) by the benchmark's fixed evaluator: exact on small graphs, a
/// seeded Hutchinson estimate through `sparse-cg` above that.
fn score(g: &Graph, nodes: &[Node], threads: usize) -> Result<f64, CfcmError> {
    if g.num_nodes() <= EXACT_EVAL_MAX_N {
        return Ok(cfcc_group_exact(g, nodes));
    }
    let eval = CfcmParams::default()
        .seed(EVAL_SEED)
        .threads(threads)
        .backend(SddBackend::SparseCg);
    cfcc_group_hutchinson(g, nodes, EVAL_PROBES, &eval)
}

/// `k` distinct in-range nodes.
fn valid_selection(g: &Graph, k: usize, nodes: &[Node]) -> Result<(), String> {
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    for &u in nodes {
        if u as usize >= n || std::mem::replace(&mut seen[u as usize], true) {
            return Err(format!(
                "selection {nodes:?} repeats a node or leaves 0..{n}"
            ));
        }
    }
    if nodes.len() != k {
        return Err(format!("selection has {} nodes, expected {k}", nodes.len()));
    }
    Ok(())
}

/// The resolved routing of a solver run.
fn routing(w: &SolverWorkload, g: &Graph, params: &CfcmParams) -> JsonObject {
    let n = g.num_nodes();
    let schur = w.solver == "schur";
    // ApproxGreedy factors L_{-S} for |S| = 1..k-1; report every backend
    // `auto` resolves to over that range.
    let backend = if schur {
        "none (SchurCFCM factors no grounded Laplacian)".to_string()
    } else {
        let first = params.backend.resolve(n - 1).name();
        let last = params.backend.resolve(n - (w.k - 1).max(1)).name();
        if first == last {
            format!("{} ({first})", params.backend.name())
        } else {
            format!("{} ({first} then {last})", params.backend.name())
        }
    };
    let obj = JsonObject::new()
        .str("solver", w.solver)
        .str("dataset", w.dataset)
        .str("backend", &backend)
        .int("jl_width", params.width(n) as u64)
        .int("threads", params.threads as u64)
        .int("k", w.k as u64)
        .num("epsilon", params.epsilon)
        .int("n", n as u64)
        .int("m", g.num_edges() as u64);
    if schur {
        obj.int("forest_cap", params.forest_cap(n, 0, g.max_degree()))
            .int("t_size", params.schur_c.unwrap_or_else(|| t_star(g)) as u64)
    } else {
        obj.raw("forest_cap", "null").raw("t_size", "null")
    }
}

/// What one SchurDelta round sampled, for the forest split.
struct Round {
    iteration: u64,
    in_root: Vec<bool>,
    t_nodes: Vec<Node>,
    forests: u64,
    walk_steps: u64,
}

/// SchurCFCM's round loop (`schur_cfcm_ctx`) replayed through its public
/// calls, one span per call.
fn replay_schur(
    g: &Graph,
    k: usize,
    params: &CfcmParams,
    rec: &mut Recorder,
) -> Result<(Vec<Node>, Vec<Round>), CfcmError> {
    rec.span("select", 1, |rec| {
        let n = g.num_nodes();
        let c = params.schur_c.unwrap_or_else(|| t_star(g)).max(1);
        let t_pool = top_degree_nodes(g, c.min(n - 1));
        let mut ws = GreedyWorkspace::new();
        ws.begin_run();
        let fp = rec.span("core.first_phase", 1, |_| first_phase(g, params));
        let mut in_s = vec![false; n];
        in_s[fp.chosen as usize] = true;
        let mut nodes = vec![fp.chosen];
        let mut rounds = Vec::new();
        for i in 1..k {
            let t_nodes: Vec<Node> = t_pool
                .iter()
                .copied()
                .filter(|&t| !in_s[t as usize])
                .collect();
            let best = if t_nodes.is_empty() {
                rec.span("core.delta", 1, |_| {
                    forest_delta(g, &in_s, params, i as u64).best
                })
            } else {
                let est = rec.span("core.delta", 1, |_| {
                    schur_delta_ws(g, &in_s, &t_nodes, params, i as u64, &mut ws)
                })?;
                let mut in_root = in_s.clone();
                for &t in &t_nodes {
                    in_root[t as usize] = true;
                }
                rounds.push(Round {
                    iteration: i as u64,
                    in_root,
                    t_nodes,
                    forests: est.forests,
                    walk_steps: est.walk_steps,
                });
                est.best
            };
            in_s[best as usize] = true;
            nodes.push(best);
        }
        Ok((nodes, rounds))
    })
}

/// Forest accumulator that only counts forests and walk steps: its
/// absorb cost is the Wilson walks alone.
#[derive(Default)]
struct CountOnly {
    forests: u64,
    walk_steps: u64,
}

impl ForestAccumulator for CountOnly {
    fn absorb(&mut self, forest: &Forest) {
        self.forests += 1;
        self.walk_steps += forest.walk_steps;
    }
    fn merge(&mut self, other: Self) {
        self.forests += other.forests;
        self.walk_steps += other.walk_steps;
    }
    fn fresh(&self) -> Self {
        Self::default()
    }
    fn count(&self) -> u64 {
        self.forests
    }
}

/// Totals of the forest split over every SchurDelta round.
struct Split {
    forests: u64,
    walk_steps: u64,
    check: Result<(), String>,
}

/// Re-sample each round's forests (same root set, seeds and count as
/// `schur_delta_ws`) three times — counting only, with the estimator
/// accumulator, and with rooted counts too — so the differences split
/// the round's forest time into walks, estimators and rooted counts.
/// The last accumulator then feeds the round's Schur estimate and
/// inversion.
fn forest_split(g: &Graph, params: &CfcmParams, rounds: &[Round], rec: &mut Recorder) -> Split {
    let n = g.num_nodes();
    let mut split = Split {
        forests: 0,
        walk_steps: 0,
        check: Ok(()),
    };
    rec.span("forest.split", 2, |rec| {
        for r in rounds {
            // The seeds `schur_delta_ws` derives for this round.
            let cfg = SamplerConfig {
                seed: params.seed ^ 0x5DE17 ^ r.iteration.wrapping_mul(0x85EB),
                threads: params.threads,
            };
            let mut sketch_rng =
                StdRng::seed_from_u64(params.seed ^ 0x5C47A ^ r.iteration.wrapping_mul(0x9E37));
            let sketch = JlSketch::sample(params.width(n), n, &mut sketch_rng);
            let counts = rec.span("forest.count_pass", 2, |_| {
                let mut acc = CountOnly::default();
                absorb_round(g, r, &cfg, params.min_batch, &mut acc);
                acc
            });
            rec.span("forest.electrical_pass", 2, |_| {
                let mut acc = ElectricalAccumulator::new(
                    g,
                    &r.in_root,
                    Some(sketch.clone()),
                    DiagMode::Diagonal,
                    None,
                );
                absorb_round(g, r, &cfg, params.min_batch, &mut acc);
            });
            let acc = rec.span("forest.rooted_pass", 2, |_| {
                let index = Arc::new(RootIndex::new(n, &r.t_nodes));
                let mut acc = ElectricalAccumulator::new(
                    g,
                    &r.in_root,
                    Some(sketch.clone()),
                    DiagMode::Diagonal,
                    Some(index),
                );
                absorb_round(g, r, &cfg, params.min_batch, &mut acc);
                acc
            });
            let inverted = rec.span("core.schur_inverse", 2, |_| {
                let rooted = acc.rooted().expect("rooted tracking enabled");
                let sigma = estimated_schur(g, &r.in_root, &r.t_nodes, rooted, acc.num_forests());
                invert_estimated_schur(sigma).map(|(inv, _)| inv.rows())
            });
            if counts.forests != r.forests || counts.walk_steps != r.walk_steps {
                split.check = Err(format!(
                    "round {}: re-sampled {} forests / {} steps, the run sampled {} / {}",
                    r.iteration, counts.forests, counts.walk_steps, r.forests, r.walk_steps
                ));
            }
            if let Err(e) = inverted {
                split.check = Err(format!(
                    "round {}: Schur inversion failed: {e}",
                    r.iteration
                ));
            }
            split.forests += counts.forests;
            split.walk_steps += counts.walk_steps;
        }
    });
    split
}

/// Absorb a round's forests in the doubling batches `schur_delta_ws`
/// sampled them in.
fn absorb_round<A: ForestAccumulator>(
    g: &Graph,
    r: &Round,
    cfg: &SamplerConfig,
    min_batch: u64,
    acc: &mut A,
) {
    let mut sampled = 0;
    for total in batch_schedule(min_batch, r.forests) {
        absorb_batch(g, &r.in_root, sampled, total - sampled, cfg, acc);
        sampled = total;
    }
}

/// ApproxGreedy (`approx_greedy_ctx`) replayed through its public calls:
/// the first pick's pseudoinverse solves, then one factorization and one
/// round of sketched solves per greedy iteration.
fn replay_approx(
    g: &Graph,
    k: usize,
    params: &CfcmParams,
    rec: &mut Recorder,
) -> Result<(Vec<Node>, SolveStats), CfcmError> {
    rec.span("select", 1, |rec| {
        let n = g.num_nodes();
        let w = params.width(n);
        let cg = CgConfig {
            rel_tol: params.cg_tol,
            max_iter: 50_000,
            threads: params.threads,
            ..CgConfig::default()
        };
        let ctx = SolveContext::new(params.clone());
        let mut ws = GreedyWorkspace::new();
        ws.begin_run();
        let diag = rec.span("linalg.pinv", 1, |_| {
            let mut rng = StdRng::seed_from_u64(params.seed ^ 0xA99);
            let mut diag = vec![0.0f64; n];
            let mut rhs = vec![0.0f64; n];
            let mut x = vec![0.0f64; n];
            let scale = 1.0 / (w as f64).sqrt();
            for _ in 0..w {
                rhs.fill(0.0);
                for (a, b) in g.edges() {
                    let s = if rng.gen::<bool>() { scale } else { -scale };
                    rhs[a as usize] += s;
                    rhs[b as usize] -= s;
                }
                x.fill(0.0);
                let st = solve_pseudoinverse(g, &rhs, &mut x, &cg);
                if !st.converged {
                    return Err(CfcmError::Numerical(
                        "pseudoinverse CG did not converge".into(),
                    ));
                }
                for u in 0..n {
                    diag[u] += x[u] * x[u];
                }
            }
            Ok(diag)
        })?;
        let first = (0..n)
            .min_by(|&a, &b| diag[a].total_cmp(&diag[b]))
            .expect("non-empty graph") as Node;
        let mut in_s = vec![false; n];
        in_s[first as usize] = true;
        let mut nodes = vec![first];
        ws.ensure_sketch(g, w, params.seed);
        for _ in 1..k {
            let mut factor = rec.span("linalg.factor", 1, |_| ctx.factor_grounded(g, &in_s))?;
            let (num, den) = rec.span("linalg.solve", 1, |_| {
                ws.sketched_gains(factor.as_mut(), params.warm_start)
            })?;
            let mut best = (0usize, f64::NEG_INFINITY);
            for (cix, (nu, de)) in num.iter().zip(&den).enumerate() {
                let floor = 1.0 / g.degree(factor.node_of(cix)) as f64;
                let gain = nu / de.max(floor);
                if gain > best.1 {
                    best = (cix, gain);
                }
            }
            let u = factor.node_of(best.0);
            in_s[u as usize] = true;
            nodes.push(u);
        }
        Ok((nodes, ws.solve_stats()))
    })
}

/// Per-layer metrics of a traced solver run. Layers the workload does not
/// enter read 0.
fn layer_metrics(
    rec: &Recorder,
    split: Option<&Split>,
    solve: &SolveStats,
    base: f64,
) -> Vec<Metric> {
    let select = rec.total("select");
    let first_phase = rec.total("core.first_phase");
    let delta = rec.total("core.delta");
    let count = rec.total("forest.count_pass");
    let electrical = rec.total("forest.electrical_pass");
    let rooted = rec.total("forest.rooted_pass");
    let (forests, steps) = split.map_or((0, 0), |s| (s.forests, s.walk_steps));
    let pinv = rec.total("linalg.pinv");
    let factor = rec.total("linalg.factor");
    let lin_solve = rec.total("linalg.solve");
    let share = |x: f64| if select > 0.0 { x / select } else { 0.0 };
    let mut m = vec![
        metric("datasets.generate_s", "s", rec.total("datasets.generate")),
        metric("core.first_phase_s", "s", first_phase),
        metric("core.delta_s", "s", delta),
        metric("core.schur_inverse_s", "s", rec.total("core.schur_inverse")),
        metric(
            "core.delta_self_s",
            "s",
            if split.is_some() { delta - rooted } else { 0.0 },
        ),
        metric("core.coverage", "ratio", share(first_phase + delta)),
        metric("core.select_self_s", "s", rec.self_time("select")),
        metric("forest.wilson_s", "s", count),
        metric("forest.estimator_s", "s", electrical - count),
        metric("forest.rooted_s", "s", rooted - electrical),
        metric("forest.forests", "count", forests as f64),
        metric("forest.walk_steps", "count", steps as f64),
        metric(
            "forest.steps_per_forest",
            "count",
            if forests > 0 {
                steps as f64 / forests as f64
            } else {
                0.0
            },
        ),
        metric(
            "forest.walk_ns_per_step",
            "ns",
            if steps > 0 {
                count * 1e9 / steps as f64
            } else {
                0.0
            },
        ),
        metric("linalg.pinv_s", "s", pinv),
        metric("linalg.factor_s", "s", factor),
        metric("linalg.factors", "count", rec.count("linalg.factor") as f64),
        metric("linalg.solve_s", "s", lin_solve),
    ];
    m.extend(solve_metrics(solve));
    m.push(metric(
        "linalg.coverage",
        "ratio",
        share(pinv + factor + lin_solve),
    ));
    m.extend([
        metric("serve.cache_hit_ratio", "ratio", 0.0),
        metric("serve.factor_builds", "count", 0.0),
        metric("serve.batch_width_mean", "cols", 0.0),
        metric("serve.solve_ms_p50", "ms", 0.0),
        metric("serve.overhead_ms_p50", "ms", 0.0),
        metric("serve.reload_ms_p50", "ms", 0.0),
        metric("trace.overhead_s", "s", select - base),
        metric("trace.base_s", "s", base),
        metric("trace.spans", "count", rec.spans().len() as f64),
    ]);
    m
}

/// PCG work read from aggregated `SolveStats`.
pub(crate) fn solve_metrics(s: &SolveStats) -> [Metric; 4] {
    [
        metric("linalg.pcg_iters", "count", s.iterations as f64),
        metric("linalg.rhs", "count", s.solves as f64),
        metric(
            "linalg.pcg_iters_per_rhs",
            "count",
            if s.solves > 0 {
                s.iterations as f64 / s.solves as f64
            } else {
                0.0
            },
        ),
        metric("linalg.flops", "count", s.flops as f64),
    ]
}
