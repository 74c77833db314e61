//! The `serve-mixed` workload: an in-process daemon under a closed loop
//! of `eval_group` reads from several client connections, where every
//! `reload_every`-th request of a client reloads the graph (a write that
//! bumps the epoch and orphans every cached factor).

use crate::solver::solve_metrics;
use crate::stats::{median, metric, peak_rss_mb, Latency, Metric};
use crate::trace::Recorder;
use crate::workload::{proxy, ServePlan, ServeWorkload, SETUP_REPS};
use crate::Outcome;
use cfcc_core::cfcc::group_mask;
use cfcc_graph::Graph;
use cfcc_linalg::sdd::{self, SddBackend, SddOptions};
use cfcc_linalg::{DenseMatrix, SddFactor, SolveStats};
use cfcc_serve::client::Client;
use cfcc_serve::{ServeConfig, Server, ServerHandle};
use cfcc_util::json::JsonObject;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Largest relative gap allowed between a daemon answer and the
/// in-process solve of the same probes against the same grounding.
const ANSWER_REL_TOL: f64 = 1e-4;
/// In-process solves per grounding behind `serve.solve_ms_p50`.
const SOLVE_REPS: usize = 3;

/// One request as the client saw it.
struct Sample {
    reload: bool,
    ms: f64,
    /// Grounding index and answered trace, for reads that returned `ok`.
    answer: Option<(usize, f64)>,
    error: Option<String>,
}

/// Daemon counters read from the `stats` verb.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: f64,
    misses: f64,
    batches: f64,
    mean_width: f64,
}

impl Counters {
    fn read(c: &mut Client) -> Result<Self, String> {
        let line = c.request_terminal("stats").map_err(|e| e.to_string())?;
        let get = |key: &str| json_number(&line, key).ok_or(format!("stats lacks {key}: {line}"));
        Ok(Self {
            hits: get("hits")?,
            misses: get("misses")?,
            batches: get("batches")?,
            mean_width: get("mean_width")?,
        })
    }

    /// Counters accrued between `self` and the later reading `after`.
    fn since(self, after: Counters) -> Counters {
        let batches = after.batches - self.batches;
        Counters {
            hits: after.hits - self.hits,
            misses: after.misses - self.misses,
            batches,
            mean_width: if batches > 0.0 {
                (after.mean_width * after.batches - self.mean_width * self.batches) / batches
            } else {
                0.0
            },
        }
    }
}

/// The number after `"key":` in a flat JSON rendering.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &text[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The value of `key=` in a protocol reply line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

fn read_line(w: &ServeWorkload, plan: &ServePlan, grounding: usize) -> String {
    let nodes: Vec<String> = plan.groundings[grounding]
        .iter()
        .map(u32::to_string)
        .collect();
    format!(
        "eval_group graph=g nodes={} probes={} seed={}",
        nodes.join(","),
        w.probes,
        plan.probe_seeds[grounding]
    )
}

fn load_line(w: &ServeWorkload) -> String {
    format!("load_graph name=g dataset={} scale={}", w.dataset, w.scale)
}

/// A daemon with the graph loaded and every grounding's factor built.
struct Daemon {
    handle: ServerHandle,
    addr: SocketAddr,
}

fn start_daemon(w: &ServeWorkload, plan: &ServePlan, n: usize) -> Result<Daemon, String> {
    let cfg = ServeConfig {
        threads: w.threads,
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.spawn();
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let reply = c
        .request_terminal(&load_line(w))
        .map_err(|e| e.to_string())?;
    if field(&reply, "n") != Some(n.to_string().as_str())
        || field(&reply, "reduced") != Some("false")
    {
        return Err(format!("daemon loaded a different graph: {reply}"));
    }
    for i in 0..plan.groundings.len() {
        let reply = c
            .request_terminal(&read_line(w, plan, i))
            .map_err(|e| e.to_string())?;
        if !reply.starts_with("ok ") {
            return Err(format!("prewarm read failed: {reply}"));
        }
    }
    Ok(Daemon { handle, addr })
}

/// Closed loop: each client sends its next request when the previous
/// reply arrives, until `seconds` have passed.
fn closed_loop(
    w: &ServeWorkload,
    plan: &ServePlan,
    addr: SocketAddr,
    seconds: f64,
    epoch: Option<Instant>,
) -> Result<(Vec<Sample>, f64, Option<Recorder>), String> {
    let clients: Vec<Client> = (0..w.clients)
        .map(|_| Client::connect(addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<_, _>>()?;
    let start = Barrier::new(w.clients);
    let began = Instant::now();
    let results: Vec<(Vec<Sample>, Option<Recorder>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(ci, mut c)| {
                let start = &start;
                s.spawn(move || {
                    let mut rec = epoch.map(Recorder::new);
                    let mut out = Vec::new();
                    start.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    let reads = &plan.reads[ci];
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        let reload = (i + 1).is_multiple_of(w.reload_every);
                        let grounding = reads[i % reads.len()];
                        let line = if reload {
                            load_line(w)
                        } else {
                            read_line(w, plan, grounding)
                        };
                        let name = if reload { "serve.reload" } else { "serve.eval" };
                        let trace = (ci as u64) << 32 | i as u64;
                        let t = Instant::now();
                        let reply = match rec.as_mut() {
                            Some(r) => r.span(name, trace, |_| c.request_terminal(&line)),
                            None => c.request_terminal(&line),
                        };
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        out.push(classify(reload, grounding, ms, reply));
                        i += 1;
                    }
                    (out, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = began.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut merged: Option<Recorder> = epoch.map(Recorder::new);
    for (s, r) in results {
        samples.extend(s);
        if let (Some(m), Some(r)) = (merged.as_mut(), r) {
            m.merge(r);
        }
    }
    Ok((samples, elapsed, merged))
}

fn classify(reload: bool, grounding: usize, ms: f64, reply: std::io::Result<String>) -> Sample {
    let mut s = Sample {
        reload,
        ms,
        answer: None,
        error: None,
    };
    match reply {
        Err(e) => s.error = Some(format!("transport: {e}")),
        Ok(line) if !line.starts_with("ok ") => s.error = Some(line),
        Ok(line) if reload => drop(line),
        Ok(line) => match field(&line, "trace").and_then(|t| t.parse::<f64>().ok()) {
            Some(t) if t.is_finite() && t > 0.0 => s.answer = Some((grounding, t)),
            _ => s.error = Some(format!("no finite positive trace: {line}")),
        },
    }
    s
}

/// In-process reference: per grounding, factor `L_{-S}` with the daemon's
/// options and solve the request's probes, yielding the Hutchinson trace
/// the daemon should answer.
struct Reference {
    traces: Vec<f64>,
    solve_ms: Vec<f64>,
    stats: SolveStats,
}

fn reference(
    w: &ServeWorkload,
    plan: &ServePlan,
    g: &Arc<Graph>,
    rec: &mut Recorder,
) -> Result<Reference, String> {
    let opts = SddOptions {
        rel_tol: ServeConfig::default().rel_tol,
        max_iter: 50_000,
        threads: w.threads,
        ..SddOptions::default()
    };
    let mut out = Reference {
        traces: Vec::new(),
        solve_ms: Vec::new(),
        stats: SolveStats::default(),
    };
    for (gi, nodes) in plan.groundings.iter().enumerate() {
        let mask = group_mask(g, nodes).map_err(|e| e.to_string())?;
        let mut factor = rec
            .span("linalg.factor", gi as u64, |_| {
                sdd::factor_owned(g, &mask, SddBackend::Auto, &opts)
            })
            .map_err(|e| e.to_string())?;
        // The daemon's probe block: ±1 entries drawn row by row.
        let kept = factor.dim();
        let mut rng = StdRng::seed_from_u64(plan.probe_seeds[gi] ^ 0x5EED_F00D);
        let mut rhs = DenseMatrix::zeros(kept, w.probes);
        for i in 0..kept {
            for j in 0..w.probes {
                rhs.set(i, j, if rng.gen::<bool>() { 1.0 } else { -1.0 });
            }
        }
        if factor.backend_name() == "dense-cholesky" {
            // Small systems: the daemon answers the exact trace.
            out.traces
                .push(factor.trace_inverse().map_err(|e| e.to_string())?);
            continue;
        }
        let mut trace = 0.0;
        for _ in 0..SOLVE_REPS {
            let mut x = DenseMatrix::zeros(kept, w.probes);
            let t = Instant::now();
            rec.span("linalg.solve", gi as u64, |_| {
                factor.solve_mat_into(&rhs, &mut x)
            })
            .map_err(|e| e.to_string())?;
            out.solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
            trace = (0..kept)
                .map(|i| {
                    (0..w.probes)
                        .map(|j| rhs.get(i, j) * x.get(i, j))
                        .sum::<f64>()
                })
                .sum::<f64>()
                / w.probes as f64;
        }
        out.traces.push(trace);
        let st = factor.stats();
        out.stats.solves += st.solves;
        out.stats.iterations += st.iterations;
        out.stats.flops += st.flops;
    }
    Ok(out)
}

/// Run `serve-mixed`. Untraced: one closed loop of `seconds`. Traced: an
/// untraced loop, then a traced loop of the same length, so the
/// difference in mean read latency is the tracing overhead.
pub fn run(w: &ServeWorkload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(Instant::now());
    let g = Arc::new(rec.span("datasets.generate", 0, |_| proxy(w.dataset, w.scale)));
    let n = g.num_nodes();
    let plan = w.plan(seed, n);
    let kept = n - w.group_size;
    out.info = JsonObject::new()
        .str("dataset", w.dataset)
        .str(
            "backend",
            &format!(
                "auto ({})",
                SddBackend::Auto.resolve_for_graph(&g, kept).name()
            ),
        )
        .raw("jl_width", "null")
        .raw("forest_cap", "null")
        .raw("t_size", "null")
        .int("threads", w.threads as u64)
        .raw("k", "null")
        .raw("epsilon", "null")
        .int("n", n as u64)
        .int("m", g.num_edges() as u64)
        .int("clients", w.clients as u64)
        .int("groundings", w.groundings as u64)
        .int("group_size", w.group_size as u64)
        .int("probes", w.probes as u64)
        .int("reload_every", w.reload_every as u64)
        .num(
            "batch_window_ms",
            ServeConfig::default().batch_window.as_secs_f64() * 1e3,
        );

    // Set-up: bind, first load and factor prewarm. This daemon serves the
    // measured loop; the further set-ups behind the `setup_s` median run
    // after the peak resident set is read, so their memory is not in it
    // (retained allocator arenas made it vary by up to 23% between runs).
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let t = Instant::now();
    let daemon = match start_daemon(w, &plan, n) {
        Ok(d) => d,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("daemon set-up failed: {e}"));
            return out;
        }
    };
    setup.push(t.elapsed().as_secs_f64());

    let result = (|| -> Result<(), String> {
        let mut admin = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
        let (untraced, loop_s, _) = closed_loop(w, &plan, daemon.addr, seconds, None)?;
        if read_ms(&untraced).is_empty() {
            return Err("the loop completed no reads".into());
        }
        let traced_loop = if traced {
            let before = Counters::read(&mut admin)?;
            let (samples, _, spans) =
                closed_loop(w, &plan, daemon.addr, seconds, Some(rec.epoch()))?;
            Some((samples, before.since(Counters::read(&mut admin)?), spans))
        } else {
            None
        };
        // Read before the in-process reference solves add their own memory.
        let rss = peak_rss_mb();
        let reference = reference(w, &plan, &g, &mut rec)?;
        score(&mut out, &untraced, &reference.traces);
        match traced_loop {
            None => {
                let rss = rss.ok_or("no peak RSS reading on this platform")?;
                while setup.len() < SETUP_REPS {
                    let t = Instant::now();
                    let again = start_daemon(w, &plan, n)?;
                    setup.push(t.elapsed().as_secs_f64());
                    drop(again.handle);
                }
                out.metrics = end_to_end(&mut out.info, &untraced, n, loop_s, &setup, rss);
            }
            Some((samples, delta, spans)) => {
                score(&mut out, &samples, &reference.traces);
                rec.merge(spans.expect("a traced loop records spans"));
                out.metrics = layer_metrics(&rec, &samples, &untraced, &reference, delta);
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        out.attempted += 1;
        out.fail(e);
    }
    drop(daemon.handle);
    if traced {
        out.recorder = Some(rec);
    }
    out
}

/// Count every request and check each answer against the reference.
fn score(out: &mut Outcome, samples: &[Sample], reference: &[f64]) {
    for s in samples {
        out.attempted += 1;
        if let Some(e) = &s.error {
            out.fail(format!("request failed: {e}"));
        } else if let Some((gi, t)) = s.answer {
            let want = reference[gi];
            if ((t - want) / want).abs() > ANSWER_REL_TOL {
                out.fail(format!(
                    "grounding {gi}: daemon trace {t}, in-process {want}"
                ));
            }
        }
    }
}

fn read_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().filter(|s| !s.reload).map(|s| s.ms).collect()
}

fn reload_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().filter(|s| s.reload).map(|s| s.ms).collect()
}

fn end_to_end(
    info: &mut JsonObject,
    samples: &[Sample],
    n: usize,
    loop_s: f64,
    setup: &[f64],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let reads = read_ms(samples);
    let lat = Latency::of(&reads);
    let reloads = reload_ms(samples);
    let answers: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.answer.map(|(_, t)| n as f64 / t))
        .collect();
    let ok = samples.iter().filter(|s| s.error.is_none()).count();
    *info = std::mem::take(info)
        .int("reads", reads.len() as u64)
        .int("reloads", reloads.len() as u64)
        .raw("tail_percentile", lat.label())
        .num(
            "reload_ms_p50",
            if reloads.is_empty() {
                f64::NAN
            } else {
                median(&reloads)
            },
        );
    vec![
        metric("latency_ms_p50", "ms", lat.p50),
        metric("latency_ms_tail", "ms", lat.tail),
        metric("throughput_per_s", "1/s", ok as f64 / loop_s),
        metric(
            "cfcc",
            "score",
            answers.iter().sum::<f64>() / answers.len().max(1) as f64,
        ),
        metric("setup_s", "s", median(setup)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

fn layer_metrics(
    rec: &Recorder,
    traced: &[Sample],
    untraced: &[Sample],
    reference: &Reference,
    delta: Counters,
) -> Vec<Metric> {
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let reads = read_ms(traced);
    let p50 = if reads.is_empty() {
        0.0
    } else {
        median(&reads)
    };
    let solve_p50 = if reference.solve_ms.is_empty() {
        0.0
    } else {
        median(&reference.solve_ms)
    };
    let reloads = reload_ms(traced);
    let lookups = delta.hits + delta.misses;
    let base_s = mean(&read_ms(untraced)) * 1e-3;
    let mut m = vec![
        metric("datasets.generate_s", "s", rec.total("datasets.generate")),
        metric("core.first_phase_s", "s", 0.0),
        metric("core.delta_s", "s", 0.0),
        metric("core.schur_inverse_s", "s", 0.0),
        metric("core.delta_self_s", "s", 0.0),
        metric("core.coverage", "ratio", 0.0),
        metric("core.select_self_s", "s", 0.0),
        metric("forest.wilson_s", "s", 0.0),
        metric("forest.estimator_s", "s", 0.0),
        metric("forest.rooted_s", "s", 0.0),
        metric("forest.forests", "count", 0.0),
        metric("forest.walk_steps", "count", 0.0),
        metric("forest.steps_per_forest", "count", 0.0),
        metric("forest.walk_ns_per_step", "ns", 0.0),
        metric("linalg.pinv_s", "s", 0.0),
        metric("linalg.factor_s", "s", rec.total("linalg.factor")),
        metric("linalg.factors", "count", rec.count("linalg.factor") as f64),
        metric("linalg.solve_s", "s", rec.total("linalg.solve")),
    ];
    m.extend(solve_metrics(&reference.stats));
    m.extend([
        metric("linalg.coverage", "ratio", 0.0),
        metric(
            "serve.cache_hit_ratio",
            "ratio",
            if lookups > 0.0 {
                delta.hits / lookups
            } else {
                0.0
            },
        ),
        metric("serve.factor_builds", "count", delta.misses),
        metric("serve.batch_width_mean", "cols", delta.mean_width),
        metric("serve.solve_ms_p50", "ms", solve_p50),
        metric("serve.overhead_ms_p50", "ms", p50 - solve_p50),
        metric(
            "serve.reload_ms_p50",
            "ms",
            if reloads.is_empty() {
                0.0
            } else {
                median(&reloads)
            },
        ),
        metric("trace.overhead_s", "s", mean(&reads) * 1e-3 - base_s),
        metric("trace.base_s", "s", base_s),
        metric("trace.spans", "count", rec.spans().len() as f64),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_parsing() {
        let line = "ok cfcc=1.5 trace=2.25 method=hutchinson cache=hit";
        assert_eq!(field(line, "trace"), Some("2.25"));
        assert_eq!(field(line, "cache"), Some("hit"));
        assert_eq!(field(line, "tr"), None);
        let stats = r#"ok stats={"cache":{"hits":12,"misses":4,"hit_rate":0.75},"batching":{"mean_width":8.5}}"#;
        assert_eq!(json_number(stats, "hits"), Some(12.0));
        assert_eq!(json_number(stats, "mean_width"), Some(8.5));
        assert_eq!(json_number(stats, "absent"), None);
    }

    #[test]
    fn counters_difference_recovers_the_window_mean() {
        let a = Counters {
            hits: 10.0,
            misses: 5.0,
            batches: 4.0,
            mean_width: 8.0,
        };
        let b = Counters {
            hits: 30.0,
            misses: 7.0,
            batches: 8.0,
            mean_width: 12.0,
        };
        let d = a.since(b);
        assert_eq!((d.hits, d.misses, d.batches), (20.0, 2.0, 4.0));
        assert_eq!(d.mean_width, 16.0);
    }
}
