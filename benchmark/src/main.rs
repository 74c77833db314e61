//! The repository's benchmark: one command runs a workload, checks its
//! outputs and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` makes a
//! separate traced run and reports the per-layer metrics. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is a report
//! with the resolved routing and sample counts. Traced runs also write
//! their spans to `bench-out/<workload>-seed<n>.trace.json`. A failed
//! output check makes the command exit with code 1.

#![forbid(unsafe_code)]

mod serve;
mod solver;
mod stats;
mod trace;
mod workload;

use cfcc_util::json::JsonObject;
use stats::{valid_metric_name, Metric};
use std::process::ExitCode;
use trace::Recorder;
use workload::Workload;

/// End-to-end metric names, reported by every workload with `--trace 0`.
pub const END_TO_END: [&str; 6] = [
    "latency_ms_p50",
    "latency_ms_tail",
    "throughput_per_s",
    "cfcc",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metric names, reported by every workload with `--trace 1`
/// (layers a workload does not enter read 0).
pub const PER_LAYER: [&str; 32] = [
    "datasets.generate_s",
    "core.first_phase_s",
    "core.delta_s",
    "core.schur_inverse_s",
    "core.delta_self_s",
    "core.coverage",
    "core.select_self_s",
    "forest.wilson_s",
    "forest.estimator_s",
    "forest.rooted_s",
    "forest.forests",
    "forest.walk_steps",
    "forest.steps_per_forest",
    "forest.walk_ns_per_step",
    "linalg.pinv_s",
    "linalg.factor_s",
    "linalg.factors",
    "linalg.solve_s",
    "linalg.pcg_iters",
    "linalg.rhs",
    "linalg.pcg_iters_per_rhs",
    "linalg.flops",
    "linalg.coverage",
    "serve.cache_hit_ratio",
    "serve.factor_builds",
    "serve.batch_width_mean",
    "serve.solve_ms_p50",
    "serve.overhead_ms_p50",
    "serve.reload_ms_p50",
    "trace.overhead_s",
    "trace.base_s",
    "trace.spans",
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: selections and replays, or requests.
    pub attempted: u64,
    /// Operations that failed or failed an output check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Resolved routing and sample counts, printed in the report line.
    pub info: JsonObject,
    /// Spans of a traced run.
    pub recorder: Option<Recorder>,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Count one failed operation or check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Count a failed check, if it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(why) = result {
            self.fail(why);
        }
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Run `w` and check that it reported every expected metric.
fn run_workload(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = match w {
        Workload::Solver(s) => solver::run(s, seed, seconds, traced),
        Workload::Serve(s) => serve::run(s, seed, seconds, traced),
    };
    // Every expected metric, with a finite value, under a valid name.
    let expected: &[&str] = if traced { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    if out.failed == 0 && names != expected {
        out.fail(format!("reported metrics {names:?}, expected {expected:?}"));
    }
    if let Some(m) = out
        .metrics
        .iter()
        .find(|m| !m.value.is_finite() || !valid_metric_name(m.name))
    {
        out.fail(format!("metric {} = {} is not reportable", m.name, m.value));
    }
    out
}

fn render_metrics(metrics: &[Metric]) -> String {
    let mut obj = JsonObject::new();
    for m in metrics {
        obj = obj.raw(
            m.name,
            JsonObject::new()
                .num("value", m.value)
                .str("unit", m.unit)
                .render(),
        );
    }
    obj.render()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        let names: Vec<_> = workload::all().iter().map(Workload::name).collect();
        eprintln!(
            "error: unknown workload {} (known: {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };

    let out = run_workload(&w, args.seed, args.seconds, args.trace);
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    if let Some(rec) = &out.recorder {
        let path = format!("bench-out/{}-seed{}.trace.json", args.workload, args.seed);
        let written =
            std::fs::create_dir_all("bench-out").and_then(|_| std::fs::write(&path, rec.to_json()));
        if let Err(e) = written {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let report = JsonObject::new()
        .str("workload", &args.workload)
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("traced", args.trace)
        .int("available_parallelism", threads as u64)
        .raw("routing", out.info.render())
        .raw("metrics", render_metrics(&out.metrics));
    println!("{}", report.render());
    let correct = out.failed == 0;
    println!(
        "{}",
        JsonObject::new()
            .bool("correct", correct)
            .int("attempted", out.attempted.max(1))
            .int("failed", out.failed)
            .raw("metrics", render_metrics(&out.metrics))
            .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&s(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve-mixed".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&s(&["--seed", "1"])).is_err());
        assert!(parse_args(&s(&["--workload", "x", "--trace", "2"])).is_err());
        assert!(parse_args(&s(&["--workload", "x", "--seconds", "0"])).is_err());
        assert!(parse_args(&s(&["--workload"])).is_err());
    }

    /// The values of `key` in one section of `BENCHMARK.json`, in order.
    fn listed(section: &str, key: &str) -> Vec<String> {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = json.find(&format!("\"{section}\"")).expect(section);
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split(&format!("\"{key}\":"))
            .skip(1)
            .map(|x| x.trim_start()[1..].split('"').next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn every_metric_name_matches_the_pattern_and_benchmark_json() {
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
        }
        assert_eq!(listed("end_to_end", "name"), END_TO_END);
        assert_eq!(listed("per_layer", "name"), PER_LAYER);
        let names: Vec<_> = workload::all()
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(listed("workloads", "name"), names);
    }

    /// A toy-size run of each workload, traced and untraced, passes its
    /// output checks and reports exactly its metrics, in the units
    /// `BENCHMARK.json` lists.
    #[test]
    fn toy_runs_pass_their_output_checks() {
        for w in workload::all() {
            let toy = w.toy();
            for traced in [false, true] {
                let out = run_workload(&toy, 3, 0.3, traced);
                assert_eq!(
                    out.failed,
                    0,
                    "{} traced={traced}: {:?}",
                    w.name(),
                    out.errors
                );
                assert!(out.attempted >= 1);
                let names: Vec<_> = out.metrics.iter().map(|m| m.name).collect();
                let want: &[&str] = if traced { &PER_LAYER } else { &END_TO_END };
                assert_eq!(names, want, "{}", w.name());
                let units: Vec<_> = out.metrics.iter().map(|m| m.unit).collect();
                let section = if traced { "per_layer" } else { "end_to_end" };
                assert_eq!(units, listed(section, "unit"), "{}", w.name());
            }
        }
    }
}
