//! The drcshap repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload hot --seed 1 --seconds 16 --trace 0
//! ```
//!
//! Every run drives three phases through the workspace's public entry
//! points and times them from outside:
//!
//! 1. `flow` — the paper's batch path once at scale 0.25 (see [`flow`]);
//! 2. `serve-open` — open-loop Poisson scoring through `ServeEngine` at
//!    three fixed rates, then a saturation step (see [`open_loop`]);
//! 3. `serve-explain` — closed-loop score + explain through `Gateway`,
//!    with registry publishes and rollouts (see [`triage`]).
//!
//! The workload (`hot` or `cold`) sets the triage traffic mix; the seed
//! drives row sampling, arrival times and the hot set. Every output is
//! checked against a reference; a failed check prints `"correct": false`
//! and exits 1. With `--trace 1` the run is repeated with telemetry on and
//! the per-layer metrics are reported instead of the end-to-end ones. The
//! last stdout line is the result object; the full report (machine and
//! settings block, sample counts, gates) precedes it and is also written
//! to `.bench_out/`, next to the traced run's Chrome traces.

mod flow;
mod open_loop;
mod stats;
mod triage;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use drcshap_core::SavedModel;
use drcshap_forest::RandomForest;
use drcshap_gateway::{Gateway, GatewayConfig};
use drcshap_serve::{ServeConfig, ServeEngine};
use drcshap_store::{FsBackend, Registry, RegistryWatch};
use drcshap_telemetry::{self as telemetry, TelemetrySummary};
use serde_json::{json, Value};

use stats::{median, quantile};

/// Fixed open-loop rates, rows per second: at most 5%, 15% and 30% of the
/// single-worker engine's capacity on a quiet 2-vCPU Xeon VM (70–100K
/// rows/s, 100-tree forest, compiled kernel). The wide margin below
/// capacity keeps `hi` sustainable when neighbours on the shared host
/// steal a sixth of the CPU time and capacity halves.
const RATES: [(&str, f64); 3] = [("lo", 3_000.0), ("mid", 10_000.0), ("hi", 20_000.0)];
/// Engine knobs shared by the open-loop engine and every gateway shard.
const MAX_BATCH: usize = 256;
const MAX_WAIT: Duration = Duration::from_millis(2);
const QUEUE_CAPACITY: usize = 4096;
const ENGINE_WORKERS: usize = 1;
const SHARDS: usize = 2;
/// Hedge a gateway score to the backup shard after this long.
const HEDGE_AFTER: Duration = Duration::from_millis(20);
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Registry publish + rollouts per triage phase.
const ROLLOUTS: usize = 4;

/// Shares of `--seconds` each measured phase gets.
const FIXED_STEP_SHARE: f64 = 0.15;
const SATURATION_SHARE: f64 = 0.15;
const TRIAGE_SHARE: f64 = 0.75;
/// Interleaved rounds of the fixed rates.
const ROUNDS: u64 = 3;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Hot,
    Cold,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Cold => "cold",
        }
    }

    /// Share of triage pairs drawn from the hot set.
    fn hot_share(self) -> f64 {
        match self {
            Workload::Hot => 0.3,
            Workload::Cold => 0.0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: drcshap-benchmark --workload <hot|cold> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(pos + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = match value("--workload")? {
        "hot" => Workload::Hot,
        "cold" => Workload::Cold,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} needs a whole number"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed: number("--seed")?, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let tag = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let out_dir = PathBuf::from(".bench_out").join(&tag);
    let work_dir = PathBuf::from(".bench_out").join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Err(e) = std::fs::create_dir_all(&out_dir).and(std::fs::create_dir_all(&work_dir)) {
        eprintln!("error: cannot create output directories: {e}");
        std::process::exit(1);
    }
    let outcome = run(&args, &work_dir, &out_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let text = serde_json::to_string_pretty(&report.full).expect("report serializes");
    let _ = std::fs::write(out_dir.join("report.json"), &text);
    println!("{text}");
    let correct = report.failures.is_empty();
    for failure in &report.failures {
        eprintln!("correctness gate failed: {failure}");
    }
    let metrics: serde_json::Map<String, Value> = report
        .metrics
        .iter()
        .map(|(name, (value, unit))| (name.clone(), json!({"value": value, "unit": unit})))
        .collect();
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": metrics,
        })
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Everything one run reports.
struct Report {
    /// `name -> (value, unit)` for the result line.
    metrics: BTreeMap<String, (f64, &'static str)>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    /// The full report: settings, machine, samples, gates, all metrics.
    full: Value,
}

/// Telemetry captured for one phase of a traced run.
#[derive(Default)]
struct Captured {
    phases: BTreeMap<&'static str, TelemetrySummary>,
}

impl Captured {
    /// Takes the summary and Chrome trace recorded since the last call,
    /// writes the trace to `out_dir`, and starts the next phase clean.
    fn take(&mut self, phase: &'static str, out_dir: &Path) {
        if !telemetry::is_enabled() {
            return;
        }
        let hub = telemetry::hub();
        self.phases.insert(phase, hub.summary());
        let _ = std::fs::write(out_dir.join(format!("trace-{phase}.json")), hub.chrome_trace());
        hub.reset();
    }

    fn span(&self, phase: &str, name: &str) -> Option<&drcshap_telemetry::SpanStats> {
        self.phases.get(phase)?.spans.get(name)
    }

    /// Total seconds inside spans called `name` during `phase`.
    fn total_s(&self, phase: &str, name: &str) -> f64 {
        self.span(phase, name).map_or(0.0, |s| s.total_ms / 1e3)
    }

    fn counter(&self, phase: &str, name: &str) -> f64 {
        self.phases.get(phase).and_then(|s| s.counters.get(name)).map_or(0.0, |&c| c as f64)
    }
}

/// The serving stack one run measures: a registry holding the first
/// model, its watch, the triage gateway and the open-loop engine.
struct Stack {
    registry: Registry,
    watch: RegistryWatch,
    gateway: Gateway,
    engine: ServeEngine,
    models: [RandomForest; 2],
}

fn serve_config(analytics: bool) -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        max_wait: MAX_WAIT,
        queue_capacity: QUEUE_CAPACITY,
        workers: ENGINE_WORKERS,
        analytics: analytics.then(Default::default),
        ..ServeConfig::default()
    }
}

/// Trees of the served models: the default `RandomForestTrainer` size.
const SERVE_TREES: usize = 100;

/// The two models the serving phases alternate between, cut from the
/// flow's 150-tree forest. Every tree's bootstrap and split RNG depend only
/// on the training seed and the tree's index, so trees `0..100` are
/// bit-identical to what the default 100-tree trainer fits on the same
/// data with the same seed; trees `50..150` are a second 100-tree model of
/// the same shape, so every swap does full work while SHAP cost stays
/// level across epochs.
fn serve_models(forest: &RandomForest) -> [RandomForest; 2] {
    let trees = forest.trees();
    let cut = |from: usize| {
        RandomForest::from_trees(trees[from..from + SERVE_TREES].to_vec(), forest.n_features())
    };
    [cut(0), cut(trees.len() - SERVE_TREES)]
}

/// Builds the serving stack around the first of `models`.
fn set_up(models: [RandomForest; 2], dir: &Path) -> Result<Stack, String> {
    let fp = flow::fingerprint();
    let forest = &models[0];
    let backend = FsBackend::new(dir).map_err(|e| format!("registry dir: {e}"))?;
    let registry = Registry::open(backend).map_err(|e| format!("registry open: {e}"))?;
    registry
        .publish_model(&SavedModel::Rf(forest.clone()), fp)
        .map_err(|e| format!("registry publish: {e}"))?;
    let watch = registry.watch().map_err(|e| format!("registry watch: {e}"))?;
    let gateway_config = GatewayConfig {
        shards: SHARDS,
        serve: serve_config(true),
        hedge_after: Some(HEDGE_AFTER),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(gateway_config, forest.clone(), fp)
        .map_err(|e| format!("gateway start: {e}"))?;
    let engine = ServeEngine::start(serve_config(false), forest.clone(), fp)
        .map_err(|e| format!("engine start: {e}"))?;
    Ok(Stack { registry, watch, gateway, engine, models })
}

fn run(args: &Args, work_dir: &Path, out_dir: &Path) -> Result<Report, String> {
    let secs = args.seconds as f64;
    let steal_at_start = cpu_steal();
    let mut failures = Vec::new();
    let mut captured = Captured::default();

    // Tracing overhead is measured on the fixed-work flow: an untraced
    // pass first, then the traced run proper.
    let untraced_flow_s = if args.trace {
        let warm = flow::run(&work_dir.join("flow-untraced"))?;
        let _ = std::fs::remove_dir_all(work_dir.join("flow-untraced"));
        telemetry::enable();
        telemetry::hub().reset();
        Some(warm.flow_s)
    } else {
        None
    };

    // Phase 1: the paper flow.
    let flow_dir = work_dir.join("flow");
    let flow = flow::run(&flow_dir)?;
    captured.take("flow", out_dir);
    let _ = std::fs::remove_dir_all(&flow_dir);
    failures.extend(flow.failures.iter().cloned());
    let rows: Vec<Vec<f32>> = flow::held_out(&flow.bundles)
        .flat_map(|b| (0..b.features.n_samples()).map(move |i| b.features.row(i).to_vec()))
        .collect();

    // Set-up of the serving stack, repeated; the last one is used.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut stack = None;
    for rep in 0..SETUP_REPS {
        drop(stack.take());
        let t = Instant::now();
        stack =
            Some(set_up(serve_models(&flow.forest), &work_dir.join(format!("registry-{rep}")))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Stack { registry, mut watch, gateway, engine, models } =
        stack.expect("at least one set-up");
    captured.take("setup", out_dir);

    // Phase 2: open-loop scoring at the fixed rates, then at saturation.
    let expected: Vec<u64> = rows.iter().map(|r| models[0].predict_proba(r).to_bits()).collect();
    let mut check = |what: &str, answers: &[(u32, u64, u64)]| {
        let wrong = answers
            .iter()
            .filter(|&&(row, bits, epoch)| bits != expected[row as usize] || epoch != 1)
            .count();
        if wrong > 0 {
            failures.push(format!("serve-open {what}: {wrong} scores differ from predict_proba"));
        }
    };
    // The fixed rates run in interleaved rounds, so each rate's windows
    // spread over the whole phase rather than one stretch of it.
    let mut steps: Vec<Vec<open_loop::Step>> = RATES.iter().map(|_| Vec::new()).collect();
    for round in 0..ROUNDS {
        for (i, &(name, rate)) in RATES.iter().enumerate() {
            let step_seed = sub_seed(args.seed, 100 * round + 10 * i as u64);
            let secs_per_round = secs * FIXED_STEP_SHARE / ROUNDS as f64;
            let step = open_loop::run_step(&engine, &rows, rate, secs_per_round, step_seed);
            captured.take(if name == "mid" { "serve-open" } else { "serve-open-other" }, out_dir);
            check(name, &step.answers);
            steps[i].push(step);
        }
    }
    let fixed: Vec<open_loop::Summary> =
        steps.iter().map(|s| open_loop::Summary::of(&s.iter().collect::<Vec<_>>())).collect();
    let saturation =
        open_loop::run_saturated(&engine, &rows, secs * SATURATION_SHARE, sub_seed(args.seed, 999));
    captured.take("serve-open-saturated", out_dir);
    check("saturation", &saturation.answers);
    // Both CPU-time metrics read the scheduler's per-thread run-time account.
    if !(flow.dataset_cpu_s > 0.0 && saturation.per_worker_cpu_s.is_finite()) {
        return Err("per-thread CPU time is unavailable (no /proc/<pid>/task/*/schedstat)".into());
    }
    let open_engine_metrics = engine.metrics();
    let kernel = engine.kernel();
    drop(engine);

    // Phase 3: closed-loop triage with rollouts.
    let mix = triage::Mix {
        hot_share: args.workload.hot_share(),
        secs: secs * TRIAGE_SHARE,
        rollouts: ROLLOUTS,
    };
    let mut triage = triage::run(
        &gateway,
        &registry,
        &mut watch,
        &models,
        flow::fingerprint(),
        &rows,
        mix,
        sub_seed(args.seed, 1000),
    );
    captured.take("serve-explain", out_dir);
    telemetry::disable();
    drop(gateway);
    triage.verify(&rows, &models);
    failures.extend(triage.failures.iter().cloned());

    let open_attempted: usize =
        fixed.iter().map(|s| s.requests).sum::<usize>() + saturation.attempted;
    let open_failed: usize = fixed.iter().map(|s| s.requests - s.ok).sum::<usize>()
        + (saturation.attempted - saturation.answers.len());
    let attempted = 1 + open_attempted + triage.attempted;
    let failed = usize::from(!flow.failures.is_empty()) + open_failed + triage.failed;

    let mut e2e: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let put = |m: &mut BTreeMap<String, (f64, &'static str)>, name: &str, v: f64, unit| {
        m.insert(name.to_string(), (v, unit));
    };
    put(&mut e2e, "setup_s", median(&setup_s), "s");
    put(&mut e2e, "ok_share", (attempted - failed) as f64 / attempted as f64, "ratio");
    put(&mut e2e, "peak_rss_mb", peak_rss_mb(), "MB");
    put(&mut e2e, "dataset_cpu_s", flow.dataset_cpu_s, "s");
    for ((name, _), summary) in RATES.iter().zip(&fixed) {
        put(&mut e2e, &format!("score_p50_us.{name}"), summary.window_p50_us, "us");
    }
    put(&mut e2e, "score_rows_per_cpu_s", saturation.per_worker_cpu_s, "1/s");
    put(&mut e2e, "triage_per_s", median(&triage.era_per_s), "1/s");
    put(&mut e2e, "explain_p50_ms", median(&triage.explain_ms), "ms");
    put(&mut e2e, "closed_score_p50_us", median(&triage.score_us), "us");
    put(&mut e2e, "rollout_ms", median(&triage.rollout_ms), "ms");

    // Engine attribution comes from the last `mid` step alone.
    let mid = steps[1].last().expect("a mid step ran");
    let mid_summary = open_loop::Summary::of(&[mid]);
    let mut layers: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    if args.trace {
        let c = &captured;
        let stages = ["synth", "place", "route", "drc", "extract"];
        let stage_total: f64 =
            stages.iter().map(|s| c.total_s("flow", &format!("stage/{s}"))).sum();
        let design_s = c.total_s("flow", "supervisor/design");
        put(&mut layers, "supervisor.self_s", design_s - stage_total, "s");
        put(&mut layers, "supervisor.checkpoint_mb", flow.checkpoint_bytes as f64 / 1e6, "MB");
        for s in stages {
            put(
                &mut layers,
                &format!("stage.{s}_s"),
                c.total_s("flow", &format!("stage/{s}")),
                "s",
            );
        }
        put(&mut layers, "route.ripups", c.counter("flow", "route/ripups"), "count");
        put(&mut layers, "route.maze_attempts", c.counter("flow", "route/maze_attempts"), "count");
        let fit_s = c.total_s("flow", "rf/fit");
        put(&mut layers, "rf.fit_s", fit_s, "s");
        put(&mut layers, "rf.trees_per_s", flow::TREES as f64 / fit_s, "1/s");
        let (leaves, depth) = forest_shape(&models[0]);
        put(&mut layers, "rf.mean_leaves", leaves, "count");
        put(&mut layers, "rf.mean_depth", depth, "count");
        let shap = c.span("serve-explain", "shap/explain_forest");
        put(&mut layers, "shap.explain_ms", shap.map_or(0.0, |s| s.p50_us / 1e3), "ms");
        put(&mut layers, "shap.calls", shap.map_or(0.0, |s| s.count as f64), "count");
        put(&mut layers, "eval.s", flow.eval_s, "s");
        let flush = c.span("serve-open", "serve/flush");
        let flush_p50 = flush.map_or(0.0, |s| s.p50_us);
        put(&mut layers, "engine.submit_us", mid_summary.submit_p50_us, "us");
        put(&mut layers, "engine.mean_batch", mid_summary.mean_batch, "count");
        put(&mut layers, "engine.flush_us", flush_p50, "us");
        put(
            &mut layers,
            "engine.busy_share",
            c.total_s("serve-open", "serve/flush") / (ENGINE_WORKERS as f64 * mid.span_s),
            "ratio",
        );
        put(&mut layers, "engine.queue_wait_us", mid_summary.p50_us - flush_p50, "us");
        let kernel_s = c.total_s("serve-open", kernel.span_name());
        put(
            &mut layers,
            "kernel.rows_per_s",
            c.counter("serve-open", "serve/kernel_rows") / kernel_s,
            "1/s",
        );
        let engines: Vec<_> = triage.metrics.shards.iter().map(|s| &s.engine).collect();
        let hits: u64 = engines.iter().map(|e| e.cache_hits).sum();
        let misses: u64 = engines.iter().map(|e| e.cache_misses).sum();
        put(&mut layers, "cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
        put(&mut layers, "cache.misses", misses as f64, "count");
        let folds: u64 = engines.iter().map(|e| e.analytics_folds_total).sum();
        let stale: u64 = engines.iter().map(|e| e.analytics_stale_folds_total).sum();
        put(&mut layers, "analytics.folds", folds as f64, "count");
        put(&mut layers, "analytics.stale_folds", stale as f64, "count");
        put(&mut layers, "analytics.snapshot_ms", median(&triage.snapshot_ms), "ms");
        let g = &triage.metrics;
        put(&mut layers, "gateway.retries", g.retries_total as f64, "count");
        put(&mut layers, "gateway.hedges", g.hedges_total as f64, "count");
        put(
            &mut layers,
            "gateway.shed",
            (g.shed_quota_total + g.shed_deadline_total) as f64,
            "count",
        );
        let p50_ms = |name: &str| c.span("serve-explain", name).map_or(0.0, |s| s.p50_us / 1e3);
        put(&mut layers, "gateway.rollout_ms", p50_ms("gateway/rollout"), "ms");
        put(&mut layers, "store.publish_ms", p50_ms("store/publish"), "ms");
        put(&mut layers, "store.open_latest_ms", p50_ms("store/open_latest"), "ms");
        put(
            &mut layers,
            "trace.overhead",
            flow.flow_s / untraced_flow_s.unwrap_or(flow.flow_s),
            "ratio",
        );
        let covered = design_s + fit_s + c.total_s("flow", "shap/explain_forest");
        put(&mut layers, "trace.coverage", covered / flow.flow_s, "ratio");
    }

    let (leaves, depth) = forest_shape(&models[0]);
    let rates: serde_json::Map<String, Value> =
        RATES.iter().map(|(n, r)| (n.to_string(), json!(r))).collect();
    // Tail latencies are reported beside the gated metrics, not among them:
    // on a shared VM their run-to-run spread follows the neighbours' CPU
    // steal (see README.md).
    let mut tails: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    for ((name, _), summary) in RATES.iter().zip(&fixed) {
        put(&mut tails, &format!("score_p99_us.{name}"), summary.p99_us, "us");
    }
    put(
        &mut tails,
        "explain_p99_ms",
        quantile(&triage.explain_ms, 0.99).unwrap_or(f64::INFINITY),
        "ms",
    );
    let tails = metrics_json(&tails);
    let step_rows: Vec<Value> =
        RATES.iter().zip(&fixed).map(|(&(name, rate), s)| step_json(name, rate, s)).collect();
    let full = json!({
        "workload": args.workload.name(),
        "settings": {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": flow::SCALE,
            "held_out_group": flow::HELD_OUT_GROUP,
            "train_seed": flow::TRAIN_SEED,
            "engine_workers": ENGINE_WORKERS,
            "gateway_shards": SHARDS,
            "max_batch": MAX_BATCH,
            "max_wait_ms": MAX_WAIT.as_secs_f64() * 1e3,
            "queue_capacity": QUEUE_CAPACITY,
            "kernel": kernel.name(),
            "forest": {"trees": models[0].trees().len(), "mean_leaves": leaves, "mean_depth": depth},
            "rates_per_s": rates,
            "rounds": ROUNDS,
            "saturation_window": open_loop::SATURATION_WINDOW,
            "latency_limit_us": open_loop::LATENCY_LIMIT_US,
            "lateness_bound_us": open_loop::LATENESS_BOUND_US,
            "hot_share": mix.hot_share,
            "hot_rows": triage::HOT_ROWS,
            "triage_clients": triage::CLIENTS,
            "rollouts": ROLLOUTS,
            "setup_reps": SETUP_REPS,
        },
        "machine": machine(),
        "steal_share": steal_share(steal_at_start, cpu_steal()),
        "flow": {
            "dataset_s": flow.dataset_s,
            "train_s": flow.train_s,
            "triage_s": flow.triage_s,
            "eval_s": flow.eval_s,
            "flow_s": flow.flow_s,
            "dataset_cpu_s": flow.dataset_cpu_s,
            "flow_cpu_s": flow.flow_cpu_s,
            "untraced_flow_s": untraced_flow_s,
            "outputs": flow.outputs,
        },
        "setup_s": setup_s,
        "serve_open": {
            "steps": step_rows,
            "saturation": {
                "attempted": saturation.attempted,
                "ok": saturation.answers.len(),
                "per_worker_cpu_s": saturation.per_worker_cpu_s,
                "delivered_per_s": saturation.delivered_per_s,
                "window_rates": saturation.window_rates,
            },
            "engine_metrics": open_engine_metrics,
        },
        "serve_explain": {
            "pairs": triage.pairs,
            "active_s": triage.active_s,
            "era_per_s": triage.era_per_s,
            "score_samples": triage.score_us.len(),
            "explain_samples": triage.explain_ms.len(),
            "rollout_ms": triage.rollout_ms,
            "publish_ms": triage.publish_ms,
            "snapshot_ms": triage.snapshot_ms,
            "gateway_metrics": triage.metrics,
        },
        "tails": tails,
        "attempted": attempted,
        "failed": failed,
        "correctness_failures": failures,
        "end_to_end": metrics_json(&e2e),
        "per_layer": metrics_json(&layers),
    });
    if args.trace {
        let _ = std::fs::write(
            out_dir.join("layers.json"),
            serde_json::to_string_pretty(&metrics_json(&layers)).expect("layers serialize"),
        );
        for (name, (value, unit)) in &layers {
            eprintln!("{name:<26} {value:>16.4} {unit}");
        }
    }
    Ok(Report { metrics: if args.trace { layers } else { e2e }, attempted, failed, failures, full })
}

/// An independent RNG stream of the run's seed for one step or client.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream
}

fn step_json(name: &str, rate: f64, s: &open_loop::Summary) -> Value {
    json!({
        "name": name,
        "rate": rate,
        "requests": s.requests,
        "ok": s.ok,
        "p50_us": s.p50_us,
        "p99_us": s.p99_us,
        "p99_pooled_us": s.p99_pooled_us,
        "window_p50_us": s.window_p50_us,
        "lateness_p99_us": s.lateness_p99_us,
        "last_window_p50_us": s.last_window_p50_us,
        "delivered_per_s": s.delivered_per_s,
        "mean_batch": s.mean_batch,
        "submit_p50_us": s.submit_p50_us,
        "meets_limit": s.meets_limit(),
    })
}

fn metrics_json(m: &BTreeMap<String, (f64, &'static str)>) -> Value {
    Value::Object(m.iter().map(|(k, (v, u))| (k.clone(), json!({"value": v, "unit": u}))).collect())
}

/// Mean leaves and mean depth per tree.
fn forest_shape(forest: &RandomForest) -> (f64, f64) {
    let n = forest.trees().len().max(1) as f64;
    let leaves: usize = forest.trees().iter().map(|t| t.num_leaves()).sum();
    let depth: usize = forest.trees().iter().map(|t| t.depth()).sum();
    (leaves as f64 / n, depth as f64 / n)
}

/// Peak resident set size of this process, megabytes (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies over all CPUs since boot, from `/proc/stat`.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time the hypervisor stole between two [`cpu_steal`]
/// readings: the noise floor every timing of the run sat on.
fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (from?, to?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// The machine block: vCPUs, CPU model, compiler.
fn machine() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
    });
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    json!({
        "nproc": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "cpu_model": cpu,
        "rustc": rustc,
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
    })
}
