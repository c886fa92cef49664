//! The paper's batch path, once, end to end at scale 0.25: supervised
//! suite build → RF training with one group held out → triage and
//! explanation validation on the held-out designs → TPR*/Prec*/AUPRC.

use std::path::Path;
use std::time::Instant;

use drcshap_core::artifact::{crc32, Crc32};
use drcshap_core::pipeline::{DesignBundle, PipelineConfig};
use drcshap_core::{encode_model, run_supervised, Explainer, SavedModel, SupervisorConfig};
use drcshap_features::FeatureSchema;
use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_geom::CancelToken;
use drcshap_ml::metrics::{average_precision, tpr_prec_at_fpr, PAPER_FPR};
use drcshap_netlist::suite;
use serde_json::{json, Value};

/// Linear design scale of the flow (9,202 g-cells over 14 designs).
pub const SCALE: f64 = 0.25;
/// The Table I group held out of training; its designs are explained,
/// evaluated, and replayed as serving traffic.
pub const HELD_OUT_GROUP: u8 = 5;
/// Trees and seed of the explainer, as `drcshap explain` trains it.
pub const TREES: usize = 150;
pub const TRAIN_SEED: u64 = 42;
/// `drcshap triage` defaults.
const TRIAGE_THRESHOLD: f64 = 0.3;
const TRIAGE_MAX_CASES: usize = 200;
/// Example cases validated per held-out design, as `drcshap explain`.
const CASES_PER_DESIGN: usize = 3;

/// Pinned outputs of the flow at scale 0.25. Any change to one of these
/// is a change in what the program computes, not in how fast.
const FEATURE_DIGEST: u32 = 0xe3ed_3699;
const MODEL_CRC: u32 = 0x0278_1278;
const HELD_OUT_SCORE_DIGEST: u32 = 0x0099_a807;
/// `(design, TPR*, Prec*, AUPRC)` for each held-out design with both classes.
const HELD_OUT_METRICS: &[(&str, f64, f64, f64)] = &[
    ("des_perf_a", 0.42857142857142855, 0.6666666666666666, 0.5317853658876976),
    ("fft_1", 0.0, 0.0, 0.174931129476584),
];
/// `(design, triaged hotspots, validated cases, consistent cases)`.
const HELD_OUT_TRIAGE: &[(&str, usize, usize, usize)] =
    &[("des_perf_a", 19, 3, 3), ("fft_1", 1, 2, 2), ("fft_a", 0, 0, 0), ("bridge32_b", 0, 0, 0)];

/// What one flow run measured and produced.
pub struct FlowRun {
    /// Wall time of `run_supervised` (until the feature matrices exist).
    pub dataset_s: f64,
    /// Wall time of the whole flow.
    pub flow_s: f64,
    /// CPU time of `run_supervised`. The flow runs on the calling thread
    /// alone, and the CPU time the scheduler charges it leaves out time the
    /// hypervisor stole from the vCPU.
    pub dataset_cpu_s: f64,
    /// CPU time of the whole flow.
    pub flow_cpu_s: f64,
    /// Wall time of `Explainer::train`.
    pub train_s: f64,
    /// Wall time of triage plus case validation.
    pub triage_s: f64,
    /// Wall time of the TPR*/Prec*/AUPRC evaluation.
    pub eval_s: f64,
    /// Bytes of checkpoints and manifest the supervisor left on disk.
    pub checkpoint_bytes: u64,
    /// The supervised bundles, in suite order.
    pub bundles: Vec<DesignBundle>,
    /// The explainer's forest.
    pub forest: RandomForest,
    /// Correctness-gate failures (empty when every output matched).
    pub failures: Vec<String>,
    /// The observed outputs, for the report.
    pub outputs: Value,
}

/// The held-out designs' bundles.
pub fn held_out(bundles: &[DesignBundle]) -> impl Iterator<Item = &DesignBundle> {
    bundles.iter().filter(|b| b.design.spec.group == HELD_OUT_GROUP)
}

/// The schema fingerprint every model in the benchmark is bound to.
pub fn fingerprint() -> u64 {
    FeatureSchema::paper_387().fingerprint()
}

/// Runs the flow with its supervisor checkpoints under `run_dir` (which
/// must not exist yet), then checks every pinned output.
pub fn run(run_dir: &Path) -> Result<FlowRun, String> {
    let specs = suite::all_specs();
    let sup = SupervisorConfig::new(PipelineConfig { scale: SCALE, ..Default::default() }, run_dir);

    let start = Instant::now();
    let cpu_start = thread_cpu_s();
    let report = run_supervised(&specs, &sup, &CancelToken::new())
        .map_err(|e| format!("run_supervised failed: {e}"))?;
    let dataset_s = start.elapsed().as_secs_f64();
    let dataset_cpu_s = thread_cpu_s() - cpu_start;
    let completed = report.completed();
    let bundles: Vec<DesignBundle> = report.bundles.into_iter().flatten().collect();

    let t = Instant::now();
    let train: Vec<DesignBundle> =
        bundles.iter().filter(|b| b.design.spec.group != HELD_OUT_GROUP).cloned().collect();
    let explainer = Explainer::train(
        &train,
        &RandomForestTrainer { n_trees: TREES, ..Default::default() },
        TRAIN_SEED,
    );
    drop(train);
    let train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut triage = Vec::new();
    for bundle in held_out(&bundles) {
        let report = explainer.triage(bundle, TRIAGE_THRESHOLD, TRIAGE_MAX_CASES);
        let cases = explainer.select_cases(bundle, CASES_PER_DESIGN);
        let consistent = cases.iter().filter(|c| explainer.validate_case(c, bundle)).count();
        triage.push((bundle.design.spec.name.clone(), report.total(), cases.len(), consistent));
    }
    let triage_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut metrics = Vec::new();
    for bundle in held_out(&bundles) {
        let labels = &bundle.report.labels;
        let positives = labels.iter().filter(|&&l| l).count();
        if positives == 0 || positives == labels.len() {
            continue;
        }
        let scores: Vec<f64> = (0..bundle.features.n_samples())
            .map(|i| explainer.forest().predict_proba(bundle.features.row(i)))
            .collect();
        let op = tpr_prec_at_fpr(&scores, labels, PAPER_FPR);
        let auprc = average_precision(&scores, labels);
        metrics.push((bundle.design.spec.name.clone(), op.tpr, op.precision, auprc));
    }
    let eval_s = t.elapsed().as_secs_f64();
    let flow_s = start.elapsed().as_secs_f64();
    let flow_cpu_s = thread_cpu_s() - cpu_start;

    // Everything below checks outputs; none of it is timed.
    let forest = explainer.forest().clone();
    let mut failures = Vec::new();
    if completed != specs.len() {
        failures.push(format!("flow: {completed} of {} designs completed", specs.len()));
    }
    let feature_digest = feature_digest(&bundles);
    let model_crc = encode_model(&SavedModel::Rf(forest.clone()), fingerprint())
        .map(|bytes| crc32(&bytes))
        .map_err(|e| format!("encode_model failed: {e}"))?;
    let score_digest = held_out_score_digest(&forest, &bundles);
    let checks: [(&str, u32, u32); 3] = [
        ("feature digest", feature_digest, FEATURE_DIGEST),
        ("model CRC", model_crc, MODEL_CRC),
        ("held-out score digest", score_digest, HELD_OUT_SCORE_DIGEST),
    ];
    for (what, got, want) in checks {
        if got != want {
            failures.push(format!("flow: {what} {got:#010x} != pinned {want:#010x}"));
        }
    }
    let pinned_metrics: Vec<(String, f64, f64, f64)> =
        HELD_OUT_METRICS.iter().map(|&(d, a, b, c)| (d.to_string(), a, b, c)).collect();
    if metrics != pinned_metrics {
        failures.push(format!(
            "flow: held-out TPR*/Prec*/AUPRC {metrics:?} != pinned {pinned_metrics:?}"
        ));
    }
    let pinned_triage: Vec<(String, usize, usize, usize)> =
        HELD_OUT_TRIAGE.iter().map(|&(d, a, b, c)| (d.to_string(), a, b, c)).collect();
    if triage != pinned_triage {
        failures.push(format!("flow: held-out triage {triage:?} != pinned {pinned_triage:?}"));
    }

    let outputs = json!({
        "designs_completed": completed,
        "feature_digest": format!("{feature_digest:#010x}"),
        "model_crc": format!("{model_crc:#010x}"),
        "held_out_score_digest": format!("{score_digest:#010x}"),
        "held_out_metrics": metrics.iter().map(|(d, t, p, a)| {
            json!({"design": d, "tpr_star": t, "prec_star": p, "auprc": a})
        }).collect::<Vec<_>>(),
        "held_out_triage": triage.iter().map(|(d, n, c, ok)| {
            json!({"design": d, "triaged": n, "cases": c, "consistent": ok})
        }).collect::<Vec<_>>(),
    });
    Ok(FlowRun {
        dataset_s,
        flow_s,
        dataset_cpu_s,
        flow_cpu_s,
        train_s,
        triage_s,
        eval_s,
        checkpoint_bytes: dir_bytes(run_dir),
        bundles,
        forest,
        failures,
        outputs,
    })
}

/// CRC32 over the exact feature bit patterns of every bundle, in suite
/// order — the same digest `drcshap run` prints.
fn feature_digest(bundles: &[DesignBundle]) -> u32 {
    let mut crc = Crc32::new();
    for bundle in bundles {
        for i in 0..bundle.features.n_samples() {
            for v in bundle.features.row(i) {
                crc.update(&v.to_bits().to_le_bytes());
            }
        }
    }
    crc.finalize()
}

/// CRC32 over the score bits of every held-out g-cell, in suite order.
fn held_out_score_digest(forest: &RandomForest, bundles: &[DesignBundle]) -> u32 {
    let mut crc = Crc32::new();
    for bundle in held_out(bundles) {
        for i in 0..bundle.features.n_samples() {
            crc.update(&forest.predict_proba(bundle.features.row(i)).to_bits().to_le_bytes());
        }
    }
    crc.finalize()
}

/// CPU time of the calling thread so far, seconds, from the scheduler's
/// nanosecond run-time account (`/proc/thread-self/schedstat`).
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
