//! Closed-loop triage: two clients act as a hotspot-triage tool, each
//! calling `Gateway::score` and then `Gateway::explain` on the same g-cell
//! and sending its next pair only when both answered. A share of the
//! g-cells comes from a small hot set (explanation-cache hits); the rest
//! are distinct within a model epoch (misses). On a fixed schedule the
//! clients are parked, the fleet analytics snapshot is taken, and the
//! other model is published to the registry and rolled out from its
//! watch feed: each swap clears the caches and rotates analytics epochs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use drcshap_analytics::{AnalyticsConfig, AnalyticsSink, Provenance};
use drcshap_core::SavedModel;
use drcshap_forest::RandomForest;
use drcshap_gateway::{Gateway, GatewayMetrics, Request};
use drcshap_shap::{explain_forest, Explanation};
use drcshap_store::{Registry, RegistryWatch};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Rows in the hot set.
pub const HOT_ROWS: usize = 32;

/// The traffic mix of one run.
#[derive(Clone, Copy)]
pub struct Mix {
    /// Share of pairs drawn from the hot set.
    pub hot_share: f64,
    /// Active (unparked) client time, seconds.
    pub secs: f64,
    /// Registry publish + rollouts, evenly spaced in active time.
    pub rollouts: usize,
}

/// One score/explain pair as a client saw it.
struct Pair {
    row: u32,
    /// Rollouts completed before the pair was sent: its model epoch is
    /// `era + 1` and its model `models[era % 2]`.
    era: usize,
    score: Option<(u64, u64)>,
    score_us: f64,
    explanation: Option<Arc<Explanation>>,
    explain_us: f64,
}

/// What the phase measured.
pub struct TriageRun {
    /// Pairs completed (both calls answered or failed).
    pub pairs: usize,
    /// Operations attempted: two per pair plus one per rollout.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    /// Client-active wall time, seconds.
    pub active_s: f64,
    /// Pairs per second of client-active time in each model epoch.
    pub era_per_s: Vec<f64>,
    /// Latency of every answered `Gateway::score`, microseconds.
    pub score_us: Vec<f64>,
    /// Latency of every `Gateway::explain`, milliseconds; failures count
    /// as infinitely late.
    pub explain_ms: Vec<f64>,
    /// Publish + rollout wall time of each rollout, milliseconds.
    pub rollout_ms: Vec<f64>,
    /// `Registry::publish_model` wall time, milliseconds.
    pub publish_ms: Vec<f64>,
    /// `Gateway::fleet_analytics` wall time, milliseconds.
    pub snapshot_ms: Vec<f64>,
    /// Gateway metrics at the end of the phase.
    pub metrics: GatewayMetrics,
    /// Correctness-gate failures.
    pub failures: Vec<String>,
    served: Vec<Pair>,
    snapshots: Vec<(usize, Result<u32, String>)>,
}

/// Parking gate between the control thread and the clients.
#[derive(Default)]
struct GateState {
    paused: bool,
    stop: bool,
    parked: usize,
    era: usize,
}

#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

impl Gate {
    /// Client side: park while paused. Returns the current era, or `None`
    /// once the phase is over.
    fn enter(&self) -> Option<usize> {
        let mut s = self.state.lock().expect("gate lock");
        if s.paused {
            s.parked += 1;
            self.changed.notify_all();
            while s.paused && !s.stop {
                s = self.changed.wait(s).expect("gate lock");
            }
            s.parked -= 1;
        }
        if s.stop {
            None
        } else {
            Some(s.era)
        }
    }

    /// Control side: pause and wait until every client is parked.
    fn park_all(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.paused = true;
        while s.parked < CLIENTS {
            s = self.changed.wait(s).expect("gate lock");
        }
    }

    /// Control side: resume the clients in `era`.
    fn resume(&self, era: usize) {
        let mut s = self.state.lock().expect("gate lock");
        s.era = era;
        s.paused = false;
        self.changed.notify_all();
    }

    fn stop(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.stop = true;
        self.changed.notify_all();
    }
}

/// Runs the phase against a gateway serving `models[0]`, whose registry
/// watch has seen nothing newer. `rows` are the held-out g-cells.
#[allow(clippy::too_many_arguments)]
pub fn run(
    gateway: &Gateway,
    registry: &Registry,
    watch: &mut RegistryWatch,
    models: &[RandomForest; 2],
    fingerprint: u64,
    rows: &[Vec<f32>],
    mix: Mix,
    seed: u64,
) -> TriageRun {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<u32> = (0..rows.len() as u32).collect();
    order.shuffle(&mut rng);
    let hot: Vec<u32> = order[..HOT_ROWS].to_vec();
    // Distinct rows are drawn in this order, restarting at every epoch
    // (the cache is cleared on a swap, so they miss again).
    let distinct: Vec<u32> = order[HOT_ROWS..].to_vec();
    let next_distinct = AtomicUsize::new(0);
    let gate = Gate::default();
    gate.state.lock().expect("gate lock").paused = true;

    let mut rollout_ms = Vec::new();
    let mut publish_ms = Vec::new();
    let mut snapshot_ms = Vec::new();
    let mut snapshots: Vec<(usize, Result<u32, String>)> = Vec::new();
    let mut failures = Vec::new();
    let mut rollout_failures = 0usize;
    let mut era_active = Vec::with_capacity(mix.rollouts + 1);

    let pairs: Vec<Pair> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (gate, hot, distinct, next_distinct) = (&gate, &hot, &distinct, &next_distinct);
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0x5eed_0000 + c as u64));
                scope.spawn(move || {
                    let mut pairs = Vec::new();
                    while let Some(era) = gate.enter() {
                        let row = if rng.gen_bool(mix.hot_share) {
                            hot[rng.gen_range(0..hot.len())]
                        } else {
                            let k = next_distinct.fetch_add(1, Ordering::Relaxed);
                            distinct[k % distinct.len()]
                        };
                        let request = Request::new(rows[row as usize].clone())
                            .tenant("triage")
                            .key(u64::from(row));
                        let t0 = Instant::now();
                        let score = gateway.score(request.clone());
                        let t1 = Instant::now();
                        let explanation = gateway.explain(&request);
                        let t2 = Instant::now();
                        pairs.push(Pair {
                            row,
                            era,
                            score: score.ok().map(|r| (r.score.to_bits(), r.epoch)),
                            score_us: (t1 - t0).as_secs_f64() * 1e6,
                            explanation: explanation.ok().map(|(e, _)| e),
                            explain_us: (t2 - t1).as_secs_f64() * 1e6,
                        });
                    }
                    pairs
                })
            })
            .collect();

        let interval = Duration::from_secs_f64(mix.secs / (mix.rollouts + 1) as f64);
        for era in 0..=mix.rollouts {
            let resumed = Instant::now();
            gate.resume(era);
            std::thread::sleep(interval);
            gate.park_all();
            era_active.push(resumed.elapsed());

            let t = Instant::now();
            let fleet = gateway.fleet_analytics();
            snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
            snapshots.push((
                era,
                match fleet.as_slice() {
                    [one] if one.provenance.model_epoch == era as u64 + 1 => Ok(one.digest()),
                    other => Err(format!(
                        "fleet analytics returned {} snapshot(s) at epochs {:?}",
                        other.len(),
                        other.iter().map(|s| s.provenance.model_epoch).collect::<Vec<_>>()
                    )),
                },
            ));
            if era == mix.rollouts {
                break;
            }
            let next = SavedModel::Rf(models[(era + 1) % 2].clone());
            let t = Instant::now();
            let published = registry.publish_model(&next, fingerprint);
            let published_at = Instant::now();
            let rolled = published.and_then(|_| gateway.rollout_from_watch(watch));
            let done = Instant::now();
            match rolled {
                Ok(Some(report)) if report.epochs.iter().all(|&e| e == era as u64 + 2) => {
                    publish_ms.push((published_at - t).as_secs_f64() * 1e3);
                    rollout_ms.push((done - t).as_secs_f64() * 1e3);
                }
                other => {
                    rollout_failures += 1;
                    failures.push(format!("triage: rollout {} failed: {other:?}", era + 1));
                }
            }
            next_distinct.store(0, Ordering::Relaxed);
        }
        gate.stop();
        clients.into_iter().flat_map(|c| c.join().expect("client thread panicked")).collect()
    });

    let metrics = gateway.metrics();
    let era_per_s = era_active
        .iter()
        .enumerate()
        .map(|(era, t)| pairs.iter().filter(|p| p.era == era).count() as f64 / t.as_secs_f64())
        .collect();
    let failed = pairs.iter().filter(|p| p.score.is_none()).count()
        + pairs.iter().filter(|p| p.explanation.is_none()).count()
        + rollout_failures;
    TriageRun {
        pairs: pairs.len(),
        attempted: 2 * pairs.len() + mix.rollouts,
        failed,
        active_s: era_active.iter().sum::<Duration>().as_secs_f64(),
        era_per_s,
        score_us: pairs.iter().filter(|p| p.score.is_some()).map(|p| p.score_us).collect(),
        explain_ms: pairs
            .iter()
            .map(|p| if p.explanation.is_some() { p.explain_us / 1e3 } else { f64::INFINITY })
            .collect(),
        rollout_ms,
        publish_ms,
        snapshot_ms,
        metrics,
        failures,
        served: pairs,
        snapshots,
    }
}

impl TriageRun {
    /// Runs the correctness gates (outside any timed or traced region) and
    /// records their failures.
    pub fn verify(&mut self, rows: &[Vec<f32>], models: &[RandomForest; 2]) {
        let stale: u64 =
            self.metrics.shards.iter().map(|s| s.engine.analytics_stale_folds_total).sum();
        if stale != 0 {
            self.failures.push(format!("triage: {stale} analytics folds raced a swap"));
        }
        verify(&self.served, rows, models, &self.snapshots, &mut self.failures);
    }
}

/// Holds every answer to the reference computation of its epoch's model:
/// scores to `predict_proba`, explanations to `explain_forest`, and each
/// epoch's fleet analytics digest to an offline fold of the same rows.
fn verify(
    pairs: &[Pair],
    rows: &[Vec<f32>],
    models: &[RandomForest; 2],
    snapshots: &[(usize, Result<u32, String>)],
    failures: &mut Vec<String>,
) {
    let reference = references(pairs, rows, models);
    let mut wrong_scores = 0usize;
    let mut wrong_explanations = 0usize;
    let mut sinks: HashMap<usize, AnalyticsSink> = HashMap::new();
    for p in pairs {
        let (score, phi) = &reference[&(p.row, p.era % 2)];
        if let Some((bits, epoch)) = p.score {
            if bits != score.to_bits() || epoch != p.era as u64 + 1 {
                wrong_scores += 1;
            }
        }
        if let Some(served) = &p.explanation {
            if !bit_identical(served, phi) {
                wrong_explanations += 1;
            }
            let sink = sinks
                .entry(p.era)
                .or_insert_with(|| AnalyticsSink::new(AnalyticsConfig::default()));
            if let Err(e) = sink.fold(&rows[p.row as usize], &phi.contributions) {
                failures.push(format!("triage: offline analytics fold failed: {e}"));
                return;
            }
        }
    }
    if wrong_scores > 0 {
        failures.push(format!("triage: {wrong_scores} scores differ from predict_proba"));
    }
    if wrong_explanations > 0 {
        failures
            .push(format!("triage: {wrong_explanations} explanations differ from explain_forest"));
    }
    for (era, served) in snapshots {
        let offline = sinks
            .remove(era)
            .unwrap_or_else(|| AnalyticsSink::new(AnalyticsConfig::default()))
            .snapshot(Provenance::default())
            .digest();
        match served {
            Ok(digest) if *digest == offline => {}
            Ok(digest) => failures.push(format!(
                "triage: epoch {} analytics digest {digest:#010x} != offline fold {offline:#010x}",
                era + 1
            )),
            Err(e) => failures.push(format!("triage: epoch {}: {e}", era + 1)),
        }
    }
}

/// `predict_proba` and `explain_forest` for every distinct `(row, model)`
/// the clients touched, computed on [`CLIENTS`] threads.
fn references(
    pairs: &[Pair],
    rows: &[Vec<f32>],
    models: &[RandomForest; 2],
) -> HashMap<(u32, usize), (f64, Explanation)> {
    let mut keys: Vec<(u32, usize)> = pairs.iter().map(|p| (p.row, p.era % 2)).collect();
    keys.sort_unstable();
    keys.dedup();
    let chunk = keys.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&(row, m)| {
                            let x = &rows[row as usize];
                            ((row, m), (models[m].predict_proba(x), explain_forest(&models[m], x)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("reference thread panicked")).collect()
    })
}

fn bit_identical(a: &Explanation, b: &Explanation) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.base_value.to_bits() == b.base_value.to_bits()
        && a.prediction.to_bits() == b.prediction.to_bits()
        && bits(&a.contributions) == bits(&b.contributions)
}
