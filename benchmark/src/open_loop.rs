//! Open-loop scoring: Poisson arrivals of held-out g-cell rows through
//! `ServeEngine::submit` and their tickets. The benchmark's main thread
//! submits on a seeded schedule and collects the answers in between.
//! Every request is timed from when it was *due*, so a stalled generator
//! or engine charges its delay to every request behind it. A saturation
//! step then measures the engine's capacity.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use drcshap_ml::DrcshapError;
use drcshap_serve::{ScoredResponse, ServeEngine, Ticket};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::{median, quantile, window_quantiles};

/// Scoring latency limit: a rate meets it when its tail latency (failed
/// requests counting as over the limit) and the median latency of its
/// last window stay within it.
pub const LATENCY_LIMIT_US: f64 = 10_000.0;
/// A step whose generator ran later than this at its tail measured the
/// generator as well as the engine; the step does not meet the limit.
/// Its latencies still stand: they are timed from the due time, so the
/// lateness is charged to them.
pub const LATENESS_BOUND_US: f64 = LATENCY_LIMIT_US;
/// Tail quantiles are taken per window of this many seconds and the median
/// over the windows reported, so one multi-millisecond stall of the
/// (shared, virtualised) host moves one window, not the whole step.
pub const TAIL_WINDOW_S: f64 = 0.25;
/// Windows with fewer samples than this are left out of the tail, so a
/// window's p99 always has at least ten samples beyond it.
const TAIL_MIN_SAMPLES: usize = 1000;
/// Windows with fewer samples than this are left out of the windowed median.
const MEDIAN_MIN_SAMPLES: usize = 100;

/// One measured step of the open loop at a fixed offered rate.
pub struct Step {
    /// Requests the generator attempted.
    pub attempted: usize,
    /// `(due offset s, due-to-answer latency us)` of every request, in due
    /// order; failed requests are recorded as infinitely late.
    pub latency_us: Vec<(f64, f64)>,
    /// `(due offset s, how late the generator submitted it us)`.
    pub lateness_us: Vec<(f64, f64)>,
    /// Duration of each `submit` call, microseconds.
    pub submit_us: Vec<f64>,
    /// From the first request's due time to the last answer, seconds.
    pub span_s: f64,
    /// `(row, score bits, epoch)` of every answered request.
    pub answers: Vec<(u32, u64, u64)>,
    /// Sum of the batch sizes the answers reported.
    pub batch_sum: u64,
}

/// Latency and throughput of one rate over one or more steps.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Requests attempted.
    pub requests: usize,
    /// Requests answered with a score.
    pub ok: usize,
    /// Median latency over every request of every step.
    pub p50_us: f64,
    /// p99 per [`TAIL_WINDOW_S`] window, median over every step's windows.
    pub p99_us: f64,
    /// Median per window, median over every step's windows.
    pub window_p50_us: f64,
    /// p99 over every request, for comparison with the windowed tail.
    pub p99_pooled_us: f64,
    /// Windowed p99 generator lateness, median over the windows.
    pub lateness_p99_us: f64,
    /// Largest median latency of any step's last window: a backlog that
    /// grows through a step shows here.
    pub last_window_p50_us: f64,
    /// Answered requests per second of step time.
    pub delivered_per_s: f64,
    /// Mean engine batch size the answers were flushed in.
    pub mean_batch: f64,
    /// Median duration of a `ServeEngine::submit` call.
    pub submit_p50_us: f64,
}

impl Summary {
    /// Summarizes steps run at the same rate.
    pub fn of(steps: &[&Step]) -> Summary {
        let requests = steps.iter().map(|s| s.attempted).sum();
        let ok = steps.iter().map(|s| s.answers.len()).sum();
        let latencies: Vec<f64> =
            steps.iter().flat_map(|s| s.latency_us.iter().map(|l| l.1)).collect();
        let windows: Vec<f64> = steps
            .iter()
            .flat_map(|s| window_quantiles(&s.latency_us, 0.99, TAIL_WINDOW_S, TAIL_MIN_SAMPLES))
            .collect();
        let lateness: Vec<f64> = steps
            .iter()
            .flat_map(|s| window_quantiles(&s.lateness_us, 0.99, TAIL_WINDOW_S, TAIL_MIN_SAMPLES))
            .collect();
        let last_window_p50_us = steps
            .iter()
            .map(|s| {
                let end = s.latency_us.last().map_or(0.0, |l| l.0);
                let last: Vec<f64> = s
                    .latency_us
                    .iter()
                    .filter(|l| l.0 >= end - TAIL_WINDOW_S)
                    .map(|l| l.1)
                    .collect();
                median(&last)
            })
            .fold(0.0, f64::max);
        let p99_pooled_us = quantile(&latencies, 0.99).unwrap_or(f64::INFINITY);
        let span: f64 = steps.iter().map(|s| s.span_s).sum();
        let batches: u64 = steps.iter().map(|s| s.batch_sum).sum();
        let submit: Vec<f64> = steps.iter().flat_map(|s| s.submit_us.iter().copied()).collect();
        Summary {
            requests,
            ok,
            p50_us: quantile(&latencies, 0.5).unwrap_or(f64::INFINITY),
            p99_us: if windows.is_empty() { p99_pooled_us } else { median(&windows) },
            window_p50_us: median(
                &steps
                    .iter()
                    .flat_map(|s| {
                        window_quantiles(&s.latency_us, 0.5, TAIL_WINDOW_S, MEDIAN_MIN_SAMPLES)
                    })
                    .collect::<Vec<_>>(),
            ),
            p99_pooled_us,
            lateness_p99_us: median(&lateness),
            last_window_p50_us,
            delivered_per_s: if span > 0.0 { ok as f64 / span } else { 0.0 },
            mean_batch: if ok > 0 { batches as f64 / ok as f64 } else { 0.0 },
            submit_p50_us: median(&submit),
        }
    }

    /// Whether the rate meets the latency limit: nothing failed, the
    /// generator kept up, the windowed p99 and the last window's median
    /// stay within the limit.
    pub fn meets_limit(&self) -> bool {
        self.ok == self.requests
            && self.lateness_p99_us <= LATENESS_BOUND_US
            && self.p99_us <= LATENCY_LIMIT_US
            && self.last_window_p50_us <= LATENCY_LIMIT_US
    }
}

/// A seeded Poisson schedule: `(due offset, row index)` pairs.
fn schedule(rate: f64, secs: f64, n_rows: usize, seed: u64) -> Vec<(Duration, u32)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= secs {
            return out;
        }
        out.push((Duration::from_secs_f64(t), rng.gen_range(0..n_rows) as u32));
    }
}

/// Runs one step of `secs` seconds at `rate` requests per second over
/// `rows` from the calling thread alone, then waits until every submitted
/// request is answered. Until a request is due the thread polls the oldest
/// ticket and yields: a sleeping thread wakes late on a shared VM, a second
/// thread blocked on the tickets would add its own wake-up to every
/// answer, and a thread that spins without yielding keeps the engine
/// worker off its vCPU.
pub fn run_step(engine: &ServeEngine, rows: &[Vec<f32>], rate: f64, secs: f64, seed: u64) -> Step {
    let plan = schedule(rate, secs, rows.len(), seed);
    let mut step = Step {
        attempted: plan.len(),
        latency_us: Vec::with_capacity(plan.len()),
        lateness_us: Vec::with_capacity(plan.len()),
        submit_us: Vec::with_capacity(plan.len()),
        span_s: 0.0,
        answers: Vec::with_capacity(plan.len()),
        batch_sum: 0,
    };
    let mut pending = VecDeque::new();
    let start = Instant::now();
    for &(offset, row) in &plan {
        let due = start + offset;
        while Instant::now() < due {
            step.poll(start, &mut pending);
            std::thread::yield_now();
        }
        let sent = Instant::now();
        let ticket = engine.submit(rows[row as usize].clone());
        let submitted = Instant::now();
        step.lateness_us.push((offset.as_secs_f64(), (sent - due).as_secs_f64() * 1e6));
        step.submit_us.push((submitted - sent).as_secs_f64() * 1e6);
        match ticket {
            Ok(ticket) => pending.push_back((row, due, ticket)),
            Err(e) => step.record(start, row, due, Err(e)),
        }
    }
    while !pending.is_empty() {
        step.poll(start, &mut pending);
        std::thread::yield_now();
    }
    step
}

impl Step {
    /// Records every answered request at the front of `pending`; the
    /// engine answers in submission order.
    fn poll(&mut self, start: Instant, pending: &mut VecDeque<(u32, Instant, Ticket)>) {
        while let Some((row, due, ticket)) = pending.front() {
            let Some(answer) = ticket.wait_for(Duration::ZERO) else { return };
            let (row, due) = (*row, *due);
            pending.pop_front();
            self.record(start, row, due, answer);
        }
    }

    /// Records one request's answer, timed from when it was due.
    fn record(
        &mut self,
        start: Instant,
        row: u32,
        due: Instant,
        answer: Result<ScoredResponse, DrcshapError>,
    ) {
        let done = Instant::now();
        self.span_s = (done - start).as_secs_f64();
        let offset = (due - start).as_secs_f64();
        match answer {
            Ok(r) => {
                self.latency_us.push((offset, (done - due).as_secs_f64() * 1e6));
                self.answers.push((row, r.score.to_bits(), r.epoch));
                self.batch_sum += r.batch_size as u64;
            }
            Err(_) => self.latency_us.push((offset, f64::INFINITY)),
        }
    }
}

/// Requests the saturation step keeps in flight: enough to keep every
/// batch full, well under the engine's queue capacity.
pub const SATURATION_WINDOW: usize = 1024;

/// The engine's capacity, measured with its queue kept full.
pub struct Saturation {
    /// Requests submitted.
    pub attempted: usize,
    /// Answered requests per second of CPU time the engine's workers ran:
    /// the rate one worker sustains on a core of its own.
    pub per_worker_cpu_s: f64,
    /// Answered requests per second, median over [`TAIL_WINDOW_S`]
    /// windows of completion time (the first window, while the queue
    /// fills, left out).
    pub delivered_per_s: f64,
    /// The per-window rates the median was taken over.
    pub window_rates: Vec<f64>,
    /// `(row, score bits, epoch)` of every answered request.
    pub answers: Vec<(u32, u64, u64)>,
}

/// Runs the engine flat out for `secs` seconds from the calling thread
/// alone: it submits seeded rows without pause while fewer than
/// [`SATURATION_WINDOW`] wait for an answer, and otherwise waits for the
/// oldest. With one load thread the engine worker keeps a vCPU to itself.
pub fn run_saturated(engine: &ServeEngine, rows: &[Vec<f32>], secs: f64, seed: u64) -> Saturation {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut in_flight = VecDeque::with_capacity(SATURATION_WINDOW);
    let mut attempted = 0;
    let mut done_s = Vec::new();
    let mut answers = Vec::new();
    let cpu_before = serve_worker_cpu_s();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(secs);
    let mut collect = |(row, ticket): (u32, Result<Ticket, DrcshapError>)| {
        if let Ok(r) = ticket.and_then(|t| t.wait()) {
            done_s.push(start.elapsed().as_secs_f64());
            answers.push((row, r.score.to_bits(), r.epoch));
        }
    };
    while Instant::now() < stop {
        if in_flight.len() == SATURATION_WINDOW {
            collect(in_flight.pop_front().expect("the window is full"));
        }
        let row = rng.gen_range(0..rows.len());
        in_flight.push_back((row as u32, engine.submit(rows[row].clone())));
        attempted += 1;
    }
    in_flight.into_iter().for_each(collect);
    let worker_cpu_s = serve_worker_cpu_s() - cpu_before;
    let windows = (secs / TAIL_WINDOW_S).floor() as usize;
    let mut counts = vec![0usize; windows];
    for t in done_s {
        if let Some(c) = counts.get_mut((t / TAIL_WINDOW_S) as usize) {
            *c += 1;
        }
    }
    let window_rates: Vec<f64> = counts.iter().skip(1).map(|&c| c as f64 / TAIL_WINDOW_S).collect();
    Saturation {
        attempted,
        per_worker_cpu_s: answers.len() as f64 / worker_cpu_s,
        delivered_per_s: median(&window_rates),
        window_rates,
        answers,
    }
}

/// CPU time, seconds, of every `ServeEngine` worker thread of this process
/// (named `drcshap-serve-<i>`), from the scheduler's nanosecond run-time
/// account, which leaves out time the hypervisor stole from the vCPU.
fn serve_worker_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0.0 };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|c| c.starts_with("drcshap-serve-"))
        })
        .filter_map(|t| {
            let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .map(|ns| ns as f64 / 1e9)
        .sum()
}
