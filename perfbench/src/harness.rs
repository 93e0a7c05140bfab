//! What every workload shares: the command line, the operation and
//! metric ledger each workload fills in, order statistics, and the span
//! recorder behind the traced per-layer numbers.

use std::time::{Duration, Instant};

/// The benchmark's command line:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
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

    /// The measured window as a duration.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One workload's result: operations attempted and failed, whether
/// every output check held, and the metrics in report order.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable description of each failed check (printed to
    /// stderr; the count goes into `failed`).
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Count one operation; `ok = false` counts it as failed and keeps
    /// `why` for the error log.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A metric value as JSON. Rust's `Display` for `f64` is the shortest
/// text that parses back to the same bits, so every measured digit
/// survives. JSON has no infinity; an unbounded latency (a failed
/// request inside a percentile) prints as the largest finite double.
pub fn json_number(v: f64) -> String {
    if v.is_infinite() {
        format!("{}", f64::MAX.copysign(v))
    } else {
        format!("{v}")
    }
}

/// Nearest-rank quantile of `samples` (`q` in 0..=1); sorts in place.
/// `+∞` samples (failed operations) sort last.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Run `body` repeatedly until `window` has elapsed (at least
/// `min_reps` times), returning each repetition's wall time in
/// seconds.
pub fn repeat_for(window: Duration, min_reps: usize, mut body: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed() < window {
        let t0 = Instant::now();
        body();
        reps.push(t0.elapsed().as_secs_f64());
    }
    reps
}

/// One timed repetition: its wall time, and the same time corrected
/// for the host's speed around it.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    pub wall_s: f64,
    pub corrected_s: f64,
}

/// Times repetitions between runs of the host-speed probe
/// ([`crate::host::speed_probe`]): every repetition is bracketed by the
/// probe before and after it, and its corrected time is its wall time
/// scaled by the reference probe time over the geometric mean of the
/// two probes. The end-to-end times of the CPU-bound workloads are the
/// corrected ones.
pub struct Probed {
    last_probe_s: f64,
}

impl Probed {
    pub fn start() -> Probed {
        Probed {
            last_probe_s: crate::host::speed_probe(),
        }
    }

    /// Time one call of `f`, then probe the host again.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Rep) {
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let probe_s = crate::host::speed_probe();
        let around_s = (self.last_probe_s * probe_s).sqrt();
        self.last_probe_s = probe_s;
        let corrected_s = wall_s * crate::host::PROBE_REFERENCE_S / around_s;
        (
            out,
            Rep {
                wall_s,
                corrected_s,
            },
        )
    }

    /// Run `body` repeatedly until `window` has elapsed (at least
    /// `min_reps` times), returning every repetition.
    pub fn repeat_for(
        &mut self,
        window: Duration,
        min_reps: usize,
        mut body: impl FnMut(),
    ) -> Vec<Rep> {
        let start = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < min_reps || start.elapsed() < window {
            reps.push(self.time(&mut body).1);
        }
        reps
    }
}

/// Set-up timing: the workload sets itself up `n` times, each set-up
/// bracketed by host-speed probes like a timed repetition, and reports
/// the median corrected time, so one slow phase of the host does not
/// decide the figure. Returns the last set-up's state.
pub fn timed_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut clock = Probed::start();
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        // Drop the previous state before building the next, so the
        // repetitions do not stack up memory or server threads.
        drop(last.take());
        let (state, rep) = clock.time(&mut setup);
        last = Some(state);
        times.push(rep.corrected_s);
    }
    (last.expect("at least one set-up"), median(&mut times))
}

/// One recorded span: a layer call made by the benchmark's own code.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Spans nest through an explicit stack; the
/// ledger is written out (to stderr) once the run ends.
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Ledger {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Total duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Self time of every span called `name`: its duration minus the
    /// part its child spans cover, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut total = 0i64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            total += (s.end_ns - s.start_ns) as i64 - children as i64;
        }
        total as f64 / 1e6
    }

    /// The spans as one JSON line (name, parent index, start, end).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("{{\"spans\":[{}]}}", rows.join(","))
    }
}

/// Counter value from a dc-obs snapshot (0 when never touched).
pub fn obs_counter(report: &dc_obs::ObsReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// `(count, sum_ns)` of a dc-obs timer histogram.
pub fn obs_timer(report: &dc_obs::ObsReport, name: &str) -> (u64, u64) {
    report
        .timers
        .iter()
        .find(|t| t.name == name)
        .map_or((0, 0), |t| (t.hist.count, t.hist.sum_ns))
}

/// Sum of `sum_ns` over the dc-obs timers whose name starts with
/// `prefix` and satisfies `keep`.
pub fn obs_timer_sum(report: &dc_obs::ObsReport, prefix: &str, keep: impl Fn(&str) -> bool) -> u64 {
    report
        .timers
        .iter()
        .filter(|t| t.name.starts_with(prefix) && keep(&t.name[prefix.len()..]))
        .map(|t| t.hist.sum_ns)
        .sum()
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
