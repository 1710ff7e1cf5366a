//! Measuring tools shared by every workload: in-memory spans, the timed cycle
//! loop, percentiles, peak RSS and the FNV-64 state digest. Nothing here
//! knows a workspace type; `drive.rs` supplies the calls that get measured.

use std::time::Instant;

/// One recorded span. `parent` is the `id` of the enclosing span, 0 for a
/// root; ids are 1-based in recording order.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The benchmark's own span recorder: spans are kept in memory and written
/// out once, at exit. Recording can be switched off (`on = false`), in which
/// case `enter`/`exit` cost one branch — end-to-end metrics are measured that
/// way, and the traced run alternates cycles with it on and off to price the
/// spans themselves.
#[derive(Debug)]
pub struct Spans {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        if let Some(id) = self.open.pop() {
            self.spans[id as usize - 1].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every closed span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// One JSON object per line: `{id, parent, name, start_ns, end_ns}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// How long the timed loop runs: for a wall-clock budget (the `--seconds`
/// contract) or for the workload's fixed cycle count (exactly repeatable
/// simulated statistics). Either way it runs at least two whole epochs, so
/// every run has a completed epoch after the first, and stops a third of the
/// way into an epoch: at an epoch boundary every estimate has just been reset
/// to its local value, and a digest or an oracle comparison of the final
/// estimates would compare nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    Seconds(f64),
    Cycles(usize),
}

/// What one cycle of a workload reports back to the timed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleOut {
    /// Exchanges initiated this cycle.
    pub exchanges: u64,
    /// Variance of the AVG estimates after the cycle.
    pub variance: f64,
}

/// One timing sample: a cycle (or, on the UDP workload, a round trip).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ns: u64,
    pub exchanges: u64,
    /// Whether the benchmark's spans were recording during the sample.
    pub spans_on: bool,
}

/// Result of [`timed_loop`].
#[derive(Debug, Default)]
pub struct Timed {
    pub samples: Vec<Sample>,
    pub variances: Vec<f64>,
    pub timed_ns: u64,
    pub exchanges: u64,
    pub cycles: usize,
}

/// Runs `step` once per cycle until the budget is spent, timing each call.
/// In a traced run (`spans.on` at entry) recording is switched off during
/// even cycles, so the same run prices the spans against itself on like
/// cycles (every epoch-restart cycle is odd, so all of those are recorded).
pub fn timed_loop(
    budget: Budget,
    cycles_per_epoch: usize,
    spans: &mut Spans,
    mut step: impl FnMut(&mut Spans, usize) -> CycleOut,
) -> Timed {
    let traced = spans.on;
    let mut timed = Timed::default();
    let started = Instant::now();
    loop {
        let (epoch, in_epoch) = (
            timed.cycles / cycles_per_epoch,
            timed.cycles % cycles_per_epoch,
        );
        if in_epoch == cycles_per_epoch / 3 && epoch >= 2 {
            let spent = match budget {
                Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
                Budget::Cycles(c) => timed.cycles >= c,
            };
            if spent {
                break;
            }
        }
        spans.on = traced && timed.cycles % 2 == 1;
        let t0 = Instant::now();
        let out = step(spans, timed.cycles);
        let ns = t0.elapsed().as_nanos() as u64;
        timed.samples.push(Sample {
            ns,
            exchanges: out.exchanges,
            spans_on: spans.on,
        });
        timed.variances.push(out.variance);
        timed.exchanges += out.exchanges;
        timed.cycles += 1;
    }
    timed.timed_ns = started.elapsed().as_nanos() as u64;
    spans.on = traced;
    timed
}

/// Geometric mean of σ²ᵢ₊₁/σ²ᵢ over in-epoch cycles. `variances[i]` is taken
/// after cycle `i`; the cycle that completes an epoch reports the restarted
/// (initial) variance of the next one, so it starts a chain instead of
/// extending one.
pub fn convergence_factor(variances: &[f64], cycles_per_epoch: usize) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for i in 1..variances.len() {
        let completes_epoch = (i + 1) % cycles_per_epoch == 0;
        if completes_epoch || variances[i - 1] <= 1e-18 || variances[i] <= 0.0 {
            continue;
        }
        log_sum += (variances[i] / variances[i - 1]).ln();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; NaN when
/// empty. Sorts a copy.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Run-to-run spread of one metric: the distance between the first and the
/// third quartile as a share of the median, the quartiles taken as Python's
/// `statistics.quantiles(values, n=4)` takes them. 0 for fewer than two runs,
/// which have no spread to show.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / quartile(2)
}

/// Fixed-memory histogram of durations at 1 ns resolution, for the workload
/// that times millions of round trips (a sample vector would make peak RSS
/// grow with the box's speed). Durations past the last bucket land in it.
#[derive(Debug)]
pub struct NsHistogram {
    counts: Vec<u32>,
    total: u64,
}

impl NsHistogram {
    /// 2¹⁷ ns ≈ 131 µs: fifty times a loopback round trip.
    const BUCKETS: usize = 1 << 17;

    pub fn new() -> Self {
        NsHistogram {
            counts: vec![0; Self::BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[(ns as usize).min(Self::BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// The smallest duration with at least a `q` share of samples at or
    /// below it; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (ns, &count) in self.counts.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return ns as f64;
            }
        }
        (Self::BUCKETS - 1) as f64
    }
}

/// Times `iters` calls of `f` and returns ns per call, as the median of five
/// batches (a probe shares the box with nothing, but the box has weather).
pub fn probe_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Peak resident set of this process in MB (`VmHWM`), NaN off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// FNV-1a over the bit patterns of the estimates: the state digest printed
/// beside every run and compared across sets by `compare`.
pub fn state_digest(estimates: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for value in estimates {
        for byte in value.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_to_their_parent() {
        let mut spans = Spans::new(true);
        spans.enter("outer");
        spans.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.exit();
        let all = spans.all();
        assert_eq!((all[0].id, all[0].parent), (1, 0));
        assert_eq!((all[1].id, all[1].parent, all[1].name), (2, 1, "inner"));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        assert_eq!(spans.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn spans_record_nothing_when_off() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.span("x", || 7), 7);
        assert!(spans.all().is_empty());
    }

    #[test]
    fn convergence_factor_skips_the_restart_cycle() {
        // Two epochs of 3 cycles, halving each cycle; index 2 and 5 hold the
        // restarted variance.
        let v = [50.0, 25.0, 100.0, 50.0, 25.0, 100.0];
        assert!((convergence_factor(&v, 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn timed_loop_stops_a_third_into_an_epoch_after_two_epochs() {
        let mut spans = Spans::new(false);
        let timed = timed_loop(Budget::Cycles(1), 6, &mut spans, |_, _| CycleOut {
            exchanges: 3,
            variance: 1.0,
        });
        assert_eq!((timed.cycles, timed.exchanges), (14, 42));
        let timed = timed_loop(Budget::Cycles(15), 6, &mut spans, |_, _| {
            CycleOut::default()
        });
        assert_eq!(timed.cycles, 20);
    }

    #[test]
    fn histogram_quantiles_are_exact_to_the_nanosecond() {
        let mut h = NsHistogram::new();
        assert!(h.quantile(0.5).is_nan());
        for ns in 1..=100 {
            h.record(ns);
        }
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.5), 51.0);
        assert_eq!(h.quantile(0.9), 91.0);
        assert_eq!(h.quantile(1.0), (NsHistogram::BUCKETS - 1) as f64);
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        assert_eq!(quartile_spread(&[4.0, 11.0, 1.0, 7.0, 2.0]), 7.5 / 4.0);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert_eq!(quartile_spread(&[12.0, 10.0]), 3.0 / 11.0);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
