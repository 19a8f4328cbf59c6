//! Percentiles, the host-speed gauge and probe, failure accounting and the
//! JSON result line.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort in place and return the median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Samples strictly above the `q` quantile: how well that quantile is
/// supported.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let v = quantile(sorted, q);
    sorted.len() - sorted.partition_point(|&x| x <= v)
}

/// Timing samples of one kind with the phase time each was taken at, in
/// buffers allocated and touched before the clock (so the process's peak
/// memory does not grow with how many samples a run takes); samples beyond
/// their capacity are dropped.
pub struct Series {
    values: Vec<f64>,
    at_s: Vec<f64>,
}

impl Series {
    pub fn with_capacity(n: usize) -> Self {
        // A nonzero fill: zeroed memory would stay unmapped until used.
        let buffer = || {
            let mut v = vec![-1.0; n];
            v.clear();
            v
        };
        Series { values: buffer(), at_s: buffer() }
    }

    /// Add a sample taken `at_s` seconds into the phase (see [`Gauge::t`]).
    #[inline]
    pub fn push(&mut self, v: f64, at_s: f64) {
        if self.values.len() < self.values.capacity() {
            self.values.push(v);
            self.at_s.push(at_s);
        }
    }

    pub fn clear(&mut self) {
        self.values.clear();
        self.at_s.clear();
    }

    /// Every sample as measured, sorted.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q` quantile of the samples as measured, or each scaled by the
    /// gauge's scale at the time it was taken.
    pub fn quantile(&self, q: f64, gauge: Option<&Gauge>) -> f64 {
        let mut v: Vec<f64> = match gauge {
            None => self.values.clone(),
            Some(g) => {
                self.values.iter().zip(&self.at_s).map(|(v, &t)| v * g.scale_at(t)).collect()
            }
        };
        v.sort_by(f64::total_cmp);
        quantile(&v, q)
    }
}

/// Entries of the cache gauge's table: 1 MiB, half a core's private
/// cache on the development host.
const CACHE_LEN: usize = 1 << 18;
/// Hops of one cache-gauge slice.
const CACHE_HOPS: usize = 1 << 11;
/// Cache-gauge speed of the reference host, in million hops per second.
const CACHE_REF: f64 = 100.0;
/// Round trips of one loopback-gauge slice, and their size.
const LOOPBACK_TRIPS: usize = 8;
const LOOPBACK_BYTES: usize = 512;
/// Loopback-gauge speed of the reference host, in thousand round trips
/// per second.
const LOOPBACK_REF: f64 = 200.0;
/// A gauge slice is due this often during a timed phase.
const GAUGE_EVERY: Duration = Duration::from_millis(20);
/// A sample is scaled by the median of the slices within this many
/// seconds of it, before and after: the host's speed holds for a few
/// hundred milliseconds at a time.
const GAUGE_REACH_S: f64 = 0.1;

/// The cache gauge's table, built once: a random cyclic permutation of
/// `0..CACHE_LEN`, each entry naming the next one to load, so every hop
/// waits for the one before.
fn cache_table() -> &'static [u32] {
    static TABLE: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut next: Vec<u32> = (0..CACHE_LEN as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        // Sattolo's shuffle: one cycle through every entry.
        for i in (1..CACHE_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        next
    })
}

/// The fixed reference task a gauge times.
enum Task {
    /// Read a 1 MiB table into the cache, then time dependent loads
    /// chasing a random cycle through it (million hops per second).
    Cache { table: &'static [u32], at: u32 },
    /// Time round trips of a small message through a loopback TCP
    /// connection whose two ends the gauge holds (thousand round trips per
    /// second): the kernel's socket path on this CPU.
    Loopback { client: TcpStream, server: TcpStream, buf: Vec<u8> },
}

/// One gauge slice: when it ran (seconds into the phase) and its speed
/// over the reference host's.
#[derive(Clone, Copy)]
struct Slice {
    start_s: f64,
    end_s: f64,
    scale: f64,
}

/// Host-speed gauge. On a shared virtual machine the same code runs at
/// speeds up to about 1.9x apart, in stretches of a few hundred
/// milliseconds to many minutes: with the core's clock, with what the
/// core's other hardware thread runs, with how much of the core's private
/// cache the program keeps, all of which neighbours on the host change. A
/// run's figures follow whichever stretches it drew. The gauge times fixed
/// reference tasks in short slices interleaved with a timed phase. The
/// loopback task (kernel socket code) tracked `paper-tenants`, whose
/// rounds are mostly socket work, closely on the development host
/// (correlation 0.85 to 0.99 over 3 s episodes, through a stretch in which
/// both ran 1.9x faster). The cache task alone under-corrected
/// `wide-frames` (program 1.8x faster between two stretches, task 1.5x),
/// so that workload's slices take the geometric mean of the cache and the
/// loopback task. A sample is scaled by the median scale of the slices
/// around it — a slice's speed over the reference host's, below 1 on a
/// slower host — and phase time likewise, so a slow stretch of the host
/// slows the gauge and the program alike and cancels, while a change to
/// the program moves only the program's side. The program never runs while
/// a slice is timed; the cache task reads its table in before timing, so
/// what the program left in the cache does not move it.
pub struct Gauge {
    tasks: Vec<Task>,
    origin: Instant,
    slices: Vec<Slice>,
    /// Per slice: the median scale of the slices within reach.
    smooth: Vec<f64>,
    next: Instant,
    end_s: f64,
}

impl Task {
    fn loopback() -> Result<Task, String> {
        let e = |e: std::io::Error| e.to_string();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(e)?;
        let client = TcpStream::connect(listener.local_addr().map_err(e)?).map_err(e)?;
        let (server, _) = listener.accept().map_err(e)?;
        for s in [&client, &server] {
            s.set_nodelay(true).map_err(e)?;
            s.set_read_timeout(Some(Duration::from_secs(5))).map_err(e)?;
        }
        Ok(Task::Loopback { client, server, buf: vec![0x5A; LOOPBACK_BYTES] })
    }

    /// Run the task once: when its timing started and ended, and its speed
    /// over the reference host's (`None` when a socket failed).
    fn run(&mut self) -> Option<(Instant, Instant, f64)> {
        match self {
            Task::Cache { table, at } => {
                // One load per cache line reads the table in.
                let warm = table.iter().step_by(16).fold(0u32, |a, &v| a.wrapping_add(v));
                let mut next = std::hint::black_box(warm ^ *at) % CACHE_LEN as u32;
                let t0 = Instant::now();
                for _ in 0..CACHE_HOPS {
                    next = table[next as usize];
                }
                let t1 = Instant::now();
                *at = std::hint::black_box(next);
                Some((t0, t1, CACHE_HOPS as f64 / (t1 - t0).as_secs_f64() / 1e6 / CACHE_REF))
            }
            Task::Loopback { client, server, buf } => {
                let t0 = Instant::now();
                for _ in 0..LOOPBACK_TRIPS {
                    client.write_all(buf).and_then(|_| server.read_exact(buf)).ok()?;
                }
                let t1 = Instant::now();
                Some((t0, t1, LOOPBACK_TRIPS as f64 / (t1 - t0).as_secs_f64() / 1e3 / LOOPBACK_REF))
            }
        }
    }
}

impl Gauge {
    fn with_tasks(tasks: Vec<Task>) -> Self {
        let now = Instant::now();
        let mut g = Gauge {
            tasks,
            origin: now,
            slices: Vec::with_capacity(1 << 16),
            smooth: Vec::with_capacity(1 << 16),
            next: now,
            end_s: 0.0,
        };
        g.reset();
        g
    }

    /// A gauge timing the loopback task, started.
    pub fn loopback() -> Result<Self, String> {
        Ok(Gauge::with_tasks(vec![Task::loopback()?]))
    }

    /// A gauge timing the cache and the loopback task, started: a slice's
    /// scale is the geometric mean of the two.
    pub fn cache_and_loopback() -> Result<Self, String> {
        let cache = Task::Cache { table: cache_table(), at: 0 };
        Ok(Gauge::with_tasks(vec![cache, Task::loopback()?]))
    }

    /// Seconds from the phase's start to `at`.
    #[inline]
    pub fn t(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Run one slice and record it. A slice in which a loopback socket
    /// failed records nothing.
    pub fn slice(&mut self) {
        self.next = Instant::now() + GAUGE_EVERY;
        let mut span: Option<(Instant, Instant)> = None;
        let mut log_scale = 0.0;
        for task in &mut self.tasks {
            let Some((t0, t1, scale)) = task.run() else { return };
            span = Some((span.map_or(t0, |s| s.0), t1));
            log_scale += scale.ln();
        }
        if let Some((t0, t1)) = span {
            if self.slices.len() < self.slices.capacity() {
                let scale = (log_scale / self.tasks.len() as f64).exp();
                self.slices.push(Slice { start_s: self.t(t0), end_s: self.t(t1), scale });
            }
        }
        self.next = Instant::now() + GAUGE_EVERY;
    }

    /// Run a slice when one is due.
    #[inline]
    pub fn tick(&mut self, now: Instant) {
        if now >= self.next {
            self.slice();
        }
    }

    /// Start a phase now: forget the slices and take a few fresh ones,
    /// after one more that only warms the tasks up (the first slice after
    /// a pause runs cold).
    pub fn reset(&mut self) {
        self.slice();
        self.origin = Instant::now();
        self.slices.clear();
        self.smooth.clear();
        for _ in 0..3 {
            self.slice();
        }
        self.end_s = 0.0;
    }

    /// End the phase at `now`, with a last few slices, and smooth the
    /// slices' scales.
    pub fn close(&mut self, now: Instant) {
        self.end_s = self.t(now);
        for _ in 0..3 {
            self.slice();
        }
        let s = &self.slices;
        let (mut lo, mut hi) = (0, 0);
        self.smooth.clear();
        for i in 0..s.len() {
            while s[lo].start_s < s[i].start_s - GAUGE_REACH_S {
                lo += 1;
            }
            while hi < s.len() && s[hi].start_s <= s[i].start_s + GAUGE_REACH_S {
                hi += 1;
            }
            self.smooth.push(median(&mut s[lo..hi].iter().map(|x| x.scale).collect::<Vec<_>>()));
        }
    }

    /// The scale at `t_s` seconds into the closed phase: that of the slice
    /// nearest in time (1 when no slice ran).
    pub fn scale_at(&self, t_s: f64) -> f64 {
        let i = self.slices.partition_point(|x| x.start_s < t_s);
        let nearer = match (i.checked_sub(1), self.slices.get(i)) {
            (Some(p), Some(n)) if t_s - self.slices[p].end_s <= n.start_s - t_s => p,
            (Some(p), _) => p,
            _ => i,
        };
        self.smooth.get(nearer).copied().unwrap_or(1.0)
    }

    /// Phase time outside slices up to the close, as measured or scaled.
    pub fn phase_s(&self, scaled: bool) -> f64 {
        let mut total = 0.0;
        let mut add = |from: f64, to: f64| {
            if to > from {
                total += (to - from) * if scaled { self.scale_at((from + to) / 2.0) } else { 1.0 };
            }
        };
        let mut from = 0.0;
        for x in &self.slices {
            if from >= self.end_s {
                break;
            }
            add(from, x.start_s.min(self.end_s));
            from = f64::max(from, x.end_s);
        }
        add(from, self.end_s);
        total
    }

    /// The median scale of the slices since the last reset.
    pub fn scale(&self) -> f64 {
        median(&mut self.slices.iter().map(|x| x.scale).collect::<Vec<_>>())
    }
}

/// A fixed dependent-multiply chain: millions of steps per second on this
/// host right now. Run around every timed phase so a slow host phase can be
/// told apart from a regression.
pub fn spin_mops() -> f64 {
    const STEPS: u64 = 8_000_000;
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..STEPS {
        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x1405_7B7E_F767_814F);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    STEPS as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Operations attempted and failed, per phase, plus correctness failures.
#[derive(Default)]
pub struct Ledger {
    phases: Vec<(&'static str, u64, u64)>,
    mismatches: Vec<String>,
}

impl Ledger {
    /// Account one phase's operations.
    pub fn phase(&mut self, name: &'static str, attempted: u64, failed: u64) {
        self.phases.push((name, attempted, failed));
    }

    /// Record a correctness failure (output that differs from its
    /// reference, or an invariant that does not hold).
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Check `cond`, recording `what` when it fails.
    pub fn check(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.mismatch(what());
        }
    }

    fn totals(&self) -> (u64, u64) {
        self.phases.iter().fold((0, 0), |(a, f), p| (a + p.1, f + p.2))
    }

    /// True when nothing failed and every check held.
    pub fn ok(&self) -> bool {
        self.totals().1 == 0 && self.mismatches.is_empty()
    }
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Print the per-phase ledger to stderr and the result object as the last
/// line of stdout. Returns whether the run was correct.
pub fn emit(ledger: &mut Ledger, metrics: &Metrics) -> bool {
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            ledger.mismatch(format!("metric {name} is not finite ({value})"));
        }
    }
    for (name, attempted, failed) in &ledger.phases {
        eprintln!("phase {name}: attempted {attempted}, failed {failed}");
    }
    for m in &ledger.mismatches {
        eprintln!("MISMATCH: {m}");
    }
    let (attempted, failed) = ledger.totals();
    let correct = ledger.ok();
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    correct
}
