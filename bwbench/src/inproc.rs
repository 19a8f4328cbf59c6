//! The in-process workload `wide-frames` on an `Engine`. One thread,
//! closed loop: each step is a `recommend_batch_frame` then a
//! `record_batch_frame` for one tenant. An untraced run is [`EPISODES`]
//! episodes, each on a freshly restored engine; the timing figures of
//! every workload are scaled to the reference host speed by a [`Gauge`]
//! and reported as medians over episodes.

use crate::report::{self, Gauge, Ledger, Metrics, Series};
use crate::scenario::{self, Quality, Scenario};
use crate::trace::{Tracer, NONE};
use crate::{ladder, Args};
use banditware_core::{FeatureFrame, Ticket};
use banditware_serve::Engine;
use std::path::Path;
use std::time::{Duration, Instant};

/// Latency samples kept per phase (allocated before the clock).
const MAX_SAMPLES: usize = 1 << 20;

/// Episodes of an untraced run. Each builds its own engine (for
/// `paper-tenants` also its own server and connections) from the
/// checkpoints and is timed on its own; the run reports the median over
/// episodes. On the development host one engine instance's speed over a
/// few seconds differed by up to 1.5x from the next instance's (both the
/// host's stretches and where the state lands in memory play a part), so a
/// run timed on a single instance reported whichever speed it drew.
pub const EPISODES: usize = 10;

/// What one closed-loop phase measured. The buffers are allocated once and
/// reused by every episode.
pub struct Closed {
    pub rounds: u64,
    pub calls: u64,
    pub failed: u64,
    pub recommend_us: Series,
    pub record_us: Series,
    /// The generator's own time between a record's return and the next
    /// recommend.
    pub gen_us: Series,
    /// Host speed over the phase.
    pub gauge: Gauge,
    pub quality: Quality,
    /// Rounds per second in the untraced and the traced blocks (traced run).
    pub traced_split: (f64, f64),
}

impl Closed {
    fn new(gauge: Gauge) -> Self {
        Closed {
            rounds: 0,
            calls: 0,
            failed: 0,
            recommend_us: Series::with_capacity(MAX_SAMPLES),
            record_us: Series::with_capacity(MAX_SAMPLES),
            gen_us: Series::with_capacity(MAX_SAMPLES),
            gauge,
            quality: Quality::default(),
            traced_split: (0.0, 0.0),
        }
    }

    fn reset(&mut self) {
        (self.rounds, self.calls, self.failed) = (0, 0, 0);
        self.recommend_us.clear();
        self.record_us.clear();
        self.gen_us.clear();
        self.gauge.reset();
        self.quality = Quality::default();
        self.traced_split = (0.0, 0.0);
    }
}

/// Every step's frame, built before the clock: step `s` serves frame
/// `s % frames.len()`.
fn frames(sc: &Scenario) -> Vec<FeatureFrame> {
    let steps = sc.pool.len() / sc.sizes.batch;
    (0..steps)
        .map(|s| {
            let mut f = FeatureFrame::new();
            let start = sc.step_start(s);
            sc.frame(&(start..start + sc.sizes.batch).collect::<Vec<_>>(), &mut f);
            f
        })
        .collect()
}

/// Run steps until `seconds` have passed and the quality steps are done.
/// A traced run alternates untraced and traced blocks.
fn closed_loop(
    sc: &Scenario,
    engine: &Engine,
    frames: &[FeatureFrame],
    seconds: f64,
    t: &mut Tracer,
    c: &mut Closed,
) {
    let traced = t.on();
    c.reset();
    let mut outcomes: Vec<(Ticket, f64)> = Vec::with_capacity(sc.sizes.batch);
    let tol = sc.tolerance();
    let keys = &sc.keys;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (mut block_rounds, mut block_at) = (0u64, start);
    let mut split = [(0u64, 0.0f64); 2];
    let mut tracing = false;
    let mut last_end = start;
    let mut step = 0usize;
    loop {
        let now = Instant::now();
        if step >= sc.sizes.quality_steps && now >= deadline {
            break;
        }
        c.gauge.tick(now);
        if traced {
            // Alternate untraced and traced blocks, so host drift falls on
            // both sides of the overhead estimate alike.
            let on = ((now - start).as_millis() / TRACE_BLOCK_MS) % 2 == 1;
            if on != tracing {
                let side = usize::from(tracing);
                split[side].0 += c.rounds - block_rounds;
                split[side].1 += (now - block_at).as_secs_f64();
                (tracing, block_rounds, block_at) = (on, c.rounds, now);
            }
        }
        let key = &keys[step % keys.len()];
        let row0 = sc.step_start(step);
        let span = if tracing { t.begin("engine.recommend", NONE, step as u64) } else { NONE };
        let t0 = Instant::now();
        let recs = engine.recommend_batch_frame(key, &frames[step % frames.len()]);
        let t1 = Instant::now();
        t.end(span);
        let recs = match recs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("recommend failed: {e}");
                c.failed += 1;
                break;
            }
        };
        outcomes.clear();
        for (i, (ticket, rec)) in recs.iter().enumerate() {
            let y = sc.pool.realized(row0 + i, rec.arm);
            outcomes.push((*ticket, y));
            if step < sc.sizes.quality_steps {
                c.quality.add(sc.pool.correct(row0 + i, rec.arm, tol), rec.predicted_runtime, y);
            }
        }
        let span = if tracing { t.begin("engine.record", NONE, step as u64) } else { NONE };
        let t2 = Instant::now();
        let res = engine.record_batch_frame(key, &outcomes);
        let t3 = Instant::now();
        t.end(span);
        c.calls += 2;
        if let Err(e) = res {
            eprintln!("record failed: {e}");
            c.failed += 1;
            break;
        }
        c.recommend_us.push((t1 - t0).as_secs_f64() * 1e6, c.gauge.t(t0));
        c.record_us.push((t3 - t2).as_secs_f64() * 1e6, c.gauge.t(t2));
        c.gen_us.push((t0 - last_end).as_secs_f64() * 1e6, c.gauge.t(last_end));
        c.rounds += outcomes.len() as u64;
        step += 1;
        last_end = Instant::now();
    }
    let end = Instant::now();
    c.gauge.close(end);
    if traced {
        let side = usize::from(tracing);
        split[side].0 += c.rounds - block_rounds;
        split[side].1 += (end - block_at).as_secs_f64();
        c.traced_split = (split[0].0 as f64 / split[0].1, split[1].0 as f64 / split[1].1);
    }
}

/// Length of the alternating untraced and traced blocks of a traced run.
pub const TRACE_BLOCK_MS: u128 = 250;

/// One episode's end-to-end timing figures.
#[derive(Clone, Copy)]
pub struct Figures {
    pub rounds_per_s: f64,
    pub recommend_p50_us: f64,
    pub recommend_p90_us: f64,
    pub record_p50_us: f64,
    pub record_p90_us: f64,
}

impl Figures {
    /// Figures, as measured or scaled, from a throughput phase of `rounds`
    /// timed by `rate_gauge` and the latency samples of a phase timed by
    /// `lat_gauge`.
    pub fn measure(
        rounds: u64,
        rate_gauge: &Gauge,
        rec: &Series,
        obs: &Series,
        lat_gauge: &Gauge,
        scaled: bool,
    ) -> Self {
        let g = scaled.then_some(lat_gauge);
        Figures {
            rounds_per_s: rounds as f64 / rate_gauge.phase_s(scaled),
            recommend_p50_us: rec.quantile(0.5, g),
            recommend_p90_us: rec.quantile(0.9, g),
            record_p50_us: obs.quantile(0.5, g),
            record_p90_us: obs.quantile(0.9, g),
        }
    }

    /// The median of every figure over `episodes`.
    pub fn median(episodes: &[Figures]) -> Self {
        let med = |f: fn(&Figures) -> f64| {
            report::median(&mut episodes.iter().map(f).collect::<Vec<_>>())
        };
        Figures {
            rounds_per_s: med(|e| e.rounds_per_s),
            recommend_p50_us: med(|e| e.recommend_p50_us),
            recommend_p90_us: med(|e| e.recommend_p90_us),
            record_p50_us: med(|e| e.record_p50_us),
            record_p90_us: med(|e| e.record_p90_us),
        }
    }

    fn describe(&self) -> String {
        format!(
            "{:.0} rounds/s, recommend p50/p90 {:.2}/{:.2} us, record p50/p90 {:.2}/{:.2} us",
            self.rounds_per_s,
            self.recommend_p50_us,
            self.recommend_p90_us,
            self.record_p50_us,
            self.record_p90_us
        )
    }
}

/// Episode figures as measured and as scaled, logged to stderr.
#[derive(Default)]
pub struct EpisodeLog {
    raw: Vec<Figures>,
    scaled: Vec<Figures>,
}

impl EpisodeLog {
    /// Log an episode: `rounds` served in a throughput phase timed by
    /// `rate_gauge`, and the latency samples of a phase timed by
    /// `lat_gauge`.
    pub fn push(
        &mut self,
        name: &str,
        rounds: u64,
        rate_gauge: &Gauge,
        rec: &Series,
        obs: &Series,
        lat_gauge: &Gauge,
    ) {
        let raw = Figures::measure(rounds, rate_gauge, rec, obs, lat_gauge, false);
        let scaled = Figures::measure(rounds, rate_gauge, rec, obs, lat_gauge, true);
        eprintln!(
            "{name} episode {}: {}; gauge scale {:.3} and {:.3}; scaled {}",
            self.raw.len(),
            raw.describe(),
            rate_gauge.scale(),
            lat_gauge.scale(),
            scaled.describe()
        );
        self.raw.push(raw);
        self.scaled.push(scaled);
    }
}

/// Put the end-to-end metrics shared by every workload: the medians over
/// episodes of the scaled timing figures, and the quality of the served
/// rounds.
pub fn put_e2e(m: &mut Metrics, setup_s: f64, episodes: &EpisodeLog, q: &Quality) {
    eprintln!("median as measured: {}", Figures::median(&episodes.raw).describe());
    let f = Figures::median(&episodes.scaled);
    m.put("setup_s", setup_s, "s");
    m.put("rounds_per_s", f.rounds_per_s, "1/s");
    m.put("recommend_p50_us", f.recommend_p50_us, "us");
    m.put("recommend_p90_us", f.recommend_p90_us, "us");
    m.put("record_p50_us", f.record_p50_us, "us");
    m.put("record_p90_us", f.record_p90_us, "us");
    m.put("accuracy", q.accuracy(), "ratio");
    m.put("rmse_rel", q.rmse_rel(), "ratio");
    m.put("rss_peak_mb", report::rss_peak_mb(), "MB");
}

/// Put the traced run's information-only latency tail over all samples:
/// p99 and max with their sample counts.
pub fn put_tail(m: &mut Metrics, rec: &Series, obs: &Series) {
    let (rec, obs) = (rec.sorted(), obs.sorted());
    m.put("info.recommend_p99_us", report::quantile(&rec, 0.99), "us");
    m.put("info.recommend_max_us", rec.last().copied().unwrap_or(f64::NAN), "us");
    m.put("info.recommend_samples", rec.len() as f64, "count");
    m.put("info.recommend_beyond_p99", report::beyond(&rec, 0.99) as f64, "count");
    m.put("info.record_p99_us", report::quantile(&obs, 0.99), "us");
    m.put("info.record_max_us", obs.last().copied().unwrap_or(f64::NAN), "us");
    m.put("info.record_samples", obs.len() as f64, "count");
}

/// Put the tracing overhead and span count.
pub fn put_overhead(m: &mut Metrics, traced_split: (f64, f64), spans: usize) {
    m.put("trace.rounds_per_s_untraced", traced_split.0, "1/s");
    m.put("trace.rounds_per_s_traced", traced_split.1, "1/s");
    m.put("trace.overhead_pct", (traced_split.0 - traced_split.1) / traced_split.0 * 100.0, "%");
    m.put("trace.spans", spans as f64, "count");
}

/// Time the set-up until at least `sizes.setups` have run and the
/// set-ups have spanned `SETUP_SPAN_S` (a host's speed drifts over a few
/// hundred milliseconds, so a median over a short span would inherit one
/// phase's speed). Each set-up's time is scaled to the reference host
/// speed by gauge slices run right after it. Returns the median.
pub fn timed_setups<T>(
    sc: &Scenario,
    smoke: bool,
    gauge: &mut Gauge,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let span = Duration::from_secs_f64(if smoke { 0.0 } else { SETUP_SPAN_S });
    let mut times = Vec::with_capacity(4096);
    let mut raw = Vec::with_capacity(4096);
    let begin = Instant::now();
    while times.len() < sc.sizes.setups.max(1) || (begin.elapsed() < span && times.len() < 4096) {
        let t0 = Instant::now();
        let product = setup()?;
        let s = t0.elapsed().as_secs_f64();
        drop(product);
        // Fresh slices, right after the set-up.
        gauge.reset();
        times.push(s * gauge.scale());
        raw.push(s);
    }
    eprintln!(
        "{}: {} set-ups in {:.2} s, median {:.4} s as measured",
        sc.name,
        times.len(),
        begin.elapsed().as_secs_f64(),
        report::median(&mut raw)
    );
    Ok(report::median(&mut times))
}

/// Seconds every run spends repeating its set-up.
const SETUP_SPAN_S: f64 = 3.0;

fn check_stats(ledger: &mut Ledger, engine: &Engine, base: usize, rounds: u64) {
    let stats = engine.stats();
    ledger.check(stats.in_flight == 0, || format!("{} rounds still in flight", stats.in_flight));
    ledger.check(stats.recorded_rounds == base + rounds as usize, || {
        format!(
            "engine recorded {} rounds, expected {}",
            stats.recorded_rounds,
            base + rounds as usize
        )
    });
}

/// Every episode serves the same quality steps from the same restored
/// state, so its quality must equal the first episode's bit for bit.
pub fn check_quality(ledger: &mut Ledger, sc: &Scenario, q: &Quality, first: &mut Option<Quality>) {
    ledger.check(q.rounds() == (sc.sizes.quality_steps * sc.sizes.batch) as u64, || {
        "quality phase did not complete".into()
    });
    match first {
        None => *first = Some(*q),
        Some(f) => ledger.check(f == q, || "an episode's quality differs from the first's".into()),
    }
}

/// Put the traced run's host readings: the spin probe around the timed
/// phases and the gauge's median scale over the last one.
pub fn put_host(m: &mut Metrics, spins: [f64; 2], gauge: &Gauge) {
    m.put("host.spin_mops", (spins[0] + spins[1]) / 2.0, "Mops");
    m.put("host.gauge_scale", gauge.scale(), "ratio");
}

/// `wide-frames`.
pub fn wide(
    args: &Args,
    work: &Path,
    t: &mut Tracer,
    m: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let sc = scenario::wide_frames(args.seed, args.smoke);
    let ckpts = sc.checkpoints()?;
    let frames = frames(&sc);
    let build = || -> Result<Engine, String> {
        let e = sc.builder().build().map_err(|e| e.to_string())?;
        scenario::restore_all(&e, &sc.keys, &ckpts).map_err(|e| e.to_string())?;
        Ok(e)
    };
    let setup_s = timed_setups(&sc, args.smoke, &mut Gauge::cache_and_loopback()?, build)?;
    let episodes = if args.trace { 1 } else { EPISODES };
    let mut c = Closed::new(Gauge::cache_and_loopback()?);
    let mut log = EpisodeLog::default();
    let mut quality = None;
    let s0 = report::spin_mops();
    for _ in 0..episodes {
        let engine = build()?;
        let base = engine.stats().recorded_rounds;
        closed_loop(&sc, &engine, &frames, args.seconds / episodes as f64, t, &mut c);
        ledger.phase("closed-loop", c.calls, c.failed);
        check_stats(ledger, &engine, base, c.rounds);
        check_quality(ledger, &sc, &c.quality, &mut quality);
        log.push(sc.name, c.rounds, &c.gauge, &c.recommend_us, &c.record_us, &c.gauge);
    }
    let s1 = report::spin_mops();
    let quality = quality.unwrap_or_default();
    eprintln!("{}: accuracy {:.4}, host {s0:.0}/{s1:.0} Mops", sc.name, quality.accuracy());
    if !args.trace {
        put_e2e(m, setup_s, &log, &quality);
        return Ok(());
    }
    let spans = t.len();
    ladder::run(&sc, &ckpts, &work.join("ladder-wal"), t, m, ledger)?;
    let gen = c.gen_us.sorted();
    m.put("gen.late_p90_us", report::quantile(&gen, 0.9), "us");
    m.put("gen.late_max_us", gen.last().copied().unwrap_or(f64::NAN), "us");
    m.put("engine.in_flight_peak", sc.sizes.batch as f64, "count");
    put_host(m, [s0, s1], &c.gauge);
    put_tail(m, &c.recommend_us, &c.record_us);
    put_overhead(m, c.traced_split, spans);
    Ok(())
}
