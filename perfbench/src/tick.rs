//! `tick-default`: the offline engine tick loop at default scale.
//!
//! Set-up builds the world and warms an engine on day 0; every quartet
//! of day 1 is synthesized before any timer starts. A pass then clones
//! the warmed engine and runs day 1's 96 ticks, timing each
//! `BlameItEngine::tick` call; passes repeat until the time budget is
//! spent, so every pass does exactly the same work and must produce
//! exactly the same verdicts.

use crate::report::Outcome;
use crate::stats::median;
use crate::timed::{preload, BackendTimes, Preloaded, TimedBackend};
use crate::{
    build_world, engine_config, ms, secs, trace, Budget, EndToEnd, Layers, Opts, StageSums,
    TickCounts, TickFigures, SETUP_REPS, THREADS,
};
use blameit::persist::snapshot;
use blameit::{render_tick_transcript, tick_digest, BlameItEngine, TickOutput};
use blameit_bench::Scale;
use blameit_obs::span;
use blameit_simnet::{SimTime, TimeBucket, TimeRange, World};
use std::time::{Duration, Instant};

/// World length: day 0 warms the engine, day 1 is ticked.
const DAYS: u64 = 2;
/// Warmup bucket stride (the repository's standard).
const WARMUP_STRIDE: u32 = 2;
/// Ticks compared at 1 and N threads in an untraced run.
const CHECK_SLICE: usize = 8;

/// One pass over the evaluation day.
struct Pass {
    walls_ms: Vec<f64>,
    wall: Duration,
    stages: StageSums,
    digests: Vec<u64>,
    counts: TickCounts,
    backend: BackendTimes,
    processed: u64,
    /// The first `keep` outputs, for transcript comparison.
    head: Vec<TickOutput>,
}

impl Pass {
    fn figures(&self) -> TickFigures<'_> {
        TickFigures {
            stages: &self.stages,
            wall: self.wall,
            backend: &self.backend,
        }
    }
}

fn run_pass(
    warmed: &BlameItEngine,
    backend: &mut TimedBackend<'_>,
    starts: &[TimeBucket],
    span_name: &'static str,
    req0: u64,
    keep: usize,
) -> Pass {
    let mut engine = warmed.clone();
    let timers = backend.timers();
    let before = timers.read();
    let processed0 = engine.metrics().quartets_processed.get();
    let mut p = Pass {
        walls_ms: Vec::with_capacity(starts.len()),
        wall: Duration::ZERO,
        stages: StageSums::default(),
        digests: Vec::with_capacity(starts.len()),
        counts: TickCounts::default(),
        backend: BackendTimes::default(),
        processed: 0,
        head: Vec::new(),
    };
    for (k, &start) in starts.iter().enumerate() {
        let span = span!("perfbench::pipeline", span_name, req = req0 + k as u64);
        let t = Instant::now();
        let out = engine.tick(backend, start);
        let wall = t.elapsed();
        drop(span);
        p.walls_ms.push(ms(wall));
        p.wall += wall;
        p.stages.add(&out.stage_timings);
        p.counts.add(&out);
        p.digests.push(tick_digest(&out));
        if p.head.len() < keep {
            p.head.push(out);
        }
    }
    p.backend = timers.read() - before;
    p.processed = engine.metrics().quartets_processed.get() - processed0;
    p
}

/// The warmed engine's state in a fresh engine at `threads`.
fn at_threads(
    warmed: &BlameItEngine,
    world: &World,
    threads: usize,
) -> Result<BlameItEngine, String> {
    let mut engine = BlameItEngine::new(engine_config(world, threads));
    snapshot::decode(&snapshot::encode(warmed, 0))
        .map_err(|e| format!("snapshot decode: {e}"))?
        .apply(&mut engine)
        .map_err(|e| format!("snapshot apply: {e}"))?;
    Ok(engine)
}

/// Runs the workload.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    let scale = o.scale.unwrap_or(Scale::Default);
    let warm = TimeRange::days(1);
    let eval = TimeRange::new(SimTime::from_days(1), SimTime::from_days(DAYS));
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();

    // Set-up, repeated: world build + warmup. Synthesis happens once,
    // between the first build and the first warmup, and is not set-up.
    let (mut builds, mut warmups) = (Vec::new(), Vec::new());
    let mut preloaded: Option<Preloaded> = None;
    let mut setup: Option<(World, BlameItEngine)> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let world = build_world(scale, DAYS, o.seed);
        builds.push(secs(t));
        let pre = preloaded
            .get_or_insert_with(|| {
                let t = Instant::now();
                let buckets = warm.buckets().step_by(WARMUP_STRIDE as usize);
                let p = preload(&world, THREADS, buckets.chain(eval.buckets()));
                layers.synthesis_s = secs(t);
                p
            })
            .clone();
        let t = Instant::now();
        let mut engine = BlameItEngine::new(engine_config(&world, THREADS));
        engine.warmup(
            &TimedBackend::new(&world, THREADS, pre, false),
            warm,
            WARMUP_STRIDE,
        );
        warmups.push(secs(t));
        setup = Some((world, engine));
    }
    let (world, warmed) = setup.ok_or("no set-up ran")?;
    let pre = preloaded.ok_or("nothing preloaded")?;
    e2e.setups = builds.iter().zip(&warmups).map(|(b, w)| b + w).collect();
    layers.world_build_s = median(&builds);
    layers.warmup_s = median(&warmups);

    let tick_buckets = warmed.config().tick_buckets as usize;
    let starts: Vec<TimeBucket> = eval.buckets().step_by(tick_buckets).collect();
    let day = || eval.buckets().flat_map(|b| pre[&b.0].iter());
    let quartets = day().count() as u64;
    let records: u64 = day().map(|q| u64::from(q.n)).sum();

    let mut backend = TimedBackend::new(&world, THREADS, pre.clone(), o.trace);
    let keep = if o.trace { starts.len() } else { CHECK_SLICE };
    let budget = Budget::start(o.seconds);
    let single = at_threads(&warmed, &world, 1)?;
    let (passes, spans) = trace::capture(o.trace, 1 << 20, || -> Result<_, String> {
        let mut passes: Vec<Pass> = Vec::new();
        while !budget.done(e2e.enough())? {
            let req0 = (passes.len() * starts.len()) as u64;
            let p = run_pass(&warmed, &mut backend, &starts, "tick", req0, keep);
            e2e.reply_ms.extend(&p.walls_ms);
            e2e.lag_ms.extend(&p.walls_ms);
            passes.push(p);
        }
        // The same ticks at one thread: a slice for the transcript
        // check, or (traced) the whole day for the shard speed-ups.
        let one = run_pass(
            &single,
            &mut backend,
            &starts[..keep],
            "tick_1thread",
            0,
            keep,
        );
        Ok((passes, one))
    });
    let (passes, one) = passes?;
    let first = &passes[0];
    out.attempted = (passes.len() * starts.len()) as u64;

    // Correctness, outside the timed region.
    for (i, p) in passes.iter().enumerate().skip(1) {
        out.check(
            p.digests == first.digests && p.counts == first.counts,
            || format!("pass {i} verdicts differ from pass 0 on identical inputs"),
        );
    }
    out.check(first.backend.served_quartets == quartets, || {
        format!(
            "engine pulled {} of {quartets} preloaded quartets",
            first.backend.served_quartets
        )
    });
    out.check(
        render_tick_transcript(&one.head) == render_tick_transcript(&first.head),
        || format!("{THREADS}-thread transcript differs from 1-thread over {keep} ticks"),
    );

    let wall: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    e2e.records_per_s = records as f64 * passes.len() as f64 / wall;
    e2e.delivered_frac = first.backend.served_quartets as f64 / quartets as f64;
    if !o.trace {
        e2e.emit(&mut out);
        return Ok(out);
    }

    let all: Vec<TickFigures<'_>> = passes.iter().map(Pass::figures).collect();
    layers.set_ticks(&all, &one.figures());
    layers.quartets_raw = quartets as f64;
    layers.quartets_processed = first.processed as f64;
    layers.counts = first.counts;
    layers.traced_e2e = e2e.medians();
    layers.spans = spans.len() as u64;
    layers.emit(&mut out);
    crate::write_spans(o, &spans)?;
    Ok(out)
}
