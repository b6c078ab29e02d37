//! `daemon-steady` and `daemon-surge`: an in-process `blameitd`.
//!
//! A [`DaemonCore`] at small scale, with its state directory on disk,
//! is fed length-prefixed `BATCH` frames from an in-memory buffer —
//! `read_frame` → `offer` → `pump`, one bucket per frame — by a single
//! closed-loop feeder that waits for each reply, like the reference
//! `feed_world` client. No socket is crossed. The metrics registry is
//! scraped once per tick, and the run ends with `term`.
//!
//! Frames are synthesized and encoded before any timer starts. A pass
//! opens a fresh core, feeds the same frames, and terminates; passes
//! repeat until the time budget is spent and must agree exactly.

use crate::report::Outcome;
use crate::stats::median;
use crate::timed::{preload, BackendTimes, Preloaded, TimedBackend, Timers};
use crate::{
    build_world, engine_config, ms, secs, trace, Budget, EndToEnd, Layers, Opts, StageSums,
    TickCounts, TickFigures, SETUP_REPS, THREADS,
};
use blameit::metrics::stage;
use blameit::{
    render_tick_transcript, AdmissionController, AdmissionDecision, Backend, RecordBatch,
    StartMode, WorldBackend,
};
use blameit_bench::Scale;
use blameit_daemon::wire::{encode_frame, read_frame};
use blameit_daemon::{
    DaemonConfig, DaemonCore, Frame, IngestStats, IngestWal, OfferReply, ShedEntry,
};
use blameit_obs::{span, MetricsRegistry};
use blameit_simnet::{SimTime, SurgePlan, SurgeWindow, TimeRange, World};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// World length (warmup from hour 12, feed from hour 36).
const DAYS: u64 = 2;
/// Buckets fed per pass: 16 tick windows, midday volume.
const FEED_BUCKETS: u32 = 48;
/// Offers per batch before the feeder abandons it.
const MAX_ATTEMPTS: u32 = 3;
/// Surge windows over the feed's buckets (first, last inclusive,
/// volume multiplier): three and a half sim-hours at 2×, with a
/// 15-minute 4× spike (later windows win). Most replies and ticks fall
/// inside the surge, so their medians sit inside it too rather than on
/// the edge between surged and plain buckets.
const SURGE: [(u32, u32, u32); 2] = [(3, 44, 2), (24, 26, 4)];
/// Surge admission knobs, in multiples of the largest unsurged bucket:
/// shedding starts at 5 buckets' worth queued plus offered, refusal
/// past 8, and one location may shed a quarter bucket per offer. The
/// 2× stretch then sheds by impact without refusals, and the spike is
/// refused with `SLOW_DOWN` until it passes.
const SURGE_WATERMARK: usize = 5;
const SURGE_CAP: usize = 8;
const SURGE_LOC_DIVISOR: usize = 4;

/// The daemon's warmup window: the 24 hours before the feed.
fn warm_range() -> TimeRange {
    TimeRange::new(SimTime::from_hours(12), SimTime::from_hours(36))
}

/// One encoded frame in the feed buffer.
#[derive(Clone, Copy, Debug)]
struct FrameRef {
    offset: u64,
    records: u64,
    bucket: u32,
}

/// The feeder's pre-encoded input.
struct Feed {
    buf: Vec<u8>,
    frames: Vec<FrameRef>,
    /// Unique records offered (each frame once).
    records: u64,
    /// Largest bucket before surge amplification.
    plain_max: u64,
}

fn encode_feed(world: &World, range: TimeRange, surge: &SurgePlan) -> Feed {
    let backend = WorldBackend::with_parallelism(world, THREADS);
    let mut feed = Feed {
        buf: Vec::new(),
        frames: Vec::new(),
        records: 0,
        plain_max: 0,
    };
    for bucket in range.buckets() {
        let plain = backend
            .rtt_records_in(bucket)
            .expect("the world backend serves raw records");
        feed.plain_max = feed.plain_max.max(plain.len() as u64);
        let records = surge.amplify(bucket, &plain);
        if records.is_empty() {
            continue;
        }
        let batch = RecordBatch::from_records(bucket, &records);
        let payload = encode_frame(&Frame::Batch { batch });
        feed.frames.push(FrameRef {
            offset: feed.buf.len() as u64,
            records: records.len() as u64,
            bucket: bucket.0,
        });
        feed.records += records.len() as u64;
        let len = u32::try_from(payload.len()).expect("a bucket frame fits the wire's u32 length");
        feed.buf.extend_from_slice(&len.to_le_bytes());
        feed.buf.extend_from_slice(&payload);
    }
    feed
}

fn daemon_config(feed: &Feed, surge: bool) -> DaemonConfig {
    let mut d = DaemonConfig::default();
    let a = &mut d.admission;
    if surge {
        let b = feed.plain_max as usize;
        a.shed_watermark_records = SURGE_WATERMARK * b;
        a.queue_cap_records = SURGE_CAP * b;
        a.per_loc_shed_cap = b / SURGE_LOC_DIVISOR;
    } else {
        // The whole feed fits under both caps: nothing can be shed.
        a.shed_watermark_records = feed.records as usize + 1;
        a.queue_cap_records = feed.records as usize + 1;
    }
    d
}

/// What a pass shares with every other pass.
struct Ctx<'a> {
    world: &'a World,
    preloaded: &'a Preloaded,
    feed: &'a Feed,
    dcfg: &'a DaemonConfig,
    dir: PathBuf,
    traced: bool,
}

/// One offer, kept for the standalone admission replay.
struct OfferLog {
    frame: usize,
    depth: usize,
    reply: OfferReply,
}

/// One pass: open, feed every frame, terminate.
#[derive(Default)]
struct Pass {
    reply_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    decode_us: Vec<f64>,
    offer_ms: Vec<f64>,
    render_us: Vec<f64>,
    feed_wall: Duration,
    pump_overhead: Duration,
    term: Duration,
    stages: StageSums,
    counts: TickCounts,
    transcript: String,
    stats: IngestStats,
    shed_log: Vec<ShedEntry>,
    abandoned_records: u64,
    max_admitted_bucket: Option<u32>,
    offers: Vec<OfferLog>,
    wal_peak: u64,
    snapshot_bytes: f64,
    backend: BackendTimes,
    quartets_raw: u64,
    quartets_processed: u64,
    wire_bytes: u64,
}

impl Pass {
    /// The engine's own tick total stands in for the tick wall: `pump`
    /// also journals and snapshots, which is `persist` time.
    fn figures(&self) -> TickFigures<'_> {
        TickFigures {
            stages: &self.stages,
            wall: self.stages.total,
            backend: &self.backend,
        }
    }
}

/// A daemon core on a fresh state directory (cold start: warmup +
/// checkpoint), plus the timers of the backend it now owns.
fn open_core<'w>(
    world: &'w World,
    preloaded: &Preloaded,
    dcfg: &DaemonConfig,
    dir: &Path,
    threads: usize,
    timing: bool,
    registry: Arc<MetricsRegistry>,
) -> Result<(DaemonCore<TimedBackend<'w>>, Arc<Timers>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = engine_config(world, threads);
    cfg.state_dir = Some(dir.to_path_buf());
    let inner = TimedBackend::new(world, threads, Arc::clone(preloaded), timing);
    let timers = inner.timers();
    let (core, recovery) = DaemonCore::open(cfg, dcfg.clone(), registry, inner, warm_range())
        .map_err(|e| format!("daemon open: {e}"))?;
    if recovery.mode != StartMode::Cold {
        return Err(format!("{} was not a cold start", dir.display()));
    }
    Ok((core, timers))
}

fn run_pass(ctx: &Ctx<'_>, n: usize, threads: usize) -> Result<Pass, String> {
    let derr = |e: blameit_daemon::DaemonError| format!("daemon: {e}");
    let dir = ctx.dir.join(format!("pass{n}-t{threads}"));
    let registry = Arc::new(MetricsRegistry::new());
    let (mut core, timers) = open_core(
        ctx.world,
        ctx.preloaded,
        ctx.dcfg,
        &dir,
        threads,
        ctx.traced,
        Arc::clone(&registry),
    )?;
    let before = timers.read();
    let mut p = Pass::default();
    let mut outs = Vec::new();
    let mut cursor = Cursor::new(&ctx.feed.buf[..]);
    let req0 = (n * ctx.feed.frames.len()) as u64;
    let started = Instant::now();
    for (i, f) in ctx.feed.frames.iter().enumerate() {
        for attempt in 1..=MAX_ATTEMPTS {
            let _req = span!("perfbench::core", "request", req = req0 + i as u64);
            let depth = if ctx.traced { core.queue_depth() } else { 0 };
            cursor.set_position(f.offset);
            let t0 = Instant::now();
            let frame = {
                let _s = span!("perfbench::wire", "read_frame", req = req0 + i as u64);
                read_frame(&mut cursor).map_err(|e| format!("read_frame: {e}"))?
            };
            let t1 = Instant::now();
            let Some(Frame::Batch { batch }) = frame else {
                return Err(format!("frame {i} is not a BATCH"));
            };
            let reply = {
                let _s = span!("perfbench::core", "offer", req = req0 + i as u64);
                core.offer(batch).map_err(derr)?
            };
            let t2 = Instant::now();
            let ticked = {
                let _s = span!("perfbench::core", "pump", req = req0 + i as u64);
                core.pump().map_err(derr)?
            };
            let t3 = Instant::now();
            p.reply_ms.push(ms(t2 - t0));
            p.decode_us.push((t1 - t0).as_secs_f64() * 1e6);
            p.offer_ms.push(ms(t2 - t1));
            p.wire_bytes += cursor.position() - f.offset;
            let mut tick_wall = Duration::ZERO;
            for o in &ticked {
                p.lag_ms.push(ms(t3 - t0));
                p.stages.add(&o.stage_timings);
                tick_wall += o.stage_timings.total();
                let _s = span!("perfbench::obs", "render", req = req0 + i as u64);
                let t = Instant::now();
                let text = registry.render_prometheus();
                p.render_us.push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(text);
            }
            p.pump_overhead += (t3 - t2).saturating_sub(tick_wall);
            outs.extend(ticked);
            if ctx.traced {
                let wal = std::fs::metadata(dir.join("ingest.wal")).map_or(0, |m| m.len());
                p.wal_peak = p.wal_peak.max(wal);
                p.offers.push(OfferLog {
                    frame: i,
                    depth,
                    reply: reply.clone(),
                });
            }
            match reply {
                OfferReply::Ack { admitted, .. } => {
                    if admitted > 0 {
                        p.max_admitted_bucket = Some(f.bucket);
                    }
                    break;
                }
                OfferReply::SlowDown { .. } if attempt == MAX_ATTEMPTS => {
                    p.abandoned_records += f.records;
                }
                OfferReply::SlowDown { .. } => {}
            }
        }
    }
    let t = Instant::now();
    let drained = {
        let _s = span!("perfbench::core", "term", req = req0);
        core.term().map_err(derr)?
    };
    p.term = t.elapsed();
    p.feed_wall = started.elapsed();
    p.backend = timers.read() - before;
    for o in &drained {
        p.stages.add(&o.stage_timings);
    }
    outs.extend(drained);

    for o in &outs {
        p.counts.add(o);
    }
    p.transcript = render_tick_transcript(&outs);
    p.stats = core.stats();
    p.shed_log = core.shed_log().to_vec();
    let m = core.engine().metrics();
    p.quartets_raw = m.ingest_quartets.get();
    p.quartets_processed = m.quartets_processed.get();
    p.snapshot_bytes = registry
        .histogram("blameit_snapshot_bytes")
        .max()
        .unwrap_or(0.0);
    drop(core);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(p)
}

/// Checks one pass's accounting: every record is admitted, shed, or in
/// an abandoned batch; every fed window ticked.
fn check_accounting(out: &mut Outcome, p: &Pass, feed: &Feed, feed_start: u32, tick_buckets: u32) {
    let s = &p.stats;
    out.check(
        s.offered == s.admitted + s.shed_low_impact + s.shed_backpressure,
        || format!("offers do not balance: {s:?}"),
    );
    out.check(
        feed.records == s.admitted + s.shed_low_impact + p.abandoned_records,
        || {
            format!(
                "{} unique records offered, but admitted+shed+abandoned = {}",
                feed.records,
                s.admitted + s.shed_low_impact + p.abandoned_records
            )
        },
    );
    let windows = p
        .max_admitted_bucket
        .map_or(0, |b| u64::from((b - feed_start) / tick_buckets + 1));
    out.check(p.counts.ticks == windows, || {
        format!("{windows} windows fed but {} ticked", p.counts.ticks)
    });
}

/// Replays pass 0's offers against a fresh [`AdmissionController`] at
/// the same queue depths, and its admitted batches into a fresh
/// [`IngestWal`], timing each call on its own.
fn replay(out: &mut Outcome, ctx: &Ctx<'_>, p: &Pass) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut ctl = AdmissionController::new(ctx.dcfg.admission.clone());
    let path = ctx.dir.join("replay.wal");
    let _ = std::fs::remove_file(&path);
    let (mut wal, _) = IngestWal::open(&path).map_err(|e| format!("replay wal: {e}"))?;
    let (mut adm_ms, mut wal_ms) = (Vec::new(), Vec::new());
    let mut cursor = Cursor::new(&ctx.feed.buf[..]);
    for log in &p.offers {
        cursor.set_position(ctx.feed.frames[log.frame].offset);
        let Ok(Some(Frame::Batch { batch })) = read_frame(&mut cursor) else {
            return Err(format!("replay: frame {} does not decode", log.frame));
        };
        let t = Instant::now();
        let decision = ctl.offer(batch, log.depth);
        adm_ms.push(ms(t.elapsed()));
        let same = match (&decision, &log.reply) {
            (
                AdmissionDecision::Admit { batch, shed },
                OfferReply::Ack {
                    admitted, shed: s, ..
                },
            ) => {
                batch.keys.len() as u64 == *admitted
                    && shed.iter().map(|g| u64::from(g.records)).sum::<u64>() == *s
            }
            (AdmissionDecision::Reject { .. }, OfferReply::SlowDown { .. }) => true,
            _ => false,
        };
        out.check(same, || {
            format!(
                "standalone admission disagrees with the core on frame {}",
                log.frame
            )
        });
        if let AdmissionDecision::Admit { batch, .. } = decision {
            if !batch.keys.is_empty() {
                let t = Instant::now();
                wal.append(&batch).map_err(|e| format!("replay wal: {e}"))?;
                wal_ms.push(ms(t.elapsed()));
            }
        }
    }
    drop(wal);
    let _ = std::fs::remove_file(&path);
    Ok((adm_ms, wal_ms))
}

/// Runs the workload; its state directories are removed however it ends.
pub fn run(o: &Opts, surge: bool) -> Result<Outcome, String> {
    let run_dir = o.work_dir.join(format!("run-{}", std::process::id()));
    let result = measure(o, surge, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn measure(o: &Opts, surge: bool, run_dir: &Path) -> Result<Outcome, String> {
    let scale = o.scale.unwrap_or(Scale::Small);
    let warm = warm_range();
    let feed_start = warm.end.bucket();
    let feed_range = TimeRange::new(warm.end, feed_start.plus(FEED_BUCKETS).start());
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();

    // Set-up, repeated: world build + daemon open (warmup + checkpoint).
    let (mut builds, mut opens) = (Vec::new(), Vec::new());
    let mut preloaded: Option<Preloaded> = None;
    let mut world: Option<World> = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let w = build_world(scale, DAYS, o.seed);
        builds.push(secs(t));
        let pre = preloaded.get_or_insert_with(|| {
            let t = Instant::now();
            let p = preload(&w, THREADS, warm.buckets().step_by(2));
            layers.synthesis_s += secs(t);
            p
        });
        let dir = run_dir.join(format!("setup{rep}"));
        let t = Instant::now();
        let registry = Arc::new(MetricsRegistry::new());
        let dcfg = DaemonConfig::default();
        let core = open_core(&w, pre, &dcfg, &dir, THREADS, false, registry)?;
        opens.push(secs(t));
        drop(core);
        let _ = std::fs::remove_dir_all(&dir);
        world = Some(w);
    }
    let world = world.ok_or("no set-up ran")?;
    let preloaded = preloaded.ok_or("nothing preloaded")?;
    e2e.setups = builds.iter().zip(&opens).map(|(b, w)| b + w).collect();
    layers.world_build_s = median(&builds);
    layers.warmup_s = median(&opens);

    let plan = SurgePlan {
        windows: SURGE
            .iter()
            .filter(|_| surge)
            .map(|&(first, last, multiplier)| SurgeWindow {
                start: feed_start.plus(first),
                end: feed_start.plus(last),
                multiplier,
            })
            .collect(),
        seed: o.seed,
    };
    let t = Instant::now();
    let feed = encode_feed(&world, feed_range, &plan);
    layers.synthesis_s += secs(t);
    let dcfg = daemon_config(&feed, surge);
    let ctx = Ctx {
        world: &world,
        preloaded: &preloaded,
        feed: &feed,
        dcfg: &dcfg,
        dir: run_dir.to_path_buf(),
        traced: o.trace,
    };
    let tick_buckets = engine_config(&world, 1).tick_buckets;

    let budget = Budget::start(o.seconds);
    let (passes, spans) = trace::capture(o.trace, 1 << 20, || -> Result<_, String> {
        let mut passes: Vec<Pass> = Vec::new();
        while !budget.done(e2e.enough())? {
            let p = run_pass(&ctx, passes.len(), THREADS)?;
            e2e.reply_ms.extend(&p.reply_ms);
            e2e.lag_ms.extend(&p.lag_ms);
            passes.push(p);
        }
        // One thread: the surge's shed log must not depend on it, and
        // a traced run takes the shard speed-ups from it.
        let one = if surge || o.trace {
            Some(run_pass(&ctx, 0, 1)?)
        } else {
            None
        };
        Ok((passes, one))
    });
    let (passes, one) = passes?;
    let first = &passes[0];
    out.attempted = passes.iter().map(|p| p.reply_ms.len() as u64).sum();

    // Correctness, outside the timed region.
    for p in &passes {
        check_accounting(&mut out, p, &feed, feed_start.0, tick_buckets);
    }
    for (i, p) in passes.iter().enumerate().skip(1) {
        out.check(
            p.transcript == first.transcript
                && p.stats == first.stats
                && p.shed_log == first.shed_log,
            || format!("pass {i} differs from pass 0 on identical frames"),
        );
    }
    let s = &first.stats;
    if surge {
        out.check(s.shed_low_impact > 0 && s.backpressure_replies > 0, || {
            format!("the surge neither shed nor refused: {s:?}")
        });
    } else {
        out.check(
            s.shed_low_impact == 0 && s.backpressure_replies == 0,
            || format!("the steady feed lost records: {s:?}"),
        );
    }
    if let Some(one) = &one {
        out.check(
            one.shed_log == first.shed_log && one.transcript == first.transcript,
            || format!("shed log or transcript differs between 1 and {THREADS} threads"),
        );
    }

    let wall: f64 = passes.iter().map(|p| p.feed_wall.as_secs_f64()).sum();
    e2e.records_per_s = feed.records as f64 * passes.len() as f64 / wall;
    e2e.delivered_frac = s.admitted as f64 / feed.records as f64;
    if !o.trace {
        e2e.emit(&mut out);
        return Ok(out);
    }

    let (adm_ms, wal_ms) = replay(&mut out, &ctx, first)?;
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&Pass) -> &Vec<f64>| {
        median(
            &passes
                .iter()
                .flat_map(|p| f(p).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let one = one.ok_or("traced run without a 1-thread pass")?;
    let all: Vec<TickFigures<'_>> = passes.iter().map(Pass::figures).collect();
    layers.set_ticks(&all, &one.figures());
    layers.queue_ingest_ms = ms(layers.stages.get(stage::INGEST));
    layers.wire_decode_us_p50 = pooled(&|p| &p.decode_us);
    layers.wire_bytes = first.wire_bytes as f64;
    layers.core_offer_ms_p50 = pooled(&|p| &p.offer_ms);
    layers.admission_offer_ms_p50 = median(&adm_ms);
    layers.wal_append_ms_p50 = median(&wal_ms);
    layers.wal_bytes_peak = first.wal_peak as f64;
    layers.pump_overhead_ms = med(&|p| ms(p.pump_overhead));
    layers.snapshot_bytes = first.snapshot_bytes;
    layers.term_ms = med(&|p| ms(p.term));
    layers.render_us = pooled(&|p| &p.render_us);
    layers.quartets_raw = first.quartets_raw as f64;
    layers.quartets_processed = first.quartets_processed as f64;
    layers.counts = first.counts;
    layers.admission = [
        s.shed_low_impact,
        s.shed_backpressure,
        s.backpressure_replies,
        s.queue_peak,
    ];
    layers.traced_e2e = e2e.medians();
    layers.spans = spans.len() as u64;
    layers.emit(&mut out);
    crate::write_spans(o, &spans)?;
    Ok(out)
}
