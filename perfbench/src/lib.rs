//! # blameit-perfbench — the repository benchmark
//!
//! One command runs one workload and prints every metric by name and
//! unit, then a JSON result line (see `perfbench/README.md`):
//!
//! * `tick-default` — the offline [`blameit::BlameItEngine::tick`]
//!   loop at `--scale default`, quartets synthesized before any timer
//!   starts ([`tick`]).
//! * `daemon-steady` / `daemon-surge` — an in-process
//!   [`blameit_daemon::DaemonCore`] at `--scale small`, fed encoded
//!   `BATCH` frames from memory through `read_frame` → `offer` →
//!   `pump` ([`daemon`]). No socket is crossed.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` repeats
//! the run with spans on and reports the per-layer metrics instead.

pub mod daemon;
pub mod report;
pub mod stats;
pub mod tick;
pub mod timed;
pub mod trace;

use blameit::metrics::stage;
use blameit::{BadnessThresholds, BlameItConfig, TickOutput};
use blameit_bench::{world_config, Scale};
use blameit_obs::StageTimings;
use blameit_simnet::{FaultSchedule, World};
use report::Outcome;
use stats::median;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Engine threads in every workload. Fixed rather than read from the
/// host, so two runs on different hosts shard the same way.
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Topology and fault-schedule seed. `--seed` draws the telemetry
/// (client activity, RTT samples) and BGP churn on top of a fixed
/// footprint and a fixed set of organic faults: which ASes fail, and
/// for how long, sets how much work a day takes, and would otherwise
/// move every timing by more than the bounds allow.
pub const WORLD_SEED: u64 = 2019;

/// A run that still lacks samples for its tail percentiles after this
/// many seconds fails instead of running on.
pub const HARD_LIMIT_SECS: f64 = 150.0;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Offline engine ticks at default scale.
    TickDefault,
    /// In-process daemon, steady feed, nothing shed.
    DaemonSteady,
    /// In-process daemon with a volume surge that sheds and refuses.
    DaemonSurge,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TickDefault,
        Workload::DaemonSteady,
        Workload::DaemonSurge,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TickDefault => "tick-default",
            Workload::DaemonSteady => "daemon-steady",
            Workload::DaemonSurge => "daemon-surge",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// World seed.
    pub seed: u64,
    /// Measurement time; a run also goes on until every reported tail
    /// percentile has enough samples behind it.
    pub seconds: f64,
    /// Spans on, per-layer metrics out.
    pub trace: bool,
    /// Scale override (the smoke tests run at tiny scale).
    pub scale: Option<Scale>,
    /// Scratch directory for daemon state and span files.
    pub work_dir: PathBuf,
}

/// Runs one workload.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    let mut out = match o.workload {
        Workload::TickDefault => tick::run(o)?,
        Workload::DaemonSteady => daemon::run(o, false)?,
        Workload::DaemonSurge => daemon::run(o, true)?,
    };
    out.correct = out.failures.is_empty();
    Ok(out)
}

/// The world every workload runs on: organic faults and churn over the
/// [`WORLD_SEED`] topology and fault schedule, telemetry from `seed`.
pub fn build_world(scale: Scale, days: u64, seed: u64) -> World {
    let mut cfg = world_config(scale, days, seed, false);
    cfg.topology = scale.topology(WORLD_SEED);
    let rates = std::mem::replace(
        &mut cfg.fault_rates,
        world_config(scale, days, seed, true).fault_rates,
    );
    let mut world = World::new(cfg);
    let faults =
        FaultSchedule::generate(world.topology(), world.config().range, &rates, WORLD_SEED);
    world.add_faults(faults.faults().to_vec());
    world
}

/// Engine configuration at `threads`.
pub fn engine_config(world: &World, threads: usize) -> BlameItConfig {
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(world));
    cfg.parallelism = threads;
    cfg
}

/// Writes a traced run's spans out and prints their self-time table.
pub fn write_spans(o: &Opts, spans: &[blameit_obs::SpanEvent]) -> Result<(), String> {
    let path = o
        .work_dir
        .join(format!("{}-seed{}.spans.jsonl", o.workload.name(), o.seed));
    trace::write_jsonl(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{} spans written to {}", spans.len(), path.display());
    print!("{}", trace::render(&trace::self_times(spans)));
    Ok(())
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// When to stop measuring: after `seconds`, once the samples support
/// every tail percentile reported.
pub struct Budget {
    started: Instant,
    seconds: f64,
}

impl Budget {
    /// Starts the clock.
    pub fn start(seconds: f64) -> Budget {
        Budget {
            started: Instant::now(),
            seconds,
        }
    }

    /// True when measuring may stop; an error past the hard limit.
    pub fn done(&self, enough_samples: bool) -> Result<bool, String> {
        let t = secs(self.started);
        if !enough_samples && t > HARD_LIMIT_SECS {
            return Err(format!(
                "still too few samples for the tail percentiles after {t:.0}s"
            ));
        }
        Ok(t >= self.seconds && enough_samples)
    }
}

/// Tick stage times summed over a pass, in [`stage::ALL`] order, and
/// the engine's own whole-tick total.
#[derive(Clone, Debug, Default)]
pub struct StageSums {
    /// Per stage.
    pub stages: [Duration; 6],
    /// Summed engine-measured tick wall.
    pub total: Duration,
}

impl StageSums {
    /// Adds one tick's timings.
    pub fn add(&mut self, t: &StageTimings) {
        for (acc, name) in self.stages.iter_mut().zip(stage::ALL) {
            *acc += t.get(name).unwrap_or_default();
        }
        self.total += t.total();
    }

    /// Time charged to `name`.
    pub fn get(&self, name: &str) -> Duration {
        stage::ALL
            .iter()
            .position(|s| *s == name)
            .map_or(Duration::ZERO, |i| self.stages[i])
    }

    /// All stages together.
    pub fn sum(&self) -> Duration {
        self.stages.iter().sum()
    }
}

/// Verdict counts of a pass; they must repeat exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TickCounts {
    /// Ticks run.
    pub ticks: u64,
    /// On-demand traceroutes.
    pub on_demand_probes: u64,
    /// Background traceroutes.
    pub background_probes: u64,
    /// Middle localizations attempted.
    pub localizations: u64,
    /// Localizations that named a culprit AS.
    pub culprits: u64,
}

impl TickCounts {
    /// Adds one tick's output.
    pub fn add(&mut self, o: &TickOutput) {
        self.ticks += 1;
        self.on_demand_probes += o.on_demand_probes;
        self.background_probes += o.background_probes;
        self.localizations += o.localizations.len() as u64;
        self.culprits += o
            .localizations
            .iter()
            .filter(|l| l.culprit.is_some())
            .count() as u64;
    }

    /// Culprits per localization (0 when none were attempted).
    pub fn culprit_coverage(&self) -> f64 {
        if self.localizations == 0 {
            0.0
        } else {
            self.culprits as f64 / self.localizations as f64
        }
    }
}

/// The end-to-end measurements of a run, before reduction.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Each set-up's seconds.
    pub setups: Vec<f64>,
    /// Records turned into verdicts (or offered) per second of work.
    pub records_per_s: f64,
    /// Reply latency samples, ms.
    pub reply_ms: Vec<f64>,
    /// Verdict-lag samples, ms.
    pub lag_ms: Vec<f64>,
    /// Share of offered input that reached the engine.
    pub delivered_frac: f64,
}

impl EndToEnd {
    /// True once every tail percentile has enough samples behind it.
    pub fn enough(&self) -> bool {
        stats::beyond(self.reply_ms.len(), 0.95) >= stats::MIN_BEYOND
            && stats::beyond(self.lag_ms.len(), 0.90) >= stats::MIN_BEYOND
    }

    /// Reply and verdict-lag medians (the traced run reports its own).
    pub fn medians(&self) -> [f64; 2] {
        [median(&self.reply_ms), median(&self.lag_ms)]
    }

    /// Reduces to the `BENCHMARK.json` end-to-end metrics.
    pub fn emit(&self, out: &mut Outcome) {
        let reply = stats::sorted(self.reply_ms.clone());
        let lag = stats::sorted(self.lag_ms.clone());
        let mut tail = |v: &[f64], q: f64, what: &str| {
            let t = stats::tail(v, q);
            out.check(t.is_some(), || {
                format!("{what}: {} samples do not support p{}", v.len(), q * 100.0)
            });
            t.unwrap_or(f64::NAN)
        };
        let reply_p95 = tail(&reply, 0.95, "reply_ms");
        let lag_p90 = tail(&lag, 0.90, "verdict_lag_ms");
        out.e2e("setup_s", median(&self.setups), "s");
        out.e2e("peak_rss_mb", report::peak_rss_mb(), "MiB");
        out.e2e("records_per_s", self.records_per_s, "1/s");
        out.e2e("reply_ms_p50", stats::percentile(&reply, 0.5), "ms");
        out.e2e("reply_ms_p95", reply_p95, "ms");
        out.e2e("verdict_lag_ms_p50", stats::percentile(&lag, 0.5), "ms");
        out.e2e("verdict_lag_ms_p90", lag_p90, "ms");
        out.e2e("delivered_frac", self.delivered_frac, "ratio");
    }
}

/// The per-layer measurements of a traced run. Layers a workload does
/// not exercise stay zero, so every workload prints every metric.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Median over passes of each pass's summed stage time.
    pub stages: StageSums,
    /// Stage sum over tick wall.
    pub stage_coverage: f64,
    /// Engine calls into the simulator, per pass (summed thread time).
    pub backend: timed::BackendTimes,
    /// Quartet/record synthesis, seconds (kept out of every e2e metric).
    pub synthesis_s: f64,
    /// World build, median seconds.
    pub world_build_s: f64,
    /// Engine warmup (or daemon open), median seconds.
    pub warmup_s: f64,
    /// 1-thread / N-thread wall on the same inputs: tick, passive, enrichment.
    pub shard: [f64; 3],
    /// `read_frame` median, µs.
    pub wire_decode_us_p50: f64,
    /// Frame bytes decoded per pass.
    pub wire_bytes: f64,
    /// `DaemonCore::offer` median, ms.
    pub core_offer_ms_p50: f64,
    /// `AdmissionController::offer` median (standalone replay), ms.
    pub admission_offer_ms_p50: f64,
    /// `IngestWal::append` median (standalone replay), ms.
    pub wal_append_ms_p50: f64,
    /// Largest ingest WAL seen during a pass, bytes.
    pub wal_bytes_peak: f64,
    /// The daemon tick's ingest stage (queue merge + columnar kernel)
    /// per pass, ms.
    pub queue_ingest_ms: f64,
    /// `pump` wall minus the ticks it ran, per pass, ms.
    pub pump_overhead_ms: f64,
    /// Largest snapshot written, bytes.
    pub snapshot_bytes: f64,
    /// `DaemonCore::term`, median ms.
    pub term_ms: f64,
    /// `render_prometheus` median, µs.
    pub render_us: f64,
    /// Raw quartets the engine ingested per pass.
    pub quartets_raw: f64,
    /// Quartets that reached Algorithm 1 per pass.
    pub quartets_processed: f64,
    /// Verdict counts per pass.
    pub counts: TickCounts,
    /// Admission counts per pass: shed, refused records, `SLOW_DOWN`s,
    /// peak queue depth.
    pub admission: [u64; 4],
    /// The traced run's own reply and verdict-lag medians, ms.
    pub traced_e2e: [f64; 2],
    /// Spans recorded.
    pub spans: u64,
}

/// One pass's tick figures, as [`Layers::set_ticks`] reduces them.
pub struct TickFigures<'a> {
    /// Summed stage times.
    pub stages: &'a StageSums,
    /// Summed tick wall.
    pub wall: Duration,
    /// The engine's calls into the simulator.
    pub backend: &'a timed::BackendTimes,
}

impl Layers {
    /// Sets the stage, coverage, simulator and shard figures: medians
    /// over the N-thread passes, speed-ups against the 1-thread pass.
    pub fn set_ticks(&mut self, passes: &[TickFigures<'_>], one: &TickFigures<'_>) {
        let med = |f: &dyn Fn(&TickFigures<'_>) -> Duration| {
            Duration::from_secs_f64(median(
                &passes
                    .iter()
                    .map(|p| f(p).as_secs_f64())
                    .collect::<Vec<_>>(),
            ))
        };
        for (acc, name) in self.stages.stages.iter_mut().zip(stage::ALL) {
            *acc = med(&|p| p.stages.get(name));
        }
        self.stage_coverage = median(
            &passes
                .iter()
                .map(|p| p.stages.sum().as_secs_f64() / p.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        self.backend = timed::BackendTimes {
            route_info: med(&|p| p.backend.route_info),
            traceroute: med(&|p| p.backend.traceroute),
            churn: med(&|p| p.backend.churn),
            synthesis: med(&|p| p.backend.synthesis),
            served_quartets: passes.first().map_or(0, |p| p.backend.served_quartets),
        };
        let ratio = |a: Duration, b: Duration| a.as_secs_f64() / b.as_secs_f64();
        self.shard = [
            ratio(one.wall, med(&|p| p.wall)),
            ratio(
                one.stages.get(stage::PASSIVE),
                self.stages.get(stage::PASSIVE),
            ),
            ratio(
                one.stages.get(stage::AGGREGATION),
                self.stages.get(stage::AGGREGATION),
            ),
        ];
    }

    /// Emits the `BENCHMARK.json` per-layer metrics.
    pub fn emit(&self, out: &mut Outcome) {
        let s = &self.stages;
        out.layer("pipeline.ingest_ms", ms(s.get(stage::INGEST)), "ms");
        out.layer(
            "pipeline.enrichment_ms",
            ms(s.get(stage::AGGREGATION)),
            "ms",
        );
        out.layer("pipeline.passive_ms", ms(s.get(stage::PASSIVE)), "ms");
        out.layer("pipeline.priority_ms", ms(s.get(stage::PRIORITY)), "ms");
        out.layer("pipeline.active_ms", ms(s.get(stage::ACTIVE)), "ms");
        out.layer("pipeline.baseline_ms", ms(s.get(stage::BASELINE)), "ms");
        out.layer("pipeline.stage_coverage", self.stage_coverage, "ratio");
        out.layer("pipeline.warmup_s", self.warmup_s, "s");
        out.layer("simnet.route_info_ms", ms(self.backend.route_info), "ms");
        out.layer("simnet.traceroute_ms", ms(self.backend.traceroute), "ms");
        out.layer("simnet.churn_ms", ms(self.backend.churn), "ms");
        out.layer("simnet.synthesis_s", self.synthesis_s, "s");
        out.layer("topology.world_build_s", self.world_build_s, "s");
        out.layer("shard.speedup", self.shard[0], "ratio");
        out.layer("shard.passive_speedup", self.shard[1], "ratio");
        out.layer("shard.enrichment_speedup", self.shard[2], "ratio");
        out.layer("wire.decode_us_p50", self.wire_decode_us_p50, "us");
        out.layer("wire.bytes", self.wire_bytes, "bytes");
        out.layer("core.offer_ms_p50", self.core_offer_ms_p50, "ms");
        out.layer("admission.offer_ms_p50", self.admission_offer_ms_p50, "ms");
        out.layer("wal.append_ms_p50", self.wal_append_ms_p50, "ms");
        out.layer("wal.bytes_peak", self.wal_bytes_peak, "bytes");
        out.layer("queue.ingest_ms", self.queue_ingest_ms, "ms");
        out.layer("persist.pump_overhead_ms", self.pump_overhead_ms, "ms");
        out.layer("persist.snapshot_bytes", self.snapshot_bytes, "bytes");
        out.layer("core.term_ms", self.term_ms, "ms");
        out.layer("obs.render_us", self.render_us, "us");
        out.layer("pipeline.quartets_raw", self.quartets_raw, "count");
        out.layer(
            "pipeline.quartets_processed",
            self.quartets_processed,
            "count",
        );
        let c = &self.counts;
        out.layer(
            "active.on_demand_probes",
            c.on_demand_probes as f64,
            "count",
        );
        out.layer("background.probes", c.background_probes as f64, "count");
        out.layer("active.culprit_coverage", c.culprit_coverage(), "ratio");
        out.layer("admission.shed_records", self.admission[0] as f64, "count");
        out.layer(
            "admission.refused_records",
            self.admission[1] as f64,
            "count",
        );
        out.layer("admission.slow_downs", self.admission[2] as f64, "count");
        out.layer("core.queue_peak_records", self.admission[3] as f64, "count");
        out.layer("core.ticks", c.ticks as f64, "count");
        out.layer("trace.reply_ms_p50", self.traced_e2e[0], "ms");
        out.layer("trace.verdict_lag_ms_p50", self.traced_e2e[1], "ms");
        out.layer("trace.spans", self.spans as f64, "count");
    }
}
