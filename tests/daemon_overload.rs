//! Overload determinism through the daemon's decision core: the same
//! surged feed, replayed bucket by bucket at different thread counts,
//! must shed exactly the same quartet groups and produce byte-identical
//! tick transcripts — while the queue never exceeds its hard cap and
//! backpressure is actually exercised. This is the in-process half of
//! the `blameitd` overload contract (the socket half lives in
//! `tests/daemon_smoke.rs`, the scenario-library golden in
//! `scenarios/ingest-surge-overload.scn`).

use blameit::Backend;
use blameit::{
    pack_subkey, render_tick_transcript, AdmissionConfig, AdmissionController, AdmissionDecision,
    BadnessThresholds, BlameItConfig, RecordBatch, StartMode, TickOutput, WorldBackend,
};
use blameit_bench::{quiet_world, Scale};
use blameit_daemon::{DaemonConfig, DaemonCore, IngestStats, OfferReply, ShedEntry};
use blameit_obs::{FlightTrigger, MetricsRegistry};
use blameit_simnet::{SurgePlan, TimeBucket, TimeRange, World};
use blameit_topology::{CloudLocId, Prefix24};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blameit-dov-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(world: &World, dir: &Path, threads: usize) -> BlameItConfig {
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(world));
    cfg.parallelism = threads;
    cfg.state_dir = Some(dir.to_path_buf());
    cfg.snapshot_every_ticks = 2;
    cfg
}

/// The overload knobs the surged tiny-world feed was calibrated
/// against (one post-midnight tiny-world bucket carries ≈ 8k records,
/// a 10× surged bucket ≈ 80k): surged buckets are admitted with heavy
/// shedding until the parked queue forces wholesale refusals.
fn overload_dcfg() -> DaemonConfig {
    let mut dcfg = DaemonConfig::default();
    dcfg.admission.queue_cap_records = 160_000;
    dcfg.admission.shed_watermark_records = 90_000;
    dcfg.admission.per_loc_shed_cap = 30_000;
    dcfg
}

struct OverloadRun {
    transcript: String,
    shed_log: Vec<ShedEntry>,
    stats: IngestStats,
    abandoned: u64,
    overload_fired: bool,
}

/// Feeds `n_ticks` windows of (surged) world telemetry through a fresh
/// `DaemonCore`, abandoning a bucket after three refusals like the
/// reference feeder, and terminates gracefully.
fn run_surged(world: &World, tag: &str, threads: usize, surge: &SurgePlan) -> OverloadRun {
    let dir = state_dir(&format!("{tag}-t{threads}"));
    let cfg = config(world, &dir, threads);
    let tick_buckets = cfg.tick_buckets;
    let inner = WorldBackend::with_parallelism(world, threads);
    let feed = WorldBackend::with_parallelism(world, threads);
    let warmup = TimeRange::days(1);
    let (mut core, recovery) = DaemonCore::open(
        cfg,
        overload_dcfg(),
        Arc::new(MetricsRegistry::new()),
        inner,
        warmup,
    )
    .unwrap();
    assert_eq!(recovery.mode, StartMode::Cold);

    let n_ticks = 8u32;
    let feed_start = warmup.end.bucket().0;
    let mut outs: Vec<TickOutput> = Vec::new();
    let mut abandoned = 0u64;
    for b in feed_start..feed_start + n_ticks * tick_buckets {
        let bucket = TimeBucket(b);
        let records = feed.rtt_records_in(bucket).unwrap();
        let records = surge.amplify(bucket, &records);
        if records.is_empty() {
            continue;
        }
        let batch = RecordBatch::from_records(bucket, &records);
        let cap = core.admission().config().queue_cap_records;
        for attempt in 1..=3u32 {
            match core.offer(batch.clone()).unwrap() {
                OfferReply::Ack { .. } => break,
                OfferReply::SlowDown { queue_depth, .. } => {
                    assert!(
                        queue_depth as usize <= cap,
                        "refusal quotes a bounded depth"
                    );
                    if attempt == 3 {
                        abandoned += 1;
                    }
                }
            }
            outs.extend(core.pump().unwrap());
        }
        outs.extend(core.pump().unwrap());
        assert!(
            core.queue_depth() <= cap,
            "queue depth {} exceeded the hard cap {cap}",
            core.queue_depth()
        );
    }
    outs.extend(core.term().unwrap());
    assert_eq!(outs.len(), n_ticks as usize, "every tick window fired");

    let overload_fired = core
        .engine()
        .flight()
        .dump_events()
        .iter()
        .any(|e| e.trigger == FlightTrigger::OverloadSustained);
    let run = OverloadRun {
        transcript: render_tick_transcript(&outs),
        shed_log: core.shed_log().to_vec(),
        stats: core.stats(),
        abandoned,
        overload_fired,
    };
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

#[test]
fn surged_feed_sheds_identically_at_any_thread_count() {
    let world = quiet_world(Scale::Tiny, 2, 0xD5EED);
    let feed_start = TimeRange::days(1).end.bucket().0;
    // A 10× surge over four of the eight fed tick windows.
    let surge = SurgePlan::single(
        TimeBucket(feed_start + 6),
        TimeBucket(feed_start + 17),
        10,
        0xAB,
    );

    let one = run_surged(&world, "det", 1, &surge);
    let four = run_surged(&world, "det", 4, &surge);

    // The overload machinery actually engaged.
    assert!(one.stats.shed_low_impact > 0, "surge provoked shedding");
    assert!(
        one.stats.backpressure_replies > 0,
        "surge provoked SLOW_DOWN refusals"
    );
    assert!(one.abandoned > 0, "some surged buckets exhausted retries");
    assert!(
        one.stats.queue_peak <= 160_000,
        "queue peak {} stayed under the cap",
        one.stats.queue_peak
    );
    assert!(
        one.overload_fired,
        "sustained overload tripped the flight recorder"
    );

    // And did so identically regardless of engine parallelism.
    assert_eq!(
        one.stats, four.stats,
        "ingest accounting is thread-invariant"
    );
    assert_eq!(one.abandoned, four.abandoned);
    assert_eq!(
        one.shed_log, four.shed_log,
        "the same groups shed in the same order"
    );
    assert_eq!(
        one.transcript, four.transcript,
        "tick transcripts byte-identical across thread counts"
    );
    assert_eq!(one.overload_fired, four.overload_fired);
}

#[test]
fn quiet_feed_sheds_nothing() {
    let world = quiet_world(Scale::Tiny, 2, 0xD5EED);
    let run = run_surged(&world, "quiet", 1, &SurgePlan::default());
    assert_eq!(run.stats.shed_low_impact, 0);
    assert_eq!(run.stats.backpressure_replies, 0);
    assert_eq!(run.abandoned, 0);
    assert!(run.shed_log.is_empty());
    assert_eq!(run.stats.offered, run.stats.admitted);
    assert!(!run.overload_fired, "no overload episode on a quiet feed");
}

#[test]
fn location_only_distinct_subkeys_cannot_flood_admission() {
    // Every subkey differs from the others only in its location bits
    // (25..41). A hash that keeps those bits out of its low bits sends
    // all of them down one probe chain, and each admission lookup then
    // costs O(groups): quadratic in the offer. Half the groups must be
    // shed (the shed pass's `taken` set) and the other half start
    // streaks; the next bucket's offer looks every group up again.
    let keys: Vec<u64> = (0..=u16::MAX)
        .map(|loc| pack_subkey(CloudLocId(loc), Prefix24::from_block(0x00AB_CDEF), false))
        .collect();
    let groups = keys.len();
    let mut admission = AdmissionController::new(AdmissionConfig {
        queue_cap_records: 4 * groups,
        shed_watermark_records: groups / 2,
        per_loc_shed_cap: groups,
        retry_after_secs: 1,
    });
    let started = Instant::now();
    for bucket in [TimeBucket(500), TimeBucket(501)] {
        let batch = RecordBatch {
            bucket,
            keys: keys.clone(),
            rtt: (0..groups).map(|i| 20.0 + (i % 97) as f64).collect(),
        };
        match admission.offer(batch, 0) {
            AdmissionDecision::Admit { batch, shed } => {
                assert_eq!(shed.len(), groups / 2, "the shed pass ran");
                assert_eq!(batch.len(), groups / 2);
            }
            other => panic!("expected an admit, got {other:?}"),
        }
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "two offers of {groups} location-only-distinct groups took {took:?}"
    );
}
