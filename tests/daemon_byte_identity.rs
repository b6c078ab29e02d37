//! Byte-identity contract for the daemon's durable outputs: a tiny
//! surged world fed through [`DaemonCore`] must leave exactly the same
//! bytes behind — the ingest WAL as it grows and compacts, the final
//! snapshot, the tick journal, and the shed log — as the digests pinned
//! below. They were captured before the ingest path's codecs and
//! admission scoring were optimised, so a pass proves those rewrites
//! changed speed only, never a byte on disk or a shedding decision.
//!
//! A second case feeds buckets out of order within each tick window,
//! splits one bucket across two batches, and drops and reopens the
//! daemon between prune compactions. Its digests were captured while
//! WAL compaction still re-encoded the queue, so a pass proves that
//! compaction by byte copy leaves the same file.

use blameit::persist::journal::JOURNAL_FILE;
use blameit::Backend;
use blameit::{
    render_tick_transcript, BadnessThresholds, BlameItConfig, RecordBatch, StartMode, TickOutput,
    WorldBackend,
};
use blameit_bench::{quiet_world, Scale};
use blameit_daemon::{DaemonConfig, DaemonCore, OfferReply};
use blameit_obs::MetricsRegistry;
use blameit_simnet::{SurgePlan, TimeBucket, TimeRange};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// FNV-1a over a byte string: a stable digest with no dependency.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blameit-dbi-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The newest `snapshot-*.snap` in `dir` (names are zero-padded, so
/// lexical order is tick order).
fn newest_snapshot(dir: &Path) -> Option<PathBuf> {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snapshot-") && n.ends_with(".snap"))
        })
        .collect();
    snaps.sort();
    snaps.pop()
}

/// Folds the digest of every durable file in `dir` — WAL, journal,
/// newest snapshot — into `acc`.
fn fold_state(acc: &mut u64, dir: &Path) {
    let mut files = vec![dir.join("ingest.wal"), dir.join(JOURNAL_FILE)];
    files.extend(newest_snapshot(dir));
    for path in files {
        let bytes = std::fs::read(path).unwrap();
        *acc = fnv1a64(&[acc.to_le_bytes(), fnv1a64(&bytes).to_le_bytes()].concat());
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Digests {
    /// Folded over the WAL, journal and newest snapshot after every
    /// offer and pump, so every append, every mid-run compaction and
    /// every checkpoint contributes.
    state_running: u64,
    /// The WAL as the feed ends: the last mid-run compaction plus the
    /// appends since.
    wal_at_term: u64,
    /// The WAL after TERM's final compaction.
    wal_final: u64,
    /// The snapshot TERM checkpointed.
    snapshot: u64,
    shed_log: u64,
    transcript: u64,
}

fn run() -> (Digests, u64, u64) {
    let world = quiet_world(Scale::Tiny, 2, 0xD5EED);
    let dir = state_dir("run");
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(&world));
    cfg.parallelism = 1;
    cfg.state_dir = Some(dir.clone());
    cfg.snapshot_every_ticks = 2;
    let tick_buckets = cfg.tick_buckets;
    let mut dcfg = DaemonConfig::default();
    dcfg.admission.queue_cap_records = 160_000;
    dcfg.admission.shed_watermark_records = 90_000;
    dcfg.admission.per_loc_shed_cap = 30_000;

    let warmup = TimeRange::days(1);
    let feed_start = warmup.end.bucket().0;
    let surge = SurgePlan::single(
        TimeBucket(feed_start + 6),
        TimeBucket(feed_start + 14),
        10,
        0xAB,
    );
    let feed = WorldBackend::new(&world);
    let (mut core, recovery) = DaemonCore::open(
        cfg,
        dcfg,
        Arc::new(MetricsRegistry::new()),
        WorldBackend::new(&world),
        warmup,
    )
    .unwrap();
    assert_eq!(recovery.mode, StartMode::Cold);

    let mut state_running = 0u64;
    let n_ticks = 6u32;
    let mut outs: Vec<TickOutput> = Vec::new();
    for b in feed_start..feed_start + n_ticks * tick_buckets {
        let bucket = TimeBucket(b);
        let records = surge.amplify(bucket, &feed.rtt_records_in(bucket).unwrap());
        if records.is_empty() {
            continue;
        }
        let batch = RecordBatch::from_records(bucket, &records);
        for _ in 0..3 {
            let reply = core.offer(batch.clone()).unwrap();
            fold_state(&mut state_running, &dir);
            outs.extend(core.pump().unwrap());
            fold_state(&mut state_running, &dir);
            if matches!(reply, OfferReply::Ack { .. }) {
                break;
            }
        }
    }
    let wal_at_term = fnv1a64(&std::fs::read(dir.join("ingest.wal")).unwrap());
    outs.extend(core.term().unwrap());
    assert_eq!(outs.len(), n_ticks as usize, "every tick window fired");

    let stats = core.stats();
    let shed_log: String = core
        .shed_log()
        .iter()
        .map(|e| format!("{} {:#x} {}\n", e.bucket.0, e.subkey, e.records))
        .collect();
    drop(core);
    let digests = Digests {
        state_running,
        wal_at_term,
        wal_final: fnv1a64(&std::fs::read(dir.join("ingest.wal")).unwrap()),
        snapshot: fnv1a64(&std::fs::read(newest_snapshot(&dir).unwrap()).unwrap()),
        shed_log: fnv1a64(shed_log.as_bytes()),
        transcript: fnv1a64(render_tick_transcript(&outs).as_bytes()),
    };
    let _ = std::fs::remove_dir_all(&dir);
    (digests, stats.shed_low_impact, stats.backpressure_replies)
}

#[test]
fn surged_daemon_run_leaves_pinned_bytes() {
    let (got, shed, refused) = run();
    // The feed must actually exercise the overload paths, or the shed
    // log digest pins nothing.
    assert!(shed > 0, "the surge provoked shedding");
    assert!(refused > 0, "the surge provoked SLOW_DOWN refusals");
    let want = Digests {
        state_running: 0xf7b0_a165_2073_327e,
        wal_at_term: 0xd764_65ac_1cbd_3153,
        wal_final: 0x1e15_f7df_8278_479a,
        snapshot: 0x1f23_5118_0634_a95f,
        shed_log: 0x95dc_ddc0_d00d_9da4,
        transcript: 0xac69_3ea3_7bf2_9df6,
    };
    assert_eq!(got, want, "daemon output bytes changed");
}

/// Buckets of tick window `w` (starting at `start`) in the order the
/// reordered feed offers them: rotated by `w`, so every window but the
/// first arrives out of bucket order.
fn window_order(start: u32, w: u32, tick_buckets: u32) -> Vec<u32> {
    (0..tick_buckets)
        .map(|i| start + (i + w) % tick_buckets)
        .collect()
}

/// The lowest bucket the WAL still holds (`None` when empty).
fn wal_floor(dir: &Path) -> Option<u32> {
    let rec = blameit_daemon::read_wal(&dir.join("ingest.wal")).unwrap();
    assert!(!rec.torn_tail);
    rec.batches.iter().map(|b| b.bucket.0).min()
}

#[derive(Debug, PartialEq, Eq)]
struct ReorderedDigests {
    /// `(ticks done, WAL digest)` after every pump that ticked: each
    /// prune compaction rewrites the WAL inside such a pump.
    wal_after_ticks: Vec<(u64, u64)>,
    /// The WAL as the first daemon is dropped mid-window.
    wal_at_drop: u64,
    /// The WAL after TERM's final compaction.
    wal_final: u64,
    snapshot: u64,
    transcript: u64,
}

fn run_reordered() -> (ReorderedDigests, usize) {
    let world = quiet_world(Scale::Tiny, 2, 0xD5EED);
    let dir = state_dir("reordered");
    let mut cfg = BlameItConfig::new(BadnessThresholds::default_for(&world));
    cfg.parallelism = 1;
    cfg.state_dir = Some(dir.clone());
    cfg.snapshot_every_ticks = 2;
    let tick_buckets = cfg.tick_buckets;
    let mut dcfg = DaemonConfig::default();
    dcfg.admission.queue_cap_records = 160_000;
    dcfg.admission.shed_watermark_records = 90_000;
    dcfg.admission.per_loc_shed_cap = 30_000;
    let warmup = TimeRange::days(1);
    let feed_start = warmup.end.bucket().0;
    let open = || {
        DaemonCore::open(
            cfg.clone(),
            dcfg.clone(),
            Arc::new(MetricsRegistry::new()),
            WorldBackend::new(&world),
            warmup,
        )
        .unwrap()
    };
    let feed = WorldBackend::new(&world);

    // The offers: window by window, rotated; window 1's first bucket
    // is split in two, its second half offered last in the window.
    let n_ticks = 9u32;
    let mut offers: Vec<RecordBatch> = Vec::new();
    for w in 0..n_ticks {
        let mut late = None;
        for b in window_order(feed_start + w * tick_buckets, w, tick_buckets) {
            let bucket = TimeBucket(b);
            let records = feed.rtt_records_in(bucket).unwrap();
            if w == 1 && late.is_none() {
                let mid = records.len() / 2;
                offers.push(RecordBatch::from_records(bucket, &records[..mid]));
                late = Some(RecordBatch::from_records(bucket, &records[mid..]));
                continue;
            }
            offers.push(RecordBatch::from_records(bucket, &records));
        }
        offers.extend(late);
    }
    // Drop the daemon after window 5's first two offers: five ticks
    // done (two prune compactions behind it), the newest snapshot at
    // tick 4, and unticked out-of-order batches in the WAL.
    let drop_after = (5 * tick_buckets + 1 + 2) as usize;

    let (mut core, recovery) = open();
    assert_eq!(recovery.mode, StartMode::Cold);
    let mut outs: Vec<TickOutput> = Vec::new();
    let mut wal_after_ticks = Vec::new();
    let mut floors = Vec::new();
    let mut wal_at_drop = 0;
    for (i, batch) in offers.into_iter().enumerate() {
        if i == drop_after {
            wal_at_drop = fnv1a64(&std::fs::read(dir.join("ingest.wal")).unwrap());
            drop(core);
            let (reopened, recovery) = open();
            assert_eq!(recovery.mode, StartMode::Recovered);
            core = reopened;
        }
        let reply = core.offer(batch).unwrap();
        assert!(
            matches!(reply, OfferReply::Ack { shed: 0, .. }),
            "{reply:?}"
        );
        let ticked = core.pump().unwrap();
        if !ticked.is_empty() {
            let wal = fnv1a64(&std::fs::read(dir.join("ingest.wal")).unwrap());
            wal_after_ticks.push((core.ticks_done(), wal));
            floors.extend(wal_floor(&dir));
        }
        outs.extend(ticked);
    }
    outs.extend(core.term().unwrap());
    assert_eq!(outs.len(), n_ticks as usize, "every tick window fired");
    drop(core);
    floors.dedup();
    let digests = ReorderedDigests {
        wal_after_ticks,
        wal_at_drop,
        wal_final: fnv1a64(&std::fs::read(dir.join("ingest.wal")).unwrap()),
        snapshot: fnv1a64(&std::fs::read(newest_snapshot(&dir).unwrap()).unwrap()),
        transcript: fnv1a64(render_tick_transcript(&outs).as_bytes()),
    };
    let _ = std::fs::remove_dir_all(&dir);
    (digests, floors.len())
}

#[test]
fn reordered_split_reopened_run_leaves_pinned_wal_bytes() {
    let (got, floors) = run_reordered();
    // Each distinct WAL floor after the first is a prune compaction
    // that dropped covered buckets.
    assert!(
        floors >= 3,
        "at least two pruning compactions ({floors} floors)"
    );
    let want = ReorderedDigests {
        wal_after_ticks: vec![
            (1, 0xad95_2671_b73a_feb4),
            (2, 0x8d1c_c152_e41b_6d15),
            (3, 0x1594_ff1f_0954_508c),
            (4, 0x4e6e_a912_d619_1df8),
            (5, 0x6ad4_2006_1d81_ce14),
            (6, 0x5150_1bf3_b471_4f60),
            (7, 0x3878_8e72_3748_8679),
            (8, 0x31bb_1323_7681_6fe2),
        ],
        wal_at_drop: 0x204b_22fc_a3cf_07ae,
        wal_final: 0x1e15_f7df_8278_479a,
        snapshot: 0xaf29_5bc0_c9a6_140f,
        transcript: 0x0157_4910_0f3a_277b,
    };
    assert_eq!(got, want, "daemon output bytes changed");
}
