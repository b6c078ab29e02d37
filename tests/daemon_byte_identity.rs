//! Byte-identity contract for the daemon's durable outputs: a tiny
//! surged world fed through [`DaemonCore`] must leave exactly the same
//! bytes behind — the ingest WAL as it grows and compacts, the final
//! snapshot, the tick journal, and the shed log — as the digests pinned
//! below. They were captured before the ingest path's codecs and
//! admission scoring were optimised, so a pass proves those rewrites
//! changed speed only, never a byte on disk or a shedding decision.

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
