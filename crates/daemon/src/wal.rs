//! The crash-safe ingest write-ahead log.
//!
//! The engine's journal makes *ticks* durable; this WAL makes the
//! *not-yet-ticked queue* durable. Every admitted batch is appended
//! and fsync'd **before** it becomes engine-visible, so a hard kill
//! between admission and the covering snapshot loses nothing: on
//! restart the WAL refills the queue first, then
//! [`DurableEngine::open`](blameit::DurableEngine::open) replays
//! journaled ticks *through* the refilled queue — which is what makes
//! the resumed run byte-identical to one that never crashed.
//!
//! Layout reuses the persistence codec: the standard preamble with a
//! WAL kind byte, then one CRC'd section per admitted batch (the
//! section payload is the batch's wire frame — one byte dialect
//! everywhere). A torn tail (the append that was racing the kill) is
//! detected by the section CRC and truncated on replay, exactly like
//! the tick journal.

use crate::wire::{decode_frame, encode_batch, Frame};
use blameit::persist::codec::{self, ByteWriter};
use blameit::RecordBatch;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Preamble kind byte for ingest WALs (snapshots are 1, journals 2).
const KIND_INGEST_WAL: u8 = 3;
/// Section id for one admitted batch.
const SEC_BATCH: u8 = 1;

/// What [`IngestWal::open`] found on disk.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Batches recovered, in append order.
    pub batches: Vec<RecordBatch>,
    /// A torn trailing record was found and discarded.
    pub torn_tail: bool,
}

/// An append-only, fsync'd log of admitted ingest batches.
pub struct IngestWal {
    path: PathBuf,
    file: File,
}

impl IngestWal {
    /// Opens (creating if absent) the WAL at `path` and replays any
    /// existing contents. A torn tail is truncated away so subsequent
    /// appends start at a valid boundary.
    pub fn open(path: &Path) -> io::Result<(IngestWal, WalRecovery)> {
        let mut recovery = WalRecovery::default();
        let mut valid_len = 0u64;
        match std::fs::read(path) {
            Ok(bytes) if !bytes.is_empty() => {
                let (batches, valid, torn) = replay(&bytes);
                recovery.batches = batches;
                recovery.torn_tail = torn;
                valid_len = valid;
            }
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let file = if valid_len == 0 {
            let mut f = File::create(path)?;
            let mut w = ByteWriter::new();
            codec::write_preamble(&mut w, KIND_INGEST_WAL);
            f.write_all(&w.into_bytes())?;
            f.sync_data()?;
            f
        } else {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(valid_len)?;
            f.sync_data()?;
            let mut f = f;
            use std::io::Seek;
            f.seek(io::SeekFrom::End(0))?;
            f
        };
        Ok((
            IngestWal {
                path: path.to_path_buf(),
                file,
            },
            recovery,
        ))
    }

    /// Appends one admitted batch and fsyncs. Only after this returns
    /// may the batch become engine-visible.
    pub fn append(&mut self, batch: &RecordBatch) -> io::Result<()> {
        self.file.write_all(&wal_record(batch))?;
        self.file.sync_data()
    }

    /// Rewrites the WAL to hold exactly `retained` (batches whose
    /// buckets a durable snapshot does not yet cover), via temp file +
    /// fsync + rename so a kill mid-compaction leaves the old WAL
    /// intact.
    pub fn compact<'a>(
        &mut self,
        retained: impl IntoIterator<Item = &'a RecordBatch>,
    ) -> io::Result<()> {
        let tmp = self.path.with_extension("wal.tmp");
        {
            let mut f = File::create(&tmp)?;
            let mut w = ByteWriter::new();
            codec::write_preamble(&mut w, KIND_INGEST_WAL);
            f.write_all(&w.into_bytes())?;
            for batch in retained {
                f.write_all(&wal_record(batch))?;
            }
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            // Make the rename itself durable.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        let mut f = OpenOptions::new().write(true).open(&self.path)?;
        use std::io::Seek;
        f.seek(io::SeekFrom::End(0))?;
        self.file = f;
        Ok(())
    }
}

/// One WAL record: a section whose payload is the batch's wire frame.
fn wal_record(batch: &RecordBatch) -> Vec<u8> {
    let payload = encode_batch(batch);
    let mut w = ByteWriter::with_capacity(1 + 8 + payload.len() + 4);
    codec::write_section(&mut w, SEC_BATCH, &payload);
    w.into_bytes()
}

/// Walks `bytes`, returning (recovered batches, valid byte length,
/// torn tail seen). Anything undecodable counts as the torn tail —
/// the WAL's only writer appends whole sections, so a bad section can
/// only be the append in flight at the kill.
fn replay(bytes: &[u8]) -> (Vec<RecordBatch>, u64, bool) {
    let Ok(mut r) = codec::read_preamble(bytes, KIND_INGEST_WAL) else {
        return (Vec::new(), 0, true);
    };
    let preamble_len = bytes.len() - r.remaining();
    let mut batches = Vec::new();
    let mut valid = preamble_len as u64;
    loop {
        if r.remaining() == 0 {
            return (batches, valid, false);
        }
        match codec::read_section(&mut r) {
            Ok((SEC_BATCH, payload)) => match decode_frame(payload) {
                Ok(Frame::Batch { batch }) => {
                    batches.push(batch);
                    valid = (bytes.len() - r.remaining()) as u64;
                }
                _ => return (batches, valid, true),
            },
            _ => return (batches, valid, true),
        }
    }
}

/// Reads back every batch in a WAL file (fsck-style helper for tests
/// and the smoke harness).
pub fn read_wal(path: &Path) -> io::Result<WalRecovery> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let (batches, _, torn_tail) = replay(&bytes);
    Ok(WalRecovery { batches, torn_tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit_simnet::TimeBucket;

    fn batch(bucket: u32, n: u64) -> RecordBatch {
        RecordBatch {
            bucket: TimeBucket(bucket),
            keys: (0..n).collect(),
            rtt: (0..n).map(|i| 10.0 + i as f64).collect(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("blameitd-wal-{name}-{}", std::process::id()))
    }

    #[test]
    fn append_then_reopen_recovers_in_order() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut wal, rec) = IngestWal::open(&path).unwrap();
        assert!(rec.batches.is_empty());
        wal.append(&batch(3, 5)).unwrap();
        wal.append(&batch(4, 2)).unwrap();
        drop(wal);
        let (_, rec) = IngestWal::open(&path).unwrap();
        assert_eq!(rec.batches, vec![batch(3, 5), batch(4, 2)]);
        assert!(!rec.torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = IngestWal::open(&path).unwrap();
        wal.append(&batch(3, 5)).unwrap();
        wal.append(&batch(4, 2)).unwrap();
        drop(wal);
        // Tear the last record mid-write.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        let (mut wal, rec) = IngestWal::open(&path).unwrap();
        assert_eq!(rec.batches, vec![batch(3, 5)]);
        assert!(rec.torn_tail);
        // The WAL is usable again after truncation.
        wal.append(&batch(5, 1)).unwrap();
        drop(wal);
        let rec = read_wal(&path).unwrap();
        assert_eq!(rec.batches, vec![batch(3, 5), batch(5, 1)]);
        assert!(!rec.torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_keeps_only_retained() {
        let path = tmp("compact");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = IngestWal::open(&path).unwrap();
        for b in 0..6 {
            wal.append(&batch(b, 4)).unwrap();
        }
        wal.compact(&[batch(4, 4), batch(5, 4)]).unwrap();
        wal.append(&batch(6, 1)).unwrap();
        drop(wal);
        let rec = read_wal(&path).unwrap();
        assert_eq!(rec.batches, vec![batch(4, 4), batch(5, 4), batch(6, 1)]);
        let _ = std::fs::remove_file(&path);
    }
}
