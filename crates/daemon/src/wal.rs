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
//! the tick journal. Records are never re-encoded once written:
//! compaction copies the retained records' bytes by their spans.

use crate::wire::{batch_frame_len, decode_frame, put_batch, Frame};
use blameit::persist::codec::{self, crc32_update, ByteWriter};
use blameit::RecordBatch;
use blameit_simnet::TimeBucket;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
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

/// Where one record sits in the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    bucket: u32,
    offset: u64,
    len: u64,
}

/// An append-only, fsync'd log of admitted ingest batches.
pub struct IngestWal {
    path: PathBuf,
    file: File,
    /// One span per record, in file order. Compaction copies records
    /// by span instead of re-encoding them.
    spans: Vec<Span>,
    /// Record scratch, reused across appends.
    buf: Vec<u8>,
}

impl IngestWal {
    /// Opens (creating if absent) the WAL at `path` and replays any
    /// existing contents. A torn tail is truncated away so subsequent
    /// appends start at a valid boundary.
    pub fn open(path: &Path) -> io::Result<(IngestWal, WalRecovery)> {
        let mut recovery = WalRecovery::default();
        let mut spans = Vec::new();
        let mut valid_len = 0u64;
        match std::fs::read(path) {
            Ok(bytes) if !bytes.is_empty() => {
                let replayed = replay(&bytes);
                recovery.batches = replayed.batches;
                recovery.torn_tail = replayed.torn_tail;
                spans = replayed.spans;
                valid_len = replayed.valid_len;
            }
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let file = if valid_len == 0 {
            let mut f = File::create(path)?;
            write_preamble(&mut f)?;
            f.sync_data()?;
            f
        } else {
            let mut f = OpenOptions::new().write(true).open(path)?;
            f.set_len(valid_len)?;
            f.sync_data()?;
            f.seek(SeekFrom::End(0))?;
            f
        };
        let wal = IngestWal {
            path: path.to_path_buf(),
            file,
            spans,
            buf: Vec::new(),
        };
        Ok((wal, recovery))
    }

    /// Appends one admitted batch and fsyncs. Only after this returns
    /// may the batch become engine-visible.
    pub fn append(&mut self, batch: &RecordBatch) -> io::Result<()> {
        self.buf.clear();
        wal_record(&mut self.buf, batch);
        // The file position, not a running total: bytes of a failed
        // write or fsync stay in the file but never in the index, so
        // compaction drops them (the batch never reached the queue).
        let offset = self.file.stream_position()?;
        self.file.write_all(&self.buf)?;
        self.file.sync_data()?;
        self.spans.push(Span {
            bucket: batch.bucket.0,
            offset,
            len: self.buf.len() as u64,
        });
        Ok(())
    }

    /// Rewrites the WAL to hold only the records for buckets at or
    /// after `cutoff` (buckets below it are covered by a durable
    /// snapshot), in (bucket, arrival) order — the order the queue
    /// serves them. Records are copied byte for byte from the current
    /// file into a temp file, which is fsync'd and renamed over the
    /// WAL, so a kill mid-compaction leaves the old WAL intact.
    pub fn compact_below(&mut self, cutoff: TimeBucket) -> io::Result<()> {
        let mut kept: Vec<Span> = self
            .spans
            .iter()
            .filter(|s| s.bucket >= cutoff.0)
            .copied()
            .collect();
        kept.sort_by_key(|s| s.bucket); // stable: arrival order within a bucket
        let tmp = self.path.with_extension("wal.tmp");
        let out = copy_spans(&self.path, &tmp, &mut kept)
            .and_then(|out| std::fs::rename(&tmp, &self.path).map(|()| out))
            .inspect_err(|_| {
                let _ = std::fs::remove_file(&tmp);
            })?;
        // Invariant: once the rename has happened, nothing may fail.
        // The append handle was opened on the temp file before the
        // rename and now names the WAL itself, so no reopen can leave
        // `self.file` on the unlinked old inode (where every later
        // fsync'd, acknowledged append would be lost at restart).
        self.file = out;
        self.spans = kept;
        if let Some(dir) = self.path.parent() {
            // Make the rename itself durable (best effort).
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

/// Writes a fresh WAL at `tmp`: the preamble, then each of `spans`
/// copied from the WAL at `src`, fsync'd. Rebases `spans` onto the new
/// file and returns its handle, positioned at the end, ready to append.
fn copy_spans(src: &Path, tmp: &Path, spans: &mut [Span]) -> io::Result<File> {
    let mut from = File::open(src)?;
    let mut out = File::create(tmp)?;
    let mut end = write_preamble(&mut out)?;
    for span in spans.iter_mut() {
        from.seek(SeekFrom::Start(span.offset))?;
        let copied = io::copy(&mut (&mut from).take(span.len), &mut out)?;
        if copied != span.len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("wal record at {} ends early", span.offset),
            ));
        }
        span.offset = end;
        end += span.len;
    }
    out.sync_data()?;
    Ok(out)
}

/// Writes the WAL preamble to a fresh file, returning its length.
fn write_preamble(f: &mut File) -> io::Result<u64> {
    let mut w = ByteWriter::new();
    codec::write_preamble(&mut w, KIND_INGEST_WAL);
    let preamble = w.into_bytes();
    f.write_all(&preamble)?;
    Ok(preamble.len() as u64)
}

/// Appends one WAL record to `out`: a section whose payload is the
/// batch's wire frame, encoded in place and checksummed once.
fn wal_record(out: &mut Vec<u8>, batch: &RecordBatch) {
    codec::put_section(out, SEC_BATCH, batch_frame_len(batch), |out| {
        // The section payload is the frame including its sealed CRC.
        let frame_crc = put_batch(out, batch);
        crc32_update(frame_crc, &frame_crc.to_le_bytes())
    });
}

/// What [`replay`] recovered from a WAL image.
struct Replayed {
    batches: Vec<RecordBatch>,
    spans: Vec<Span>,
    valid_len: u64,
    torn_tail: bool,
}

/// Walks `bytes`, recovering every whole record and where it sits.
/// Anything undecodable counts as the torn tail — the WAL's only
/// writer appends whole sections, so a bad section can only be the
/// append in flight at the kill.
fn replay(bytes: &[u8]) -> Replayed {
    let mut out = Replayed {
        batches: Vec::new(),
        spans: Vec::new(),
        valid_len: 0,
        torn_tail: true,
    };
    let Ok(mut r) = codec::read_preamble(bytes, KIND_INGEST_WAL) else {
        return out;
    };
    out.valid_len = (bytes.len() - r.remaining()) as u64;
    while r.remaining() > 0 {
        let Ok((SEC_BATCH, payload)) = codec::read_section(&mut r) else {
            return out;
        };
        let Ok(Frame::Batch { batch }) = decode_frame(payload) else {
            return out;
        };
        let end = (bytes.len() - r.remaining()) as u64;
        out.spans.push(Span {
            bucket: batch.bucket.0,
            offset: out.valid_len,
            len: end - out.valid_len,
        });
        out.batches.push(batch);
        out.valid_len = end;
    }
    out.torn_tail = false;
    out
}

/// Reads back every batch in a WAL file (fsck-style helper for tests
/// and the smoke harness).
pub fn read_wal(path: &Path) -> io::Result<WalRecovery> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let replayed = replay(&bytes);
    Ok(WalRecovery {
        batches: replayed.batches,
        torn_tail: replayed.torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_batch_oracle;

    fn batch(bucket: u32, n: u64) -> RecordBatch {
        RecordBatch {
            bucket: TimeBucket(bucket),
            keys: (0..n).collect(),
            rtt: (0..n).map(|i| 10.0 + i as f64).collect(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("blameitd-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// The bytes the re-encoding compaction wrote for `retained`: the
    /// preamble, then one `write_section` of the writer-encoded frame
    /// per batch.
    fn reencoded(retained: &[RecordBatch]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        codec::write_preamble(&mut w, KIND_INGEST_WAL);
        for b in retained {
            codec::write_section(&mut w, SEC_BATCH, &encode_batch_oracle(b));
        }
        w.into_bytes()
    }

    /// `appended` in (bucket, arrival) order, keeping buckets ≥ `cutoff`.
    fn retained(appended: &[RecordBatch], cutoff: u32) -> Vec<RecordBatch> {
        let mut kept: Vec<RecordBatch> = appended
            .iter()
            .filter(|b| b.bucket.0 >= cutoff)
            .cloned()
            .collect();
        kept.sort_by_key(|b| b.bucket);
        kept
    }

    #[test]
    fn wal_record_equals_a_section_of_the_encoded_frame() {
        for n in [0u64, 1, 3, 500] {
            let mut b = batch(n as u32, n);
            if n > 1 {
                b.rtt[1] = f64::NAN;
                b.rtt[0] = -0.0;
            }
            let mut want = ByteWriter::new();
            codec::write_section(&mut want, SEC_BATCH, &encode_batch_oracle(&b));
            let mut got = vec![1, 2, 3];
            wal_record(&mut got, &b);
            assert_eq!(got[3..], want.into_bytes()[..], "n={n}");
        }
    }

    #[test]
    fn append_then_reopen_recovers_in_order() {
        let path = tmp("roundtrip");
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
    fn compact_below_keeps_only_later_buckets() {
        let path = tmp("compact");
        let (mut wal, _) = IngestWal::open(&path).unwrap();
        for b in 0..6 {
            wal.append(&batch(b, 4)).unwrap();
        }
        wal.compact_below(TimeBucket(4)).unwrap();
        wal.append(&batch(6, 1)).unwrap();
        drop(wal);
        let rec = read_wal(&path).unwrap();
        assert_eq!(rec.batches, vec![batch(4, 4), batch(5, 4), batch(6, 1)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_below_copies_the_bytes_a_reencode_would_write() {
        let path = tmp("compact-oracle");
        let (mut wal, _) = IngestWal::open(&path).unwrap();
        // Out-of-order buckets, several batches in one bucket.
        let mut appended = Vec::new();
        for (b, n) in [(7, 3), (5, 2), (7, 1), (6, 4), (5, 5), (9, 2), (8, 1)] {
            let mut rec = batch(b, n);
            rec.rtt[0] = appended.len() as f64; // tell same-sized batches apart
            wal.append(&rec).unwrap();
            appended.push(rec);
        }
        wal.compact_below(TimeBucket(6)).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reencoded(&retained(&appended, 6))
        );

        // Two compactions in a row, appends in between (again out of
        // bucket order).
        for (b, n) in [(9, 3), (6, 2)] {
            wal.append(&batch(b, n)).unwrap();
            appended.push(batch(b, n));
        }
        wal.compact_below(TimeBucket(7)).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reencoded(&retained(&appended, 7))
        );
        wal.compact_below(TimeBucket(7)).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reencoded(&retained(&appended, 7))
        );

        // The compacted WAL reopens to the retained batches and keeps
        // appending after them.
        drop(wal);
        let (mut wal, rec) = IngestWal::open(&path).unwrap();
        assert_eq!(rec.batches, retained(&appended, 7));
        wal.append(&batch(8, 2)).unwrap();
        appended.push(batch(8, 2));
        wal.compact_below(TimeBucket(8)).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reencoded(&retained(&appended, 8))
        );

        // Compaction to empty.
        wal.compact_below(TimeBucket(100)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), reencoded(&[]));
        wal.append(&batch(100, 2)).unwrap();
        drop(wal);
        assert_eq!(read_wal(&path).unwrap().batches, vec![batch(100, 2)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_after_a_torn_tail_reopen_copies_only_whole_records() {
        let path = tmp("compact-torn");
        let (mut wal, _) = IngestWal::open(&path).unwrap();
        let appended = [batch(4, 3), batch(2, 2), batch(4, 1), batch(3, 6)];
        for b in &appended {
            wal.append(b).unwrap();
        }
        drop(wal);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (mut wal, rec) = IngestWal::open(&path).unwrap();
        assert!(rec.torn_tail);
        wal.compact_below(TimeBucket(3)).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reencoded(&retained(&appended[..3], 3))
        );
        wal.append(&batch(3, 1)).unwrap();
        wal.compact_below(TimeBucket(0)).unwrap();
        let mut want = retained(&appended[..3], 3);
        want.push(batch(3, 1));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reencoded(&retained(&want, 0))
        );
        let _ = std::fs::remove_file(&path);
    }
}
