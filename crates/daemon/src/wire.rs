//! The `blameitd` ingest wire protocol.
//!
//! Length-prefixed binary frames over localhost TCP, reusing the
//! persistence codec's primitives ([`ByteWriter`]/[`ByteReader`],
//! CRC-32) so the daemon has exactly one byte-level dialect:
//!
//! ```text
//! frame   := len:u32-le  payload[len]
//! payload := kind:u8  body  crc:u32-le        (crc over kind‖body)
//! ```
//!
//! Client → server: `HELLO` (version handshake), `BATCH` (one
//! bucket's RTT records in columnar form), `TERM` (graceful shutdown:
//! drain, snapshot, exit). Server → client: `ACK` (admitted, possibly
//! with groups shed), `SLOW_DOWN` (queue at cap — backpressure with a
//! retry-after hint), `BYE` (TERM acknowledged, snapshot durable),
//! `ERR` (protocol violation).
//!
//! A `BATCH` body is the [`RecordBatch`] layout verbatim: bucket,
//! record count, the packed subkey column, then the RTT column. The
//! encode/decode pair is pure (no sockets), so the codec is testable
//! and fuzzable without IO; [`read_frame`]/[`write_frame`] only add
//! the framing.

use blameit::persist::codec::{crc32, ByteReader, ByteWriter};
use blameit::RecordBatch;
use blameit_simnet::TimeBucket;
use std::io::{self, Read, Write};

/// Wire protocol version, negotiated by `HELLO`. Bump on any frame
/// layout change; the server refuses other versions.
pub const WIRE_VERSION: u16 = 1;

/// Frames larger than this are refused outright (a length prefix from
/// a confused or hostile peer must not allocate unbounded memory).
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

const KIND_HELLO: u8 = 1;
const KIND_BATCH: u8 = 2;
const KIND_TERM: u8 = 3;
const KIND_ACK: u8 = 0x81;
const KIND_SLOW_DOWN: u8 = 0x82;
const KIND_BYE: u8 = 0x83;
const KIND_ERR: u8 = 0x84;

/// One protocol frame, either direction.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client handshake; the server replies `Ack` (zeroes) or `Err`.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u16,
    },
    /// One bucket's records, columnar.
    Batch {
        /// The offered batch (keys are packed subkeys, stream order).
        batch: RecordBatch,
    },
    /// Graceful shutdown request: drain complete tick windows,
    /// snapshot, reply `Bye`, exit.
    Term,
    /// The batch was accepted (possibly reduced by shedding).
    Ack {
        /// Records admitted to the queue.
        admitted: u64,
        /// Records shed by the overload controller.
        shed: u64,
        /// Queue depth (records) after this offer.
        queue_depth: u64,
    },
    /// The batch was refused at the queue cap; back off.
    SlowDown {
        /// Seconds the sender should wait before retrying.
        retry_after_secs: u64,
        /// Queue depth (records) that forced the refusal.
        queue_depth: u64,
    },
    /// TERM acknowledged; the shutdown snapshot is durable.
    Bye,
    /// Protocol violation; the connection is closing.
    Err {
        /// Human-readable reason.
        msg: String,
    },
}

/// A wire decode failure (the IO side maps these to `Frame::Err`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

fn werr(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

/// Encodes one frame payload (kind + body + CRC), without the length
/// prefix.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match frame {
        Frame::Hello { version } => {
            w.put_u8(KIND_HELLO);
            w.put_u16(*version);
        }
        Frame::Batch { batch } => return encode_batch(batch),
        Frame::Term => w.put_u8(KIND_TERM),
        Frame::Ack {
            admitted,
            shed,
            queue_depth,
        } => {
            w.put_u8(KIND_ACK);
            w.put_u64(*admitted);
            w.put_u64(*shed);
            w.put_u64(*queue_depth);
        }
        Frame::SlowDown {
            retry_after_secs,
            queue_depth,
        } => {
            w.put_u8(KIND_SLOW_DOWN);
            w.put_u64(*retry_after_secs);
            w.put_u64(*queue_depth);
        }
        Frame::Bye => w.put_u8(KIND_BYE),
        Frame::Err { msg } => {
            w.put_u8(KIND_ERR);
            let b = msg.as_bytes();
            // lint:allow(as-cast-truncation): error strings are short format! output; frames past the 64 MiB cap are rejected by write_frame
            w.put_u32(b.len() as u32);
            w.put_bytes(b);
        }
    }
    seal(w)
}

/// Encodes a `BATCH` frame payload straight from a borrowed batch (no
/// `Frame` wrapper, no clone), sized up front.
pub fn encode_batch(batch: &RecordBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(batch_frame_len(batch));
    put_batch(&mut out, batch);
    out
}

/// Bytes [`put_batch`] appends for `batch`: kind, bucket, count, two
/// 8-byte columns, CRC.
pub(crate) fn batch_frame_len(batch: &RecordBatch) -> usize {
    1 + 4 + 4 + 16 * batch.keys.len() + 4
}

/// Appends a `BATCH` frame payload for `batch` to `out` and returns
/// its CRC (the value sealed into the frame's last four bytes). Both
/// columns are filled in bulk and checksummed in one pass, so a caller
/// framing the payload further (the WAL's section) can combine this
/// CRC instead of re-reading the bytes.
pub fn put_batch(out: &mut Vec<u8>, batch: &RecordBatch) -> u32 {
    let n = batch.keys.len();
    debug_assert_eq!(batch.rtt.len(), n, "RecordBatch columns are parallel");
    let start = out.len();
    out.reserve(batch_frame_len(batch));
    out.push(KIND_BATCH);
    out.extend_from_slice(&batch.bucket.0.to_le_bytes());
    // lint:allow(as-cast-truncation): a batch near u32::MAX keys is undecodable anyway — write_frame rejects past the 64 MiB frame cap (~8M keys)
    out.extend_from_slice(&(n as u32).to_le_bytes());
    let cols = out.len();
    out.resize(cols + 16 * n, 0);
    let (key_col, rtt_col) = out[cols..].split_at_mut(8 * n);
    for (dst, k) in key_col.chunks_exact_mut(8).zip(&batch.keys) {
        dst.copy_from_slice(&k.to_le_bytes());
    }
    for (dst, r) in rtt_col.chunks_exact_mut(8).zip(&batch.rtt) {
        dst.copy_from_slice(&r.to_bits().to_le_bytes());
    }
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    crc
}

/// The `ByteWriter` encoder [`put_batch`] replaced, kept as its oracle.
#[cfg(test)]
pub(crate) fn encode_batch_oracle(batch: &RecordBatch) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(KIND_BATCH);
    w.put_u32(batch.bucket.0);
    w.put_u32(batch.keys.len() as u32);
    for &k in &batch.keys {
        w.put_u64(k);
    }
    for &r in &batch.rtt {
        w.put_f64(r);
    }
    seal(w)
}

/// Appends the CRC of everything written so far.
fn seal(w: ByteWriter) -> Vec<u8> {
    let mut bytes = w.into_bytes();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Decodes one frame payload (as produced by [`encode_frame`]).
pub fn decode_frame(payload: &[u8]) -> Result<Frame, WireError> {
    if payload.len() < 5 {
        return Err(werr("frame shorter than kind + crc"));
    }
    let (body, crc_bytes) = payload.split_at(payload.len() - 4);
    let want = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(body) != want {
        return Err(werr("frame crc mismatch"));
    }
    let mut r = ByteReader::new(body);
    let kind = r.u8().map_err(|e| werr(format!("frame kind: {e}")))?;
    let frame = match kind {
        KIND_HELLO => Frame::Hello {
            version: r.u16().map_err(|e| werr(format!("hello: {e}")))?,
        },
        KIND_BATCH => {
            let bucket = TimeBucket(r.u32().map_err(|e| werr(format!("batch bucket: {e}")))?);
            let n = r.u32().map_err(|e| werr(format!("batch len: {e}")))? as usize;
            // Defensive pre-check: both columns must fit the body.
            if r.remaining() < n.saturating_mul(16) {
                return Err(werr(format!(
                    "batch claims {n} records but only {} body bytes remain",
                    r.remaining()
                )));
            }
            let keys = r
                .u64_column(n)
                .map_err(|e| werr(format!("batch keys: {e}")))?;
            let rtt = r
                .f64_column(n)
                .map_err(|e| werr(format!("batch rtt: {e}")))?;
            Frame::Batch {
                batch: RecordBatch { bucket, keys, rtt },
            }
        }
        KIND_TERM => Frame::Term,
        KIND_ACK => Frame::Ack {
            admitted: r.u64().map_err(|e| werr(format!("ack: {e}")))?,
            shed: r.u64().map_err(|e| werr(format!("ack: {e}")))?,
            queue_depth: r.u64().map_err(|e| werr(format!("ack: {e}")))?,
        },
        KIND_SLOW_DOWN => Frame::SlowDown {
            retry_after_secs: r.u64().map_err(|e| werr(format!("slow-down: {e}")))?,
            queue_depth: r.u64().map_err(|e| werr(format!("slow-down: {e}")))?,
        },
        KIND_BYE => Frame::Bye,
        KIND_ERR => {
            let n = r.u32().map_err(|e| werr(format!("err len: {e}")))? as usize;
            let b = r.take(n).map_err(|e| werr(format!("err msg: {e}")))?;
            Frame::Err {
                msg: String::from_utf8_lossy(b).into_owned(),
            }
        }
        other => return Err(werr(format!("unknown frame kind {other:#04x}"))),
    };
    if r.remaining() != 0 {
        return Err(werr(format!(
            "{} trailing byte(s) after frame body",
            r.remaining()
        )));
    }
    Ok(frame)
}

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let payload = encode_frame(frame);
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                    payload.len()
                ),
            )
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF at a
/// frame boundary (the peer hung up between frames).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode_frame(&payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: WIRE_VERSION,
            },
            Frame::Batch {
                batch: RecordBatch {
                    bucket: TimeBucket(42),
                    keys: vec![3, 3, 9, 700],
                    rtt: vec![10.0, 11.5, 80.25, 0.5],
                },
            },
            Frame::Term,
            Frame::Ack {
                admitted: 7,
                shed: 2,
                queue_depth: 990,
            },
            Frame::SlowDown {
                retry_after_secs: 30,
                queue_depth: 50_000,
            },
            Frame::Bye,
            Frame::Err {
                msg: "bad hello".to_string(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for f in all_frames() {
            let bytes = encode_frame(&f);
            assert_eq!(decode_frame(&bytes).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn framing_round_trips_through_io() {
        let mut buf = Vec::new();
        for f in all_frames() {
            write_frame(&mut buf, &f).unwrap();
        }
        let mut cursor = &buf[..];
        for f in all_frames() {
            assert_eq!(read_frame(&mut cursor).unwrap(), Some(f));
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn put_batch_matches_the_writer_encoder() {
        let specials = [f64::NAN, -0.0, f64::INFINITY, 1e-300, 42.5];
        for n in [0usize, 1, 2, 5, 1000] {
            let batch = RecordBatch {
                bucket: TimeBucket(n as u32 * 3 + 1),
                keys: (0..n as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect(),
                rtt: (0..n).map(|i| specials[i % specials.len()]).collect(),
            };
            let want = encode_batch_oracle(&batch);
            assert_eq!(encode_batch(&batch), want, "n={n}");
            assert_eq!(batch_frame_len(&batch), want.len());
            let mut out = vec![7u8, 7];
            let crc = put_batch(&mut out, &batch);
            assert_eq!(out[2..], want[..], "appends after existing bytes");
            assert_eq!(
                crc,
                crc32(&want[..want.len() - 4]),
                "returns the sealed CRC"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let bytes = encode_frame(&all_frames()[1]);
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert!(
                decode_frame(&corrupt).is_err(),
                "bit flip at byte {pos} accepted"
            );
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let bytes = encode_frame(&all_frames()[1]);
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_refused_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut cursor = &buf[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn batch_length_lie_is_refused() {
        // A batch body claiming 1M records with a 4-byte body must be
        // rejected by the pre-check, not by attempting the allocation.
        let mut w = ByteWriter::new();
        w.put_u8(super::KIND_BATCH);
        w.put_u32(0);
        w.put_u32(1_000_000);
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(decode_frame(&bytes).is_err());
    }
}
