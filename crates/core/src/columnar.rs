//! Columnar quartet ingest: sort a batch by key, then collapse it.
//!
//! The paper's analytics cluster aggregates hundreds of millions of
//! RTT records per day per location into quartets (§6.1). The legacy
//! path did that with one `HashMap` upsert per record — a SipHash of a
//! 4-field key plus a probe per sample. The columnar path instead:
//!
//! 1. packs each record's `(loc, p24, mobile)` into one `u64` subkey
//!    whose integer order equals the canonical quartet order within a
//!    bucket ([`pack_subkey`]), once, when the [`RecordBatch`] is built;
//! 2. stable-sorts the batch by subkey ([`RecordBatch::sort_by_key`]),
//!    which keeps each key's samples in stream order; and
//! 3. collapses each key's run in one sequential pass, emitting the
//!    [`QuartetObs`] directly ([`aggregate_batch`]).
//!
//! Each key's RTT sum accumulates element by element in stream order,
//! exactly like the legacy `HashMap` entry did, so `sum / n` reproduces
//! the legacy mean to the last bit — f64 addition is not associative,
//! and the contract is *bit-identical* means, not approximately equal
//! ones. The differential harness (`tests/columnar_equivalence.rs`)
//! holds the kernel against [`crate::aggregate_records_reference`]
//! across seeds, thread counts, and chaos plans.

use blameit_simnet::{QuartetObs, RttRecord, TimeBucket};
use blameit_topology::{CloudLocId, Prefix24};

/// Packs the bucket-invariant part of a quartet key into a `u64`:
/// bits `[41..25]` loc, `[25..1]` /24 block, bit 0 mobile. Within one
/// bucket, `u64` order equals the canonical `(loc, p24, mobile)`
/// order. This module is the only place that knows the bit layout;
/// everything else goes through [`unpack_subkey`].
#[inline]
pub fn pack_subkey(loc: CloudLocId, p24: Prefix24, mobile: bool) -> u64 {
    ((loc.0 as u64) << 25) | ((p24.block() as u64) << 1) | (mobile as u64)
}

/// Inverse of [`pack_subkey`].
#[inline]
pub fn unpack_subkey(subkey: u64) -> (CloudLocId, Prefix24, bool) {
    (
        CloudLocId(((subkey >> 25) & 0xFFFF) as u16),
        Prefix24::from_block(((subkey >> 1) & 0x00FF_FFFF) as u32),
        (subkey & 1) == 1,
    )
}

/// A columnar (struct-of-arrays) batch of RTT records for one time
/// bucket: pre-packed `u64` subkeys and the RTT column, in stream
/// order. This is the form the collector hands the ingest stage — the
/// aggregation kernel streams 16 bytes per record instead of striding
/// over 24-byte `RttRecord` structs, and the key is packed once at
/// batch build time instead of once per aggregation pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecordBatch {
    /// The bucket every record in this batch belongs to.
    pub bucket: TimeBucket,
    /// Packed `(loc, p24, mobile)` subkeys ([`pack_subkey`]), stream
    /// order.
    pub keys: Vec<u64>,
    /// RTT samples in milliseconds, parallel to `keys`.
    pub rtt: Vec<f64>,
}

impl RecordBatch {
    /// Columnarizes a record slice known to belong to `bucket`.
    ///
    /// # Panics
    /// Debug-asserts every record's timestamp really falls in
    /// `bucket`; release builds trust the collector's contract.
    pub fn from_records(bucket: TimeBucket, records: &[RttRecord]) -> RecordBatch {
        debug_assert!(
            records.iter().all(|r| r.at.bucket() == bucket),
            "record outside the batch bucket"
        );
        RecordBatch {
            bucket,
            keys: records
                .iter()
                .map(|r| pack_subkey(r.loc, r.p24, r.mobile))
                .collect(),
            rtt: records.iter().map(|r| r.rtt_ms).collect(),
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Stable-sorts the batch by subkey, keeping each key's samples in
    /// stream order (so downstream accumulation stays bit-identical to
    /// the unsorted stream). Producers (admission,
    /// `Backend::record_batch_in`) sort once, and [`aggregate_batch`]
    /// calls this again as a guard: a no-op on already-sorted batches.
    ///
    /// A counting sort over the distinct keys: each key gets a dense id
    /// in first-appearance order, only the ids are ranked, and the
    /// records are scattered to their key's slots in stream order —
    /// O(n + g log g) for n records in g groups, and a batch's records
    /// far outnumber its groups.
    pub fn sort_by_key(&mut self) {
        if self.keys.is_sorted() {
            return;
        }
        let n = self.keys.len();
        // (key, records) per dense id, and each record's id. A run of
        // one key hashes once. The keys arrive off the wire, so the map
        // keeps std's seeded SipHash: the Fx hash maps keys that differ
        // only in their high (location) bits to one bucket chain. The
        // map is never iterated, so its seed cannot reach the output.
        // lint:allow(sip-hasher): wire-controlled keys need a collision-resistant hash; ids follow first appearance, never map order
        let mut dense = std::collections::HashMap::<u64, u32>::new();
        let mut groups: Vec<(u64, u32)> = Vec::new();
        let mut ids: Vec<u32> = Vec::with_capacity(n);
        let mut run: Option<(u64, u32)> = None;
        for &k in &self.keys {
            let id = match run {
                Some((key, id)) if key == k => id,
                _ => {
                    let fresh = groups.len() as u32;
                    let id = *dense.entry(k).or_insert(fresh);
                    if id == fresh {
                        groups.push((k, 0));
                    }
                    run = Some((k, id));
                    id
                }
            };
            groups[id as usize].1 += 1;
            ids.push(id);
        }
        // Lay the groups out in key order: the key column is each key
        // repeated, and `slot[id]` is where the group's next RTT goes.
        let mut ranked: Vec<u32> = (0..groups.len() as u32).collect();
        ranked.sort_unstable_by_key(|&id| groups[id as usize].0);
        let mut slot = vec![0u32; groups.len()];
        let mut keys = Vec::with_capacity(n);
        for &id in &ranked {
            let (key, records) = groups[id as usize];
            slot[id as usize] = keys.len() as u32;
            keys.resize(keys.len() + records as usize, key);
        }
        let mut rtt = vec![0.0; n];
        for (&id, &r) in ids.iter().zip(&self.rtt) {
            let next = &mut slot[id as usize];
            rtt[*next as usize] = r;
            *next += 1;
        }
        self.keys = keys;
        self.rtt = rtt;
    }
}

/// Aggregates one batch into its quartets, in canonical
/// `(loc, p24, mobile)` order. Sorts the batch in place first (a no-op
/// when the producer already sorted it), then collapses each key's run
/// in one pass: two streaming loads, one compare and the one f64 add
/// the bit-identity contract requires per record.
pub fn aggregate_batch(batch: &mut RecordBatch) -> Vec<QuartetObs> {
    batch.sort_by_key();
    let bucket = batch.bucket;
    let emit = |key: u64, n: usize, sum: f64| {
        let (loc, p24, mobile) = unpack_subkey(key);
        let n = n as u32;
        QuartetObs {
            loc,
            p24,
            mobile,
            bucket,
            n,
            mean_rtt_ms: sum / n as f64,
        }
    };
    let (keys, rtt) = (&batch.keys, &batch.rtt[..batch.keys.len()]);
    let mut out = Vec::new();
    let Some(&first_key) = keys.first() else {
        return out;
    };
    // Every sum starts from +0.0, like the reference's zeroed
    // accumulator, so a key whose samples are all -0.0 sums to +0.0 on
    // both paths.
    let (mut cur_key, mut cur_sum, mut first) = (first_key, 0.0, 0);
    for i in 0..keys.len() {
        if keys[i] != cur_key {
            out.push(emit(cur_key, i - first, cur_sum));
            (cur_key, cur_sum, first) = (keys[i], 0.0, i);
        }
        cur_sum += rtt[i];
    }
    out.push(emit(cur_key, keys.len() - first, cur_sum));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quartet::aggregate_records_reference;
    use blameit_simnet::SimTime;

    fn rec(loc: u16, block: u32, mobile: bool, secs: u64, rtt: f64) -> RttRecord {
        RttRecord {
            loc: CloudLocId(loc),
            p24: Prefix24::from_block(block),
            mobile,
            at: SimTime(secs),
            rtt_ms: rtt,
        }
    }

    /// Runs `records` (all in bucket 0) through [`aggregate_batch`] and
    /// asserts the result equals the reference upsert bit for bit.
    fn assert_kernel_matches_reference(records: &[RttRecord]) -> Vec<QuartetObs> {
        let got = aggregate_batch(&mut RecordBatch::from_records(TimeBucket(0), records));
        let want = aggregate_records_reference(records);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                (g.loc, g.p24, g.mobile, g.bucket, g.n),
                (w.loc, w.p24, w.mobile, w.bucket, w.n)
            );
            assert_eq!(g.mean_rtt_ms.to_bits(), w.mean_rtt_ms.to_bits());
        }
        got
    }

    #[test]
    fn subkey_order_matches_quartet_sort_order() {
        // Packed integer order must equal (loc, p24, mobile) tuple
        // order for every pairing of these corner values.
        let mut keys = Vec::new();
        for l in [0u16, 1, u16::MAX] {
            for p in [0u32, 5, (1 << 24) - 1] {
                for m in [false, true] {
                    keys.push((
                        pack_subkey(CloudLocId(l), Prefix24::from_block(p), m),
                        (l, p, m),
                    ));
                }
            }
        }
        let mut by_packed = keys.clone();
        by_packed.sort_unstable_by_key(|(k, _)| *k);
        let mut by_tuple = keys.clone();
        by_tuple.sort_unstable_by_key(|(_, t)| *t);
        assert_eq!(by_packed, by_tuple);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (l, p, m) in [
            (0u16, 0u32, false),
            (0, 0, true),
            (42, 12345, true),
            (u16::MAX, 0, false),
            (0, (1 << 24) - 1, false),
            (u16::MAX, (1 << 24) - 1, true),
        ] {
            let want = (CloudLocId(l), Prefix24::from_block(p), m);
            assert_eq!(unpack_subkey(pack_subkey(want.0, want.1, want.2)), want);
        }
        // The all-ones 42-bit subkey decodes to every field's maximum.
        assert_eq!(
            unpack_subkey((1 << 41) - 1),
            (
                CloudLocId(u16::MAX),
                Prefix24::from_block((1 << 24) - 1),
                true
            )
        );
    }

    #[test]
    fn run_collapse_handles_client_grouped_streams() {
        // Per-client runs, keys not globally sorted: the sort orders
        // the runs and the collapse emits one quartet per key.
        let records = vec![
            rec(1, 9, false, 10, 30.0),
            rec(1, 9, false, 20, 40.0),
            rec(0, 3, true, 15, 50.0),
            rec(0, 3, true, 25, 60.0),
            rec(2, 1, false, 5, 10.0),
        ];
        let obs = assert_kernel_matches_reference(&records);
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0].loc, CloudLocId(0));
        assert_eq!((obs[0].n, obs[0].mean_rtt_ms), (2, 55.0));
        assert_eq!((obs[1].n, obs[1].mean_rtt_ms), (2, 35.0));
        assert_eq!(obs[2].loc, CloudLocId(2));
        assert!(aggregate_batch(&mut RecordBatch::default()).is_empty());
    }

    #[test]
    fn interleaved_keys_accumulate_in_stream_order() {
        // Key A split across two non-adjacent multi-record runs: adding
        // run partial sums would give (a1+a2)+(a3+a4); the kernel must
        // produce ((a1+a2)+a3)+a4. 1e16 has ulp 2, so +1.0 rounds away
        // sequentially but the pre-added (1.0 + 1.0) survives: the two
        // associations differ in the last bit.
        let vals: [f64; 4] = [1e16, 1.0, 1.0, 1.0];
        let split = (vals[0] + vals[1]) + (vals[2] + vals[3]);
        let seq = ((vals[0] + vals[1]) + vals[2]) + vals[3];
        assert_ne!(split.to_bits(), seq.to_bits(), "values must discriminate");
        let records = vec![
            rec(0, 1, false, 10, vals[0]),
            rec(0, 1, false, 11, vals[1]),
            rec(0, 2, false, 12, 5.0),
            rec(0, 1, false, 13, vals[2]),
            rec(0, 1, false, 14, vals[3]),
        ];
        let obs = assert_kernel_matches_reference(&records);
        assert_eq!(obs[0].n, 4);
        assert_eq!(
            obs[0].mean_rtt_ms.to_bits(),
            (seq / 4.0).to_bits(),
            "stream-order accumulation"
        );
    }

    #[test]
    fn presorted_batch_keeps_within_key_order() {
        // Key A's samples interleave with key B; a producer-side
        // sort_by_key groups them while keeping A's samples in stream
        // order, so the kernel's guard sort is a no-op and the collapse
        // reproduces the sequential ((a1+a2)+a3)+a4 bits.
        let vals: [f64; 4] = [1e16, 1.0, 1.0, 1.0];
        let seq = ((vals[0] + vals[1]) + vals[2]) + vals[3];
        let records = vec![
            rec(1, 1, false, 10, vals[0]),
            rec(1, 1, false, 11, vals[1]),
            rec(0, 2, false, 12, 5.0),
            rec(1, 1, false, 13, vals[2]),
            rec(1, 1, false, 14, vals[3]),
        ];
        let mut batch = RecordBatch::from_records(TimeBucket(0), &records);
        batch.sort_by_key();
        assert!(batch.keys.windows(2).all(|w| w[0] <= w[1]));
        let sorted = batch.clone();
        let obs = aggregate_batch(&mut batch);
        assert_eq!(batch, sorted, "sorting a sorted batch changes nothing");
        assert_eq!(obs[1].loc, CloudLocId(1));
        assert_eq!(obs[1].n, 4);
        assert_eq!(
            obs[1].mean_rtt_ms.to_bits(),
            (seq / 4.0).to_bits(),
            "stream order within key survived the sort"
        );
    }

    #[test]
    fn nan_and_signed_zero_rtts_match_the_reference() {
        // A key whose samples are all -0.0 sums from +0.0 to +0.0, as
        // the reference's zeroed accumulator does, and NaN propagates
        // with the same bits on both paths.
        let records = vec![
            rec(0, 1, false, 10, -0.0),
            rec(0, 2, false, 11, f64::NAN),
            rec(0, 3, true, 12, 0.0),
            rec(0, 2, false, 13, 7.0),
            rec(0, 3, true, 14, -0.0),
            rec(0, 4, false, 15, -f64::NAN),
        ];
        let obs = assert_kernel_matches_reference(&records);
        assert_eq!(obs[0].mean_rtt_ms.to_bits(), 0.0f64.to_bits());
        assert!(obs[1].mean_rtt_ms.is_nan());
    }

    /// The `(key, stream index)` comparison sort the counting sort
    /// replaced, kept as its oracle.
    fn comparison_sort(batch: &mut RecordBatch) {
        let mut perm: Vec<(u64, u32)> = batch
            .keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect();
        perm.sort_unstable();
        batch.keys = perm.iter().map(|&(k, _)| k).collect();
        let rtt = &batch.rtt;
        batch.rtt = perm.iter().map(|&(_, i)| rtt[i as usize]).collect();
    }

    fn assert_sorts_like_oracle(batch: &RecordBatch, what: &str) {
        let mut got = batch.clone();
        got.sort_by_key();
        let mut want = batch.clone();
        comparison_sort(&mut want);
        assert_eq!(got.bucket, want.bucket, "{what}");
        assert_eq!(got.keys, want.keys, "{what}: keys");
        let bits = |b: &RecordBatch| b.rtt.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{what}: rtt bits");
    }

    #[test]
    fn counting_sort_matches_comparison_sort() {
        let mut rng = blameit_topology::rng::DetRng::new(0x5EED);
        let mut random_batch = |n: usize, distinct: u64| RecordBatch {
            bucket: TimeBucket(7),
            keys: (0..n).map(|_| rng.next_u64() % distinct).collect(),
            rtt: (0..n)
                .map(|_| (rng.next_u64() % 10_000) as f64 / 7.0)
                .collect(),
        };
        for seed_case in 0..8 {
            let n = 1 + seed_case * 997;
            let few = random_batch(n, 3 + seed_case as u64);
            assert_sorts_like_oracle(&few, &format!("few keys, n={n}"));
            let all = random_batch(n, u64::MAX);
            assert_sorts_like_oracle(&all, &format!("all distinct, n={n}"));
            let mut reversed = few.clone();
            comparison_sort(&mut reversed);
            assert_sorts_like_oracle(&reversed, "presorted");
            reversed.keys.reverse();
            reversed.rtt.reverse();
            assert_sorts_like_oracle(&reversed, "reversed");
        }
        let specials = [f64::NAN, -0.0, 0.0, -f64::NAN, f64::INFINITY, -1.5];
        let special = RecordBatch {
            bucket: TimeBucket(1),
            keys: vec![9, 3, 9, 3, 1, 9],
            rtt: specials.to_vec(),
        };
        assert_sorts_like_oracle(&special, "NaN and -0.0 RTTs");
        let equal = RecordBatch {
            bucket: TimeBucket(1),
            keys: vec![4; 6],
            rtt: specials.to_vec(),
        };
        assert_sorts_like_oracle(&equal, "all keys equal");
        assert_sorts_like_oracle(&RecordBatch::default(), "empty");
        let one = RecordBatch {
            bucket: TimeBucket(2),
            keys: vec![u64::MAX],
            rtt: vec![-0.0],
        };
        assert_sorts_like_oracle(&one, "one record");
    }
}
