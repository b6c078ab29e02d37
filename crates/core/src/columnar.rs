//! Columnar quartet ingest: sort-by-key batches over a
//! struct-of-arrays store.
//!
//! The paper's analytics cluster aggregates hundreds of millions of
//! RTT records per day per location into quartets (§6.1). The legacy
//! path did that with one `HashMap` upsert per record — a SipHash of a
//! 4-field key plus a probe per sample, which the PR-1 stage profile
//! showed dominating the tick. The columnar path instead:
//!
//! 1. packs each record's quartet key into one `u128` whose integer
//!    order equals the canonical `(bucket, loc, p24, mobile)` output
//!    order ([`pack_key`]);
//! 2. collapses *consecutive equal-key runs* in a single sequential
//!    pass — collector streams are concatenations of per-client record
//!    vectors, so a key's samples arrive contiguously and the common
//!    case never hashes or sorts individual records;
//! 3. sorts only the collapsed run entries (thousands, not millions)
//!    when the stream was not already key-ordered; and
//! 4. falls back to a whole-batch `(key, index)` sort in the rare case
//!    a key's samples were split across non-adjacent runs — merging
//!    partial sums would re-associate `f64` additions, and the
//!    equivalence contract is *bit-identical* means, not approximately
//!    equal ones.
//!
//! Every path accumulates each key's RTT sum element-by-element in
//! stream order, exactly like the legacy `HashMap` entry did, so
//! `sum / n` reproduces the legacy mean to the last bit. The
//! differential harness (`tests/columnar_equivalence.rs`) holds the two
//! paths against each other across seeds, thread counts, and chaos
//! plans.
//!
//! Scratch lives in an [`IngestArena`] owned by the caller and reused
//! across batches/ticks, so steady-state ingest performs no
//! allocations beyond store growth.

use crate::shard::{run_sharded, ShardPlan};
use blameit_simnet::{QuartetObs, RttRecord, TimeBucket};
use blameit_topology::{CloudLocId, Prefix24};

/// Packs a quartet key into a `u128` whose integer order equals the
/// canonical quartet sort order `(bucket, loc, p24, mobile)`:
/// bits `[73..41]` bucket, `[41..25]` loc, `[25..1]` /24 block,
/// bit 0 mobile.
#[inline]
pub fn pack_key(loc: CloudLocId, p24: Prefix24, mobile: bool, bucket: TimeBucket) -> u128 {
    ((bucket.0 as u128) << 41)
        | ((loc.0 as u128) << 25)
        | ((p24.block() as u128) << 1)
        | (mobile as u128)
}

/// Inverse of [`pack_key`].
#[inline]
pub fn unpack_key(key: u128) -> (CloudLocId, Prefix24, bool, TimeBucket) {
    (
        CloudLocId(((key >> 25) & 0xFFFF) as u16),
        Prefix24::from_block(((key >> 1) & 0x00FF_FFFF) as u32),
        (key & 1) == 1,
        TimeBucket((key >> 41) as u32),
    )
}

/// Packs the bucket-invariant part of a quartet key into a `u64`:
/// bits `[41..25]` loc, `[25..1]` /24 block, bit 0 mobile. Within one
/// bucket, `u64` order equals the canonical `(loc, p24, mobile)`
/// order; [`pack_key`] is `(bucket << 41) | subkey`.
#[inline]
pub fn pack_subkey(loc: CloudLocId, p24: Prefix24, mobile: bool) -> u64 {
    ((loc.0 as u64) << 25) | ((p24.block() as u64) << 1) | (mobile as u64)
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
    /// the unsorted stream). This is the collector-side shuffle of the
    /// sort-by-key ingest design: batches arrive at the aggregation
    /// kernel already key-ordered, and the kernel's run collapse never
    /// needs its sort tiers. No-op on already-sorted batches.
    ///
    /// A counting sort over the distinct keys: each key gets a dense id
    /// in first-appearance order, only the ids are ranked, and the
    /// records are scattered to their key's slots in stream order —
    /// O(n + g log g) for n records in g groups, and a batch's records
    /// far outnumber its groups.
    pub fn sort_by_key(&mut self) {
        if self.keys.windows(2).all(|w| w[0] <= w[1]) {
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

/// One collapsed run of equal-key records.
#[derive(Clone, Copy, Debug)]
struct RunEntry {
    key: u128,
    n: u32,
    /// Stream-order partial sum of the run's RTTs.
    sum: f64,
    /// Index of the run's first record in the input batch (sort
    /// tie-break: keeps runs of one key in stream order).
    first: u32,
}

/// One collapsed run of equal-subkey records in a single-bucket batch.
/// No `first` field: runs leave tier 1 in stream order, so a run's
/// first record index is the prefix sum of the `n`s before it —
/// reconstructed only on the rare unsorted path.
#[derive(Clone, Copy, Debug)]
struct Run64 {
    key: u64,
    n: u32,
    sum: f64,
}

/// Reusable per-batch scratch for [`aggregate_records_into`] and
/// [`aggregate_batch_reuse`]. Owned by the caller (engine, bench, or
/// collector loop) and reused across ticks so the hot path allocates
/// nothing in steady state.
#[derive(Debug, Default)]
pub struct IngestArena {
    runs: Vec<RunEntry>,
    /// `(key, index)` pairs for the duplicate-key fallback sort.
    pairs: Vec<(u128, u32)>,
    /// Run scratch for the single-bucket `u64`-subkey kernel.
    runs64: Vec<Run64>,
    /// Fallback pair scratch for the single-bucket kernel.
    pairs64: Vec<(u64, u32)>,
    /// Batches aggregated through this arena (fast + fallback).
    pub batches: u64,
    /// Batches that needed the whole-batch pair-sort fallback.
    pub sort_fallbacks: u64,
}

impl IngestArena {
    /// A fresh arena.
    pub fn new() -> IngestArena {
        IngestArena::default()
    }
}

/// Struct-of-arrays quartet store: parallel columns sorted by packed
/// key. The layout keeps the aggregation loop's working set to the
/// columns it touches (keys during grouping, sums during the mean
/// division) instead of striding over interleaved `QuartetObs` fields.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuartetStore {
    keys: Vec<u128>,
    n: Vec<u32>,
    sum: Vec<f64>,
}

impl QuartetStore {
    /// An empty store.
    pub fn new() -> QuartetStore {
        QuartetStore::default()
    }

    /// Number of distinct quartets held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no quartets are held.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Drops all quartets, keeping the column capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.n.clear();
        self.sum.clear();
    }

    /// Sample count and RTT sum for one quartet key, if present
    /// (binary search over the sorted key column).
    pub fn get(&self, key: u128) -> Option<(u32, f64)> {
        let i = self.keys.binary_search(&key).ok()?;
        Some((self.n[i], self.sum[i]))
    }

    /// The observation at row `i`, in key order.
    pub fn obs_at(&self, i: usize) -> QuartetObs {
        let (loc, p24, mobile, bucket) = unpack_key(self.keys[i]);
        QuartetObs {
            loc,
            p24,
            mobile,
            bucket,
            n: self.n[i],
            mean_rtt_ms: self.sum[i] / self.n[i] as f64,
        }
    }

    /// Iterates the observations in canonical key order.
    pub fn iter(&self) -> impl Iterator<Item = QuartetObs> + '_ {
        (0..self.len()).map(|i| self.obs_at(i))
    }

    /// Materializes the canonical `Vec<QuartetObs>` (key order — the
    /// same `(bucket, loc, p24, mobile)` order the legacy path sorted
    /// into).
    pub fn to_obs(&self) -> Vec<QuartetObs> {
        self.iter().collect()
    }

    /// K-way merge of per-shard stores in key order. Keys present in
    /// more than one store combine in ascending store order; the
    /// bit-exactness contract with the unsharded path therefore only
    /// holds when shards partition the key space (which
    /// [`ShardPlan::by_key`] on the location guarantees: a location's
    /// quartets never split across shards).
    pub fn merge(stores: &[QuartetStore]) -> QuartetStore {
        if stores.len() == 1 {
            return stores[0].clone();
        }
        let total: usize = stores.iter().map(QuartetStore::len).sum();
        let mut out = QuartetStore {
            keys: Vec::with_capacity(total),
            n: Vec::with_capacity(total),
            sum: Vec::with_capacity(total),
        };
        let mut cursor = vec![0usize; stores.len()];
        loop {
            // Smallest head key across stores; ties resolve in store
            // order (ascending index), deterministically.
            let mut best: Option<(u128, usize)> = None;
            for (s, store) in stores.iter().enumerate() {
                if let Some(&k) = store.keys.get(cursor[s]) {
                    if best.is_none_or(|(bk, _)| k < bk) {
                        best = Some((k, s));
                    }
                }
            }
            let Some((key, s)) = best else { break };
            let i = cursor[s];
            cursor[s] += 1;
            debug_assert!(
                out.keys.last().is_none_or(|&last| last <= key),
                "merge emitted keys out of order"
            );
            if out.keys.last() == Some(&key) {
                let last = out.len() - 1;
                out.n[last] += stores[s].n[i];
                out.sum[last] += stores[s].sum[i];
            } else {
                out.keys.push(key);
                out.n.push(stores[s].n[i]);
                out.sum.push(stores[s].sum[i]);
            }
        }
        out
    }
}

/// Aggregates one batch of RTT records into `store` (cleared first),
/// using `arena` for scratch. See the module docs for the three-tier
/// strategy; on every tier, each key's sum accumulates element-by-
/// element in stream order — bit-identical to the legacy per-record
/// `HashMap` path.
pub fn aggregate_records_into(records: &[RttRecord], arena: &mut IngestArena) -> QuartetStore {
    let mut store = QuartetStore::new();
    aggregate_records_reuse(records, arena, &mut store);
    store
}

/// [`aggregate_records_into`] writing into a caller-owned store, for
/// loops that also want to reuse the output columns.
pub fn aggregate_records_reuse(
    records: &[RttRecord],
    arena: &mut IngestArena,
    store: &mut QuartetStore,
) {
    store.clear();
    arena.runs.clear();
    arena.batches += 1;

    // Tier 1: collapse consecutive equal-key runs in one pass. The
    // open run accumulates in locals (registers), not through
    // `runs.last_mut()` — the per-record Vec deref and bounds check
    // were the dominant cost of the previous formulation.
    let mut key_sorted = true;
    let mut iter = records.iter().enumerate();
    if let Some((_, r0)) = iter.next() {
        let mut cur = RunEntry {
            key: pack_key(r0.loc, r0.p24, r0.mobile, r0.at.bucket()),
            n: 1,
            sum: r0.rtt_ms,
            first: 0,
        };
        for (i, r) in iter {
            let key = pack_key(r.loc, r.p24, r.mobile, r.at.bucket());
            if key == cur.key {
                cur.n += 1;
                cur.sum += r.rtt_ms;
            } else {
                key_sorted &= key > cur.key;
                arena.runs.push(cur);
                cur = RunEntry {
                    key,
                    n: 1,
                    sum: r.rtt_ms,
                    first: i as u32,
                };
            }
        }
        arena.runs.push(cur);
    }

    // Tier 2: order the collapsed runs (already ordered for key-sorted
    // streams). The `first` tie-break keeps same-key runs in stream
    // order for the duplicate check below.
    if !key_sorted {
        arena.runs.sort_unstable_by_key(|r| (r.key, r.first));
    }

    // Tier 3: if any key spans several runs, adding the runs' partial
    // sums would re-associate the f64 additions ((a+b)+(c+d) is not
    // (((a+b)+c)+d)). Redo the batch as a stable (key, index) pair
    // sort, which restores exact stream order within every key.
    if arena.runs.windows(2).any(|w| w[0].key == w[1].key) {
        arena.sort_fallbacks += 1;
        arena.pairs.clear();
        arena.pairs.extend(
            records
                .iter()
                .enumerate()
                .map(|(i, r)| (pack_key(r.loc, r.p24, r.mobile, r.at.bucket()), i as u32)),
        );
        arena.pairs.sort_unstable();
        arena.runs.clear();
        for &(key, idx) in &arena.pairs {
            let rtt = records[idx as usize].rtt_ms;
            match arena.runs.last_mut() {
                Some(run) if run.key == key => {
                    run.n += 1;
                    run.sum += rtt;
                }
                _ => arena.runs.push(RunEntry {
                    key,
                    n: 1,
                    sum: rtt,
                    first: idx,
                }),
            }
        }
    }

    store.keys.extend(arena.runs.iter().map(|r| r.key));
    store.n.extend(arena.runs.iter().map(|r| r.n));
    store.sum.extend(arena.runs.iter().map(|r| r.sum));
}

/// Aggregates one columnar [`RecordBatch`] into `store` (cleared
/// first). Same three-tier strategy and bit-identity contract as
/// [`aggregate_records_reuse`], but over pre-packed `u64` subkeys and
/// the RTT column — 16 streamed bytes per record, no key packing and
/// no bucket division on the hot path.
#[inline]
pub fn aggregate_batch_reuse(
    batch: &RecordBatch,
    arena: &mut IngestArena,
    store: &mut QuartetStore,
) {
    store.clear();
    arena.runs64.clear();
    arena.batches += 1;

    // Tier 1: collapse consecutive equal-key runs. The open run lives
    // in locals (registers); the run length is derived from indices at
    // the boundary instead of counted per record, so the steady-state
    // iteration is two streaming loads, one compare, and the one f64
    // add the bit-identity contract requires. Sortedness is *not*
    // tracked here — a post-scan over the collapsed runs (thousands,
    // not millions) recovers it below.
    let n = batch.keys.len();
    if n > 0 {
        let keys = &batch.keys[..n];
        let rtt = &batch.rtt[..n];
        let mut cur_key = keys[0];
        let mut cur_sum = rtt[0];
        let mut first = 0usize;
        for i in 1..n {
            let key = keys[i];
            let v = rtt[i];
            if key == cur_key {
                cur_sum += v;
            } else {
                arena.runs64.push(Run64 {
                    key: cur_key,
                    n: (i - first) as u32,
                    sum: cur_sum,
                });
                cur_key = key;
                cur_sum = v;
                first = i;
            }
        }
        arena.runs64.push(Run64 {
            key: cur_key,
            n: (n - first) as u32,
            sum: cur_sum,
        });
    }

    // One scan recovers what tier 1 didn't track: whether the runs
    // left the stream key-sorted, and whether any key repeats.
    let mut key_sorted = true;
    let mut has_dup = false;
    for w in arena.runs64.windows(2) {
        key_sorted &= w[0].key < w[1].key;
        has_dup |= w[0].key == w[1].key;
    }

    // Tier 2: order the collapsed runs. Ties between same-key runs
    // resolve by stream position, reconstructed as the prefix sum of
    // run lengths.
    if !key_sorted {
        let mut keyed: Vec<(u64, u32, Run64)> = Vec::with_capacity(arena.runs64.len());
        let mut first = 0u32;
        for &run in &arena.runs64 {
            keyed.push((run.key, first, run));
            first += run.n;
        }
        keyed.sort_unstable_by_key(|&(key, first, _)| (key, first));
        arena.runs64.clear();
        arena.runs64.extend(keyed.iter().map(|&(_, _, run)| run));
        has_dup = arena.runs64.windows(2).any(|w| w[0].key == w[1].key);
    }

    // Tier 3: a key split across non-adjacent runs means merging
    // partial sums would re-associate the f64 additions; redo the
    // batch as a (key, index) sort that restores stream order within
    // every key.
    if has_dup {
        arena.sort_fallbacks += 1;
        arena.pairs64.clear();
        arena
            .pairs64
            .extend(batch.keys.iter().enumerate().map(|(i, &k)| (k, i as u32)));
        arena.pairs64.sort_unstable();
        arena.runs64.clear();
        for &(key, idx) in &arena.pairs64 {
            let rtt = batch.rtt[idx as usize];
            match arena.runs64.last_mut() {
                Some(run) if run.key == key => {
                    run.n += 1;
                    run.sum += rtt;
                }
                _ => arena.runs64.push(Run64 {
                    key,
                    n: 1,
                    sum: rtt,
                }),
            }
        }
    }

    let base = (batch.bucket.0 as u128) << 41;
    store
        .keys
        .extend(arena.runs64.iter().map(|r| base | r.key as u128));
    store.n.extend(arena.runs64.iter().map(|r| r.n));
    store.sum.extend(arena.runs64.iter().map(|r| r.sum));
}

/// Sharded batch ingest: records partition by location
/// ([`ShardPlan::by_key`], so shards own disjoint key ranges), each
/// shard aggregates its records columnar-style with its own arena, and
/// the per-shard stores merge in key order — byte-identical to the
/// single-shard aggregation of the whole batch.
pub fn aggregate_records_sharded(records: &[RttRecord], parallelism: usize) -> QuartetStore {
    let nthreads = parallelism.max(1);
    if nthreads == 1 {
        return aggregate_records_into(records, &mut IngestArena::new());
    }
    let plan = ShardPlan::by_key(records, nthreads, |r| r.loc);
    let stores = run_sharded(nthreads, &plan, |_, idxs| {
        let shard_records: Vec<RttRecord> = idxs.iter().map(|&i| records[i]).collect();
        aggregate_records_into(&shard_records, &mut IngestArena::new())
    });
    QuartetStore::merge(&stores)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn key_order_matches_quartet_sort_order() {
        // Packed integer order must equal (bucket, loc, p24, mobile)
        // tuple order for every pairing of these corner values.
        let locs = [0u16, 1, u16::MAX];
        let blocks = [0u32, 5, (1 << 24) - 1];
        let buckets = [0u32, 7, u32::MAX];
        let mut keys = Vec::new();
        for &b in &buckets {
            for &l in &locs {
                for &p in &blocks {
                    for m in [false, true] {
                        keys.push((
                            pack_key(CloudLocId(l), Prefix24::from_block(p), m, TimeBucket(b)),
                            (b, l, p, m),
                        ));
                    }
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
        for (l, p, m, b) in [
            (0u16, 0u32, false, 0u32),
            (42, 12345, true, 99999),
            (u16::MAX, (1 << 24) - 1, true, u32::MAX),
        ] {
            let key = pack_key(CloudLocId(l), Prefix24::from_block(p), m, TimeBucket(b));
            assert_eq!(
                unpack_key(key),
                (CloudLocId(l), Prefix24::from_block(p), m, TimeBucket(b))
            );
        }
    }

    #[test]
    fn run_collapse_handles_client_grouped_streams() {
        // Per-client runs, keys not globally sorted: tier 2, no
        // fallback.
        let records = vec![
            rec(1, 9, false, 10, 30.0),
            rec(1, 9, false, 20, 40.0),
            rec(0, 3, true, 15, 50.0),
            rec(0, 3, true, 25, 60.0),
            rec(2, 1, false, 5, 10.0),
        ];
        let mut arena = IngestArena::new();
        let store = aggregate_records_into(&records, &mut arena);
        assert_eq!(arena.sort_fallbacks, 0);
        assert_eq!(store.len(), 3);
        let obs = store.to_obs();
        assert_eq!(obs[0].loc, CloudLocId(0));
        assert_eq!((obs[0].n, obs[0].mean_rtt_ms), (2, 55.0));
        assert_eq!((obs[1].n, obs[1].mean_rtt_ms), (2, 35.0));
        assert_eq!(obs[2].loc, CloudLocId(2));
    }

    #[test]
    fn interleaved_keys_take_the_fallback_and_stay_exact() {
        // Key A split across two non-adjacent multi-record runs: the
        // partial-sum merge would be (a1+a2)+(a3+a4); the fallback
        // must restore ((a1+a2)+a3)+a4. Values chosen so the two
        // associations differ in the last bit.
        // 1e16 has ulp 2, so +1.0 rounds away sequentially but the
        // pre-added (1.0 + 1.0) survives: the two associations differ.
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
        let mut arena = IngestArena::new();
        let store = aggregate_records_into(&records, &mut arena);
        assert_eq!(arena.sort_fallbacks, 1);
        let key = pack_key(CloudLocId(0), Prefix24::from_block(1), false, TimeBucket(0));
        let (n, sum) = store.get(key).unwrap();
        assert_eq!(n, 4);
        assert_eq!(sum.to_bits(), seq.to_bits(), "stream-order accumulation");
    }

    #[test]
    fn batch_kernel_matches_generic_kernel_bit_for_bit() {
        // Same single-bucket stream through the u64-subkey batch
        // kernel and the generic u128 record kernel, including a
        // duplicate-key interleaving that forces both fallbacks.
        let records = vec![
            rec(1, 9, false, 10, 1e16),
            rec(1, 9, false, 20, 1.0),
            rec(0, 3, true, 15, 50.0),
            rec(1, 9, false, 25, 1.0),
            rec(1, 9, false, 30, 1.0),
            rec(2, 1, false, 5, 10.0),
        ];
        let mut arena = IngestArena::new();
        let want = aggregate_records_into(&records, &mut arena);
        assert_eq!(arena.sort_fallbacks, 1);

        let batch = RecordBatch::from_records(TimeBucket(0), &records);
        assert_eq!(batch.len(), records.len());
        let mut store = QuartetStore::new();
        aggregate_batch_reuse(&batch, &mut arena, &mut store);
        assert_eq!(arena.sort_fallbacks, 2, "batch kernel hit its fallback too");
        assert_eq!(store, want);
        for (g, w) in store.to_obs().iter().zip(want.to_obs()) {
            assert_eq!(g.mean_rtt_ms.to_bits(), w.mean_rtt_ms.to_bits());
        }
    }

    #[test]
    fn collector_sort_preserves_within_key_order() {
        // Key A's samples interleave with key B; sort_by_key groups
        // them while keeping A's samples in stream order, so the
        // kernel's single-pass collapse reproduces the sequential
        // ((a1+a2)+a3)+a4 bits without any fallback.
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
        let mut arena = IngestArena::new();
        let mut store = QuartetStore::new();
        aggregate_batch_reuse(&batch, &mut arena, &mut store);
        assert_eq!(arena.sort_fallbacks, 0, "sorted batches skip the fallback");
        let key = pack_key(CloudLocId(1), Prefix24::from_block(1), false, TimeBucket(0));
        let (n, sum) = store.get(key).unwrap();
        assert_eq!(n, 4);
        assert_eq!(
            sum.to_bits(),
            seq.to_bits(),
            "stream order within key survived the sort"
        );
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

    #[test]
    fn subkey_and_full_key_agree() {
        for (l, p, m, b) in [
            (0u16, 0u32, false, 0u32),
            (42, 12345, true, 99999),
            (u16::MAX, (1 << 24) - 1, true, u32::MAX),
        ] {
            let full = pack_key(CloudLocId(l), Prefix24::from_block(p), m, TimeBucket(b));
            let sub = pack_subkey(CloudLocId(l), Prefix24::from_block(p), m);
            assert_eq!(((b as u128) << 41) | sub as u128, full);
        }
    }

    #[test]
    fn arena_reuse_is_clean_across_batches() {
        let mut arena = IngestArena::new();
        let a = aggregate_records_into(&[rec(0, 1, false, 10, 10.0)], &mut arena);
        let b = aggregate_records_into(&[rec(1, 2, true, 20, 20.0)], &mut arena);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.to_obs()[0].loc, CloudLocId(1));
        assert_eq!(arena.batches, 2);
        let empty = aggregate_records_into(&[], &mut arena);
        assert!(empty.is_empty());
    }

    #[test]
    fn merge_interleaves_disjoint_stores_in_key_order() {
        let mut arena = IngestArena::new();
        // Shard by loc, but keys sort bucket-first, so the merged
        // sequence interleaves the two stores.
        let s0 = aggregate_records_into(
            &[rec(0, 1, false, 10, 10.0), rec(0, 1, false, 400, 20.0)],
            &mut arena,
        );
        let s1 = aggregate_records_into(
            &[rec(1, 1, false, 10, 30.0), rec(1, 1, false, 400, 40.0)],
            &mut arena,
        );
        let merged = QuartetStore::merge(&[s0.clone(), s1.clone()]);
        assert_eq!(merged.len(), 4);
        let whole = aggregate_records_into(
            &[
                rec(0, 1, false, 10, 10.0),
                rec(0, 1, false, 400, 20.0),
                rec(1, 1, false, 10, 30.0),
                rec(1, 1, false, 400, 40.0),
            ],
            &mut arena,
        );
        assert_eq!(merged, whole);
        // Single-store merge is the store itself.
        assert_eq!(QuartetStore::merge(std::slice::from_ref(&s0)), s0);
    }

    #[test]
    fn sharded_aggregation_equals_single_shard() {
        let mut records = Vec::new();
        for client in 0..40u32 {
            for s in 0..6u64 {
                records.push(rec(
                    (client % 5) as u16,
                    100 + client,
                    client % 3 == 0,
                    10 + s * 40,
                    20.0 + client as f64 + s as f64 * 0.125,
                ));
            }
        }
        let single = aggregate_records_sharded(&records, 1);
        for par in [2, 4, 8] {
            assert_eq!(aggregate_records_sharded(&records, par), single);
        }
    }
}
