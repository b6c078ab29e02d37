//! [`TimedBackend`]: keeps simulator cost out of BlameIt's numbers.
//!
//! The engine pulls everything it knows about the world through
//! [`Backend`]. This wrapper serves quartets that were synthesized
//! *before* any timer started (so a tick's wall time holds no world
//! synthesis) and passes every other call through to a
//! [`WorldBackend`], timing it. The timers are atomics because the
//! sharded enrichment stage calls [`Backend::route_info`] from worker
//! threads; their totals are therefore summed thread time, not wall.
//! Enrichment makes one `route_info` call per quartet, so the clock
//! reads are themselves a cost: timing is on only in traced runs.

use blameit::{Backend, RouteInfo, WorldBackend};
use blameit_simnet::{QuartetObs, SimTime, TimeBucket, TimeRange, Traceroute, World};
use blameit_topology::bgp::BgpChurnEvent;
use blameit_topology::{CloudLocId, Prefix24};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Quartets synthesized ahead of time, by bucket.
pub type Preloaded = Arc<BTreeMap<u32, Vec<QuartetObs>>>;

/// Synthesizes the quartets of `buckets` through `world`.
pub fn preload(
    world: &World,
    parallelism: usize,
    buckets: impl Iterator<Item = TimeBucket>,
) -> Preloaded {
    let backend = WorldBackend::with_parallelism(world, parallelism);
    Arc::new(buckets.map(|b| (b.0, backend.quartets_in(b))).collect())
}

/// Summed duration of one backend entry point.
#[derive(Debug, Default)]
struct CallTimer {
    nanos: AtomicU64,
}

impl CallTimer {
    fn time<R>(&self, on: bool, f: impl FnOnce() -> R) -> R {
        if !on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        // A statistic: no other data is published through it.
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// Summed time the engine spent inside the simulator, by entry point.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BackendTimes {
    /// `route_info` (the IP→AS / BGP join the enrichment stage does).
    pub route_info: Duration,
    /// `traceroute` (on-demand and background probes).
    pub traceroute: Duration,
    /// `churn_events` (the IBGP listener feed).
    pub churn: Duration,
    /// Quartets synthesized on demand because they were not preloaded.
    pub synthesis: Duration,
    /// Quartets served from the preloaded set.
    pub served_quartets: u64,
}

impl std::ops::Sub for BackendTimes {
    type Output = BackendTimes;
    fn sub(self, o: BackendTimes) -> BackendTimes {
        BackendTimes {
            route_info: self.route_info.saturating_sub(o.route_info),
            traceroute: self.traceroute.saturating_sub(o.traceroute),
            churn: self.churn.saturating_sub(o.churn),
            synthesis: self.synthesis.saturating_sub(o.synthesis),
            served_quartets: self.served_quartets - o.served_quartets,
        }
    }
}

/// The wrapper's timers, shared so they stay readable after the
/// backend has moved into its owner (a daemon core owns its backend).
#[derive(Debug, Default)]
pub struct Timers {
    route_info: CallTimer,
    traceroute: CallTimer,
    churn: CallTimer,
    synthesis: CallTimer,
    served: AtomicU64,
}

impl Timers {
    /// Totals since construction (subtract two readings for a delta).
    pub fn read(&self) -> BackendTimes {
        BackendTimes {
            route_info: self.route_info.total(),
            traceroute: self.traceroute.total(),
            churn: self.churn.total(),
            synthesis: self.synthesis.total(),
            served_quartets: self.served.load(Ordering::Relaxed),
        }
    }
}

/// A [`Backend`] serving preloaded quartets and timing the rest.
#[derive(Debug)]
pub struct TimedBackend<'w> {
    world: WorldBackend<'w>,
    preloaded: Preloaded,
    timing: bool,
    timers: Arc<Timers>,
}

impl<'w> TimedBackend<'w> {
    /// Wraps `world`; buckets in `preloaded` are served without
    /// synthesis, any other bucket is synthesized. Calls into the
    /// simulator are timed when `timing` is set.
    pub fn new(world: &'w World, parallelism: usize, preloaded: Preloaded, timing: bool) -> Self {
        TimedBackend {
            world: WorldBackend::with_parallelism(world, parallelism),
            preloaded,
            timing,
            timers: Arc::default(),
        }
    }

    /// A handle on this backend's timers.
    pub fn timers(&self) -> Arc<Timers> {
        Arc::clone(&self.timers)
    }
}

impl Backend for TimedBackend<'_> {
    fn quartets_in(&self, bucket: TimeBucket) -> Vec<QuartetObs> {
        let t = &self.timers;
        match self.preloaded.get(&bucket.0) {
            Some(obs) => {
                t.served.fetch_add(obs.len() as u64, Ordering::Relaxed);
                obs.clone()
            }
            None => t
                .synthesis
                .time(self.timing, || self.world.quartets_in(bucket)),
        }
    }

    fn route_info(&self, loc: CloudLocId, p24: Prefix24, at: SimTime) -> Option<RouteInfo> {
        self.timers
            .route_info
            .time(self.timing, || self.world.route_info(loc, p24, at))
    }

    fn traceroute(&self, loc: CloudLocId, p24: Prefix24, at: SimTime) -> Option<Traceroute> {
        self.timers
            .traceroute
            .time(self.timing, || self.world.traceroute(loc, p24, at))
    }

    fn churn_events(&self, range: TimeRange) -> Vec<BgpChurnEvent> {
        self.timers
            .churn
            .time(self.timing, || self.world.churn_events(range))
    }

    fn cloud_locations(&self) -> Vec<CloudLocId> {
        self.world.cloud_locations()
    }

    fn probes_issued(&self) -> u64 {
        self.world.probes_issued()
    }
}
