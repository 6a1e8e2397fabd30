//! Lock-free server counters: per-command traffic, latency sums,
//! fixed-size log₂ latency histograms for server-side p50/p99, and
//! [`COUNTERS`], the one table that names every scalar of the
//! `metrics` reply for the JSON codec, Prometheus, the WAL and the CLI
//! (see "Counters" in `docs/ARCHITECTURE.md`).
//!
//! # Bucket scheme
//!
//! Each command owns [`LATENCY_BUCKETS`] atomic counters per epoch. A
//! latency of `t` microseconds lands in bucket
//! `floor(log2(max(t, 1)))`, clamped to the last bucket — so bucket 0
//! covers 0–1 µs, bucket 1 covers 2–3 µs, bucket 10 covers ~1–2 ms,
//! and the top bucket (27) absorbs everything beyond ~2.2 minutes.
//! Quantiles are reported as the *upper edge* of the bucket containing
//! the requested rank, which overestimates the true quantile by at
//! most 2× — except for ranks landing in the open-ended top bucket,
//! whose ~4.5-minute edge *under*-reports anything slower — while
//! costing a fixed few hundred bytes per command instead of an
//! unbounded reservoir. The same scheme is documented in
//! `docs/ARCHITECTURE.md`.
//!
//! # Sliding window (two-epoch rotation)
//!
//! Quantiles describe *recent* traffic, not process history: each
//! histogram keeps **two** epochs of buckets. Records land in the
//! current epoch; quantiles sum both; every [`HISTOGRAM_EPOCH`] the
//! poller thread calls [`Metrics::rotate_histograms`], which zeroes
//! the older epoch and makes it current. A sample therefore influences
//! quantiles for one to two epochs and then vanishes — a long-running
//! server's `p99_us` reflects the last 1–2 minutes, not a latency
//! spike from last week. Counts, error counts and latency *sums*
//! remain cumulative since process start.

use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::proto::{CommandStats, MetricsReport};
use crate::registry::RegistrySnapshot;

/// Wire names of all commands, in the fixed order `metrics` reports.
/// Batch sub-commands are recorded under their own names *and* the
/// enclosing line under `batch`.
pub const COMMAND_NAMES: [&str; 12] = [
    "load", "audit", "key", "check", "sketch", "mask", "stats", "batch", "unload", "metrics",
    "shutdown", "trace",
];

/// Buckets per command histogram: powers of two from 1 µs up to
/// `2^27 µs ≈ 134 s`, the last bucket open-ended.
pub const LATENCY_BUCKETS: usize = 28;

/// How long one histogram epoch lasts. Quantiles cover the current
/// epoch plus the previous one, so they describe the last
/// `HISTOGRAM_EPOCH`–`2×HISTOGRAM_EPOCH` of traffic.
pub const HISTOGRAM_EPOCH: Duration = Duration::from_secs(60);

/// Upper edge (inclusive, in µs) of log₂ bucket `i` — what quantiles
/// report, and what the Prometheus endpoint renders as `le` edges
/// (converted to seconds).
pub(crate) fn bucket_upper_us(i: usize) -> u64 {
    (1u64 << (i + 1)) - 1
}

/// One command's sliding-window log₂ latency histogram: two epochs of
/// [`LATENCY_BUCKETS`] buckets, rotated by [`LatencyHistogram::rotate`],
/// plus a never-rotated cumulative copy for Prometheus exposition
/// (Prometheus histograms are cumulative since process start; the
/// scraper computes windows server-side).
#[derive(Debug)]
pub struct LatencyHistogram {
    epochs: [[AtomicU64; LATENCY_BUCKETS]; 2],
    /// Which epoch records land in (0 or 1).
    current: AtomicUsize,
    /// Cumulative-since-start bucket counts (never rotated).
    cumulative: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            epochs: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            current: AtomicUsize::new(0),
            cumulative: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Index of the bucket covering `us` microseconds.
    fn bucket_index(us: u64) -> usize {
        (63 - us.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Records one observation into the current epoch and the
    /// cumulative copy.
    pub fn record(&self, us: u64) {
        let bucket = Self::bucket_index(us);
        let epoch = self.current.load(Ordering::Relaxed) & 1;
        self.epochs[epoch][bucket].fetch_add(1, Ordering::Relaxed);
        self.cumulative[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the cumulative-since-start bucket counts.
    pub(crate) fn cumulative_counts(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.cumulative[i].load(Ordering::Relaxed))
    }

    /// Slides the window: zeroes the older epoch and makes it current.
    /// Samples recorded before the *previous* rotation stop
    /// influencing quantiles; samples from the last epoch remain
    /// visible until the next rotation. (Concurrent `record`s may land
    /// in either epoch during the swap — the histogram is statistics,
    /// not synchronisation.)
    pub fn rotate(&self) {
        let next = 1 - (self.current.load(Ordering::Relaxed) & 1);
        for bucket in &self.epochs[next] {
            bucket.store(0, Ordering::Relaxed);
        }
        self.current.store(next, Ordering::Relaxed);
    }

    /// The quantile `q ∈ (0, 1]` over both epochs (the sliding
    /// window), as the upper edge of its bucket; 0 when the window is
    /// empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: [u64; LATENCY_BUCKETS] = std::array::from_fn(|i| {
            self.epochs[0][i].load(Ordering::Relaxed) + self.epochs[1][i].load(Ordering::Relaxed)
        });
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_us(i);
            }
        }
        bucket_upper_us(LATENCY_BUCKETS - 1)
    }
}

/// The registry's lifecycle counters. A variant indexes the registry's
/// atomics, a [`CounterSet`], and its own row of [`COUNTERS`] (the
/// table's first rows, in this order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lifecycle {
    /// [`MetricsReport::cache_hits`].
    Hits,
    /// [`MetricsReport::cache_misses`].
    Misses,
    /// [`MetricsReport::cache_disk_hits`].
    DiskHits,
    /// [`MetricsReport::cache_evictions`].
    Evictions,
    /// [`MetricsReport::cache_stale_rebuilds`].
    StaleRebuilds,
    /// [`MetricsReport::cache_upgrades`].
    Upgrades,
    /// [`MetricsReport::cache_append_updates`].
    AppendUpdates,
    /// [`MetricsReport::cache_sweep_refreshes`].
    SweepRefreshes,
}

/// How many [`Lifecycle`] counters there are.
pub const LIFECYCLE_COUNTERS: usize = 8;

impl Lifecycle {
    /// Every lifecycle counter, in table order.
    pub const ALL: [Lifecycle; LIFECYCLE_COUNTERS] = [
        Lifecycle::Hits,
        Lifecycle::Misses,
        Lifecycle::DiskHits,
        Lifecycle::Evictions,
        Lifecycle::StaleRebuilds,
        Lifecycle::Upgrades,
        Lifecycle::AppendUpdates,
        Lifecycle::SweepRefreshes,
    ];

    /// This counter's row of [`COUNTERS`].
    pub fn row(self) -> &'static Counter {
        &COUNTERS[self as usize]
    }

    /// The counter's name in the WAL files (`disk_hits`), which the CLI
    /// prints with spaces for underscores.
    pub fn name(self) -> &'static str {
        match self.row().wal {
            Persist::Journaled(name) | Persist::Checkpointed(name) => name,
            Persist::Never => "",
        }
    }
}

/// The lifecycle counters as plain values, indexed by [`Lifecycle`]:
/// the unit of counter durability. Every counter is monotone over the
/// server's whole life *across restarts*, which is what lets recovery
/// take the elementwise max of independent durable sources.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSet(pub [u64; LIFECYCLE_COUNTERS]);

impl Index<Lifecycle> for CounterSet {
    type Output = u64;
    fn index(&self, c: Lifecycle) -> &u64 {
        &self.0[c as usize]
    }
}

impl IndexMut<Lifecycle> for CounterSet {
    fn index_mut(&mut self, c: Lifecycle) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

/// The registry's live lifecycle counters, shared between the registry
/// and the WAL flusher (which checkpoints them without holding the
/// registry). An increment is one relaxed `fetch_add` on
/// `counters[Lifecycle::…]`.
#[derive(Debug, Default)]
pub(crate) struct LifecycleCounters([AtomicU64; LIFECYCLE_COUNTERS]);

impl Index<Lifecycle> for LifecycleCounters {
    type Output = AtomicU64;
    fn index(&self, c: Lifecycle) -> &AtomicU64 {
        &self.0[c as usize]
    }
}

impl LifecycleCounters {
    /// A point-in-time copy of every counter.
    pub fn values(&self) -> CounterSet {
        CounterSet(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }

    /// Seeds the atomics from recovered values (startup only, before
    /// any traffic).
    pub fn seed(&self, values: &CounterSet) {
        for (counter, &v) in self.0.iter().zip(&values.0) {
            counter.store(v, Ordering::Relaxed);
        }
    }
}

/// A Prometheus family exported as one unlabelled sample.
#[derive(Clone, Copy, Debug)]
pub struct Family {
    /// The metric name.
    pub name: &'static str,
    /// The `# TYPE` kind: `counter` or `gauge`.
    pub kind: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
}

const fn counter(name: &'static str, help: &'static str) -> Option<Family> {
    Some(Family {
        name,
        kind: "counter",
        help,
    })
}

const fn gauge(name: &'static str, help: &'static str) -> Option<Family> {
    Some(Family {
        name,
        kind: "gauge",
        help,
    })
}

/// Where [`Metrics::report`] reads a row's live value.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// A registry lifecycle counter.
    Lifecycle(Lifecycle),
    /// A server counter held in [`Metrics`].
    Server(fn(&Metrics) -> &AtomicU64),
    /// A gauge or per-life value `report` takes from the registry
    /// snapshot or the uptime clock.
    State,
}

/// One row of [`COUNTERS`].
#[derive(Clone, Copy, Debug)]
pub struct Counter {
    /// The key in the `metrics` reply, and the [`MetricsReport`] field.
    pub json: &'static str,
    /// Reads the field.
    pub get: fn(&MetricsReport) -> u64,
    /// Writes the field.
    pub set: fn(&mut MetricsReport, u64),
    /// Where the live value comes from.
    pub source: Source,
    /// The Prometheus family, or `None` when the value is exported
    /// only inside a labelled family (or not at all).
    pub prom: Option<Family>,
    /// How the WAL persists the value.
    pub wal: Persist,
}

/// How the WAL persists a row. A persisted value is written under its
/// name to `registry.counters`, the snapshot's `counters` object and
/// the shutdown record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Persist {
    /// Not persisted.
    Never,
    /// Persisted, and re-derived at replay by counting journaled
    /// events.
    Journaled(&'static str),
    /// Persisted only: no event journals it, so a crash loses its
    /// movement since the last checkpoint.
    Checkpointed(&'static str),
}

/// Every scalar of the `metrics` reply, in wire order. The reply puts
/// its one list, `poller_connections`, before row
/// [`POLLER_CONNECTIONS_AT`].
#[rustfmt::skip]
pub const COUNTERS: [Counter; 20] = [
    Counter {
        json: "cache_hits", get: |r| r.cache_hits, set: |r, v| r.cache_hits = v,
        source: Source::Lifecycle(Lifecycle::Hits),
        prom: counter("qid_cache_hits_total", "Registry lookups served from a resident entry."),
        wal: Persist::Checkpointed("hits"),
    },
    Counter {
        json: "cache_misses", get: |r| r.cache_misses, set: |r, v| r.cache_misses = v,
        source: Source::Lifecycle(Lifecycle::Misses),
        prom: counter("qid_cache_misses_total", "Registry lookups that built a new entry."),
        wal: Persist::Journaled("misses"),
    },
    Counter {
        json: "cache_disk_hits", get: |r| r.cache_disk_hits, set: |r, v| r.cache_disk_hits = v,
        source: Source::Lifecycle(Lifecycle::DiskHits),
        prom: counter("qid_cache_disk_hits_total", "Registry lookups restored from the cache dir."),
        wal: Persist::Journaled("disk_hits"),
    },
    Counter {
        json: "cache_evictions", get: |r| r.cache_evictions, set: |r, v| r.cache_evictions = v,
        source: Source::Lifecycle(Lifecycle::Evictions),
        prom: counter("qid_cache_evictions_total", "Entries evicted by the resident-byte budget."),
        wal: Persist::Journaled("evictions"),
    },
    Counter {
        json: "cache_stale_rebuilds", get: |r| r.cache_stale_rebuilds, set: |r, v| r.cache_stale_rebuilds = v,
        source: Source::Lifecycle(Lifecycle::StaleRebuilds),
        prom: counter("qid_cache_stale_rebuilds_total", "Entries rebuilt after their source file changed."),
        wal: Persist::Journaled("stale_rebuilds"),
    },
    Counter {
        json: "cache_upgrades", get: |r| r.cache_upgrades, set: |r, v| r.cache_upgrades = v,
        source: Source::Lifecycle(Lifecycle::Upgrades),
        prom: counter("qid_cache_upgrades_total", "Stream-mode entries upgraded to materialised datasets."),
        wal: Persist::Checkpointed("upgrades"),
    },
    Counter {
        json: "cache_append_updates", get: |r| r.cache_append_updates, set: |r, v| r.cache_append_updates = v,
        source: Source::Lifecycle(Lifecycle::AppendUpdates),
        prom: counter("qid_cache_append_updates_total", "Grown sources absorbed incrementally (suffix-only scans)."),
        wal: Persist::Journaled("append_updates"),
    },
    Counter {
        json: "cache_sweep_refreshes", get: |r| r.cache_sweep_refreshes, set: |r, v| r.cache_sweep_refreshes = v,
        source: Source::Lifecycle(Lifecycle::SweepRefreshes),
        prom: counter("qid_cache_sweep_refreshes_total", "Entries refreshed by the background revalidation sweeper."),
        wal: Persist::Checkpointed("sweep_refreshes"),
    },
    Counter {
        json: "cache_bytes", get: |r| r.cache_bytes, set: |r, v| r.cache_bytes = v,
        source: Source::State,
        prom: gauge("qid_cache_resident_bytes", "Approximate bytes of resident cache entries."),
        wal: Persist::Never,
    },
    Counter {
        json: "datasets", get: |r| r.datasets as u64, set: |r, v| r.datasets = v as usize,
        source: Source::State,
        prom: gauge("qid_cache_entries", "Completed entries resident in the registry."),
        wal: Persist::Never,
    },
    Counter {
        json: "connections", get: |r| r.connections, set: |r, v| r.connections = v,
        source: Source::Server(|m| &m.connections),
        prom: counter("qid_connections_accepted_total", "Connections accepted since start."),
        wal: Persist::Never,
    },
    Counter {
        json: "rejected_oversize", get: |r| r.rejected_oversize, set: |r, v| r.rejected_oversize = v,
        source: Source::Server(|m| &m.rejected_oversize),
        prom: None,
        wal: Persist::Never,
    },
    Counter {
        json: "rejected_rate", get: |r| r.rejected_rate, set: |r, v| r.rejected_rate = v,
        source: Source::Server(|m| &m.rejected_rate),
        prom: None,
        wal: Persist::Never,
    },
    Counter {
        json: "rejected_busy", get: |r| r.rejected_busy, set: |r, v| r.rejected_busy = v,
        source: Source::Server(|m| &m.rejected_busy),
        prom: counter("qid_rejected_busy_total", "Connections turned away at accept by --max-conns admission control."),
        wal: Persist::Never,
    },
    Counter {
        json: "writes_parked", get: |r| r.writes_parked, set: |r, v| r.writes_parked = v,
        source: Source::Server(|m| &m.writes_parked),
        prom: counter("qid_writes_parked_total", "Responses parked with their connection for a readiness-driven flush."),
        wal: Persist::Never,
    },
    Counter {
        json: "bytes_read", get: |r| r.bytes_read, set: |r, v| r.bytes_read = v,
        source: Source::Server(|m| &m.bytes_read),
        prom: counter("qid_bytes_read_total", "Request bytes drained off client sockets."),
        wal: Persist::Never,
    },
    Counter {
        json: "bytes_written", get: |r| r.bytes_written, set: |r, v| r.bytes_written = v,
        source: Source::Server(|m| &m.bytes_written),
        prom: counter("qid_bytes_written_total", "Response bytes flushed to client sockets."),
        wal: Persist::Never,
    },
    Counter {
        json: "uptime_seconds", get: |r| r.uptime_seconds, set: |r, v| r.uptime_seconds = v,
        source: Source::State,
        prom: gauge("qid_uptime_seconds", "Seconds since the server started."),
        wal: Persist::Never,
    },
    Counter {
        json: "restarts", get: |r| r.restarts, set: |r, v| r.restarts = v,
        source: Source::State,
        prom: counter("qid_restarts_total", "Prior lives of this server's cache dir, per the registry journal."),
        wal: Persist::Never,
    },
    Counter {
        json: "wal_replayed_events", get: |r| r.wal_replayed_events, set: |r, v| r.wal_replayed_events = v,
        source: Source::State,
        prom: counter("qid_wal_replayed_events_total", "Registry journal records replayed at startup to warm the cache."),
        wal: Persist::Never,
    },
];

/// The row of [`COUNTERS`] (`bytes_read`) that the `metrics` reply's
/// `poller_connections` list precedes.
pub const POLLER_CONNECTIONS_AT: usize = 15;

// The lifecycle rows come first, in `Lifecycle` order, and they are
// exactly the persisted rows.
const _: () = {
    let mut i = 0;
    while i < COUNTERS.len() {
        let row = &COUNTERS[i];
        let lifecycle = matches!(row.source, Source::Lifecycle(c) if c as usize == i);
        assert!(lifecycle == (i < LIFECYCLE_COUNTERS));
        assert!(lifecycle != matches!(row.wal, Persist::Never));
        i += 1;
    }
};

#[derive(Debug, Default)]
struct CommandCounters {
    count: AtomicU64,
    errors: AtomicU64,
    latency_us: AtomicU64,
    histogram: LatencyHistogram,
}

/// One counter block per command plus protocol-level failures. All
/// updates are `Relaxed` atomics — these are statistics, not
/// synchronisation.
#[derive(Debug, Default)]
pub struct Metrics {
    per_command: [CommandCounters; COMMAND_NAMES.len()],
    /// Lines that failed to parse as any request.
    pub protocol_errors: AtomicU64,
    /// [`MetricsReport::connections`].
    pub connections: AtomicU64,
    /// [`MetricsReport::rejected_oversize`].
    pub rejected_oversize: AtomicU64,
    /// [`MetricsReport::rejected_rate`].
    pub rejected_rate: AtomicU64,
    /// [`MetricsReport::rejected_busy`].
    pub rejected_busy: AtomicU64,
    /// [`MetricsReport::writes_parked`]; the slow-reader fault test
    /// watches it to prove the readiness-driven write path engaged.
    pub writes_parked: AtomicU64,
    /// [`MetricsReport::bytes_read`], counted at the read syscall.
    pub bytes_read: AtomicU64,
    /// [`MetricsReport::bytes_written`].
    pub bytes_written: AtomicU64,
}

impl Metrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one handled request.
    pub fn record(&self, command: &str, elapsed: Duration, is_error: bool) {
        let Some(idx) = COMMAND_NAMES.iter().position(|&n| n == command) else {
            return;
        };
        let c = &self.per_command[idx];
        c.count.fetch_add(1, Ordering::Relaxed);
        if is_error {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        c.latency_us.fetch_add(us, Ordering::Relaxed);
        c.histogram.record(us);
    }

    /// Snapshots per-command stats (cache fields are filled by the
    /// server from the registry).
    pub fn command_stats(&self) -> Vec<CommandStats> {
        COMMAND_NAMES
            .iter()
            .zip(&self.per_command)
            .map(|(&name, c)| CommandStats {
                name: name.to_string(),
                count: c.count.load(Ordering::Relaxed),
                errors: c.errors.load(Ordering::Relaxed),
                latency_us: c.latency_us.load(Ordering::Relaxed),
                p50_us: c.histogram.quantile_us(0.50),
                p99_us: c.histogram.quantile_us(0.99),
            })
            .collect()
    }

    /// Raw `(count, errors, latency_us)` for command index `idx`
    /// (aligned with [`COMMAND_NAMES`]) — the Prometheus counters.
    pub(crate) fn raw_command_counters(&self, idx: usize) -> (u64, u64, u64) {
        let c = &self.per_command[idx];
        (
            c.count.load(Ordering::Relaxed),
            c.errors.load(Ordering::Relaxed),
            c.latency_us.load(Ordering::Relaxed),
        )
    }

    /// Cumulative-since-start latency bucket counts for command index
    /// `idx` (aligned with [`COMMAND_NAMES`]).
    pub(crate) fn cumulative_buckets(&self, idx: usize) -> [u64; LATENCY_BUCKETS] {
        self.per_command[idx].histogram.cumulative_counts()
    }

    /// Slides every command histogram's window forward one epoch (see
    /// [`LatencyHistogram::rotate`]). Called by the poller thread every
    /// [`HISTOGRAM_EPOCH`].
    pub fn rotate_histograms(&self) {
        for c in &self.per_command {
            c.histogram.rotate();
        }
    }

    /// Builds the full `metrics` payload given the registry's lifecycle
    /// counters, the server's uptime, and the per-poller-shard
    /// connection gauges (in shard order).
    pub fn report(
        &self,
        registry: RegistrySnapshot,
        uptime_seconds: u64,
        poller_connections: Vec<u64>,
    ) -> MetricsReport {
        let mut report = MetricsReport {
            cache_bytes: registry.resident_bytes,
            datasets: registry.datasets,
            uptime_seconds,
            restarts: registry.restarts,
            wal_replayed_events: registry.wal_replayed_events,
            version: crate::obs::BUILD_VERSION.to_string(),
            poller_connections,
            commands: self.command_stats(),
            ..MetricsReport::default()
        };
        for row in &COUNTERS {
            let value = match row.source {
                Source::Lifecycle(c) => registry.counters[c],
                Source::Server(counter) => counter(self).load(Ordering::Relaxed),
                Source::State => continue,
            };
            (row.set)(&mut report, value);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Response;

    #[test]
    fn records_accumulate() {
        let m = Metrics::new();
        m.record("audit", Duration::from_micros(100), false);
        m.record("audit", Duration::from_micros(50), true);
        m.record("nonsense", Duration::from_micros(1), false); // ignored
        let stats = m.command_stats();
        let audit = stats.iter().find(|c| c.name == "audit").unwrap();
        assert_eq!(audit.count, 2);
        assert_eq!(audit.errors, 1);
        assert_eq!(audit.latency_us, 150);
        let load = stats.iter().find(|c| c.name == "load").unwrap();
        assert_eq!(load.count, 0);
        assert_eq!(load.p50_us, 0, "no observations, no quantile");
    }

    #[test]
    fn report_includes_registry_snapshot() {
        let m = Metrics::new();
        let r = m.report(
            RegistrySnapshot {
                counters: CounterSet([5, 2, 1, 3, 4, 2, 6, 7]),
                resident_bytes: 640,
                datasets: 1,
                restarts: 2,
                wal_replayed_events: 9,
            },
            17,
            vec![3, 4],
        );
        assert_eq!(r.uptime_seconds, 17);
        assert_eq!(r.version, crate::obs::BUILD_VERSION);
        assert_eq!(r.cache_hits, 5);
        assert_eq!(r.cache_misses, 2);
        assert_eq!(r.cache_disk_hits, 1);
        assert_eq!(r.cache_evictions, 3);
        assert_eq!(r.cache_stale_rebuilds, 4);
        assert_eq!(r.cache_upgrades, 2);
        assert_eq!(r.cache_append_updates, 6);
        assert_eq!(r.cache_sweep_refreshes, 7);
        assert_eq!(r.cache_bytes, 640);
        assert_eq!(r.datasets, 1);
        assert_eq!(r.restarts, 2);
        assert_eq!(r.wal_replayed_events, 9);
        assert_eq!(r.commands.len(), COMMAND_NAMES.len());
        assert_eq!(r.rejected_oversize, 0);
        assert_eq!(r.rejected_rate, 0);
        assert_eq!(r.rejected_busy, 0);
        assert_eq!(r.poller_connections, vec![3, 4]);
    }

    /// A report whose row `i` of [`COUNTERS`] holds `base + i`.
    fn distinct_report(base: u64) -> MetricsReport {
        let mut report = MetricsReport::default();
        for (i, row) in COUNTERS.iter().enumerate() {
            (row.set)(&mut report, base + i as u64);
        }
        report
    }

    #[test]
    fn every_table_row_survives_every_surface() {
        let expected = distinct_report(1_000);
        let value = |i: usize| 1_000 + i as u64;
        let names: std::collections::HashSet<&str> = COUNTERS.iter().map(|row| row.json).collect();
        assert_eq!(names.len(), COUNTERS.len(), "JSON field names are unique");
        for (i, row) in COUNTERS.iter().enumerate() {
            assert_eq!((row.get)(&expected), value(i), "{}", row.json);
        }

        // `Metrics::report` reads every row from its source.
        let m = Metrics::new();
        for (i, row) in COUNTERS.iter().enumerate() {
            if let Source::Server(counter) = row.source {
                counter(&m).store(value(i), Ordering::Relaxed);
            }
        }
        let lifecycle = CounterSet(std::array::from_fn(value));
        let snapshot = RegistrySnapshot {
            counters: lifecycle,
            resident_bytes: expected.cache_bytes,
            datasets: expected.datasets,
            restarts: expected.restarts,
            wal_replayed_events: expected.wal_replayed_events,
        };
        let report = m.report(snapshot, expected.uptime_seconds, vec![]);
        for (i, row) in COUNTERS.iter().enumerate() {
            assert_eq!((row.get)(&report), value(i), "{}", row.json);
        }

        // The `metrics` reply: encode and decode, including values
        // past i64::MAX, which travel as decimal strings.
        for base in [1_000, u64::MAX - 100] {
            let sent = Response::Metrics(distinct_report(base));
            assert_eq!(Response::decode(&sent.encode()), Ok(sent));
        }

        // Prometheus: one sample and one `# TYPE` line per family.
        let mut text = String::new();
        crate::obs::table_families(&mut text, &expected);
        for (i, row) in COUNTERS.iter().enumerate() {
            if let Some(Family { name, kind, .. }) = row.prom {
                let sample = format!("{name} {}", value(i));
                assert!(text.lines().any(|l| l == sample), "{sample:?} missing");
                assert!(text.contains(&format!("# TYPE {name} {kind}\n")));
            }
        }

        // The WAL checkpoint line, then recovery from the journal's
        // shutdown record and from the checkpoint alone.
        let dir = std::env::temp_dir().join(format!("qid-counter-table-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = std::sync::Arc::new(
            crate::wal::Wal::open(&dir, crate::wal::DEFAULT_WAL_MAX_BYTES).expect("wal open"),
        );
        let live = std::sync::Arc::new(LifecycleCounters::default());
        live.seed(&lifecycle);
        wal.arm(std::sync::Arc::clone(&live));
        let checkpoint = std::fs::read_to_string(dir.join(crate::wal::COUNTERS_FILE)).unwrap();
        for c in Lifecycle::ALL {
            let pair = format!("\"{}\":{}", c.name(), lifecycle[c]);
            assert!(checkpoint.contains(&pair), "{pair} not in {checkpoint}");
        }
        wal.close(&live);
        assert_eq!(crate::wal::inspect(&dir).counters, lifecycle);
        std::fs::remove_file(dir.join(crate::wal::WAL_FILE)).unwrap();
        assert_eq!(crate::wal::inspect(&dir).counters, lifecycle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejection_counters_flow_into_the_report() {
        let m = Metrics::new();
        m.rejected_oversize.fetch_add(3, Ordering::Relaxed);
        m.rejected_rate.fetch_add(5, Ordering::Relaxed);
        m.rejected_busy.fetch_add(7, Ordering::Relaxed);
        m.writes_parked.fetch_add(2, Ordering::Relaxed);
        let r = m.report(RegistrySnapshot::default(), 0, vec![]);
        assert_eq!(r.rejected_oversize, 3);
        assert_eq!(r.rejected_rate, 5);
        assert_eq!(r.rejected_busy, 7);
        assert_eq!(r.writes_parked, 2);
    }

    #[test]
    fn byte_counters_flow_into_the_report() {
        let m = Metrics::new();
        m.bytes_read.fetch_add(1024, Ordering::Relaxed);
        m.bytes_written.fetch_add(2048, Ordering::Relaxed);
        let r = m.report(RegistrySnapshot::default(), 0, vec![]);
        assert_eq!(r.bytes_read, 1024);
        assert_eq!(r.bytes_written, 2048);
    }

    #[test]
    fn rotation_expires_old_epoch_samples() {
        let h = LatencyHistogram::default();
        for _ in 0..100 {
            h.record(100); // bucket 6: upper edge 127 µs
        }
        assert_eq!(h.quantile_us(0.99), 127);
        // One rotation: the samples move to the previous epoch but
        // still count (the window covers both epochs).
        h.rotate();
        assert_eq!(h.quantile_us(0.99), 127, "last epoch still visible");
        // New traffic lands in the fresh current epoch.
        for _ in 0..100 {
            h.record(10_000); // bucket 13: upper edge 16383 µs
        }
        assert_eq!(h.quantile_us(0.99), 16_383, "both epochs blend");
        // Second rotation: the 100 µs samples are two epochs old and
        // stop influencing quantiles entirely.
        h.rotate();
        assert_eq!(h.quantile_us(0.50), 16_383, "only the recent epoch remains");
        // Third rotation with no new traffic: the window empties.
        h.rotate();
        assert_eq!(h.quantile_us(0.99), 0, "a quiet window reports zero");
    }

    #[test]
    fn cumulative_buckets_survive_rotation() {
        let m = Metrics::new();
        m.record("check", Duration::from_micros(100), false);
        m.rotate_histograms();
        m.rotate_histograms();
        m.rotate_histograms();
        let idx = COMMAND_NAMES.iter().position(|&n| n == "check").unwrap();
        assert_eq!(
            m.cumulative_buckets(idx).iter().sum::<u64>(),
            1,
            "rotation must not erase the Prometheus view"
        );
        let (count, errors, latency_us) = m.raw_command_counters(idx);
        assert_eq!((count, errors, latency_us), (1, 0, 100));
    }

    #[test]
    fn metrics_rotation_covers_every_command() {
        let m = Metrics::new();
        m.record("audit", Duration::from_micros(100), false);
        m.rotate_histograms();
        m.rotate_histograms();
        let stats = m.command_stats();
        let audit = stats.iter().find(|c| c.name == "audit").unwrap();
        assert_eq!(audit.count, 1, "counts stay cumulative");
        assert_eq!(audit.p50_us, 0, "quantiles forget rotated-out samples");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 1);
        assert_eq!(LatencyHistogram::bucket_index(1024), 10);
        assert_eq!(
            LatencyHistogram::bucket_index(u64::MAX),
            LATENCY_BUCKETS - 1,
            "huge latencies clamp to the open-ended top bucket"
        );
    }

    #[test]
    fn quantiles_report_bucket_upper_edges() {
        let h = LatencyHistogram::default();
        // 99 fast requests (bucket 6: 64–127 µs) and one slow outlier
        // (bucket 13: 8192–16383 µs).
        for _ in 0..99 {
            h.record(100);
        }
        h.record(10_000);
        assert_eq!(h.quantile_us(0.50), 127);
        assert_eq!(h.quantile_us(0.99), 127, "rank 99 of 100 is still fast");
        assert_eq!(h.quantile_us(1.0), 16_383, "the max sees the outlier");
    }

    #[test]
    fn p50_p99_flow_into_command_stats() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record("key", Duration::from_micros(10), false);
        }
        m.record("key", Duration::from_micros(5_000), false);
        let stats = m.command_stats();
        let key = stats.iter().find(|c| c.name == "key").unwrap();
        assert_eq!(key.p50_us, 15, "bucket 3 covers 8–15 µs");
        // Rank 99 of 100 is the last fast observation, not the outlier.
        assert_eq!(key.p99_us, 15, "p99 stays in the fast band");
        assert!(key.p50_us <= key.p99_us);
    }
}
