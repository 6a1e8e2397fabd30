//! The registry lifecycle subsystem: `(path, eps, seed) → cached sketch`,
//! sharded, budgeted, persistent, and self-invalidating.
//!
//! The paper's economics are: building the `Θ(m/√ε)` tuple sample costs
//! a full scan, answering a query against it costs `O(|A|·r log r)`. So
//! the registry builds once and every subsequent `audit`/`key`/`check`
//! shares the resident [`TupleSampleFilter`]. On top of that single
//! invariant this module layers the full cache lifecycle:
//!
//! * **Sharding.** Keys are spread over [`RegistryConfig::shards`]
//!   independent `RwLock<HashMap>` shards by key hash, so a cache hit
//!   takes only a shared read lock on one shard — concurrent readers of
//!   *different* datasets (and of the same dataset) never serialise on
//!   a global mutex. Entries are immutable `Arc`s, so the read path
//!   clones a pointer and leaves.
//! * **Build collapsing.** Concurrent first requests for the same key
//!   are collapsed onto one build via a per-entry [`OnceLock`]: the
//!   losers block until the winner's artifacts are ready, so two
//!   clients racing on a cold dataset still cause exactly one CSV scan.
//! * **LRU eviction.** With [`RegistryConfig::cache_bytes`] set, every
//!   admit that pushes the resident total (each entry's
//!   [`Entry::stored_bytes`]) over budget evicts least-recently-used
//!   entries until the total fits again. The entry being returned is
//!   never evicted, so a single over-budget dataset still works.
//! * **Disk persistence.** With [`RegistryConfig::cache_dir`] set,
//!   every sample built from a source scan is persisted (sample CSV +
//!   params + source stat) and a later miss — in this process or after
//!   a restart — restores the sketch from disk instead of re-scanning
//!   the (possibly multi-GB) source. Samples are `Θ(m/√ε)`, so the
//!   warm tier is tiny.
//! * **File-change invalidation.** Every hit re-stamps the source file
//!   ([`SourceStamp`]: length, mtime, an FNV-64 fingerprint over a
//!   fixed prefix, *and* an FNV-64 over the whole content) and
//!   classifies it against the stamp captured *before* the building
//!   scan started. For a same-length same-mtime file the stat alone is
//!   trusted only once it *can* prove freshness — a stamp captured
//!   within the mtime race window of the file's own mtime
//!   ([`MTIME_RACE_WINDOW_MS`]) re-reads the prefix fingerprint on
//!   each hit until one check passes after the window closes, so an
//!   in-place rewrite hiding inside the filesystem's timestamp
//!   resolution is caught (the false-negative family). The remaining
//!   blind spots are a racy same-length rewrite entirely beyond the
//!   fingerprinted prefix, and deliberate mtime forgery (a rewrite
//!   that pins the old mtime back from *outside* the race window).
//!   Disk-restored entries carry the same stamp, so persistence never
//!   resurrects stale data.
//! * **Append absorption.** A *grown* source whose **entire** old
//!   content re-hashes to the recorded whole-content FNV (and whose
//!   old bytes ended on a row boundary) is a pure append: instead of
//!   rebuilding, the registry resumes the entry's paused ingest state
//!   ([`qid_core::stream::TupleIngest`]) and feeds only the new suffix
//!   through the reservoir, the column sketches, and — when the
//!   sketch was built in-process — the pair reservoirs. The result is
//!   bit-identical to a cold rebuild over the whole file, at
//!   hash-plus-suffix cost (`cache_append_updates`). A rewrite beyond
//!   the prefix combined with growth therefore rebuilds — it can
//!   never be absorbed as an append.
//! * **Background revalidation.** [`Registry::sweep`] (driven by the
//!   server's `--sweep-ms` thread) walks resident entries, re-stamps
//!   fresh ones (keeping the [`Registry::peek`] window open so the
//!   zero-alloc fast path never falls back), and absorbs/rebuilds
//!   changed ones ahead of traffic (`cache_sweep_refreshes`).
//! * **Warm-tier GC.** With [`RegistryConfig::cache_disk_bytes`] set,
//!   persisted artifacts are garbage-collected oldest-first (grouped
//!   by key stem) whenever a persist pushes the directory over budget,
//!   so never-again-requested keys cannot grow the cache dir forever.
//!
//! The full state machine (also documented in `docs/ARCHITECTURE.md`):
//!
//! ```text
//!            ┌────── restore hit ──────────────┐
//!  miss ──▶ building ── scan ok ──▶ cached ──▶ persisted (sample on disk)
//!            │                       │  ▲ ▲
//!            └─ error (slot dropped) │  │ └ absorb suffix ◀─ appended
//!                                    │  └── rebuild (miss) ◀─ stale
//!                                    ├──▶ appended (source grew, prefix intact)
//!                                    ├──▶ stale    (source rewritten/truncated)
//!                                    ├──▶ evicted  (LRU under budget pressure)
//!                                    └──▶ unloaded (explicit protocol command)
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Instant, UNIX_EPOCH};

use qid_core::filter::{FilterParams, SeparationFilter, TupleSampleFilter};
use qid_core::sketch::{DistinctSketch, NonSeparationSketch, SketchParams};
use qid_core::stream::{sketch_from_stream, IngestCheckpoint, PairIngest, SkipState, TupleIngest};
use qid_dataset::csv::{read_csv_path, read_csv_str, write_csv, CsvOptions, CsvTupleSource};
use qid_dataset::{AttrId, Dataset, DatasetError, DatasetTupleSource, TupleSource, Value};

use crate::json::{self, obj, s, Json};
use crate::metrics::{CounterSet, Lifecycle, LifecycleCounters};
use crate::proto::{sketch_params, DatasetRef, LoadMode};

/// Retention parameter `k` of the per-column [`DistinctSketch`]s built
/// for stream-mode entries: `stats` answers are exact below `k`
/// distinct values per column and `(1 ± O(1/√k)) ≈ ±6%` estimates
/// above, at `≤ 8·k` bytes per column.
pub const COLUMN_SKETCH_K: usize = 256;

/// The registry's exact cache identity. `eps` is keyed by bit pattern
/// (the wire carries the same `f64` both ways, so equal requests hash
/// equal), and the path is canonicalised when possible so `./a.csv` and
/// `a.csv` share an entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonicalised dataset path.
    pub path: String,
    /// `eps.to_bits()`.
    pub eps_bits: u64,
    /// Sampling seed.
    pub seed: u64,
}

impl CacheKey {
    /// Builds the key for a request's dataset reference.
    pub fn of(ds: &DatasetRef) -> CacheKey {
        let path = std::fs::canonicalize(&ds.path)
            .ok()
            .and_then(|p| p.to_str().map(str::to_string))
            .unwrap_or_else(|| ds.path.clone());
        CacheKey {
            path,
            eps_bits: ds.eps.to_bits(),
            seed: ds.seed,
        }
    }

    /// 64-bit FNV-1a over the full key — the persistence file stem.
    /// (Shard selection uses the std hasher via `Registry::shard`, not
    /// this.)
    pub fn fnv64(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for byte in self
            .path
            .as_bytes()
            .iter()
            .copied()
            .chain(self.eps_bits.to_le_bytes())
            .chain(self.seed.to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// How many leading bytes of the source file the content fingerprint
/// covers. Large enough that any realistic header + early rows are
/// inside it, small enough that re-stamping a hit is one buffered read
/// of a page-cached region, not a scan.
pub const FINGERPRINT_PREFIX: u64 = 64 * 1024;

/// How close (milliseconds) a stamp's capture time must be to the
/// file's mtime for a later same-mtime rewrite to be able to hide from
/// a stat-based check. Sized for the coarsest common filesystem
/// timestamp granularity (FAT: 2 s) plus a little scheduler slack.
/// Outside this window a rewrite necessarily moves the mtime, so the
/// stat alone proves freshness; inside it, hits re-read the content
/// fingerprint (the git "racy stat" discipline).
pub const MTIME_RACE_WINDOW_MS: u64 = 2_500;

/// The source-file identity captured when an entry is built: length,
/// modification time, an FNV-64 fingerprint over the first
/// [`FINGERPRINT_PREFIX`] bytes, and an FNV-64 over the entire
/// content. Hits classify a fresh stamp against this to catch in-place
/// rewrites (even same-length ones inside the filesystem's mtime
/// resolution, via the fingerprint) and to recognise pure appends —
/// the whole-content hash is what proves a grown file's old bytes are
/// untouched, however large the file is.
#[derive(Clone, Copy, Debug)]
pub struct SourceStamp {
    /// File length in bytes.
    pub len: u64,
    /// Modification time, seconds since the Unix epoch.
    pub mtime_s: u64,
    /// Sub-second part of the modification time, nanoseconds.
    pub mtime_ns: u32,
    /// FNV-1a over the first `min(len, FINGERPRINT_PREFIX)` bytes.
    pub prefix_fnv: u64,
    /// FNV-1a over all `len` bytes. On a grown file, the running hash
    /// at the old length must equal the old stamp's `full_fnv` for the
    /// growth to classify as a pure append.
    pub full_fnv: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch.
    /// Excluded from equality: it records *when* the identity was
    /// taken, not what the file contained — see [`SourceStamp::eq`].
    pub captured_ms: u64,
}

/// Two stamps are equal iff they describe the same file *content*
/// (length, mtime, both hashes). The capture time is deliberately
/// ignored: re-stamping an unchanged file at a later moment must
/// compare equal, or every persistence restore and stale check would
/// see a phantom change.
impl PartialEq for SourceStamp {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.mtime_s == other.mtime_s
            && self.mtime_ns == other.mtime_ns
            && self.prefix_fnv == other.prefix_fnv
            && self.full_fnv == other.full_fnv
    }
}

impl Eq for SourceStamp {}

impl SourceStamp {
    /// Stats `path` and hashes its content (prefix window + full
    /// length); `None` if the file cannot be statted or read (missing,
    /// permissions) or its mtime predates the epoch. The stat is taken
    /// *before* the read, matching the build discipline: a file
    /// mutated between the two yields a stamp that cannot match any
    /// future capture, which classifies as stale — never as silently
    /// fresh.
    pub fn capture(path: &str) -> Option<SourceStamp> {
        let captured_ms = unix_ms_now();
        let meta = std::fs::metadata(path).ok()?;
        let mtime = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())?;
        let len = meta.len();
        let scan = scan_content(path, len, len).ok()?;
        Some(SourceStamp {
            len,
            mtime_s: mtime.as_secs(),
            mtime_ns: mtime.subsec_nanos(),
            prefix_fnv: scan.prefix_fnv,
            full_fnv: scan.full_fnv,
            captured_ms,
        })
    }

    /// The file's mtime as milliseconds since the Unix epoch.
    fn mtime_ms(&self) -> u64 {
        self.mtime_s
            .saturating_mul(1_000)
            .saturating_add(u64::from(self.mtime_ns) / 1_000_000)
    }

    /// The wall-clock moment after which any rewrite of the file must
    /// move its mtime past the recorded one.
    fn race_horizon_ms(&self) -> u64 {
        self.mtime_ms().saturating_add(MTIME_RACE_WINDOW_MS)
    }

    /// True while a same-length same-mtime rewrite could still be
    /// hiding from the stat: the stamp was captured inside the mtime
    /// race window, so content written after the capture may share the
    /// recorded mtime. Racy stamps pay a fingerprint re-read on hits
    /// until one check passes beyond the horizon.
    fn is_racy(&self) -> bool {
        self.captured_ms < self.race_horizon_ms()
    }
}

/// Wall-clock milliseconds since the Unix epoch (0 on a pre-epoch
/// clock, which only makes every stamp permanently racy — safe).
fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// The running FNV-1a state of one sequential read of a source file:
/// the hash at the prefix-window boundary, at the caller's `mark`
/// (the old length, on grown-file checks), and at the end, plus the
/// byte just before the mark (the old content's final byte — the
/// row-boundary check) and how many bytes were actually read.
struct ContentScan {
    /// Hash after `min(upto, FINGERPRINT_PREFIX)` bytes.
    prefix_fnv: u64,
    /// Hash after `mark` bytes.
    mark_fnv: u64,
    /// Hash after every byte read.
    full_fnv: u64,
    /// The byte at offset `mark - 1`, if the read got that far.
    byte_before_mark: Option<u8>,
    /// Bytes actually read — short of `upto` when the file shrank
    /// between the stat and the read.
    read: u64,
}

/// One buffered sequential read of `path`'s first `upto` bytes,
/// tracking the running FNV-1a at every boundary a freshness check
/// needs (`mark ≤ upto`). A single read serves capture (`mark ==
/// upto`), the same-length fingerprint re-check (`upto ≤
/// FINGERPRINT_PREFIX`), and the grown-file append check (`mark ==
/// old length`) — so no check ever reads the file twice.
fn scan_content(path: &str, mark: u64, upto: u64) -> std::io::Result<ContentScan> {
    debug_assert!(mark <= upto);
    let mut file = std::fs::File::open(path)?;
    let mut h = FNV_OFFSET;
    let mut scan = ContentScan {
        prefix_fnv: h,
        mark_fnv: h,
        full_fnv: h,
        byte_before_mark: None,
        read: 0,
    };
    let mut pos: u64 = 0;
    let mut buf = [0u8; 8192];
    while pos < upto {
        let want = (upto - pos).min(buf.len() as u64) as usize;
        let got = file.read(&mut buf[..want])?;
        if got == 0 {
            // Shorter than the stat said (raced a truncation): the
            // partial hashes cannot match a complete stamp, so the
            // caller classifies this as stale.
            break;
        }
        for &b in &buf[..got] {
            if pos + 1 == mark {
                scan.byte_before_mark = Some(b);
            }
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            pos += 1;
            if pos == mark {
                scan.mark_fnv = h;
            }
            if pos == FINGERPRINT_PREFIX {
                scan.prefix_fnv = h;
            }
        }
    }
    if upto <= FINGERPRINT_PREFIX {
        // The whole file fits inside the prefix window.
        scan.prefix_fnv = h;
    }
    scan.full_fnv = h;
    scan.read = pos;
    Ok(scan)
}

/// The verdict of re-stamping a source file against the stamp its
/// entry was built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Freshness {
    /// Unchanged (or unstattable — the sample is all we have, and the
    /// paper's point is that it keeps answering queries).
    Fresh,
    /// The file *grew*, the old prefix window hashes identically, and
    /// the old bytes ended on a row boundary: a pure append. `new` is
    /// the full stamp of the grown file (captured before the check
    /// reads), ready to record on the absorbed entry.
    Appended {
        /// Stamp of the grown file.
        new: SourceStamp,
    },
    /// Rewritten, truncated, or a grown file whose prefix changed (or
    /// whose old tail straddles a row): only a full rebuild is sound.
    Stale,
}

/// Classifies the current state of `path` against the stamp `then` the
/// entry was built from. Entries built from an unstattable source
/// (`then == None`) never invalidate. The returned flag is `true` iff
/// the same-length arm *read and matched* the content fingerprint —
/// the caller uses it to settle the racy-stat state (see
/// [`Registry::classify_for_slot`]).
///
/// With `verify_content`, the same-length same-mtime arm re-reads the
/// prefix fingerprint instead of trusting the stat — required while
/// the stamp is racy ([`SourceStamp::is_racy`]): a rewrite inside the
/// filesystem's mtime resolution is invisible to the stat alone. The
/// residual blind spots are a *racy* same-length rewrite that only
/// touches bytes beyond [`FINGERPRINT_PREFIX`], and deliberate mtime
/// forgery from outside the race window.
///
/// The grown arm never trusts a prefix alone: the entire old content
/// is re-hashed and must equal the stamp's whole-content FNV before
/// the growth classifies as [`Freshness::Appended`] — a rewrite
/// beyond the prefix combined with growth is `Stale`, not a silently
/// absorbed append.
fn classify(then: Option<SourceStamp>, path: &str, verify_content: bool) -> (Freshness, bool) {
    let captured_ms = unix_ms_now();
    let Some(then) = then else {
        return (Freshness::Fresh, false);
    };
    let Ok(meta) = std::fs::metadata(path) else {
        return (Freshness::Fresh, false); // missing ≠ stale
    };
    let Some(mtime) = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
    else {
        return (Freshness::Fresh, false);
    };
    let (mtime_s, mtime_ns) = (mtime.as_secs(), mtime.subsec_nanos());
    let len = meta.len();
    if len < then.len {
        return (Freshness::Stale, false); // truncated
    }
    if len == then.len {
        if mtime_s != then.mtime_s || mtime_ns != then.mtime_ns {
            return (Freshness::Stale, false);
        }
        if !verify_content {
            // Outside the race window (or already settled) a matching
            // stat is proof: any rewrite would have moved the mtime.
            return (Freshness::Fresh, false);
        }
        // Same length, same mtime, racy stamp: the stat alone proves
        // nothing (the false-negative family) — verify the content
        // fingerprint.
        let upto = len.min(FINGERPRINT_PREFIX);
        return match scan_content(path, 0, upto) {
            Ok(scan) if scan.read == upto && scan.prefix_fnv == then.prefix_fnv => {
                (Freshness::Fresh, true)
            }
            Ok(_) => (Freshness::Stale, false),
            Err(_) => (Freshness::Fresh, false), // unreadable now: keep serving
        };
    }
    // Grown. One read re-hashes the *entire* old content (a prefix
    // match is not enough — a rewrite beyond it plus growth must
    // rebuild, not absorb) and continues over the suffix, yielding the
    // grown file's prefix and whole-content hashes for the new stamp.
    if then.len == 0 {
        return (Freshness::Stale, false);
    }
    let Ok(scan) = scan_content(path, then.len, len) else {
        return (Freshness::Fresh, false);
    };
    if scan.read < len || scan.mark_fnv != then.full_fnv {
        // Shrank mid-read (volatile) or the old bytes changed: only a
        // full rebuild is sound.
        return (Freshness::Stale, false);
    }
    // The old content must end exactly on a row boundary; otherwise
    // the append completed a partial final line and the already-counted
    // last row changed meaning — only a full rebuild is sound.
    if scan.byte_before_mark != Some(b'\n') {
        return (Freshness::Stale, false);
    }
    (
        Freshness::Appended {
            new: SourceStamp {
                len,
                mtime_s,
                mtime_ns,
                prefix_fnv: scan.prefix_fnv,
                full_fnv: scan.full_fnv,
                captured_ms,
            },
        },
        false,
    )
}

/// The artifacts cached for one dataset: the tuple sample (Theorem 1),
/// the per-column distinct-count sketches, the lazily built
/// non-separation sketch (Theorem 2), and — for memory-mode loads —
/// the materialised dataset.
#[derive(Debug)]
pub struct Entry {
    /// The resident tuple-sample filter (always present).
    pub filter: TupleSampleFilter,
    /// The fully materialised dataset — `None` for stream-mode loads
    /// and disk-restored entries, where only the sample is kept.
    pub dataset: Option<Dataset>,
    /// Per-column KMV distinct-count sketches (one per attribute, in
    /// schema order), built during the loading pass so `stats` always
    /// answers without materialising. Every construction path produces
    /// them (build, restore, append absorb), so `stats` on a stream
    /// entry can never fall back to a silent full materialisation.
    pub cols: Vec<DistinctSketch>,
    /// Rows seen when the entry was built (stream length or `n_rows`).
    pub rows: usize,
    /// Attribute count.
    pub attrs: usize,
    /// Approximate resident bytes at build time: the sample, the
    /// column sketches, the materialised dataset's codes (if any), and
    /// the retained resumable-ingest tuples (a second copy of the
    /// sample rows, kept so appends can resume). Together with the
    /// lazily added non-separation sketch bytes this is what LRU
    /// eviction charges against [`RegistryConfig::cache_bytes`].
    pub stored_bytes: usize,
    /// Source-file stamp captured *before* the building scan, so a
    /// file rewritten mid-scan still reads as changed on the next hit.
    /// `None` when the source could not be statted.
    pub source: Option<SourceStamp>,
    /// The paused streaming build (reservoir + RNG) this entry's
    /// sample came from. `Some` for stream-built and checkpoint-
    /// restored entries; appends resume it over just the new suffix.
    /// `None` for memory-mode entries (they rebuild fully — the
    /// materialised dataset must cover the appended rows anyway) and
    /// pre-checkpoint restores.
    ingest: Option<TupleIngest>,
    /// The paused pair-sample build behind the non-separation sketch,
    /// recorded when [`Registry::sketch_for`] builds by scanning in
    /// process — so an append can advance the sketch over the suffix
    /// instead of re-scanning. Written at most once, like the sketch.
    pair_ingest: OnceLock<PairIngest>,
    /// The lazily built Theorem 2 sketch: written once (concurrent
    /// `sketch` queries collapse onto one build), dropped with the
    /// entry.
    sketch_cell: OnceLock<Result<Arc<NonSeparationSketch>, String>>,
    /// Bytes the built sketch adds to the resident total; swapped to 0
    /// exactly once when the bytes are released (eviction, unload, or
    /// reclaim after a lost race), so the accounting never
    /// double-subtracts.
    sketch_bytes: std::sync::atomic::AtomicUsize,
}

impl Entry {
    fn new(
        filter: TupleSampleFilter,
        dataset: Option<Dataset>,
        cols: Vec<DistinctSketch>,
        rows: usize,
        attrs: usize,
        source: Option<SourceStamp>,
        ingest: Option<TupleIngest>,
    ) -> Entry {
        let stored_bytes = filter.stored_bytes()
            + dataset.as_ref().map_or(0, |ds| ds.code_bytes())
            + cols.iter().map(DistinctSketch::stored_bytes).sum::<usize>()
            + ingest.as_ref().map_or(0, TupleIngest::retained_bytes);
        Entry {
            filter,
            dataset,
            cols,
            rows,
            attrs,
            stored_bytes,
            source,
            ingest,
            pair_ingest: OnceLock::new(),
            sketch_cell: OnceLock::new(),
            sketch_bytes: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// The cached non-separation sketch, if one has been built for this
    /// entry (see [`Registry::sketch_for`]).
    pub fn sketch(&self) -> Option<Arc<NonSeparationSketch>> {
        self.sketch_cell
            .get()
            .and_then(|r| r.as_ref().ok().cloned())
    }

    /// True iff this entry can absorb a pure append without a re-scan
    /// (it carries resumable ingest state).
    pub fn append_capable(&self) -> bool {
        self.ingest.is_some()
    }
}

/// One cache slot: the build cell plus the LRU stamp. The cell is
/// written exactly once; the stamp is bumped on every touch.
#[derive(Debug, Default)]
struct SlotInner {
    cell: OnceLock<Result<Arc<Entry>, String>>,
    last_used: AtomicU64,
    /// When this slot's entry last passed a source-stat freshness check,
    /// as milliseconds since the registry was created **plus one** (so
    /// `0` means "never validated"). [`Registry::peek`] serves without
    /// re-statting while this stamp is younger than
    /// [`RegistryConfig::revalidate_ms`].
    validated: AtomicU64,
    /// True once the stat alone is known to prove freshness for this
    /// slot's entry: either the stamp was never racy, or a fingerprint
    /// re-read passed *after* the mtime race window closed (any later
    /// rewrite must move the mtime). Until then, every hit on a racy
    /// stamp pays the prefix re-read — see
    /// [`Registry::classify_for_slot`].
    content_settled: std::sync::atomic::AtomicBool,
}

type Slot = Arc<SlotInner>;
type Shard = RwLock<HashMap<CacheKey, Slot>>;

/// How the registry is sized and where it persists.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Number of independent cache shards (clamped to ≥ 1). More shards
    /// mean less read-lock contention across distinct datasets.
    pub shards: usize,
    /// LRU memory budget in bytes over every entry's
    /// [`Entry::stored_bytes`]; `None` disables eviction.
    pub cache_bytes: Option<u64>,
    /// Directory for the persistent warm tier (sample CSV + metadata
    /// per entry); `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the persistent warm tier; `None` disables disk
    /// GC. When a persist pushes the directory's artifact total over
    /// this, whole key-stem groups (sample + meta + pairs together)
    /// are removed oldest-first until it fits — so keys that are never
    /// requested again cannot grow the cache dir without bound.
    pub cache_disk_bytes: Option<u64>,
    /// How long (milliseconds) a freshness check stays valid for the
    /// allocation-free [`Registry::peek`] fast path. Within this window
    /// of the last source stat, `peek` serves the resident entry
    /// without re-statting the file; `0` (the default here) disables
    /// `peek` entirely, preserving strict stat-on-every-hit
    /// invalidation. [`Registry::get_or_load`] always stats regardless.
    pub revalidate_ms: u64,
    /// Observer for cache lifecycle events (build, restore, evict,
    /// stale rebuild, unload, purge); `None` disables the hook. A
    /// plain `fn` pointer rather than a closure so the config keeps
    /// deriving `Clone`/`Debug`; the server installs an NDJSON logger
    /// here behind `--log-json`.
    pub event_sink: Option<fn(RegistryEvent)>,
    /// Size budget for the registry's write-ahead journal
    /// (`registry.wal` under [`RegistryConfig::cache_dir`]): past this
    /// many bytes the journal is folded into `registry.snapshot` and
    /// truncated, bounding replay cost. `0` disables the journal (and
    /// with it warm restart recovery); the journal is also off when no
    /// cache dir is configured. See [`crate::wal`].
    pub wal_max_bytes: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            shards: 16,
            cache_bytes: None,
            cache_dir: None,
            cache_disk_bytes: None,
            revalidate_ms: 0,
            event_sink: None,
            wal_max_bytes: crate::wal::DEFAULT_WAL_MAX_BYTES,
        }
    }
}

/// A cache lifecycle event, delivered to
/// [`RegistryConfig::event_sink`] as it happens. `key` is the entry's
/// FNV-1a key hash ([`CacheKey::fnv64`]) — the same 16-hex-digit stem
/// the persistence tier uses, so log lines join against on-disk
/// artifacts and trace spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegistryEvent {
    /// A cold build scanned the source and produced a new entry.
    Built {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
        /// The entry's resident footprint, bytes.
        bytes: u64,
    },
    /// A persisted artifact was restored from the cache dir (no scan).
    Restored {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
        /// The restored entry's resident footprint, bytes.
        bytes: u64,
    },
    /// The LRU budget evicted a completed entry.
    Evicted {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
        /// Bytes released by the eviction.
        bytes: u64,
    },
    /// A source-file change forced a rebuild of a resident entry.
    StaleRebuild {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
    },
    /// A grown source was absorbed incrementally: only the appended
    /// suffix was scanned, the resident entry's reservoir resumed.
    AppendUpdate {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
        /// Suffix bytes absorbed (new length minus old length).
        bytes: u64,
    },
    /// The warm-tier byte budget removed a persisted key's artifacts
    /// (oldest first).
    DiskEvicted {
        /// FNV-1a hash of the removed artifacts' cache key stem.
        key: u64,
        /// Artifact bytes removed.
        bytes: u64,
    },
    /// A non-separation witness sketch was built and admitted for a
    /// resident entry (persisted alongside the sample as the `.pairs`
    /// artifacts).
    SketchBuilt {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
        /// The sketch's resident footprint, bytes.
        bytes: u64,
    },
    /// An explicit `unload` removed the entry (resident or persisted).
    Unloaded {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
    },
    /// An `unload --all` purge completed.
    Purged {
        /// Resident entries dropped.
        entries: u64,
        /// Persisted artifact files removed.
        files: u64,
    },
}

/// A point-in-time view of the registry's lifecycle counters, consumed
/// by the `metrics` command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// The lifecycle counters (hits, misses, disk hits, …), indexed by
    /// [`Lifecycle`].
    pub counters: CounterSet,
    /// Current resident total: every entry's [`Entry::stored_bytes`]
    /// plus its built non-separation sketch, if any.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub datasets: usize,
    /// Prior lives of this registry's cache dir: how many times a
    /// journal-armed registry has opened it before this one. `0` on a
    /// first boot or when the journal is disabled.
    pub restarts: u64,
    /// Journal records replayed at startup to recover this registry's
    /// counters and resident set.
    pub wal_replayed_events: u64,
}

/// The shared cache. All methods take `&self`; the registry is meant to
/// live in an `Arc` shared by every worker thread.
#[derive(Debug)]
pub struct Registry {
    shards: Vec<Shard>,
    config: RegistryConfig,
    /// Epoch for the per-slot `validated` stamps (monotonic, so stamps
    /// are immune to wall-clock jumps).
    born: Instant,
    clock: AtomicU64,
    resident_bytes: AtomicU64,
    /// The cumulative lifecycle counters, in an `Arc` because the
    /// journal's flusher thread checkpoints them independently of the
    /// registry's lifetime (see [`crate::wal`]).
    counters: Arc<LifecycleCounters>,
    /// The write-ahead journal, when persistence is configured and
    /// [`RegistryConfig::wal_max_bytes`] is non-zero.
    wal: Option<Arc<crate::wal::Wal>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_config(RegistryConfig::default())
    }
}

impl Drop for Registry {
    /// A dropped registry is a **clean** shutdown: the journal writes
    /// its final counter checkpoint and the clean-shutdown record,
    /// syncs, and joins its flusher thread. A killed process never
    /// runs this — the record's absence is exactly the crash evidence
    /// the next boot's recovery keys off.
    fn drop(&mut self) {
        if let Some(wal) = &self.wal {
            wal.close(&self.counters);
        }
    }
}

impl Registry {
    /// Creates an empty registry with the default configuration
    /// (16 shards, no budget, no persistence).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry with an explicit lifecycle
    /// configuration.
    ///
    /// When persistence is configured this is also **recovery**: the
    /// write-ahead journal under the cache dir is replayed first
    /// (see [`crate::wal`]) — cumulative counters resume, the
    /// journal's verdict on the previous life's shutdown decides how
    /// aggressively orphaned `*.tmp` files are swept (crash evidence
    /// ⇒ immediately; clean or unknown ⇒ only past the age gate), and
    /// the previous resident set is eagerly re-admitted from the warm
    /// tier in preserved LRU order, so replayed keys serve their first
    /// post-restart request without a build miss.
    pub fn with_config(config: RegistryConfig) -> Self {
        // The journal's replay verdict gates the tmp sweep, so open it
        // before touching anything else in the dir.
        let wal = match (&config.cache_dir, config.wal_max_bytes) {
            (Some(dir), max) if max > 0 => crate::wal::Wal::open(dir, max).ok().map(Arc::new),
            _ => None,
        };
        let crashed = wal
            .as_ref()
            .map(|w| w.recovery().had_journal && !w.recovery().clean_shutdown)
            .unwrap_or(false);
        if let Some(dir) = &config.cache_dir {
            sweep_tmp_files(dir, crashed);
        }
        let counters = Arc::new(LifecycleCounters::default());
        let resident = match &wal {
            Some(w) => {
                counters.seed(&w.recovery().counters);
                w.recovery().resident.clone()
            }
            None => Vec::new(),
        };
        let n = config.shards.max(1);
        let registry = Registry {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            config,
            born: Instant::now(),
            clock: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
            counters: Arc::clone(&counters),
            wal: wal.clone(),
        };
        // Arm before re-admitting so the restores of this life are
        // journaled like any other.
        if let Some(w) = &wal {
            w.arm(counters);
        }
        registry.readmit(&resident);
        registry
    }

    /// Eagerly re-admits the previous life's resident set from the
    /// warm tier, least-recently-touched first so the LRU order
    /// survives the restart. Restore-only: a key whose artifacts are
    /// gone, stale, or mismatched is skipped (the next request for it
    /// rebuilds normally) — recovery must never pay cold source scans
    /// for state it merely remembers. Each successful re-admission is
    /// a disk hit and is journaled like any other restore.
    fn readmit(&self, resident: &[u64]) {
        if resident.is_empty() {
            return;
        }
        let Some(dir) = self.config.cache_dir.clone() else {
            return;
        };
        for &stem in resident {
            let Some(meta) = read_meta(&dir.join(format!("{stem:016x}.meta.json"))) else {
                continue;
            };
            // The meta carries the key's full identity; trusting it is
            // gated on the stem round-tripping (a collision or foreign
            // artifact fails here).
            let key = CacheKey {
                path: meta.header.path.clone(),
                eps_bits: meta.header.eps_bits,
                seed: meta.header.seed,
            };
            if key.fnv64() != stem {
                continue;
            }
            let ds = DatasetRef {
                path: key.path.clone(),
                eps: f64::from_bits(key.eps_bits),
                seed: key.seed,
            };
            let Some(entry) = self.try_restore(&key, &ds) else {
                continue;
            };
            let entry = Arc::new(entry);
            let slot: Slot = Arc::new(SlotInner::default());
            self.touch(&slot);
            let _ = slot.cell.set(Ok(Arc::clone(&entry)));
            self.counters[Lifecycle::DiskHits].fetch_add(1, Ordering::Relaxed);
            self.resident_bytes
                .fetch_add(entry.stored_bytes as u64, Ordering::Relaxed);
            // try_restore proved the current source stamp matches the
            // persisted one, so the peek window opens immediately.
            self.stamp_validated(&slot);
            self.emit(RegistryEvent::Restored {
                key: stem,
                bytes: entry.stored_bytes as u64,
            });
            self.shard(&key)
                .write()
                .expect("shard lock")
                .insert(key.clone(), slot);
            self.enforce_budget(&key);
        }
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Delivers a lifecycle event to the write-ahead journal and the
    /// configured sink. No event is emitted on the served-hit fast
    /// path, so neither observer can cost the zero-alloc window
    /// anything.
    fn emit(&self, event: RegistryEvent) {
        if let Some(wal) = &self.wal {
            wal.record(event);
        }
        if let Some(sink) = self.config.event_sink {
            sink(event);
        }
    }

    fn touch(&self, slot: &Slot) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        slot.last_used.store(now, Ordering::Relaxed);
    }

    /// Milliseconds since the registry was created, offset by one so a
    /// zero `validated` stamp always means "never".
    fn stamp_now(&self) -> u64 {
        (self.born.elapsed().as_millis() as u64).saturating_add(1)
    }

    /// Records that `slot`'s entry just passed (or just finished) a
    /// source-freshness check, opening the [`Registry::peek`] window.
    fn stamp_validated(&self, slot: &Slot) {
        slot.validated.store(self.stamp_now(), Ordering::Relaxed);
    }

    /// Classifies `slot`'s entry against its source, applying the
    /// racy-stat discipline: a stamp captured safely after the file's
    /// mtime is proven fresh by a matching stat alone, so the content
    /// re-read runs only while the stamp is racy
    /// ([`SourceStamp::is_racy`]) and the slot has not yet settled.
    /// Once a fingerprint check passes after the race window closes,
    /// the slot records that the stat is trustworthy and warm hits
    /// stop reading the file entirely.
    fn classify_for_slot(&self, slot: &Slot, entry: &Entry, path: &str) -> Freshness {
        let verify = entry.source.is_some_and(|s| s.is_racy())
            && !slot.content_settled.load(Ordering::Relaxed);
        let (verdict, verified) = classify(entry.source, path, verify);
        if verified
            && verdict == Freshness::Fresh
            && entry
                .source
                .is_some_and(|s| unix_ms_now() >= s.race_horizon_ms())
        {
            slot.content_settled.store(true, Ordering::Relaxed);
        }
        verdict
    }

    /// The allocation-free read path: returns the resident entry for
    /// `key` iff it is built, healthy, and was freshness-checked within
    /// the last [`RegistryConfig::revalidate_ms`] milliseconds. Counted
    /// as a cache hit. Returns `None` — never builds, restores, or
    /// stats — in every other case; callers fall back to
    /// [`Registry::get_or_load`], whose stat re-opens the window.
    ///
    /// The configured [`RegistryConfig::revalidate_ms`] window; `0`
    /// means [`Registry::peek`] (and the request fast path built on
    /// it) is disabled.
    pub fn revalidate_window_ms(&self) -> u64 {
        self.config.revalidate_ms
    }

    /// With `revalidate_ms == 0` (the default) this always returns
    /// `None`: strict stat-on-every-hit invalidation.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<Entry>> {
        let window = self.config.revalidate_ms;
        if window == 0 {
            return None;
        }
        let slot = self
            .shard(key)
            .read()
            .expect("shard lock")
            .get(key)
            .map(Arc::clone)?;
        let stamp = slot.validated.load(Ordering::Relaxed);
        if stamp == 0 || self.stamp_now().saturating_sub(stamp) >= window {
            return None;
        }
        let entry = match slot.cell.get() {
            Some(Ok(entry)) => Arc::clone(entry),
            _ => return None,
        };
        self.touch(&slot);
        self.counters[Lifecycle::Hits].fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }

    /// Returns the cached entry for `ds`, building it on first use.
    ///
    /// The boolean is `true` iff the lookup was answered without paying
    /// a source scan *by this caller*: a resident entry, or a wait on a
    /// concurrent build. It is `false` for cold builds, disk restores,
    /// and stale rebuilds. Failed builds are evicted so a later request
    /// can retry (e.g. after the file appears).
    pub fn get_or_load(
        &self,
        ds: &DatasetRef,
        mode: LoadMode,
    ) -> (Result<Arc<Entry>, String>, bool) {
        let key = CacheKey::of(ds);
        // The disk tier holds samples only, so it can satisfy a
        // stream-mode lookup but not an explicit memory-mode load —
        // `load` with `"mode":"memory"` exists to pre-materialise, and
        // silently downgrading it to a sample would push the full scan
        // onto the first `stats`/`mask` instead.
        let allow_restore = matches!(mode, LoadMode::Stream);
        // Fast path: shared read lock, pointer clone.
        let resident = self
            .shard(&key)
            .read()
            .expect("shard lock")
            .get(&key)
            .map(Arc::clone);
        if let Some(slot) = resident {
            self.touch(&slot);
            match slot.cell.get() {
                Some(done) => {
                    if let Ok(entry) = done {
                        match self.classify_for_slot(&slot, entry, &key.path) {
                            Freshness::Fresh => {
                                // The stamp just passed: re-open the
                                // peek window.
                                self.stamp_validated(&slot);
                            }
                            Freshness::Appended { new } if entry.append_capable() => {
                                // The entry is reused (suffix-only
                                // scan): hit semantics — counted
                                // inside refresh_appended, and only
                                // when the absorb does not fall back
                                // to a full scan (a miss).
                                let (result, _) =
                                    self.refresh_appended(&key, ds, &slot, entry, new, true);
                                return (result, true);
                            }
                            _ => return self.rebuild(&key, ds, mode, &slot, allow_restore),
                        }
                    }
                    self.counters[Lifecycle::Hits].fetch_add(1, Ordering::Relaxed);
                    (done.clone(), true)
                }
                None => {
                    // A build is in flight; wait on it. The scan is
                    // shared, so this still counts as a hit.
                    self.counters[Lifecycle::Hits].fetch_add(1, Ordering::Relaxed);
                    let result = self.run_build(&key, ds, mode, &slot, allow_restore);
                    (result, true)
                }
            }
        } else {
            // Miss: insert a fresh slot (or adopt one a racer inserted
            // between our read and write locks) and build into it.
            let (slot, we_inserted) = {
                let mut map = self.shard(&key).write().expect("shard lock");
                match map.get(&key) {
                    Some(existing) => (Arc::clone(existing), false),
                    None => {
                        let fresh: Slot = Arc::new(SlotInner::default());
                        map.insert(key.clone(), Arc::clone(&fresh));
                        (fresh, true)
                    }
                }
            };
            self.touch(&slot);
            if !we_inserted {
                // Same as the in-flight case above: someone else owns
                // the build; waiting on it shares the scan.
                self.counters[Lifecycle::Hits].fetch_add(1, Ordering::Relaxed);
                return (self.run_build(&key, ds, mode, &slot, allow_restore), true);
            }
            (self.run_build(&key, ds, mode, &slot, allow_restore), false)
        }
    }

    /// Like [`Registry::get_or_load`] with [`LoadMode::Memory`], but
    /// additionally upgrades a sample-only entry (stream-mode or
    /// disk-restored) to a fully materialised one — `stats` and `mask`
    /// need the whole dataset. Concurrent upgraders collapse onto one
    /// re-scan (the same way cold builds do). Only the upgrader that
    /// swaps the slot is reclassified from hit to miss.
    pub fn get_or_load_materialised(&self, ds: &DatasetRef) -> (Result<Arc<Entry>, String>, bool) {
        let (mut result, mut hit) = self.get_or_load(ds, LoadMode::Memory);
        // Loop: adopting a racer's pending build can hand back a
        // *stream-mode* result (sample only) — e.g. a concurrent stale
        // rebuild in flight. Each adoption waits on a finished build,
        // so re-checking until the entry is materialised (or until we
        // swap and scan memory-mode ourselves, which always
        // materialises) converges after the race drains.
        loop {
            match result {
                Ok(entry) if entry.dataset.is_none() => {
                    let key = CacheKey::of(ds);
                    let (slot, we_swapped) = self.swap_slot_if(&key, |cur| {
                        // Swap only if the resident slot still holds
                        // the unusable sample-only entry (or a stale
                        // error); a pending or finished upgrade slot
                        // is reused as-is.
                        cur.cell
                            .get()
                            .is_some_and(|r| !r.as_ref().is_ok_and(|e| e.dataset.is_some()))
                    });
                    if we_swapped {
                        self.counters[Lifecycle::Upgrades].fetch_add(1, Ordering::Relaxed);
                    }
                    if we_swapped && hit {
                        // Reclassify: the cached entry was unusable
                        // and we are the one paying the re-scan.
                        self.counters[Lifecycle::Hits].fetch_sub(1, Ordering::Relaxed);
                    }
                    // An upgrade must materialise, which the disk tier
                    // cannot do — force a source scan.
                    result = self.run_build(&key, ds, LoadMode::Memory, &slot, false);
                    hit = hit && !we_swapped;
                    if we_swapped {
                        // Our own memory-mode build: materialised or a
                        // real error either way.
                        return (result, hit);
                    }
                }
                other => return (other, hit),
            }
        }
    }

    /// Returns the entry's Theorem 2 [`NonSeparationSketch`], building
    /// it on first use (with the protocol-fixed
    /// [`crate::proto::sketch_params`] and the entry's
    /// seed).
    ///
    /// Concurrent callers collapse onto one build via the entry's
    /// `OnceLock`, exactly like cold sample builds. The build source
    /// is, in order of preference: the persisted pair sample from the
    /// disk tier (`cache_disk_hits`), the resident materialised
    /// dataset (no I/O at all), or a fresh one-pass scan of the source
    /// CSV (`cache_misses`). All three produce the *same* sketch —
    /// the streaming builder is the single definition, and the
    /// materialised dataset preserves source row order — so answers
    /// never depend on how the entry happens to be resident.
    ///
    /// A failed build is cached on the entry (the slot is written
    /// once); the error clears when the entry itself is rebuilt
    /// (stale source) or dropped (`unload`).
    pub fn sketch_for(
        &self,
        ds: &DatasetRef,
        entry: &Arc<Entry>,
    ) -> Result<Arc<NonSeparationSketch>, String> {
        let key = CacheKey::of(ds);
        let result = entry
            .sketch_cell
            .get_or_init(|| {
                let params = sketch_params();
                if entry.dataset.is_none() {
                    if let Some(sk) = self.try_restore_sketch(&key, entry, params) {
                        self.counters[Lifecycle::DiskHits].fetch_add(1, Ordering::Relaxed);
                        return Ok(self.admit_sketch(entry, sk, &key, false, params));
                    }
                }
                let built = match &entry.dataset {
                    Some(dataset) => {
                        let mut src = DatasetTupleSource::new(dataset);
                        sketch_from_stream(&mut src, params, ds.seed)
                            .map_err(|e: DatasetError| e.to_string())?
                    }
                    None => {
                        self.counters[Lifecycle::Misses].fetch_add(1, Ordering::Relaxed);
                        let mut src = CsvTupleSource::open(&key.path, &CsvOptions::default())
                            .map_err(|e| format!("reading {}: {e}", key.path))?;
                        // Driven through a PairIngest (rather than
                        // `sketch_from_stream`, which it re-implements
                        // verbatim) so the pair-reservoir state can be
                        // kept on the entry for append absorption.
                        let slots = params.pair_sample_size(src.n_attrs()).max(1);
                        let mut ingest = PairIngest::new(src.attr_names(), slots, ds.seed);
                        loop {
                            match src.next_tuple() {
                                Ok(Some(tuple)) => ingest.push(&tuple),
                                Ok(None) => break,
                                Err(e) => return Err(format!("streaming {}: {e}", key.path)),
                            }
                        }
                        let sk = ingest
                            .to_sketch(params)
                            .map_err(|e| format!("streaming {}: {e}", key.path))?;
                        // The sample and the sketch must describe the
                        // same data: if the source changed between the
                        // entry build and this scan, fail now — the
                        // stamp-on-hit check will rebuild the entry
                        // (and with it this cell) on the next lookup.
                        if SourceStamp::capture(&key.path) != entry.source {
                            return Err(format!(
                                "{} changed while the sketch was building; retry",
                                key.path
                            ));
                        }
                        let _ = entry.pair_ingest.set(ingest);
                        sk
                    }
                };
                Ok(self.admit_sketch(entry, built, &key, true, params))
            })
            .clone();
        self.enforce_budget(&key);
        // If the entry lost its slot while the sketch was building
        // (eviction, unload, stale swap), reclaim the bytes the build
        // charged; the swap-to-zero protocol guarantees exactly one of
        // this branch and `forget_bytes` wins.
        let still_resident = self
            .shard(&key)
            .read()
            .expect("shard lock")
            .get(&key)
            .is_some_and(|slot| {
                slot.cell
                    .get()
                    .is_some_and(|r| r.as_ref().is_ok_and(|e| Arc::ptr_eq(e, entry)))
            });
        if !still_resident {
            let orphaned = entry.sketch_bytes.swap(0, Ordering::SeqCst);
            if orphaned > 0 {
                self.resident_bytes
                    .fetch_sub(orphaned as u64, Ordering::SeqCst);
            }
        }
        result
    }

    /// Books a freshly built (or restored) sketch into the byte
    /// accounting, persists it if configured, and wraps it for the
    /// cell. The resident total is bumped *before* the per-entry byte
    /// count becomes visible, so a concurrent `forget_bytes` can never
    /// subtract bytes that were not yet added. The charge includes the
    /// paused pair-sample tuples retained alongside the sketch (set on
    /// `entry.pair_ingest` before this call), so LRU eviction sees the
    /// full cost of keeping the sketch append-resumable.
    fn admit_sketch(
        &self,
        entry: &Entry,
        sketch: NonSeparationSketch,
        key: &CacheKey,
        persist: bool,
        params: SketchParams,
    ) -> Arc<NonSeparationSketch> {
        let sketch = Arc::new(sketch);
        let bytes = sketch.stored_bytes()
            + entry
                .pair_ingest
                .get()
                .map_or(0, PairIngest::retained_bytes);
        self.resident_bytes
            .fetch_add(bytes as u64, Ordering::SeqCst);
        entry.sketch_bytes.store(bytes, Ordering::SeqCst);
        self.emit(RegistryEvent::SketchBuilt {
            key: key.fnv64(),
            bytes: bytes as u64,
        });
        if persist {
            if let Some(dir) = &self.config.cache_dir {
                // Best-effort, like sample persistence.
                let _ = persist_sketch(dir, key, entry, &sketch, params);
                self.enforce_disk_budget(key);
            }
        }
        sketch
    }

    /// Drops the resident entry and its persisted files, if any.
    /// Returns `true` iff something was removed. An entry mid-build is
    /// left alone (it will be admitted normally; unload it again once
    /// it is resident).
    pub fn unload(&self, ds: &DatasetRef) -> bool {
        let key = CacheKey::of(ds);
        let removed_resident = {
            let mut map = self.shard(&key).write().expect("shard lock");
            match map.get(&key) {
                Some(slot) if slot.cell.get().is_some() => {
                    let slot = map.remove(&key).expect("slot present");
                    self.forget_bytes(&slot);
                    true
                }
                _ => false,
            }
        };
        let mut removed_disk = false;
        if let Some(dir) = &self.config.cache_dir {
            for path in [
                meta_path(dir, &key),
                sample_path(dir, &key),
                pairs_meta_path(dir, &key),
                pairs_path(dir, &key),
            ] {
                removed_disk |= std::fs::remove_file(path).is_ok();
            }
        }
        if removed_resident || removed_disk {
            self.emit(RegistryEvent::Unloaded { key: key.fnv64() });
        }
        removed_resident || removed_disk
    }

    /// Purges the whole cache (`unload --all`): drops every *completed*
    /// resident entry — a slot mid-build is left alone, matching
    /// [`Registry::unload`] — and removes every persisted cache
    /// artifact in the cache dir, whether or not a resident entry
    /// references it (this is the GC path for keys that will never be
    /// requested again). Returns dropped entries + removed files.
    pub fn unload_all(&self) -> u64 {
        let mut entries = 0u64;
        for shard in &self.shards {
            let mut map = shard.write().expect("shard lock");
            let completed: Vec<CacheKey> = map
                .iter()
                .filter(|(_, slot)| slot.cell.get().is_some())
                .map(|(key, _)| key.clone())
                .collect();
            for key in completed {
                let slot = map.remove(&key).expect("slot present");
                self.forget_bytes(&slot);
                entries += 1;
            }
        }
        let mut files = 0u64;
        if let Some(dir) = &self.config.cache_dir {
            if let Ok(listing) = std::fs::read_dir(dir) {
                for dirent in listing.flatten() {
                    let name = dirent.file_name();
                    let is_artifact = name.to_str().is_some_and(is_cache_artifact);
                    if is_artifact && std::fs::remove_file(dirent.path()).is_ok() {
                        files += 1;
                    }
                }
            }
        }
        self.emit(RegistryEvent::Purged { entries, files });
        entries + files
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock").len())
            .sum()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lifecycle counter `c` so far.
    pub fn counter(&self, c: Lifecycle) -> u64 {
        self.counters[c].load(Ordering::Relaxed)
    }

    /// Lookups answered by restoring a persisted sample so far.
    pub fn disk_hits(&self) -> u64 {
        self.counter(Lifecycle::DiskHits)
    }

    /// Grown sources absorbed incrementally so far.
    pub fn append_updates(&self) -> u64 {
        self.counter(Lifecycle::AppendUpdates)
    }

    /// All lifecycle counters at once, for the `metrics` command.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self.counters.values(),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            datasets: self.len(),
            restarts: self.wal.as_ref().map_or(0, |w| w.recovery().restarts),
            wal_replayed_events: self
                .wal
                .as_ref()
                .map_or(0, |w| w.recovery().replayed_events),
        }
    }

    /// Test hook: tears the journal down the way a kill -9 would — no
    /// shutdown record, no final checkpoint — so unit tests can
    /// simulate a crash without killing the test process.
    #[cfg(test)]
    fn crash_for_test(&self) {
        if let Some(wal) = &self.wal {
            wal.abort_for_test();
        }
    }

    /// One background-revalidation pass: walks every resident completed
    /// entry, re-stamps its source, and acts on the verdict *ahead of
    /// traffic* — fresh entries get their [`Registry::peek`] window
    /// re-opened (so the zero-allocation fast path keeps serving
    /// between sweeps without ever falling back to a stat), appended
    /// ones are absorbed, stale ones rebuilt. Returns the number of
    /// entries this pass actually refreshed (absorbed or rebuilt).
    ///
    /// Safe to race with foreground lookups: refresh goes through the
    /// same swap-then-build-once discipline as the request path, so a
    /// sweeper and a foreground caller landing on the same changed
    /// entry share one scan and count one miss.
    pub fn sweep(&self) -> u64 {
        let mut refreshed = 0u64;
        for shard in &self.shards {
            let slots: Vec<(CacheKey, Slot)> = {
                let map = shard.read().expect("shard lock");
                map.iter()
                    .map(|(key, slot)| (key.clone(), Arc::clone(slot)))
                    .collect()
            };
            for (key, slot) in slots {
                let Some(Ok(entry)) = slot.cell.get() else {
                    continue; // mid-build or failed: the request path owns those
                };
                let entry = Arc::clone(entry);
                let ds = DatasetRef {
                    path: key.path.clone(),
                    eps: f64::from_bits(key.eps_bits),
                    seed: key.seed,
                };
                match self.classify_for_slot(&slot, &entry, &key.path) {
                    Freshness::Fresh => self.stamp_validated(&slot),
                    Freshness::Appended { new } if entry.append_capable() => {
                        // The sweeper is not a lookup: no hit counted.
                        let (result, swapped) =
                            self.refresh_appended(&key, &ds, &slot, &entry, new, false);
                        if result.is_ok() && swapped {
                            refreshed += 1;
                        }
                    }
                    _ => {
                        let mode = if entry.dataset.is_some() {
                            LoadMode::Memory
                        } else {
                            LoadMode::Stream
                        };
                        let allow_restore = matches!(mode, LoadMode::Stream);
                        let (result, adopted) =
                            self.refresh_stale(&key, &ds, mode, &slot, allow_restore, false);
                        if result.is_ok() && !adopted {
                            refreshed += 1;
                        }
                    }
                }
            }
        }
        if refreshed > 0 {
            self.counters[Lifecycle::SweepRefreshes].fetch_add(refreshed, Ordering::Relaxed);
        }
        refreshed
    }

    // ------------------------------------------------------ internals

    /// True iff the entry's recorded stamp differs from the prefetched
    /// one — the lock-safe staleness predicate (no filesystem I/O, so
    /// it may run under a shard write lock). A source that cannot be
    /// stamped now (deleted, permissions) is *not* stale: the sample
    /// is all we have, and the paper's point is that it keeps
    /// answering queries.
    fn stamp_mismatch(entry: &Entry, now: Option<SourceStamp>) -> bool {
        matches!((entry.source, now), (Some(then), Some(n)) if then != n)
    }

    /// Replaces the slot for `key` with a fresh one and builds into it
    /// (the stale path, from the request path). See
    /// [`Registry::refresh_stale`].
    fn rebuild(
        &self,
        key: &CacheKey,
        ds: &DatasetRef,
        mode: LoadMode,
        observed: &Slot,
        allow_restore: bool,
    ) -> (Result<Arc<Entry>, String>, bool) {
        self.refresh_stale(key, ds, mode, observed, allow_restore, true)
    }

    /// The stale path: swaps in a fresh slot (unless a racer already
    /// refreshed the entry) and builds into it. `allow_restore` is
    /// forwarded so a stale rebuild may still use the disk tier — the
    /// restore itself verifies the source stamp, so stale persisted
    /// files never match. `count_adopt_hit` is true on the request
    /// path (adopting a racer's rebuild shares its scan — hit
    /// semantics) and false from the sweeper, which is not a lookup.
    /// The returned boolean follows the [`Registry::get_or_load`]
    /// contract: `true` iff this caller adopted a racer's rebuild
    /// instead of paying its own.
    fn refresh_stale(
        &self,
        key: &CacheKey,
        ds: &DatasetRef,
        mode: LoadMode,
        observed: &Slot,
        allow_restore: bool,
        count_adopt_hit: bool,
    ) -> (Result<Arc<Entry>, String>, bool) {
        // Stamp once, out here: the swap predicate runs under the shard
        // write lock, and filesystem I/O there would stall every
        // lookup on the shard behind a slow disk.
        let now = SourceStamp::capture(&key.path);
        let (slot, we_swapped) = self.swap_slot_if(key, |cur| {
            // Swap the slot we saw go stale. If a racer already swapped
            // it, swap again only if *their* result is stale too —
            // adopting a fresh rebuild (or a build in flight) as-is.
            Arc::ptr_eq(cur, observed)
                || cur.cell.get().is_some_and(|r| match r {
                    Ok(entry) => Self::stamp_mismatch(entry, now),
                    Err(_) => true,
                })
        });
        if we_swapped {
            // Exactly one observer per rebuild reaches here, so the
            // counter matches actual rebuilds even under racing hits.
            self.counters[Lifecycle::StaleRebuilds].fetch_add(1, Ordering::Relaxed);
            self.emit(RegistryEvent::StaleRebuild { key: key.fnv64() });
        } else if count_adopt_hit {
            self.counters[Lifecycle::Hits].fetch_add(1, Ordering::Relaxed);
        }
        (
            self.run_build(key, ds, mode, &slot, allow_restore),
            !we_swapped,
        )
    }

    /// The append path: swaps in a fresh slot (unless a racer already
    /// refreshed the entry) and fills it by *absorbing* the appended
    /// suffix into `old`'s resumable ingest state — bit-identical to a
    /// cold rebuild over the whole file, at suffix cost. Falls back to
    /// a full scan (a miss) if the absorb fails for any reason.
    /// `count_hit` is true on the request path, where the lookup is
    /// counted as a hit — unless *this* caller's absorb fell back to
    /// the full scan, which is already counted as a miss (so `hits +
    /// misses` always equals lookups); the sweeper passes false, it is
    /// not a lookup. The returned boolean is `true` iff this caller
    /// performed the swap.
    fn refresh_appended(
        &self,
        key: &CacheKey,
        ds: &DatasetRef,
        observed: &Slot,
        old: &Arc<Entry>,
        new: SourceStamp,
        count_hit: bool,
    ) -> (Result<Arc<Entry>, String>, bool) {
        let (slot, we_swapped) = self.swap_slot_if(key, |cur| {
            // Swap the slot we saw as appended. If a racer already
            // swapped it, swap again only if their result still holds
            // the old stamp (nobody actually refreshed) — otherwise
            // adopt their fresh slot (or wait on their build in
            // flight) as-is.
            Arc::ptr_eq(cur, observed)
                || cur.cell.get().is_some_and(|r| match r {
                    Ok(entry) => entry.source == old.source,
                    Err(_) => true,
                })
        });
        let fell_back = std::cell::Cell::new(false);
        let result = slot
            .cell
            .get_or_init(|| match self.absorb_append(key, ds, old, new) {
                Ok(entry) => {
                    self.counters[Lifecycle::AppendUpdates].fetch_add(1, Ordering::Relaxed);
                    self.resident_bytes
                        .fetch_add(entry.stored_bytes as u64, Ordering::Relaxed);
                    self.emit(RegistryEvent::AppendUpdate {
                        key: key.fnv64(),
                        bytes: new.len - old.source.map_or(0, |s| s.len),
                    });
                    if let Some(dir) = &self.config.cache_dir {
                        // Re-persist so a restart resumes from the
                        // absorbed state, not the pre-append sample.
                        let _ = persist_entry(dir, key, &entry);
                        self.enforce_disk_budget(key);
                    }
                    Ok(entry)
                }
                Err(_) => {
                    // Absorb failed (unreadable suffix, inconsistent
                    // state): pay the full scan instead. That scan is
                    // the miss; the caller must not also count a hit.
                    fell_back.set(true);
                    self.counters[Lifecycle::Misses].fetch_add(1, Ordering::Relaxed);
                    self.scan_build(key, ds, LoadMode::Stream)
                }
            })
            .clone();
        // A caller that adopted a racer's slot (closure not run) shares
        // that work — hit semantics, like waiting on an in-flight
        // build. Only the caller whose own absorb fell back to a scan
        // skips the hit: its lookup is the miss counted above.
        if count_hit && !fell_back.get() {
            self.counters[Lifecycle::Hits].fetch_add(1, Ordering::Relaxed);
        }
        self.finish_build(key, &slot, &result);
        (result, we_swapped)
    }

    /// Feeds the appended suffix (`old.source.len ..= new.len` bytes of
    /// the source) through the entry's paused reservoir, column
    /// sketches, and — if the sketch was built in-process — pair
    /// reservoirs, producing a new entry equal to a cold rebuild over
    /// the grown file.
    fn absorb_append(
        &self,
        key: &CacheKey,
        ds: &DatasetRef,
        old: &Arc<Entry>,
        new: SourceStamp,
    ) -> Result<Arc<Entry>, String> {
        let old_stamp = old.source.ok_or("entry has no source stamp")?;
        let mut ingest = old
            .ingest
            .clone()
            .ok_or("entry has no resumable ingest state")?;
        let mut cols = old.cols.clone();
        let mut pair = old.pair_ingest.get().cloned();
        let mut src = CsvTupleSource::open_suffix(
            &key.path,
            old_stamp.len,
            new.len - old_stamp.len,
            ingest.names().to_vec(),
            &CsvOptions::default(),
        )
        .map_err(|e| format!("reading {}: {e}", key.path))?;
        loop {
            let tuple = match src.next_tuple() {
                Ok(Some(tuple)) => tuple,
                Ok(None) => break,
                Err(e) => return Err(format!("streaming {}: {e}", key.path)),
            };
            if tuple.len() != old.attrs {
                return Err(format!(
                    "appended row width {} != schema width {}",
                    tuple.len(),
                    old.attrs
                ));
            }
            for (sk, v) in cols.iter_mut().zip(&tuple) {
                sk.observe(v);
            }
            if let Some(p) = &mut pair {
                p.push(&tuple);
            }
            ingest.push(tuple);
        }
        let params = FilterParams::new(ds.eps);
        let filter = ingest
            .to_filter(params)
            .map_err(|e| format!("rebuilding sample for {}: {e}", key.path))?;
        let rows = ingest.rows();
        let entry = Entry::new(filter, None, cols, rows, old.attrs, Some(new), Some(ingest));
        let entry = Arc::new(entry);
        if let Some(pair) = pair {
            // The old entry had an in-process sketch: advance it over
            // the suffix too, so `sketch` stays warm across appends.
            let sketch_params = sketch_params();
            if let Ok(sk) = pair.to_sketch(sketch_params) {
                // Pair state goes on the entry *before* admission so
                // the sketch byte charge covers its retained tuples.
                let _ = entry.pair_ingest.set(pair);
                let sk = self.admit_sketch(&entry, sk, key, true, sketch_params);
                let _ = entry.sketch_cell.set(Ok(sk));
            }
        }
        Ok(entry)
    }

    /// Swaps in a fresh slot for `key` when `should_swap` says the
    /// current one is unusable; otherwise adopts the current slot.
    /// Subtracts the replaced entry's bytes. Returns the slot to build
    /// into (or wait on) and whether this caller performed the swap.
    fn swap_slot_if(&self, key: &CacheKey, should_swap: impl Fn(&Slot) -> bool) -> (Slot, bool) {
        let mut map = self.shard(key).write().expect("shard lock");
        let needs_swap = map.get(key).is_none_or(should_swap);
        if needs_swap {
            let fresh: Slot = Arc::new(SlotInner::default());
            self.touch(&fresh);
            if let Some(old) = map.insert(key.clone(), Arc::clone(&fresh)) {
                self.forget_bytes(&old);
            }
            (fresh, true)
        } else {
            let cur = Arc::clone(map.get(key).expect("slot present"));
            drop(map);
            self.touch(&cur);
            (cur, false)
        }
    }

    /// Subtracts a removed slot's resident bytes from the total —
    /// including the entry's built sketch, whose byte count is swapped
    /// to zero so a concurrent [`Registry::sketch_for`] reclaim can
    /// never subtract it a second time.
    fn forget_bytes(&self, slot: &Slot) {
        if let Some(Ok(entry)) = slot.cell.get() {
            let sketch = entry.sketch_bytes.swap(0, Ordering::SeqCst);
            self.resident_bytes
                .fetch_sub((entry.stored_bytes + sketch) as u64, Ordering::SeqCst);
        }
    }

    /// Runs (or waits on) the slot's one-time build, then enforces the
    /// LRU budget. Exactly one caller executes the closure; the rest
    /// block inside `get_or_init` until the winner finishes. The
    /// closure classifies the lookup: restore → disk hit, scan → miss.
    fn run_build(
        &self,
        key: &CacheKey,
        ds: &DatasetRef,
        mode: LoadMode,
        slot: &Slot,
        allow_restore: bool,
    ) -> Result<Arc<Entry>, String> {
        let result = slot
            .cell
            .get_or_init(|| {
                if allow_restore {
                    if let Some(entry) = self.try_restore(key, ds) {
                        self.counters[Lifecycle::DiskHits].fetch_add(1, Ordering::Relaxed);
                        self.resident_bytes
                            .fetch_add(entry.stored_bytes as u64, Ordering::Relaxed);
                        self.emit(RegistryEvent::Restored {
                            key: key.fnv64(),
                            bytes: entry.stored_bytes as u64,
                        });
                        return Ok(Arc::new(entry));
                    }
                }
                self.counters[Lifecycle::Misses].fetch_add(1, Ordering::Relaxed);
                self.scan_build(key, ds, mode)
            })
            .clone();
        self.finish_build(key, slot, &result);
        result
    }

    /// A full source scan (a miss): builds the entry, books its bytes,
    /// persists it, and enforces the warm-tier budget. Runs only from
    /// inside a slot's one-time build closure.
    fn scan_build(
        &self,
        key: &CacheKey,
        ds: &DatasetRef,
        mode: LoadMode,
    ) -> Result<Arc<Entry>, String> {
        build_entry(ds, &key.path, mode).map(|entry| {
            self.resident_bytes
                .fetch_add(entry.stored_bytes as u64, Ordering::Relaxed);
            self.emit(RegistryEvent::Built {
                key: key.fnv64(),
                bytes: entry.stored_bytes as u64,
            });
            if let Some(dir) = &self.config.cache_dir {
                // Best-effort: a failed persist only costs the
                // next restart a re-scan.
                let _ = persist_entry(dir, key, &entry);
                self.enforce_disk_budget(key);
            }
            Arc::new(entry)
        })
    }

    /// The common tail of every slot fill: evict a failed slot so a
    /// later request retries, or stamp a successful one (the build
    /// captured a fresh source stamp, so the peek window opens from
    /// here) and enforce the LRU budget.
    fn finish_build(&self, key: &CacheKey, slot: &Slot, result: &Result<Arc<Entry>, String>) {
        if result.is_err() {
            let mut map = self.shard(key).write().expect("shard lock");
            if map.get(key).is_some_and(|cur| Arc::ptr_eq(cur, slot)) {
                map.remove(key);
            }
        } else {
            self.stamp_validated(slot);
            self.enforce_budget(key);
        }
    }

    /// Evicts least-recently-used completed entries until the resident
    /// total fits the budget. `protect` (the entry being returned to
    /// the caller) is never evicted. Persisted files are kept: eviction
    /// demotes an entry to the disk tier, it does not forget it.
    fn enforce_budget(&self, protect: &CacheKey) {
        let Some(budget) = self.config.cache_bytes else {
            return;
        };
        if self.resident_bytes.load(Ordering::Relaxed) <= budget {
            return;
        }
        // Snapshot (key, stamp, bytes) of every evictable entry, oldest
        // first. The stamp race with concurrent touches makes this an
        // approximate LRU, which is all a cache needs.
        let mut candidates: Vec<(CacheKey, u64)> = Vec::new();
        for shard in &self.shards {
            let map = shard.read().expect("shard lock");
            for (key, slot) in map.iter() {
                if key != protect && matches!(slot.cell.get(), Some(Ok(_))) {
                    candidates.push((key.clone(), slot.last_used.load(Ordering::Relaxed)));
                }
            }
        }
        candidates.sort_by_key(|&(_, stamp)| stamp);
        for (key, _) in candidates {
            if self.resident_bytes.load(Ordering::Relaxed) <= budget {
                break;
            }
            let mut map = self.shard(&key).write().expect("shard lock");
            if let Some(slot) = map.get(&key) {
                if matches!(slot.cell.get(), Some(Ok(_))) {
                    let slot = map.remove(&key).expect("slot present");
                    // Capture the footprint before `forget_bytes` swaps
                    // the sketch bytes to zero.
                    let bytes = match slot.cell.get() {
                        Some(Ok(entry)) => {
                            (entry.stored_bytes as u64)
                                + entry.sketch_bytes.load(Ordering::SeqCst) as u64
                        }
                        _ => 0,
                    };
                    self.forget_bytes(&slot);
                    self.counters[Lifecycle::Evictions].fetch_add(1, Ordering::Relaxed);
                    self.emit(RegistryEvent::Evicted {
                        key: key.fnv64(),
                        bytes,
                    });
                }
            }
        }
    }

    /// Garbage-collects the persistent warm tier down to
    /// [`RegistryConfig::cache_disk_bytes`]: artifacts are grouped by
    /// their 16-hex key stem (a key's sample, meta, and pairs files
    /// live and die together — removing a sample while keeping its
    /// meta would poison restores) and whole groups are removed
    /// least-recently-*used* first, `protect` (the key just persisted)
    /// last of all. Recency comes from the journal's per-key
    /// last-access order (restores touch it; they never touch the
    /// files' mtime, which is why mtime alone once evicted a hot
    /// restored key ahead of a cold never-requested one). Keys the
    /// journal has never seen sort before all known ones — they are
    /// exactly the never-requested artifacts the budget should drop
    /// first; mtime breaks ties and carries the whole ordering when
    /// the journal is disabled. Runs after every persist; best-effort
    /// like persistence itself.
    fn enforce_disk_budget(&self, protect: &CacheKey) {
        let (Some(dir), Some(budget)) = (&self.config.cache_dir, self.config.cache_disk_bytes)
        else {
            return;
        };
        let Ok(listing) = std::fs::read_dir(dir) else {
            return;
        };
        // stem → (newest artifact mtime, total bytes, paths)
        let mut groups: HashMap<String, (std::time::SystemTime, u64, Vec<PathBuf>)> =
            HashMap::new();
        let mut total: u64 = 0;
        for dirent in listing.flatten() {
            let name = dirent.file_name();
            let Some(stem) = name.to_str().and_then(artifact_stem) else {
                continue;
            };
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            let mtime = meta.modified().unwrap_or(UNIX_EPOCH);
            let bytes = meta.len();
            total += bytes;
            let group = groups
                .entry(stem.to_string())
                .or_insert((UNIX_EPOCH, 0, Vec::new()));
            group.0 = group.0.max(mtime);
            group.1 += bytes;
            group.2.push(dirent.path());
        }
        if total <= budget {
            return;
        }
        let protect_stem = format!("{:016x}", protect.fnv64());
        let access = self
            .wal
            .as_ref()
            .map(|w| w.last_access())
            .unwrap_or_default();
        let mut victims: Vec<(u64, std::time::SystemTime, String, u64, Vec<PathBuf>)> = groups
            .into_iter()
            .filter(|(stem, _)| *stem != protect_stem)
            .map(|(stem, (mtime, bytes, paths))| {
                let seq = u64::from_str_radix(&stem, 16)
                    .ok()
                    .and_then(|k| access.get(&k).copied())
                    .unwrap_or(0);
                (seq, mtime, stem, bytes, paths)
            })
            .collect();
        victims.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
        for (_, _, stem, bytes, paths) in victims {
            if total <= budget {
                break;
            }
            for path in paths {
                let _ = std::fs::remove_file(path);
            }
            total = total.saturating_sub(bytes);
            self.emit(RegistryEvent::DiskEvicted {
                key: u64::from_str_radix(&stem, 16).unwrap_or(0),
                bytes,
            });
        }
    }

    /// Attempts to restore `key` from the persistence directory.
    /// Succeeds only if the metadata matches the key exactly, the
    /// source file's current stamp matches the recorded one, and the
    /// sample file holds exactly the shape the metadata promises (a
    /// truncated or externally modified sample must re-scan, not
    /// silently change filter answers). Pre-version-2 metas (no
    /// content fingerprint, no column sketches, no checkpoint) are
    /// rejected wholesale by the version gate — the entry re-scans
    /// rather than silently materialising on the next `stats`.
    fn try_restore(&self, key: &CacheKey, ds: &DatasetRef) -> Option<Entry> {
        let dir = self.config.cache_dir.as_ref()?;
        let meta = read_meta(&meta_path(dir, key))?;
        if !meta.header.matches_key(key) {
            return None; // file-stem hash collision
        }
        let now = SourceStamp::capture(&key.path)?;
        if now != meta.header.source {
            return None; // the source changed since the sample was taken
        }
        let sample = read_csv_path(sample_path(dir, key), &CsvOptions::default()).ok()?;
        if sample.n_rows() != meta.sample_rows || sample.n_attrs() != meta.header.attrs {
            return None;
        }
        if meta.cols.len() != meta.header.attrs {
            return None;
        }
        // Resume the paused ingest, if the meta carries a checkpoint:
        // the persisted sample rows *are* the reservoir items in slot
        // order (the roundtrip guard at persist time proved they read
        // back value-exact). A checkpoint that does not cohere with
        // the header drops the resume — the entry still restores, it
        // just rebuilds fully on the next append.
        let ingest = meta
            .ingest
            .filter(|ck| ck.skip.seen == meta.header.rows)
            .and_then(|ck| {
                let names: Vec<String> = sample.schema().names().map(str::to_string).collect();
                let items: Vec<Vec<Value>> = (0..sample.n_rows())
                    .map(|row| {
                        (0..sample.n_attrs())
                            .map(|a| sample.value(row, AttrId::new(a)).clone())
                            .collect()
                    })
                    .collect();
                TupleIngest::resume(names, ck, items)
            });
        let params = FilterParams::new(ds.eps);
        let filter = TupleSampleFilter::from_sample(sample, params);
        let cols = meta
            .cols
            .into_iter()
            .map(|minima| DistinctSketch::from_minima(COLUMN_SKETCH_K, minima))
            .collect();
        Some(Entry::new(
            filter,
            None,
            cols,
            meta.header.rows,
            meta.header.attrs,
            Some(now),
            ingest,
        ))
    }

    /// Attempts to restore the entry's non-separation sketch from the
    /// persistence directory. Succeeds only if the sidecar metadata
    /// matches the key, the protocol's current sketch parameters, the
    /// entry's shape, and the source stat the *entry* was built
    /// against — so a sketch from an older file version can never be
    /// paired with a newer sample.
    fn try_restore_sketch(
        &self,
        key: &CacheKey,
        entry: &Entry,
        params: SketchParams,
    ) -> Option<NonSeparationSketch> {
        let dir = self.config.cache_dir.as_ref()?;
        let meta = read_pairs_meta(&pairs_meta_path(dir, key))?;
        if !meta.header.matches_key(key) {
            return None; // file-stem hash collision
        }
        if meta.alpha_bits != params.alpha.to_bits()
            || meta.rel_eps_bits != params.eps.to_bits()
            || meta.k != params.k
            || meta.multiplier_bits != params.multiplier.to_bits()
        {
            return None; // the server's sketch contract changed
        }
        if meta.header.rows != entry.rows
            || meta.header.attrs != entry.attrs
            || entry.source != Some(meta.header.source)
        {
            return None; // sketch and sample describe different data
        }
        let pairs = read_csv_path(pairs_path(dir, key), &CsvOptions::default()).ok()?;
        if pairs.n_rows() != meta.pair_rows
            || pairs.n_attrs() != entry.attrs
            || !pairs.n_rows().is_multiple_of(2)
        {
            return None;
        }
        Some(NonSeparationSketch::from_pair_rows(
            pairs, entry.rows, params,
        ))
    }
}

fn build_entry(ds: &DatasetRef, canonical_path: &str, mode: LoadMode) -> Result<Entry, String> {
    if !(ds.eps > 0.0 && ds.eps < 1.0) {
        return Err(format!("eps must be in (0, 1), got {}", ds.eps));
    }
    let params = FilterParams::new(ds.eps);
    // Stamp before the scan: a file rewritten *during* the read then
    // differs from the recorded stamp, so the next hit rebuilds.
    let source = SourceStamp::capture(canonical_path);
    match mode {
        LoadMode::Memory => {
            let dataset = read_csv_path(&ds.path, &CsvOptions::default())
                .map_err(|e| format!("reading {}: {e}", ds.path))?;
            if dataset.n_rows() < 2 || dataset.n_attrs() == 0 {
                return Err(format!(
                    "data set too small to analyse ({} rows x {} attributes)",
                    dataset.n_rows(),
                    dataset.n_attrs()
                ));
            }
            let filter = TupleSampleFilter::build(&dataset, params, ds.seed);
            let cols = cols_from_dataset(&dataset);
            let (rows, attrs) = (dataset.n_rows(), dataset.n_attrs());
            // No resumable ingest: a memory-mode entry must cover any
            // appended rows in its materialised dataset anyway, so an
            // append rebuilds it fully.
            Ok(Entry::new(
                filter,
                Some(dataset),
                cols,
                rows,
                attrs,
                source,
                None,
            ))
        }
        LoadMode::Stream => {
            let mut source_rows = CsvTupleSource::open(&ds.path, &CsvOptions::default())
                .map_err(|e| format!("reading {}: {e}", ds.path))?;
            let mut tee = CardinalityTee::new(&mut source_rows);
            // Driven through a TupleIngest (the same computation
            // `tuple_filter_from_stream` runs) so the reservoir + RNG
            // state stays on the entry: a later pure append resumes it
            // over just the new suffix.
            let mut ingest = TupleIngest::new(tee.attr_names(), params, ds.seed);
            loop {
                match tee.next_tuple() {
                    Ok(Some(tuple)) => {
                        ingest.push(tuple);
                    }
                    Ok(None) => break,
                    Err(e) => return Err(format!("streaming {}: {e}", ds.path)),
                }
            }
            let filter = ingest
                .to_filter(params)
                .map_err(|e| format!("streaming {}: {e}", ds.path))?;
            let cols = tee.into_cols();
            let rows = source_rows.rows_read();
            let attrs = source_rows.n_attrs();
            if rows < 2 || attrs == 0 {
                return Err(format!(
                    "data set too small to analyse ({rows} rows x {attrs} attributes)"
                ));
            }
            Ok(Entry::new(
                filter,
                None,
                cols,
                rows,
                attrs,
                source,
                Some(ingest),
            ))
        }
    }
}

/// Column sketches for a materialised dataset, fed from the column
/// dictionaries: a freshly parsed dataset's dictionary *is* its
/// distinct value set, and KMV state depends only on that set, so this
/// produces byte-identical sketches to streaming every row — in
/// `O(distinct)` instead of `O(n)` per column.
fn cols_from_dataset(ds: &Dataset) -> Vec<DistinctSketch> {
    (0..ds.n_attrs())
        .map(|a| {
            let mut sk = DistinctSketch::new(COLUMN_SKETCH_K);
            for v in ds.column(AttrId::new(a)).dict().iter() {
                sk.observe(v);
            }
            sk
        })
        .collect()
}

/// A pass-through [`TupleSource`] that feeds every tuple's values into
/// per-column [`DistinctSketch`]s on the way to the sample reservoir,
/// so one streaming scan produces both artifacts.
struct CardinalityTee<'a> {
    inner: &'a mut dyn TupleSource,
    cols: Vec<DistinctSketch>,
}

impl<'a> CardinalityTee<'a> {
    fn new(inner: &'a mut dyn TupleSource) -> Self {
        let cols = (0..inner.n_attrs())
            .map(|_| DistinctSketch::new(COLUMN_SKETCH_K))
            .collect();
        CardinalityTee { inner, cols }
    }

    fn into_cols(self) -> Vec<DistinctSketch> {
        self.cols
    }
}

impl TupleSource for CardinalityTee<'_> {
    fn attr_names(&self) -> Vec<String> {
        self.inner.attr_names()
    }

    fn n_attrs(&self) -> usize {
        self.inner.n_attrs()
    }

    fn next_tuple(&mut self) -> Result<Option<Vec<Value>>, DatasetError> {
        let tuple = self.inner.next_tuple()?;
        if let Some(tuple) = &tuple {
            for (sk, v) in self.cols.iter_mut().zip(tuple) {
                sk.observe(v);
            }
        }
        Ok(tuple)
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

// ---------------------------------------------------- persistence tier

/// On-disk format version; bump on any layout change so old files are
/// ignored, not misread. Version 2 added the source content
/// fingerprint, made the column-sketch state mandatory (so a restored
/// entry can never silently materialise on `stats`), and added the
/// optional ingest checkpoint. Version 3 added the whole-content FNV
/// (the append path's integrity gate) and the stamp's capture time
/// (the racy-stat discipline) to the source stat. Older metas are
/// rejected by the version gate and simply re-scan.
const PERSIST_VERSION: i64 = 3;

fn meta_path(dir: &Path, key: &CacheKey) -> PathBuf {
    dir.join(format!("{:016x}.meta.json", key.fnv64()))
}

fn sample_path(dir: &Path, key: &CacheKey) -> PathBuf {
    dir.join(format!("{:016x}.sample.csv", key.fnv64()))
}

fn pairs_meta_path(dir: &Path, key: &CacheKey) -> PathBuf {
    dir.join(format!("{:016x}.pairs.json", key.fnv64()))
}

fn pairs_path(dir: &Path, key: &CacheKey) -> PathBuf {
    dir.join(format!("{:016x}.pairs.csv", key.fnv64()))
}

/// True iff `name` is one of the registry's persisted artifact files:
/// a 16-hex-digit key stem followed by a known extension. `unload
/// --all` uses this to purge the cache dir without touching foreign
/// files (the dir may be shared, and in-flight `.tmp-*` files belong
/// to the tmp sweeper, not the purge).
fn is_cache_artifact(name: &str) -> bool {
    artifact_stem(name).is_some()
}

/// The 16-hex-digit key stem of a persisted artifact file name, or
/// `None` for foreign files. The disk-budget GC groups artifacts by
/// this stem so a key's files are removed together.
fn artifact_stem(name: &str) -> Option<&str> {
    const SUFFIXES: [&str; 4] = [".meta.json", ".sample.csv", ".pairs.json", ".pairs.csv"];
    SUFFIXES.iter().find_map(|suffix| {
        name.strip_suffix(suffix)
            .filter(|stem| stem.len() == 16 && stem.bytes().all(|b| b.is_ascii_hexdigit()))
    })
}

/// The cache-key identity and source stat every persisted artifact's
/// metadata carries. One writer ([`header_fields`]) and one reader
/// ([`read_header`]) serve both the sample meta and the pairs sidecar,
/// so the two file formats cannot drift apart field by field.
struct PersistedHeader {
    path: String,
    eps_bits: u64,
    seed: u64,
    rows: usize,
    attrs: usize,
    source: SourceStamp,
}

impl PersistedHeader {
    /// True iff the header names exactly this cache key (a fnv64
    /// file-stem collision fails here).
    fn matches_key(&self, key: &CacheKey) -> bool {
        self.path == key.path && self.eps_bits == key.eps_bits && self.seed == key.seed
    }
}

/// Renders the shared header (version, key identity, shape, source
/// stat) for a persisted artifact's metadata file.
fn header_fields(
    key: &CacheKey,
    rows: usize,
    attrs: usize,
    source: SourceStamp,
) -> Vec<(&'static str, Json)> {
    vec![
        ("version", Json::Int(PERSIST_VERSION)),
        ("path", s(&key.path)),
        ("eps_bits", json::u64_value(key.eps_bits)),
        ("seed", json::u64_value(key.seed)),
        ("rows", Json::Int(rows as i64)),
        ("attrs", Json::Int(attrs as i64)),
        ("source_len", json::u64_value(source.len)),
        ("source_mtime_s", json::u64_value(source.mtime_s)),
        ("source_mtime_ns", Json::Int(i64::from(source.mtime_ns))),
        ("source_fnv", json::u64_value(source.prefix_fnv)),
        ("source_full_fnv", json::u64_value(source.full_fnv)),
        ("source_captured_ms", json::u64_value(source.captured_ms)),
    ]
}

/// Parses the shared header, rejecting unknown versions.
fn read_header(v: &Json) -> Option<PersistedHeader> {
    if v.get("version").and_then(Json::as_i64) != Some(PERSIST_VERSION) {
        return None;
    }
    let u64_field = |name: &str| v.get(name)?.as_u64_lossless();
    Some(PersistedHeader {
        path: v.get("path").and_then(Json::as_str)?.to_string(),
        eps_bits: u64_field("eps_bits")?,
        seed: u64_field("seed")?,
        rows: v.get("rows").and_then(Json::as_usize)?,
        attrs: v.get("attrs").and_then(Json::as_usize)?,
        source: SourceStamp {
            len: u64_field("source_len")?,
            mtime_s: u64_field("source_mtime_s")?,
            mtime_ns: v.get("source_mtime_ns").and_then(Json::as_u64)? as u32,
            prefix_fnv: u64_field("source_fnv")?,
            full_fnv: u64_field("source_full_fnv")?,
            captured_ms: u64_field("source_captured_ms")?,
        },
    })
}

struct PersistedMeta {
    header: PersistedHeader,
    /// Rows in the persisted sample file — restore integrity check.
    sample_rows: usize,
    /// Per-column KMV minima (the column sketches' full state),
    /// mandatory since version 2 so a restored entry always answers
    /// `stats` without materialising.
    cols: Vec<Vec<u64>>,
    /// The paused ingest's scalar state (reservoir skip state + RNG
    /// words); the retained rows are the sample file itself. Absent
    /// for memory-mode entries, whose appends rebuild fully.
    ingest: Option<IngestCheckpoint>,
}

/// Renders `ds` as CSV and proves the bytes round-trip value-exactly.
/// CSV typing is re-inferred on read, so two values distinct in a
/// column can collapse to one textual form (`Int(1)` and `Float(1.0)`
/// both render "1") — and a merged pair would change filter and sketch
/// answers. Data that would come back different is not persisted at
/// all: correctness beats a warm start. Persisted artifacts are
/// sample-sized, so the check is cheap.
fn render_if_roundtrips(ds: &Dataset) -> std::io::Result<Option<Vec<u8>>> {
    let mut buf = Vec::new();
    write_csv(ds, &mut buf)?;
    let roundtrips = std::str::from_utf8(&buf)
        .ok()
        .and_then(|text| read_csv_str(text, &CsvOptions::default()).ok())
        .is_some_and(|back| {
            back.n_rows() == ds.n_rows()
                && back.n_attrs() == ds.n_attrs()
                && (0..ds.n_rows()).all(|row| {
                    (0..ds.n_attrs())
                        .map(AttrId::new)
                        .all(|attr| back.value(row, attr) == ds.value(row, attr))
                })
        });
    Ok(roundtrips.then_some(buf))
}

/// A fresh temp-file suffix, unique per writer (pid + counter): with
/// several server processes sharing one cache dir, a rename can only
/// ever publish bytes its own process wrote, so an artifact from
/// writer A can never end up paired with metadata from writer B.
fn fresh_tmp_suffix() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!(
        "{}-{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    )
}

/// Writes the entry's sample and metadata under `dir`. Both files are
/// written to a temp path and renamed into place, the sample first and
/// the metadata last, so a readable `.meta.json` always describes a
/// complete sample file — even when a re-persist of the same key is
/// killed mid-write.
fn persist_entry(dir: &Path, key: &CacheKey, entry: &Entry) -> std::io::Result<()> {
    // Entries built from an unstattable source cannot be validated on
    // restore; don't persist them.
    let Some(source) = entry.source else {
        return Ok(());
    };
    let sample = entry.filter.sample();
    let Some(buf) = render_if_roundtrips(sample)? else {
        return Ok(());
    };
    std::fs::create_dir_all(dir)?;
    let tmp_suffix = fresh_tmp_suffix();
    let sample_final = sample_path(dir, key);
    let sample_tmp = sample_final.with_extension(&tmp_suffix);
    publish(&sample_tmp, &buf, &sample_final)?;
    let mut fields = header_fields(key, entry.rows, entry.attrs, source);
    fields.push(("sample_rows", Json::Int(sample.n_rows() as i64)));
    // The column sketches' full state (k minima per column) rides
    // along, so a restored entry keeps answering `stats` without a
    // scan. ~8·k·m bytes — still sample-scale.
    fields.push((
        "cols",
        Json::Arr(
            entry
                .cols
                .iter()
                .map(|sk| Json::Arr(sk.minima().map(json::u64_value).collect()))
                .collect(),
        ),
    ));
    if let Some(ingest) = &entry.ingest {
        // The paused build's scalar state. The sample rows written
        // above are the reservoir items in slot order, so checkpoint +
        // sample reconstruct the exact mid-stream trajectory — an
        // append after a restart still absorbs incrementally.
        let ck = ingest.checkpoint();
        fields.push((
            "ingest",
            obj(vec![
                ("capacity", Json::Int(ck.skip.capacity as i64)),
                ("seen", Json::Int(ck.skip.seen as i64)),
                ("next_accept", json::u64_value(ck.skip.next_accept as u64)),
                ("w_bits", json::u64_value(ck.skip.w_bits)),
                (
                    "rng",
                    Json::Arr(ck.rng.iter().copied().map(json::u64_value).collect()),
                ),
            ]),
        ));
    }
    let meta = obj(fields).render();
    let final_path = meta_path(dir, key);
    let tmp_path = final_path.with_extension(tmp_suffix);
    publish(&tmp_path, format!("{meta}\n").as_bytes(), &final_path)
}

/// Writes the entry's non-separation pair sample and its sidecar
/// metadata under `dir` (pairs CSV first, metadata last — same
/// publish discipline as [`persist_entry`]).
fn persist_sketch(
    dir: &Path,
    key: &CacheKey,
    entry: &Entry,
    sketch: &NonSeparationSketch,
    params: SketchParams,
) -> std::io::Result<()> {
    let Some(source) = entry.source else {
        return Ok(());
    };
    let Some(buf) = render_if_roundtrips(sketch.pairs())? else {
        return Ok(());
    };
    std::fs::create_dir_all(dir)?;
    let tmp_suffix = fresh_tmp_suffix();
    let pairs_final = pairs_path(dir, key);
    let pairs_tmp = pairs_final.with_extension(&tmp_suffix);
    publish(&pairs_tmp, &buf, &pairs_final)?;
    let mut fields = header_fields(key, entry.rows, entry.attrs, source);
    fields.extend([
        ("pair_rows", Json::Int(sketch.pairs().n_rows() as i64)),
        ("alpha_bits", json::u64_value(params.alpha.to_bits())),
        ("rel_eps_bits", json::u64_value(params.eps.to_bits())),
        ("k", Json::Int(params.k as i64)),
        (
            "multiplier_bits",
            json::u64_value(params.multiplier.to_bits()),
        ),
    ]);
    let meta = obj(fields).render();
    let final_path = pairs_meta_path(dir, key);
    let tmp_path = final_path.with_extension(tmp_suffix);
    publish(&tmp_path, format!("{meta}\n").as_bytes(), &final_path)
}

/// Writes `bytes` to `tmp` and renames it onto `dest`, removing the
/// temp file if either step fails so failed persists leave no orphans.
/// (Orphans from a *killed* process are swept at registry creation.)
fn publish(tmp: &Path, bytes: &[u8], dest: &Path) -> std::io::Result<()> {
    let result = std::fs::write(tmp, bytes).and_then(|()| std::fs::rename(tmp, dest));
    if result.is_err() {
        let _ = std::fs::remove_file(tmp);
    }
    result
}

/// How old a `*.tmp` file must be before the startup sweep removes it.
/// An in-flight persist lives milliseconds between write and rename;
/// an hour-old temp file can only be debris from a killed writer. The
/// age gate keeps the sweep from deleting a live sibling process's
/// in-flight file when several servers share one cache dir.
const TMP_SWEEP_MIN_AGE: std::time::Duration = std::time::Duration::from_secs(3600);

/// Removes `*.tmp` files left behind by a writer killed mid-persist
/// (temp names are never reused: pid + counter).
///
/// With `crashed` — the journal found no clean-shutdown record for the
/// previous life — every tmp file is known debris and is reclaimed
/// immediately, so a crash-restart loop faster than the age gate
/// cannot accumulate orphans inside the disk budget's directory.
/// Without crash evidence (clean shutdown, first boot, or no journal)
/// only files past [`TMP_SWEEP_MIN_AGE`] go, preserving a live sibling
/// process's in-flight persist.
fn sweep_tmp_files(dir: &Path, crashed: bool) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if !entry.file_name().to_string_lossy().ends_with(".tmp") {
            continue;
        }
        let old_enough = crashed
            || entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age >= TMP_SWEEP_MIN_AGE);
        if old_enough {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn read_meta(path: &Path) -> Option<PersistedMeta> {
    let text = std::fs::read_to_string(path).ok()?;
    let v = json::parse(text.trim()).ok()?;
    let header = read_header(&v)?;
    // Column-sketch state is mandatory since version 2, and must be
    // well-formed — a corrupt list rejects the whole meta rather than
    // restoring a half-right entry.
    let cols = v
        .get("cols")?
        .as_arr()?
        .iter()
        .map(|col| {
            col.as_arr()?
                .iter()
                .map(Json::as_u64_lossless)
                .collect::<Option<Vec<u64>>>()
        })
        .collect::<Option<Vec<Vec<u64>>>>()?;
    // The ingest checkpoint is optional (memory-mode entries), but
    // when present it must be complete.
    let ingest = match v.get("ingest") {
        None => None,
        Some(ck) => Some(IngestCheckpoint {
            skip: SkipState {
                capacity: ck.get("capacity").and_then(Json::as_usize)?,
                seen: ck.get("seen").and_then(Json::as_usize)?,
                next_accept: usize::try_from(ck.get("next_accept")?.as_u64_lossless()?).ok()?,
                w_bits: ck.get("w_bits")?.as_u64_lossless()?,
            },
            rng: {
                let words = ck.get("rng")?.as_arr()?;
                if words.len() != 4 {
                    return None;
                }
                let mut rng = [0u64; 4];
                for (slot, w) in rng.iter_mut().zip(words) {
                    *slot = w.as_u64_lossless()?;
                }
                rng
            },
        }),
    };
    Some(PersistedMeta {
        header,
        sample_rows: v.get("sample_rows").and_then(Json::as_usize)?,
        cols,
        ingest,
    })
}

struct PersistedPairsMeta {
    header: PersistedHeader,
    /// Rows in the persisted pairs file (`2s`) — restore integrity
    /// check.
    pair_rows: usize,
    alpha_bits: u64,
    rel_eps_bits: u64,
    k: usize,
    multiplier_bits: u64,
}

fn read_pairs_meta(path: &Path) -> Option<PersistedPairsMeta> {
    let text = std::fs::read_to_string(path).ok()?;
    let v = json::parse(text.trim()).ok()?;
    let header = read_header(&v)?;
    let u64_field = |name: &str| v.get(name)?.as_u64_lossless();
    Some(PersistedPairsMeta {
        header,
        pair_rows: v.get("pair_rows").and_then(Json::as_usize)?,
        alpha_bits: u64_field("alpha_bits")?,
        rel_eps_bits: u64_field("rel_eps_bits")?,
        k: v.get("k").and_then(Json::as_usize)?,
        multiplier_bits: u64_field("multiplier_bits")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Lifecycle::*;
    use std::io::Write as _;

    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qid-registry-tests-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_fixture(path: &Path, rows: usize, salt: u64) {
        let mut f = std::fs::File::create(path).unwrap();
        writeln!(f, "id,parity").unwrap();
        for i in 0..rows {
            writeln!(f, "{},{}", i as u64 + salt * 1_000_000, i % 2).unwrap();
        }
    }

    fn fixture_csv(name: &str, rows: usize) -> String {
        let dir = unique_dir("csv");
        let path = dir.join(name);
        write_fixture(&path, rows, 0);
        path.to_str().unwrap().to_string()
    }

    fn dsref(path: &str) -> DatasetRef {
        DatasetRef {
            path: path.into(),
            eps: 0.01,
            seed: 7,
        }
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let path = fixture_csv("hit.csv", 300);
        let reg = Registry::new();
        let (first, hit1) = reg.get_or_load(&dsref(&path), LoadMode::Memory);
        let (second, hit2) = reg.get_or_load(&dsref(&path), LoadMode::Memory);
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first.unwrap(), &second.unwrap()));
        assert_eq!(reg.counter(Hits), 1);
        assert_eq!(reg.counter(Misses), 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn unload_all_purges_resident_and_persisted() {
        let dir = unique_dir("unload-all");
        let reg = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        });
        let path_a = fixture_csv("purge-a.csv", 300);
        let path_b = fixture_csv("purge-b.csv", 400);
        reg.get_or_load(&dsref(&path_a), LoadMode::Memory)
            .0
            .unwrap();
        reg.get_or_load(&dsref(&path_b), LoadMode::Memory)
            .0
            .unwrap();
        // A foreign file in a shared cache dir must survive the purge.
        let foreign = dir.join("notes.txt");
        std::fs::write(&foreign, "keep me").unwrap();
        assert_eq!(reg.len(), 2);
        assert!(reg.snapshot().resident_bytes > 0);

        let removed = reg.unload_all();
        // 2 resident entries + 2 persisted artifacts each (meta + sample).
        assert_eq!(removed, 6);
        assert!(reg.is_empty());
        assert_eq!(reg.snapshot().resident_bytes, 0);
        assert!(foreign.exists(), "purge must not touch foreign files");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|d| d.file_name().to_str().is_some_and(is_cache_artifact))
            .collect();
        assert!(leftovers.is_empty(), "artifacts left behind: {leftovers:?}");

        // Idempotent: a second purge finds nothing.
        assert_eq!(reg.unload_all(), 0);
        // Purged keys rebuild cleanly on the next request.
        let (entry, hit) = reg.get_or_load(&dsref(&path_a), LoadMode::Memory);
        assert!(entry.is_ok());
        assert!(!hit);
    }

    #[test]
    fn cache_artifact_names_are_recognised() {
        assert!(is_cache_artifact("00c0ffee00c0ffee.meta.json"));
        assert!(is_cache_artifact("0123456789abcdef.sample.csv"));
        assert!(is_cache_artifact("0123456789abcdef.pairs.json"));
        assert!(is_cache_artifact("0123456789abcdef.pairs.csv"));
        assert!(!is_cache_artifact("0123456789abcdef.tmp-1-2.sample.csv"));
        assert!(!is_cache_artifact("notes.txt"));
        assert!(!is_cache_artifact("short.meta.json"));
        assert!(!is_cache_artifact("0123456789abcdeg.meta.json"));
    }

    #[test]
    fn event_sink_sees_the_entry_lifecycle() {
        static EVENTS: AtomicU64 = AtomicU64::new(0);
        fn count(event: RegistryEvent) {
            let bit = match event {
                RegistryEvent::Built { .. } => 1,
                RegistryEvent::Unloaded { .. } => 1 << 1,
                RegistryEvent::Purged { .. } => 1 << 2,
                _ => 1 << 3,
            };
            EVENTS.fetch_or(bit, Ordering::Relaxed);
        }
        let reg = Registry::with_config(RegistryConfig {
            event_sink: Some(count),
            ..RegistryConfig::default()
        });
        let path = fixture_csv("events.csv", 300);
        reg.get_or_load(&dsref(&path), LoadMode::Memory).0.unwrap();
        assert!(reg.unload(&dsref(&path)));
        reg.get_or_load(&dsref(&path), LoadMode::Memory).0.unwrap();
        reg.unload_all();
        let seen = EVENTS.load(Ordering::Relaxed);
        assert_eq!(seen & 1, 1, "build event");
        assert_eq!(seen & (1 << 1), 1 << 1, "unload event");
        assert_eq!(seen & (1 << 2), 1 << 2, "purge event");
    }

    #[test]
    fn peek_serves_within_the_revalidation_window() {
        let path = fixture_csv("peek.csv", 300);
        let reg = Registry::with_config(RegistryConfig {
            revalidate_ms: 60_000,
            ..RegistryConfig::default()
        });
        let ds = dsref(&path);
        let key = CacheKey::of(&ds);
        assert!(reg.peek(&key).is_none(), "nothing resident yet");
        let (built, _) = reg.get_or_load(&ds, LoadMode::Memory);
        let built = built.unwrap();
        let peeked = reg.peek(&key).expect("fresh build opens the window");
        assert!(Arc::ptr_eq(&built, &peeked));
        assert_eq!(reg.counter(Hits), 1, "peek counts as a cache hit");
        // An unknown key stays a clean miss.
        let mut other = ds.clone();
        other.seed = 99;
        assert!(reg.peek(&CacheKey::of(&other)).is_none());
    }

    #[test]
    fn peek_disabled_by_default_and_expires() {
        let path = fixture_csv("peek-off.csv", 300);
        let ds = dsref(&path);
        let key = CacheKey::of(&ds);

        // Default config: window is 0, peek never serves.
        let strict = Registry::new();
        strict.get_or_load(&ds, LoadMode::Memory).0.unwrap();
        assert!(strict.peek(&key).is_none(), "revalidate_ms=0 disables peek");

        // A short window expires, and a general-path hit (which
        // re-stats the source) re-opens it.
        let reg = Registry::with_config(RegistryConfig {
            revalidate_ms: 200,
            ..RegistryConfig::default()
        });
        reg.get_or_load(&ds, LoadMode::Memory).0.unwrap();
        std::thread::sleep(std::time::Duration::from_millis(250));
        assert!(reg.peek(&key).is_none(), "stale stamp closes the window");
        reg.get_or_load(&ds, LoadMode::Memory).0.unwrap();
        assert!(reg.peek(&key).is_some());
    }

    #[test]
    fn different_seed_is_a_different_entry() {
        let path = fixture_csv("seeds.csv", 300);
        let reg = Registry::new();
        let (_, _) = reg.get_or_load(&dsref(&path), LoadMode::Memory);
        let mut other = dsref(&path);
        other.seed = 8;
        let (_, hit) = reg.get_or_load(&other, LoadMode::Memory);
        assert!(!hit);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn stream_mode_keeps_only_the_sample() {
        let path = fixture_csv("stream.csv", 500);
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        let entry = entry.unwrap();
        assert!(entry.dataset.is_none());
        assert_eq!(entry.rows, 500);
        assert_eq!(entry.attrs, 2);
        // m=2, eps=0.01 → 20 sampled tuples.
        assert_eq!(entry.filter.sample().n_rows(), 20);
        assert!(entry.stored_bytes > 0);
        assert_eq!(reg.snapshot().resident_bytes, entry.stored_bytes as u64);
    }

    #[test]
    fn failed_builds_are_evicted_and_retryable() {
        let reg = Registry::new();
        let missing = dsref("/definitely/not/here.csv");
        let (err, hit) = reg.get_or_load(&missing, LoadMode::Memory);
        assert!(err.is_err());
        assert!(!hit);
        assert_eq!(reg.len(), 0, "failed entry must not stay resident");
        // Retry is a fresh miss, not a cached error.
        let (err2, hit2) = reg.get_or_load(&missing, LoadMode::Memory);
        assert!(err2.is_err());
        assert!(!hit2);
        assert_eq!(reg.snapshot().resident_bytes, 0);
    }

    #[test]
    fn concurrent_cold_lookups_share_one_build() {
        let path = fixture_csv("race.csv", 400);
        let reg = Arc::new(Registry::new());
        let entries: Vec<Arc<Entry>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let ds = dsref(&path);
                    scope.spawn(move || reg.get_or_load(&ds, LoadMode::Memory).0.unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for e in &entries[1..] {
            assert!(Arc::ptr_eq(&entries[0], e), "all clients share one entry");
        }
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.counter(Misses), 1, "exactly one scan");
        assert_eq!(reg.counter(Hits) + reg.counter(Misses), 4);
    }

    #[test]
    fn materialised_lookup_upgrades_stream_entries() {
        let path = fixture_csv("upgrade.csv", 300);
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert!(entry.unwrap().dataset.is_none());
        let (upgraded, hit) = reg.get_or_load_materialised(&dsref(&path));
        assert!(!hit, "an upgrade re-scans, so it is not a hit");
        assert!(upgraded.unwrap().dataset.is_some());
        assert_eq!(reg.len(), 1);
        // The upgraded entry is now the cached one.
        let (again, hit) = reg.get_or_load_materialised(&dsref(&path));
        assert!(hit);
        let again = again.unwrap();
        assert!(again.dataset.is_some());
        assert_eq!(reg.counter(Hits), 1);
        assert_eq!(reg.counter(Misses), 2);
        // The replaced sample-only entry's bytes were released.
        assert_eq!(reg.snapshot().resident_bytes, again.stored_bytes as u64);
    }

    #[test]
    fn concurrent_upgrades_share_one_rescan() {
        let path = fixture_csv("upgrade-race.csv", 400);
        let reg = Arc::new(Registry::new());
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream); // 1 miss
        assert!(entry.unwrap().dataset.is_none());
        let entries: Vec<Arc<Entry>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let ds = dsref(&path);
                    scope.spawn(move || reg.get_or_load_materialised(&ds).0.unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for e in &entries {
            assert!(e.dataset.is_some());
            assert!(
                Arc::ptr_eq(&entries[0], e),
                "all upgraders share one rebuilt entry"
            );
        }
        // Stream build + exactly one upgrade re-scan; the other three
        // upgraders waited on the same slot and count as hits.
        assert_eq!(reg.counter(Misses), 2);
        assert_eq!(reg.counter(Hits), 3);
    }

    #[test]
    fn bad_eps_is_an_error_not_a_panic() {
        let path = fixture_csv("eps.csv", 100);
        let reg = Registry::new();
        let mut ds = dsref(&path);
        ds.eps = 0.0;
        let (res, _) = reg.get_or_load(&ds, LoadMode::Memory);
        assert!(res.is_err());
    }

    #[test]
    fn lru_eviction_respects_touch_order() {
        let dir = unique_dir("lru");
        let paths: Vec<String> = (0..3)
            .map(|i| {
                let p = dir.join(format!("d{i}.csv"));
                write_fixture(&p, 300, i);
                p.to_str().unwrap().to_string()
            })
            .collect();
        // Measure one entry (sample + column sketches) on a throwaway
        // registry, then budget for two entries but not three.
        let per_entry = {
            let probe = Registry::new();
            let (e, _) = probe.get_or_load(&dsref(&paths[0]), LoadMode::Stream);
            e.unwrap().stored_bytes as u64
        };
        let budget = 2 * per_entry + per_entry / 2;
        let reg = Registry::with_config(RegistryConfig {
            cache_bytes: Some(budget),
            ..RegistryConfig::default()
        });
        let (e0, _) = reg.get_or_load(&dsref(&paths[0]), LoadMode::Stream);
        assert_eq!(e0.unwrap().stored_bytes as u64, per_entry);
        let (_, _) = reg.get_or_load(&dsref(&paths[1]), LoadMode::Stream);
        assert_eq!(reg.len(), 2, "two entries fit the budget");
        // Touch d0 so d1 is the LRU victim when d2 arrives.
        let (_, hit) = reg.get_or_load(&dsref(&paths[0]), LoadMode::Stream);
        assert!(hit);
        let (_, _) = reg.get_or_load(&dsref(&paths[2]), LoadMode::Stream);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[Evictions], 1);
        assert_eq!(snap.datasets, 2);
        assert!(snap.resident_bytes <= budget);
        // d0 survived (recently touched), d1 was evicted.
        let (_, hit0) = reg.get_or_load(&dsref(&paths[0]), LoadMode::Stream);
        assert!(hit0, "recently-touched entry must survive");
        let before = reg.counter(Misses);
        let (_, hit1) = reg.get_or_load(&dsref(&paths[1]), LoadMode::Stream);
        assert!(!hit1, "LRU entry must have been evicted");
        assert_eq!(reg.counter(Misses), before + 1);
    }

    #[test]
    fn over_budget_entry_is_still_served() {
        let path = fixture_csv("big.csv", 300);
        let reg = Registry::with_config(RegistryConfig {
            cache_bytes: Some(1), // nothing fits
            ..RegistryConfig::default()
        });
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert!(entry.is_ok(), "the protected entry is never evicted");
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.counter(Evictions), 0);
    }

    #[test]
    fn persistence_restores_without_a_scan() {
        let dir = unique_dir("persist");
        let path = fixture_csv("warm.csv", 400);
        // Journal off: this test pins the lazy on-demand restore path,
        // which still serves WAL-less dirs (and keys outside the
        // journal's resident set). Eager re-admission has its own
        // tests below.
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        let (built, _) = first.get_or_load(&dsref(&path), LoadMode::Stream);
        let built = built.unwrap();
        assert_eq!(first.counter(Misses), 1);
        drop(first);

        // A "restarted server": a fresh registry over the same dir.
        let second = Registry::with_config(config);
        let (restored, hit) = second.get_or_load(&dsref(&path), LoadMode::Stream);
        let restored = restored.unwrap();
        assert!(!hit);
        assert_eq!(second.counter(Misses), 0, "no source scan on a warm start");
        assert_eq!(second.disk_hits(), 1);
        assert_eq!(restored.rows, built.rows);
        assert_eq!(restored.attrs, built.attrs);
        assert_eq!(
            restored.filter.sample().n_rows(),
            built.filter.sample().n_rows()
        );
        // The restored sample answers queries identically.
        use qid_dataset::AttrId;
        for attrs in [vec![AttrId::new(0)], vec![AttrId::new(1)]] {
            assert_eq!(
                restored.filter.query(&attrs),
                built.filter.query(&attrs),
                "restored filter must agree on {attrs:?}"
            );
        }
    }

    #[test]
    fn stale_source_triggers_rebuild_not_stale_answer() {
        let dir = unique_dir("stale");
        let path = dir.join("mut.csv");
        write_fixture(&path, 300, 0);
        let ds = dsref(path.to_str().unwrap());
        let reg = Registry::new();
        let (first, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let first = first.unwrap();
        assert_eq!(first.rows, 300);

        // Rewrite in place with different content (and length).
        write_fixture(&path, 500, 9);
        let (second, hit) = reg.get_or_load(&ds, LoadMode::Stream);
        let second = second.unwrap();
        assert!(!hit, "a stale entry is not a hit");
        assert_eq!(second.rows, 500, "the rebuilt entry sees the new file");
        assert!(!Arc::ptr_eq(&first, &second));
        let snap = reg.snapshot();
        assert_eq!(snap.counters[StaleRebuilds], 1);
        assert_eq!(snap.counters[Misses], 2);
        assert_eq!(snap.datasets, 1);
        assert_eq!(snap.resident_bytes, second.stored_bytes as u64);
    }

    #[test]
    fn stale_source_also_invalidates_the_disk_tier() {
        let dir = unique_dir("stale-disk");
        let path = dir.join("mut.csv");
        write_fixture(&path, 300, 0);
        let ds = dsref(path.to_str().unwrap());
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        let (_, _) = first.get_or_load(&ds, LoadMode::Stream);
        drop(first);

        write_fixture(&path, 500, 9);
        let second = Registry::with_config(config);
        let (entry, _) = second.get_or_load(&ds, LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 500, "stale persisted sample ignored");
        assert_eq!(second.disk_hits(), 0);
        assert_eq!(second.counter(Misses), 1);
    }

    #[test]
    fn unload_removes_resident_and_persisted_state() {
        let dir = unique_dir("unload");
        let path = fixture_csv("gone.csv", 300);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let reg = Registry::with_config(config);
        let ds = dsref(&path);
        let (_, _) = reg.get_or_load(&ds, LoadMode::Stream);
        assert_eq!(reg.len(), 1);
        assert!(reg.unload(&ds));
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.snapshot().resident_bytes, 0);
        assert!(!reg.unload(&ds), "second unload finds nothing");
        // The disk tier is gone too: the next lookup is a full miss.
        let (_, hit) = reg.get_or_load(&ds, LoadMode::Stream);
        assert!(!hit);
        assert_eq!(reg.disk_hits(), 0);
        assert_eq!(reg.counter(Misses), 2);
    }

    #[test]
    fn lossy_float_samples_are_not_persisted() {
        // "1" parses as Int(1) and "1.0" as Float(1.0) — distinct
        // values in the column, but both render "1", so a CSV
        // round-trip would merge them and change filter answers. Such
        // samples must skip the disk tier entirely.
        let dir = unique_dir("lossy");
        let path = dir.join("floats.csv");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "id,v").unwrap();
        for i in 0..10 {
            writeln!(f, "{i},1").unwrap();
        }
        for i in 10..20 {
            writeln!(f, "{i},1.0").unwrap();
        }
        drop(f);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let ds = dsref(path.to_str().unwrap());
        let first = Registry::with_config(config.clone());
        // m=2, eps=0.01 → r=20 = n: the sample holds every row,
        // including both spellings of 1.
        let (entry, _) = first.get_or_load(&ds, LoadMode::Stream);
        assert_eq!(entry.unwrap().filter.sample().n_rows(), 20);
        let persisted = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().ends_with(".meta.json"));
        assert!(!persisted, "a lossy sample must not reach the disk tier");
        drop(first);

        // A restart pays the scan again instead of serving a merged,
        // wrong sample.
        let second = Registry::with_config(config);
        let (restored, _) = second.get_or_load(&ds, LoadMode::Stream);
        assert_eq!(second.disk_hits(), 0);
        assert_eq!(second.counter(Misses), 1);
        assert_eq!(restored.unwrap().filter.sample().n_rows(), 20);
    }

    #[test]
    fn materialised_upgrade_ignores_the_disk_tier() {
        // A disk-restored entry has no dataset; stats/mask must still
        // get one (via a scan), not loop on restore.
        let dir = unique_dir("upgrade-disk");
        let path = fixture_csv("updisk.csv", 300);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        let (_, _) = first.get_or_load(&dsref(&path), LoadMode::Stream);
        drop(first);
        let second = Registry::with_config(config);
        // The stream lookup restores the sample-only entry from disk…
        let (restored, _) = second.get_or_load(&dsref(&path), LoadMode::Stream);
        assert!(restored.unwrap().dataset.is_none());
        assert_eq!(second.disk_hits(), 1, "the sample-only restore");
        // …and materialising it pays a scan rather than looping on
        // the restore.
        let (entry, _) = second.get_or_load_materialised(&dsref(&path));
        assert!(entry.unwrap().dataset.is_some());
        assert_eq!(second.counter(Misses), 1, "the materialising scan");
    }

    #[test]
    fn memory_mode_loads_bypass_the_disk_tier() {
        // An explicit memory-mode load exists to pre-materialise; the
        // sample-only disk tier must not silently downgrade it.
        let dir = unique_dir("memory-disk");
        let path = fixture_csv("memdisk.csv", 300);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        let (_, _) = first.get_or_load(&dsref(&path), LoadMode::Stream);
        drop(first);
        let second = Registry::with_config(config);
        let (entry, hit) = second.get_or_load(&dsref(&path), LoadMode::Memory);
        assert!(!hit);
        assert!(entry.unwrap().dataset.is_some(), "memory load materialises");
        assert_eq!(second.disk_hits(), 0, "restore skipped for memory mode");
        assert_eq!(second.counter(Misses), 1);
    }

    #[test]
    fn registry_creation_sweeps_only_old_tmp_files() {
        let dir = unique_dir("sweep");
        let orphan = dir.join("deadbeef.sample.123-0.tmp");
        std::fs::write(&orphan, b"partial").unwrap();
        // Backdate the orphan past the sweep age; leave a fresh tmp
        // (a live sibling's in-flight persist) alone.
        let backdated = std::time::SystemTime::now() - 2 * TMP_SWEEP_MIN_AGE;
        std::fs::File::options()
            .write(true)
            .open(&orphan)
            .unwrap()
            .set_modified(backdated)
            .unwrap();
        let in_flight = dir.join("cafebabe.sample.456-0.tmp");
        std::fs::write(&in_flight, b"mid-write").unwrap();
        let keeper = dir.join("deadbeef.sample.csv");
        std::fs::write(&keeper, b"id\n1\n2\n").unwrap();
        let _ = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        });
        assert!(!orphan.exists(), "old orphaned tmp files are swept");
        assert!(in_flight.exists(), "fresh tmp files are left alone");
        assert!(keeper.exists(), "published files are untouched");
    }

    #[test]
    fn snapshot_rolls_everything_up() {
        let path = fixture_csv("snap.csv", 300);
        let reg = Registry::new();
        let (_, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        let (_, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[Hits], 1);
        assert_eq!(snap.counters[Misses], 1);
        assert_eq!(snap.datasets, 1);
        assert!(snap.resident_bytes > 0);
        assert_eq!(
            snap.counters[Evictions]
                + snap.counters[StaleRebuilds]
                + snap.counters[DiskHits]
                + snap.counters[Upgrades],
            0
        );
    }

    #[test]
    fn stream_entries_carry_column_sketches() {
        let path = fixture_csv("cols.csv", 300);
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        let entry = entry.unwrap();
        let cols = &entry.cols;
        assert_eq!(cols.len(), 2);
        // id: 300 distinct (over k=256, an estimate); parity: exactly 2.
        assert!(!cols[0].is_exact());
        let id_est = cols[0].estimate() as f64;
        assert!(
            (id_est - 300.0).abs() / 300.0 < 0.25,
            "id estimate {id_est} vs 300"
        );
        assert!(cols[1].is_exact());
        assert_eq!(cols[1].estimate(), 2);
    }

    #[test]
    fn memory_and_stream_builds_agree_on_column_sketches() {
        // The dictionary-fed path (memory) and the tee-fed path
        // (stream) must produce byte-identical sketch state: KMV only
        // depends on the distinct value set.
        let path = fixture_csv("cols-agree.csv", 300);
        let reg = Registry::new();
        let (mem, _) = reg.get_or_load(&dsref(&path), LoadMode::Memory);
        let other = Registry::new();
        let (stream, _) = other.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(mem.unwrap().cols, stream.unwrap().cols);
    }

    #[test]
    fn concurrent_sketch_queries_share_one_build() {
        // Mirrors concurrent_cold_lookups_share_one_build for the
        // second cached artifact: N racing sketch queries on an entry
        // without a sketch cause exactly one pair-sample scan.
        let path = fixture_csv("sketch-race.csv", 400);
        let reg = Arc::new(Registry::new());
        let ds = dsref(&path);
        let (entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let entry = entry.unwrap();
        assert_eq!(reg.counter(Misses), 1, "the sample build");
        let sketches: Vec<Arc<NonSeparationSketch>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let ds = ds.clone();
                    let entry = Arc::clone(&entry);
                    scope.spawn(move || reg.sketch_for(&ds, &entry).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for sk in &sketches[1..] {
            assert!(Arc::ptr_eq(&sketches[0], sk), "one sketch for everyone");
        }
        assert_eq!(
            reg.counter(Misses),
            2,
            "sample build + exactly one sketch scan"
        );
        // The sketch participates in the byte accounting, together
        // with the pair-sample tuples retained for append absorption.
        let pair_bytes = entry
            .pair_ingest
            .get()
            .map_or(0, PairIngest::retained_bytes);
        assert!(pair_bytes > 0, "the pair state rides along with the sketch");
        assert_eq!(
            reg.snapshot().resident_bytes,
            (entry.stored_bytes + sketches[0].stored_bytes() + pair_bytes) as u64
        );
    }

    #[test]
    fn sketch_is_identical_however_the_entry_is_resident() {
        // Stream entry (sketch from a source re-scan) and memory entry
        // (sketch from the resident dataset) must answer identically:
        // one canonical definition, the streaming builder.
        let path = fixture_csv("sketch-modes.csv", 400);
        let ds = dsref(&path);
        let stream_reg = Registry::new();
        let (se, _) = stream_reg.get_or_load(&ds, LoadMode::Stream);
        let stream_sketch = stream_reg.sketch_for(&ds, &se.unwrap()).unwrap();
        let mem_reg = Registry::new();
        let (me, _) = mem_reg.get_or_load(&ds, LoadMode::Memory);
        let mem_sketch = mem_reg.sketch_for(&ds, &me.unwrap()).unwrap();
        assert_eq!(
            mem_reg.counter(Misses),
            1,
            "a resident dataset needs no re-scan"
        );
        let attrs = [vec![AttrId::new(0)], vec![AttrId::new(1)], vec![]];
        for a in &attrs {
            assert_eq!(stream_sketch.raw_count(a), mem_sketch.raw_count(a));
            assert_eq!(stream_sketch.query(a), mem_sketch.query(a));
        }
        assert_eq!(stream_sketch.sample_size(), mem_sketch.sample_size());
    }

    #[test]
    fn sketch_persists_and_restores_without_a_scan() {
        let dir = unique_dir("sketch-persist");
        let path = fixture_csv("sketch-warm.csv", 400);
        let ds = dsref(&path);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        let (entry, _) = first.get_or_load(&ds, LoadMode::Stream);
        let built = first.sketch_for(&ds, &entry.unwrap()).unwrap();
        assert_eq!(first.counter(Misses), 2);
        drop(first);

        let second = Registry::with_config(config);
        let (entry, _) = second.get_or_load(&ds, LoadMode::Stream);
        let entry = entry.unwrap();
        assert_eq!(second.disk_hits(), 1, "the sample restore");
        let restored = second.sketch_for(&ds, &entry).unwrap();
        assert_eq!(second.disk_hits(), 2, "the pair-sample restore");
        assert_eq!(second.counter(Misses), 0, "no source scan anywhere");
        for a in [vec![AttrId::new(0)], vec![AttrId::new(1)]] {
            assert_eq!(restored.raw_count(&a), built.raw_count(&a));
            assert_eq!(restored.query(&a), built.query(&a));
        }
        // The restored entry still answers stats (cols survived too).
        assert_eq!(entry.cols.len(), 2);
    }

    #[test]
    fn stale_source_invalidates_the_persisted_sketch() {
        let dir = unique_dir("sketch-stale");
        let path = dir.join("mut.csv");
        write_fixture(&path, 300, 0);
        let ds = dsref(path.to_str().unwrap());
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        let (entry, _) = first.get_or_load(&ds, LoadMode::Stream);
        let _ = first.sketch_for(&ds, &entry.unwrap()).unwrap();
        drop(first);

        write_fixture(&path, 500, 9);
        let second = Registry::with_config(config);
        let (entry, _) = second.get_or_load(&ds, LoadMode::Stream);
        let entry = entry.unwrap();
        assert_eq!(entry.rows, 500);
        let sketch = second.sketch_for(&ds, &entry).unwrap();
        // The stale pairs file must not be adopted: the sketch scans
        // the new source instead (entry scan + sketch scan).
        assert_eq!(second.disk_hits(), 0);
        assert_eq!(second.counter(Misses), 2);
        assert_eq!(sketch.source_pairs(), 500 * 499 / 2);
    }

    #[test]
    fn unload_releases_sketch_bytes_and_pair_files() {
        let dir = unique_dir("sketch-unload");
        let path = fixture_csv("sketch-gone.csv", 300);
        let ds = dsref(&path);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let reg = Registry::with_config(config);
        let (entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let entry = entry.unwrap();
        let sketch = reg.sketch_for(&ds, &entry).unwrap();
        assert!(sketch.stored_bytes() > 0);
        let key = CacheKey::of(&ds);
        assert!(pairs_path(&dir, &key).exists());
        assert!(pairs_meta_path(&dir, &key).exists());
        assert!(reg.unload(&ds));
        assert_eq!(reg.snapshot().resident_bytes, 0, "sketch bytes released");
        assert!(!pairs_path(&dir, &key).exists());
        assert!(!pairs_meta_path(&dir, &key).exists());
    }

    #[test]
    fn materialisation_upgrades_are_counted() {
        let path = fixture_csv("upgrade-count.csv", 300);
        let reg = Registry::new();
        let (_, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(reg.counter(Upgrades), 0);
        let (entry, _) = reg.get_or_load_materialised(&dsref(&path));
        assert!(entry.unwrap().dataset.is_some());
        let snap = reg.snapshot();
        assert_eq!(snap.counters[Upgrades], 1);
        assert_eq!(snap.counters[Misses], 2, "the upgrade is also a miss");
        // A second materialised lookup is a hit, not another upgrade.
        let (_, hit) = reg.get_or_load_materialised(&dsref(&path));
        assert!(hit);
        assert_eq!(reg.counter(Upgrades), 1);
    }

    #[test]
    fn sketch_build_failure_is_an_error_not_a_panic() {
        // Entry resident, but the source vanishes before the sketch
        // scan: the error is cached on the entry (and clears with it).
        let dir = unique_dir("sketch-fail");
        let path = dir.join("vanish.csv");
        write_fixture(&path, 300, 0);
        let ds = dsref(path.to_str().unwrap());
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let entry = entry.unwrap();
        std::fs::remove_file(&path).unwrap();
        let err = reg.sketch_for(&ds, &entry).unwrap_err();
        assert!(err.contains("vanish.csv"), "{err}");
        // Still an error on retry (the cell is written once)…
        assert!(reg.sketch_for(&ds, &entry).is_err());
        // …and no bytes were charged for it.
        assert_eq!(reg.snapshot().resident_bytes, entry.stored_bytes as u64);
    }

    // ------------------------------------ append + revalidation suite

    fn append_rows(path: &str, start: usize, rows: usize, salt: u64) {
        let mut f = std::fs::File::options().append(true).open(path).unwrap();
        for i in start..start + rows {
            writeln!(f, "{},{}", i as u64 + salt * 1_000_000, i % 2).unwrap();
        }
    }

    fn sample_rows(ds: &Dataset) -> Vec<Vec<Value>> {
        (0..ds.n_rows())
            .map(|row| {
                (0..ds.n_attrs())
                    .map(|a| ds.value(row, AttrId::new(a)).clone())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn same_length_same_mtime_rewrite_is_caught_by_fingerprint() {
        let path = fixture_csv("inplace.csv", 300);
        let reg = Registry::new();
        reg.get_or_load(&dsref(&path), LoadMode::Stream).0.unwrap();

        // Rewrite one byte in place — same length — then pin the mtime
        // back to the build-time value, so the change lands entirely
        // inside the filesystem's timestamp resolution. This is the
        // exact false-negative family a stat-only check misses.
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.iter().position(|&b| b == b'0').unwrap();
        bytes[target] = b'9';
        std::fs::write(&path, &bytes).unwrap();
        let f = std::fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(mtime).unwrap();
        drop(f);
        assert_eq!(
            std::fs::metadata(&path).unwrap().modified().unwrap(),
            mtime,
            "fixture drifted: the rewrite must not move the mtime"
        );

        reg.get_or_load(&dsref(&path), LoadMode::Stream).0.unwrap();
        assert_eq!(
            reg.counter(StaleRebuilds),
            1,
            "the content fingerprint must catch a same-stat rewrite"
        );
        assert_eq!(reg.append_updates(), 0);
    }

    #[test]
    fn rewrite_beyond_the_prefix_plus_growth_rebuilds_not_absorbs() {
        // A re-exported CSV that updates old rows *and* adds new ones
        // must never be absorbed as an append: the whole-content FNV
        // gate on the grown path has to catch a rewrite landing beyond
        // the 64 KiB fingerprint prefix.
        let path = fixture_csv("deep-rewrite.csv", 12_000);
        let old_len = std::fs::metadata(&path).unwrap().len();
        assert!(
            old_len > FINGERPRINT_PREFIX + 16,
            "fixture drifted: old content must extend past the prefix"
        );
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 12_000);

        // Flip one parity digit on the final line — far beyond the
        // prefix — then append genuinely new rows.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.len() - 2;
        assert!(target as u64 > FINGERPRINT_PREFIX);
        assert_eq!(bytes[target], b'1', "fixture drifted: last parity");
        bytes[target] = b'9';
        std::fs::write(&path, &bytes).unwrap();
        append_rows(&path, 12_000, 300, 0);

        let (rebuilt, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(rebuilt.unwrap().rows, 12_300);
        assert_eq!(
            reg.counter(StaleRebuilds),
            1,
            "a beyond-prefix rewrite + growth is stale, not an append"
        );
        assert_eq!(
            reg.append_updates(),
            0,
            "absorbing here would serve a stale sample"
        );
    }

    #[test]
    fn a_settled_stat_is_trusted_without_rereading_content() {
        // The racy-stat discipline: once a stamp's capture time lies
        // beyond the mtime race window, an unchanged stat alone proves
        // freshness and warm hits never re-read the file. The flip
        // side — asserted here on purpose — is that a rewrite which
        // *forges* the mtime back from outside that window is served
        // stale; catching it would cost a content read on every warm
        // hit, which is exactly what REVIEW flagged. (Inside the
        // window the fingerprint does catch it — see
        // same_length_same_mtime_rewrite_is_caught_by_fingerprint.)
        let path = fixture_csv("settled.csv", 300);
        let backdated = std::time::SystemTime::now() - std::time::Duration::from_secs(10);
        let f = std::fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(backdated).unwrap();
        drop(f);

        let reg = Registry::new();
        reg.get_or_load(&dsref(&path), LoadMode::Stream).0.unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.iter().position(|&b| b == b'0').unwrap();
        bytes[target] = b'9';
        std::fs::write(&path, &bytes).unwrap();
        let f = std::fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(backdated).unwrap();
        drop(f);

        let (_, hit) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert!(hit, "an unchanged non-racy stat is trusted as-is");
        assert_eq!(reg.counter(Hits), 1);
        assert_eq!(reg.counter(StaleRebuilds), 0);
    }

    #[test]
    fn truncated_source_triggers_full_rebuild() {
        let path = fixture_csv("truncate.csv", 300);
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 300);
        // Same prefix, fewer rows: shrinkage can never be an append.
        write_fixture(Path::new(&path), 200, 0);
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 200);
        assert_eq!(reg.counter(StaleRebuilds), 1);
        assert_eq!(reg.append_updates(), 0);
    }

    #[test]
    fn pure_append_is_absorbed_and_bit_identical_to_a_cold_rebuild() {
        let path = fixture_csv("append.csv", 400);
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 400);

        append_rows(&path, 400, 300, 0);
        let (absorbed, hit) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        let absorbed = absorbed.unwrap();
        assert!(hit, "the absorbing lookup is a hit, not a rebuild");
        assert_eq!(absorbed.rows, 700);
        assert_eq!(reg.append_updates(), 1);
        assert_eq!(reg.counter(StaleRebuilds), 0);
        assert_eq!(
            reg.counter(Misses),
            1,
            "only the cold build scanned the file"
        );

        // The absorbed entry must be indistinguishable from a cold
        // rebuild over the grown file: the resumed reservoir makes the
        // same accept/evict decisions the one-pass build would have,
        // so the sample, the column sketches, and therefore every
        // query answer are bit-identical — not merely statistically
        // equivalent.
        let cold_reg = Registry::new();
        let (cold, _) = cold_reg.get_or_load(&dsref(&path), LoadMode::Stream);
        let cold = cold.unwrap();
        assert_eq!(
            sample_rows(absorbed.filter.sample()),
            sample_rows(cold.filter.sample())
        );
        assert_eq!(absorbed.cols, cold.cols);
        assert_eq!(absorbed.rows, cold.rows);
        assert_eq!(absorbed.attrs, cold.attrs);
    }

    #[test]
    fn append_advances_the_sketch_without_a_rescan() {
        let path = fixture_csv("append-sketch.csv", 400);
        let reg = Registry::new();
        let ds = dsref(&path);
        let (entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        // Build the pair sketch in-process so its paused reservoirs are
        // parked on the entry, ready to resume over the suffix.
        reg.sketch_for(&ds, &entry.unwrap()).unwrap();

        append_rows(&path, 400, 300, 0);
        let (absorbed, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let absorbed = absorbed.unwrap();
        let sketch = absorbed
            .sketch()
            .expect("absorb advances the parked pair build eagerly");

        let cold_reg = Registry::new();
        let (cold_entry, _) = cold_reg.get_or_load(&ds, LoadMode::Stream);
        let cold = cold_reg.sketch_for(&ds, &cold_entry.unwrap()).unwrap();
        assert_eq!(sketch.source_pairs(), cold.source_pairs());
        assert_eq!(sample_rows(sketch.pairs()), sample_rows(cold.pairs()));
    }

    #[test]
    fn append_completing_a_partial_final_line_rebuilds() {
        let dir = unique_dir("partial");
        let path = dir.join("partial.csv");
        std::fs::write(&path, "id,parity\n1,1\n2,0\n3,1").unwrap();
        let path = path.to_str().unwrap().to_string();
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 3);

        // The growth first *completes* the unterminated final row
        // (changing a row the sample may already hold), then adds a
        // new one: only a full rebuild is sound.
        let mut f = std::fs::File::options().append(true).open(&path).unwrap();
        write!(f, "7\n4,0\n").unwrap();
        drop(f);
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 4);
        assert_eq!(reg.append_updates(), 0, "a straddled row must not absorb");
        assert_eq!(reg.counter(StaleRebuilds), 1);
    }

    #[test]
    fn absorb_fallback_counts_the_lookup_exactly_once() {
        // When classification says Appended but the absorb itself
        // fails (here: the appended row widens the schema), the lookup
        // falls back to a full scan and is counted as that miss — not
        // as a hit *and* a miss, which would push hits + misses past
        // the number of lookups and skew hit-rate metrics.
        let path = fixture_csv("fallback.csv", 300);
        let reg = Registry::new();
        reg.get_or_load(&dsref(&path), LoadMode::Stream).0.unwrap();
        assert_eq!((reg.counter(Hits), reg.counter(Misses)), (0, 1));

        let mut f = std::fs::File::options().append(true).open(&path).unwrap();
        writeln!(f, "300,0,9").unwrap();
        drop(f);

        let (result, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert!(result.is_err(), "the widened row fails the full scan too");
        assert_eq!(reg.append_updates(), 0);
        let lookups = 2;
        assert_eq!(
            reg.counter(Hits) + reg.counter(Misses),
            lookups,
            "the fallback lookup is one miss, never also a hit"
        );
        assert_eq!((reg.counter(Hits), reg.counter(Misses)), (0, 2));
    }

    #[test]
    fn sweep_absorbs_appends_ahead_of_traffic() {
        let path = fixture_csv("sweep.csv", 300);
        let reg = Registry::with_config(RegistryConfig {
            revalidate_ms: 60_000,
            ..RegistryConfig::default()
        });
        let ds = dsref(&path);
        reg.get_or_load(&ds, LoadMode::Stream).0.unwrap();
        let hits_before = reg.counter(Hits);

        assert_eq!(reg.sweep(), 0, "a fresh entry needs no refresh");
        assert_eq!(reg.counter(SweepRefreshes), 0);

        append_rows(&path, 300, 200, 0);
        assert_eq!(reg.sweep(), 1);
        assert_eq!(reg.counter(SweepRefreshes), 1);
        assert_eq!(reg.append_updates(), 1);
        assert_eq!(
            reg.counter(Hits),
            hits_before,
            "the sweeper is not a lookup"
        );
        assert_eq!(reg.counter(Misses), 1, "the suffix absorb is not a scan");

        // The refresh re-opened the revalidation window, so the
        // zero-alloc fast path serves the absorbed entry immediately.
        let peeked = reg
            .peek(&CacheKey::of(&ds))
            .expect("sweep keeps the peek window open");
        assert_eq!(peeked.rows, 500);
    }

    #[test]
    fn sweeper_racing_a_foreground_rebuild_shares_one_scan() {
        let path = fixture_csv("race.csv", 300);
        let reg = Arc::new(Registry::new());
        let ds = dsref(&path);
        reg.get_or_load(&ds, LoadMode::Stream).0.unwrap();
        // Rewritten (prefix changed): stale however you look at it.
        write_fixture(Path::new(&path), 300, 9);

        let sweeper = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || reg.sweep())
        };
        let (entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        entry.unwrap();
        sweeper.join().unwrap();

        // However the race lands — sweeper first, foreground first, or
        // truly interleaved — the swap-then-build-once discipline
        // admits exactly one rebuild scan and counts it exactly once.
        assert_eq!(
            reg.counter(Misses),
            2,
            "cold build + exactly one rebuild scan"
        );
        assert_eq!(reg.counter(StaleRebuilds), 1, "one swap, ever");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn append_does_not_disturb_an_in_flight_audit() {
        let path = fixture_csv("inflight.csv", 300);
        let reg = Registry::new();
        let ds = dsref(&path);
        let (audit_entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let audit_entry = audit_entry.unwrap(); // held across the append
        let before = sample_rows(audit_entry.filter.sample());

        append_rows(&path, 300, 100, 0);
        let (absorbed, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let absorbed = absorbed.unwrap();

        assert!(
            !Arc::ptr_eq(&audit_entry, &absorbed),
            "absorb publishes a new entry instead of mutating the old"
        );
        assert_eq!(audit_entry.rows, 300, "the in-flight view is immutable");
        assert_eq!(sample_rows(audit_entry.filter.sample()), before);
        assert_eq!(absorbed.rows, 400);
    }

    #[test]
    fn v1_metas_are_rejected_and_stats_does_not_materialise() {
        let dir = unique_dir("v1-meta");
        let path = fixture_csv("v1.csv", 300);
        let ds = dsref(&path);
        {
            let reg = Registry::with_config(RegistryConfig {
                cache_dir: Some(dir.clone()),
                wal_max_bytes: 0,
                ..RegistryConfig::default()
            });
            reg.get_or_load(&ds, LoadMode::Stream).0.unwrap();
        }
        // Downgrade the persisted meta to the pre-append v1 marker: a
        // v1 meta has no column sketches and no fingerprint, so
        // restoring it would resurrect the silent-materialise path.
        let meta_path = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|d| d.path())
            .find(|p| p.to_str().is_some_and(|s| s.ends_with(".meta.json")))
            .expect("meta persisted");
        let text = std::fs::read_to_string(&meta_path).unwrap();
        let downgraded = text.replacen("\"version\":3", "\"version\":1", 1);
        assert_ne!(text, downgraded, "fixture drifted: no version field");
        std::fs::write(&meta_path, downgraded).unwrap();

        let reg = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        });
        let (entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let entry = entry.unwrap();
        assert_eq!(reg.disk_hits(), 0, "a v1 meta must not restore");
        assert_eq!(
            reg.counter(Misses),
            1,
            "rejected restore falls back to a scan"
        );
        assert_eq!(reg.counter(Upgrades), 0);
        assert!(
            entry.dataset.is_none(),
            "stats on a stream entry must not silently materialise"
        );
        assert_eq!(entry.cols.len(), 2, "stats answers from column sketches");
    }

    #[test]
    fn disk_budget_evicts_oldest_artifact_groups() {
        let dir = unique_dir("disk-gc");
        let path_a = fixture_csv("gc-a.csv", 300);
        let path_b = fixture_csv("gc-b.csv", 300);
        let path_c = fixture_csv("gc-c.csv", 300);
        let stem_of = |path: &str| format!("{:016x}", CacheKey::of(&dsref(path)).fnv64());
        let group_bytes = |dir: &Path, stem: &str| -> u64 {
            std::fs::read_dir(dir)
                .unwrap()
                .flatten()
                .filter(|d| {
                    d.file_name()
                        .to_str()
                        .and_then(artifact_stem)
                        .is_some_and(|s| s == stem)
                })
                .map(|d| d.metadata().unwrap().len())
                .sum()
        };

        // Measure one persisted group, then budget for two and a half:
        // the third build must garbage-collect the oldest group.
        // Journal off: this pins the mtime-fallback victim ordering
        // (used whenever the journal has no last-access evidence);
        // journal-ordered GC has its own test.
        {
            let reg = Registry::with_config(RegistryConfig {
                cache_dir: Some(dir.clone()),
                wal_max_bytes: 0,
                ..RegistryConfig::default()
            });
            reg.get_or_load(&dsref(&path_a), LoadMode::Stream)
                .0
                .unwrap();
        }
        let group = group_bytes(&dir, &stem_of(&path_a));
        assert!(group > 0, "build must persist");

        let reg = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir.clone()),
            cache_disk_bytes: Some(group * 5 / 2),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        reg.get_or_load(&dsref(&path_b), LoadMode::Stream)
            .0
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        reg.get_or_load(&dsref(&path_c), LoadMode::Stream)
            .0
            .unwrap();

        assert_eq!(
            group_bytes(&dir, &stem_of(&path_a)),
            0,
            "oldest group garbage-collected"
        );
        assert!(group_bytes(&dir, &stem_of(&path_b)) > 0, "b survives");
        assert!(
            group_bytes(&dir, &stem_of(&path_c)) > 0,
            "the just-persisted group is protected"
        );
        // The resident tier is untouched by disk GC.
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn unload_all_purges_orphaned_artifacts_from_prior_processes() {
        let dir = unique_dir("orphans");
        let path = fixture_csv("orphan.csv", 300);
        {
            let reg = Registry::with_config(RegistryConfig {
                cache_dir: Some(dir.clone()),
                wal_max_bytes: 0,
                ..RegistryConfig::default()
            });
            reg.get_or_load(&dsref(&path), LoadMode::Stream).0.unwrap();
        } // "restart": artifacts on disk, nothing resident
        let reg = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        });
        assert!(reg.is_empty());
        let removed = reg.unload_all();
        assert_eq!(removed, 2, "orphaned meta + sample purged");
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|d| d.file_name().to_str().is_some_and(is_cache_artifact))
            .count();
        assert_eq!(leftovers, 0);
    }

    #[test]
    fn absorbed_append_persists_and_restores_without_a_scan() {
        let dir = unique_dir("append-persist");
        let path = fixture_csv("append-persist.csv", 300);
        let ds = dsref(&path);
        {
            let reg = Registry::with_config(RegistryConfig {
                cache_dir: Some(dir.clone()),
                wal_max_bytes: 0,
                ..RegistryConfig::default()
            });
            reg.get_or_load(&ds, LoadMode::Stream).0.unwrap();
            append_rows(&path, 300, 200, 0);
            let (absorbed, _) = reg.get_or_load(&ds, LoadMode::Stream);
            assert_eq!(absorbed.unwrap().rows, 500);
            assert_eq!(reg.append_updates(), 1);
        }
        // A fresh process restores the *absorbed* state — stamp, rows,
        // and resumable ingest — so the next append still absorbs.
        let reg = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        });
        let (restored, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let restored = restored.unwrap();
        assert_eq!(reg.disk_hits(), 1, "restored, not re-scanned");
        assert_eq!(restored.rows, 500);
        assert!(restored.append_capable(), "restore resumes ingest state");
        append_rows(&path, 500, 100, 0);
        let (again, _) = reg.get_or_load(&ds, LoadMode::Stream);
        assert_eq!(again.unwrap().rows, 600);
        assert_eq!(reg.append_updates(), 1, "post-restore appends absorb");
        assert_eq!(reg.counter(StaleRebuilds), 0);
    }

    // ------------------------------------- journal + recovery suite

    #[test]
    fn warm_restart_readmits_the_resident_set_and_resumes_counters() {
        let dir = unique_dir("wal-warm");
        let path_a = fixture_csv("wal-a.csv", 300);
        let path_b = fixture_csv("wal-b.csv", 400);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        assert_eq!(first.snapshot().restarts, 0, "first boot");
        first
            .get_or_load(&dsref(&path_a), LoadMode::Stream)
            .0
            .unwrap();
        first
            .get_or_load(&dsref(&path_b), LoadMode::Stream)
            .0
            .unwrap();
        first
            .get_or_load(&dsref(&path_a), LoadMode::Stream)
            .0
            .unwrap();
        assert_eq!((first.counter(Hits), first.counter(Misses)), (1, 2));
        drop(first); // clean shutdown: counters land in the journal

        let second = Registry::with_config(config);
        // Both keys were eagerly re-admitted during construction…
        assert_eq!(second.len(), 2, "resident set survives the restart");
        assert_eq!(second.snapshot().restarts, 1);
        assert!(second.snapshot().wal_replayed_events > 0);
        assert_eq!(second.disk_hits(), 2, "re-admission restores, never scans");
        // …and the cumulative counters resumed instead of resetting.
        assert_eq!(second.counter(Misses), 2, "prior-life misses survive");
        assert_eq!(second.counter(Hits), 1, "prior-life hits survive");
        // Replayed keys serve as plain hits: zero build misses.
        let (entry, hit) = second.get_or_load(&dsref(&path_a), LoadMode::Stream);
        assert!(hit, "a replayed key is already resident");
        assert_eq!(entry.unwrap().rows, 300);
        assert_eq!(second.counter(Misses), 2, "no scan for a replayed key");
        let snap = second.snapshot();
        assert_eq!(snap.restarts, 1);
        assert_eq!(
            snap.wal_replayed_events,
            second.snapshot().wal_replayed_events
        );
    }

    #[test]
    fn crash_recovery_resumes_counters_without_a_shutdown_record() {
        let dir = unique_dir("wal-crash");
        let path = fixture_csv("wal-crash.csv", 300);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        first
            .get_or_load(&dsref(&path), LoadMode::Stream)
            .0
            .unwrap();
        first.crash_for_test(); // kill -9: no shutdown record
        drop(first);

        let second = Registry::with_config(config);
        assert_eq!(second.snapshot().restarts, 1);
        assert_eq!(second.len(), 1, "the built key is re-admitted");
        assert_eq!(
            second.counter(Misses),
            1,
            "the journaled build survives the crash"
        );
        assert_eq!(second.disk_hits(), 1, "the re-admission restore");
        let (_, hit) = second.get_or_load(&dsref(&path), LoadMode::Stream);
        assert!(hit);
    }

    #[test]
    fn crash_evidence_unlocks_the_tmp_sweep_and_clean_shutdown_does_not() {
        let dir = unique_dir("wal-tmp");
        let path = fixture_csv("wal-tmp.csv", 300);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        first
            .get_or_load(&dsref(&path), LoadMode::Stream)
            .0
            .unwrap();
        // A fresh in-flight tmp file, then a crash: nothing can still
        // be writing it, so the next boot reclaims it immediately.
        let orphan = dir.join("cafebabe00000001.sample.123-0.tmp");
        std::fs::write(&orphan, b"partial").unwrap();
        first.crash_for_test();
        drop(first);

        let second = Registry::with_config(config.clone());
        assert!(
            !orphan.exists(),
            "crash evidence reclaims fresh tmp files immediately"
        );
        // After a *clean* shutdown the age gate is back: a fresh tmp
        // could belong to a live sibling process and must survive.
        let in_flight = dir.join("cafebabe00000002.sample.456-0.tmp");
        std::fs::write(&in_flight, b"mid-write").unwrap();
        drop(second);
        let _third = Registry::with_config(config);
        assert!(
            in_flight.exists(),
            "a clean shutdown keeps the 1h age gate for tmp files"
        );
    }

    #[test]
    fn disk_gc_protects_journal_recent_keys_over_newer_mtimes() {
        let dir = unique_dir("wal-gc");
        let path_a = fixture_csv("wal-gc-a.csv", 300);
        let path_b = fixture_csv("wal-gc-b.csv", 300);
        let path_c = fixture_csv("wal-gc-c.csv", 300);
        let stem_of = |path: &str| format!("{:016x}", CacheKey::of(&dsref(path)).fnv64());
        let group_paths = |dir: &Path, stem: &str| -> Vec<PathBuf> {
            std::fs::read_dir(dir)
                .unwrap()
                .flatten()
                .filter(|d| {
                    d.file_name()
                        .to_str()
                        .and_then(artifact_stem)
                        .is_some_and(|s| s == stem)
                })
                .map(|d| d.path())
                .collect()
        };

        // Key A is journaled (built under the WAL, cleanly shut down).
        {
            let reg = Registry::with_config(RegistryConfig {
                cache_dir: Some(dir.clone()),
                ..RegistryConfig::default()
            });
            reg.get_or_load(&dsref(&path_a), LoadMode::Stream)
                .0
                .unwrap();
        }
        // Key B is journal-unknown: built with the journal off, so GC
        // has only its (newer) mtime to go on.
        {
            let reg = Registry::with_config(RegistryConfig {
                cache_dir: Some(dir.clone()),
                wal_max_bytes: 0,
                ..RegistryConfig::default()
            });
            reg.get_or_load(&dsref(&path_b), LoadMode::Stream)
                .0
                .unwrap();
        }
        let a_paths = group_paths(&dir, &stem_of(&path_a));
        assert!(!a_paths.is_empty(), "A persisted");
        let group: u64 = a_paths
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        // Backdate A's artifacts: under mtime-ordered GC, A — the key a
        // client just restored — would be the first victim.
        let ancient = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1);
        for p in &a_paths {
            std::fs::File::options()
                .write(true)
                .open(p)
                .unwrap()
                .set_modified(ancient)
                .unwrap();
        }

        // Restart with the journal on and a budget for ~2.5 groups:
        // re-admission restores A (a journal access), then building C
        // pushes the dir over budget.
        let reg = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir.clone()),
            cache_disk_bytes: Some(group * 5 / 2),
            ..RegistryConfig::default()
        });
        reg.get_or_load(&dsref(&path_c), LoadMode::Stream)
            .0
            .unwrap();

        assert!(
            !group_paths(&dir, &stem_of(&path_a)).is_empty(),
            "the just-restored key survives despite the oldest mtime"
        );
        assert!(
            group_paths(&dir, &stem_of(&path_b)).is_empty(),
            "the journal-unknown group is the eviction victim"
        );
        assert!(
            !group_paths(&dir, &stem_of(&path_c)).is_empty(),
            "the just-persisted group is protected"
        );
    }
}
