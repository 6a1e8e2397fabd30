//! The registry's durability tier: a write-ahead journal + periodic
//! snapshot under the cache dir, so a restart (or a crash) resumes a
//! *warm* registry instead of an amnesiac one.
//!
//! Split out of `registry.rs` (PR 10); the registry emits the same
//! [`RegistryEvent`]s it always delivered to the `--log-json` sink,
//! and this module makes them durable:
//!
//! * **The journal** (`registry.wal`): one NDJSON line per lifecycle
//!   event — build, restore, evict, stale-rebuild, append-absorb,
//!   sketch-build, disk-GC, unload, purge — each carrying a monotone
//!   sequence number and a wall-clock timestamp. Lines are appended
//!   synchronously (the emitting paths are build/evict paths, which
//!   allocate and do I/O anyway) but **fsync'd off the request path**
//!   by a background flusher thread, so the zero-allocation `check`
//!   fast path ([`crate::registry::Registry::peek`] emits no events)
//!   never pays a write or a sync.
//! * **The snapshot** (`registry.snapshot`): when the journal grows
//!   past `--wal-max-bytes`, the flusher folds it into one JSON line —
//!   cumulative counters, the per-key last-access order, the resident
//!   set — published write-then-rename, then truncates the journal.
//!   Replay cost is therefore bounded regardless of uptime.
//! * **The counter checkpoint** (`registry.counters`): hits are far
//!   too hot to journal per-event, so the flusher rewrites a single
//!   checksummed line in place (on an already-open descriptor, with a
//!   reused buffer — the write is allocation-free, because the flusher
//!   ticks *during* the zero-alloc steady state) whenever any counter
//!   moved. A torn checkpoint fails its checksum and replay falls back
//!   to the journal-derived counters.
//!
//! **Recovery** replays snapshot + journal tail: counters resume as
//! the elementwise max of every durable source (they are all
//! monotone), the resident set is re-admitted from the warm tier in
//! LRU order, and a journal that does not *end* with a clean-shutdown
//! record is crash evidence — the registry's startup sweep then
//! reclaims `*.tmp` debris immediately instead of waiting out the
//! age gate. The clean-shutdown record itself is written when the
//! [`crate::registry::Registry`] drops (a SIGKILL never runs drop,
//! which is exactly the signal wanted).
//!
//! The journal assumes a single writer per cache dir, like any WAL;
//! artifact *files* remain safe to share (publish-by-rename), but two
//! live servers journaling into one dir interleave sequence numbers.
//!
//! `qid wal <dir> [--verify]` dumps and verifies all three files via
//! [`inspect`].

use std::collections::HashMap;
use std::fs::File;
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::json::{self, obj, s, Json};
use crate::metrics::{CounterSet, Lifecycle, LifecycleCounters, Persist};
use crate::registry::RegistryEvent;

/// Journal file name under the cache dir.
pub const WAL_FILE: &str = "registry.wal";
/// Snapshot file name under the cache dir.
pub const SNAPSHOT_FILE: &str = "registry.snapshot";
/// Counter-checkpoint file name under the cache dir.
pub const COUNTERS_FILE: &str = "registry.counters";

/// Default `--wal-max-bytes`: how large the journal may grow before
/// the flusher folds it into the snapshot and truncates. Events are
/// ~100 bytes, so the default keeps tens of thousands of events of
/// forensic tail while bounding replay to a few milliseconds.
pub const DEFAULT_WAL_MAX_BYTES: u64 = 4 * 1024 * 1024;

/// Snapshot format version; bump on layout change so old snapshots are
/// ignored (the journal alone still recovers counters and keys).
const SNAPSHOT_VERSION: i64 = 1;

/// How often the flusher thread syncs the journal and refreshes the
/// counter checkpoint. This is the crash-durability window: a kill -9
/// loses at most this much counter movement (journaled *events* are
/// written before their effects are observable and synced on the next
/// tick or event notification).
const FLUSH_INTERVAL: Duration = Duration::from_millis(100);

impl CounterSet {
    /// Elementwise max — counters are monotone, so the larger of two
    /// durable observations is always the later one.
    fn max_with(&mut self, other: &CounterSet) {
        for (slot, &v) in self.0.iter_mut().zip(&other.0) {
            *slot = (*slot).max(v);
        }
    }

    /// Reads every counter out of a JSON object by its WAL name; a
    /// missing or malformed field rejects the whole set (a half-read
    /// checkpoint must not look authoritative).
    fn from_json(v: &Json) -> Option<CounterSet> {
        let mut out = CounterSet::default();
        for c in Lifecycle::ALL {
            out[c] = v.get(c.name())?.as_u64_lossless()?;
        }
        Some(out)
    }

    fn json_fields(&self) -> Vec<(&'static str, Json)> {
        Lifecycle::ALL
            .iter()
            .map(|&c| (c.name(), json::u64_value(self[c])))
            .collect()
    }
}

/// The lifecycle counter a journaled event proves moved, if any —
/// replay counts these events to re-derive the
/// [`Journaled`](crate::metrics::Persist::Journaled) counters.
fn journaled_counter(event: &RegistryEvent) -> Option<Lifecycle> {
    match event {
        RegistryEvent::Built { .. } => Some(Lifecycle::Misses),
        RegistryEvent::Restored { .. } => Some(Lifecycle::DiskHits),
        RegistryEvent::Evicted { .. } => Some(Lifecycle::Evictions),
        RegistryEvent::StaleRebuild { .. } => Some(Lifecycle::StaleRebuilds),
        RegistryEvent::AppendUpdate { .. } => Some(Lifecycle::AppendUpdates),
        _ => None,
    }
}

/// What replaying snapshot + journal recovered, handed to the registry
/// at startup.
#[derive(Clone, Debug, Default)]
pub struct WalRecovery {
    /// Prior server lives observed in the journal history — the value
    /// behind `qid_restarts_total`. `0` on a first boot.
    pub restarts: u64,
    /// Journal records replayed (snapshot state excluded).
    pub replayed_events: u64,
    /// True iff the journal's last record is a clean-shutdown record.
    pub clean_shutdown: bool,
    /// True iff a journal or snapshot existed at all. Crash evidence is
    /// `had_journal && !clean_shutdown` — a missing journal is a first
    /// boot, not a crash.
    pub had_journal: bool,
    /// Recovered cumulative counters (elementwise max of the snapshot,
    /// journal-derived deltas, the shutdown record, and the counter
    /// checkpoint).
    pub counters: CounterSet,
    /// Key stems resident at the end of the journal, LRU order (least
    /// recently touched first) — the re-admission work list.
    pub resident: Vec<u64>,
}

/// Per-key journal state: when the key was last touched (journal
/// sequence number — the disk-GC access order) and whether its entry
/// was resident at that point.
#[derive(Clone, Copy, Debug)]
struct KeyState {
    last_seq: u64,
    resident: bool,
}

/// Everything the writer mutates, under one lock. The request-path
/// cost of an *event* is one formatted line and one buffered `write`;
/// every `fsync` happens on the flusher thread.
#[derive(Debug)]
struct WalInner {
    log: File,
    counters_file: File,
    /// Monotone over the journal's whole history, snapshots included.
    seq: u64,
    log_bytes: u64,
    /// Server lives including this one (once armed).
    lives: u64,
    keys: HashMap<u64, KeyState>,
    /// Counters as the *journal* proves them: the recovered base plus
    /// one increment per journaled event. Always ≤ the live atomics
    /// (every journaled event's `fetch_add` precedes its `record`), so
    /// rotation can fold these into the snapshot without ever counting
    /// an event that also survives in the post-rotation tail — the
    /// live values would race exactly that way.
    event_counters: CounterSet,
    /// Journal lines written since the last fsync.
    events_dirty: bool,
    /// Reused checkpoint render buffer; capacity is reserved at arm
    /// time so steady-state checkpoint writes never allocate.
    checkpoint_buf: Vec<u8>,
    last_checkpoint: CounterSet,
    stop: bool,
    closed: bool,
}

/// The write-ahead journal: owned by the registry (one per cache dir),
/// shared with its background flusher thread.
#[derive(Debug)]
pub(crate) struct Wal {
    dir: PathBuf,
    max_bytes: u64,
    inner: Mutex<WalInner>,
    tick: Condvar,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
    recovery: WalRecovery,
}

impl Wal {
    /// Opens (creating the dir and files as needed) and replays the
    /// journal under `dir`. No records are written and no thread is
    /// spawned until [`Wal::arm`].
    pub fn open(dir: &Path, max_bytes: u64) -> std::io::Result<Wal> {
        std::fs::create_dir_all(dir)?;
        let scan = scan_dir(dir);
        let log = File::options()
            .append(true)
            .create(true)
            .open(dir.join(WAL_FILE))?;
        let log_bytes = log.metadata().map(|m| m.len()).unwrap_or(0);
        let counters_file = File::options()
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(COUNTERS_FILE))?;
        let recovery = WalRecovery {
            restarts: scan.lives,
            replayed_events: scan.events,
            clean_shutdown: scan.clean_shutdown,
            had_journal: scan.had_journal,
            counters: scan.counters,
            resident: scan.resident_lru(),
        };
        Ok(Wal {
            dir: dir.to_path_buf(),
            max_bytes,
            inner: Mutex::new(WalInner {
                log,
                counters_file,
                seq: scan.seq,
                log_bytes,
                lives: scan.lives,
                keys: scan.keys,
                event_counters: recovery.counters,
                events_dirty: false,
                checkpoint_buf: Vec::new(),
                last_checkpoint: CounterSet::default(),
                stop: false,
                closed: false,
            }),
            tick: Condvar::new(),
            flusher: Mutex::new(None),
            recovery,
        })
    }

    /// What [`Wal::open`] recovered.
    pub fn recovery(&self) -> &WalRecovery {
        &self.recovery
    }

    /// Starts this life: journals the `open` record (restart evidence
    /// for the next replay), seeds the checkpoint machinery, and
    /// spawns the background flusher that owns every fsync.
    pub fn arm(self: &Arc<Self>, counters: Arc<LifecycleCounters>) {
        {
            let mut inner = self.inner.lock().expect("wal lock");
            inner.lives += 1;
            // Steady-state checkpoints must not allocate; a rendered
            // line is bounded well under this (8 names + 8 u64s + the
            // checksum), so one up-front reservation is enough.
            inner.checkpoint_buf.reserve(1024);
            let restarts = inner.lives - 1;
            let line = format!(
                "{{\"seq\":{},\"ts_ms\":{},\"ev\":\"open\",\"restarts\":{},\"pid\":{}}}\n",
                inner.seq + 1,
                unix_ms(),
                restarts,
                std::process::id()
            );
            self.append_locked(&mut inner, &line);
            let _ = inner.log.sync_data();
            inner.events_dirty = false;
            let seeded = counters.values();
            self.write_checkpoint_locked(&mut inner, &seeded);
        }
        let wal = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("qid-wal".to_string())
            .spawn(move || wal.flusher_loop(&counters))
            .expect("spawn wal flusher");
        *self.flusher.lock().expect("wal flusher lock") = Some(handle);
    }

    /// Journals one lifecycle event. Called from the registry's build,
    /// evict, and GC paths — never from the served-hit fast path,
    /// which emits no events. The write is buffered-synchronous; the
    /// fsync is the flusher's job (it is nudged so durability lags by
    /// microseconds, not a full tick).
    pub fn record(&self, event: RegistryEvent) {
        let mut inner = self.inner.lock().expect("wal lock");
        if inner.closed {
            return;
        }
        let seq = inner.seq + 1;
        let head = format!("{{\"seq\":{seq},\"ts_ms\":{}", unix_ms());
        let line = match event {
            RegistryEvent::Built { key, bytes } => {
                format!("{head},\"ev\":\"build\",\"key\":\"{key:016x}\",\"bytes\":{bytes}}}\n")
            }
            RegistryEvent::Restored { key, bytes } => {
                format!("{head},\"ev\":\"restore\",\"key\":\"{key:016x}\",\"bytes\":{bytes}}}\n")
            }
            RegistryEvent::Evicted { key, bytes } => {
                format!("{head},\"ev\":\"evict\",\"key\":\"{key:016x}\",\"bytes\":{bytes}}}\n")
            }
            RegistryEvent::StaleRebuild { key } => {
                format!("{head},\"ev\":\"stale_rebuild\",\"key\":\"{key:016x}\"}}\n")
            }
            RegistryEvent::AppendUpdate { key, bytes } => format!(
                "{head},\"ev\":\"append_absorb\",\"key\":\"{key:016x}\",\"bytes\":{bytes}}}\n"
            ),
            RegistryEvent::SketchBuilt { key, bytes } => format!(
                "{head},\"ev\":\"sketch_build\",\"key\":\"{key:016x}\",\"bytes\":{bytes}}}\n"
            ),
            RegistryEvent::DiskEvicted { key, bytes } => {
                format!("{head},\"ev\":\"disk_gc\",\"key\":\"{key:016x}\",\"bytes\":{bytes}}}\n")
            }
            RegistryEvent::Unloaded { key } => {
                format!("{head},\"ev\":\"unload\",\"key\":\"{key:016x}\"}}\n")
            }
            RegistryEvent::Purged { entries, files } => {
                format!("{head},\"ev\":\"purge\",\"entries\":{entries},\"files\":{files}}}\n")
            }
        };
        self.append_locked(&mut inner, &line);
        apply_key_event(&mut inner.keys, seq, &event);
        if let Some(c) = journaled_counter(&event) {
            inner.event_counters[c] += 1;
        }
        drop(inner);
        // Nudge the flusher: the event reaches the platter on its next
        // wake, not a full FLUSH_INTERVAL later.
        self.tick.notify_one();
    }

    /// The journal-derived last-access sequence per key stem, for the
    /// disk-GC victim ordering. A stem the journal has never seen maps
    /// to no entry (the GC treats it as least recently used).
    pub fn last_access(&self) -> HashMap<u64, u64> {
        self.inner
            .lock()
            .expect("wal lock")
            .keys
            .iter()
            .map(|(&stem, st)| (stem, st.last_seq))
            .collect()
    }

    /// Clean shutdown: final counter checkpoint, the `shutdown` record
    /// (with the counters inline, so a clean restart is exact even if
    /// the checkpoint file is lost), a final fsync, and the flusher
    /// joined. Idempotent; called from the registry's `Drop` — which a
    /// SIGKILL never runs, making the record's *absence* the crash
    /// evidence recovery keys off.
    pub fn close(&self, counters: &LifecycleCounters) {
        {
            let mut inner = self.inner.lock().expect("wal lock");
            if inner.closed {
                return;
            }
            inner.closed = true;
            inner.stop = true;
            let cur = counters.values();
            self.write_checkpoint_locked(&mut inner, &cur);
            let mut fields = vec![
                ("seq", json::u64_value(inner.seq + 1)),
                ("ts_ms", json::u64_value(unix_ms())),
                ("ev", s("shutdown")),
            ];
            fields.extend(cur.json_fields());
            let line = format!("{}\n", obj(fields).render());
            self.append_locked(&mut inner, &line);
            let _ = inner.log.sync_data();
            inner.events_dirty = false;
        }
        self.tick.notify_all();
        let handle = self.flusher.lock().expect("wal flusher lock").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Test hook: tears the flusher down *without* a shutdown record
    /// or final sync — the next open sees crash evidence, exactly as
    /// if the process had been killed.
    #[cfg(test)]
    pub fn abort_for_test(&self) {
        {
            let mut inner = self.inner.lock().expect("wal lock");
            if inner.closed {
                return;
            }
            inner.closed = true;
            inner.stop = true;
            let _ = inner.log.sync_data();
        }
        self.tick.notify_all();
        let handle = self.flusher.lock().expect("wal flusher lock").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    // ---------------------------------------------------- internals

    /// Appends a pre-rendered line and advances the sequence number.
    fn append_locked(&self, inner: &mut WalInner, line: &str) {
        inner.seq += 1;
        if inner.log.write_all(line.as_bytes()).is_ok() {
            inner.log_bytes += line.len() as u64;
            inner.events_dirty = true;
        }
    }

    /// The flusher thread: wakes on event notifications (fast
    /// durability) or every [`FLUSH_INTERVAL`] (counter movement),
    /// syncs the journal, rotates it past `max_bytes`, and refreshes
    /// the counter checkpoint. An idle tick — no events, no counter
    /// movement — does nothing and allocates nothing, so the thread
    /// can run alongside the zero-allocation steady state.
    fn flusher_loop(&self, counters: &LifecycleCounters) {
        let mut inner = self.inner.lock().expect("wal lock");
        loop {
            if inner.stop {
                return;
            }
            let (guard, _) = self
                .tick
                .wait_timeout(inner, FLUSH_INTERVAL)
                .expect("wal lock");
            inner = guard;
            if inner.stop {
                return;
            }
            if inner.events_dirty {
                let _ = inner.log.sync_data();
                inner.events_dirty = false;
                if inner.log_bytes > self.max_bytes {
                    self.rotate_locked(&mut inner, counters);
                }
            }
            let cur = counters.values();
            if cur != inner.last_checkpoint {
                self.write_checkpoint_locked(&mut inner, &cur);
            }
        }
    }

    /// Folds the journal into the snapshot (write + fsync + rename)
    /// and truncates it. Only reached when events were journaled, so
    /// allocation here never lands inside an event-free steady state.
    fn rotate_locked(&self, inner: &mut WalInner, counters: &LifecycleCounters) {
        // Journaled counters come from the journal-proved set (see
        // `WalInner::event_counters`); the others come from the live
        // atomics, which are their only durable source.
        let live = counters.values();
        let mut folded = inner.event_counters;
        for c in Lifecycle::ALL {
            if !matches!(c.row().wal, Persist::Journaled(_)) {
                folded[c] = folded[c].max(live[c]);
            }
        }
        let mut keys: Vec<(u64, KeyState)> = inner.keys.iter().map(|(&k, &v)| (k, v)).collect();
        keys.sort_by_key(|&(stem, st)| (st.last_seq, stem));
        let keys_json = Json::Arr(
            keys.iter()
                .map(|&(stem, st)| {
                    obj(vec![
                        ("key", s(format!("{stem:016x}"))),
                        ("seq", json::u64_value(st.last_seq)),
                        ("res", Json::Bool(st.resident)),
                    ])
                })
                .collect(),
        );
        let line = format!(
            "{}\n",
            obj(vec![
                ("version", Json::Int(SNAPSHOT_VERSION)),
                ("seq", json::u64_value(inner.seq)),
                ("lives", json::u64_value(inner.lives)),
                ("counters", obj(folded.json_fields())),
                ("keys", keys_json),
            ])
            .render()
        );
        let tmp = self
            .dir
            .join(format!("{SNAPSHOT_FILE}.{}.tmp", std::process::id()));
        let written = File::create(&tmp).and_then(|mut f| {
            f.write_all(line.as_bytes())?;
            f.sync_data()
        });
        if written.is_ok()
            && std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE)).is_ok()
            && inner.log.set_len(0).is_ok()
        {
            inner.log_bytes = 0;
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Rewrites `registry.counters` in place on its long-lived
    /// descriptor. Manual rendering into the reused buffer keeps the
    /// steady-state path allocation-free (opening a file — even a
    /// temp-and-rename — converts a path to a `CString`, which
    /// allocates; a seek + write on an open fd does not). Torn writes
    /// are caught by the trailing FNV checksum at replay.
    fn write_checkpoint_locked(&self, inner: &mut WalInner, cur: &CounterSet) {
        let WalInner {
            counters_file,
            checkpoint_buf: buf,
            ..
        } = inner;
        buf.clear();
        buf.push(b'{');
        for c in Lifecycle::ALL {
            if buf.len() > 1 {
                buf.push(b',');
            }
            buf.push(b'"');
            buf.extend_from_slice(c.name().as_bytes());
            buf.extend_from_slice(b"\":");
            push_u64(buf, cur[c]);
        }
        let sum = fnv64(buf);
        buf.extend_from_slice(b",\"fnv\":\"");
        push_hex16(buf, sum);
        buf.extend_from_slice(b"\"}\n");
        let ok = counters_file
            .seek(SeekFrom::Start(0))
            .and_then(|_| counters_file.write_all(buf))
            .and_then(|()| counters_file.set_len(buf.len() as u64))
            .and_then(|()| counters_file.sync_data());
        if ok.is_ok() {
            inner.last_checkpoint = *cur;
        }
    }
}

/// Applies one journaled event to the per-key state map.
fn apply_key_event(keys: &mut HashMap<u64, KeyState>, seq: u64, event: &RegistryEvent) {
    let mut touch = |key: u64, resident: bool| {
        keys.insert(
            key,
            KeyState {
                last_seq: seq,
                resident,
            },
        );
    };
    match *event {
        RegistryEvent::Built { key, .. }
        | RegistryEvent::Restored { key, .. }
        | RegistryEvent::AppendUpdate { key, .. }
        | RegistryEvent::SketchBuilt { key, .. }
        | RegistryEvent::StaleRebuild { key } => touch(key, true),
        RegistryEvent::Evicted { key, .. } => touch(key, false),
        // Unload and disk GC destroy the artifacts too: the key has no
        // warm-tier presence left, so it leaves the access map rather
        // than lingering as a "recently used" ghost.
        RegistryEvent::Unloaded { key } | RegistryEvent::DiskEvicted { key, .. } => {
            keys.remove(&key);
        }
        RegistryEvent::Purged { .. } => keys.clear(),
    }
}

// ------------------------------------------------------------ replay

/// The result of reading every durable file under a cache dir —
/// shared by [`Wal::open`] (recovery) and [`inspect`] (forensics).
#[derive(Debug, Default)]
struct Scan {
    snapshot_seq: Option<u64>,
    snapshot_keys: usize,
    /// Prior lives: snapshot base + `open` records in the journal.
    lives: u64,
    /// Highest sequence number observed.
    seq: u64,
    /// Journal-proved counters: snapshot base + one increment per
    /// replayed event. Becomes the recovered set once the shutdown
    /// record and the checkpoint file are maxed in (scan_dir's tail).
    counters: CounterSet,
    /// Running max over every shutdown record's inline counters.
    shutdown_counters: CounterSet,
    keys: HashMap<u64, KeyState>,
    /// Journal records parsed.
    events: u64,
    first_seq: u64,
    last_seq: u64,
    clean_shutdown: bool,
    /// The journal's final line failed to parse — a torn tail, the
    /// normal signature of a mid-write kill (not corruption).
    torn_tail: bool,
    had_journal: bool,
    /// `Some(valid)` if `registry.counters` exists.
    counters_file: Option<bool>,
    issues: Vec<String>,
    lines: Vec<String>,
}

impl Scan {
    /// Resident stems, least recently touched first.
    fn resident_lru(&self) -> Vec<u64> {
        let mut resident: Vec<(u64, u64)> = self
            .keys
            .iter()
            .filter(|(_, st)| st.resident)
            .map(|(&stem, st)| (st.last_seq, stem))
            .collect();
        resident.sort_unstable();
        resident.into_iter().map(|(_, stem)| stem).collect()
    }
}

/// Reads and replays snapshot, journal, and counter checkpoint.
fn scan_dir(dir: &Path) -> Scan {
    let mut scan = Scan::default();

    // Snapshot first: it is the journal's folded prefix.
    if let Ok(text) = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)) {
        scan.had_journal = true;
        match json::parse(text.trim()) {
            Ok(v) if v.get("version").and_then(Json::as_i64) == Some(SNAPSHOT_VERSION) => {
                scan.seq = v.get("seq").and_then(Json::as_u64_lossless).unwrap_or(0);
                scan.snapshot_seq = Some(scan.seq);
                scan.lives = v.get("lives").and_then(Json::as_u64_lossless).unwrap_or(0);
                if let Some(c) = v.get("counters").and_then(CounterSet::from_json) {
                    scan.counters = c;
                }
                if let Some(keys) = v.get("keys").and_then(Json::as_arr) {
                    for k in keys {
                        let stem = k
                            .get("key")
                            .and_then(Json::as_str)
                            .and_then(|h| u64::from_str_radix(h, 16).ok());
                        let seq = k.get("seq").and_then(Json::as_u64_lossless);
                        let res = k.get("res").and_then(Json::as_bool);
                        if let (Some(stem), Some(seq), Some(res)) = (stem, seq, res) {
                            scan.keys.insert(
                                stem,
                                KeyState {
                                    last_seq: seq,
                                    resident: res,
                                },
                            );
                            scan.snapshot_keys += 1;
                        } else {
                            scan.issues
                                .push("snapshot: malformed key entry".to_string());
                        }
                    }
                }
            }
            Ok(_) => scan
                .issues
                .push("snapshot: unknown version (ignored)".to_string()),
            Err(_) => scan
                .issues
                .push("snapshot: unparseable JSON (ignored)".to_string()),
        }
    }

    // The journal tail.
    if let Ok(text) = std::fs::read_to_string(dir.join(WAL_FILE)) {
        if !text.is_empty() {
            scan.had_journal = true;
        }
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let last_idx = lines.len().saturating_sub(1);
        for (idx, line) in lines.iter().enumerate() {
            scan.lines.push((*line).to_string());
            match parse_record(line) {
                Some(rec) => {
                    if rec.seq <= scan.seq {
                        scan.issues.push(format!(
                            "journal line {}: seq {} not after {}",
                            idx + 1,
                            rec.seq,
                            scan.seq
                        ));
                    }
                    scan.seq = rec.seq;
                    if scan.first_seq == 0 {
                        scan.first_seq = rec.seq;
                    }
                    scan.last_seq = rec.seq;
                    scan.events += 1;
                    scan.clean_shutdown = rec.is_shutdown;
                    apply_record(&mut scan, &rec);
                }
                None if idx == last_idx => {
                    // A partial final line is the normal kill-mid-write
                    // signature — tolerated, but it means the journal
                    // does not *end* with a shutdown record.
                    scan.torn_tail = true;
                    scan.clean_shutdown = false;
                }
                None => scan.issues.push(format!(
                    "journal line {}: unparseable interior record",
                    idx + 1
                )),
            }
        }
    }

    // The counter checkpoint: strictly newer-or-equal information than
    // anything above when its checksum holds; garbage when torn.
    if let Ok(text) = std::fs::read_to_string(dir.join(COUNTERS_FILE)) {
        if !text.trim().is_empty() {
            match verify_checkpoint(&text) {
                Some(c) => {
                    scan.counters.max_with(&c);
                    scan.counters_file = Some(true);
                }
                None => {
                    scan.counters_file = Some(false);
                    scan.issues
                        .push("counters: checksum mismatch (torn checkpoint ignored)".to_string());
                }
            }
        }
    }
    // `scan.counters` so far is the journal-proved floor; the shutdown
    // record and the checkpoint are independent monotone observations,
    // so the elementwise max of all three is the latest durable truth.
    let shutdown = scan.shutdown_counters;
    scan.counters.max_with(&shutdown);
    scan
}

/// One parsed journal record — only the fields replay acts on.
struct Record {
    seq: u64,
    ev: String,
    key: Option<u64>,
    is_shutdown: bool,
    counters: Option<CounterSet>,
}

fn parse_record(line: &str) -> Option<Record> {
    let v = json::parse(line.trim()).ok()?;
    let seq = v.get("seq")?.as_u64_lossless()?;
    let ev = v.get("ev").and_then(Json::as_str)?.to_string();
    const KNOWN: [&str; 11] = [
        "open",
        "build",
        "restore",
        "evict",
        "stale_rebuild",
        "append_absorb",
        "sketch_build",
        "disk_gc",
        "unload",
        "purge",
        "shutdown",
    ];
    if !KNOWN.contains(&ev.as_str()) {
        return None;
    }
    let key = v
        .get("key")
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok());
    let is_shutdown = ev == "shutdown";
    let counters = is_shutdown.then(|| CounterSet::from_json(&v)).flatten();
    Some(Record {
        seq,
        ev,
        key,
        is_shutdown,
        counters,
    })
}

/// Replays one record into the scan state: counter deltas for the
/// counters an event determines exactly, key-state transitions for
/// the access map and resident set. Counters the table does not mark
/// [`Journaled`](crate::metrics::Persist::Journaled) have no per-event
/// record (they are checkpoint-resumed), so a crash loses at most
/// [`FLUSH_INTERVAL`] of their movement.
fn apply_record(scan: &mut Scan, rec: &Record) {
    let event = match (rec.ev.as_str(), rec.key) {
        ("open", _) => {
            scan.lives += 1;
            return;
        }
        ("shutdown", _) => {
            if let Some(c) = &rec.counters {
                scan.shutdown_counters.max_with(c);
            }
            return;
        }
        ("purge", _) => RegistryEvent::Purged {
            entries: 0,
            files: 0,
        },
        ("build", Some(key)) => RegistryEvent::Built { key, bytes: 0 },
        ("restore", Some(key)) => RegistryEvent::Restored { key, bytes: 0 },
        ("evict", Some(key)) => RegistryEvent::Evicted { key, bytes: 0 },
        ("stale_rebuild", Some(key)) => RegistryEvent::StaleRebuild { key },
        ("append_absorb", Some(key)) => RegistryEvent::AppendUpdate { key, bytes: 0 },
        ("sketch_build", Some(key)) => RegistryEvent::SketchBuilt { key, bytes: 0 },
        ("disk_gc", Some(key)) => RegistryEvent::DiskEvicted { key, bytes: 0 },
        ("unload", Some(key)) => RegistryEvent::Unloaded { key },
        _ => return,
    };
    if let Some(c) = journaled_counter(&event) {
        scan.counters[c] += 1;
    }
    apply_key_event(&mut scan.keys, rec.seq, &event);
}

/// Validates a checkpoint line's trailing FNV and returns its
/// counters, or `None` for a torn/garbage checkpoint.
fn verify_checkpoint(text: &str) -> Option<CounterSet> {
    let line = text.trim();
    let idx = line.rfind(",\"fnv\":\"")?;
    let sum = fnv64(&line.as_bytes()[..idx]);
    let v = json::parse(line).ok()?;
    let recorded = v.get("fnv").and_then(Json::as_str)?;
    if u64::from_str_radix(recorded, 16).ok()? != sum {
        return None;
    }
    CounterSet::from_json(&v)
}

// ----------------------------------------------------------- inspect

/// Everything `qid wal <dir>` reports about a cache dir's durability
/// files: the parsed journal, the recovery summary, and any
/// consistency issues.
#[derive(Debug)]
pub struct WalReport {
    /// Snapshot's folded sequence number, if a snapshot exists.
    pub snapshot_seq: Option<u64>,
    /// Key stems carried by the snapshot.
    pub snapshot_keys: usize,
    /// Prior server lives (the `qid_restarts_total` the next boot
    /// would report).
    pub restarts: u64,
    /// Journal records parsed.
    pub events: u64,
    /// First and last journal sequence numbers (`0` when empty).
    pub first_seq: u64,
    /// See [`WalReport::first_seq`].
    pub last_seq: u64,
    /// True iff the journal ends with a clean-shutdown record; its
    /// absence on a non-empty journal is crash evidence, not an error.
    pub clean_shutdown: bool,
    /// The journal's final line is partial — the normal signature of a
    /// kill mid-write.
    pub torn_tail: bool,
    /// Keys that would be re-admitted on the next boot.
    pub resident: usize,
    /// Counters the next boot would resume with.
    pub counters: CounterSet,
    /// Consistency problems (non-monotone sequence numbers, interior
    /// corruption, checksum failures). Empty means the journal
    /// verifies.
    pub issues: Vec<String>,
    /// The raw journal lines, for the dump mode.
    pub lines: Vec<String>,
    /// True iff a journal or snapshot existed at all — false means the
    /// directory has never hosted a WAL-armed server.
    pub had_journal: bool,
}

/// Reads and verifies the durability files under `dir` without
/// touching them — the engine behind `qid wal <dir> [--verify]`.
pub fn inspect(dir: &Path) -> WalReport {
    let scan = scan_dir(dir);
    let resident = scan.resident_lru().len();
    WalReport {
        snapshot_seq: scan.snapshot_seq,
        snapshot_keys: scan.snapshot_keys,
        restarts: scan.lives,
        events: scan.events,
        first_seq: scan.first_seq,
        last_seq: scan.last_seq,
        clean_shutdown: scan.clean_shutdown,
        torn_tail: scan.torn_tail,
        resident,
        counters: scan.counters,
        had_journal: scan.had_journal,
        issues: scan.issues,
        lines: scan.lines,
    }
}

// ----------------------------------------------------------- helpers

/// Milliseconds since the Unix epoch (journal record timestamps).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Appends `v`'s decimal digits — no formatting machinery, no
/// allocation (the checkpoint writer runs inside the zero-alloc
/// steady state).
fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&tmp[i..]);
}

/// Appends `v` as exactly 16 lowercase hex digits.
fn push_hex16(buf: &mut Vec<u8>, v: u64) {
    for shift in (0..16).rev() {
        let nibble = ((v >> (shift * 4)) & 0xf) as u8;
        buf.push(if nibble < 10 {
            b'0' + nibble
        } else {
            b'a' + nibble - 10
        });
    }
}

/// FNV-1a over `bytes` — the checkpoint checksum (same constants as
/// the registry's key and content hashes).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reads a whole file; empty/absent files read as empty strings. Used
/// by tests.
#[cfg(test)]
fn read_all(path: &Path) -> String {
    use std::io::Read as _;
    let mut out = String::new();
    if let Ok(mut f) = File::open(path) {
        let _ = f.read_to_string(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Lifecycle::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qid-wal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        dir
    }

    fn armed(dir: &Path, max_bytes: u64) -> (Arc<Wal>, Arc<LifecycleCounters>) {
        let wal = Arc::new(Wal::open(dir, max_bytes).expect("wal open"));
        let counters = Arc::new(LifecycleCounters::default());
        counters.seed(&wal.recovery().counters);
        wal.arm(Arc::clone(&counters));
        (wal, counters)
    }

    #[test]
    fn journal_roundtrips_events_counters_and_resident_set() {
        let dir = unique_dir("roundtrip");
        {
            let (wal, counters) = armed(&dir, DEFAULT_WAL_MAX_BYTES);
            assert_eq!(wal.recovery().restarts, 0);
            assert!(!wal.recovery().had_journal);
            wal.record(RegistryEvent::Built {
                key: 0xa1,
                bytes: 10,
            });
            wal.record(RegistryEvent::Built {
                key: 0xb2,
                bytes: 20,
            });
            wal.record(RegistryEvent::Restored {
                key: 0xa1,
                bytes: 10,
            });
            wal.record(RegistryEvent::Evicted {
                key: 0xb2,
                bytes: 20,
            });
            counters[Hits].store(41, Ordering::Relaxed);
            counters[Misses].store(2, Ordering::Relaxed);
            wal.close(&counters);
        }
        let wal = Wal::open(&dir, DEFAULT_WAL_MAX_BYTES).expect("reopen");
        let r = wal.recovery();
        assert_eq!(r.restarts, 1, "one prior life");
        assert!(r.clean_shutdown);
        assert!(r.had_journal);
        assert_eq!(r.counters[Misses], 2);
        assert_eq!(r.counters[DiskHits], 1);
        assert_eq!(r.counters[Evictions], 1);
        assert_eq!(r.counters[Hits], 41, "hits resume from the checkpoint");
        // b2 was evicted; a1 was restored last and stays resident.
        assert_eq!(r.resident, vec![0xa1]);
    }

    #[test]
    fn crash_without_shutdown_record_is_detected_and_counters_survive() {
        let dir = unique_dir("crash");
        {
            let (wal, counters) = armed(&dir, DEFAULT_WAL_MAX_BYTES);
            wal.record(RegistryEvent::Built {
                key: 0xc3,
                bytes: 5,
            });
            counters[Misses].store(1, Ordering::Relaxed);
            counters[Hits].store(9, Ordering::Relaxed);
            // Let the flusher checkpoint the moved counters.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while verify_checkpoint(&read_all(&dir.join(COUNTERS_FILE))).is_none_or(|c| c[Hits] < 9)
            {
                assert!(
                    std::time::Instant::now() < deadline,
                    "checkpoint not written"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            wal.abort_for_test();
        }
        let wal = Wal::open(&dir, DEFAULT_WAL_MAX_BYTES).expect("reopen");
        let r = wal.recovery();
        assert!(r.had_journal && !r.clean_shutdown, "crash evidence");
        assert_eq!(r.counters[Misses], 1, "event-derived");
        assert_eq!(r.counters[Hits], 9, "checkpoint-derived");
        assert_eq!(r.resident, vec![0xc3]);
    }

    #[test]
    fn torn_tail_is_tolerated_but_interior_garbage_is_an_issue() {
        let dir = unique_dir("torn");
        {
            let (wal, counters) = armed(&dir, DEFAULT_WAL_MAX_BYTES);
            wal.record(RegistryEvent::Built { key: 1, bytes: 1 });
            wal.close(&counters);
        }
        // A kill mid-write leaves a partial final line.
        let mut f = File::options()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        f.write_all(b"{\"seq\":99,\"ts_ms\":1,\"ev\":\"bui")
            .unwrap();
        drop(f);
        let report = inspect(&dir);
        assert!(report.torn_tail);
        assert!(report.issues.is_empty(), "a torn tail is not corruption");
        assert!(
            !report.clean_shutdown,
            "records after the shutdown line void the clean flag"
        );

        // Garbage *before* valid records is real corruption.
        let text = read_all(&dir.join(WAL_FILE));
        let rewritten = text.replacen("\"ev\":\"open\"", "\"ev\":\"nonsense\"", 1);
        std::fs::write(dir.join(WAL_FILE), rewritten).unwrap();
        let report = inspect(&dir);
        assert!(
            report
                .issues
                .iter()
                .any(|i| i.contains("unparseable interior")),
            "issues: {:?}",
            report.issues
        );
    }

    #[test]
    fn snapshot_rotation_bounds_the_journal_and_preserves_state() {
        let dir = unique_dir("rotate");
        {
            // A tiny budget forces rotation almost immediately.
            let (wal, counters) = armed(&dir, 512);
            for i in 0..64u64 {
                wal.record(RegistryEvent::Built {
                    key: i + 1,
                    bytes: 1,
                });
            }
            // The flusher rotates on its next tick; wait for it.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !dir.join(SNAPSHOT_FILE).exists() {
                assert!(std::time::Instant::now() < deadline, "no rotation");
                std::thread::sleep(Duration::from_millis(10));
            }
            wal.close(&counters);
        }
        let wal = Wal::open(&dir, 512).expect("reopen");
        let r = wal.recovery();
        assert_eq!(r.counters[Misses], 64, "deltas survive the fold");
        assert_eq!(r.resident.len(), 64, "resident set survives the fold");
        assert_eq!(
            *r.resident.last().unwrap(),
            64,
            "LRU order: the newest build is last"
        );
        let report = inspect(&dir);
        assert!(report.issues.is_empty(), "issues: {:?}", report.issues);
        assert!(report.snapshot_seq.is_some());
    }

    #[test]
    fn torn_counter_checkpoint_fails_its_checksum() {
        let dir = unique_dir("torn-counters");
        {
            let (wal, counters) = armed(&dir, DEFAULT_WAL_MAX_BYTES);
            counters[Hits].store(1234, Ordering::Relaxed);
            wal.close(&counters);
        }
        let text = read_all(&dir.join(COUNTERS_FILE));
        assert!(verify_checkpoint(&text).is_some(), "intact checkpoint");
        // Corrupt one digit of a counter: the checksum must fail and
        // replay must fall back to journal-derived values.
        let torn = text.replacen("1234", "9234", 1);
        std::fs::write(dir.join(COUNTERS_FILE), torn).unwrap();
        let report = inspect(&dir);
        assert!(report.issues.iter().any(|i| i.contains("checksum")));
        // The shutdown record still carries the true value.
        assert_eq!(report.counters[Hits], 1234);
    }

    /// Counter files exactly as the previous release wrote them: the
    /// on-disk names and layout must keep recovering.
    const PARENT_CHECKPOINT: &str = r#"{"hits":13,"misses":9,"disk_hits":3,"evictions":3,"stale_rebuilds":1,"upgrades":3,"append_updates":2,"sweep_refreshes":3,"fnv":"27d515b3829b76d4"}"#;
    const PARENT_SNAPSHOT: &str = r#"{"version":1,"seq":18,"lives":1,"counters":{"hits":9,"misses":9,"disk_hits":2,"evictions":3,"stale_rebuilds":1,"upgrades":3,"append_updates":2,"sweep_refreshes":3},"keys":[{"key":"f96dc9ba15e75b9a","seq":13,"res":true},{"key":"ee3ebb390879e31b","seq":15,"res":false},{"key":"d93b03d56699225c","seq":16,"res":true},{"key":"81b94a7c20e6bbfe","seq":17,"res":true},{"key":"3388e2fca5e76825","seq":18,"res":true}]}"#;

    #[test]
    fn previously_written_counter_files_recover_and_rerender_identically() {
        let checkpointed = CounterSet([13, 9, 3, 3, 1, 3, 2, 3]);
        let snapshotted = CounterSet([9, 9, 2, 3, 1, 3, 2, 3]);
        assert_eq!(verify_checkpoint(PARENT_CHECKPOINT), Some(checkpointed));
        let snapshot = json::parse(PARENT_SNAPSHOT).unwrap();
        let counters = snapshot.get("counters").unwrap();
        assert_eq!(CounterSet::from_json(counters), Some(snapshotted));
        assert_eq!(obj(snapshotted.json_fields()).render(), counters.render());

        // Recovery from the snapshot alone, then with the checkpoint.
        let dir = unique_dir("parent-files");
        std::fs::write(dir.join(SNAPSHOT_FILE), format!("{PARENT_SNAPSHOT}\n")).unwrap();
        assert_eq!(inspect(&dir).counters, snapshotted);
        assert_eq!(inspect(&dir).resident, 4);
        std::fs::write(dir.join(COUNTERS_FILE), format!("{PARENT_CHECKPOINT}\n")).unwrap();
        let report = inspect(&dir);
        assert_eq!(report.counters, checkpointed);
        assert!(report.issues.is_empty(), "issues: {:?}", report.issues);

        // Arming a server on that dir rewrites the checkpoint byte for
        // byte, checksum included.
        let (wal, counters) = armed(&dir, DEFAULT_WAL_MAX_BYTES);
        assert_eq!(
            read_all(&dir.join(COUNTERS_FILE)),
            format!("{PARENT_CHECKPOINT}\n")
        );
        wal.close(&counters);
    }

    #[test]
    fn journaled_column_matches_the_events_replay_counts() {
        let events = [
            RegistryEvent::Built { key: 1, bytes: 1 },
            RegistryEvent::Restored { key: 1, bytes: 1 },
            RegistryEvent::Evicted { key: 1, bytes: 1 },
            RegistryEvent::StaleRebuild { key: 1 },
            RegistryEvent::AppendUpdate { key: 1, bytes: 1 },
            RegistryEvent::SketchBuilt { key: 1, bytes: 1 },
            RegistryEvent::DiskEvicted { key: 1, bytes: 1 },
            RegistryEvent::Unloaded { key: 1 },
            RegistryEvent::Purged {
                entries: 1,
                files: 1,
            },
        ];
        let counted: Vec<Lifecycle> = events.iter().filter_map(journaled_counter).collect();
        for c in Lifecycle::ALL {
            assert_eq!(
                counted.iter().filter(|&&d| d == c).count(),
                usize::from(matches!(c.row().wal, Persist::Journaled(_))),
                "{c:?}: exactly the journaled counters have one event each"
            );
        }
    }

    #[test]
    fn checkpoint_render_is_stable_under_reuse() {
        let mut buf = Vec::with_capacity(1024);
        push_u64(&mut buf, 0);
        push_u64(&mut buf, 18_446_744_073_709_551_615);
        assert_eq!(buf, b"018446744073709551615");
        buf.clear();
        push_hex16(&mut buf, 0xdead_beef);
        assert_eq!(buf, b"00000000deadbeef");
    }
}
