//! Crash-recovery suite for the registry journal: SIGKILL the real
//! `qid serve` binary mid-flight, restart it on the same `--cache-dir`,
//! and prove the durability tier's promises from the outside —
//!
//! * the restart is **warm**: keys the journal replays serve as plain
//!   hits, with zero new build misses;
//! * the cumulative counters are **monotone across the kill**: the
//!   journaled lifecycle counters (misses, disk hits, …) never move
//!   backwards, and `restarts` counts the prior life;
//! * the cache dir is **consistent**: `qid wal --verify` exits zero,
//!   no `*.tmp` build orphans survive the crash-evidence sweep, and
//!   the interrupted operation's dataset still answers correctly when
//!   asked again.
//!
//! The kill is racy by design — it may land mid-build, mid-absorb, or
//! just after either completes. Every assertion below holds on all
//! sides of the race; what varies is only *which* keys the journal can
//! replay warm.

use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use quasi_id::server::proto::{DatasetRef, LoadMode, Request, Response};
use quasi_id::server::{Client, MetricsReport};

/// A `qid serve --cache-dir …` child bound to an ephemeral port.
struct ServerUnderTest {
    child: Child,
    addr: String,
}

impl ServerUnderTest {
    fn spawn(cache_dir: &Path) -> ServerUnderTest {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qid"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--cache-dir",
                cache_dir.to_str().expect("utf-8 cache dir"),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("server spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut first_line = String::new();
        BufReader::new(stdout)
            .read_line(&mut first_line)
            .expect("server announces its address");
        let addr = first_line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unparseable announce line: {first_line:?}"))
            .to_string();
        ServerUnderTest { child, addr }
    }

    fn client(&self) -> Client {
        Client::connect_timeout(self.addr.as_str(), Duration::from_secs(30))
            .expect("client connects")
    }

    /// SIGKILL — no drain, no shutdown record, no final checkpoint.
    fn kill9(mut self) {
        self.child.kill().expect("kill -9 delivered");
        self.child.wait().expect("killed child reaped");
    }

    /// Clean protocol shutdown, waiting for a zero exit.
    fn shutdown(mut self) {
        let mut client = self.client();
        assert_eq!(
            client.call(&Request::Shutdown).expect("shutdown answered"),
            Response::ShuttingDown
        );
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "server exit status: {status:?}");
    }
}

impl Drop for ServerUnderTest {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn unique_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qid-crash-recovery-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_fixture(path: &Path, rows: usize) {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("fixture"));
    writeln!(f, "id,parity").unwrap();
    for i in 0..rows {
        writeln!(f, "{i},{}", i % 2).unwrap();
    }
}

fn append_rows(path: &Path, start: usize, rows: usize) {
    let f = std::fs::File::options().append(true).open(path).unwrap();
    let mut f = std::io::BufWriter::new(f);
    for i in start..start + rows {
        writeln!(f, "{i},{}", i % 2).unwrap();
    }
}

fn dsref(path: &Path) -> DatasetRef {
    DatasetRef {
        path: path.to_str().unwrap().into(),
        eps: 0.01,
        seed: 7,
    }
}

fn metrics(client: &mut Client) -> MetricsReport {
    match client.call(&Request::Metrics).expect("metrics answered") {
        Response::Metrics(report) => report,
        other => panic!("expected metrics, got {other:?}"),
    }
}

/// `qid wal <dir> --verify` must exit zero: the journal is internally
/// consistent (a crash-torn tail is tolerated wear, not corruption).
fn assert_wal_verifies(cache_dir: &Path) {
    let output = Command::new(env!("CARGO_BIN_EXE_qid"))
        .args(["wal", cache_dir.to_str().unwrap(), "--verify"])
        .output()
        .expect("qid wal runs");
    assert!(
        output.status.success(),
        "qid wal --verify failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

/// After a restart over crash evidence, no `*.tmp` build orphans may
/// survive (the sweep skips the age gate), and each artifact stem must
/// appear at most once per suffix — duplicates would mean a torn
/// publish escaped the rename-only discipline.
fn assert_artifacts_consistent(cache_dir: &Path) {
    let mut seen = std::collections::HashSet::new();
    for entry in std::fs::read_dir(cache_dir).expect("cache dir listable") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(
            !name.ends_with(".tmp"),
            "tmp orphan survived the crash-evidence sweep: {name}"
        );
        assert!(seen.insert(name.clone()), "duplicate artifact: {name}");
    }
}

/// Monotone across a kill: every journaled lifecycle counter in
/// `after` is at least its pre-kill value. (`hits` is checkpointed on
/// a 100 ms cadence rather than journaled per event, so a kill may
/// legitimately lose the final window; it is asserted separately
/// where the test controls the timing.)
fn assert_counters_monotone(before: &MetricsReport, after: &MetricsReport) {
    for (name, b, a) in [
        ("misses", before.cache_misses, after.cache_misses),
        ("disk_hits", before.cache_disk_hits, after.cache_disk_hits),
        ("evictions", before.cache_evictions, after.cache_evictions),
        (
            "stale_rebuilds",
            before.cache_stale_rebuilds,
            after.cache_stale_rebuilds,
        ),
        (
            "append_updates",
            before.cache_append_updates,
            after.cache_append_updates,
        ),
    ] {
        assert!(
            a >= b,
            "counter {name} moved backwards across the kill: {b} -> {a}"
        );
    }
}

#[test]
fn kill9_mid_build_restarts_warm_with_monotone_counters() {
    let dir = unique_dir("mid-build");
    let cache = dir.join("cache");
    let small = dir.join("small.csv");
    let big = dir.join("big.csv");
    write_fixture(&small, 500);
    // Big enough that its build plausibly straddles the kill; the
    // assertions hold whichever way the race lands.
    write_fixture(&big, 120_000);

    let server = ServerUnderTest::spawn(&cache);
    let mut client = server.client();
    match client
        .call(&Request::Load {
            ds: dsref(&small),
            mode: LoadMode::Stream,
        })
        .expect("load answered")
    {
        Response::Loaded { rows, cached, .. } => {
            assert_eq!(rows, 500);
            assert!(!cached);
        }
        other => panic!("expected loaded, got {other:?}"),
    }
    let before = metrics(&mut client);
    assert!(before.cache_misses >= 1);
    assert_eq!(before.restarts, 0, "first life of this cache dir");

    // Fire the big build on its own connection and kill the server
    // while it is (probably) still scanning.
    let addr = server.addr.clone();
    let big_path = big.clone();
    let builder = std::thread::spawn(move || {
        let mut c = Client::connect_timeout(addr.as_str(), Duration::from_secs(30))
            .expect("builder connects");
        // The reply may be a real answer (build won the race) or a
        // transport error (the kill severed the connection) — both fine.
        let _ = c.call(&Request::Load {
            ds: dsref(&big_path),
            mode: LoadMode::Stream,
        });
    });
    std::thread::sleep(Duration::from_millis(30));
    drop(client);
    server.kill9();
    builder.join().expect("builder thread exits");

    // The journal must verify even with a crash-torn tail…
    assert_wal_verifies(&cache);

    // …and the restarted server resumes warm.
    let server = ServerUnderTest::spawn(&cache);
    assert_artifacts_consistent(&cache);
    let mut client = server.client();
    let after = metrics(&mut client);
    assert_eq!(after.restarts, 1, "the crash counts as a prior life");
    assert!(after.wal_replayed_events > 0, "the journal was replayed");
    assert_counters_monotone(&before, &after);

    // The small key was journaled before the kill: it serves as a
    // plain hit — zero new build misses for a replayed key.
    match client
        .call(&Request::Load {
            ds: dsref(&small),
            mode: LoadMode::Stream,
        })
        .expect("warm load answered")
    {
        Response::Loaded { rows, cached, .. } => {
            assert_eq!(rows, 500);
            assert!(cached, "a replayed key is already resident");
        }
        other => panic!("expected loaded, got {other:?}"),
    }
    let warm = metrics(&mut client);
    assert_eq!(
        warm.cache_misses, after.cache_misses,
        "a replayed key must not pay a build miss"
    );

    // The interrupted dataset still answers correctly when asked again
    // (rebuilt or replayed, depending on where the kill landed).
    match client
        .call(&Request::Load {
            ds: dsref(&big),
            mode: LoadMode::Stream,
        })
        .expect("big load answered")
    {
        Response::Loaded { rows, .. } => assert_eq!(rows, 120_000),
        other => panic!("expected loaded, got {other:?}"),
    }

    drop(client);
    server.shutdown();
    // A clean shutdown leaves a verifying journal with a shutdown
    // record; counters stay monotone into the next life too.
    assert_wal_verifies(&cache);
}

#[test]
fn kill9_mid_append_absorb_recovers_a_consistent_answer() {
    let dir = unique_dir("mid-absorb");
    let cache = dir.join("cache");
    let csv = dir.join("grow.csv");
    write_fixture(&csv, 300);

    let server = ServerUnderTest::spawn(&cache);
    let mut client = server.client();
    match client
        .call(&Request::Load {
            ds: dsref(&csv),
            mode: LoadMode::Stream,
        })
        .expect("load answered")
    {
        Response::Loaded { rows, .. } => assert_eq!(rows, 300),
        other => panic!("expected loaded, got {other:?}"),
    }
    let before = metrics(&mut client);

    // Grow the source, then kill the server while a lookup is
    // (probably) absorbing the suffix.
    append_rows(&csv, 300, 50_000);
    let addr = server.addr.clone();
    let csv_path = csv.clone();
    let absorber = std::thread::spawn(move || {
        let mut c = Client::connect_timeout(addr.as_str(), Duration::from_secs(30))
            .expect("absorber connects");
        let _ = c.call(&Request::Check {
            ds: dsref(&csv_path),
            attrs: vec!["id".into()],
        });
    });
    std::thread::sleep(Duration::from_millis(20));
    drop(client);
    server.kill9();
    absorber.join().expect("absorber thread exits");

    assert_wal_verifies(&cache);

    let server = ServerUnderTest::spawn(&cache);
    assert_artifacts_consistent(&cache);
    let mut client = server.client();
    let after = metrics(&mut client);
    assert_eq!(after.restarts, 1);
    assert_counters_monotone(&before, &after);

    // Whatever state the kill froze — pre-append, mid-absorb tmp (now
    // swept), or fully absorbed — the next answer reflects the real
    // file, with no duplicate or corrupt artifacts behind it.
    match client
        .call(&Request::Load {
            ds: dsref(&csv),
            mode: LoadMode::Stream,
        })
        .expect("post-restart load answered")
    {
        Response::Loaded { rows, .. } => assert_eq!(rows, 50_300),
        other => panic!("expected loaded, got {other:?}"),
    }

    drop(client);
    server.shutdown();
    assert_wal_verifies(&cache);
}

/// Runs the `qid` binary to a zero exit and returns its stdout lines.
fn qid_stdout(args: &[&str]) -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_qid"))
        .args(args)
        .output()
        .expect("qid runs");
    assert!(
        output.status.success(),
        "qid {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("utf-8 stdout")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The one line of `lines` that starts with `prefix`.
fn line_with<'a>(lines: &'a [String], prefix: &str) -> &'a str {
    let found: Vec<&String> = lines.iter().filter(|l| l.starts_with(prefix)).collect();
    assert_eq!(found.len(), 1, "one {prefix:?} line expected in {lines:#?}");
    found[0]
}

/// The CLI lines the CI crash-recovery job parses: `counters:` and
/// `journal: …, N prior lives` from `qid wal`, and `durability:` from
/// `qid query … metrics`, across a clean shutdown and a kill -9.
#[test]
fn cli_counter_lines_read_by_ci_are_exact() {
    let dir = unique_dir("cli-lines");
    let cache = dir.join("cache");
    let csv = dir.join("data.csv");
    write_fixture(&csv, 400);
    let cache_arg = cache.to_str().unwrap();

    // First life: one build miss, one hit, a clean shutdown.
    let server = ServerUnderTest::spawn(&cache);
    let mut client = server.client();
    for _ in 0..2 {
        let loaded = client
            .call(&Request::Load {
                ds: dsref(&csv),
                mode: LoadMode::Stream,
            })
            .expect("load answered");
        assert!(matches!(loaded, Response::Loaded { .. }), "{loaded:?}");
    }
    let lines = qid_stdout(&["query", &server.addr, "metrics"]);
    assert_eq!(
        line_with(&lines, "durability:"),
        "durability: 0 prior lives of this cache dir, 0 journal events replayed at startup"
    );
    drop(client);
    server.shutdown();
    let lines = qid_stdout(&["wal", cache_arg]);
    assert_eq!(
        line_with(&lines, "journal:"),
        "journal: 3 records, seq 1..=3, 1 prior lives"
    );
    assert_eq!(
        line_with(&lines, "counters:"),
        "counters: 1 hits, 1 misses, 0 disk hits, 0 evictions, 0 stale rebuilds, \
         0 upgrades, 0 append updates, 0 sweep refreshes"
    );

    // Second life: the resident key is re-admitted (one disk hit), then
    // the server is killed.
    let server = ServerUnderTest::spawn(&cache);
    let lines = qid_stdout(&["query", &server.addr, "metrics"]);
    assert_eq!(
        line_with(&lines, "durability:"),
        "durability: 1 prior lives of this cache dir, 3 journal events replayed at startup"
    );
    let registry = line_with(&lines, "registry:");
    assert!(
        registry.starts_with("registry: 1 datasets (")
            && registry.ends_with(" bytes resident), 1 cache hits, 1 cache misses, 1 disk hits"),
        "{registry}"
    );
    assert_eq!(
        line_with(&lines, "lifecycle:"),
        "lifecycle: 0 evictions, 0 stale rebuilds, 0 upgrades, 0 append updates, 0 sweep refreshes"
    );
    server.kill9();
    let lines = qid_stdout(&["wal", cache_arg]);
    assert_eq!(
        line_with(&lines, "journal:"),
        "journal: 5 records, seq 1..=5, 2 prior lives"
    );
    assert_eq!(
        line_with(&lines, "counters:"),
        "counters: 1 hits, 1 misses, 1 disk hits, 0 evictions, 0 stale rebuilds, \
         0 upgrades, 0 append updates, 0 sweep refreshes"
    );
}
