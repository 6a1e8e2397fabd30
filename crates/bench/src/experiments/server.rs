//! E8: served vs. one-shot audit throughput.
//!
//! The `qid-server` pitch quantified: a one-shot `audit` pays the full
//! CSV scan plus sampling on every invocation, the served `audit` pays
//! it once and answers every subsequent request from the registry's
//! resident sketch. This experiment spins an in-process server on an
//! ephemeral port, drives `requests` audits through the real TCP
//! client, and compares against the same number of cold one-shot runs.
//! Results go into a [`Table`] and (via [`ServerBenchResult::to_json`])
//! the machine-readable `BENCH_server.json` the CI trend tracking
//! consumes.

use std::io::Write as _;
use std::time::{Duration, Instant};

use qid_core::filter::TupleSampleFilter;
use qid_core::minkey::{enumerate_minimal_keys, LatticeConfig};
use qid_dataset::csv::{read_csv_path, write_csv, CsvOptions};
use qid_dataset::generator::covtype_like_scaled;
use qid_server::json::{obj, s, Json};
use qid_server::proto::{DatasetRef, LoadMode, Request, Response};
use qid_server::{Client, Registry, Server, ServerConfig};

use crate::report::Table;
use crate::Scale;

/// Configuration for the served-vs-one-shot comparison.
#[derive(Clone, Copy, Debug)]
pub struct ServerBenchConfig {
    /// Workload scale (rows of the covtype-shaped CSV).
    pub scale: Scale,
    /// Audit requests per mode.
    pub requests: usize,
    /// Separation slack ε.
    pub eps: f64,
    /// Worker threads for the server under test.
    pub workers: usize,
    /// Idle keep-alive connections in the small idle-scaling herd.
    pub idle_low: usize,
    /// Idle keep-alive connections in the large idle-scaling herd.
    /// The default (1000) needs ~2× that in file descriptors between
    /// the bench process and the in-process server — the CI bench
    /// step raises `ulimit -n` first; pass something smaller when the
    /// environment cannot (the unit smoke test does).
    pub idle_high: usize,
    /// Optional C10K-class idle herd (the headline row for the sharded
    /// connection core). `None` skips it: at ≥10k connections the
    /// in-process server doubles the fd bill (~2× the herd in one
    /// process), beyond stock rlimits, so the row is measured on
    /// demand — `default_at` arms it when the `QID_IDLE_10K`
    /// environment variable is set (its value is the herd size; values
    /// under 1000 fall back to 10_000). When `QID_IDLE_10K_BIN` also
    /// names a `qid` binary, the point is measured against a *spawned*
    /// server process instead — load generator and server then each
    /// pay ~one fd per connection, which fits environments whose
    /// per-process hard limit cannot cover both ends.
    pub idle_10k: Option<usize>,
    /// Connection counts for the closed-loop saturation rows (the
    /// `qid-loadgen` harness at two concurrencies).
    pub saturation_conns: [usize; 2],
    /// Measured window per saturation point, milliseconds.
    pub saturation_ms: u64,
}

impl ServerBenchConfig {
    /// The default comparison at a given scale.
    pub fn default_at(scale: Scale) -> Self {
        ServerBenchConfig {
            scale,
            requests: scale.trials(64),
            eps: 0.01,
            workers: 4,
            idle_low: 10,
            idle_high: 1000,
            idle_10k: std::env::var("QID_IDLE_10K").ok().map(|v| {
                let herd = v.parse().unwrap_or(10_000);
                if herd < 1000 {
                    10_000
                } else {
                    herd
                }
            }),
            saturation_conns: [4, 32],
            saturation_ms: match scale {
                Scale::Full => 10_000,
                Scale::Default => 3_000,
                Scale::Smoke => 1_000,
            },
        }
    }
}

/// Latency summary of one mode.
#[derive(Clone, Copy, Debug)]
pub struct ModeStats {
    /// Requests per second over the whole run.
    pub rps: f64,
    /// Median per-request latency, microseconds.
    pub p50_us: f64,
}

/// Client-observed served-audit latency with a given number of idle
/// keep-alive connections registered with the server's poller.
#[derive(Clone, Copy, Debug)]
pub struct IdleScalingPoint {
    /// Idle connections actually held open during the measurement.
    pub idle: usize,
    /// Median audit latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile audit latency, microseconds.
    pub p99_us: f64,
}

/// The append-vs-rebuild comparison: absorbing a suffix through the
/// registry's resumed ingest state against a cold rebuild over the
/// whole grown file.
#[derive(Clone, Copy, Debug)]
pub struct AppendVsRebuild {
    /// Rows in the base file the entry was built from.
    pub base_rows: usize,
    /// Rows appended before the timed lookup.
    pub appended_rows: usize,
    /// Time for the appending lookup (classify + suffix scan + entry
    /// swap), microseconds.
    pub absorb_us: f64,
    /// Time for a cold build over the grown file, microseconds.
    pub rebuild_us: f64,
}

impl AppendVsRebuild {
    /// How many times cheaper the absorb was than the rebuild.
    pub fn speedup(&self) -> f64 {
        if self.absorb_us > 0.0 {
            self.rebuild_us / self.absorb_us
        } else {
            0.0
        }
    }
}

/// The experiment outcome.
#[derive(Clone, Debug)]
pub struct ServerBenchResult {
    /// Rows in the generated workload.
    pub rows: usize,
    /// Attributes in the generated workload.
    pub attrs: usize,
    /// Requests measured per mode.
    pub requests: usize,
    /// Audits answered by the resident server (cache-hot after the
    /// first).
    pub served: ModeStats,
    /// Audits where every invocation re-reads and re-samples the CSV.
    pub oneshot: ModeStats,
    /// First-audit latency (µs) of a *restarted* server that warms its
    /// registry from the persisted `--cache-dir` sample instead of
    /// re-scanning the source.
    pub warm_restart_us: f64,
    /// Amortised per-command latency (µs) of `requests` sequential
    /// `check` calls (one round trip each) against the warm registry.
    pub sequential_per_cmd_us: f64,
    /// Amortised per-command latency (µs) of the same `check` commands
    /// sent as a single `batch` line (one round trip, one registry
    /// resolution total).
    pub batched_per_cmd_us: f64,
    /// Served-audit latency with few idle connections registered.
    pub idle_low: IdleScalingPoint,
    /// Served-audit latency with ~1000 idle connections registered —
    /// the readiness-core claim: within 2× of [`Self::idle_low`],
    /// because quiet registrations never touch a worker.
    pub idle_high: IdleScalingPoint,
    /// Served-audit latency with a ≥10k idle herd sharded across the
    /// pollers — measured only when [`ServerBenchConfig::idle_10k`]
    /// is armed (see its fd-budget caveat).
    pub idle_10k: Option<IdleScalingPoint>,
    /// Closed-loop saturation points from the `qid-loadgen` harness,
    /// one per configured connection count: throughput and
    /// p50/p99/p999 latency under the default check-heavy mix.
    pub saturation: Vec<qid_loadgen::BenchReport>,
    /// Absorbing an appended suffix vs rebuilding from scratch — the
    /// incremental-ingestion claim quantified (a ~7% append should be
    /// ≥5× cheaper than a rescan at the 150k-row full scale).
    pub append: AppendVsRebuild,
    /// The human-readable table.
    pub table: Table,
}

impl ServerBenchResult {
    /// Renders the machine-readable `BENCH_server.json` payload.
    pub fn to_json(&self) -> String {
        obj(vec![
            ("bench", s("server")),
            ("rows", Json::Int(self.rows as i64)),
            ("attrs", Json::Int(self.attrs as i64)),
            ("requests", Json::Int(self.requests as i64)),
            (
                "served",
                obj(vec![
                    ("rps", Json::Num(self.served.rps)),
                    ("p50_us", Json::Num(self.served.p50_us)),
                ]),
            ),
            (
                "oneshot",
                obj(vec![
                    ("rps", Json::Num(self.oneshot.rps)),
                    ("p50_us", Json::Num(self.oneshot.p50_us)),
                ]),
            ),
            (
                "speedup_p50",
                Json::Num(if self.served.p50_us > 0.0 {
                    self.oneshot.p50_us / self.served.p50_us
                } else {
                    0.0
                }),
            ),
            ("warm_restart_us", Json::Num(self.warm_restart_us)),
            (
                "idle_scaling",
                obj(vec![
                    ("idle_low", Json::Int(self.idle_low.idle as i64)),
                    ("p50_low_us", Json::Num(self.idle_low.p50_us)),
                    ("p99_low_us", Json::Num(self.idle_low.p99_us)),
                    ("idle_high", Json::Int(self.idle_high.idle as i64)),
                    ("p50_high_us", Json::Num(self.idle_high.p50_us)),
                    ("p99_high_us", Json::Num(self.idle_high.p99_us)),
                    (
                        "p99_ratio",
                        Json::Num(if self.idle_low.p99_us > 0.0 {
                            self.idle_high.p99_us / self.idle_low.p99_us
                        } else {
                            0.0
                        }),
                    ),
                ]),
            ),
            (
                "idle_scaling_10k",
                match &self.idle_10k {
                    Some(point) => obj(vec![
                        ("idle", Json::Int(point.idle as i64)),
                        ("p50_us", Json::Num(point.p50_us)),
                        ("p99_us", Json::Num(point.p99_us)),
                        (
                            "p99_ratio_vs_low",
                            Json::Num(if self.idle_low.p99_us > 0.0 {
                                point.p99_us / self.idle_low.p99_us
                            } else {
                                0.0
                            }),
                        ),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "saturation",
                Json::Arr(
                    self.saturation
                        .iter()
                        .map(qid_loadgen::BenchReport::to_json_value)
                        .collect(),
                ),
            ),
            (
                "append_vs_rebuild",
                obj(vec![
                    ("base_rows", Json::Int(self.append.base_rows as i64)),
                    ("appended_rows", Json::Int(self.append.appended_rows as i64)),
                    ("absorb_us", Json::Num(self.append.absorb_us)),
                    ("rebuild_us", Json::Num(self.append.rebuild_us)),
                    ("speedup", Json::Num(self.append.speedup())),
                ]),
            ),
            (
                "batch",
                obj(vec![
                    (
                        "sequential_per_cmd_us",
                        Json::Num(self.sequential_per_cmd_us),
                    ),
                    ("batched_per_cmd_us", Json::Num(self.batched_per_cmd_us)),
                    (
                        "speedup",
                        Json::Num(if self.batched_per_cmd_us > 0.0 {
                            self.sequential_per_cmd_us / self.batched_per_cmd_us
                        } else {
                            0.0
                        }),
                    ),
                ]),
            ),
        ])
        .render()
    }
}

fn summarise(latencies: &mut [Duration], total: Duration, requests: usize) -> ModeStats {
    latencies.sort_unstable();
    let p50_us = if latencies.is_empty() {
        0.0
    } else {
        latencies[latencies.len() / 2].as_secs_f64() * 1e6
    };
    let rps = if total.as_secs_f64() > 0.0 {
        requests as f64 / total.as_secs_f64()
    } else {
        0.0
    };
    ModeStats { rps, p50_us }
}

/// Runs the comparison; panics on I/O failures (bench environment).
pub fn run_server_bench(cfg: ServerBenchConfig) -> ServerBenchResult {
    let requests = cfg.requests.max(1);
    let rows = cfg.scale.rows(100_000);
    let ds = covtype_like_scaled(7, rows);
    let (n, m) = (ds.n_rows(), ds.n_attrs());

    // Materialise the workload as a real CSV file: both modes must pay
    // (or dodge) the same parse.
    let dir = std::env::temp_dir().join("qid-bench-server");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("covtype_{rows}.csv"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("csv file"));
    write_csv(&ds, &mut file).expect("write workload");
    file.flush().expect("flush workload");
    drop(file);
    drop(ds);
    let path = path.to_str().expect("utf-8 path").to_string();
    let max_key_size = 2;

    // Served: one resident server, `requests` audits over one client.
    // The cache dir doubles as the warm-restart fixture measured below.
    let cache_dir = dir.join(format!("cache_{rows}"));
    let _ = std::fs::remove_dir_all(&cache_dir); // fresh warm tier per run
    let server_config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: cfg.workers,
        // Two shards even on small machines: the bench must measure
        // the sharded connection core, and the idle herds should
        // split across pollers the way a production deployment's do.
        pollers: 2,
        cache_dir: Some(cache_dir.to_str().expect("utf-8 path").to_string()),
        ..ServerConfig::default()
    };
    let server = Server::bind(&server_config).expect("bind server");
    let addr = server.local_addr();
    let running = server.spawn();
    let mut client = Client::connect(addr).expect("connect");
    let request = Request::Audit {
        ds: DatasetRef {
            path: path.clone(),
            eps: cfg.eps,
            seed: 7,
        },
        max_key_size,
    };
    // Warm the registry outside the measured window: the served story
    // is steady-state traffic against a resident sketch.
    match client
        .call(&Request::Load {
            ds: DatasetRef {
                path: path.clone(),
                eps: cfg.eps,
                seed: 7,
            },
            mode: LoadMode::Memory,
        })
        .expect("load")
    {
        Response::Loaded { .. } => {}
        other => panic!("load failed: {other:?}"),
    }
    let mut served_lat = Vec::with_capacity(requests);
    let served_start = Instant::now();
    for _ in 0..requests {
        let t = Instant::now();
        match client.call(&request).expect("served audit") {
            Response::Audit { .. } => {}
            other => panic!("audit failed: {other:?}"),
        }
        served_lat.push(t.elapsed());
    }
    let served_total = served_start.elapsed();
    let served = summarise(&mut served_lat, served_total, requests);

    // Batched vs sequential: the same `check` answered `requests`
    // times — once as `requests` round trips, once as one `batch`
    // line (one round trip, one registry resolution for the whole
    // array). Both run against the warm registry, so the difference
    // is pure wire + dispatch amortisation.
    let check = Request::Check {
        ds: DatasetRef {
            path: path.clone(),
            eps: cfg.eps,
            seed: 7,
        },
        attrs: vec!["0".to_string()],
    };
    let seq_start = Instant::now();
    for _ in 0..requests {
        match client.call(&check).expect("sequential check") {
            Response::Check { .. } => {}
            other => panic!("check failed: {other:?}"),
        }
    }
    let sequential_per_cmd_us = seq_start.elapsed().as_secs_f64() * 1e6 / requests as f64;
    let batch = Request::Batch {
        requests: vec![check; requests],
    };
    let batch_start = Instant::now();
    match client.call(&batch).expect("batched checks") {
        Response::Batch { results } => {
            assert_eq!(results.len(), requests, "one result per sub-command");
            assert!(
                results.iter().all(|r| matches!(r, Response::Check { .. })),
                "batched checks must all succeed"
            );
        }
        other => panic!("batch failed: {other:?}"),
    }
    let batched_per_cmd_us = batch_start.elapsed().as_secs_f64() * 1e6 / requests as f64;

    // Idle-connection scaling: the same served audit, measured with a
    // small and a large herd of quiet keep-alive connections
    // registered with the poller. Under the readiness core the herd
    // is O(1) bookkeeping the poller never visits while silent, so
    // p99 must stay flat (the acceptance bound is 2×); under the old
    // time-sliced core every idle connection cost a worker a blocked
    // 150 ms read per cycle and this measurement took *seconds*.
    let idle_low = measure_idle_point(&mut client, addr, &request, cfg.idle_low, requests);
    let idle_high = measure_idle_point(&mut client, addr, &request, cfg.idle_high, requests);
    let idle_10k = cfg
        .idle_10k
        .map(|herd| match std::env::var("QID_IDLE_10K_BIN") {
            Ok(bin) => {
                measure_idle_point_external(&bin, cfg.workers, &path, &request, herd, requests)
            }
            Err(_) => measure_idle_point(&mut client, addr, &request, herd, requests),
        });

    // Saturation: the qid-loadgen harness drives the default
    // check-heavy mix closed-loop at two connection counts against
    // the same warm server. These are the rows that witness the
    // zero-allocation request path under concurrency, not one
    // sequential client.
    let saturation: Vec<qid_loadgen::BenchReport> = cfg
        .saturation_conns
        .iter()
        .map(|&conns| {
            qid_loadgen::run(&qid_loadgen::LoadConfig {
                addr: addr.to_string(),
                path: path.clone(),
                eps: cfg.eps,
                seed: 7,
                connections: conns,
                duration: Duration::from_millis(cfg.saturation_ms),
                warmup: Duration::from_millis((cfg.saturation_ms / 5).clamp(100, 1_000)),
                mode: qid_loadgen::LoopMode::Closed,
                weights: qid_loadgen::MixWeights::default(),
            })
            .expect("saturation run")
        })
        .collect();

    client.call(&Request::Shutdown).expect("shutdown");
    running.join().expect("server exits");

    // One-shot: every request re-reads the CSV and re-samples, exactly
    // what `qid audit` does per invocation (sans process startup).
    let mut oneshot_lat = Vec::with_capacity(requests);
    let oneshot_start = Instant::now();
    for _ in 0..requests {
        let t = Instant::now();
        let ds = read_csv_path(&path, &CsvOptions::default()).expect("read workload");
        let filter = TupleSampleFilter::build(&ds, qid_core::filter::FilterParams::new(cfg.eps), 7);
        let keys = enumerate_minimal_keys(
            filter.sample(),
            LatticeConfig {
                max_size: max_key_size,
                max_candidates: 500_000,
            },
        );
        // Mirror the served handler's full work: every key identifies
        // all sampled rows, so its unique fraction needs no grouping.
        let frac = if filter.sample().n_rows() == 0 {
            0.0
        } else {
            1.0
        };
        let fractions: Vec<f64> = keys.iter().map(|_| frac).collect();
        std::hint::black_box((&keys, &fractions));
        oneshot_lat.push(t.elapsed());
    }
    let oneshot_total = oneshot_start.elapsed();
    let oneshot = summarise(&mut oneshot_lat, oneshot_total, requests);

    // Append vs rebuild: the incremental-ingestion claim. Build a
    // registry entry over a base file, append a ~7% suffix, and time
    // the absorbing lookup (classify + suffix scan + entry swap)
    // against a cold build over the whole grown file. Uses its own
    // workload file so the warm-restart fixture below stays pristine.
    let append = {
        let base_rows = cfg.scale.rows(150_000);
        let suffix_rows = (base_rows / 15).max(50);
        let grown = covtype_like_scaled(11, base_rows + suffix_rows);
        let mut full_csv = Vec::new();
        write_csv(&grown, &mut full_csv).expect("render append workload");
        drop(grown);
        // Byte offset just past the header plus the base rows: the
        // suffix appended later starts exactly on this row boundary.
        let mut newlines = 0usize;
        let split = full_csv
            .iter()
            .position(|&b| {
                if b == b'\n' {
                    newlines += 1;
                    newlines == 1 + base_rows
                } else {
                    false
                }
            })
            .expect("split boundary")
            + 1;
        let append_path = dir.join(format!("append_{base_rows}.csv"));
        std::fs::write(&append_path, &full_csv[..split]).expect("write base");
        let append_path = append_path.to_str().expect("utf-8 path").to_string();
        let dsr = DatasetRef {
            path: append_path.clone(),
            eps: cfg.eps,
            seed: 7,
        };
        let reg = Registry::new();
        reg.get_or_load(&dsr, LoadMode::Stream)
            .0
            .expect("base build");
        let mut f = std::fs::File::options()
            .append(true)
            .open(&append_path)
            .expect("open for append");
        f.write_all(&full_csv[split..]).expect("append suffix");
        f.flush().expect("flush suffix");
        drop(f);

        let t = Instant::now();
        let (absorbed, hit) = reg.get_or_load(&dsr, LoadMode::Stream);
        let absorb_us = t.elapsed().as_secs_f64() * 1e6;
        let absorbed = absorbed.expect("absorb");
        assert!(hit, "the appending lookup must absorb, not rebuild");
        assert_eq!(absorbed.rows, base_rows + suffix_rows);
        assert_eq!(reg.append_updates(), 1, "exactly one append absorbed");
        assert_eq!(
            reg.counter(qid_server::metrics::Lifecycle::StaleRebuilds),
            0,
            "no full rebuild"
        );

        let cold = Registry::new();
        let t = Instant::now();
        let (rebuilt, _) = cold.get_or_load(&dsr, LoadMode::Stream);
        let rebuild_us = t.elapsed().as_secs_f64() * 1e6;
        assert_eq!(rebuilt.expect("cold rebuild").rows, base_rows + suffix_rows);

        let point = AppendVsRebuild {
            base_rows,
            appended_rows: suffix_rows,
            absorb_us,
            rebuild_us,
        };
        // The acceptance bound, asserted only at full scale: a 10k-row
        // append onto 150k resident rows must be at least 5× cheaper
        // than a rescan. Smaller scales report without asserting — a
        // sub-millisecond absorb is all scheduler noise.
        if matches!(cfg.scale, Scale::Full) {
            assert!(
                point.speedup() >= 5.0,
                "append absorb regressed below 5x: {point:?}"
            );
        }
        point
    };

    // Warm restart: a fresh server over the same cache dir answers its
    // first audit from the persisted Θ(m/√ε) sample — the restart story
    // the registry's disk tier exists for. Measured as one request
    // because it is a one-time cost per (restart, dataset). The journal
    // is pinned off for this life: armed (the production default), the
    // boot-time replay would eagerly re-admit the entry and resume the
    // first life's counters, turning the measured audit into a plain
    // resident hit and breaking the disk-hit/miss proof below. The
    // eager-replay path is covered by tests/crash_recovery.rs and the
    // CI crash-recovery loop; this row measures the lazy restore.
    let restart_config = ServerConfig {
        wal_max_bytes: 0,
        ..server_config.clone()
    };
    let server = Server::bind(&restart_config).expect("bind restarted server");
    let addr = server.local_addr();
    let running = server.spawn();
    let mut client = Client::connect(addr).expect("connect to restarted server");
    let t = Instant::now();
    match client.call(&request).expect("warm-restart audit") {
        Response::Audit { .. } => {}
        other => panic!("warm-restart audit failed: {other:?}"),
    }
    let warm_restart_us = t.elapsed().as_secs_f64() * 1e6;
    // Prove the number measures the disk tier, not a silent fallback
    // to a cold re-scan (e.g. a failed persist or rejected restore).
    match client.call(&Request::Metrics).expect("metrics") {
        Response::Metrics(report) => {
            assert_eq!(
                report.cache_disk_hits, 1,
                "warm restart must come from the disk tier: {report:?}"
            );
            assert_eq!(
                report.cache_misses, 0,
                "warm restart must not re-scan the source: {report:?}"
            );
        }
        other => panic!("metrics failed: {other:?}"),
    }
    client.call(&Request::Shutdown).expect("shutdown restarted");
    running.join().expect("restarted server exits");

    let mut table = Table::new(
        format!("E8: served vs one-shot audit ({n} rows x {m} attrs, {requests} requests)"),
        &["mode", "req/s", "p50 latency (us)"],
    );
    table.row(vec![
        "served (cached sketch)".to_string(),
        format!("{:.1}", served.rps),
        format!("{:.0}", served.p50_us),
    ]);
    table.row(vec![
        "one-shot (rescan per request)".to_string(),
        format!("{:.1}", oneshot.rps),
        format!("{:.0}", oneshot.p50_us),
    ]);
    table.row(vec![
        "warm restart (first audit, disk tier)".to_string(),
        "-".to_string(),
        format!("{warm_restart_us:.0}"),
    ]);
    table.row(vec![
        format!("sequential checks (x{requests})"),
        "-".to_string(),
        format!("{sequential_per_cmd_us:.0}"),
    ]);
    table.row(vec![
        format!("batched checks (one line, x{requests})"),
        "-".to_string(),
        format!("{batched_per_cmd_us:.0}"),
    ]);
    table.row(vec![
        format!(
            "audit + {} idle conns (p99 {:.0} us)",
            idle_low.idle, idle_low.p99_us
        ),
        "-".to_string(),
        format!("{:.0}", idle_low.p50_us),
    ]);
    table.row(vec![
        format!(
            "audit + {} idle conns (p99 {:.0} us)",
            idle_high.idle, idle_high.p99_us
        ),
        "-".to_string(),
        format!("{:.0}", idle_high.p50_us),
    ]);
    if let Some(point) = &idle_10k {
        table.row(vec![
            format!(
                "audit + {} idle conns, 2 shards (p99 {:.0} us)",
                point.idle, point.p99_us
            ),
            "-".to_string(),
            format!("{:.0}", point.p50_us),
        ]);
    }
    for point in &saturation {
        table.row(vec![
            format!(
                "saturation x{} conns (p99 {:.0} us, p999 {:.0} us)",
                point.connections, point.p99_us, point.p999_us
            ),
            format!("{:.1}", point.rps),
            format!("{:.0}", point.p50_us),
        ]);
    }
    table.row(vec![
        format!(
            "append absorb (+{} rows onto {}; rebuild {:.0} us, {:.1}x)",
            append.appended_rows,
            append.base_rows,
            append.rebuild_us,
            append.speedup()
        ),
        "-".to_string(),
        format!("{:.0}", append.absorb_us),
    ]);

    ServerBenchResult {
        rows: n,
        attrs: m,
        requests,
        served,
        oneshot,
        warm_restart_us,
        sequential_per_cmd_us,
        batched_per_cmd_us,
        idle_low,
        idle_high,
        idle_10k,
        saturation,
        append,
        table,
    }
}

/// Measures served-audit latency with `idle` quiet keep-alive
/// connections held open against the running server at `addr`. The
/// herd is fully accepted (observed through `metrics`) before the
/// timed window starts, and dropped before returning.
fn measure_idle_point(
    client: &mut Client,
    addr: std::net::SocketAddr,
    audit: &Request,
    idle: usize,
    requests: usize,
) -> IdleScalingPoint {
    let accepted_before = connections_accepted(client);
    let mut idles = Vec::with_capacity(idle);
    for _ in 0..idle {
        match std::net::TcpStream::connect(addr) {
            Ok(stream) => idles.push(stream),
            Err(e) => {
                // E.g. a small fd rlimit: measure with what we got
                // (the point records the actual herd size).
                eprintln!("[server] idle herd capped at {}: {e}", idles.len());
                break;
            }
        }
    }
    let herd = idles.len();
    // Every idle connection must be registered before the clock runs.
    let target = accepted_before + herd as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while connections_accepted(client) < target {
        assert!(
            Instant::now() < deadline,
            "server did not accept the idle herd within 60s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let trials = (requests * 2).clamp(100, 400);
    let mut latencies = Vec::with_capacity(trials);
    for _ in 0..trials {
        let t = Instant::now();
        match client.call(audit) {
            Ok(Response::Audit { .. }) => {}
            other => panic!("idle-scaling audit failed: {other:?}"),
        }
        latencies.push(t.elapsed());
    }
    drop(idles);
    latencies.sort_unstable();
    let quantile = |q: f64| -> f64 {
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1].as_secs_f64() * 1e6
    };
    IdleScalingPoint {
        idle: herd,
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
    }
}

/// Measures the same idle-scaling point against a *spawned* server
/// process (`bin` is a `qid` binary) instead of the in-process one.
///
/// The in-process server doubles the fd bill: every loopback
/// connection costs this process two descriptors (client end + server
/// end), so a 10k herd needs ~20k fds in one process — over the hard
/// `RLIMIT_NOFILE` in locked-down containers that refuse `setrlimit`.
/// Splitting the ends across two processes halves the per-process
/// cost, which is also the honest C10K methodology: a load generator
/// should not share a descriptor table with the system under test.
fn measure_idle_point_external(
    bin: &str,
    workers: usize,
    csv_path: &str,
    audit: &Request,
    idle: usize,
    requests: usize,
) -> IdleScalingPoint {
    use std::io::BufRead as _;
    use std::process::{Command, Stdio};

    let mut child = Command::new(bin)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
            "--pollers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn external qid serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server announces its address")
            .expect("read server stdout");
        if let Some(rest) = line.split("listening on ").nth(1) {
            let token = rest.split_whitespace().next().expect("address token");
            break token.parse().expect("announced address parses");
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    let _drain = std::thread::spawn(move || for _ in lines {});

    let mut client = Client::connect(addr).expect("connect to external server");
    let ds = match audit {
        Request::Audit { ds, .. } => ds.clone(),
        other => panic!("idle-scaling probe must be an audit, got {other:?}"),
    };
    assert_eq!(ds.path, csv_path, "audit must target the bench workload");
    match client
        .call(&Request::Load {
            ds,
            mode: LoadMode::Memory,
        })
        .expect("load on external server")
    {
        Response::Loaded { .. } => {}
        other => panic!("external load failed: {other:?}"),
    }
    let point = measure_idle_point(&mut client, addr, audit, idle, requests);
    match client.call(&Request::Shutdown).expect("shutdown external") {
        Response::ShuttingDown => {}
        other => panic!("external shutdown failed: {other:?}"),
    }
    drop(client);
    let status = child.wait().expect("external server exits");
    assert!(status.success(), "external server exit status: {status:?}");
    point
}

/// Reads the server's accepted-connection counter off `metrics`.
fn connections_accepted(client: &mut Client) -> u64 {
    match client.call(&Request::Metrics) {
        Ok(Response::Metrics(report)) => report.connections,
        other => panic!("metrics failed: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_compares_modes() {
        let result = run_server_bench(ServerBenchConfig {
            scale: Scale::Smoke,
            requests: 4,
            eps: 0.05,
            workers: 2,
            // A deliberately small large-herd so the unit test stays
            // inside default fd rlimits (1024 on stock CI runners —
            // herd + server-side peers ≈ 2× the count); the bench
            // binary measures the real 10-vs-1000 acceptance row
            // under the CI step that raises `ulimit -n` first.
            idle_low: 10,
            idle_high: 200,
            idle_10k: None,
            saturation_conns: [2, 4],
            saturation_ms: 400,
        });
        assert_eq!(result.requests, 4);
        assert!(result.served.rps > 0.0);
        assert!(result.oneshot.rps > 0.0);
        assert!(
            result.warm_restart_us > 0.0,
            "the restarted server answered an audit"
        );
        assert!(result.sequential_per_cmd_us > 0.0);
        assert!(result.batched_per_cmd_us > 0.0);
        assert_eq!(result.table.n_rows(), 10);
        // The append row measured real work in both columns (the ≥5×
        // speedup bound is asserted inside the run at full scale; at
        // smoke scale both sides are microseconds of noise).
        assert!(result.append.base_rows > 0);
        assert!(result.append.appended_rows > 0);
        assert!(result.append.absorb_us > 0.0);
        assert!(result.append.rebuild_us > 0.0);
        // The saturation rows: one per configured concurrency, clean
        // transport, real throughput, ordered percentiles.
        assert_eq!(result.saturation.len(), 2);
        for (point, conns) in result.saturation.iter().zip([2usize, 4]) {
            assert_eq!(point.connections, conns);
            assert_eq!(point.mode, "closed");
            assert_eq!(point.transport_errors, 0, "{point:?}");
            assert!(point.requests > 0 && point.rps > 0.0, "{point:?}");
            assert!(point.p50_us > 0.0 && point.p50_us <= point.p99_us);
            assert!(point.p99_us <= point.p999_us);
        }
        let json = result.to_json();
        let parsed = qid_server::json::parse(&json).expect("valid json");
        assert_eq!(parsed.get("bench").and_then(|b| b.as_str()), Some("server"));
        assert!(parsed.get("served").and_then(|s| s.get("rps")).is_some());
        assert!(parsed.get("batch").and_then(|b| b.get("speedup")).is_some());
        assert!(parsed
            .get("append_vs_rebuild")
            .and_then(|a| a.get("speedup"))
            .is_some());
        let saturation = parsed.get("saturation").expect("saturation rows");
        assert!(matches!(saturation, qid_server::json::Json::Arr(rows) if rows.len() == 2));
        assert!(parsed
            .get("idle_scaling")
            .and_then(|i| i.get("p99_ratio"))
            .is_some());
        // The 10k row is opt-in (it costs ~20k fds); unarmed runs
        // emit an explicit null so downstream tooling sees the key.
        assert!(result.idle_10k.is_none());
        assert!(matches!(
            parsed.get("idle_scaling_10k"),
            Some(qid_server::json::Json::Null)
        ));
        // The acceptance bound: a large registered idle herd keeps
        // served-audit p99 within 2× of the 10-connection case. A
        // small absolute slack absorbs scheduler noise when both
        // points are already microsecond-fast (the regression this
        // guards — idle connections re-entering the worker pool —
        // costs seconds, not milliseconds).
        assert_eq!(result.idle_low.idle, 10);
        assert_eq!(result.idle_high.idle, 200);
        assert!(result.idle_low.p99_us > 0.0);
        assert!(
            result.idle_high.p99_us
                <= (result.idle_low.p99_us * 2.0).max(result.idle_low.p99_us + 5_000.0),
            "idle scaling regressed: {:?} vs {:?}",
            result.idle_high,
            result.idle_low
        );
        // At smoke scale the scan is tiny, so both modes do almost the
        // same work and this only guards against the served path being
        // pathologically slower (e.g. a reintroduced Nagle stall). The
        // actual served-faster claim is measured at default/full scale
        // by the bench target, not asserted here: a 500-row fixture
        // cannot witness it flake-free.
        assert!(
            result.served.p50_us < result.oneshot.p50_us * 5.0,
            "served {:?} vs oneshot {:?}",
            result.served,
            result.oneshot
        );
    }
}
