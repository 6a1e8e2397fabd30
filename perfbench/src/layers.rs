//! The traced run's per-layer metrics: the server's own `trace` and
//! `metrics` replies and `/proc` counters over the window, and the
//! benchmark's timed calls into each layer's public functions, each
//! recorded as a span.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use qid_core::filter::{FilterParams, SeparationFilter, TupleSampleFilter};
use qid_core::minkey::{enumerate_minimal_keys, LatticeConfig};
use qid_core::separation::group_sizes;
use qid_core::stream::{sketch_from_stream, tuple_filter_from_stream, TupleIngest};
use qid_dataset::csv::{CsvOptions, CsvTupleSource};
use qid_dataset::{AttrId, TupleSource};
use qid_server::{
    sketch_params, wal, CacheKey, DatasetRef, LoadMode, MetricsReport, Registry, RegistryConfig,
    Request, Response, Scratch, Server, ServerConfig, TraceSpan, DEFAULT_REVALIDATE_MS,
};

use crate::data::{Cmd, DataFile, Key, Req, AUDIT_MAX_KEY_SIZE};
use crate::served::ProcSample;
use crate::stats::{median_f64, median_u64, Tracer};
use crate::verify::SERVED_MAX_CANDIDATES;
use crate::Metric;

/// Repeats of each expensive layer call; the metric is their median.
const REPS: usize = 3;
/// Minimum time spent on each cheap layer call; the metric is the mean.
const CHEAP_BUDGET: Duration = Duration::from_millis(200);

/// The registry journal's position, to count what a window appended.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalMark {
    last_seq: u64,
    bytes_per_event: f64,
}

impl WalMark {
    pub fn read(dir: Option<&Path>) -> WalMark {
        let Some(dir) = dir else {
            return WalMark::default();
        };
        let report = wal::inspect(dir);
        let bytes: usize = report.lines.iter().map(|l| l.len() + 1).sum();
        WalMark {
            last_seq: report.last_seq,
            bytes_per_event: bytes as f64 / report.lines.len().max(1) as f64,
        }
    }
}

/// What the served run left behind.
pub struct Served<'a> {
    pub ring: &'a [TraceSpan],
    pub metrics_before: &'a MetricsReport,
    pub metrics_after: &'a MetricsReport,
    pub proc_before: ProcSample,
    pub proc_after: ProcSample,
    pub wal_before: WalMark,
    pub wal_after: WalMark,
    pub window_ops: f64,
}

/// The client's window records, in send order: command, duration,
/// success and client span; and the traced window's op p50 minus the
/// untraced run's at the same seed.
pub struct Client {
    pub recs: Vec<(Cmd, u64, bool, Option<usize>)>,
    pub overhead_op_p50_us: f64,
}

/// The workload's inputs, for the in-process layer calls.
pub struct Inputs<'a> {
    pub files: &'a [DataFile],
    pub keys: &'a [Key],
    pub reqs: &'a [Req],
    pub expect: &'a [Option<(Vec<u8>, Response)>],
    pub layer_key: usize,
    pub layer_audit_key: usize,
    pub churn_flags: bool,
    pub dir: &'a Path,
}

/// The per-layer metric names and units, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("conn.queue_us", "us"),
    ("conn.serve_us", "us"),
    ("conn.write_us", "us"),
    ("conn.unattributed_us", "us"),
    ("server.ctx_switches_per_op", "count"),
    ("proto.decode_ns", "ns"),
    ("proto.encode_ns", "ns"),
    ("server.answer_line_us.check", "us"),
    ("server.answer_line_us.sketch", "us"),
    ("server.answer_line_us.audit", "us"),
    ("server.answer_line_us.stats", "us"),
    ("server.answer_line_us.load", "us"),
    ("filter.query_us", "us"),
    ("filter.sample_rows", "count"),
    ("minkey.lattice_ms", "ms"),
    ("minkey.group_sizes_us", "us"),
    ("minkey.keys", "count"),
    ("sketch.query_us", "us"),
    ("dataset.csv_scan_rows_per_s", "1/s"),
    ("ingest.build_ms", "ms"),
    ("ingest.pair_build_ms", "ms"),
    ("ingest.absorb_ms", "ms"),
    ("registry.peek_ns", "ns"),
    ("registry.hit_us", "us"),
    ("registry.cold_build_ms", "ms"),
    ("registry.restore_ms", "ms"),
    ("registry.absorb_ms", "ms"),
    ("registry.absorb_bare_ms", "ms"),
    ("registry.absorb_sketch_ms", "ms"),
    ("registry.hits", "count"),
    ("registry.misses", "count"),
    ("registry.disk_hits", "count"),
    ("registry.evictions", "count"),
    ("registry.append_updates", "count"),
    ("registry.stale_rebuilds", "count"),
    ("registry.hit_ratio", "ratio"),
    ("wal.events_per_op", "count"),
    ("wal.bytes_per_op", "B"),
    ("server.disk_write_bytes_per_op", "B"),
    ("trace.overhead_op_p50_us", "us"),
    ("trace.op_self_us", "us"),
    ("trace.spans", "count"),
];

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push(Metric::new(name, value, unit_of(name)));
    }
}

/// Server-side numbers over the window, and the client spans tied to
/// the server's spans.
fn served_layers(
    out: &mut Out,
    served: &Served,
    client: &Client,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let checks: Vec<&TraceSpan> = served
        .ring
        .iter()
        .filter(|s| s.command == "check")
        .collect();
    if checks.is_empty() {
        return Err("the trace ring holds no check spans".to_string());
    }
    let p50 = |f: fn(&TraceSpan) -> u64| {
        median_u64(&checks.iter().map(|s| f(s)).collect::<Vec<_>>()) as f64
    };
    let (queue, serve, write) = (
        p50(|s| s.queue_us),
        p50(|s| s.serve_us),
        p50(|s| s.write_us),
    );
    let client_checks: Vec<u64> = client
        .recs
        .iter()
        .filter(|r| r.0 == Cmd::Check && r.2)
        .map(|r| r.1)
        .collect();
    let client_check_us = median_u64(&client_checks) as f64 / 1e3;
    out.put("conn.queue_us", queue);
    out.put("conn.serve_us", serve);
    out.put("conn.write_us", write);
    out.put(
        "conn.unattributed_us",
        client_check_us - queue - serve - write,
    );
    let ops = served.window_ops;
    out.put(
        "server.ctx_switches_per_op",
        served
            .proc_after
            .ctx_switches
            .saturating_sub(served.proc_before.ctx_switches) as f64
            / ops,
    );

    // The ring is newest first and ids rise in serve order. On one
    // connection the newest spans are the newest window ops one for one;
    // with two connections the interleaving is approximate.
    let mut ring: Vec<&TraceSpan> = served.ring.iter().collect();
    ring.sort_by_key(|s| s.id);
    let mut matched = Vec::new();
    for (span, rec) in ring.iter().rev().zip(client.recs.iter().rev()) {
        let (cmd, _, _, client_span) = *rec;
        let Some(parent) = client_span else { continue };
        if span.command != cmd.wire() {
            continue;
        }
        let p = &tracer.spans[parent];
        let (start, mut end, op) = (p.start_ns, p.end_ns, p.op);
        for (name, us) in [
            ("server.write", span.write_us),
            ("server.serve", span.serve_us),
            ("server.queue", span.queue_us),
        ] {
            // The ring gives durations only: place them back to back,
            // ending with the client span.
            let begin = end.saturating_sub(us * 1000).max(start);
            tracer.record(name, begin, end, Some(parent), op);
            end = begin;
        }
        matched.push(parent);
    }
    if matched.is_empty() {
        return Err("no client span matched a server span".to_string());
    }
    let own = tracer.self_times_ns();
    out.put(
        "trace.op_self_us",
        median_u64(&matched.iter().map(|&i| own[i]).collect::<Vec<_>>()) as f64 / 1e3,
    );
    out.put("trace.overhead_op_p50_us", client.overhead_op_p50_us);
    let (a, b) = (served.metrics_after, served.metrics_before);
    let d = |x: u64, y: u64| x.saturating_sub(y) as f64;
    let (hits, misses, disk) = (
        d(a.cache_hits, b.cache_hits),
        d(a.cache_misses, b.cache_misses),
        d(a.cache_disk_hits, b.cache_disk_hits),
    );
    out.put("registry.hits", hits);
    out.put("registry.misses", misses);
    out.put("registry.disk_hits", disk);
    out.put(
        "registry.evictions",
        d(a.cache_evictions, b.cache_evictions),
    );
    out.put(
        "registry.append_updates",
        d(a.cache_append_updates, b.cache_append_updates),
    );
    out.put(
        "registry.stale_rebuilds",
        d(a.cache_stale_rebuilds, b.cache_stale_rebuilds),
    );
    out.put("registry.hit_ratio", hits / (hits + misses + disk).max(1.0));
    let events = served
        .wal_after
        .last_seq
        .saturating_sub(served.wal_before.last_seq) as f64;
    out.put("wal.events_per_op", events / ops);
    out.put(
        "wal.bytes_per_op",
        events * served.wal_after.bytes_per_event / ops,
    );
    out.put(
        "server.disk_write_bytes_per_op",
        served
            .proc_after
            .write_bytes
            .saturating_sub(served.proc_before.write_bytes) as f64
            / ops,
    );
    Ok(())
}

/// Times `f` `REPS` times under `group`; returns the median seconds and
/// the last result.
fn reps<T>(
    tracer: &mut Tracer,
    group: usize,
    name: &'static str,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for rep in 0..REPS {
        let (result, s) = tracer.time(name, Some(group), rep as u64, &mut f);
        last = Some(result?);
        secs.push(s);
    }
    Ok((median_f64(&secs), last.expect("REPS > 0")))
}

/// Runs `f` over `items` repeatedly for at least [`CHEAP_BUDGET`] and
/// returns the mean seconds per item, as one span.
fn mean_per_item<I>(
    tracer: &mut Tracer,
    group: usize,
    name: &'static str,
    items: &[I],
    mut f: impl FnMut(&I),
) -> f64 {
    let start_ns = tracer.now_ns();
    let start = Instant::now();
    let mut n = 0usize;
    while start.elapsed() < CHEAP_BUDGET || n == 0 {
        for item in items {
            f(item);
        }
        n += items.len();
    }
    let secs = start.elapsed().as_secs_f64();
    let end_ns = tracer.now_ns();
    tracer.record(name, start_ns, end_ns, Some(group), 0);
    secs / n as f64
}

fn open(path: &Path) -> Result<CsvTupleSource, String> {
    CsvTupleSource::open(path, &CsvOptions::default())
        .map_err(|e| format!("opening {}: {e}", path.display()))
}

fn ids(attrs: &[usize]) -> Vec<AttrId> {
    attrs.iter().map(|&a| AttrId::new(a)).collect()
}

fn append(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(bytes))
        .map_err(|e| format!("appending to {}: {e}", path.display()))
}

fn ds_at(path: &Path, key: &Key, eps: f64) -> DatasetRef {
    DatasetRef {
        path: path.to_str().expect("utf-8 path").to_string(),
        eps,
        seed: key.seed,
    }
}

/// Every per-layer metric of the traced run, in [`PER_LAYER`] order.
pub fn measure(
    inputs: &Inputs,
    served: &Served,
    client: &Client,
    tracer: &mut Tracer,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let mut out = Out(Vec::new());
    let group = tracer.open("layer.served", None);
    served_layers(&mut out, served, client, tracer)?;
    tracer.close(group);

    let key = &inputs.keys[inputs.layer_key];
    let audit_key = &inputs.keys[inputs.layer_audit_key];
    let file = &inputs.files[key.file];
    let base = file.prefix_bytes(0);
    let layer_csv = inputs.dir.join("layer.csv");
    std::fs::write(&layer_csv, &base)
        .map_err(|e| format!("writing {}: {e}", layer_csv.display()))?;
    let reqs_of = |cmd: Cmd, k: usize| -> Vec<&Req> {
        inputs
            .reqs
            .iter()
            .filter(|r| r.cmd == cmd && r.key == k)
            .collect()
    };
    let checks = reqs_of(Cmd::Check, inputs.layer_key);
    let sketches = reqs_of(Cmd::Sketch, inputs.layer_key);

    // dataset + ingest
    let group = tracer.open("layer.ingest", None);
    let (scan_s, rows) = reps(tracer, group, "dataset.csv_scan", || {
        let mut src = open(&layer_csv)?;
        while src.next_tuple().map_err(|e| e.to_string())?.is_some() {}
        Ok(src.rows_read())
    })?;
    let params = FilterParams::new(key.eps);
    let (build_s, filter) = reps(tracer, group, "ingest.build", || {
        tuple_filter_from_stream(&mut open(&layer_csv)?, params, key.seed)
            .map_err(|e| e.to_string())
    })?;
    let (pair_s, sketch) = reps(tracer, group, "ingest.pair_build", || {
        sketch_from_stream(&mut open(&layer_csv)?, sketch_params(), key.seed)
            .map_err(|e| e.to_string())
    })?;
    // A paused ingest over the base, resumed over one appended chunk.
    let ingest_csv = inputs.dir.join("ingest.csv");
    std::fs::write(&ingest_csv, &base).map_err(|e| e.to_string())?;
    let mut src = open(&ingest_csv)?;
    let names = src.attr_names();
    let mut ingest = TupleIngest::new(names.clone(), params, key.seed);
    while let Some(t) = src.next_tuple().map_err(|e| e.to_string())? {
        ingest.push(t);
    }
    let checkpoint = ingest.checkpoint();
    let items: Vec<Vec<_>> = ingest
        .to_filter(params)
        .map_err(|e| e.to_string())?
        .sample()
        .rows()
        .map(|r| r.to_vec())
        .collect();
    append(&ingest_csv, file.chunk_bytes(0))?;
    let chunk_len = file.chunk_bytes(0).len() as u64;
    let (absorb_s, _) = reps(tracer, group, "ingest.absorb", || {
        let mut resumed = TupleIngest::resume(names.clone(), checkpoint, items.clone())
            .ok_or("resume refused the checkpoint")?;
        let mut suffix = CsvTupleSource::open_suffix(
            &ingest_csv,
            base.len() as u64,
            chunk_len,
            names.clone(),
            &CsvOptions::default(),
        )
        .map_err(|e| e.to_string())?;
        while let Some(t) = suffix.next_tuple().map_err(|e| e.to_string())? {
            resumed.push(t);
        }
        resumed.to_filter(params).map_err(|e| e.to_string())
    })?;
    tracer.close(group);

    // filter, sketch, minkey
    let group = tracer.open("layer.core", None);
    let sets: Vec<Vec<AttrId>> = checks.iter().map(|r| ids(&r.attrs)).collect();
    let query_s = mean_per_item(tracer, group, "filter.query", &sets, |a| {
        std::hint::black_box(filter.query(std::hint::black_box(a)));
    });
    let sketch_sets: Vec<Vec<AttrId>> = sketches.iter().map(|r| ids(&r.attrs)).collect();
    let sketch_s = mean_per_item(tracer, group, "sketch.query", &sketch_sets, |a| {
        std::hint::black_box(sketch.query(std::hint::black_box(a)));
    });
    let audit_filter: TupleSampleFilter = if inputs.layer_audit_key == inputs.layer_key {
        filter.clone()
    } else {
        tuple_filter_from_stream(
            &mut open(&layer_csv)?,
            FilterParams::new(audit_key.eps),
            audit_key.seed,
        )
        .map_err(|e| e.to_string())?
    };
    let sample = audit_filter.sample();
    let (lattice_s, keys) = reps(tracer, group, "minkey.lattice", || {
        Ok(enumerate_minimal_keys(
            sample,
            LatticeConfig {
                max_size: AUDIT_MAX_KEY_SIZE,
                max_candidates: SERVED_MAX_CANDIDATES,
            },
        ))
    })?;
    let group_s = if keys.is_empty() {
        0.0
    } else {
        mean_per_item(tracer, group, "minkey.group_sizes", &keys, |k| {
            std::hint::black_box(group_sizes(sample, k));
        })
    };
    tracer.close(group);

    // proto
    let group = tracer.open("layer.proto", None);
    let lines: Vec<&str> = inputs
        .reqs
        .iter()
        .map(|r| std::str::from_utf8(&r.line).expect("ascii request"))
        .collect();
    let decode_s = mean_per_item(tracer, group, "proto.decode", &lines, |l| {
        std::hint::black_box(Request::decode(l).expect("own request decodes"));
    });
    let responses: Vec<&Response> = inputs.expect.iter().flatten().map(|(_, r)| r).collect();
    let encode_s = mean_per_item(tracer, group, "proto.encode", &responses, |r| {
        std::hint::black_box(r.encode());
    });
    tracer.close(group);

    // server: answer_line on an in-process state, no sockets
    let group = tracer.open("layer.server", None);
    let answer = answer_line_layer(inputs, key, audit_key, &layer_csv, tracer, group)?;
    tracer.close(group);

    // registry under the served configuration
    let group = tracer.open("layer.registry", None);
    let reg = registry_layer(inputs, key, &base, file, tracer, group, notes)?;
    tracer.close(group);

    out.put("proto.decode_ns", decode_s * 1e9);
    out.put("proto.encode_ns", encode_s * 1e9);
    for (cmd, secs) in answer {
        let name = format!("server.answer_line_us.{cmd}");
        out.0.push(Metric::new(&name, secs * 1e6, unit_of(&name)));
    }
    out.put("filter.query_us", query_s * 1e6);
    out.put("filter.sample_rows", filter.sample().n_rows() as f64);
    out.put("minkey.lattice_ms", lattice_s * 1e3);
    out.put("minkey.group_sizes_us", group_s * 1e6);
    out.put("minkey.keys", keys.len() as f64);
    out.put("sketch.query_us", sketch_s * 1e6);
    out.put("dataset.csv_scan_rows_per_s", rows as f64 / scan_s);
    out.put("ingest.build_ms", build_s * 1e3);
    out.put("ingest.pair_build_ms", pair_s * 1e3);
    out.put("ingest.absorb_ms", absorb_s * 1e3);
    for (name, value) in reg {
        out.put(name, value);
    }
    out.put("trace.spans", tracer.spans.len() as f64);
    let mut metrics = out.0;
    metrics.sort_by_key(|m| {
        PER_LAYER
            .iter()
            .position(|(n, _)| *n == m.name)
            .expect("known metric")
    });
    Ok(metrics)
}

/// `ServerState::answer_line` per command, seconds per line.
fn answer_line_layer(
    inputs: &Inputs,
    key: &Key,
    audit_key: &Key,
    layer_csv: &Path,
    tracer: &mut Tracer,
    group: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let cache_dir = inputs.dir.join("answer-cache");
    crate::data::fresh_dir(&cache_dir)?;
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        pollers: 1,
        cache_dir: inputs
            .churn_flags
            .then(|| cache_dir.to_str().expect("utf-8").to_string()),
        ..ServerConfig::default()
    };
    let server = Server::bind(&config).map_err(|e| format!("binding in-process server: {e}"))?;
    let state = server.state();
    let mut scratch = Scratch::new();
    let mut buf = Vec::new();
    let ds = ds_at(layer_csv, key, key.eps);
    let audit_ds = ds_at(layer_csv, audit_key, audit_key.eps);
    let line = |r: &Request| r.encode();
    let loads = [
        line(&Request::Load {
            ds: ds.clone(),
            mode: LoadMode::Stream,
        }),
        line(&Request::Load {
            ds: audit_ds.clone(),
            mode: LoadMode::Stream,
        }),
    ];
    let names: Vec<String> = inputs.files[key.file].names();
    let attr_lines = |cmd: Cmd| -> Vec<String> {
        inputs
            .reqs
            .iter()
            .filter(|r| r.cmd == cmd && r.key == inputs.layer_key)
            .map(|r| {
                let attrs = r.attrs.iter().map(|&a| names[a].clone()).collect();
                let ds = ds.clone();
                line(&if cmd == Cmd::Check {
                    Request::Check { ds, attrs }
                } else {
                    Request::Sketch { ds, attrs }
                })
            })
            .collect()
    };
    let checks = attr_lines(Cmd::Check);
    let sketches = attr_lines(Cmd::Sketch);
    let audit = [line(&Request::Audit {
        ds: audit_ds,
        max_key_size: AUDIT_MAX_KEY_SIZE,
    })];
    let stats = [line(&Request::Stats { ds: ds.clone() })];
    let mut answer = |l: &String| {
        buf.clear();
        state.answer_line(l.as_bytes(), &mut scratch, &mut buf);
        std::hint::black_box(&buf);
    };
    // Warm: load both keys and build the sketch before timing.
    for l in loads.iter().chain(&sketches[..1]) {
        answer(l);
    }
    let mut result = vec![
        (
            "check",
            mean_per_item(
                tracer,
                group,
                "server.answer_line.check",
                &checks,
                &mut answer,
            ),
        ),
        (
            "sketch",
            mean_per_item(
                tracer,
                group,
                "server.answer_line.sketch",
                &sketches,
                &mut answer,
            ),
        ),
    ];
    let (audit_s, _) = reps(tracer, group, "server.answer_line.audit", || {
        answer(&audit[0]);
        Ok(())
    })?;
    result.push(("audit", audit_s));
    result.push((
        "stats",
        mean_per_item(
            tracer,
            group,
            "server.answer_line.stats",
            &stats,
            &mut answer,
        ),
    ));
    result.push((
        "load",
        mean_per_item(
            tracer,
            group,
            "server.answer_line.load",
            &loads[..1],
            &mut answer,
        ),
    ));
    Ok(result)
}

fn served_config(dir: Option<PathBuf>, cache_bytes: Option<u64>) -> RegistryConfig {
    RegistryConfig {
        cache_dir: dir,
        cache_bytes,
        revalidate_ms: DEFAULT_REVALIDATE_MS,
        ..RegistryConfig::default()
    }
}

/// Registry calls: lookups, builds, restores and absorbs.
fn registry_layer(
    inputs: &Inputs,
    key: &Key,
    base: &[u8],
    file: &DataFile,
    tracer: &mut Tracer,
    group: usize,
    notes: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let dir = inputs.dir;
    let csv = dir.join("registry.csv");
    std::fs::write(&csv, base).map_err(|e| e.to_string())?;
    // A file modified moments ago is "racy": every hit re-hashes its
    // prefix. Back-date it so hits time the steady state of a file that
    // is not being written.
    std::fs::File::options()
        .write(true)
        .open(&csv)
        .and_then(|f| f.set_modified(SystemTime::now() - Duration::from_secs(60)))
        .map_err(|e| format!("back-dating {}: {e}", csv.display()))?;
    let ds = ds_at(&csv, key, key.eps);
    let mut out = Vec::new();

    // Cold builds, each on a fresh registry and cache dir.
    let mut rep = 0;
    let (cold_s, registry) = reps(tracer, group, "registry.cold_build", || {
        rep += 1;
        let cache = dir.join(format!("cold-{rep}"));
        crate::data::fresh_dir(&cache)?;
        let registry = Registry::with_config(served_config(Some(cache), None));
        registry.get_or_load(&ds, LoadMode::Stream).0?;
        Ok(registry)
    })?;
    let hit_s = mean_per_item(tracer, group, "registry.hit", &[()], |_| {
        std::hint::black_box(registry.get_or_load(&ds, LoadMode::Stream).0.is_ok());
    });
    let cache_key = CacheKey::of(&ds);
    let peek_s = mean_per_item(tracer, group, "registry.peek", &[(); 64], |_| {
        std::hint::black_box(registry.peek(&cache_key));
    });
    if registry.peek(&cache_key).is_none() {
        return Err("registry.peek missed a resident entry".to_string());
    }
    drop(registry);

    // Restores: a one-byte budget evicts each key when the other loads.
    let cache = dir.join("restore");
    crate::data::fresh_dir(&cache)?;
    let registry = Registry::with_config(served_config(Some(cache), Some(1)));
    let other = ds_at(&csv, key, 0.5);
    let entry = registry.get_or_load(&ds, LoadMode::Stream).0?;
    registry.sketch_for(&ds, &entry)?;
    registry.get_or_load(&other, LoadMode::Stream).0?;
    let before = registry.disk_hits();
    let mut secs = Vec::new();
    for rep in 0..REPS {
        let (restored, s) = tracer.time("registry.restore", Some(group), rep as u64, || {
            registry.get_or_load(&ds, LoadMode::Stream).0
        });
        restored?;
        secs.push(s);
        registry.get_or_load(&other, LoadMode::Stream).0?;
    }
    let restore_s = median_f64(&secs);
    if registry.disk_hits() < before + 2 * REPS as u64 {
        return Err("registry restores did not come from the cache dir".to_string());
    }
    drop(registry);

    // Absorbs: bare, with the sketch, and with the sketch and a cache dir.
    for (name, sketch, cache_dir) in [
        ("registry.absorb_bare_ms", false, false),
        ("registry.absorb_sketch_ms", true, false),
        ("registry.absorb_ms", true, true),
    ] {
        let path = dir.join(format!("absorb-{name}.csv"));
        std::fs::write(&path, base).map_err(|e| e.to_string())?;
        let ds = ds_at(&path, key, key.eps);
        let cache = dir.join(format!("absorb-cache-{name}"));
        crate::data::fresh_dir(&cache)?;
        let registry = if cache_dir || sketch {
            Registry::with_config(served_config(cache_dir.then_some(cache), None))
        } else {
            Registry::new()
        };
        let entry = registry.get_or_load(&ds, LoadMode::Stream).0?;
        if sketch {
            registry.sketch_for(&ds, &entry)?;
        }
        let mut secs = Vec::new();
        for rep in 0..REPS {
            append(&path, file.chunk_bytes(rep))?;
            let (absorbed, s) = tracer.time("registry.absorb", Some(group), rep as u64, || {
                registry.get_or_load(&ds, LoadMode::Stream).0
            });
            absorbed?;
            secs.push(s);
        }
        let secs = median_f64(&secs);
        if registry.append_updates() != REPS as u64 {
            return Err(format!(
                "{name}: {} of {REPS} appends were absorbed",
                registry.append_updates()
            ));
        }
        out.push((name, secs * 1e3));
    }
    notes.push(format!(
        "absorb of {} rows into {} rows: bare, +sketch, +sketch+cache dir (ms) = {:.1}, {:.1}, {:.1}",
        crate::data::CHUNK_ROWS,
        file.base_rows,
        out[0].1,
        out[1].1,
        out[2].1
    ));
    out.extend([
        ("registry.peek_ns", peek_s * 1e9),
        ("registry.hit_us", hit_s * 1e6),
        ("registry.cold_build_ms", cold_s * 1e3),
        ("registry.restore_ms", restore_s * 1e3),
    ]);
    Ok(out)
}
