//! `qid` — command-line quasi-identifier analysis for CSV files.
//!
//! One-shot analysis:
//!
//! ```text
//! qid audit  data.csv [--eps 0.001] [--seed 7] [--max-key-size 4]
//! qid key    data.csv [--eps 0.001] [--seed 7] [--exact]
//! qid check  data.csv --attrs zip,age,sex [--eps 0.001] [--seed 7]
//! qid mask   data.csv [--eps 0.001] [--budget 2] [--seed 7]
//! qid stats  data.csv
//! ```
//!
//! All commands run on a `Θ(m/√ε)` tuple sample (the paper's
//! Algorithm 1 sampling), so they work at any data size. `audit` and
//! `key` build that sample in one streaming pass (a size-`r`
//! reservoir), so their memory is `O(m/√ε)`, not `O(n·m)`; pass
//! `--exact` to materialise the file instead.
//!
//! Resident service (build the sample once, query it many times):
//!
//! ```text
//! qid serve [--addr 127.0.0.1:0] [--workers 4] [--pollers N]
//!           [--max-conns N] [--cache-bytes N[K|M|G]] [--cache-dir DIR]
//!           [--cache-disk-bytes N[K|M|G]]
//!           [--max-line-bytes N[K|M|G]] [--max-rps N]
//!           [--revalidate-ms MS] [--sweep-ms MS]
//!           [--metrics-addr HOST:PORT] [--slow-ms MS] [--log-json]
//!           [--wal-max-bytes N[K|M|G]]
//! qid wal   <cache-dir> [--verify] [--dump]
//! qid query <addr> load    data.csv [--eps E] [--seed S] [--stream]
//! qid query <addr> audit   data.csv [--eps E] [--seed S] [--max-key-size K]
//! qid query <addr> key     data.csv [--eps E] [--seed S]
//! qid query <addr> check   data.csv --attrs a,b [--eps E] [--seed S]
//! qid query <addr> sketch  data.csv --attrs a,b [--eps E] [--seed S]
//! qid query <addr> mask    data.csv [--eps E] [--seed S] [--budget B]
//! qid query <addr> stats   data.csv
//! qid query <addr> batch   -        # NDJSON sub-commands on stdin
//! qid query <addr> unload  data.csv [--eps E] [--seed S]
//! qid query <addr> unload  --all    # purge every cached entry + artifact
//! qid query <addr> trace   [--last N] [--command CMD] [--min-us N]
//! qid query <addr> metrics
//! qid query <addr> shutdown
//! ```
//!
//! Saturation load testing (see docs/BENCHMARKS.md for the handbook):
//!
//! ```text
//! qid bench <addr> <data.csv> [--connections N] [--duration-s S]
//!           [--warmup-s S] [--seed S] [--eps E]
//!           [--mode closed|open] [--rate RPS] [--check-only] [--json]
//! ```
//!
//! `bench` opens N concurrent connections against a running server,
//! drives a seeded synthetic request mix (check-heavy, plus stats /
//! sketch / audit / batch) for a time-boxed window, and reports
//! throughput with p50/p99/p999 latency. Closed loop (default) keeps
//! one request outstanding per connection; `--mode open --rate R`
//! sends on a fixed schedule and measures latency from the scheduled
//! send time. Exits non-zero on any transport error.
//!
//! `sketch` returns Theorem 2's Γ-estimate (unseparated-pair count)
//! for an attribute set, answered from a cached non-separation
//! sketch. `batch -` reads one JSON request object per stdin line,
//! sends them as a single `batch` wire line, and prints each result —
//! the server resolves each distinct dataset key once for the whole
//! batch. `--cache-bytes` caps the registry's resident memory (LRU
//! eviction); `--cache-dir` persists built samples so a restarted
//! server warms up without re-scanning sources; `--cache-disk-bytes`
//! caps that warm tier on disk (whole artifact groups evicted
//! oldest-first). `--sweep-ms` arms a background revalidation thread
//! that refreshes stale or appended sources ahead of traffic — with
//! it, an append-only CSV that grows between queries is absorbed
//! incrementally (only the new suffix is scanned) before the next
//! request arrives. See README "Cache lifecycle".
//!
//! With `--cache-dir` set the registry also keeps a write-ahead journal
//! of lifecycle events plus a periodic snapshot (`--wal-max-bytes`
//! bounds the journal, `0` disables it). A restarted server replays the
//! journal to resume its cumulative counters and eagerly re-admit the
//! previous resident set; a journal without a clean-shutdown record is
//! crash evidence that lets orphaned `*.tmp` build files be reclaimed
//! immediately. `qid wal <cache-dir>` prints the recovered state
//! (`--dump` shows raw records, `--verify` exits non-zero on
//! corruption). See docs/ARCHITECTURE.md "Durability".
//!
//! The server's connection core is readiness-driven (`epoll` on Linux,
//! `kqueue` on macOS/BSD, `poll(2)` fallback), sharded across
//! `--pollers` readiness threads (default: one per core, capped at 4):
//! idle keep-alive connections cost no worker time, so tens of
//! thousands of quiet clients can stay connected, and a stalled reader
//! only write-parks its own connection instead of pinning a worker.
//! Three knobs harden it against untrusted clients: `--max-conns` caps
//! concurrent connections (beyond it, accepts are answered with a
//! structured `too_busy` error and closed), `--max-line-bytes` caps
//! the request-line length (default 256K; longer lines get a
//! structured `line_too_long` error in O(cap) memory and the
//! connection survives) and `--max-rps` rate-limits each connection
//! with a token bucket (default off; over-budget lines get
//! `rate_limited` before they are decoded).
//!
//! Observability (see docs/ARCHITECTURE.md "Observability"): the
//! server records a trace span for every request into a fixed-size
//! ring, queryable live with `qid query <addr> trace`; `--metrics-addr`
//! serves Prometheus text-format metrics over plain HTTP GET
//! (`/metrics`); `--slow-ms` prints one NDJSON line on stderr per
//! request slower than the threshold; `--log-json` adds NDJSON cache
//! lifecycle events (build, restore, evict, stale-rebuild, unload,
//! purge) and rejection events.

use std::process::ExitCode;

use quasi_id::core::filter::SeparationFilter;
use quasi_id::core::masking::plan_masking;
use quasi_id::core::minkey::{
    enumerate_minimal_keys, exact_min_key_sampled, GreedyRefineMinKey, LatticeConfig,
};
use quasi_id::core::separation::group_sizes;
use quasi_id::core::stream::tuple_filter_from_stream;
use quasi_id::dataset::csv::{read_csv_path, CsvOptions, CsvTupleSource};
use quasi_id::prelude::*;
use quasi_id::server::metrics::Lifecycle;
use quasi_id::server::proto::{DatasetRef, LoadMode, Request, Response, DEFAULT_TRACE_LAST};
use quasi_id::server::{resolve_attr_names, split_attr_spec, Client, Server, ServerConfig};

/// Prints one line to stdout, treating a closed pipe as a clean exit:
/// `qid … | head -1` must not panic with "Broken pipe" when the reader
/// stops early (Rust ignores SIGPIPE, so `println!` would). Any other
/// stdout write failure is a real error and exits non-zero.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let mut out = std::io::stdout();
        if let Err(e) = writeln!(out, $($arg)*) {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                std::process::exit(0);
            }
            eprintln!("error writing to stdout: {e}");
            std::process::exit(1);
        }
    }};
}

/// Parsed command-line options for the one-shot and `query` commands.
struct Opts {
    command: String,
    path: String,
    eps: f64,
    seed: u64,
    attrs: Option<String>,
    max_key_size: usize,
    budget: usize,
    exact: bool,
    stream: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: qid <audit|key|check|mask|stats> <data.csv> \
         [--eps E] [--seed S] [--attrs a,b,c] [--max-key-size K] \
         [--budget B] [--exact]\n\
         \x20      qid serve [--addr HOST:PORT] [--workers N] [--pollers N] \
         [--max-conns N] [--cache-bytes N[K|M|G]] [--cache-dir DIR] \
         [--cache-disk-bytes N[K|M|G]] [--max-line-bytes N[K|M|G]] \
         [--max-rps N] [--revalidate-ms MS] [--sweep-ms MS] \
         [--metrics-addr HOST:PORT] [--slow-ms MS] [--log-json] \
         [--wal-max-bytes N[K|M|G]]\n\
         \x20      qid query <addr> \
         <load|audit|key|check|sketch|mask|stats|batch|unload|trace|metrics|shutdown> \
         [data.csv | - | --all] [flags]\n\
         \x20      qid bench <addr> <data.csv> [--connections N] \
         [--duration-s S] [--warmup-s S] [--seed S] [--eps E] \
         [--mode closed|open] [--rate RPS] [--check-only] [--json]\n\
         \x20      qid wal <cache-dir> [--verify] [--dump]"
    );
    std::process::exit(2);
}

fn parse_opts(command: String, path: String, args: &[String]) -> Opts {
    let mut opts = Opts {
        command,
        path,
        eps: 0.001,
        seed: 7,
        attrs: None,
        max_key_size: 3,
        budget: 2,
        exact: false,
        stream: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut take = |name: &str| -> &String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--eps" => opts.eps = take("--eps").parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = take("--seed").parse().unwrap_or_else(|_| usage()),
            "--attrs" => opts.attrs = Some(take("--attrs").clone()),
            "--max-key-size" => {
                opts.max_key_size = take("--max-key-size").parse().unwrap_or_else(|_| usage())
            }
            "--budget" => opts.budget = take("--budget").parse().unwrap_or_else(|_| usage()),
            "--exact" => opts.exact = true,
            "--stream" => opts.stream = true,
            _ => {
                eprintln!("unknown flag {flag}");
                usage()
            }
        }
    }
    opts
}

/// Resolves a comma-separated attribute spec against a dataset,
/// dropping duplicates (first occurrence wins) with a warning: a
/// repeated attribute adds no separation power but silently inflates
/// the apparent key size.
fn resolve_attrs(ds: &Dataset, spec: &str) -> Result<Vec<AttrId>, String> {
    let resolved = resolve_attr_names(ds.schema(), ds.n_attrs(), &split_attr_spec(spec))?;
    for dup in &resolved.duplicates {
        eprintln!("warning: duplicate attribute {dup:?} ignored");
    }
    Ok(resolved.attrs)
}

fn names(ds: &Dataset, attrs: &[AttrId]) -> Vec<String> {
    attrs
        .iter()
        .map(|&a| ds.schema().attr(a).name().to_string())
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        usage()
    };
    match command.as_str() {
        "serve" => cmd_serve(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "wal" => cmd_wal(&args[1..]),
        _ => {
            let Some(path) = args.get(1).cloned() else {
                usage()
            };
            cmd_oneshot(parse_opts(command, path, &args[2..]))
        }
    }
}

// ---------------------------------------------------------------- serve

/// Parses a byte count with an optional `K`/`M`/`G` suffix
/// (case-insensitive, powers of 1024): `"64M"` → 67108864. Overflow is
/// an error, not a silent wrap.
fn parse_bytes(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, shift) = match text.as_bytes().last()? {
        b'k' | b'K' => (&text[..text.len() - 1], 10),
        b'm' | b'M' => (&text[..text.len() - 1], 20),
        b'g' | b'G' => (&text[..text.len() - 1], 30),
        _ => (text, 0),
    };
    digits.parse::<u64>().ok()?.checked_mul(1u64 << shift)
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut config = ServerConfig::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut take = |name: &str| -> &String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = take("--addr").clone(),
            "--workers" => config.workers = take("--workers").parse().unwrap_or_else(|_| usage()),
            "--pollers" => {
                let pollers: usize = take("--pollers").parse().unwrap_or_else(|_| {
                    eprintln!("--pollers wants a positive shard count");
                    usage()
                });
                if pollers == 0 {
                    eprintln!("--pollers must be >= 1");
                    usage()
                }
                config.pollers = pollers;
            }
            "--max-conns" => {
                config.max_conns = take("--max-conns").parse().unwrap_or_else(|_| {
                    eprintln!("--max-conns wants a connection cap (0 disables)");
                    usage()
                });
            }
            "--cache-bytes" => {
                config.cache_bytes = Some(parse_bytes(take("--cache-bytes")).unwrap_or_else(|| {
                    eprintln!("--cache-bytes wants an integer with an optional K/M/G suffix");
                    usage()
                }))
            }
            "--cache-dir" => config.cache_dir = Some(take("--cache-dir").clone()),
            "--cache-disk-bytes" => {
                config.cache_disk_bytes =
                    Some(parse_bytes(take("--cache-disk-bytes")).unwrap_or_else(|| {
                        eprintln!(
                            "--cache-disk-bytes wants an integer with an optional K/M/G suffix"
                        );
                        usage()
                    }))
            }
            "--max-line-bytes" => {
                let bytes = parse_bytes(take("--max-line-bytes")).unwrap_or_else(|| {
                    eprintln!("--max-line-bytes wants an integer with an optional K/M/G suffix");
                    usage()
                });
                if bytes == 0 || bytes > usize::MAX as u64 {
                    eprintln!("--max-line-bytes must be between 1 and usize::MAX");
                    usage()
                }
                config.max_line_bytes = bytes as usize;
            }
            "--max-rps" => {
                let rps: u32 = take("--max-rps").parse().unwrap_or_else(|_| {
                    eprintln!("--max-rps wants a non-negative integer (0 disables)");
                    usage()
                });
                // 0 keeps the default (unlimited) explicit.
                config.max_rps = (rps > 0).then_some(rps);
            }
            "--revalidate-ms" => {
                config.revalidate_ms = take("--revalidate-ms").parse().unwrap_or_else(|_| {
                    eprintln!(
                        "--revalidate-ms wants a window in milliseconds \
                         (0 restores stat-per-request freshness checks)"
                    );
                    usage()
                });
            }
            "--sweep-ms" => {
                config.sweep_ms = take("--sweep-ms").parse().unwrap_or_else(|_| {
                    eprintln!(
                        "--sweep-ms wants a background revalidation interval \
                         in milliseconds (0 disables the sweeper)"
                    );
                    usage()
                });
            }
            "--metrics-addr" => config.metrics_addr = Some(take("--metrics-addr").clone()),
            "--slow-ms" => {
                config.slow_ms = Some(take("--slow-ms").parse().unwrap_or_else(|_| {
                    eprintln!("--slow-ms wants a threshold in milliseconds");
                    usage()
                }));
            }
            "--log-json" => config.log_json = true,
            "--wal-max-bytes" => {
                config.wal_max_bytes = parse_bytes(take("--wal-max-bytes")).unwrap_or_else(|| {
                    eprintln!(
                        "--wal-max-bytes wants an integer with an optional \
                             K/M/G suffix (0 disables the registry journal)"
                    );
                    usage()
                })
            }
            _ => {
                eprintln!("unknown flag {flag}");
                usage()
            }
        }
    }
    let server = match Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error binding {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    // The test harness (and shell scripts) parse this line for the
    // resolved ephemeral port; flush so they see it immediately. Writes
    // go through `write!` with errors ignored: the supervising process
    // may close its end of the pipe once it has the address.
    use std::io::Write as _;
    let mut stdout = std::io::stdout();
    let _ = writeln!(
        stdout,
        "qid-server listening on {} (workers = {}, pollers = {}, poller = {}, \
         max-conns = {}, max-line-bytes = {}, max-rps = {}, revalidate-ms = {}, \
         sweep-ms = {}, metrics = {})",
        server.local_addr(),
        config.workers.max(1),
        config.pollers.max(1),
        quasi_id::server::backend_name(),
        if config.max_conns == 0 {
            "off".to_string()
        } else {
            config.max_conns.to_string()
        },
        config.max_line_bytes,
        config
            .max_rps
            .map_or("off".to_string(), |rps| rps.to_string()),
        config.revalidate_ms,
        if config.sweep_ms == 0 {
            "off".to_string()
        } else {
            config.sweep_ms.to_string()
        },
        server
            .state()
            .metrics_local_addr()
            .map_or("off".to_string(), |addr| addr.to_string())
    );
    let _ = stdout.flush();
    match server.serve() {
        Ok(()) => {
            let _ = writeln!(stdout, "qid-server drained, shutting down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ------------------------------------------------------------------ wal

/// `qid wal <cache-dir> [--verify] [--dump]` — offline forensics on a
/// cache directory's registry journal. The summary answers "what would
/// the next boot recover"; `--dump` prints the raw records; `--verify`
/// exits non-zero iff the journal is internally inconsistent (a
/// crash-torn tail is expected wear, not corruption).
fn cmd_wal(args: &[String]) -> ExitCode {
    let mut dir: Option<&str> = None;
    let mut verify = false;
    let mut dump = false;
    for arg in args {
        match arg.as_str() {
            "--verify" => verify = true,
            "--dump" => dump = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag for qid wal: {flag}");
                usage()
            }
            path if dir.is_none() => dir = Some(path),
            extra => {
                eprintln!("unexpected argument: {extra}");
                usage()
            }
        }
    }
    let Some(dir) = dir else { usage() };
    let report = quasi_id::server::wal::inspect(std::path::Path::new(dir));
    if !report.had_journal {
        outln!("{dir}: no registry journal (server never ran with a WAL here)");
        return if verify && !report.issues.is_empty() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    match report.snapshot_seq {
        Some(seq) => outln!("snapshot: through seq {seq}, {} keys", report.snapshot_keys),
        None => outln!("snapshot: none (journal has not rotated yet)"),
    }
    outln!(
        "journal: {} records, seq {}..={}, {} prior lives",
        report.events,
        report.first_seq,
        report.last_seq,
        report.restarts
    );
    outln!(
        "shutdown: {}{}",
        if report.clean_shutdown {
            "clean (shutdown record present)"
        } else {
            "unclean — crash evidence; tmp orphans reclaimable immediately"
        },
        if report.torn_tail {
            "; torn final record (killed mid-write)"
        } else {
            ""
        }
    );
    outln!(
        "resident: {} keys would be re-admitted on the next boot",
        report.resident
    );
    outln!(
        "counters: {}",
        lifecycle_list(&Lifecycle::ALL, |c| report.counters[c])
    );
    if dump {
        for line in &report.lines {
            outln!("{line}");
        }
    }
    if report.issues.is_empty() {
        if verify {
            outln!("verify: ok");
        }
        ExitCode::SUCCESS
    } else {
        for issue in &report.issues {
            eprintln!("issue: {issue}");
        }
        if verify {
            eprintln!("verify: {} issue(s)", report.issues.len());
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

// ---------------------------------------------------------------- query

/// Reads NDJSON sub-commands from stdin (one request object per line,
/// blank lines skipped) for `qid query <addr> batch -`.
fn read_batch_from_stdin() -> Result<Vec<Request>, String> {
    use std::io::BufRead as _;
    let stdin = std::io::stdin();
    let mut requests = Vec::new();
    for (i, line) in stdin.lock().lines().enumerate() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let request =
            Request::decode(line.trim()).map_err(|e| format!("stdin line {}: {e}", i + 1))?;
        if matches!(request, Request::Batch { .. } | Request::Shutdown) {
            return Err(format!(
                "stdin line {}: {:?} is not allowed inside a batch",
                i + 1,
                request.command_name()
            ));
        }
        requests.push(request);
    }
    Ok(requests)
}

fn cmd_query(args: &[String]) -> ExitCode {
    let (Some(addr), Some(command)) = (args.first(), args.get(1)) else {
        usage()
    };
    if command == "batch" {
        // `batch -`: sub-commands are full JSON request lines on stdin
        // (paths are forwarded verbatim — write server-side paths).
        if args.get(2).map(String::as_str) != Some("-") {
            eprintln!("batch reads sub-commands from stdin: qid query <addr> batch -");
            usage()
        }
        let requests = match read_batch_from_stdin() {
            Ok(requests) => requests,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        return send_and_print(addr, &Request::Batch { requests });
    }
    if command == "trace" {
        return cmd_trace(addr, &args[2..]);
    }
    // `unload --all` purges the whole cache; no dataset key involved.
    if command == "unload" && args[2..].iter().any(|a| a == "--all") {
        if args[2..].len() != 1 {
            eprintln!("unload --all takes no other arguments");
            usage()
        }
        return send_and_print(addr, &Request::UnloadAll);
    }
    let needs_path = !matches!(command.as_str(), "metrics" | "shutdown");
    let opts = if needs_path {
        let Some(path) = args.get(2).cloned() else {
            eprintln!("{command} requires a data.csv path");
            usage()
        };
        parse_opts(command.clone(), path, &args[3..])
    } else {
        parse_opts(command.clone(), String::new(), &args[2..])
    };
    // Send the server an absolute path: the daemon's working directory
    // is generally not the client's.
    let path = if needs_path {
        std::fs::canonicalize(&opts.path)
            .ok()
            .and_then(|p| p.to_str().map(str::to_string))
            .unwrap_or_else(|| opts.path.clone())
    } else {
        String::new()
    };
    let ds = DatasetRef {
        path,
        eps: opts.eps,
        seed: opts.seed,
    };
    let request = match command.as_str() {
        "load" => Request::Load {
            ds,
            mode: if opts.stream {
                LoadMode::Stream
            } else {
                LoadMode::Memory
            },
        },
        "audit" => Request::Audit {
            ds,
            max_key_size: opts.max_key_size,
        },
        "key" => Request::Key { ds },
        "check" => {
            let Some(spec) = &opts.attrs else {
                eprintln!("check requires --attrs");
                return ExitCode::FAILURE;
            };
            Request::Check {
                ds,
                attrs: split_attr_spec(spec),
            }
        }
        "sketch" => {
            let Some(spec) = &opts.attrs else {
                eprintln!("sketch requires --attrs");
                return ExitCode::FAILURE;
            };
            Request::Sketch {
                ds,
                attrs: split_attr_spec(spec),
            }
        }
        "mask" => Request::Mask {
            ds,
            budget: opts.budget,
        },
        "stats" => Request::Stats { ds },
        "unload" => Request::Unload { ds },
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        other => {
            eprintln!("unknown query command {other:?}");
            usage()
        }
    };
    send_and_print(addr, &request)
}

/// `qid query <addr> trace [--last N] [--command CMD] [--min-us N]` —
/// pulls the newest matching spans out of the server's trace ring.
/// These flags are trace-specific, so they are parsed here rather than
/// in the shared `Opts`.
fn cmd_trace(addr: &str, args: &[String]) -> ExitCode {
    let mut last = DEFAULT_TRACE_LAST;
    let mut command = None;
    let mut min_us = 0u64;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut take = |name: &str| -> &String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--last" => last = take("--last").parse().unwrap_or_else(|_| usage()),
            "--command" => command = Some(take("--command").clone()),
            "--min-us" => min_us = take("--min-us").parse().unwrap_or_else(|_| usage()),
            _ => {
                eprintln!("unknown flag {flag}");
                usage()
            }
        }
    }
    send_and_print(
        addr,
        &Request::Trace {
            last,
            command,
            min_us,
        },
    )
}

/// Connects, sends one request, prints the response.
fn send_and_print(addr: &str, request: &Request) -> ExitCode {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error connecting to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let response = match client.call(request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("request failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_response(&response)
}

/// `"N evictions, N stale rebuilds, …"`: each counter's value, labelled
/// with its WAL name, underscores as spaces.
fn lifecycle_list(counters: &[Lifecycle], value: impl Fn(Lifecycle) -> u64) -> String {
    counters
        .iter()
        .map(|&c| format!("{} {}", value(c), c.name().replace('_', " ")))
        .collect::<Vec<_>>()
        .join(", ")
}

fn print_response(response: &Response) -> ExitCode {
    match response {
        Response::Loaded {
            rows,
            attrs,
            sample,
            cached,
        } => {
            outln!(
                "loaded: {rows} rows x {attrs} attributes; sample = {sample} tuples ({})",
                if *cached { "cache hit" } else { "built" }
            );
        }
        Response::Audit { keys } => {
            outln!("minimal quasi-identifiers (on the cached sample):");
            if keys.is_empty() {
                outln!("  none — no small attribute set identifies the records");
            }
            for (names, frac) in keys.iter().take(25) {
                outln!(
                    "  {names:?} — {:.1}% of sampled rows uniquely identified",
                    100.0 * frac
                );
            }
            if keys.len() > 25 {
                outln!("  … and {} more", keys.len() - 25);
            }
        }
        Response::Key { attrs, complete } => {
            if *complete {
                outln!(
                    "greedy eps-separation key ({} attributes): {attrs:?}",
                    attrs.len()
                );
            } else {
                outln!("no key exists: the sample contains identical tuples");
            }
        }
        Response::Check { attrs, accept } => {
            outln!("{attrs:?}: {}", if *accept { "Accept" } else { "Reject" });
        }
        Response::Mask {
            suppressed,
            residual_key_size,
            full_data,
        } => {
            outln!(
                "suppress{}:",
                if *full_data {
                    ""
                } else {
                    " (planned on the cached sample)"
                }
            );
            if suppressed.is_empty() {
                outln!("  nothing — no quasi-identifier fits that budget");
            }
            for name in suppressed {
                outln!("  {name}");
            }
            match residual_key_size {
                Some(s) => outln!("released view: smallest residual key has {s} attributes"),
                None => outln!("released view: no identifying attribute set remains"),
            }
        }
        Response::Stats {
            rows,
            exact,
            columns,
        } => {
            outln!(
                "{rows} rows; attribute cardinalities{}:",
                if *exact {
                    ""
                } else {
                    " (KMV estimates from the stream sketch)"
                }
            );
            for (name, distinct) in columns {
                outln!(
                    "  {:<24} {:>9} distinct ({:.2}% of rows)",
                    name,
                    distinct,
                    100.0 * *distinct as f64 / (*rows).max(1) as f64
                );
            }
        }
        Response::Sketch {
            attrs,
            estimate,
            raw_pairs,
            sample_pairs,
            alpha,
            rel_error,
            k,
        } => {
            match estimate {
                Some(gamma) => outln!(
                    "{attrs:?}: ~{gamma:.0} unseparated pairs \
                     (within {:.0}% for sets of <= {k} attributes)",
                    100.0 * rel_error
                ),
                None => outln!(
                    "{attrs:?}: small — fewer than alpha = {alpha} of all pairs are \
                     unseparated (the set is close to a key)"
                ),
            }
            outln!("  raw count: {raw_pairs} of {sample_pairs} sampled pairs unseparated");
        }
        Response::Batch { results } => {
            let mut failed = false;
            for (i, result) in results.iter().enumerate() {
                outln!("[{i}]");
                failed |= print_response(result) == ExitCode::FAILURE;
            }
            outln!("batch: {} results", results.len());
            if failed {
                return ExitCode::FAILURE;
            }
        }
        Response::Unloaded { existed } => {
            if *existed {
                outln!("unloaded: entry dropped from the registry");
            } else {
                outln!("unloaded: nothing was cached for that key");
            }
        }
        Response::Metrics(report) => {
            outln!(
                "server: version {}, up {} s",
                report.version,
                report.uptime_seconds
            );
            outln!(
                "durability: {} prior lives of this cache dir, \
                 {} journal events replayed at startup",
                report.restarts,
                report.wal_replayed_events
            );
            outln!(
                "registry: {} datasets ({} bytes resident), {} cache hits, \
                 {} cache misses, {} disk hits",
                report.datasets,
                report.cache_bytes,
                report.cache_hits,
                report.cache_misses,
                report.cache_disk_hits
            );
            // Hits, misses and disk hits are on the `registry:` line.
            let rest = &Lifecycle::ALL[Lifecycle::Evictions as usize..];
            outln!(
                "lifecycle: {}",
                lifecycle_list(rest, |c| (c.row().get)(report))
            );
            outln!(
                "connections: {} accepted; hardening: {} rejected busy, \
                 {} oversize lines rejected, {} rate-limited",
                report.connections,
                report.rejected_busy,
                report.rejected_oversize,
                report.rejected_rate
            );
            if !report.poller_connections.is_empty() {
                outln!(
                    "pollers: {:?} connections per shard, {} writes parked",
                    report.poller_connections,
                    report.writes_parked
                );
            }
            outln!(
                "wire: {} bytes read, {} bytes written \
                 (cross-check against a load harness's sent/received totals)",
                report.bytes_read,
                report.bytes_written
            );
            outln!("command     count  errors  latency_us      p50_us      p99_us");
            for c in &report.commands {
                outln!(
                    "  {:<9} {:>5} {:>7} {:>11} {:>11} {:>11}",
                    c.name,
                    c.count,
                    c.errors,
                    c.latency_us,
                    c.p50_us,
                    c.p99_us
                );
            }
        }
        Response::Trace { spans } => {
            if spans.is_empty() {
                outln!("trace: no matching spans recorded");
            } else {
                outln!(
                    "{:>8}  {:<9} {:<13} {:<16} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9}",
                    "id",
                    "command",
                    "outcome",
                    "key",
                    "queue_us",
                    "serve_us",
                    "write_us",
                    "in_b",
                    "out_b",
                    "age_ms"
                );
                for s in spans {
                    outln!(
                        "{:>8}  {:<9} {:<13} {:<16} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9}",
                        s.id,
                        s.command,
                        s.outcome,
                        if s.key.is_empty() {
                            "-"
                        } else {
                            s.key.as_str()
                        },
                        s.queue_us,
                        s.serve_us,
                        s.write_us,
                        s.bytes_in,
                        s.bytes_out,
                        s.age_ms
                    );
                }
                outln!("trace: {} spans (newest first)", spans.len());
            }
        }
        Response::ShuttingDown => outln!("server shutting down"),
        Response::LineTooLong { limit } => {
            eprintln!(
                "server rejected the request line: longer than the {limit}-byte cap \
                 (split large batches or raise --max-line-bytes)"
            );
            return ExitCode::FAILURE;
        }
        Response::RateLimited { max_rps } => {
            eprintln!(
                "server rate-limited the connection ({max_rps} requests/second); retry later"
            );
            return ExitCode::FAILURE;
        }
        Response::TooBusy { max_conns } => {
            eprintln!(
                "server is at its {max_conns}-connection capacity (--max-conns); retry later"
            );
            return ExitCode::FAILURE;
        }
        Response::Error { message } => {
            eprintln!("server error: {message}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------- bench

/// `qid bench <addr> <data.csv> [flags]` — the saturation load
/// harness (see docs/BENCHMARKS.md). Exits non-zero on transport
/// errors so CI can gate on a clean run.
fn cmd_bench(args: &[String]) -> ExitCode {
    use qid_loadgen::{LoadConfig, LoopMode, MixWeights};

    let (Some(addr), Some(path)) = (args.first().cloned(), args.get(1).cloned()) else {
        eprintln!("bench requires a server address and a data.csv path");
        usage()
    };
    let mut connections = 16usize;
    let mut duration_s = 10.0f64;
    let mut warmup_s = 1.0f64;
    let mut seed = 7u64;
    let mut eps = 0.01f64;
    let mut open = false;
    let mut rate = 0u64;
    let mut check_only = false;
    let mut json = false;
    let mut args = args[2..].iter();
    while let Some(flag) = args.next() {
        let mut take = |name: &str| -> &String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--connections" => {
                connections = take("--connections").parse().unwrap_or_else(|_| usage())
            }
            "--duration-s" => duration_s = take("--duration-s").parse().unwrap_or_else(|_| usage()),
            "--warmup-s" => warmup_s = take("--warmup-s").parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = take("--seed").parse().unwrap_or_else(|_| usage()),
            "--eps" => eps = take("--eps").parse().unwrap_or_else(|_| usage()),
            "--mode" => match take("--mode").as_str() {
                "closed" => open = false,
                "open" => open = true,
                other => {
                    eprintln!("--mode wants closed or open, not {other:?}");
                    usage()
                }
            },
            "--rate" => rate = take("--rate").parse().unwrap_or_else(|_| usage()),
            "--check-only" => check_only = true,
            "--json" => json = true,
            _ => {
                eprintln!("unknown flag {flag}");
                usage()
            }
        }
    }
    if open && rate == 0 {
        eprintln!("--mode open requires --rate RPS (the scheduled aggregate rate)");
        usage()
    }
    // The server resolves paths in its own working directory.
    let path = std::fs::canonicalize(&path)
        .ok()
        .and_then(|p| p.to_str().map(str::to_string))
        .unwrap_or(path);
    let config = LoadConfig {
        addr: addr.clone(),
        path,
        eps,
        seed,
        connections,
        duration: std::time::Duration::from_secs_f64(duration_s.max(0.1)),
        warmup: std::time::Duration::from_secs_f64(warmup_s.max(0.0)),
        mode: if open {
            LoopMode::Open { rps: rate }
        } else {
            LoopMode::Closed
        },
        weights: if check_only {
            MixWeights::check_only()
        } else {
            MixWeights::default()
        },
    };
    let report = match qid_loadgen::run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bench setup failed against {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        outln!("{}", report.to_json());
    } else {
        outln!(
            "{} loop, {} connections, {:.1}s measured (seed {seed}):",
            report.mode,
            report.connections,
            report.elapsed_s
        );
        outln!(
            "  {} requests ({} ok, {} errors) = {:.1} req/s",
            report.requests,
            report.ok,
            report.errors,
            report.rps
        );
        outln!(
            "  latency p50 {:.0} us, p99 {:.0} us, p999 {:.0} us",
            report.p50_us,
            report.p99_us,
            report.p999_us
        );
        outln!(
            "  wire: {} bytes sent, {} bytes received \
             (server-side totals: qid query {addr} metrics)",
            report.bytes_sent,
            report.bytes_received
        );
    }
    if report.transport_errors > 0 {
        eprintln!(
            "bench: {} transport error(s) — connections died mid-run",
            report.transport_errors
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

// -------------------------------------------------------------- one-shot

fn cmd_oneshot(opts: Opts) -> ExitCode {
    let params = FilterParams::new(opts.eps);
    // `audit` and `key` only need the Θ(m/√ε) sample: build it in one
    // streaming pass instead of materialising all n·m values.
    let streamed = matches!(opts.command.as_str(), "audit" | "key") && !opts.exact;
    if streamed {
        return cmd_streamed(&opts, params);
    }

    let ds = match read_csv_path(&opts.path, &CsvOptions::default()) {
        Ok(ds) => ds,
        Err(e) => {
            eprintln!("error reading {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    if ds.n_rows() < 2 || ds.n_attrs() == 0 {
        eprintln!("data set too small to analyse ({:?})", ds);
        return ExitCode::FAILURE;
    }
    outln!(
        "{}: {} rows x {} attributes; eps = {}, sample = {} tuples",
        opts.path,
        ds.n_rows(),
        ds.n_attrs(),
        opts.eps,
        params.tuple_sample_size(ds.n_attrs()).min(ds.n_rows())
    );

    match opts.command.as_str() {
        "stats" => {
            outln!("\nattribute cardinalities:");
            for a in 0..ds.n_attrs() {
                let attr = AttrId::new(a);
                let col = ds.column(attr);
                outln!(
                    "  {:<24} {:>9} distinct ({:.2}% of rows)",
                    ds.schema().attr(attr).name(),
                    col.dict_size(),
                    100.0 * col.dict_size() as f64 / ds.n_rows() as f64
                );
            }
        }
        "check" => {
            let Some(spec) = &opts.attrs else {
                eprintln!("check requires --attrs");
                return ExitCode::FAILURE;
            };
            let attrs = match resolve_attrs(&ds, spec) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let filter = TupleSampleFilter::build(&ds, params, opts.seed);
            let decision = filter.query(&attrs);
            outln!("\n{:?}: {decision:?}", names(&ds, &attrs));
            outln!(
                "(Accept = separates all sampled pairs — candidate quasi-identifier;\n\
                  Reject = misses ≥ one sampled pair — not an eps-separation key)"
            );
        }
        "key" => {
            // Only the --exact path reaches here.
            match exact_min_key_sampled(&ds, params, opts.seed) {
                Some(attrs) => outln!(
                    "\nexact-on-sample eps-separation key ({} attributes): {:?}",
                    attrs.len(),
                    names(&ds, &attrs)
                ),
                None => {
                    outln!("\nno key exists: the sample contains identical tuples");
                }
            }
        }
        "audit" => {
            let filter = TupleSampleFilter::build(&ds, params, opts.seed);
            print_audit(filter.sample(), &ds, opts.max_key_size, "rows");
        }
        "mask" => {
            let plan = plan_masking(&ds, params, opts.budget, opts.seed);
            outln!(
                "\nto defeat adversaries holding ≤ {} attributes, suppress:",
                opts.budget
            );
            if plan.suppressed.is_empty() {
                outln!("  nothing — no quasi-identifier fits that budget");
            }
            for a in &plan.suppressed {
                outln!("  {}", ds.schema().attr(*a).name());
            }
            match plan.residual_key_size {
                Some(s) => outln!("released view: smallest residual key has {s} attributes"),
                None => outln!("released view: no identifying attribute set remains"),
            }
        }
        other => {
            eprintln!("unknown command {other:?}");
            usage();
        }
    }
    ExitCode::SUCCESS
}

/// The streaming one-shot path for `audit` and `key`: one pass over the
/// CSV feeds a size-`r` reservoir; everything afterwards runs on the
/// retained sample.
fn cmd_streamed(opts: &Opts, params: FilterParams) -> ExitCode {
    let mut source = match CsvTupleSource::open(&opts.path, &CsvOptions::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error reading {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let filter = match tuple_filter_from_stream(&mut source, params, opts.seed) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error reading {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let (n, m) = (source.rows_read(), source.n_attrs());
    if n < 2 || m == 0 {
        eprintln!("data set too small to analyse ({n} rows x {m} attributes)");
        return ExitCode::FAILURE;
    }
    outln!(
        "{}: {} rows x {} attributes; eps = {}, sample = {} tuples (streamed)",
        opts.path,
        n,
        m,
        opts.eps,
        filter.sample().n_rows()
    );
    let sample = filter.sample();

    match opts.command.as_str() {
        "key" => {
            let result = GreedyRefineMinKey::run_on_sample(sample);
            if !result.complete {
                outln!("\nno key exists: the sample contains identical tuples");
                return ExitCode::SUCCESS;
            }
            outln!(
                "\ngreedy eps-separation key ({} attributes): {:?}",
                result.attrs.len(),
                names(sample, &result.attrs)
            );
        }
        "audit" => print_audit(sample, sample, opts.max_key_size, "sampled rows"),
        _ => unreachable!("cmd_streamed only handles audit and key"),
    }
    ExitCode::SUCCESS
}

/// Enumerates minimal keys on `sample` and prints them with unique
/// percentages computed over `frac_over` (the full dataset when it is
/// materialised, the sample itself when streaming).
fn print_audit(sample: &Dataset, frac_over: &Dataset, max_key_size: usize, rows_label: &str) {
    let keys = enumerate_minimal_keys(
        sample,
        LatticeConfig {
            max_size: max_key_size,
            max_candidates: 500_000,
        },
    );
    outln!("\nminimal quasi-identifiers with ≤ {max_key_size} attributes (on the sample):");
    if keys.is_empty() {
        outln!("  none — no small attribute set identifies the records");
    }
    for key in keys.iter().take(25) {
        let sizes = group_sizes(frac_over, key);
        let unique = sizes.iter().filter(|&&s| s == 1).count();
        outln!(
            "  {:?} — {:.1}% of {rows_label} uniquely identified",
            names(sample, key),
            100.0 * unique as f64 / frac_over.n_rows() as f64
        );
    }
    if keys.len() > 25 {
        outln!("  … and {} more", keys.len() - 25);
    }
}
