//! The three workloads: inputs, set-up, the closed-loop window, answer
//! verification and the end-to-end metrics.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use qid_core::filter::{FilterDecision, FilterParams, SeparationFilter};
use qid_dataset::AttrId;
use qid_server::{
    MetricsReport, Registry, RegistryConfig, Response, TraceSpan, DEFAULT_REVALIDATE_MS,
};
use rand::{RngExt, StdRng};

use crate::data::{self, attr_sets, build_request, planted_keys, Cmd, DataFile, Key, Req};
use crate::layers;
use crate::served::{cpu_steal, proc_sample, Conn, ProcSample, Served, TICKS_PER_S};
use crate::stats::{median_f64, percentile, Tracer};
use crate::verify::{self, judge, Reference, Verdict};
use crate::{Args, Metric};

pub const WORKLOADS: [&str; 3] = ["check_hot", "compute_bound", "registry_churn"];

/// Sizes of one run. `--smoke` shrinks the data, not the tails: every
/// tail percentile still needs its ten samples beyond it.
pub struct Scale {
    big_rows: usize,
    churn_rows: usize,
    /// Appendable chunks generated per churn file (appends wrap after).
    churn_chunks: usize,
    warmup: Duration,
    /// Set-ups per untraced run, whose `setup_s` is their median;
    /// `registry_churn`'s set-up builds eight sketches, so it does fewer.
    setup_repeats: usize,
    churn_setup_repeats: usize,
}

impl Scale {
    pub fn new(smoke: bool) -> Scale {
        if smoke {
            Scale {
                big_rows: 3_000,
                churn_rows: 1_500,
                churn_chunks: 40,
                warmup: Duration::from_millis(200),
                setup_repeats: 3,
                churn_setup_repeats: 3,
            }
        } else {
            Scale {
                big_rows: 100_000,
                churn_rows: 20_000,
                churn_chunks: 24,
                warmup: Duration::from_millis(500),
                setup_repeats: 5,
                churn_setup_repeats: 3,
            }
        }
    }
}

/// Attribute sets asked by `check` and by `sketch`. A check's cost
/// depends on its set (an accept sorts the whole sample, a reject can
/// stop early), so the pool is large enough that a p99 spans dozens of
/// sets rather than the two or three costliest of a small pool.
const CHECK_POOL: usize = 4096;
const SKETCH_POOL: usize = 512;
/// Share of checks, in percent, that ask about a planted key.
const PLANTED_PERCENT: usize = 5;
/// Every workload uses this ε unless stated otherwise (s = 540 at m = 54).
const EPS: f64 = 0.01;
/// The compute-bound check and sketch key (s = 5400 at m = 54).
const EPS_FINE: f64 = 1e-4;
/// Appendable chunks of the 100k-row file: the traced run's in-process
/// absorb timings append one per repeat.
const LAYER_CHUNKS: usize = 3;
/// Files (and keys) of the churn workload.
const CHURN_FILES: usize = 8;
/// Zipf exponent of the churn workload's key choice.
const CHURN_ZIPF: f64 = 1.0;
/// Mix operations between two appends on `registry_churn`.
const CHURN_APPEND_EVERY: usize = 100;
/// Host CPU steal over the window, in percent, up to which the bounds
/// in `BENCHMARK.json` were shown to hold; a run above it says so.
const STEAL_PROVEN_PERCENT: f64 = 0.5;
/// The server's flight-recorder ring size.
const RING: usize = 4096;

/// How requests are chosen: one shuffled block at a time that holds
/// each command class, and on `registry_churn` each key, in its exact
/// share, so windows differ in order, not in mix.
enum Picker {
    /// Command classes with their counts per block, uniform within a
    /// class.
    Weighted(Vec<(usize, Vec<usize>)>),
    /// Per block of 100: commands by count, keys by their Zipf share
    /// (both counts sum to 100), paired at random; then a uniform
    /// request of that command and key.
    Churn {
        key_counts: Vec<usize>,
        cmds: Vec<(usize, Cmd)>,
        by: HashMap<(Cmd, usize), Vec<usize>>,
    },
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// `total` apportioned by `weights`, largest remainder first.
fn apportion(weights: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let quota: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (quota[b] - quota[b].floor()).total_cmp(&(quota[a] - quota[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

impl Picker {
    /// The next block of request indices, shuffled.
    fn deal(&self, rng: &mut StdRng) -> Vec<usize> {
        let mut block: Vec<usize> = match self {
            Picker::Weighted(classes) => classes
                .iter()
                .flat_map(|(n, reqs)| std::iter::repeat_n(reqs, *n))
                .map(|reqs| reqs[rng.random_range(0..reqs.len())])
                .collect(),
            Picker::Churn {
                key_counts,
                cmds,
                by,
            } => {
                let mut keys: Vec<usize> = key_counts
                    .iter()
                    .enumerate()
                    .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
                    .collect();
                shuffle(rng, &mut keys);
                let commands = cmds.iter().flat_map(|&(n, c)| std::iter::repeat_n(c, n));
                let pairs: Vec<(Cmd, usize)> = commands.zip(keys).collect();
                pairs
                    .iter()
                    .map(|pair| by[pair][rng.random_range(0..by[pair].len())])
                    .collect()
            }
        };
        shuffle(rng, &mut block);
        block
    }
}

/// Everything a workload sends, decided before the server starts.
struct Plan {
    name: &'static str,
    /// Attributes per row, and base rows per file.
    m: usize,
    base_rows: Vec<usize>,
    keys: Vec<Key>,
    reqs: Vec<Req>,
    picker: Picker,
    conns: usize,
    absorb_every: Option<usize>,
    /// `load` request per key.
    load_req: Vec<usize>,
    /// Keys whose sketch set-up builds, with the sketch request used.
    sketch_setup: Vec<usize>,
    /// Checks of keys confirmed by the exact oracle.
    planted: Vec<usize>,
    /// Whether the served config has a cache dir and a byte budget.
    churn: bool,
    /// Key whose filter and sketch the layer timings use.
    layer_key: usize,
    /// Key whose sample the lattice timing uses.
    layer_audit_key: usize,
    /// The expected reply per request on version 0 of its file.
    expect: Vec<Option<(Vec<u8>, Response)>>,
}

fn push_reqs(
    reqs: &mut Vec<Req>,
    cmd: Cmd,
    key: usize,
    sets: &[Vec<usize>],
    keys: &[Key],
    files: &[DataFile],
) -> Vec<usize> {
    sets.iter()
        .map(|set| {
            reqs.push(build_request(cmd, key, set, keys, files));
            reqs.len() - 1
        })
        .collect()
}

fn plan(
    name: &str,
    args: &Args,
    scale: &Scale,
    work: &Path,
) -> Result<(Plan, Vec<DataFile>), String> {
    let seed = args.seed;
    let mut rng = data::rng(seed, 2);
    let big = |chunks: usize| {
        DataFile::generate(
            work.join("covtype.csv"),
            data::derive_seed(seed, 1),
            scale.big_rows,
            chunks,
        )
    };
    let (files, keys) = match name {
        "check_hot" => (
            vec![big(LAYER_CHUNKS)?],
            vec![Key {
                file: 0,
                eps: EPS,
                seed,
            }],
        ),
        "compute_bound" => (
            vec![big(LAYER_CHUNKS)?],
            vec![
                Key {
                    file: 0,
                    eps: EPS_FINE,
                    seed,
                },
                Key {
                    file: 0,
                    eps: EPS,
                    seed,
                },
            ],
        ),
        "registry_churn" => {
            let files = (0..CHURN_FILES)
                .map(|i| {
                    DataFile::generate(
                        work.join(format!("churn-{i}.csv")),
                        data::derive_seed(seed, 100 + i as u64),
                        scale.churn_rows,
                        scale.churn_chunks,
                    )
                })
                .collect::<Result<Vec<_>, _>>()?;
            let keys = (0..files.len())
                .map(|file| Key {
                    file,
                    eps: EPS,
                    seed,
                })
                .collect();
            (files, keys)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    let m = files[0].table.n_attrs();
    let check_sets = attr_sets(&mut rng, m, CHECK_POOL);
    let sketch_sets = attr_sets(&mut rng, m, SKETCH_POOL);
    let mut reqs: Vec<Req> = Vec::new();
    let load_req: Vec<usize> = (0..keys.len())
        .map(|k| push_reqs(&mut reqs, Cmd::Load, k, &[vec![]], &keys, &files)[0])
        .collect();
    let planted_sets: Vec<Vec<Vec<usize>>> = files
        .iter()
        .map(|f| planted_keys(&f.table))
        .collect::<Result<_, _>>()?;
    let mut by: HashMap<(Cmd, usize), Vec<usize>> = HashMap::new();
    let mut planted = Vec::new();
    for (k, key) in keys.iter().enumerate() {
        let mut checks = push_reqs(&mut reqs, Cmd::Check, k, &check_sets, &keys, &files);
        let planted_here = push_reqs(
            &mut reqs,
            Cmd::Check,
            k,
            &planted_sets[key.file],
            &keys,
            &files,
        );
        // The planted keys are a fixed share of the checks: the accept
        // path sorts the whole sample, so the check tail measures it.
        let copies =
            (CHECK_POOL * PLANTED_PERCENT).div_ceil((100 - PLANTED_PERCENT) * planted_here.len());
        for _ in 0..copies {
            checks.extend(&planted_here);
        }
        planted.extend(planted_here);
        by.insert((Cmd::Check, k), checks);
        by.insert(
            (Cmd::Sketch, k),
            push_reqs(&mut reqs, Cmd::Sketch, k, &sketch_sets, &keys, &files),
        );
        by.insert(
            (Cmd::Stats, k),
            push_reqs(&mut reqs, Cmd::Stats, k, &[vec![]], &keys, &files),
        );
        by.insert(
            (Cmd::Audit, k),
            push_reqs(&mut reqs, Cmd::Audit, k, &[vec![]], &keys, &files),
        );
        by.insert((Cmd::Load, k), vec![load_req[k]]);
    }
    let mut p = Plan {
        name: WORKLOADS
            .iter()
            .find(|w| **w == name)
            .expect("known workload"),
        conns: 1,
        absorb_every: None,
        sketch_setup: Vec::new(),
        planted,
        churn: false,
        layer_key: 0,
        layer_audit_key: 0,
        expect: Vec::new(),
        picker: Picker::Weighted(Vec::new()),
        m,
        base_rows: files.iter().map(|f| f.base_rows).collect(),
        keys,
        reqs,
        load_req,
    };
    match name {
        "check_hot" => {
            p.picker = Picker::Weighted(vec![(1, by[&(Cmd::Check, 0)].clone())]);
            p.conns = 2;
        }
        "compute_bound" => {
            // Checks and sketches on the fine key, audits on the coarse one.
            p.planted.retain(|&r| p.reqs[r].key == 0);
            p.picker = Picker::Weighted(vec![
                (85, by[&(Cmd::Check, 0)].clone()),
                (5, by[&(Cmd::Sketch, 0)].clone()),
                (10, by[&(Cmd::Audit, 1)].clone()),
            ]);
            p.sketch_setup = vec![by[&(Cmd::Sketch, 0)][0]];
            p.layer_audit_key = 1;
        }
        _ => {
            let weights: Vec<f64> = (0..p.keys.len())
                .map(|i| 1.0 / ((i + 1) as f64).powf(CHURN_ZIPF))
                .collect();
            p.picker = Picker::Churn {
                key_counts: apportion(&weights, CHURN_APPEND_EVERY),
                cmds: vec![
                    (60, Cmd::Check),
                    (20, Cmd::Sketch),
                    (10, Cmd::Stats),
                    (10, Cmd::Load),
                ],
                by: by.clone(),
            };
            p.absorb_every = Some(CHURN_APPEND_EVERY);
            p.sketch_setup = (0..p.keys.len())
                .map(|k| by[&(Cmd::Sketch, k)][0])
                .collect();
            p.churn = true;
        }
    }
    if p.churn {
        // Churn answers depend on the file version, so they are verified
        // after the run; only set-up's planted checks are known now: a
        // key is always accepted.
        p.expect = (0..p.reqs.len())
            .map(|r| {
                p.planted.contains(&r).then(|| {
                    let names = p.reqs[r]
                        .attrs
                        .iter()
                        .map(|&a| files[0].names()[a].clone())
                        .collect();
                    let response = Response::Check {
                        attrs: names,
                        accept: true,
                    };
                    (response.encode().into_bytes(), response)
                })
            })
            .collect();
        return Ok((p, files));
    }
    // Version-0 references and the expected reply to every request.
    let sketch_keys: Vec<usize> = p.sketch_setup.iter().map(|&r| p.reqs[r].key).collect();
    let refs: Vec<Reference> = p
        .keys
        .iter()
        .enumerate()
        .map(|(k, key)| {
            let with_sketch = sketch_keys.contains(&k);
            verify::reference(
                &files[key.file].prefix_bytes(0),
                key.eps,
                key.seed,
                with_sketch,
            )
        })
        .collect::<Result<_, _>>()?;
    for &r in &p.planted {
        let req = &p.reqs[r];
        let attrs: Vec<AttrId> = req.attrs.iter().map(|&a| AttrId::new(a)).collect();
        if refs[req.key].filter.query(&attrs) != FilterDecision::Accept {
            return Err(format!(
                "library rejected the confirmed key {:?}",
                req.attrs
            ));
        }
    }
    let mut audits: HashMap<usize, Response> = HashMap::new();
    if let Picker::Weighted(classes) = &p.picker {
        let sent = classes.iter().flat_map(|(_, rs)| rs.iter().copied());
        for r in sent.filter(|&r| p.reqs[r].cmd == Cmd::Audit) {
            let key = p.reqs[r].key;
            audits
                .entry(key)
                .or_insert_with(|| verify::audit_response(&refs[key]));
        }
    }
    p.expect = p
        .reqs
        .iter()
        .map(|req| {
            let reference = &refs[req.key];
            let precomputed = match req.cmd {
                Cmd::Check | Cmd::Stats | Cmd::Load | Cmd::Absorb => true,
                Cmd::Sketch => reference.sketch.is_some(),
                Cmd::Audit => audits.contains_key(&req.key),
            };
            if !precomputed {
                return None;
            }
            let response = verify::expected(req, reference, audits.get(&req.key)).ok()?;
            Some((response.encode().into_bytes(), response))
        })
        .collect();
    Ok((p, files))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Warmup,
    Window,
}

/// One completed request.
#[derive(Clone, Copy)]
struct Rec {
    cmd: Cmd,
    phase: Phase,
    start_ns: u64,
    dur_ns: u64,
    ok: bool,
    /// Index of its client span, for window ops of a traced run.
    span: Option<usize>,
}

/// A reply whose reference depends on the file version it was sent at.
struct Deferred {
    req: usize,
    version: usize,
    reply: Vec<u8>,
}

/// Keeps a reply for checking after the run. A refusal or an
/// undecodable reply fails now, whatever the reference will say, so its
/// op is counted as failed and its latency as a failure.
fn defer(deferred: &mut Vec<Deferred>, req: usize, version: usize, reply: &[u8]) -> Verdict {
    match verify::screen(reply) {
        Err(e) => Verdict::Failed(e),
        Ok(_) => {
            deferred.push(Deferred {
                req,
                version,
                reply: reply.to_vec(),
            });
            Verdict::Correct
        }
    }
}

/// One connection's closed loop and everything it recorded.
struct Lane {
    conn: Conn,
    recs: Vec<Rec>,
    deferred: Vec<Deferred>,
    wrong: Vec<String>,
    failures: Vec<String>,
    tracer: Tracer,
    rng: StdRng,
    /// The rest of the current block of requests, sent from the end.
    hand: Vec<usize>,
    ops: u64,
    /// Mix operations since the last append, and appends so far.
    since_absorb: usize,
    absorbs: usize,
}

impl Lane {
    fn new(conn: Conn, origin: Instant, rng: StdRng) -> Lane {
        Lane {
            conn,
            recs: Vec::with_capacity(1 << 16),
            deferred: Vec::new(),
            wrong: Vec::new(),
            failures: Vec::new(),
            tracer: Tracer::new(origin),
            rng,
            hand: Vec::new(),
            ops: 0,
            since_absorb: 0,
            absorbs: 0,
        }
    }
}

struct Driver<'a> {
    plan: &'a Plan,
    addr: SocketAddr,
    traced: bool,
}

impl Plan {
    /// The `load` reply for `key` over a file of `rows` rows.
    fn loaded(&self, key: usize, rows: usize) -> Response {
        let sample = FilterParams::new(self.keys[key].eps).tuple_sample_size(self.m);
        Response::Loaded {
            rows,
            attrs: self.m,
            sample: sample.max(1).min(rows),
            cached: true,
        }
    }
}

impl Driver<'_> {
    /// Sends request `r` as `cmd` at file `version` and records it.
    fn exchange(
        &self,
        lane: &mut Lane,
        r: usize,
        cmd: Cmd,
        version: usize,
        rows: usize,
        phase: Phase,
    ) {
        let req = &self.plan.reqs[r];
        let start = Instant::now();
        let result = lane.conn.call(&req.line);
        let end = Instant::now();
        let verdict = match result {
            Err(e) => Verdict::Failed(e),
            Ok(reply) => match (&self.plan.expect[r], cmd) {
                (_, Cmd::Load | Cmd::Absorb) => judge(reply, &self.plan.loaded(req.key, rows)),
                (Some((line, _)), _) if version == 0 && reply == line.as_slice() => {
                    Verdict::Correct
                }
                (Some((_, response)), _) if version == 0 => judge(reply, response),
                _ => defer(&mut lane.deferred, r, version, reply),
            },
        };
        let ok = verdict == Verdict::Correct;
        match verdict {
            Verdict::Correct => {}
            Verdict::Failed(e) => {
                if e.starts_with("transport") {
                    // The connection is unusable; keep the loop closed
                    // on a fresh one.
                    if let Ok(conn) = Conn::connect(self.addr) {
                        lane.conn = conn;
                    }
                }
                lane.failures.push(format!("{}: {e}", cmd.wire()));
            }
            Verdict::Wrong(e) => lane
                .wrong
                .push(format!("{} {:?}: {e}", cmd.wire(), req.attrs)),
        }
        let (start_ns, end_ns) = (lane.tracer.ns_of(start), lane.tracer.ns_of(end));
        let span = (self.traced && phase == Phase::Window).then(|| {
            lane.tracer
                .record(span_name(cmd), start_ns, end_ns, None, lane.ops)
        });
        lane.ops += 1;
        lane.recs.push(Rec {
            cmd,
            phase,
            start_ns,
            dur_ns: end_ns - start_ns,
            ok,
            span,
        });
    }

    /// Appends a chunk to `key`'s file and sends the load that absorbs it.
    fn absorb(
        &self,
        lane: &mut Lane,
        files: &mut [DataFile],
        key: usize,
        phase: Phase,
    ) -> Result<(), String> {
        let file = &mut files[self.plan.keys[key].file];
        file.append()?;
        let (version, rows) = (file.version, file.rows_at(file.version));
        self.exchange(
            lane,
            self.plan.load_req[key],
            Cmd::Absorb,
            version,
            rows,
            phase,
        );
        Ok(())
    }

    /// The closed loop: the next request goes out when the last reply
    /// is in, until `deadline`.
    fn run(
        &self,
        lane: &mut Lane,
        mut files: Option<&mut [DataFile]>,
        phase: Phase,
        deadline: Instant,
    ) -> Result<(), String> {
        while Instant::now() < deadline {
            if let (Some(every), Some(files)) = (self.plan.absorb_every, files.as_deref_mut()) {
                if lane.since_absorb == every {
                    lane.since_absorb = 0;
                    let key = lane.absorbs % self.plan.keys.len();
                    lane.absorbs += 1;
                    self.absorb(lane, files, key, phase)?;
                    continue;
                }
            }
            if lane.hand.is_empty() {
                lane.hand = self.plan.picker.deal(&mut lane.rng);
            }
            let r = lane.hand.pop().expect("a dealt block is not empty");
            let req = &self.plan.reqs[r];
            let file = self.plan.keys[req.key].file;
            let (version, rows) = match files.as_deref() {
                Some(files) => (
                    files[file].version,
                    files[file].rows_at(files[file].version),
                ),
                None => (0, self.plan.base_rows[file]),
            };
            self.exchange(lane, r, req.cmd, version, rows, phase);
            lane.since_absorb += 1;
        }
        Ok(())
    }
}

fn span_name(cmd: Cmd) -> &'static str {
    match cmd {
        Cmd::Check => "client.check",
        Cmd::Sketch => "client.sketch",
        Cmd::Audit => "client.audit",
        Cmd::Stats => "client.stats",
        Cmd::Load => "client.load",
        Cmd::Absorb => "client.absorb",
    }
}

/// Connections set-up warms the registry over, in parallel, one thread
/// each: the client's whole allowance.
const SETUP_CONNS: usize = 2;

/// Sends one set-up request and checks its reply, or hands it back for
/// checking after the run when no reference was built beforehand.
fn setup_ask(
    plan: &Plan,
    conn: &mut Conn,
    r: usize,
    deferred: &mut Vec<Deferred>,
) -> Result<(), String> {
    let req = &plan.reqs[r];
    let reply = conn.call(&req.line)?;
    let verdict = match (&plan.expect[r], req.cmd) {
        (_, Cmd::Load) => judge(
            reply,
            &plan.loaded(req.key, plan.base_rows[plan.keys[req.key].file]),
        ),
        (Some((_, expected)), _) => judge(reply, expected),
        (None, _) => defer(deferred, r, 0, reply),
    };
    match verdict {
        Verdict::Correct => Ok(()),
        Verdict::Failed(e) | Verdict::Wrong(e) => Err(format!("set-up {}: {e}", req.cmd.wire())),
    }
}

/// Starts a server, loads every key, builds the sketches the mix uses,
/// and verifies the planted-key checks, keys split over two connections.
/// Returns the server, the workload's connections, the seconds it took,
/// and the replies left for checking after the run.
fn setup(
    plan: &Plan,
    qid: &Path,
    flags: &[String],
    cache_dir: Option<&Path>,
) -> Result<(Served, Vec<Conn>, f64, Vec<Deferred>), String> {
    if let Some(dir) = cache_dir {
        data::fresh_dir(dir)?;
    }
    let start = Instant::now();
    let served = Served::spawn(qid, flags)?;
    let mut conns = (0..plan.conns.max(SETUP_CONNS))
        .map(|_| served.connect())
        .collect::<Result<Vec<_>, _>>()?;
    // Per key: its load, then its sketch, then its planted checks.
    let tasks = |lane: usize| -> Vec<usize> {
        (0..plan.keys.len())
            .filter(|k| k % SETUP_CONNS == lane)
            .flat_map(|k| {
                std::iter::once(plan.load_req[k]).chain(
                    plan.sketch_setup
                        .iter()
                        .chain(&plan.planted)
                        .copied()
                        .filter(move |&r| plan.reqs[r].key == k),
                )
            })
            .collect()
    };
    let (first, rest) = conns.split_first_mut().expect("set-up connections");
    let (mut deferred, mut helper_deferred) = (Vec::new(), Vec::new());
    std::thread::scope(|scope| -> Result<(), String> {
        let helper = scope.spawn(|| {
            tasks(1)
                .into_iter()
                .try_for_each(|r| setup_ask(plan, &mut rest[0], r, &mut helper_deferred))
        });
        tasks(0)
            .into_iter()
            .try_for_each(|r| setup_ask(plan, first, r, &mut deferred))?;
        helper
            .join()
            .unwrap_or_else(|_| Err("set-up lane panicked".to_string()))
    })?;
    let secs = start.elapsed().as_secs_f64();
    for extra in conns.drain(plan.conns..) {
        extra.close();
    }
    deferred.append(&mut helper_deferred);
    Ok((served, conns, secs, deferred))
}

/// Resident bytes of one churn entry with its sketch, as the server's
/// `metrics` reports them, measured on an in-process registry.
fn entry_bytes(plan: &Plan, files: &[DataFile], dir: &Path) -> Result<u64, String> {
    data::fresh_dir(dir)?;
    let registry = Registry::with_config(RegistryConfig {
        cache_dir: Some(dir.to_path_buf()),
        revalidate_ms: DEFAULT_REVALIDATE_MS,
        ..RegistryConfig::default()
    });
    let ds = plan.keys[0].dataset_ref(files);
    let entry = registry.get_or_load(&ds, qid_server::LoadMode::Stream).0?;
    registry.sketch_for(&ds, &entry)?;
    let bytes = registry.snapshot().resident_bytes;
    drop(registry);
    let _ = std::fs::remove_dir_all(dir);
    Ok(bytes)
}

/// What a run measured, before it becomes metrics.
pub struct RunResult {
    pub e2e: Vec<Metric>,
    /// Workload-specific latencies that are printed but not gated.
    pub extra: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    pub notes: Vec<String>,
}

fn us(ns: u64) -> f64 {
    if ns == u64::MAX {
        f64::INFINITY
    } else {
        ns as f64 / 1e3
    }
}

fn latencies(recs: &[Rec], keep: impl Fn(&Rec) -> bool) -> Vec<u64> {
    let mut v: Vec<u64> = recs
        .iter()
        .filter(|r| keep(r))
        .map(|r| if r.ok { r.dur_ns } else { u64::MAX })
        .collect();
    v.sort_unstable();
    v
}

/// Percentile metric in `unit` (`us` or `ms`) with its sample count.
fn pct_metric(name: &str, sorted: &[u64], p: f64, unit: &'static str) -> Result<Metric, String> {
    let ns = percentile(sorted, p, name)?;
    let value = if unit == "ms" { us(ns) / 1e3 } else { us(ns) };
    Ok(Metric::new(name, value, unit).with_samples(sorted.len()))
}

/// One run of workload `name`. A traced run first makes the untraced
/// run at the same seed, with one set-up: its tracing overhead is its
/// own op p50 minus that run's.
pub fn run(name: &str, args: &Args) -> Result<RunResult, String> {
    let scale = Scale::new(args.smoke);
    if !args.trace {
        let setups = if name == "registry_churn" {
            scale.churn_setup_repeats
        } else {
            scale.setup_repeats
        };
        return run_fresh(name, args, &scale, setups, None);
    }
    let untraced = Args {
        trace: false,
        ..args.clone()
    };
    let base = run_fresh(name, &untraced, &scale, 1, None)?;
    let base_p50 = base
        .e2e
        .iter()
        .find(|m| m.name == "op_p50_us")
        .expect("an untraced run reports op_p50_us")
        .value;
    let mut traced = run_fresh(name, args, &scale, 1, Some(base_p50))?;
    traced.attempted += base.attempted;
    traced.failed += base.failed;
    traced.wrong.extend(base.wrong);
    traced.notes.insert(
        0,
        format!(
            "untraced run at the same seed: {} ops attempted, {} failed",
            base.attempted, base.failed
        ),
    );
    Ok(traced)
}

fn run_fresh(
    name: &str,
    args: &Args,
    scale: &Scale,
    setups: usize,
    untraced_op_p50_us: Option<f64>,
) -> Result<RunResult, String> {
    let work = args.work_dir(name);
    data::fresh_dir(&work)?;
    let result = run_in(name, args, scale, &work, setups, untraced_op_p50_us);
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Wall time of each phase of a run, for the report.
struct Laps {
    last: Instant,
    laps: Vec<String>,
}

impl Laps {
    fn lap(&mut self, label: &str) {
        let now = Instant::now();
        self.laps
            .push(format!("{label} {:.1} s", (now - self.last).as_secs_f64()));
        self.last = now;
    }
}

fn run_in(
    name: &str,
    args: &Args,
    scale: &Scale,
    work: &Path,
    setups: usize,
    untraced_op_p50_us: Option<f64>,
) -> Result<RunResult, String> {
    let origin = Instant::now();
    let mut laps = Laps {
        last: origin,
        laps: Vec::new(),
    };
    let (plan, mut files) = plan(name, args, scale, work)?;
    laps.lap("inputs");
    let mut notes = Vec::new();
    let cache_dir: Option<PathBuf> = plan.churn.then(|| work.join("cache"));
    let mut flags: Vec<String> = Vec::new();
    if let Some(dir) = &cache_dir {
        let per_entry = entry_bytes(&plan, &files, &work.join("calibrate"))?;
        let budget = per_entry * plan.keys.len() as u64 / 2;
        flags.extend([
            "--cache-dir".to_string(),
            dir.to_str().expect("utf-8").to_string(),
        ]);
        flags.extend(["--cache-bytes".to_string(), budget.to_string()]);
        notes.push(format!(
            "cache budget {budget} B = half of {} entries x {per_entry} B",
            plan.keys.len()
        ));
    }

    laps.lap("calibration");
    // Set-up, repeated; the last server stays up for the window.
    let mut setup_secs = Vec::new();
    let mut setup_deferred = Vec::new();
    let mut live = None;
    for i in 0..setups {
        let (served, conns, secs, mut deferred) =
            setup(&plan, &args.qid, &flags, cache_dir.as_deref())?;
        setup_secs.push(secs);
        setup_deferred.append(&mut deferred);
        if i + 1 == setups {
            live = Some((served, conns));
        } else {
            for conn in &conns {
                conn.close();
            }
            served.shutdown()?;
        }
    }
    let (served, conns) = live.expect("at least one set-up");
    laps.lap("set-up");
    let each: Vec<String> = setup_secs.iter().map(|s| format!("{s:.3}")).collect();
    notes.push(format!("set-ups: {} s", each.join(", ")));
    notes.push(format!("server flags: {}", served.flags.join(" ")));

    let driver = Driver {
        plan: &plan,
        addr: served.addr,
        traced: args.trace,
    };
    let mut lanes: Vec<Lane> = conns
        .into_iter()
        .enumerate()
        .map(|(i, conn)| Lane::new(conn, origin, data::rng(args.seed, 10 + i as u64)))
        .collect();

    // Warm-up, then the measured window. Lane 0 runs on this thread,
    // any second lane on one more: two client threads at most.
    let warm_end = Instant::now() + scale.warmup;
    let window = Duration::from_secs_f64(args.seconds);
    let mut before = (
        ProcSample::default(),
        MetricsReport::default(),
        layers::WalMark::default(),
    );
    let mut window_start = Instant::now();
    let mut steal_before = (0, 0);
    {
        let (first, rest) = lanes.split_first_mut().expect("one lane");
        let mut files = Some(files.as_mut_slice());
        std::thread::scope(|scope| -> Result<(), String> {
            let helper = rest.first_mut().map(|lane| {
                let driver = &driver;
                scope.spawn(move || -> Result<(), String> {
                    driver.run(lane, None, Phase::Warmup, warm_end)?;
                    // Both lanes measure the same wall-clock window.
                    let start = Instant::now().max(warm_end);
                    driver.run(lane, None, Phase::Window, start + window)
                })
            });
            driver.run(first, files.as_deref_mut(), Phase::Warmup, warm_end)?;
            before = (
                proc_sample(served.pid)?,
                if args.trace {
                    first.conn.metrics()?
                } else {
                    MetricsReport::default()
                },
                if args.trace {
                    layers::WalMark::read(cache_dir.as_deref())
                } else {
                    layers::WalMark::default()
                },
            );
            steal_before = cpu_steal();
            window_start = Instant::now().max(warm_end);
            driver.run(first, files, Phase::Window, window_start + window)?;
            match helper.map(|h| h.join()) {
                Some(Ok(r)) => r,
                Some(Err(_)) => Err("client lane panicked".to_string()),
                None => Ok(()),
            }
        })?;
    }
    let window_end = Instant::now();
    let steal_after = cpu_steal();
    laps.lap("warm-up and window");
    let after = proc_sample(served.pid)?;
    let mut ring: Vec<TraceSpan> = Vec::new();
    let mut metrics_after = MetricsReport::default();
    if args.trace {
        ring = lanes[0].conn.trace(RING)?;
        metrics_after = lanes[0].conn.metrics()?;
    }

    let deferred: Vec<Deferred> = lanes
        .iter_mut()
        .flat_map(|l| std::mem::take(&mut l.deferred))
        .chain(setup_deferred)
        .collect();
    for lane in &lanes {
        lane.conn.close();
    }
    served.shutdown()?;

    let mut wrong: Vec<String> = lanes.iter().flat_map(|l| l.wrong.iter().cloned()).collect();
    let late = verify_deferred(&plan, &files, &deferred)?;
    let late_failures = (late.wrong.len() + late.failed.len()) as u64;
    wrong.extend(late.wrong);
    let failures: Vec<String> = lanes
        .iter()
        .flat_map(|l| l.failures.iter().cloned())
        .chain(late.failed)
        .collect();
    notes.extend(failures.iter().take(5).cloned());
    laps.lap("verification");
    eprintln!("perfbench: {}: {}", plan.name, laps.laps.join(", "));

    // Merge the lanes: records in send order, spans in one recorder.
    let mut tracer = Tracer::new(origin);
    let mut recs: Vec<Rec> = Vec::new();
    for lane in lanes {
        let base = tracer.spans.len();
        recs.extend(lane.recs.iter().map(|r| Rec {
            span: r.span.map(|s| s + base),
            ..*r
        }));
        tracer.absorb(lane.tracer);
    }
    recs.sort_by_key(|r| r.start_ns);
    let attempted = recs.len() as u64;
    let failed = recs.iter().filter(|r| !r.ok).count() as u64 + late_failures;
    let window_recs: Vec<Rec> = recs
        .iter()
        .copied()
        .filter(|r| r.phase == Phase::Window)
        .collect();
    let window_ops = window_recs.len().max(1) as f64;
    let window_secs = (window_end - window_start).as_secs_f64();

    let mut e2e = Vec::new();
    let mut extra = Vec::new();
    let mut layer_metrics = Vec::new();
    if !args.trace {
        let ops = latencies(&window_recs, |r| r.cmd != Cmd::Absorb);
        let checks = latencies(&window_recs, |r| r.cmd == Cmd::Check);
        e2e.push(
            Metric::new("setup_s", median_f64(&setup_secs), "s").with_samples(setup_secs.len()),
        );
        e2e.push(
            Metric::new("ops_per_s", window_recs.len() as f64 / window_secs, "1/s")
                .with_samples(window_recs.len()),
        );
        e2e.push(pct_metric("op_p50_us", &ops, 50.0, "us")?);
        e2e.push(pct_metric("check_p50_us", &checks, 50.0, "us")?);
        let cpu_us = (after.cpu_ticks - before.0.cpu_ticks) as f64 / TICKS_PER_S * 1e6;
        e2e.push(Metric::new(
            "server_cpu_us_per_op",
            cpu_us / window_ops,
            "us",
        ));
        e2e.push(Metric::new(
            "server_rss_mb",
            after.hwm_kib as f64 / 1024.0,
            "MB",
        ));
        let failed_ratio = failed as f64 / attempted.max(1) as f64;
        notes.push(format!(
            "failed_ratio = {failed_ratio} ({failed} of {attempted} ops)"
        ));
        let steal = (steal_after.0 - steal_before.0) as f64
            / (steal_after.1 - steal_before.1).max(1) as f64;
        notes.push(format!(
            "window {window_secs:.2} s, {} ops, host CPU steal {:.1} %",
            window_recs.len(),
            100.0 * steal
        ));
        if 100.0 * steal > STEAL_PROVEN_PERCENT {
            let warning = format!(
                "WARNING: host CPU steal {:.1} % exceeds the {STEAL_PROVEN_PERCENT} % at which \
                 the bounds in BENCHMARK.json were proven; compare this run with care",
                100.0 * steal
            );
            eprintln!("perfbench: {}: {warning}", plan.name);
            notes.push(warning);
        }
        // Reported, not gated: the tails (on a shared host they follow
        // CPU steal more than the program), and commands only some
        // mixes send.
        extra.push(pct_metric("op_p99_us", &ops, 99.0, "us")?);
        extra.push(pct_metric("check_p99_us", &checks, 99.0, "us")?);
        let audits = latencies(&window_recs, |r| r.cmd == Cmd::Audit);
        if !audits.is_empty() {
            extra.push(pct_metric("audit_p50_ms", &audits, 50.0, "ms")?);
            extra.push(pct_metric("audit_p95_ms", &audits, 95.0, "ms")?);
        }
        let absorbs = latencies(&window_recs, |r| r.cmd == Cmd::Absorb);
        if !absorbs.is_empty() {
            extra.push(pct_metric("absorb_p50_ms", &absorbs, 50.0, "ms")?);
        }
        let start_ns = (window_start - origin).as_nanos() as u64;
        let mut per_s = vec![0usize; window_secs.ceil() as usize];
        for r in &window_recs {
            let t = (r.start_ns + r.dur_ns).saturating_sub(start_ns) / 1_000_000_000;
            if let Some(slot) = per_s.get_mut(t as usize) {
                *slot += 1;
            }
        }
        notes.push(format!("ops per second of the window: {per_s:?}"));
        let mut busy: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for r in &window_recs {
            let slot = busy.entry(span_name(r.cmd)).or_default();
            slot.0 += 1;
            slot.1 += r.dur_ns as f64 / 1e9;
        }
        let busy: Vec<String> = busy
            .iter()
            .map(|(cmd, (n, secs))| format!("{cmd} {n} ops {secs:.2} s"))
            .collect();
        notes.push(format!("window time by command: {}", busy.join(", ")));
    } else {
        let served_side = layers::Served {
            ring: &ring,
            metrics_before: &before.1,
            metrics_after: &metrics_after,
            proc_before: before.0,
            proc_after: after,
            wal_before: before.2,
            wal_after: layers::WalMark::read(cache_dir.as_deref()),
            window_ops,
        };
        let ops = latencies(&window_recs, |r| r.cmd != Cmd::Absorb);
        let traced_p50 = us(percentile(&ops, 50.0, "traced op_p50_us")?);
        let untraced_p50 = untraced_op_p50_us.ok_or("a traced run needs the untraced op p50")?;
        notes.push(format!(
            "tracing overhead: op p50 {traced_p50} us traced, {untraced_p50} us untraced"
        ));
        let client = layers::Client {
            recs: window_recs
                .iter()
                .map(|r| (r.cmd, r.dur_ns, r.ok, r.span))
                .collect(),
            overhead_op_p50_us: traced_p50 - untraced_p50,
        };
        let layer_dir = work.join("layers");
        data::fresh_dir(&layer_dir)?;
        layer_metrics = layers::measure(
            &layers::Inputs {
                files: &files,
                keys: &plan.keys,
                reqs: &plan.reqs,
                expect: &plan.expect,
                layer_key: plan.layer_key,
                layer_audit_key: plan.layer_audit_key,
                churn_flags: plan.churn,
                dir: &layer_dir,
            },
            &served_side,
            &client,
            &mut tracer,
            &mut notes,
        )?;
        let trace_dir = args.trace_dir();
        std::fs::create_dir_all(&trace_dir)
            .map_err(|e| format!("creating {}: {e}", trace_dir.display()))?;
        let path = trace_dir.join(format!("{}-seed{}.spans.ndjson", plan.name, args.seed));
        tracer
            .write_ndjson(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        ));
    }
    laps.lap("layers");
    notes.push(format!("phases: {}", laps.laps.join(", ")));
    Ok(RunResult {
        e2e,
        extra,
        layers: layer_metrics,
        attempted,
        failed,
        wrong,
        notes,
    })
}

/// What checking the deferred replies found.
#[derive(Debug, Default)]
struct Late {
    /// Replies that disagree with the library.
    wrong: Vec<String>,
    /// Refused or undecodable replies.
    failed: Vec<String>,
}

/// Checks every reply that depended on the file version against the
/// library over that version's bytes: one pass per key, files split
/// over two threads.
fn verify_deferred(plan: &Plan, files: &[DataFile], deferred: &[Deferred]) -> Result<Late, String> {
    let mut by_key: BTreeMap<usize, BTreeMap<usize, Vec<&Deferred>>> = BTreeMap::new();
    for d in deferred {
        by_key
            .entry(plan.reqs[d.req].key)
            .or_default()
            .entry(d.version)
            .or_default()
            .push(d);
    }
    let by_key: Vec<(usize, BTreeMap<usize, Vec<&Deferred>>)> = by_key.into_iter().collect();
    let check_key =
        |(key, versions): &(usize, BTreeMap<usize, Vec<&Deferred>>)| -> Result<Late, String> {
            let k = &plan.keys[*key];
            let file = &files[k.file];
            let has =
                |items: &[&Deferred], cmd: Cmd| items.iter().any(|d| plan.reqs[d.req].cmd == cmd);
            let cuts: Vec<(usize, bool)> = versions
                .iter()
                .map(|(&v, items)| (file.rows_at(v), has(items, Cmd::Sketch)))
                .collect();
            let last = *versions.keys().last().expect("non-empty group");
            let refs = verify::references(&file.prefix_bytes(last), &cuts, k.eps, k.seed)?;
            let mut late = Late::default();
            for ((version, items), reference) in versions.iter().zip(&refs) {
                let audit = has(items, Cmd::Audit).then(|| verify::audit_response(reference));
                for d in items {
                    let req = &plan.reqs[d.req];
                    let expected = verify::expected(req, reference, audit.as_ref())?;
                    let what = format!("{} {:?} at version {version}", req.cmd.wire(), req.attrs);
                    match judge(&d.reply, &expected) {
                        Verdict::Correct => {}
                        Verdict::Wrong(e) => late.wrong.push(format!("{what}: {e}")),
                        Verdict::Failed(e) => late.failed.push(format!("{what}: {e}")),
                    }
                }
            }
            Ok(late)
        };
    let (left, right) = by_key.split_at(by_key.len() / 2);
    let (a, b) = std::thread::scope(|scope| {
        let h = scope.spawn(|| left.iter().map(check_key).collect::<Result<Vec<_>, _>>());
        let b = right.iter().map(check_key).collect::<Result<Vec<_>, _>>();
        (
            h.join()
                .unwrap_or_else(|_| Err("verifier panicked".to_string())),
            b,
        )
    });
    let mut all = Late::default();
    for late in a?.into_iter().chain(b?) {
        all.wrong.extend(late.wrong);
        all.failed.extend(late.failed);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn_plan(work: &Path) -> (Plan, Vec<DataFile>) {
        let args = Args {
            workload: "registry_churn".to_string(),
            seed: 3,
            seconds: 1.0,
            trace: false,
            qid: PathBuf::new(),
            smoke: true,
            root: work.to_path_buf(),
        };
        data::fresh_dir(work).unwrap();
        plan("registry_churn", &args, &Scale::new(true), work).unwrap()
    }

    #[test]
    fn blocks_hold_the_exact_mix() {
        let zipf: Vec<f64> = (1..=8).map(|i| 1.0 / i as f64).collect();
        assert_eq!(
            apportion(&zipf, 100),
            vec![37, 19, 12, 9, 7, 6, 5, 5],
            "largest remainders: key 0 (.79), key 7 (.60), key 1 (.39)"
        );
        // Request `10 * command + key`, one per command and key.
        let mut by = HashMap::new();
        for (c, cmd) in [Cmd::Check, Cmd::Sketch].into_iter().enumerate() {
            for key in 0..2 {
                by.insert((cmd, key), vec![10 * c + key]);
            }
        }
        let picker = Picker::Churn {
            key_counts: vec![7, 3],
            cmds: vec![(6, Cmd::Check), (4, Cmd::Sketch)],
            by,
        };
        let mut rng = data::rng(5, 0);
        let mut orders = std::collections::HashSet::new();
        for _ in 0..20 {
            let block = picker.deal(&mut rng);
            let count = |f: &dyn Fn(usize) -> bool| block.iter().filter(|&&r| f(r)).count();
            assert_eq!(block.len(), 10);
            assert_eq!(count(&|r| r / 10 == 0), 6, "checks in {block:?}");
            assert_eq!(count(&|r| r % 10 == 0), 7, "key 0 in {block:?}");
            orders.insert(block);
        }
        assert!(orders.len() > 1, "blocks are shuffled");
    }

    #[test]
    fn refused_replies_fail_on_the_deferred_path() {
        let work = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("unit-deferred-{}", std::process::id()));
        let (plan, files) = churn_plan(&work);
        let error = Response::Error {
            message: "no such file".to_string(),
        }
        .encode()
        .into_bytes();
        let r = plan.planted[0];

        // On arrival: a refusal fails at once and is not kept.
        let mut deferred = Vec::new();
        assert!(matches!(
            defer(&mut deferred, r, 0, &error),
            Verdict::Failed(_)
        ));
        assert!(deferred.is_empty());
        let (accept, _) = plan.expect[r].clone().unwrap();
        assert_eq!(defer(&mut deferred, r, 0, &accept), Verdict::Correct);
        assert_eq!(deferred.len(), 1);

        // After the run: a refusal is a failure, a disagreeing answer is
        // wrong, and the library's own answer is neither.
        let reject = Response::Check {
            attrs: match &plan.expect[r].as_ref().unwrap().1 {
                Response::Check { attrs, .. } => attrs.clone(),
                other => panic!("planted check expects {other:?}"),
            },
            accept: false,
        }
        .encode()
        .into_bytes();
        let kept = |reply: &[u8]| Deferred {
            req: r,
            version: 0,
            reply: reply.to_vec(),
        };
        let late =
            verify_deferred(&plan, &files, &[kept(&error), kept(&reject), kept(&accept)]).unwrap();
        let _ = std::fs::remove_dir_all(&work);
        assert_eq!(late.failed.len(), 1, "{late:?}");
        assert!(late.failed[0].contains("refused"), "{late:?}");
        assert_eq!(late.wrong.len(), 1, "{late:?}");
    }
}
