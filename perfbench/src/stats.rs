//! Percentiles from raw samples, and the in-memory span recorder.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Samples beyond a tail percentile that a run must hold before the
/// percentile is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`. A percentile
/// above the median is refused unless at least [`MIN_TAIL_SAMPLES`]
/// samples lie beyond it, so a run can never report a tail it did not
/// measure.
pub fn percentile(sorted: &[u64], p: f64, what: &str) -> Result<u64, String> {
    if sorted.is_empty() {
        return Err(format!("{what}: no samples"));
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    if p > 50.0 && n - rank < MIN_TAIL_SAMPLES {
        return Err(format!(
            "{what}: p{p} needs {MIN_TAIL_SAMPLES} samples beyond it, the run has {n} samples \
             ({} beyond); lengthen the run",
            n - rank
        ));
    }
    Ok(sorted[rank - 1])
}

/// Sorts a copy and takes the nearest-rank median.
pub fn median_u64(values: &[u64]) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    v[v.len().div_ceil(2) - 1]
}

/// Nearest-rank median of floats: the lower of the two middle values
/// for an even count.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(2) - 1]
}

/// One timed interval. Spans of one request share `op`; `parent` is
/// the index of the enclosing span in the same recorder.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Spans kept in memory for the whole run and written out at its end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, start, end, parent, op);
        (out, (end - start) as f64 / 1e9)
    }

    /// Opens a group span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent, 0)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Appends another recorder's spans (same origin), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's self time: its duration minus the part of it that
    /// its children cover (overlapping children counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span as one JSON line with its self time.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"dur_ns\":{},\"self_ns\":{own}}}",
                s.name,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.end_ns - s.start_ns,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_tail_guard() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0, "t").unwrap(), 50);
        assert_eq!(percentile(&v, 90.0, "t").unwrap(), 90);
        // p95 of 100 samples leaves only 5 beyond it.
        assert!(percentile(&v, 95.0, "t").is_err());
        let w: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&w, 95.0, "t").unwrap(), 190);
        assert_eq!(median_u64(&[3, 1, 2]), 2);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("root", 0, 100, None, 1);
        t.record("a", 10, 40, Some(root), 1);
        t.record("b", 30, 50, Some(root), 1);
        t.record("c", 90, 120, Some(root), 1);
        let own = t.self_times_ns();
        // Children cover [10, 50) and [90, 100): 50 ns of 100.
        assert_eq!(own[root], 50);
        assert_eq!(own[1], 30);
    }
}
