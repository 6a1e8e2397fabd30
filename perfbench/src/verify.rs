//! Reference answers: the library run on the same bytes the server
//! read, and the comparison of a served reply against them.

use std::io::Cursor;

use qid_core::filter::{FilterDecision, FilterParams, SeparationFilter, TupleSampleFilter};
use qid_core::minkey::{enumerate_minimal_keys, LatticeConfig};
use qid_core::separation::group_sizes;
use qid_core::sketch::DistinctSketch;
use qid_core::stream::{sketch_from_stream, tuple_filter_from_stream, PairIngest, TupleIngest};
use qid_core::NonSeparationSketch;
use qid_dataset::csv::{CsvOptions, CsvTupleSource};
use qid_dataset::{AttrId, DatasetError, TupleSource, Value};
use qid_server::proto::{SKETCH_ALPHA, SKETCH_K, SKETCH_REL_EPS};
use qid_server::registry::COLUMN_SKETCH_K;
use qid_server::{sketch_params, Response};

use crate::data::{Cmd, Req, AUDIT_MAX_KEY_SIZE};

/// The lattice candidate cap the server applies to `audit`.
pub const SERVED_MAX_CANDIDATES: usize = 500_000;

/// What the library computes from one version of one file.
pub struct Reference {
    pub names: Vec<String>,
    pub rows: usize,
    pub filter: TupleSampleFilter,
    pub cols: Vec<DistinctSketch>,
    pub sketch: Option<NonSeparationSketch>,
}

fn source(bytes: &[u8]) -> Result<CsvTupleSource, String> {
    CsvTupleSource::from_reader(Cursor::new(bytes.to_vec()), &CsvOptions::default())
        .map_err(|e| format!("reference csv: {e}"))
}

/// Passes tuples through while feeding per-column distinct sketches,
/// the way the registry's stream build does.
struct ColumnTee<'a> {
    inner: &'a mut dyn TupleSource,
    cols: Vec<DistinctSketch>,
}

impl TupleSource for ColumnTee<'_> {
    fn attr_names(&self) -> Vec<String> {
        self.inner.attr_names()
    }

    fn next_tuple(&mut self) -> Result<Option<Vec<Value>>, DatasetError> {
        let tuple = self.inner.next_tuple()?;
        if let Some(t) = &tuple {
            for (sk, v) in self.cols.iter_mut().zip(t) {
                sk.observe(v);
            }
        }
        Ok(tuple)
    }
}

/// Builds the reference for `bytes` (a whole CSV file) with
/// `tuple_filter_from_stream` and, when asked, `sketch_from_stream`,
/// using the served sampling parameters.
pub fn reference(
    bytes: &[u8],
    eps: f64,
    seed: u64,
    with_sketch: bool,
) -> Result<Reference, String> {
    let mut src = source(bytes)?;
    let names = src.attr_names();
    let mut tee = ColumnTee {
        cols: vec![DistinctSketch::new(COLUMN_SKETCH_K); names.len()],
        inner: &mut src,
    };
    let filter = tuple_filter_from_stream(&mut tee, FilterParams::new(eps), seed)
        .map_err(|e| format!("reference filter: {e}"))?;
    let cols = tee.cols;
    let rows = src.rows_read();
    let sketch = match with_sketch {
        true => Some(
            sketch_from_stream(&mut source(bytes)?, sketch_params(), seed)
                .map_err(|e| format!("reference sketch: {e}"))?,
        ),
        false => None,
    };
    Ok(Reference {
        names,
        rows,
        filter,
        cols,
        sketch,
    })
}

/// References for several prefixes of one CSV in a single pass: one
/// per `(rows, with_sketch)` cut, in ascending `rows` order, where
/// `usize::MAX` means the whole stream. The builders are the ones
/// `tuple_filter_from_stream` and `sketch_from_stream` drive, read out
/// (they are not consumed) after exactly `rows` tuples, so each
/// reference equals a cold library build over that prefix.
pub fn references(
    bytes: &[u8],
    cuts: &[(usize, bool)],
    eps: f64,
    seed: u64,
) -> Result<Vec<Reference>, String> {
    let mut src = source(bytes)?;
    let names = src.attr_names();
    let params = FilterParams::new(eps);
    let mut ingest = TupleIngest::new(names.clone(), params, seed);
    let sketch = sketch_params();
    let mut pairs = cuts.iter().any(|c| c.1).then(|| {
        PairIngest::new(
            names.clone(),
            sketch.pair_sample_size(names.len()).max(1),
            seed,
        )
    });
    let mut cols = vec![DistinctSketch::new(COLUMN_SKETCH_K); names.len()];
    let mut out = Vec::with_capacity(cuts.len());
    let snapshot = |ingest: &TupleIngest,
                    pairs: &Option<PairIngest>,
                    cols: &[DistinctSketch],
                    with_sketch: bool|
     -> Result<Reference, String> {
        let err = |e: DatasetError| format!("reference build: {e}");
        Ok(Reference {
            names: names.clone(),
            rows: ingest.rows(),
            filter: ingest.to_filter(params).map_err(err)?,
            cols: cols.to_vec(),
            sketch: match (with_sketch, pairs) {
                (true, Some(p)) => Some(p.to_sketch(sketch).map_err(err)?),
                _ => None,
            },
        })
    };
    let mut next = 0;
    loop {
        while next < cuts.len() && cuts[next].0 == ingest.rows() {
            out.push(snapshot(&ingest, &pairs, &cols, cuts[next].1)?);
            next += 1;
        }
        let Some(tuple) = src
            .next_tuple()
            .map_err(|e| format!("reference csv: {e}"))?
        else {
            break;
        };
        for (sk, v) in cols.iter_mut().zip(&tuple) {
            sk.observe(v);
        }
        if let Some(p) = &mut pairs {
            p.push(&tuple);
        }
        ingest.push(tuple);
    }
    for cut in &cuts[next..] {
        if cut.0 != usize::MAX {
            return Err(format!(
                "reference wants {} rows, the csv has {}",
                cut.0,
                ingest.rows()
            ));
        }
        out.push(snapshot(&ingest, &pairs, &cols, cut.1)?);
    }
    Ok(out)
}

fn ids(attrs: &[usize]) -> Vec<AttrId> {
    attrs.iter().map(|&a| AttrId::new(a)).collect()
}

/// The audit answer the server must give on `reference`'s sample.
pub fn audit_response(reference: &Reference) -> Response {
    let sample = reference.filter.sample();
    let keys = enumerate_minimal_keys(
        sample,
        LatticeConfig {
            max_size: AUDIT_MAX_KEY_SIZE,
            max_candidates: SERVED_MAX_CANDIDATES,
        },
    );
    Response::Audit {
        keys: keys
            .into_iter()
            .map(|key| {
                let unique = group_sizes(sample, &key)
                    .iter()
                    .filter(|&&s| s == 1)
                    .count();
                let names = key
                    .iter()
                    .map(|a| reference.names[a.index()].clone())
                    .collect();
                (names, unique as f64 / sample.n_rows() as f64)
            })
            .collect(),
    }
}

/// The answer the server must give to `req` on `reference`.
/// `audit` is expensive, so callers pass it in precomputed.
pub fn expected(
    req: &Req,
    reference: &Reference,
    audit: Option<&Response>,
) -> Result<Response, String> {
    let names: Vec<String> = req
        .attrs
        .iter()
        .map(|&a| reference.names[a].clone())
        .collect();
    Ok(match req.cmd {
        Cmd::Check => Response::Check {
            attrs: names,
            accept: reference.filter.query(&ids(&req.attrs)) == FilterDecision::Accept,
        },
        Cmd::Sketch => {
            let sk = reference
                .sketch
                .as_ref()
                .ok_or("sketch reference not built")?;
            let attrs = ids(&req.attrs);
            let params = sketch_params();
            debug_assert_eq!(
                (params.alpha, params.eps, params.k),
                (SKETCH_ALPHA, SKETCH_REL_EPS, SKETCH_K)
            );
            Response::Sketch {
                attrs: names,
                estimate: sk.query(&attrs).estimate(),
                raw_pairs: sk.raw_count(&attrs),
                sample_pairs: sk.sample_size(),
                alpha: SKETCH_ALPHA,
                rel_error: SKETCH_REL_EPS,
                k: SKETCH_K,
            }
        }
        Cmd::Audit => audit.cloned().ok_or("audit reference not built")?,
        Cmd::Stats => Response::Stats {
            rows: reference.rows,
            exact: reference.cols.iter().all(DistinctSketch::is_exact),
            columns: reference
                .names
                .iter()
                .cloned()
                .zip(reference.cols.iter().map(DistinctSketch::estimate))
                .collect(),
        },
        Cmd::Load | Cmd::Absorb => Response::Loaded {
            rows: reference.rows,
            attrs: reference.names.len(),
            sample: reference.filter.sample().n_rows(),
            cached: true,
        },
    })
}

/// How a reply compared with the reference.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Correct,
    /// Transport failure, refusal, or an `"ok":false` reply.
    Failed(String),
    /// A successful reply that disagrees with the library.
    Wrong(String),
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Decodes a reply, or says why it fails whatever the reference: it
/// does not decode, or the server refused the request (an `"ok":false`
/// error, line too long, rate limited, too busy).
pub fn screen(reply: &[u8]) -> Result<Response, String> {
    let got = std::str::from_utf8(reply)
        .ok()
        .and_then(|s| Response::decode(s).ok())
        .ok_or_else(|| format!("undecodable reply {:?}", String::from_utf8_lossy(reply)))?;
    match got {
        Response::Error { .. }
        | Response::LineTooLong { .. }
        | Response::RateLimited { .. }
        | Response::TooBusy { .. } => Err(format!("server refused: {got:?}")),
        got => Ok(got),
    }
}

/// Compares a reply line with the expected response.
pub fn judge(reply: &[u8], expected: &Response) -> Verdict {
    let got = match screen(reply) {
        Ok(got) => got,
        Err(e) => return Verdict::Failed(e),
    };
    let same = match (&got, expected) {
        (
            Response::Check {
                attrs: a,
                accept: x,
            },
            Response::Check {
                attrs: b,
                accept: y,
            },
        ) => a == b && x == y,
        (
            Response::Sketch {
                attrs: a,
                estimate: ea,
                raw_pairs: ra,
                sample_pairs: sa,
                ..
            },
            Response::Sketch {
                attrs: b,
                estimate: eb,
                raw_pairs: rb,
                sample_pairs: sb,
                ..
            },
        ) => {
            a == b
                && ra == rb
                && sa == sb
                && match (ea, eb) {
                    (Some(x), Some(y)) => close(*x, *y),
                    (None, None) => true,
                    _ => false,
                }
        }
        (Response::Audit { keys: a }, Response::Audit { keys: b }) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((na, fa), (nb, fb))| na == nb && close(*fa, *fb))
        }
        (
            Response::Stats {
                rows: ra,
                exact: xa,
                columns: ca,
            },
            Response::Stats {
                rows: rb,
                exact: xb,
                columns: cb,
            },
        ) => ra == rb && xa == xb && ca == cb,
        (
            Response::Loaded {
                rows: ra,
                attrs: aa,
                sample: sa,
                ..
            },
            Response::Loaded {
                rows: rb,
                attrs: ab,
                sample: sb,
                ..
            },
        ) => ra == rb && aa == ab && sa == sb,
        _ => false,
    };
    if same {
        Verdict::Correct
    } else {
        Verdict::Wrong(format!("got {got:?}, library says {expected:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qid_dataset::csv::write_csv;
    use qid_dataset::generator::covtype_like_scaled;

    #[test]
    fn one_pass_prefix_references_equal_cold_library_builds() {
        let mut bytes = Vec::new();
        write_csv(&covtype_like_scaled(3, 1_200), &mut bytes).unwrap();
        let cut = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1_000)
            .unwrap()
            .0
            + 1;
        let refs = references(&bytes, &[(1_000, true), (usize::MAX, true)], 0.01, 9).unwrap();
        for (r, prefix) in refs.iter().zip([&bytes[..cut], &bytes[..]]) {
            let cold = reference(prefix, 0.01, 9, true).unwrap();
            assert_eq!(r.rows, cold.rows);
            assert_eq!(r.filter.sample().n_rows(), cold.filter.sample().n_rows());
            for row in 0..r.filter.sample().n_rows() {
                assert_eq!(
                    r.filter.sample().row(row).to_vec(),
                    cold.filter.sample().row(row).to_vec()
                );
            }
            let (a, b) = (r.sketch.as_ref().unwrap(), cold.sketch.as_ref().unwrap());
            assert_eq!(a.sample_size(), b.sample_size());
            for attr in 0..54 {
                let attrs = [AttrId::new(attr)];
                assert_eq!(a.raw_count(&attrs), b.raw_count(&attrs));
            }
            let est = |r: &Reference| {
                r.cols
                    .iter()
                    .map(DistinctSketch::estimate)
                    .collect::<Vec<_>>()
            };
            assert_eq!(est(r), est(&cold));
        }
    }
}
