//! Seeded inputs: covtype-shaped CSV files with an append pool, the
//! attribute sets the workloads ask about, keys confirmed on the full
//! data, and the encoded request lines.

use std::io::Write;
use std::path::{Path, PathBuf};

use qid_core::ExactOracle;
use qid_dataset::csv::write_csv;
use qid_dataset::generator::covtype_like_scaled;
use qid_dataset::{AttrId, Dataset};
use qid_server::{DatasetRef, LoadMode, Request};
use rand::{RngExt, SeedableRng, StdRng};

/// Rows per appended chunk.
pub const CHUNK_ROWS: usize = 200;

/// The covtype columns with the most distinct values; sets drawn from
/// them are keys of a covtype-shaped file with high probability, and
/// [`planted_keys`] keeps only those the exact oracle confirms.
const WIDE_COLUMNS: [&str; 4] = [
    "elevation",
    "aspect",
    "horiz-dist-roadways",
    "horiz-dist-fire",
];

/// A wire command the workloads send.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cmd {
    Check,
    Sketch,
    Audit,
    Stats,
    /// A `load --stream` of a resident, unchanged file.
    Load,
    /// The `load --stream` that follows an append and absorbs it.
    Absorb,
}

impl Cmd {
    pub fn wire(self) -> &'static str {
        match self {
            Cmd::Check => "check",
            Cmd::Sketch => "sketch",
            Cmd::Audit => "audit",
            Cmd::Stats => "stats",
            Cmd::Load | Cmd::Absorb => "load",
        }
    }
}

/// One generated CSV file: a base of `base_rows` rows on disk, and a
/// pool of `chunks` appendable chunks cut on row boundaries from the
/// same generated table. Appends take pool chunks in order and wrap.
pub struct DataFile {
    pub path: PathBuf,
    /// The whole generated table (header, base rows, pool rows).
    pub bytes: Vec<u8>,
    /// Byte offset just past the header and just past every row.
    row_ends: Vec<usize>,
    pub base_rows: usize,
    pub chunks: usize,
    /// Chunks appended so far: the file's version.
    pub version: usize,
    /// The generated table, for the exact oracle.
    pub table: Dataset,
}

impl DataFile {
    /// Generates `base_rows + chunks · CHUNK_ROWS` covtype-shaped rows
    /// and writes the base to `path`.
    pub fn generate(
        path: PathBuf,
        seed: u64,
        base_rows: usize,
        chunks: usize,
    ) -> Result<DataFile, String> {
        let table = covtype_like_scaled(seed, base_rows + chunks * CHUNK_ROWS);
        let mut bytes = Vec::new();
        write_csv(&table, &mut bytes).map_err(|e| format!("rendering csv: {e}"))?;
        let row_ends: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        if row_ends.len() != table.n_rows() + 1 {
            return Err("generated csv has embedded newlines".to_string());
        }
        let file = DataFile {
            path,
            bytes,
            row_ends,
            base_rows,
            chunks,
            version: 0,
            table,
        };
        std::fs::write(&file.path, file.prefix_bytes(0))
            .map_err(|e| format!("writing {}: {e}", file.path.display()))?;
        Ok(file)
    }

    pub fn path_str(&self) -> String {
        self.path.to_str().expect("utf-8 work dir").to_string()
    }

    /// The `i`-th appended chunk (pool chunks wrap).
    pub fn chunk_bytes(&self, i: usize) -> &[u8] {
        let c = i % self.chunks;
        let first = self.base_rows + c * CHUNK_ROWS;
        &self.bytes[self.row_ends[first]..self.row_ends[first + CHUNK_ROWS]]
    }

    /// The file's contents at `version`.
    pub fn prefix_bytes(&self, version: usize) -> Vec<u8> {
        let mut out = self.bytes[..self.row_ends[self.base_rows]].to_vec();
        for i in 0..version {
            out.extend_from_slice(self.chunk_bytes(i));
        }
        out
    }

    pub fn rows_at(&self, version: usize) -> usize {
        self.base_rows + version * CHUNK_ROWS
    }

    /// Appends the next pool chunk to the file on disk.
    pub fn append(&mut self) -> Result<(), String> {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("opening {} for append: {e}", self.path.display()))?;
        f.write_all(self.chunk_bytes(self.version))
            .and_then(|_| f.flush())
            .map_err(|e| format!("appending to {}: {e}", self.path.display()))?;
        self.version += 1;
        Ok(())
    }

    pub fn names(&self) -> Vec<String> {
        self.table.schema().names().map(str::to_string).collect()
    }
}

/// A registry cache key of the workload.
#[derive(Clone, Debug)]
pub struct Key {
    pub file: usize,
    pub eps: f64,
    pub seed: u64,
}

impl Key {
    pub fn dataset_ref(&self, files: &[DataFile]) -> DatasetRef {
        DatasetRef {
            path: files[self.file].path_str(),
            eps: self.eps,
            seed: self.seed,
        }
    }
}

/// One request the workload can send, encoded once.
pub struct Req {
    pub cmd: Cmd,
    pub key: usize,
    pub attrs: Vec<usize>,
    pub line: Vec<u8>,
}

/// Maximum attribute-set size of `audit` requests.
pub const AUDIT_MAX_KEY_SIZE: usize = 2;

pub fn build_request(
    cmd: Cmd,
    key: usize,
    attrs: &[usize],
    keys: &[Key],
    files: &[DataFile],
) -> Req {
    let ds = keys[key].dataset_ref(files);
    let names: Vec<String> = attrs
        .iter()
        .map(|&a| {
            files[keys[key].file]
                .table
                .schema()
                .attr(AttrId::new(a))
                .name()
                .to_string()
        })
        .collect();
    let request = match cmd {
        Cmd::Check => Request::Check { ds, attrs: names },
        Cmd::Sketch => Request::Sketch { ds, attrs: names },
        Cmd::Audit => Request::Audit {
            ds,
            max_key_size: AUDIT_MAX_KEY_SIZE,
        },
        Cmd::Stats => Request::Stats { ds },
        Cmd::Load | Cmd::Absorb => Request::Load {
            ds,
            mode: LoadMode::Stream,
        },
    };
    Req {
        cmd,
        key,
        attrs: attrs.to_vec(),
        line: request.encode().into_bytes(),
    }
}

/// `count` attribute sets of 1–3 distinct attributes out of `m`,
/// sorted within each set.
pub fn attr_sets(rng: &mut StdRng, m: usize, count: usize) -> Vec<Vec<usize>> {
    (0..count)
        .map(|_| {
            let size = rng.random_range(1..=3usize);
            let mut set: Vec<usize> = Vec::with_capacity(size);
            while set.len() < size {
                let a = rng.random_range(0..m);
                if !set.contains(&a) {
                    set.push(a);
                }
            }
            set.sort_unstable();
            set
        })
        .collect()
}

/// Sets of wide columns that the exact oracle confirms are keys of the
/// whole generated table (so of every prefix of it too): the four
/// triples and the quadruple. Fails if none is a key.
pub fn planted_keys(table: &Dataset) -> Result<Vec<Vec<usize>>, String> {
    let ids: Vec<usize> = WIDE_COLUMNS
        .iter()
        .map(|n| {
            table
                .schema()
                .attr_by_name(n)
                .map(AttrId::index)
                .ok_or_else(|| format!("column {n} missing"))
        })
        .collect::<Result<_, _>>()?;
    let mut candidates: Vec<Vec<usize>> = (0..ids.len())
        .map(|skip| {
            let mut set: Vec<usize> = (0..ids.len())
                .filter(|&i| i != skip)
                .map(|i| ids[i])
                .collect();
            set.sort_unstable();
            set
        })
        .collect();
    let mut all = ids.clone();
    all.sort_unstable();
    candidates.push(all);
    let oracle = ExactOracle::new(table);
    let keys: Vec<Vec<usize>> = candidates
        .into_iter()
        .filter(|set| {
            let attrs: Vec<AttrId> = set.iter().map(|&a| AttrId::new(a)).collect();
            oracle.is_key(&attrs)
        })
        .collect();
    if keys.is_empty() {
        return Err("no wide-column set is a key of the generated table".to_string());
    }
    Ok(keys)
}

/// A per-purpose seed derived from the workload seed.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, purpose))
}

/// A fresh, empty directory.
pub fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("creating {}: {e}", path.display()))
}
