//! Seeded inputs and the files that carry them to the program.
//!
//! Every input is made from the workload seed before set-up. The sparse
//! operand reaches the program through a file: the twoface binary format,
//! read back with `read_binary`, for the resident workloads, and a raw
//! triplet file replayed by [`FileTriplets`] for the streamed one.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;
use twoface_matrix::gen::TripletSource;
use twoface_matrix::io::{read_binary, write_binary};
use twoface_matrix::{CooMatrix, DenseMatrix, MatrixError, Triplet};

/// A per-process scratch directory inside the checkout, removed on drop
/// together with its parent when no other run is using that.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(root: &Path) -> io::Result<WorkDir> {
        let dir = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(root) = self.0.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A dense `rows x k` panel with entries in `[0, 1)` drawn from
/// `(seed, salt, i, j)`; different salts give independent panels.
pub fn panel(rows: usize, k: usize, seed: u64, salt: u64) -> DenseMatrix {
    let base = splitmix64(seed ^ splitmix64(salt));
    DenseMatrix::from_fn(rows, k, |i, j| {
        let h = splitmix64(base ^ splitmix64(((i as u64) << 20) ^ j as u64));
        (h >> 11) as f64 / (1u64 << 53) as f64
    })
}

pub fn write_matrix(path: &Path, matrix: &CooMatrix) -> Result<(), MatrixError> {
    write_binary(File::create(path)?, matrix)
}

pub fn read_matrix(path: &Path) -> Result<CooMatrix, MatrixError> {
    read_binary(File::open(path)?)
}

const TRIPLETS_MAGIC: [u8; 8] = *b"PBTRIPS1";
const HEADER_BYTES: u64 = 32;
const TRIPLET_BYTES: u64 = 24;

/// Drains `source` into a raw triplet file (`magic | rows | cols | count |
/// (row u64, col u64, val f64) * count`, little-endian) and returns the
/// draws in order, so the caller can assemble the resident matrix from the
/// very same triplets.
pub fn write_triplets(path: &Path, source: &mut dyn TripletSource) -> io::Result<Vec<Triplet>> {
    let mut draws = Vec::with_capacity(source.nnz_hint().unwrap_or(0));
    while source.next_chunk(1 << 20, &mut draws) > 0 {}
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(&TRIPLETS_MAGIC)?;
    for field in [source.rows() as u64, source.cols() as u64, draws.len() as u64] {
        out.write_all(&field.to_le_bytes())?;
    }
    for t in &draws {
        out.write_all(&(t.row as u64).to_le_bytes())?;
        out.write_all(&(t.col as u64).to_le_bytes())?;
        out.write_all(&t.val.to_le_bytes())?;
    }
    out.flush()?;
    Ok(draws)
}

/// Replays a raw triplet file as a [`TripletSource`], timing the time spent
/// inside [`TripletSource::next_chunk`] (the benchmark's own input cost
/// inside a streamed op).
pub struct FileTriplets {
    reader: BufReader<File>,
    rows: usize,
    cols: usize,
    total: usize,
    remaining: usize,
    input_s: f64,
    error: Option<io::Error>,
}

impl FileTriplets {
    /// Opens `path` and validates its header against the file length.
    pub fn open(path: &Path) -> io::Result<FileTriplets> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut reader = BufReader::with_capacity(1 << 20, file);
        let mut header = [0u8; HEADER_BYTES as usize];
        reader.read_exact(&mut header)?;
        let field = |i: usize| u64::from_le_bytes(header[i * 8..i * 8 + 8].try_into().expect("8"));
        let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        if header[..8] != TRIPLETS_MAGIC {
            return Err(invalid("not a triplet file"));
        }
        let (rows, cols, count) = (field(1), field(2), field(3));
        if count.checked_mul(TRIPLET_BYTES).and_then(|b| b.checked_add(HEADER_BYTES)) != Some(len) {
            return Err(invalid("triplet count disagrees with the file length"));
        }
        let size = |v: u64| usize::try_from(v).map_err(|_| invalid("dimension overflows usize"));
        let total = size(count)?;
        Ok(FileTriplets {
            reader,
            rows: size(rows)?,
            cols: size(cols)?,
            total,
            remaining: total,
            input_s: 0.0,
            error: None,
        })
    }

    /// Seconds spent inside `next_chunk` so far.
    pub fn input_s(&self) -> f64 {
        self.input_s
    }

    /// Fails if a read failed or the stream was not consumed to its end.
    pub fn finish(self) -> io::Result<()> {
        match self.error {
            Some(e) => Err(e),
            None if self.remaining > 0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("{} of {} triplets left unread", self.remaining, self.total),
            )),
            None => Ok(()),
        }
    }
}

impl TripletSource for FileTriplets {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz_hint(&self) -> Option<usize> {
        Some(self.total)
    }

    fn next_chunk(&mut self, budget: usize, out: &mut Vec<Triplet>) -> usize {
        if self.error.is_some() {
            return 0;
        }
        let start = Instant::now();
        let take = budget.min(self.remaining);
        out.reserve(take);
        let mut buf = [0u8; TRIPLET_BYTES as usize];
        for read in 0..take {
            if let Err(e) = self.reader.read_exact(&mut buf) {
                self.error = Some(e);
                self.remaining -= read;
                return read;
            }
            let word = |i: usize| u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().expect("8"));
            out.push(Triplet::new(word(0) as usize, word(1) as usize, f64::from_bits(word(2))));
        }
        self.remaining -= take;
        self.input_s += start.elapsed().as_secs_f64();
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoface_matrix::gen::{assemble, ErdosChunks};

    #[test]
    fn triplet_file_replays_the_draws() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bin");
        let draws = write_triplets(&path, &mut ErdosChunks::new(50, 40, 700, 3)).unwrap();
        let mut source = FileTriplets::open(&path).unwrap();
        let replayed = assemble(&mut source);
        source.finish().unwrap();
        let expected = CooMatrix::from_triplet_vec(50, 40, draws).unwrap();
        assert_eq!(replayed, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panels_depend_on_seed_and_salt() {
        let a = panel(16, 4, 1, 0);
        assert_eq!(a.as_slice(), panel(16, 4, 1, 0).as_slice());
        assert_ne!(a.as_slice(), panel(16, 4, 2, 0).as_slice());
        assert_ne!(a.as_slice(), panel(16, 4, 1, 1).as_slice());
        assert!(a.as_slice().iter().all(|v| (0.0..1.0).contains(v)));
    }
}
