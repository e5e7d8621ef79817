use crate::{CooMatrix, MatrixError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Entries reserved up front, whatever the size line declares; the rest
/// grows with the entries actually read.
const MAX_PREALLOCATED_ENTRIES: usize = 1 << 16;

/// Reads a sparse matrix in Matrix Market coordinate format.
///
/// Supports the `matrix coordinate` object with `real`, `integer`, or
/// `pattern` fields and `general` or `symmetric` symmetry. Pattern entries
/// get value 1.0; symmetric entries are mirrored. The size line's entry
/// count is a claim, not a size: memory grows with the entries actually
/// read, so a short file claiming 10^18 entries fails with a parse error
/// instead of an allocation failure. Note that a mutable
/// reference also satisfies `R: Read`, so `read_market(&mut reader)` works
/// when the reader must be reused.
///
/// # Errors
///
/// Returns [`MatrixError::Parse`] on malformed input and
/// [`MatrixError::Io`] on read failures.
///
/// # Example
///
/// ```
/// use twoface_matrix::io::read_market;
///
/// # fn main() -> Result<(), twoface_matrix::MatrixError> {
/// let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.5\n2 2 1.0\n";
/// let m = read_market(text.as_bytes())?;
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.triplets()[0].val, 3.5);
/// # Ok(())
/// # }
/// ```
pub fn read_market<R: Read>(reader: R) -> Result<CooMatrix, MatrixError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();

    // Header line.
    let (header_line_no, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (i + 1, line);
                }
            }
            None => return Err(MatrixError::Parse { line: 0, message: "empty file".into() }),
        }
    };
    let tokens: Vec<String> = header.split_whitespace().map(|t| t.to_ascii_lowercase()).collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(MatrixError::Parse {
            line: header_line_no,
            message: format!("not a MatrixMarket header: {header:?}"),
        });
    }
    if tokens[2] != "coordinate" {
        return Err(MatrixError::Parse {
            line: header_line_no,
            message: format!("unsupported format {:?}, only coordinate is supported", tokens[2]),
        });
    }
    let pattern = match tokens[3].as_str() {
        "real" | "integer" => false,
        "pattern" => true,
        other => {
            return Err(MatrixError::Parse {
                line: header_line_no,
                message: format!("unsupported field type {other:?}"),
            })
        }
    };
    let symmetric = match tokens[4].as_str() {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(MatrixError::Parse {
                line: header_line_no,
                message: format!("unsupported symmetry {other:?}"),
            })
        }
    };

    // Size line (skipping comments).
    let (size_line_no, size_line) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                let trimmed = line.trim();
                if !trimmed.is_empty() && !trimmed.starts_with('%') {
                    break (i + 1, line);
                }
            }
            None => {
                return Err(MatrixError::Parse { line: 0, message: "missing size line".into() })
            }
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(MatrixError::Parse {
            line: size_line_no,
            message: format!("size line must have 3 fields, got {:?}", size_line.trim()),
        });
    }
    let parse_usize = |s: &str, line: usize| {
        s.parse::<usize>()
            .map_err(|_| MatrixError::Parse { line, message: format!("invalid integer {s:?}") })
    };
    let rows = parse_usize(dims[0], size_line_no)?;
    let cols = parse_usize(dims[1], size_line_no)?;
    let declared_nnz = parse_usize(dims[2], size_line_no)?;

    let mirrored = declared_nnz.saturating_mul(if symmetric { 2 } else { 1 });
    let mut triplets = Vec::with_capacity(mirrored.min(MAX_PREALLOCATED_ENTRIES));
    let mut seen = 0usize;
    for (i, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let line_no = i + 1;
        if seen == declared_nnz {
            return Err(MatrixError::Parse {
                line: line_no,
                message: format!("size line declared {declared_nnz} entries but file has more"),
            });
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        let expected = if pattern { 2 } else { 3 };
        if fields.len() < expected {
            return Err(MatrixError::Parse {
                line: line_no,
                message: format!("entry needs {expected} fields, got {:?}", trimmed),
            });
        }
        let r = parse_usize(fields[0], line_no)?;
        let c = parse_usize(fields[1], line_no)?;
        if r == 0 || c == 0 {
            return Err(MatrixError::Parse {
                line: line_no,
                message: "MatrixMarket indices are 1-based; found 0".into(),
            });
        }
        let v = if pattern {
            1.0
        } else {
            fields[2].parse::<f64>().map_err(|_| MatrixError::Parse {
                line: line_no,
                message: format!("invalid value {:?}", fields[2]),
            })?
        };
        triplets.push((r - 1, c - 1, v));
        if symmetric && r != c {
            triplets.push((c - 1, r - 1, v));
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(MatrixError::Parse {
            line: 0,
            message: format!("size line declared {declared_nnz} entries but file has {seen}"),
        });
    }
    CooMatrix::from_triplets(rows, cols, triplets)
}

/// Reads a Matrix Market file from a path.
///
/// # Errors
///
/// Propagates [`read_market`] errors plus file-open failures.
pub fn read_market_file<P: AsRef<Path>>(path: P) -> Result<CooMatrix, MatrixError> {
    let file = std::fs::File::open(path)?;
    read_market(file)
}

/// Writes a sparse matrix in Matrix Market coordinate/real/general format.
///
/// A mutable reference also satisfies `W: Write`, so `write_market(&mut w, ..)`
/// works when the writer must be reused.
///
/// # Errors
///
/// Returns [`MatrixError::Io`] on write failures.
pub fn write_market<W: Write>(writer: W, matrix: &CooMatrix) -> Result<(), MatrixError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by twoface-matrix")?;
    writeln!(w, "{} {} {}", matrix.rows(), matrix.cols(), matrix.nnz())?;
    for (r, c, v) in matrix.iter() {
        writeln!(w, "{} {} {}", r + 1, c + 1, v)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a Matrix Market file to a path.
///
/// # Errors
///
/// Propagates [`write_market`] errors plus file-create failures.
pub fn write_market_file<P: AsRef<Path>>(path: P, matrix: &CooMatrix) -> Result<(), MatrixError> {
    let file = std::fs::File::create(path)?;
    write_market(file, matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    #[test]
    fn round_trip() {
        let m =
            CooMatrix::from_triplets(3, 4, vec![(0, 0, 1.5), (2, 3, -2.0), (1, 1, 0.25)]).unwrap();
        let mut buf = Vec::new();
        write_market(&mut buf, &m).unwrap();
        let back = read_market(buf.as_slice()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn pattern_entries_get_unit_value() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1\n";
        let m = read_market(text.as_bytes()).unwrap();
        assert_eq!(m.triplets()[0].val, 1.0);
        assert_eq!(m.triplets()[0].row, 1);
    }

    #[test]
    fn symmetric_entries_are_mirrored() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5.0\n3 3 1.0\n";
        let m = read_market(text.as_bytes()).unwrap();
        let t: Vec<_> = m.iter().collect();
        assert_eq!(t, vec![(0, 1, 5.0), (1, 0, 5.0), (2, 2, 1.0)]);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "\n%%MatrixMarket matrix coordinate real general\n% a comment\n\n2 2 1\n% more\n1 2 3.0\n";
        let m = read_market(text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn wrong_header_rejected() {
        let text = "%%NotMatrixMarket nothing\n1 1 0\n";
        let err = read_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn zero_index_rejected() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_market(text.as_bytes()).is_err());
    }

    #[test]
    fn nnz_mismatch_rejected() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let err = read_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("declared"));
    }

    #[test]
    fn entries_past_the_declared_count_are_rejected_where_they_start() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 2.0\n";
        match read_market(text.as_bytes()) {
            Err(MatrixError::Parse { line: 4, message }) => assert!(message.contains("declared")),
            other => panic!("expected a parse error on line 4, got {other:?}"),
        }
    }

    /// A three-line file whose size line claims a huge entry count fails
    /// with a parse error, for every claim up to `usize::MAX`, without
    /// reserving memory for the claim.
    #[test]
    fn oversized_entry_claims_do_not_preallocate() {
        for symmetry in ["general", "symmetric"] {
            for claim in [10usize.pow(15), 10usize.pow(18), usize::MAX] {
                let text = format!(
                    "%%MatrixMarket matrix coordinate real {symmetry}\n1 1 {claim}\n1 1 1.0\n"
                );
                match read_market(text.as_bytes()) {
                    Err(MatrixError::Parse { message, .. }) => {
                        assert!(message.contains("declared"), "{symmetry} {claim}: {message}")
                    }
                    other => panic!("{symmetry} {claim}: expected a parse error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("twoface-market-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        let m = CooMatrix::from_triplets(2, 2, vec![(0, 1, 2.0)]).unwrap();
        write_market_file(&path, &m).unwrap();
        let back = read_market_file(&path);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back.unwrap(), m);
    }
}
