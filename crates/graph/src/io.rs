//! Graph file loaders, so the simulator can run on real datasets (e.g. the
//! SNAP graphs the paper uses) instead of the synthetic substitutes.
//!
//! Two formats are supported:
//!
//! - **Edge list** (`.el` / SNAP `.txt`): one `src dst [weight]` pair per
//!   line; `#` or `%` lines are comments. This is the format SNAP
//!   distributes orkut and livejournal in.
//! - **DIMACS** (`.gr`): the 9th-DIMACS shortest-path format used for road
//!   networks (`c` comments, `p sp <n> <m>` header, `a <src> <dst> <w>`
//!   arcs, 1-indexed).

use crate::csr::{Csr, CsrBuilder};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Errors produced by the loaders.
#[derive(Debug)]
pub enum LoadGraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse; carries the 1-based line number and content.
    Parse(usize, String),
    /// The DIMACS header is missing or malformed.
    MissingHeader,
}

impl std::fmt::Display for LoadGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadGraphError::Io(e) => write!(f, "i/o error: {e}"),
            LoadGraphError::Parse(line, text) => {
                write!(f, "parse error at line {line}: {text:?}")
            }
            LoadGraphError::MissingHeader => f.write_str("missing DIMACS `p sp` header"),
        }
    }
}

impl std::error::Error for LoadGraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadGraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LoadGraphError {
    fn from(e: std::io::Error) -> Self {
        LoadGraphError::Io(e)
    }
}

/// Reads an edge-list graph from `reader`. Weights in a third column are
/// used when `weighted` is set (defaulting to 1 if the column is absent);
/// otherwise they are ignored. Vertex IDs may be sparse: the vertex count
/// is `max id + 1`, so an ID must stay below `u32::MAX`.
///
/// # Errors
///
/// Returns [`LoadGraphError::Parse`] on malformed lines (including an ID of
/// `u32::MAX`) and [`LoadGraphError::Io`] on read failures.
///
/// # Example
///
/// ```
/// use droplet_graph::io::read_edge_list;
/// let text = "# comment\n0 1\n1 2 9\n";
/// let g = read_edge_list(text.as_bytes(), false).unwrap();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.neighbors(1), &[2]);
/// ```
pub fn read_edge_list(reader: impl Read, weighted: bool) -> Result<Csr, LoadGraphError> {
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    let mut max_id: u32 = 0;
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') || text.starts_with('%') {
            continue;
        }
        let mut parts = text.split_whitespace();
        let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
            return Err(LoadGraphError::Parse(idx + 1, line.clone()));
        };
        let parse = |s: &str| {
            s.parse::<u32>()
                .map_err(|_| LoadGraphError::Parse(idx + 1, line.clone()))
        };
        let (u, v) = (parse(a)?, parse(b)?);
        if u == u32::MAX || v == u32::MAX {
            // `max id + 1` would not fit the vertex count.
            return Err(LoadGraphError::Parse(idx + 1, line.clone()));
        }
        let w = match parts.next() {
            Some(ws) if weighted => parse(ws)?,
            _ => 1,
        };
        max_id = max_id.max(u).max(v);
        edges.push((u, v, w));
    }
    let n = if edges.is_empty() { 0 } else { max_id + 1 };
    let mut b = CsrBuilder::with_capacity(n, edges.len());
    for (u, v, w) in edges {
        if weighted {
            b.push_weighted_edge(u, v, w);
        } else {
            b.push_edge(u, v);
        }
    }
    Ok(b.dedup().build())
}

/// Loads an edge-list graph from a file path.
///
/// # Errors
///
/// See [`read_edge_list`].
pub fn load_edge_list(path: impl AsRef<Path>, weighted: bool) -> Result<Csr, LoadGraphError> {
    read_edge_list(std::fs::File::open(path)?, weighted)
}

/// Reads a 9th-DIMACS shortest-path graph (`p sp` format, 1-indexed arcs)
/// from `reader`; always weighted.
///
/// # Errors
///
/// Returns [`LoadGraphError::MissingHeader`] when no `p sp` line precedes
/// the arcs, and [`LoadGraphError::Parse`] on malformed lines, including
/// arcs whose endpoints lie outside `1..=n`.
///
/// # Example
///
/// ```
/// use droplet_graph::io::read_dimacs;
/// let text = "c road net\np sp 3 2\na 1 2 5\na 2 3 7\n";
/// let g = read_dimacs(text.as_bytes()).unwrap();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.edge_weights(0), &[5]);
/// ```
pub fn read_dimacs(reader: impl Read) -> Result<Csr, LoadGraphError> {
    let mut builder: Option<(u32, CsrBuilder)> = None;
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let text = line.trim();
        let mut parts = text.split_whitespace();
        match parts.next() {
            None | Some("c") => continue,
            Some("p") => {
                // p sp <n> <m>
                let sp = parts.next();
                let n = parts.next().and_then(|s| s.parse::<u32>().ok());
                match (sp, n) {
                    (Some("sp"), Some(n)) => builder = Some((n, CsrBuilder::new(n))),
                    _ => return Err(LoadGraphError::Parse(idx + 1, line.clone())),
                }
            }
            Some("a") => {
                let (n, b) = builder.as_mut().ok_or(LoadGraphError::MissingHeader)?;
                let mut parse_next = || {
                    parts
                        .next()
                        .and_then(|s| s.parse::<u32>().ok())
                        .ok_or_else(|| LoadGraphError::Parse(idx + 1, line.clone()))
                };
                let (u, v, w) = (parse_next()?, parse_next()?, parse_next()?);
                if u == 0 || v == 0 || u > *n || v > *n {
                    return Err(LoadGraphError::Parse(idx + 1, line.clone()));
                }
                b.push_weighted_edge(u - 1, v - 1, w.max(1));
            }
            Some(_) => return Err(LoadGraphError::Parse(idx + 1, line.clone())),
        }
    }
    let (_, b) = builder.ok_or(LoadGraphError::MissingHeader)?;
    Ok(b.dedup().build())
}

/// Loads a DIMACS `.gr` graph from a file path.
///
/// # Errors
///
/// See [`read_dimacs`].
pub fn load_dimacs(path: impl AsRef<Path>) -> Result<Csr, LoadGraphError> {
    read_dimacs(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_parses_comments_and_weights() {
        let text = "# snap header\n% matrix-market-ish comment\n0 3\n3 0 42\n\n1 2 7\n";
        let g = read_edge_list(text.as_bytes(), true).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[3]);
        assert_eq!(g.edge_weights(0), &[1], "missing weight defaults to 1");
        assert_eq!(g.edge_weights(3), &[42]);
        assert_eq!(g.edge_weights(1), &[7]);
    }

    #[test]
    fn edge_list_unweighted_ignores_third_column() {
        let g = read_edge_list("0 1 99\n".as_bytes(), false).unwrap();
        assert!(!g.is_weighted());
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list("0 x\n".as_bytes(), false).unwrap_err();
        assert!(matches!(err, LoadGraphError::Parse(1, _)), "{err}");
        let err = read_edge_list("0\n".as_bytes(), false).unwrap_err();
        assert!(matches!(err, LoadGraphError::Parse(1, _)));
        // `max id + 1` overflows the u32 vertex count.
        let err = read_edge_list("0 4294967295\n".as_bytes(), false).unwrap_err();
        assert!(matches!(err, LoadGraphError::Parse(1, _)), "{err}");
    }

    #[test]
    fn edge_list_empty_is_empty_graph() {
        let g = read_edge_list("# nothing\n".as_bytes(), false).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn dimacs_roundtrip() {
        let text = "c USA-road-d style\np sp 4 3\na 1 2 10\na 2 3 20\na 4 1 30\n";
        let g = read_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.edge_weights(3), &[30]);
        assert!(g.is_weighted());
    }

    #[test]
    fn dimacs_requires_header() {
        let err = read_dimacs("a 1 2 3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, LoadGraphError::MissingHeader), "{err}");
        let err = read_dimacs("c only comments\n".as_bytes()).unwrap_err();
        assert!(matches!(err, LoadGraphError::MissingHeader));
    }

    #[test]
    fn dimacs_rejects_zero_ids_and_unknown_records() {
        let err = read_dimacs("p sp 2 1\na 0 1 5\n".as_bytes()).unwrap_err();
        assert!(matches!(err, LoadGraphError::Parse(2, _)));
        let err = read_dimacs("p sp 2 1\nz what\n".as_bytes()).unwrap_err();
        assert!(matches!(err, LoadGraphError::Parse(2, _)));
        // An arc endpoint above the header's vertex count.
        let err = read_dimacs("p sp 2 1\na 1 5 3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, LoadGraphError::Parse(2, _)), "{err}");
    }

    #[test]
    fn file_loaders_work() {
        let dir = std::env::temp_dir().join(format!("droplet-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let el = dir.join("g.el");
        std::fs::write(&el, "0 1\n1 0\n").unwrap();
        let g = load_edge_list(&el, false).unwrap();
        assert_eq!(g.num_edges(), 2);
        let gr = dir.join("g.gr");
        std::fs::write(&gr, "p sp 2 1\na 1 2 4\n").unwrap();
        let g = load_dimacs(&gr).unwrap();
        assert_eq!(g.edge_weights(0), &[4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_display_is_informative() {
        let err = read_edge_list("bad line\n".as_bytes(), false).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 1"), "{text}");
    }
}
