//! Graph serialization: whitespace edge-list text and a compact binary
//! format (the paper converts all inputs to "the motivo binary format").
//!
//! Binary layout (little-endian): magic `MTVG`, version `u32`, `n: u64`,
//! `m2: u64` (directed half-edge count), `offsets: (n+1) × u64`,
//! `neighbors: m2 × u32`.

use crate::Graph;
use bytes::{Buf, BufMut};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"MTVG";
const VERSION: u32 = 1;

/// Parses a whitespace-separated edge list (`u v` per line — spaces or
/// tabs — with `#`/`%` comment lines skipped). Tokens after the two
/// endpoints are ignored, so SNAP-style weighted/timestamped lists load
/// cleanly. Vertices are the ids appearing in the file; `n` is one plus
/// the maximum id.
///
/// A malformed line is reported by its 1-based number, never by its
/// text: the server loads files a client names, and an error that
/// quoted the line would hand the client the file's contents.
pub fn read_edge_list<R: Read>(reader: R) -> io::Result<Graph> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id = 0u32;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut ids = line.split_whitespace().map(|s| s.parse::<u32>().ok());
        let (Some(Some(a)), Some(Some(b))) = (ids.next(), ids.next()) else {
            return Err(bad_data(format!("line {} is not a `u v` edge", i + 1)));
        };
        max_id = max_id.max(a).max(b);
        edges.push((a, b));
    }
    if edges.is_empty() {
        return Err(bad_data("empty edge list".into()));
    }
    Ok(Graph::from_edges(max_id + 1, &edges))
}

/// Reads an edge-list file from disk.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes the canonical edge-list text form: one `u v` line per
/// undirected edge with `u < v`, ascending — a normal form, so two equal
/// graphs always serialize to identical text (what the
/// text→binary→text roundtrip test relies on).
pub fn write_edge_list<W: Write>(g: &Graph, w: W) -> io::Result<()> {
    // Streamed through a buffer, not materialized: the text form of a
    // large graph can run to gigabytes.
    let mut w = std::io::BufWriter::new(w);
    for v in 0..g.num_nodes() {
        for &u in g.neighbors(v) {
            if u > v {
                writeln!(w, "{v} {u}")?;
            }
        }
    }
    w.flush()
}

/// Writes the canonical edge-list text form to a file.
pub fn save_edge_list<P: AsRef<Path>>(g: &Graph, path: P) -> io::Result<()> {
    write_edge_list(g, std::fs::File::create(path)?)
}

/// Serializes to the binary format.
pub fn write_binary<W: Write>(g: &Graph, mut w: W) -> io::Result<()> {
    let n = g.num_nodes() as u64;
    let m2: u64 = (0..g.num_nodes()).map(|v| g.degree(v) as u64).sum();
    let mut buf = Vec::with_capacity(24 + (n as usize + 1) * 8 + m2 as usize * 4);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(n);
    buf.put_u64_le(m2);
    let mut acc = 0u64;
    buf.put_u64_le(0);
    for v in 0..g.num_nodes() {
        acc += g.degree(v) as u64;
        buf.put_u64_le(acc);
    }
    for v in 0..g.num_nodes() {
        for &u in g.neighbors(v) {
            buf.put_u32_le(u);
        }
    }
    w.write_all(&buf)
}

/// Deserializes from the binary format, validating the header and structure.
pub fn read_binary<R: Read>(mut r: R) -> io::Result<Graph> {
    let mut all = Vec::new();
    r.read_to_end(&mut all)?;
    let mut buf = &all[..];
    if buf.remaining() < 24 {
        return Err(bad_data("truncated header".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(bad_data("bad magic".into()));
    }
    if buf.get_u32_le() != VERSION {
        return Err(bad_data("unsupported version".into()));
    }
    let n = buf.get_u64_le() as usize;
    let m2 = buf.get_u64_le() as usize;
    if buf.remaining() != (n + 1) * 8 + m2 * 4 {
        return Err(bad_data("length mismatch".into()));
    }
    let mut edges = Vec::with_capacity(m2 / 2);
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(buf.get_u64_le() as usize);
    }
    if offsets[0] != 0 || offsets[n] != m2 {
        return Err(bad_data("corrupt offsets".into()));
    }
    // Validate the whole offsets array *before* slicing by it: monotone
    // with both ends pinned implies every slice below is in bounds. (A
    // single out-of-range offset mid-array used to reach the slice and
    // panic instead of erroring.)
    for v in 0..n {
        if offsets[v] > offsets[v + 1] {
            return Err(bad_data("non-monotone offsets".into()));
        }
    }
    let mut neighbors = Vec::with_capacity(m2);
    for _ in 0..m2 {
        neighbors.push(buf.get_u32_le());
    }
    for v in 0..n {
        for &u in &neighbors[offsets[v]..offsets[v + 1]] {
            if u as usize >= n {
                return Err(bad_data("neighbor out of range".into()));
            }
            if u as usize > v {
                edges.push((v as u32, u));
            }
        }
    }
    Ok(Graph::from_edges(n as u32, &edges))
}

/// Writes the binary format to a file.
pub fn save_binary<P: AsRef<Path>>(g: &Graph, path: P) -> io::Result<()> {
    write_binary(g, std::fs::File::create(path)?)
}

/// Loads the binary format from a file.
pub fn load_binary<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    read_binary(std::fs::File::open(path)?)
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_list_roundtrip() {
        let text = "# comment\n0 1\n1 2\n\n% other comment\n2 0\n3 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("".as_bytes()).is_err());
        assert!(read_edge_list("5\n".as_bytes()).is_err());
        // A comment-only file has no edges either.
        assert!(read_edge_list("# a\n% b\n".as_bytes()).is_err());
        // Negative ids are not silently wrapped.
        assert!(read_edge_list("-1 2\n".as_bytes()).is_err());
    }

    /// The error names the line by number and never quotes it: a server
    /// loading a client-named file must not echo the file back.
    #[test]
    fn edge_list_errors_name_the_line_not_its_text() {
        let err = read_edge_list("# header\n0 1\nSECRET-TOKEN-42 is here\n".as_bytes())
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 3"), "{err}");
        assert!(!err.contains("SECRET"), "{err}");
    }

    /// Real-world edge lists mix separators and annotations: tab-separated
    /// endpoints, `%` comment lines (Matrix Market habit), and trailing
    /// tokens (weights/timestamps) after the two endpoints.
    #[test]
    fn edge_list_accepts_tabs_percent_comments_and_trailing_tokens() {
        let text = "% matrix-market style header\n0\t1\n1\t2\t0.75\n# hash comment\n2 0 1634256000 extra\n\t3\t2\t\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(0, 2) && g.has_edge(2, 3));
        // Identical to the plain-space spelling of the same graph.
        assert_eq!(
            g,
            read_edge_list("0 1\n1 2\n2 0\n3 2\n".as_bytes()).unwrap()
        );
    }

    #[test]
    fn binary_roundtrip() {
        let g = generators::barabasi_albert(300, 3, 11);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let h = read_binary(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = generators::path_graph(10);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert!(read_binary(&buf[..10]).is_err());
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_binary(&bad[..]).is_err());
        let mut trunc = buf.clone();
        trunc.pop();
        assert!(read_binary(&trunc[..]).is_err());
    }

    /// Offsets into the header region of a binary graph buffer: `[24, 32)`
    /// holds `offsets[index]` (after magic, version, n, m2).
    fn offset_slot(index: usize) -> std::ops::Range<usize> {
        let start = 24 + index * 8;
        start..start + 8
    }

    /// A header promising more half-edges than the buffer carries must be
    /// a clean error (the length check), not a short read or a panic.
    #[test]
    fn binary_rejects_truncated_neighbor_array() {
        let g = generators::cycle_graph(8);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Drop the last neighbor's 4 bytes but keep the header intact.
        let cut = buf.len() - 4;
        assert!(read_binary(&buf[..cut]).is_err());
        // Inflate m2 instead: the offsets/neighbors regions no longer add
        // up to the remaining length.
        let mut inflated = buf.clone();
        let m2 = u64::from_le_bytes(buf[16..24].try_into().unwrap());
        inflated[16..24].copy_from_slice(&(m2 + 1).to_le_bytes());
        assert!(read_binary(&inflated[..]).is_err());
    }

    /// Corrupt offsets arrays — decreasing neighbors ranges, or a single
    /// offset pointing past the neighbor array — must be rejected, not
    /// slice out of bounds.
    #[test]
    fn binary_rejects_non_monotone_offsets() {
        let g = generators::cycle_graph(8);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let m2 = u64::from_le_bytes(buf[16..24].try_into().unwrap());

        // Swap two interior offsets so the array decreases.
        let mut swapped = buf.clone();
        let (a, b) = (offset_slot(2), offset_slot(3));
        let (va, vb) = (buf[a.clone()].to_vec(), buf[b.clone()].to_vec());
        assert_ne!(va, vb, "cycle graph offsets strictly increase");
        swapped[a].copy_from_slice(&vb);
        swapped[b].copy_from_slice(&va);
        let err = read_binary(&swapped[..]).unwrap_err();
        assert!(err.to_string().contains("non-monotone"), "{err}");

        // One offset beyond m2 (still monotone up to it): previously a
        // panic in the neighbor slice, now a clean error.
        let mut oob = buf.clone();
        oob[offset_slot(1)].copy_from_slice(&(m2 + 100).to_le_bytes());
        assert!(read_binary(&oob[..]).is_err());
    }

    /// Text → binary → text is the identity on canonical edge-list text,
    /// and `write_edge_list` is a normal form (messy spellings of the same
    /// graph converge to one serialization).
    #[test]
    fn text_binary_text_roundtrip_is_identity() {
        let canonical = "0 1\n0 2\n1 2\n1 3\n2 4\n3 4\n";
        let g = read_edge_list(canonical.as_bytes()).unwrap();
        let mut binary = Vec::new();
        write_binary(&g, &mut binary).unwrap();
        let h = read_binary(&binary[..]).unwrap();
        let mut text = Vec::new();
        write_edge_list(&h, &mut text).unwrap();
        assert_eq!(String::from_utf8(text).unwrap(), canonical);

        // A messy spelling (tabs, comments, duplicates, trailing tokens,
        // reversed endpoints) normalizes to the same canonical text.
        let messy = "# messy\n2\t1\n1 0 9.5\n4 2\n% dup\n1 2\n3 1\n4 3 t\n0 2\n";
        let mut text = Vec::new();
        write_edge_list(&read_edge_list(messy.as_bytes()).unwrap(), &mut text).unwrap();
        assert_eq!(String::from_utf8(text).unwrap(), canonical);

        // And on a generated graph, text roundtrip preserves equality.
        let g = generators::barabasi_albert(200, 3, 5);
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        assert_eq!(read_edge_list(&text[..]).unwrap(), g);
    }

    #[test]
    fn file_roundtrip() {
        let g = generators::cycle_graph(17);
        let dir = std::env::temp_dir().join("motivo-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycle.mtvg");
        save_binary(&g, &path).unwrap();
        assert_eq!(load_binary(&path).unwrap(), g);
        std::fs::remove_file(&path).ok();
    }
}
