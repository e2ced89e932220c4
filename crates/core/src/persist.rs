//! Urn persistence: the build-up phase is the expensive half of a run, and
//! the paper's tool keeps its count tables on external storage between
//! phases (§3.1, §3.3). [`save_urn`]/[`load_urn`] let a built urn be reused
//! across processes: the count table (one block file per level), the
//! coloring it was built under, and the build metrics all round-trip.
//! An `urn.meta` or `table.meta` of an older version is refused with an
//! error naming the version; such an urn is rebuilt, not migrated.
//!
//! The host graph itself is *not* stored here — it has its own format
//! (`motivo_graph::io`) and the caller passes it back at load time; a
//! fingerprint check rejects mismatched graphs.

use crate::build::BuildStats;
use crate::checksum::crc32;
use crate::error::BuildError;
use crate::urn::Urn;
use bytes::{Buf, BufMut};
use motivo_graph::{Coloring, Graph};
use motivo_table::CountTable;
use std::io;
use std::path::Path;
use std::time::Duration;

/// The only `urn.meta` version: written by [`save_urn`], read by [`load_urn`].
const URN_META_VERSION: u32 = 3;

fn bad(msg: &str) -> BuildError {
    BuildError::Io(io::Error::new(io::ErrorKind::InvalidData, msg.to_string()))
}

/// A cheap order-sensitive fingerprint of the graph structure, stored with
/// the urn so `load_urn` can refuse a different graph.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(g.num_nodes() as u64);
    mix(g.num_edges() as u64);
    for v in 0..g.num_nodes() {
        mix(g.degree(v) as u64);
    }
    h
}

/// Persists a built urn into `dir`.
pub fn save_urn(urn: &Urn<'_>, dir: impl AsRef<Path>) -> io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    urn.table().save_dir(dir)?;
    urn.coloring()
        .save(std::fs::File::create(dir.join("coloring.mtvc"))?)?;
    // Build stats + graph fingerprint, CRC-protected.
    let st = urn.build_stats();
    let mut payload = Vec::new();
    payload.put_u64_le(graph_fingerprint(urn.graph()));
    payload.put_f64_le(st.total.as_secs_f64());
    payload.put_u64_le(st.merge_ops);
    payload.put_u64_le(st.table_bytes as u64);
    payload.put_u64_le(st.records as u64);
    payload.put_u32_le(st.per_level.len() as u32);
    for d in &st.per_level {
        payload.put_f64_le(d.as_secs_f64());
    }
    payload.put_u64_le(st.spill_runs);
    payload.put_u64_le(st.peak_mem_bytes);
    let mut meta = Vec::with_capacity(12 + payload.len());
    meta.put_slice(b"MTVU");
    meta.put_u32_le(URN_META_VERSION);
    meta.put_u32_le(crc32(&payload));
    meta.put_slice(&payload);
    std::fs::write(dir.join("urn.meta"), meta)
}

/// Reopens an urn persisted by [`save_urn`] against the same host graph,
/// preloading all levels into memory (fast sampling; use
/// [`load_urn_external`] to keep the table on disk when it exceeds RAM).
pub fn load_urn<'g>(g: &'g Graph, dir: impl AsRef<Path>) -> Result<Urn<'g>, BuildError> {
    load_urn_inner(g, dir.as_ref(), true)
}

/// Like [`load_urn`] but serving every record access from the on-disk
/// files — the paper's "operating system will reclaim memory" regime.
pub fn load_urn_external<'g>(g: &'g Graph, dir: impl AsRef<Path>) -> Result<Urn<'g>, BuildError> {
    load_urn_inner(g, dir.as_ref(), false)
}

fn load_urn_inner<'g>(g: &'g Graph, dir: &Path, preload: bool) -> Result<Urn<'g>, BuildError> {
    let raw = std::fs::read(dir.join("urn.meta"))?;
    let mut buf = &raw[..];
    if buf.remaining() < 12 {
        return Err(bad("truncated urn meta"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != b"MTVU" {
        return Err(bad("bad urn meta header"));
    }
    let version = buf.get_u32_le();
    if version != URN_META_VERSION {
        return Err(bad(&format!(
            "unsupported urn.meta version {version}; rebuild the urn"
        )));
    }
    // CRC32 over everything after the 12-byte header.
    let want = buf.get_u32_le();
    if crc32(buf) != want {
        return Err(bad("urn meta checksum mismatch: file is corrupt"));
    }
    // 44 bytes before the per-level times, 16 after them.
    if buf.remaining() < 44 + 16 {
        return Err(bad("truncated urn meta"));
    }
    if buf.get_u64_le() != graph_fingerprint(g) {
        return Err(bad(
            "graph fingerprint mismatch: this urn was built for a different graph",
        ));
    }
    let total = Duration::from_secs_f64(buf.get_f64_le());
    let merge_ops = buf.get_u64_le();
    let table_bytes = buf.get_u64_le() as usize;
    let records = buf.get_u64_le() as usize;
    let levels = buf.get_u32_le() as usize;
    if buf.remaining() != levels * 8 + 16 {
        return Err(bad("urn meta length mismatch"));
    }
    let per_level = (0..levels)
        .map(|_| Duration::from_secs_f64(buf.get_f64_le()))
        .collect();
    let stats = BuildStats {
        total,
        per_level,
        merge_ops,
        table_bytes,
        records,
        spill_runs: buf.get_u64_le(),
        peak_mem_bytes: buf.get_u64_le(),
    };
    let coloring = Coloring::load(std::fs::File::open(dir.join("coloring.mtvc"))?)?;
    let mut table = CountTable::open_dir(dir)?;
    if preload {
        table = table.preload()?;
    }
    Urn::assemble(g, coloring, table, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_urn, BuildConfig};
    use crate::naive::naive_estimates;
    use crate::sample::SampleConfig;
    use motivo_graph::generators;
    use motivo_graphlet::GraphletRegistry;

    #[test]
    fn urn_roundtrip_preserves_everything() {
        let g = generators::barabasi_albert(200, 3, 4);
        let dir = std::env::temp_dir().join("motivo-persist-test");
        std::fs::remove_dir_all(&dir).ok();
        let urn = build_urn(
            &g,
            &BuildConfig {
                threads: 2,
                ..BuildConfig::new(4)
            }
            .seed(6),
        )
        .unwrap();
        save_urn(&urn, &dir).unwrap();
        let back = load_urn(&g, &dir).unwrap();
        assert_eq!(back.total_treelets(), urn.total_treelets());
        assert_eq!(back.shape_totals(), urn.shape_totals());
        assert_eq!(back.k(), urn.k());
        assert_eq!(back.build_stats().merge_ops, urn.build_stats().merge_ops);
        for v in 0..g.num_nodes() {
            assert_eq!(back.occ(v), urn.occ(v));
        }
        // Estimation through the reopened urn is identical under the same
        // sampling seed.
        let mut ra = GraphletRegistry::new(4);
        let mut rb = GraphletRegistry::new(4);
        let a = naive_estimates(&urn, &mut ra, 5_000, &SampleConfig::seeded(1).threads(1));
        let b = naive_estimates(&back, &mut rb, 5_000, &SampleConfig::seeded(1).threads(1));
        assert_eq!(a.per_graphlet.len(), b.per_graphlet.len());
        assert!((a.total_count() - b.total_count()).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Succinct-codec urns persist, reload (preloaded and external), and
    /// sample identically to their plain twins under the same seed.
    #[test]
    fn succinct_urn_roundtrip_and_codec_equivalence() {
        use motivo_table::RecordCodec;
        let g = generators::barabasi_albert(150, 3, 2);
        let base = std::env::temp_dir().join("motivo-persist-test-codec");
        std::fs::remove_dir_all(&base).ok();
        let mut estimates = Vec::new();
        for codec in RecordCodec::ALL {
            let dir = base.join(codec.as_str());
            let urn = build_urn(
                &g,
                &BuildConfig {
                    threads: 2,
                    codec,
                    ..BuildConfig::new(4)
                }
                .seed(5),
            )
            .unwrap();
            save_urn(&urn, &dir).unwrap();
            let back = load_urn(&g, &dir).unwrap();
            assert_eq!(back.table().codec(), codec);
            assert_eq!(back.total_treelets(), urn.total_treelets());
            let external = crate::persist::load_urn_external(&g, &dir).unwrap();
            assert_eq!(external.total_treelets(), urn.total_treelets());
            let mut registry = GraphletRegistry::new(4);
            let est = naive_estimates(
                &back,
                &mut registry,
                3_000,
                &SampleConfig::seeded(3).threads(2),
            );
            estimates.push(est);
        }
        let (plain, succ) = (&estimates[0], &estimates[1]);
        assert_eq!(plain.samples, succ.samples);
        assert_eq!(plain.per_graphlet.len(), succ.per_graphlet.len());
        for (a, b) in plain.per_graphlet.iter().zip(&succ.per_graphlet) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.count.to_bits(), b.count.to_bits(), "bit-identical");
            assert_eq!(a.occurrences, b.occurrences);
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn wrong_graph_rejected() {
        let g = generators::complete_graph(8);
        let other = generators::complete_graph(9);
        let dir = std::env::temp_dir().join("motivo-persist-test-fp");
        std::fs::remove_dir_all(&dir).ok();
        let urn = build_urn(
            &g,
            &BuildConfig {
                threads: 1,
                ..BuildConfig::new(3)
            }
            .seed(1),
        )
        .unwrap();
        save_urn(&urn, &dir).unwrap();
        assert!(load_urn(&other, &dir).is_err());
        assert!(load_urn(&g, &dir).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_meta_rejected_by_checksum() {
        let g = generators::complete_graph(8);
        let dir = std::env::temp_dir().join("motivo-persist-test-crc");
        std::fs::remove_dir_all(&dir).ok();
        let urn = build_urn(
            &g,
            &BuildConfig {
                threads: 1,
                ..BuildConfig::new(3)
            }
            .seed(1),
        )
        .unwrap();
        save_urn(&urn, &dir).unwrap();
        let meta_path = dir.join("urn.meta");
        let mut raw = std::fs::read(&meta_path).unwrap();
        // Flip one payload bit (past the 12-byte header).
        raw[20] ^= 0x04;
        std::fs::write(&meta_path, &raw).unwrap();
        let err = match load_urn(&g, &dir) {
            Err(e) => e,
            Ok(_) => panic!("corrupt urn meta must not load"),
        };
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `urn.meta` v1 (no CRC word) and v2 (no build-history tail) are
    /// refused with an error naming the version.
    #[test]
    fn older_meta_versions_rejected() {
        use bytes::BufMut;
        let g = generators::complete_graph(8);
        let dir = std::env::temp_dir().join("motivo-persist-test-oldmeta");
        std::fs::remove_dir_all(&dir).ok();
        let urn = build_urn(
            &g,
            &BuildConfig {
                threads: 1,
                ..BuildConfig::new(3)
            }
            .seed(1),
        )
        .unwrap();
        save_urn(&urn, &dir).unwrap();
        let raw = std::fs::read(dir.join("urn.meta")).unwrap();
        let payload = &raw[12..raw.len() - 16];
        for version in [1u32, 2] {
            let mut old = Vec::new();
            old.put_slice(b"MTVU");
            old.put_u32_le(version);
            if version == 2 {
                old.put_u32_le(crc32(payload));
            }
            old.put_slice(payload);
            std::fs::write(dir.join("urn.meta"), old).unwrap();
            let err = match load_urn(&g, &dir) {
                Err(e) => e,
                Ok(_) => panic!("urn.meta version {version} must not load"),
            };
            assert!(
                err.to_string().contains(&format!("version {version}")),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A block build into the urn directory seals every level in place:
    /// `save_urn` there keeps each level file (same inode, same bytes),
    /// and `save_urn` into another directory writes byte-identical files.
    #[test]
    fn save_keeps_levels_sealed_in_place_and_copies_others_byte_for_byte() {
        use std::os::unix::fs::MetadataExt;
        let g = generators::barabasi_albert(200, 3, 4);
        let base = std::env::temp_dir().join("motivo-persist-test-inplace");
        std::fs::remove_dir_all(&base).ok();
        let (built, copy) = (base.join("built"), base.join("copy"));
        let cfg = BuildConfig {
            threads: 2,
            ..BuildConfig::new(4)
        }
        .seed(6)
        .build_mem_bytes(&built, 2048);
        let urn = build_urn(&g, &cfg).unwrap();
        assert!(urn.build_stats().spill_runs >= 2);
        let level = |dir: &Path, h: u32| dir.join(format!("level-{h}.mtvb"));
        let sealed: Vec<(u64, Vec<u8>)> = (1..=4)
            .map(|h| {
                let path = level(&built, h);
                (
                    std::fs::metadata(&path).unwrap().ino(),
                    std::fs::read(&path).unwrap(),
                )
            })
            .collect();
        save_urn(&urn, &built).unwrap();
        save_urn(&urn, &copy).unwrap();
        for (h, (ino, bytes)) in (1..=4).zip(&sealed) {
            let path = level(&built, h);
            assert_eq!(
                std::fs::metadata(&path).unwrap().ino(),
                *ino,
                "level {h} rewritten"
            );
            assert_eq!(&std::fs::read(&path).unwrap(), bytes, "level {h}");
            assert_eq!(
                &std::fs::read(level(&copy, h)).unwrap(),
                bytes,
                "copied level {h}"
            );
        }
        let names = |dir: &Path| {
            let mut v: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&built), names(&copy), "no scratch file left in place");
        for dir in [&built, &copy] {
            let back = load_urn(&g, dir).unwrap();
            assert_eq!(back.total_treelets(), urn.total_treelets());
            assert_eq!(back.build_stats().spill_runs, urn.build_stats().spill_runs);
        }
        std::fs::remove_dir_all(&base).ok();
    }

    /// No checksum covers a block file's footer. A `level-1.mtvb` whose
    /// footer claims fewer vertices than `table.meta` is refused with
    /// `InvalidData`, by `load_urn` and by `load_urn_external`.
    #[test]
    fn level_footer_disagreeing_with_table_meta_is_refused() {
        let g = generators::barabasi_albert(40, 3, 1);
        let dir = std::env::temp_dir().join("motivo-persist-test-footer-n");
        std::fs::remove_dir_all(&dir).ok();
        let urn = build_urn(&g, &BuildConfig::new(3).seed(1).threads(1)).unwrap();
        save_urn(&urn, &dir).unwrap();
        let path = dir.join("level-1.mtvb");
        let mut bytes = std::fs::read(&path).unwrap();
        let footer = bytes.len() - 28;
        assert_eq!(bytes[footer..footer + 4], 40u32.to_le_bytes());
        bytes[footer..footer + 4].copy_from_slice(&4u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        for result in [load_urn(&g, &dir), load_urn_external(&g, &dir)] {
            match result {
                Err(BuildError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                    assert!(e.to_string().contains("level-1.mtvb"), "{e}");
                }
                Err(e) => panic!("want an InvalidData I/O error, got {e}"),
                Ok(_) => panic!("a footer n of 4 for 40 vertices must not load"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_sensitive_to_structure() {
        let a = generators::path_graph(10);
        let b = generators::cycle_graph(10);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
        assert_eq!(
            graph_fingerprint(&a),
            graph_fingerprint(&generators::path_graph(10))
        );
    }
}
