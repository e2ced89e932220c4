//! The manifest: which urns exist, what they were built from, and where
//! each build stands. The durable form is a `MANIFEST` snapshot plus the
//! append-only journal of every mutation since the snapshot
//! ([`crate::journal`]); the in-memory form is [`ManifestState`], produced
//! by loading the snapshot and replaying the journal over it.
//!
//! A build that has a `BuildStarted` record but no matching
//! `BuildFinished`/`BuildFailed` was interrupted by a crash; recovery
//! marks it failed and deletes its half-written urn directory.
//!
//! Each tag has one layout; any other tag, such as the retired tag 2,
//! fails replay with [`StoreError::Corrupt`] naming it.

use bytes::{Buf, BufMut};
use motivo_core::checksum::crc32;
use motivo_core::{BuildConfig, ColoringSpec, RecordCodec};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::error::StoreError;

/// Identifies one urn within a store, assigned sequentially.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UrnId(pub u64);

impl fmt::Display for UrnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "urn-{}", self.0)
    }
}

impl UrnId {
    /// Directory name of this urn under the store's `urns/` tree.
    pub fn dir_name(&self) -> String {
        self.to_string()
    }
}

/// Everything that determines a build's output (the deduplication key):
/// host graph, graphlet size, coloring distribution and seed, 0-rooting,
/// and the record codec the table is sealed under. Threads and storage
/// backend affect only speed, so they are excluded. The codec never
/// changes counts, but it *is* the stored artifact's byte layout, so a
/// plain and a succinct build of the same graph are distinct urns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BuildKey {
    /// Fingerprint of the host graph ([`motivo_core::graph_fingerprint`]).
    pub fingerprint: u64,
    /// Graphlet size.
    pub k: u32,
    /// Coloring RNG seed.
    pub seed: u64,
    /// Biased-coloring `λ` as stored bits; `None` means uniform.
    pub lambda_bits: Option<u64>,
    /// Whether size-k treelets were 0-rooted.
    pub zero_rooting: bool,
    /// Record codec of the persisted count table.
    pub codec: RecordCodec,
}

impl BuildKey {
    /// Derives the key for building `cfg` against a graph with the given
    /// fingerprint. Fixed colorings are rejected: they cannot be re-keyed.
    pub fn derive(fingerprint: u64, cfg: &BuildConfig) -> Result<BuildKey, StoreError> {
        let lambda_bits = match cfg.coloring {
            ColoringSpec::Uniform => None,
            ColoringSpec::Biased { lambda } => Some(lambda.to_bits()),
            ColoringSpec::Fixed(_) => return Err(StoreError::UnsupportedColoring),
        };
        Ok(BuildKey {
            fingerprint,
            k: cfg.k,
            seed: cfg.seed,
            lambda_bits,
            zero_rooting: cfg.zero_rooting,
            codec: cfg.codec,
            // (content_id below must fold every field added here)
        })
    }

    /// The biased-coloring `λ`, if any.
    pub fn lambda(&self) -> Option<f64> {
        self.lambda_bits.map(f64::from_bits)
    }

    /// A single 64-bit **content identity** folding every build input —
    /// graph fingerprint, `k`, coloring seed, bias, 0-rooting, codec —
    /// through a SplitMix64 fold. Two keys agree on it iff they agree on
    /// every field (up to 64-bit mixing collisions), which is what a
    /// serving-layer result cache must bind its entries to: the graph
    /// fingerprint alone would let two different builds of one graph
    /// (different `k` or seed) collide (DESIGN.md §6.5).
    pub fn content_id(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            let mut z = h ^ v.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut h = mix(0, self.fingerprint);
        h = mix(h, self.k as u64);
        h = mix(h, self.seed);
        // Distinguish "uniform" from any biased λ, including λ = +0.0.
        h = mix(h, self.lambda_bits.map_or(0, |b| b.wrapping_add(1)));
        h = mix(h, self.zero_rooting as u64);
        h = mix(
            h,
            match self.codec {
                RecordCodec::Plain => 0,
                RecordCodec::Succinct => 1,
            },
        );
        h
    }
}

/// Lifecycle of one urn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildStatus {
    /// `BuildStarted` journaled; the worker is (or was) building.
    Pending,
    /// Built and persisted; servable.
    Built,
    /// The build errored, or was interrupted by a crash.
    Failed,
}

/// One urn's manifest entry.
#[derive(Clone, Debug)]
pub struct UrnMeta {
    pub id: UrnId,
    pub key: BuildKey,
    pub status: BuildStatus,
    /// Count-table payload bytes (0 until built).
    pub table_bytes: u64,
    /// Non-empty records stored (0 until built).
    pub records: u64,
    /// Build wall-clock seconds (0 until built).
    pub build_secs: f64,
}

/// A host graph registered with the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphMeta {
    pub fingerprint: u64,
    pub nodes: u32,
    pub edges: u64,
}

/// One journal record (also the snapshot's row format).
#[derive(Clone, Debug, PartialEq)]
pub enum ManifestRecord {
    GraphAdded(GraphMeta),
    BuildStarted {
        id: UrnId,
        key: BuildKey,
    },
    BuildFinished {
        id: UrnId,
        table_bytes: u64,
        records: u64,
        build_secs: f64,
    },
    BuildFailed {
        id: UrnId,
    },
    Removed {
        id: UrnId,
    },
}

const TAG_GRAPH_ADDED: u8 = 1;
const TAG_BUILD_FINISHED: u8 = 3;
const TAG_BUILD_FAILED: u8 = 4;
const TAG_REMOVED: u8 = 5;
/// `BuildStarted`. Tag 2 was its form without the codec byte; decode
/// refuses it like any unknown tag.
const TAG_BUILD_STARTED: u8 = 6;

impl ManifestRecord {
    /// Serializes the record as a journal payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match *self {
            ManifestRecord::GraphAdded(g) => {
                out.put_u8(TAG_GRAPH_ADDED);
                out.put_u64_le(g.fingerprint);
                out.put_u32_le(g.nodes);
                out.put_u64_le(g.edges);
            }
            ManifestRecord::BuildStarted { id, key } => {
                out.put_u8(TAG_BUILD_STARTED);
                out.put_u64_le(id.0);
                out.put_u64_le(key.fingerprint);
                out.put_u32_le(key.k);
                out.put_u64_le(key.seed);
                match key.lambda_bits {
                    None => out.put_u8(0),
                    Some(bits) => {
                        out.put_u8(1);
                        out.put_u64_le(bits);
                    }
                }
                out.put_u8(key.zero_rooting as u8);
                out.put_u8(key.codec.tag());
            }
            ManifestRecord::BuildFinished {
                id,
                table_bytes,
                records,
                build_secs,
            } => {
                out.put_u8(TAG_BUILD_FINISHED);
                out.put_u64_le(id.0);
                out.put_u64_le(table_bytes);
                out.put_u64_le(records);
                out.put_f64_le(build_secs);
            }
            ManifestRecord::BuildFailed { id } => {
                out.put_u8(TAG_BUILD_FAILED);
                out.put_u64_le(id.0);
            }
            ManifestRecord::Removed { id } => {
                out.put_u8(TAG_REMOVED);
                out.put_u64_le(id.0);
            }
        }
        out
    }

    /// Parses one journal payload.
    pub fn decode(payload: &[u8]) -> Result<ManifestRecord, StoreError> {
        let corrupt = |msg: &str| StoreError::Corrupt(msg.to_string());
        let mut buf = payload;
        if buf.remaining() < 1 {
            return Err(corrupt("empty manifest record"));
        }
        let tag = buf.get_u8();
        let need = |buf: &&[u8], n: usize| {
            if buf.remaining() < n {
                Err(corrupt("short manifest record"))
            } else {
                Ok(())
            }
        };
        let rec = match tag {
            TAG_GRAPH_ADDED => {
                need(&buf, 20)?;
                ManifestRecord::GraphAdded(GraphMeta {
                    fingerprint: buf.get_u64_le(),
                    nodes: buf.get_u32_le(),
                    edges: buf.get_u64_le(),
                })
            }
            TAG_BUILD_STARTED => {
                // 28 fixed bytes + coloring tag + zero_rooting + codec; the
                // biased variant re-checks for its 8 extra λ bytes below.
                need(&buf, 31)?;
                let id = UrnId(buf.get_u64_le());
                let fingerprint = buf.get_u64_le();
                let k = buf.get_u32_le();
                let seed = buf.get_u64_le();
                let lambda_bits = match buf.get_u8() {
                    0 => None,
                    1 => {
                        need(&buf, 10)?;
                        Some(buf.get_u64_le())
                    }
                    _ => return Err(corrupt("bad coloring tag")),
                };
                let zero_rooting = buf.get_u8() != 0;
                let codec =
                    RecordCodec::from_tag(buf.get_u8()).ok_or_else(|| corrupt("bad codec tag"))?;
                ManifestRecord::BuildStarted {
                    id,
                    key: BuildKey {
                        fingerprint,
                        k,
                        seed,
                        lambda_bits,
                        zero_rooting,
                        codec,
                    },
                }
            }
            TAG_BUILD_FINISHED => {
                need(&buf, 32)?;
                ManifestRecord::BuildFinished {
                    id: UrnId(buf.get_u64_le()),
                    table_bytes: buf.get_u64_le(),
                    records: buf.get_u64_le(),
                    build_secs: buf.get_f64_le(),
                }
            }
            TAG_BUILD_FAILED => {
                need(&buf, 8)?;
                ManifestRecord::BuildFailed {
                    id: UrnId(buf.get_u64_le()),
                }
            }
            TAG_REMOVED => {
                need(&buf, 8)?;
                ManifestRecord::Removed {
                    id: UrnId(buf.get_u64_le()),
                }
            }
            _ => {
                return Err(corrupt(&format!(
                    "unknown manifest tag {tag}; rebuild the store"
                )))
            }
        };
        Ok(rec)
    }
}

/// The replayed, in-memory manifest.
#[derive(Clone, Debug, Default)]
pub struct ManifestState {
    /// Every live urn (removed ones are dropped eagerly).
    pub urns: BTreeMap<UrnId, UrnMeta>,
    /// Registered host graphs.
    pub graphs: BTreeMap<u64, GraphMeta>,
    /// Next id to assign.
    pub next_id: u64,
}

impl ManifestState {
    /// Folds one record into the state.
    pub fn apply(&mut self, rec: &ManifestRecord) {
        match *rec {
            ManifestRecord::GraphAdded(g) => {
                self.graphs.insert(g.fingerprint, g);
            }
            ManifestRecord::BuildStarted { id, key } => {
                self.next_id = self.next_id.max(id.0 + 1);
                self.urns.insert(
                    id,
                    UrnMeta {
                        id,
                        key,
                        status: BuildStatus::Pending,
                        table_bytes: 0,
                        records: 0,
                        build_secs: 0.0,
                    },
                );
            }
            ManifestRecord::BuildFinished {
                id,
                table_bytes,
                records,
                build_secs,
            } => {
                if let Some(meta) = self.urns.get_mut(&id) {
                    meta.status = BuildStatus::Built;
                    meta.table_bytes = table_bytes;
                    meta.records = records;
                    meta.build_secs = build_secs;
                }
            }
            ManifestRecord::BuildFailed { id } => {
                if let Some(meta) = self.urns.get_mut(&id) {
                    meta.status = BuildStatus::Failed;
                }
            }
            ManifestRecord::Removed { id } => {
                self.urns.remove(&id);
            }
        }
    }

    /// The built urn matching `key`, if any.
    pub fn find_built(&self, key: &BuildKey) -> Option<&UrnMeta> {
        self.urns
            .values()
            .find(|m| m.status == BuildStatus::Built && m.key == *key)
    }

    /// The pending build matching `key`, if any.
    pub fn find_pending(&self, key: &BuildKey) -> Option<&UrnMeta> {
        self.urns
            .values()
            .find(|m| m.status == BuildStatus::Pending && m.key == *key)
    }

    /// Serializes the full state as snapshot records (graphs first, then
    /// urns). Built urns keep both lifecycle records; pending urns keep
    /// their `BuildStarted` so an in-flight build survives a concurrent
    /// snapshot — dropping it would orphan the urn once the journal is
    /// reset, because the finish record would then replay against
    /// nothing. Failed urns are dropped: their directories are gone.
    pub fn snapshot_records(&self) -> Vec<ManifestRecord> {
        let mut recs: Vec<ManifestRecord> = Vec::new();
        for g in self.graphs.values() {
            recs.push(ManifestRecord::GraphAdded(*g));
        }
        for m in self.urns.values() {
            if m.status == BuildStatus::Failed {
                continue;
            }
            recs.push(ManifestRecord::BuildStarted {
                id: m.id,
                key: m.key,
            });
            if m.status == BuildStatus::Built {
                recs.push(ManifestRecord::BuildFinished {
                    id: m.id,
                    table_bytes: m.table_bytes,
                    records: m.records,
                    build_secs: m.build_secs,
                });
            }
        }
        recs
    }
}

const MANIFEST_MAGIC: &[u8; 4] = b"MTVS";
const MANIFEST_VERSION: u32 = 1;

/// Writes a checksummed snapshot atomically (temp file + rename).
pub fn write_snapshot(path: &Path, state: &ManifestState) -> Result<(), StoreError> {
    let mut body = Vec::new();
    body.put_u64_le(state.next_id);
    let recs = state.snapshot_records();
    body.put_u32_le(recs.len() as u32);
    for rec in &recs {
        let payload = rec.encode();
        body.put_u32_le(payload.len() as u32);
        body.put_slice(&payload);
    }
    let mut out = Vec::with_capacity(12 + body.len());
    out.put_slice(MANIFEST_MAGIC);
    out.put_u32_le(MANIFEST_VERSION);
    out.put_u32_le(crc32(&body));
    out.put_slice(&body);

    let tmp = path.with_extension("new");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&out)?;
        // Sync before the rename so a crash can't promote an empty or
        // partial snapshot over the old one.
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Loads a snapshot written by [`write_snapshot`]; `Ok(None)` if the file
/// doesn't exist (a fresh store).
pub fn load_snapshot(path: &Path) -> Result<Option<ManifestState>, StoreError> {
    let raw = match std::fs::read(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    decode_snapshot(&raw).map(Some)
}

/// Parses snapshot bytes (the body of a `MANIFEST` file) — the validation
/// half of [`load_snapshot`], also used to vet a snapshot fetched over the
/// replication stream before it is installed.
pub fn decode_snapshot(raw: &[u8]) -> Result<ManifestState, StoreError> {
    let corrupt = |msg: &str| StoreError::Corrupt(format!("MANIFEST: {msg}"));
    let mut buf = raw;
    if buf.remaining() < 12 {
        return Err(corrupt("truncated header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MANIFEST_MAGIC || buf.get_u32_le() != MANIFEST_VERSION {
        return Err(corrupt("bad magic or version"));
    }
    let want = buf.get_u32_le();
    if crc32(buf) != want {
        return Err(corrupt("checksum mismatch"));
    }
    if buf.remaining() < 12 {
        return Err(corrupt("truncated body"));
    }
    let mut state = ManifestState {
        next_id: buf.get_u64_le(),
        ..Default::default()
    };
    let n = buf.get_u32_le() as usize;
    for _ in 0..n {
        if buf.remaining() < 4 {
            return Err(corrupt("truncated record header"));
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(corrupt("truncated record"));
        }
        let mut payload = vec![0u8; len];
        buf.copy_to_slice(&mut payload);
        state.apply(&ManifestRecord::decode(&payload)?);
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fp: u64, k: u32) -> BuildKey {
        BuildKey {
            fingerprint: fp,
            k,
            seed: 7,
            lambda_bits: None,
            zero_rooting: true,
            codec: RecordCodec::Plain,
        }
    }

    #[test]
    fn records_roundtrip_through_codec() {
        let recs = vec![
            ManifestRecord::GraphAdded(GraphMeta {
                fingerprint: 0xFEED,
                nodes: 9,
                edges: 12,
            }),
            ManifestRecord::BuildStarted {
                id: UrnId(3),
                key: key(0xFEED, 5),
            },
            ManifestRecord::BuildStarted {
                id: UrnId(4),
                key: BuildKey {
                    lambda_bits: Some(0.125f64.to_bits()),
                    zero_rooting: false,
                    codec: RecordCodec::Succinct,
                    ..key(1, 4)
                },
            },
            ManifestRecord::BuildFinished {
                id: UrnId(3),
                table_bytes: 1 << 20,
                records: 512,
                build_secs: 1.25,
            },
            ManifestRecord::BuildFailed { id: UrnId(4) },
            ManifestRecord::Removed { id: UrnId(3) },
        ];
        for rec in recs {
            let back = ManifestRecord::decode(&rec.encode()).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ManifestRecord::decode(&[]).is_err());
        assert!(ManifestRecord::decode(&[99, 0, 0]).is_err());
        assert!(ManifestRecord::decode(&[TAG_BUILD_FAILED, 1, 2]).is_err());
        // A CRC-valid but short BuildStarted must error at every truncation
        // point, not panic (uniform needs 31 bytes after the tag's frame;
        // the 30-byte form ends exactly before the codec byte).
        let full = ManifestRecord::BuildStarted {
            id: UrnId(7),
            key: key(1, 4),
        }
        .encode();
        for cut in 1..full.len() {
            assert!(
                ManifestRecord::decode(&full[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        // An out-of-range codec byte is rejected too.
        let mut bad_codec = full.clone();
        *bad_codec.last_mut().unwrap() = 99;
        assert!(ManifestRecord::decode(&bad_codec).is_err());
        // So is a tag-2 `BuildStarted`, written before the codec byte
        // existed, and the error names the tag.
        let mut tag2 = full.clone();
        tag2[0] = 2;
        tag2.pop();
        match ManifestRecord::decode(&tag2) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("tag 2"), "{msg}"),
            other => panic!("tag 2 must be refused, got {other:?}"),
        }
    }

    #[test]
    fn state_machine_tracks_lifecycle() {
        let mut st = ManifestState::default();
        let k5 = key(10, 5);
        st.apply(&ManifestRecord::BuildStarted {
            id: UrnId(0),
            key: k5,
        });
        assert_eq!(st.next_id, 1);
        assert!(st.find_pending(&k5).is_some());
        assert!(st.find_built(&k5).is_none());
        st.apply(&ManifestRecord::BuildFinished {
            id: UrnId(0),
            table_bytes: 100,
            records: 5,
            build_secs: 0.5,
        });
        assert!(st.find_pending(&k5).is_none());
        assert_eq!(st.find_built(&k5).unwrap().table_bytes, 100);
        // A different key does not match.
        assert!(st.find_built(&key(10, 4)).is_none());
        st.apply(&ManifestRecord::Removed { id: UrnId(0) });
        assert!(st.find_built(&k5).is_none());
        assert_eq!(st.next_id, 1, "ids are never reused");
    }

    #[test]
    fn snapshot_roundtrip_drops_dead_urns() {
        let dir = std::env::temp_dir().join("motivo-store-manifest-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("MANIFEST-roundtrip");
        let mut st = ManifestState::default();
        st.apply(&ManifestRecord::GraphAdded(GraphMeta {
            fingerprint: 0xAB,
            nodes: 50,
            edges: 99,
        }));
        st.apply(&ManifestRecord::BuildStarted {
            id: UrnId(0),
            key: key(0xAB, 4),
        });
        st.apply(&ManifestRecord::BuildFinished {
            id: UrnId(0),
            table_bytes: 7,
            records: 3,
            build_secs: 0.1,
        });
        st.apply(&ManifestRecord::BuildStarted {
            id: UrnId(1),
            key: key(0xAB, 5),
        });
        st.apply(&ManifestRecord::BuildFailed { id: UrnId(1) });
        // An in-flight build at snapshot time must survive as Pending: a
        // post-snapshot BuildFinished has to replay against something, and
        // recovery (not the snapshot) decides whether it was interrupted.
        st.apply(&ManifestRecord::BuildStarted {
            id: UrnId(2),
            key: key(0xAB, 6),
        });
        write_snapshot(&path, &st).unwrap();
        let back = load_snapshot(&path).unwrap().unwrap();
        assert_eq!(back.next_id, 3);
        assert_eq!(back.graphs.len(), 1);
        assert_eq!(back.urns.len(), 2, "failed urn dropped at snapshot");
        assert_eq!(back.urns[&UrnId(0)].status, BuildStatus::Built);
        assert_eq!(back.urns[&UrnId(2)].status, BuildStatus::Pending);
        let mut after = back;
        after.apply(&ManifestRecord::BuildFinished {
            id: UrnId(2),
            table_bytes: 11,
            records: 4,
            build_secs: 0.2,
        });
        assert_eq!(after.urns[&UrnId(2)].status, BuildStatus::Built);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_checksum_detects_corruption() {
        let dir = std::env::temp_dir().join("motivo-store-manifest-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("MANIFEST-corrupt");
        write_snapshot(&path, &ManifestState::default()).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0x80;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(load_snapshot(&path), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_snapshot_is_a_fresh_store() {
        let path = std::env::temp_dir().join("motivo-store-manifest-tests/none");
        assert!(load_snapshot(&path).unwrap().is_none());
    }
}
