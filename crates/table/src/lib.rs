//! The treelet count table — Motivo's central data structure (§3.1).
//!
//! For every vertex `v` and treelet size `h ∈ [k]`, the table holds the
//! record of `v`: the pairs `(s_{T_C}, c(T_C, v))` for every colored treelet
//! `(T, C)` on `h` nodes with nonzero count, sorted by the packed 48-bit key.
//! Instead of the raw counts, motivo stores the *cumulative* counts
//! `η(T_C, v) = Σ_{T'_{C'} ≤ T_C} c(T'_{C'}, v)`, so that
//!
//! * `occ(v)` — the total count — is the last entry, `O(1)`;
//! * `occ(T_C, v)` is a binary search plus one subtraction, `O(k)`;
//! * `sample(v)` — draw `T_C` with probability `c(T_C, v)/η_v` — is a
//!   uniform draw in `1..=η_v` plus one `partition_point`, `O(k)`;
//! * iteration is a linear scan with one subtraction per entry.
//!
//! Counts are 128-bit, as in the paper (64-bit counts overflow: a single
//! degree-2¹⁶ vertex roots ≈ 2⁸⁰ 6-stars).
//!
//! [`codec`] defines the sealed set of record representations
//! ([`RecordCodec`]): the fixed-width `Plain` layout above, and the
//! paper's `Succinct` layout — varint key deltas plus varint counts with
//! sparse cumulative anchors — which answers the same queries from a
//! fraction of the bytes. [`storage`] provides the two backends:
//! in-memory, and [`block`], the one writer of level files. A level is
//! built by a [`LevelBuilder`], which only takes records, and sealed once
//! into a read-only [`Level`]. A block builder takes each completed
//! record out of the DP's hands at once (the "greedy flushing" of §3.1)
//! into a byte-budgeted memtable that spills sorted runs and merges them
//! ([`merge`]) into sorted immutable ~1 KiB blocks, bounding peak build
//! memory for out-of-core builds; sealed levels are read back through a
//! read-only memory map (§3.3). [`alias`] implements Vose's alias method
//! used to draw the root vertex in `O(1)` (§3.3). [`checksum`] is the
//! workspace's one CRC32.

pub mod alias;
pub mod block;
pub mod builder;
pub mod checksum;
pub mod codec;
pub mod merge;
pub mod record;
pub mod storage;

pub use alias::AliasTable;
pub use block::{
    BlockBuilder, BlockWriter, SealedBlocks, BLOCK_TARGET_BYTES, DEFAULT_BUILD_MEM_BYTES,
};
pub use builder::RecordBuilder;
pub use codec::RecordCodec;
pub use merge::{MergeIter, RunReader, RunWriter};
pub use record::Record;
pub use storage::{
    CountTable, Level, LevelBuilder, LevelProfile, LevelScan, MemoryLevel, RecordHandle,
    StorageKind,
};
