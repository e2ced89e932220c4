//! Test support: a torn journal append for crash and replication tests.
//!
//! Production code never calls into this module; it exists so the
//! integration suites (`tests/store.rs`, `tests/replication.rs`) and the
//! crate's own unit tests share one honest way to simulate a **torn
//! append** ([`torn_journal_append`]): a journal frame whose tail never
//! reached the disk, as a crash mid-`append` leaves behind — proving
//! recovery truncates back to the last durable record (the offset a
//! replica resumes from). Failing writes need no fake: the build's
//! write-error tests plant a directory where a level file must go.

use bytes::BufMut;
use motivo_core::checksum::crc32;
use std::io;
use std::path::Path;

/// Appends a **torn** journal frame to the file at `path`: a frame for
/// `payload` is built exactly as [`crate::Journal::append`] would
/// (`len:u32le crc:u32le payload`), but only its first `keep` bytes are
/// written — clamped so at least the last byte is always missing. This is
/// what a crash between `write_all` and `sync_data` can leave on disk;
/// `Journal::open` must truncate it away and resume at the previous
/// frame boundary.
pub fn torn_journal_append(path: &Path, payload: &[u8], keep: usize) -> io::Result<()> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.put_u32_le(payload.len() as u32);
    frame.put_u32_le(crc32(payload));
    frame.put_slice(payload);
    let keep = keep.min(frame.len() - 1);
    let mut existing = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    existing.extend_from_slice(&frame[..keep]);
    std::fs::write(path, &existing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;

    #[test]
    fn torn_append_is_truncated_on_reopen() {
        let dir = std::env::temp_dir().join("motivo-store-testing-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-append.log");
        std::fs::remove_file(&path).ok();
        {
            let mut j = Journal::open(&path).unwrap().journal;
            j.append(b"durable").unwrap();
        }
        let durable_len = std::fs::metadata(&path).unwrap().len();
        // Tear at every prefix length of a would-be second frame: none may
        // survive recovery, and the durable frame always must.
        for keep in 0..(8 + 5) {
            torn_journal_append(&path, b"later", keep).unwrap();
            let replay = Journal::open(&path).unwrap();
            assert_eq!(replay.entries, vec![b"durable".to_vec()], "keep={keep}");
            assert_eq!(replay.journal.len_bytes(), durable_len, "keep={keep}");
        }
    }
}
