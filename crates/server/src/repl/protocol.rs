//! Byte payloads inside JSON frames: the replication requests carry
//! journal frames, manifest snapshots, and file chunks as lowercase hex
//! strings. Hex doubles the bytes on the wire but keeps every frame
//! valid UTF-8 JSON — the protocol stays greppable, and no frame-format
//! fork is needed for the one request family that moves binary data.
//! Chunk sizes are bounded by [`motivo_store::FILE_CHUNK_BYTES`] (1 MiB
//! raw, 2 MiB encoded), comfortably under the 8 MiB frame cap.

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Encodes bytes as lowercase hex.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

fn nibble(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

/// Decodes a hex string; rejects odd lengths and non-hex characters
/// (a replica must never apply a payload it couldn't decode exactly).
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    let raw = s.as_bytes();
    if !raw.len().is_multiple_of(2) {
        return Err(format!("hex string has odd length {}", raw.len()));
    }
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        match (nibble(pair[0]), nibble(pair[1])) {
            (Some(hi), Some(lo)) => out.push(hi << 4 | lo),
            _ => {
                return Err(format!(
                    "invalid hex pair `{}{}`",
                    pair[0] as char, pair[1] as char
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrips() {
        for bytes in [&b""[..], &b"\x00"[..], &b"\xff\x00\xab"[..], &b"motivo"[..]] {
            let enc = hex_encode(bytes);
            assert_eq!(hex_decode(&enc).unwrap(), bytes, "{enc}");
        }
        assert_eq!(hex_encode(b"\x01\xfe"), "01fe");
        // Uppercase decodes too (be liberal in what you accept)…
        assert_eq!(hex_decode("01FE").unwrap(), b"\x01\xfe");
    }

    #[test]
    fn malformed_hex_is_rejected() {
        assert!(hex_decode("abc").unwrap_err().contains("odd length"));
        assert!(hex_decode("zz").unwrap_err().contains("invalid hex"));
        assert!(hex_decode("0 ").unwrap_err().contains("invalid hex"));
    }
}
