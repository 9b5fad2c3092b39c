//! The shared frame grammar: magic, version, kind, length-prefixed
//! payload, FNV-64 trailer.
//!
//! Every byte-stream protocol in the workspace frames its messages the
//! same way — the worker socket transport (`USNAEWKR`, [`crate::proto`])
//! and the serve daemon's client protocol (`USNAESRV`,
//! `usnae_core::serve`) differ only in their magic, version, and payload
//! vocabulary:
//!
//! ```text
//! +----------+---------+------+-------------+-----------+----------+
//! |  magic   | version | kind | payload_len | payload.. | checksum |
//! |  8 bytes |   u32   |  u8  |     u64     |           |   u64    |
//! +----------+---------+------+-------------+-----------+----------+
//! ```
//!
//! All integers are little-endian; the checksum is FNV-64 over everything
//! before the trailer. This module owns the grammar once: framing,
//! deframing, the clean-EOF/truncation distinction, and the typed
//! [`FrameError`] taxonomy each protocol converts into its own error
//! type. It also provides the little-endian payload helpers
//! ([`Payload`] writer / [`Slice`] reader) so payload codecs share the
//! same bounds-checked, allocation-bounded reading discipline.

use std::io::{Read, Write};

use usnae_graph::metrics::Fnv64;

/// Frame header length: magic (8) + version (4) + kind (1) + payload
/// length (8).
pub const HEADER_LEN: usize = 21;

/// Typed failures of the shared frame grammar. Each protocol converts
/// these into its own error enum (`WorkerError`, `ServeError`), keeping
/// one taxonomy: corruption is never a hang or a panic.
#[derive(Debug)]
pub enum FrameError {
    /// An OS-level read/write failure.
    Io(std::io::Error),
    /// The frame did not start with the protocol's magic.
    BadMagic,
    /// The frame advertised a version this build does not speak.
    UnsupportedVersion {
        /// Version found in the frame header.
        found: u32,
        /// Version this build speaks.
        supported: u32,
    },
    /// The stream ended early (short read) at the given byte offset.
    Truncated {
        /// Offset into the frame where the data ran out.
        offset: usize,
    },
    /// The FNV-64 trailer did not match the received bytes.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the received bytes.
        computed: u64,
    },
    /// A structurally invalid frame or payload (oversized length,
    /// unknown tag, trailing garbage).
    Corrupt {
        /// Human-readable description of the malformation.
        reason: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::BadMagic => write!(f, "frame is missing the protocol magic"),
            FrameError::UnsupportedVersion { found, supported } => write!(
                f,
                "frame version {found} is unsupported (this build speaks {supported})"
            ),
            FrameError::Truncated { offset } => write!(f, "frame truncated at byte {offset}"),
            FrameError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            FrameError::Corrupt { reason } => write!(f, "corrupt frame: {reason}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Frames and writes one message under the given magic and version:
/// header, payload, FNV-64 trailer over everything before it.
///
/// # Errors
///
/// [`FrameError::Io`] on write failures.
pub fn write_frame(
    out: &mut impl Write,
    magic: &[u8; 8],
    version: u32,
    kind: u8,
    payload: &[u8],
) -> Result<(), FrameError> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    frame.extend_from_slice(magic);
    frame.extend_from_slice(&version.to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    let mut h = Fnv64::new();
    h.write_bytes(&frame);
    frame.extend_from_slice(&h.finish().to_le_bytes());
    out.write_all(&frame)?;
    out.flush()?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes, reporting a short read as
/// [`FrameError::Truncated`] at `base + bytes_read`.
fn read_exact_or_truncated(
    input: &mut impl Read,
    buf: &mut [u8],
    base: usize,
) -> Result<(), FrameError> {
    let mut read = 0;
    while read < buf.len() {
        match input.read(&mut buf[read..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    offset: base + read,
                })
            }
            Ok(k) => read += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads and validates one frame under the given magic and version,
/// returning `(kind, payload)`. `Ok(None)` means clean EOF at a frame
/// boundary (the peer closed between messages); anything else malformed
/// is a typed error.
///
/// # Errors
///
/// Any [`FrameError`]: bad magic, version skew, truncation mid-frame,
/// checksum mismatch, or an oversized declared length.
pub fn read_frame(
    input: &mut impl Read,
    magic: &[u8; 8],
    version: u32,
) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish clean EOF (no bytes at all) from a truncated header.
    let mut first = [0u8; 1];
    loop {
        match input.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    header[0] = first[0];
    read_exact_or_truncated(input, &mut header[1..], 1)?;
    if &header[..8] != magic {
        return Err(FrameError::BadMagic);
    }
    let found = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if found != version {
        return Err(FrameError::UnsupportedVersion {
            found,
            supported: version,
        });
    }
    let kind = header[12];
    let len = u64::from_le_bytes(header[13..21].try_into().expect("8 bytes"));
    let len = usize::try_from(len).map_err(|_| FrameError::Corrupt {
        reason: format!("frame payload length {len} does not fit in usize"),
    })?;
    let mut payload = vec![0u8; len];
    read_exact_or_truncated(input, &mut payload, HEADER_LEN)?;
    let mut trailer = [0u8; 8];
    read_exact_or_truncated(input, &mut trailer, HEADER_LEN + len)?;
    let stored = u64::from_le_bytes(trailer);
    let mut h = Fnv64::new();
    h.write_bytes(&header);
    h.write_bytes(&payload);
    let computed = h.finish();
    if stored != computed {
        return Err(FrameError::ChecksumMismatch { stored, computed });
    }
    Ok(Some((kind, payload)))
}

/// Little-endian payload writer shared by the frame-based protocols.
#[derive(Debug, Default)]
pub struct Payload {
    buf: Vec<u8>,
}

impl Payload {
    /// An empty payload buffer.
    pub fn new() -> Self {
        Payload::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    /// Appends an `f64` by bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The assembled payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian payload reader; every read can fail with
/// [`FrameError::Truncated`], and declared collection lengths are
/// sanity-bounded against the remaining payload so corruption cannot
/// trigger a giant allocation.
#[derive(Debug)]
pub struct Slice<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Slice<'a> {
    /// A reader over one payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Slice { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(FrameError::Truncated { offset: self.pos })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` that must fit in `usize`.
    pub fn usize(&mut self) -> Result<usize, FrameError> {
        let x = self.u64()?;
        usize::try_from(x).map_err(|_| FrameError::Corrupt {
            reason: format!("length {x} does not fit in usize"),
        })
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a collection count, sanity-bounded against the remaining
    /// payload so a corrupt length cannot trigger a giant allocation.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, FrameError> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if min_elem_bytes > 0 && n > remaining / min_elem_bytes {
            return Err(FrameError::Corrupt {
                reason: format!("count {n} exceeds remaining payload ({remaining} bytes)"),
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, FrameError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Corrupt {
            reason: "string payload is not UTF-8".to_string(),
        })
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`FrameError::Corrupt`] when bytes remain.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.buf.len() {
            return Err(FrameError::Corrupt {
                reason: format!(
                    "trailing garbage: consumed {} of {} payload bytes",
                    self.pos,
                    self.buf.len()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"USNAETST";

    #[test]
    fn frames_round_trip_under_any_magic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MAGIC, 3, 7, b"payload").unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice(), MAGIC, 3).unwrap().unwrap();
        assert_eq!(kind, 7);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn clean_eof_is_none_and_mid_frame_eof_is_truncated() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut { empty }, MAGIC, 1).unwrap().is_none());
        let mut buf = Vec::new();
        write_frame(&mut buf, MAGIC, 1, 0, b"x").unwrap();
        let cut = &buf[..buf.len() - 2];
        assert!(matches!(
            read_frame(&mut { cut }, MAGIC, 1),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn magic_version_and_checksum_are_enforced() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MAGIC, 2, 0, b"abc").unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice(), MAGIC, 2),
            Err(FrameError::BadMagic)
        ));

        assert!(matches!(
            read_frame(&mut buf.as_slice(), MAGIC, 9),
            Err(FrameError::UnsupportedVersion {
                found: 2,
                supported: 9
            })
        ));

        let mut bad = buf.clone();
        bad[HEADER_LEN] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut bad.as_slice(), MAGIC, 2),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn payload_helpers_round_trip_and_bound_counts() {
        let mut w = Payload::new();
        w.u8(9);
        w.u32(77);
        w.u64(1 << 40);
        w.f64(0.25);
        w.str("usnae");
        let bytes = w.into_bytes();
        let mut r = Slice::new(&bytes);
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u32().unwrap(), 77);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), 0.25);
        assert_eq!(r.str().unwrap(), "usnae");
        r.finish().unwrap();

        // A declared count beyond the remaining payload is corruption,
        // not an allocation order.
        let mut w = Payload::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Slice::new(&bytes);
        assert!(matches!(r.count(8), Err(FrameError::Corrupt { .. })));
    }
}
