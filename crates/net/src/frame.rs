//! Length-prefixed framing and the connection handshake.
//!
//! Every TCP connection starts with a fixed 17-byte hello in each
//! direction:
//!
//! ```text
//! [ magic "GPN1" | 4 bytes ][ node name | u64 LE ][ epoch | u32 LE ][ flags | u8 ]
//! ```
//!
//! after which the stream carries data frames:
//!
//! ```text
//! [ payload length | u32 LE ][ payload bytes ]
//! ```
//!
//! The `(node, epoch)` pair in the hello is what makes sessions
//! *epoch-aware*: a node that restarts reopens its endpoint with a
//! larger epoch, and receivers fence out every event still in flight
//! from the older session (DESIGN.md §13.3). Frames larger than
//! [`MAX_FRAME_LEN`] are rejected before any buffer grows, and below
//! the cap the read buffer grows only as payload bytes arrive, so a
//! corrupt or hostile length prefix cannot balloon memory.

use std::io::{self, Read, Write};

/// Protocol magic: "GPN1" — greenps net, wire format 1.
pub const MAGIC: [u8; 4] = *b"GPN1";

/// Hard ceiling on one frame's payload. The largest legitimate frame
/// is a full-overlay BIA aggregate, far below this bound.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// How far [`read_frame`] grows its buffer ahead of the bytes that
/// have actually arrived.
const READ_CHUNK: usize = 16 * 1024;

/// Size of the fixed hello exchanged on connect, in bytes.
pub const HELLO_LEN: usize = 17;

/// Why a handshake or frame read failed.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The peer's hello did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad hello magic {m:?}"),
            FrameError::Oversized(n) => write!(f, "frame length {n} exceeds cap"),
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

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The identity a peer announces in its hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The peer's node name (broker id or client endpoint name).
    pub node: u64,
    /// The peer's session epoch; larger supersedes smaller.
    pub epoch: u32,
}

/// Writes the fixed-size hello.
pub fn write_hello(w: &mut impl Write, hello: Hello) -> Result<(), FrameError> {
    let mut buf = Vec::with_capacity(HELLO_LEN);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&hello.node.to_le_bytes());
    buf.extend_from_slice(&hello.epoch.to_le_bytes());
    buf.push(0); // flags byte, zero in wire format 1
    w.write_all(&buf)?;
    Ok(())
}

/// Reads and validates the peer's hello.
pub fn read_hello(r: &mut impl Read) -> Result<Hello, FrameError> {
    let mut buf = [0u8; HELLO_LEN];
    r.read_exact(&mut buf)?;
    let mut wr = crate::wire::WireReader::new(&buf);
    // `buf` is exactly HELLO_LEN bytes, so these reads cannot fail; the
    // mapping keeps the decode panic-free all the same.
    let short = || FrameError::Io(io::ErrorKind::InvalidData.into());
    let magic_bytes = wr.take(4).map_err(|_| short())?;
    if magic_bytes != MAGIC {
        let mut magic = [0u8; 4];
        for (slot, b) in magic.iter_mut().zip(magic_bytes) {
            *slot = *b;
        }
        return Err(FrameError::BadMagic(magic));
    }
    let node = wr.u64().map_err(|_| short())?;
    let epoch = wr.u32().map_err(|_| short())?;
    Ok(Hello { node, epoch })
}

/// Writes one `[u32 length][payload]` frame from an already-encoded
/// scratch buffer. The scratch buffer must start with four reserved
/// bytes (see [`begin_frame`]) which this call patches with the
/// payload length — the whole frame then goes out in a single
/// `write_all`, and the steady-state send path performs no allocation.
pub fn write_frame(w: &mut impl Write, scratch: &mut [u8]) -> Result<(), FrameError> {
    let payload = scratch.len().saturating_sub(4);
    if payload > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(
            u32::try_from(payload).unwrap_or(u32::MAX),
        ));
    }
    let len = u32::try_from(payload).unwrap_or(u32::MAX);
    if let Some(prefix) = scratch.get_mut(..4) {
        prefix.copy_from_slice(&len.to_le_bytes());
    }
    w.write_all(scratch)?;
    Ok(())
}

/// Resets a scratch buffer for frame encoding: clears it and reserves
/// the four length-prefix bytes that [`write_frame`] patches.
pub fn begin_frame(scratch: &mut Vec<u8>) {
    scratch.clear();
    scratch.extend_from_slice(&[0, 0, 0, 0]);
}

/// Reads one frame payload into `buf` (cleared and resized in place).
/// Returns `Ok(false)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<bool, FrameError> {
    let mut len_bytes = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_bytes)? {
        return Ok(false);
    }
    let len = u32::from_le_bytes(len_bytes);
    let n = usize::try_from(len).unwrap_or(usize::MAX);
    if n > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    buf.clear();
    // Grow as bytes arrive: a bare length prefix commits at most one
    // chunk beyond the buffer's existing capacity, so a header that
    // lies about its length cannot pin `MAX_FRAME_LEN` bytes. A reused
    // buffer that already fits the frame is filled by one `read_exact`.
    while buf.len() < n {
        let start = buf.len();
        let step = (n - start).min(buf.capacity().saturating_sub(start).max(READ_CHUNK));
        buf.resize(start + step, 0);
        r.read_exact(buf.get_mut(start..).unwrap_or(&mut []))?;
    }
    Ok(true)
}

/// Like `read_exact`, but a clean EOF before the first byte returns
/// `Ok(false)` instead of an error.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        let slot = buf.get_mut(filled..).unwrap_or(&mut []);
        match r.read(slot) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into())),
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips() {
        let mut buf = Vec::new();
        let h = Hello { node: 42, epoch: 7 };
        write_hello(&mut buf, h).unwrap();
        assert_eq!(buf.len(), HELLO_LEN);
        let got = read_hello(&mut buf.as_slice()).unwrap();
        assert_eq!(got, h);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_hello(&mut buf, Hello { node: 1, epoch: 1 }).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_hello(&mut buf.as_slice()),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        // The large payload spans several read chunks, first into a
        // growing buffer, then into the reused one.
        let big: Vec<u8> = (0..3 * READ_CHUNK + 5).map(|i| i as u8).collect();
        let payloads = [&b"hello"[..], b"", &big, b"greenps", &big];
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        for payload in payloads {
            begin_frame(&mut scratch);
            scratch.extend_from_slice(payload);
            write_frame(&mut wire, &mut scratch).unwrap();
        }
        let mut r = wire.as_slice();
        let mut buf = Vec::new();
        for payload in payloads {
            assert!(read_frame(&mut r, &mut buf).unwrap());
            assert_eq!(buf, payload);
        }
        assert!(!read_frame(&mut r, &mut buf).unwrap(), "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let wire = u32::MAX.to_le_bytes();
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut wire.as_slice(), &mut buf),
            Err(FrameError::Oversized(_))
        ));
        assert!(buf.is_empty());
    }

    #[test]
    fn lying_length_prefix_does_not_pin_the_declared_size() {
        let mut wire = u32::try_from(MAX_FRAME_LEN).unwrap().to_le_bytes().to_vec();
        wire.extend_from_slice(b"abc");
        let mut buf = Vec::new();
        match read_frame(&mut wire.as_slice(), &mut buf) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
        assert!(buf.capacity() < 64 * 1024, "capacity {}", buf.capacity());
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        begin_frame(&mut scratch);
        scratch.extend_from_slice(b"abcdef");
        write_frame(&mut wire, &mut scratch).unwrap();
        wire.truncate(wire.len() - 2);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut wire.as_slice(), &mut buf),
            Err(FrameError::Io(_))
        ));
    }
}
