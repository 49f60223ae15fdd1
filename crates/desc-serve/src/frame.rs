//! Length-prefixed framing for the `desc-run-request/v1` wire
//! protocol: every message in either direction is a 4-byte big-endian
//! payload length followed by exactly that many bytes of UTF-8 JSON.
//!
//! The prefix is what lets a malformed *payload* stay survivable: the
//! reader always knows where the next message starts, so the server
//! can reply with a structured error and keep the connection. An
//! *oversized* prefix is different — the reader refuses to consume the
//! payload, the stream position is no longer trustworthy, and the
//! connection must close after the error reply. `docs/SERVICE.md`
//! specifies both behaviours.

use std::io::{Read, Write};

/// Hard cap on a single frame's payload, both directions (1 MiB).
/// Far above any legitimate request and comfortably above the largest
/// full-scale run report, but small enough that a hostile or corrupt
/// length prefix cannot make the server allocate unbounded memory.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The length prefix exceeds [`MAX_FRAME`]. The payload was not
    /// consumed, so the stream is desynchronized: reply and close.
    Oversized {
        /// The length the prefix declared.
        declared: usize,
    },
    /// The connection failed or ended mid-frame.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Oversized { declared } => {
                write!(f, "frame of {declared} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads one length-prefixed frame. `Err(Closed)` means the peer shut
/// down cleanly *between* frames (EOF before any prefix byte); EOF
/// mid-prefix or mid-payload is an [`FrameError::Io`] error.
pub fn read_frame(reader: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    // Distinguish clean EOF from a truncated prefix by hand: a single
    // `read_exact` reports both as `UnexpectedEof`.
    let mut got = 0;
    while got < prefix.len() {
        match reader.read(&mut prefix[got..])? {
            0 if got == 0 => return Err(FrameError::Closed),
            0 => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-prefix",
                )))
            }
            n => got += n,
        }
    }
    let declared = u32::from_be_bytes(prefix) as usize;
    if declared > MAX_FRAME {
        return Err(FrameError::Oversized { declared });
    }
    let mut payload = vec![0u8; declared];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// Writes one length-prefixed frame and flushes. Refuses payloads over
/// [`MAX_FRAME`] so a writer can never emit what a reader must reject.
///
/// Prefix and payload go out from one buffer in one `write_all`: on a
/// socket without `TCP_NODELAY`, a separate 4-byte prefix write holds
/// the payload back behind Nagle's algorithm until the peer's delayed
/// ACK, which costs tens of milliseconds per message.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the {MAX_FRAME}-byte limit", payload.len()),
        ));
    }
    let prefix = u32::try_from(payload.len()).expect("MAX_FRAME fits in u32").to_be_bytes();
    let mut frame = Vec::with_capacity(prefix.len() + payload.len());
    frame.extend_from_slice(&prefix);
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"x\":1}").unwrap();
        assert_eq!(&buf[..4], &[0, 0, 0, 7]);
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"{\"x\":1}");
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn empty_frame_is_legal_framing() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
    }

    #[test]
    fn oversized_prefix_is_rejected_without_reading_the_payload() {
        let declared = (MAX_FRAME + 1) as u32;
        let mut cursor = std::io::Cursor::new(declared.to_be_bytes().to_vec());
        match read_frame(&mut cursor) {
            Err(FrameError::Oversized { declared: d }) => assert_eq!(d, MAX_FRAME + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert_eq!(cursor.position(), 4, "payload bytes must not be consumed");
    }

    #[test]
    fn truncated_payload_is_an_io_error_not_a_clean_close() {
        let mut bytes = 8u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
    }

    /// Counts `write` calls, accepting every byte of each.
    struct CountingWriter(usize);

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_goes_out_in_one_write() {
        let mut sink = CountingWriter(0);
        write_frame(&mut sink, b"{\"op\":\"ping\"}").unwrap();
        assert_eq!(sink.0, 1, "prefix and payload must share one write");
    }

    #[test]
    fn writer_refuses_oversized_payloads() {
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "no partial frame may be emitted");
    }
}
