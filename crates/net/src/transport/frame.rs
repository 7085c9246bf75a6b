//! The length-prefixed frame codec: how control-plane messages and
//! `wirefmt` batches cross a TCP stream.
//!
//! A frame is `[0xCF, 0x01, u32-le length, payload]`. The payload is an
//! encoded [`super::proto`] message — which in turn carries the existing
//! canonical batch encoding (trace extension headers included)
//! untouched. The per-frame magic makes desynchronization loud: after
//! any correctly read frame the next two bytes must be the magic again,
//! so garbage following a frame surfaces as [`FrameError::Corrupt`]
//! instead of being reinterpreted as a length.
//!
//! Partial reads and writes are handled explicitly: both directions
//! loop until the buffer is complete, retrying `Interrupted`. A reset,
//! broken pipe, or EOF mid-frame is [`FrameError::LinkDown`] — the
//! caller counts it as a link fault; nothing here panics. An EOF
//! *between* frames (the peer closed cleanly) is [`FrameError::Closed`].

use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// The two magic bytes opening every frame (codec id + version).
pub const FRAME_MAGIC: [u8; 2] = [0xCF, 0x01];

/// Upper bound on a frame payload. Generous — final-state reports carry
/// whole node states — but finite, so a desynchronized or hostile
/// length prefix cannot demand an absurd allocation.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// The room a payload's buffer starts with: a frame this short is read
/// into its exact size; a longer one grows with the bytes that arrive.
const FIRST_READ: usize = 8 << 10;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly, at a frame boundary.
    Closed,
    /// The link failed: connection reset, broken pipe, or EOF in the
    /// middle of a frame. Counted as a link fault by callers.
    LinkDown(std::io::Error),
    /// The stream is not speaking the protocol: bad magic bytes or an
    /// implausible length. After this the stream position is
    /// meaningless; the link must be torn down.
    Corrupt(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "peer closed the stream"),
            FrameError::LinkDown(e) => write!(f, "link down: {e}"),
            FrameError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Write all of `buf`, looping over partial writes and retrying
/// `Interrupted`. A zero-length write or any other error is the link
/// going down.
fn write_full(w: &mut dyn Write, mut buf: &[u8]) -> Result<(), FrameError> {
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => {
                return Err(FrameError::LinkDown(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "wrote zero bytes",
                )))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::LinkDown(e)),
        }
    }
    Ok(())
}

/// Read exactly `buf.len()` bytes, looping over partial reads and
/// retrying `Interrupted`. `clean_eof_ok` distinguishes the two EOF
/// meanings: at offset 0 of a frame header an EOF is a clean close
/// ([`FrameError::Closed`]); anywhere else it tears the frame and is
/// [`FrameError::LinkDown`].
fn read_full(r: &mut dyn Read, buf: &mut [u8], clean_eof_ok: bool) -> Result<(), FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && clean_eof_ok {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::LinkDown(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "eof mid-frame",
                    )))
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::LinkDown(e)),
        }
    }
    Ok(())
}

/// Frame `payload` onto the stream.
pub fn write_frame(w: &mut dyn Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::Corrupt("frame too large to send"));
    }
    let mut header = [0u8; 6];
    header[..2].copy_from_slice(&FRAME_MAGIC);
    header[2..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    write_full(w, &header)?;
    write_full(w, payload)
}

/// Read the next frame payload off the stream. Strict: bad magic or an
/// oversized length is [`FrameError::Corrupt`]; a stream ending inside
/// the header or payload is [`FrameError::LinkDown`]; a stream ending
/// exactly between frames is [`FrameError::Closed`]. Past [`FIRST_READ`]
/// the payload's buffer grows with the bytes that arrive, not with the
/// length the header claims: six bytes cannot make it reserve
/// `MAX_FRAME_LEN`.
pub fn read_frame(r: &mut dyn Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 6];
    read_full(r, &mut header, true)?;
    if header[..2] != FRAME_MAGIC {
        return Err(FrameError::Corrupt("bad frame magic"));
    }
    let len = u32::from_le_bytes(header[2..].try_into().expect("4 header bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Corrupt("frame length implausible"));
    }
    let mut payload = Vec::new();
    while payload.len() < len {
        // Room for as much again as has arrived, `FIRST_READ` at first.
        let filled = payload.len();
        payload.resize(filled + (len - filled).min(filled.max(FIRST_READ)), 0);
        read_full(r, &mut payload[filled..], false)?;
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that hands out one byte per call — the worst-case
    /// partial-read schedule a socket can produce.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.split_first() {
                Some((b, rest)) if !buf.is_empty() => {
                    buf[0] = *b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    /// A writer that accepts one byte per call.
    struct Dribble(Vec<u8>);

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match buf.first() {
                Some(b) => {
                    self.0.push(*b);
                    Ok(1)
                }
                None => Ok(0),
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn round_trips_through_partial_reads_and_writes() {
        for payload in [&b""[..], b"x", b"hello frames", &[0u8; 4096]] {
            let mut dribbled = Dribble(Vec::new());
            write_frame(&mut dribbled, payload).unwrap();
            assert_eq!(dribbled.0, framed(payload), "one-byte writes agree");
            let back = read_frame(&mut Trickle(&dribbled.0)).unwrap();
            assert_eq!(back, payload, "one-byte reads recover the payload");
            let back = read_frame(&mut Cursor::new(&dribbled.0)).unwrap();
            assert_eq!(back, payload);
        }
    }

    #[test]
    fn every_strict_prefix_is_rejected_and_never_closed() {
        let bytes = framed(b"prefix-test payload");
        for cut in 1..bytes.len() {
            match read_frame(&mut Cursor::new(&bytes[..cut])) {
                Err(FrameError::LinkDown(_)) => {}
                other => panic!("prefix of {cut} bytes must be LinkDown, got {other:?}"),
            }
        }
        // The empty stream is the one clean case.
        assert!(matches!(
            read_frame(&mut Cursor::new(&[][..])),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn garbage_after_a_frame_is_detected() {
        let mut bytes = framed(b"good frame");
        bytes.extend_from_slice(b"zzzzzz");
        let mut cur = Cursor::new(&bytes);
        assert_eq!(read_frame(&mut cur).unwrap(), b"good frame");
        assert!(matches!(
            read_frame(&mut cur),
            Err(FrameError::Corrupt("bad frame magic"))
        ));
    }

    #[test]
    fn implausible_length_is_corrupt_not_an_allocation() {
        let mut bytes = Vec::from(FRAME_MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes)),
            Err(FrameError::Corrupt("frame length implausible"))
        ));
    }

    /// A reader that notes the largest buffer it is handed: what the
    /// frame reader has made room for at that point.
    struct Offered<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for Offered<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            let n = buf.len().min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn what_a_frame_reserves_follows_the_bytes_under_24_000_mutations() {
        // The frame layer's mutation target: every control frame of the
        // protocol's corpus and three batch payloads (one past
        // `FIRST_READ`), framed, then edited by `codec::tests::mutate`.
        // Any bytes read to a payload or to an error, never a panic, and
        // the room made for a payload follows the bytes that arrived —
        // twice their length and `FIRST_READ` at most — never the length
        // the header claims.
        use crate::codec::tests::mutate;
        use calm_common::{fact::fact, rng::Rng};
        let batch = |n: i64| -> Vec<u8> {
            let facts = (0..n).map(|i| fact("m_E", [i, i + 1])).collect();
            crate::wirefmt::encode(&facts)
        };
        let payloads = super::super::proto::tests::corpus().into_iter();
        let batches = [
            ("batch/3", batch(3)),
            ("batch/90", batch(90)),
            ("batch/4k", batch(4000)),
        ];
        assert!(batches[2].1.len() > 2 * FIRST_READ);
        let payloads = payloads.chain(batches);
        let corpus: Vec<(&str, Vec<u8>)> = payloads.map(|(name, p)| (name, framed(&p))).collect();
        let mut rng = Rng::seed_from_u64(0xf4a3_e0ff);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..24_000 {
            let mut bytes = rng.choose(&corpus).unwrap().1.clone();
            mutate(&mut rng, &mut bytes, &corpus);
            let mut r = Offered {
                data: &bytes,
                largest: 0,
            };
            let read = read_frame(&mut r);
            let room = 2 * bytes.len() + FIRST_READ;
            assert!(r.largest <= room, "{} for {bytes:?}", r.largest);
            match read {
                Ok(payload) => {
                    assert!(payload.capacity() <= room, "{bytes:?}");
                    assert_eq!(payload, bytes[6..6 + payload.len()]);
                    accepted += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(
            accepted > 2_000 && rejected > 2_000,
            "accepted {accepted}, rejected {rejected}"
        );
    }

    #[test]
    fn back_to_back_frames_read_in_order() {
        let mut bytes = framed(b"one");
        bytes.extend(framed(b"two"));
        bytes.extend(framed(b""));
        let mut cur = Cursor::new(&bytes);
        assert_eq!(read_frame(&mut cur).unwrap(), b"one");
        assert_eq!(read_frame(&mut cur).unwrap(), b"two");
        assert_eq!(read_frame(&mut cur).unwrap(), b"");
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Closed)));
    }
}
