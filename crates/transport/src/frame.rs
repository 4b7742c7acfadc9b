//! Framing: how encoded values travel over a byte stream.
//!
//! ```text
//! +-------+---------+--------+------------------------------------+
//! | magic | version | length | body                               |
//! | IDEA  |   u16   |  u32   | request_id u64 · node u32 · tagged |
//! | 4 B   |   2 B   |  4 B   | payload (Hello / Command /         |
//! |       |         |        | Response)                          |
//! +-------+---------+--------+------------------------------------+
//! ```
//!
//! All integers little-endian. `length` counts the body only and is capped
//! at [`MAX_FRAME_BYTES`] so a corrupt peer cannot coerce a huge
//! allocation. `request_id` correlates responses with requests on a
//! pipelined connection; id `0` is reserved for fire-and-forget commands,
//! which the server never answers.

use crate::codec::{CodecError, WireCodec, WireReader};
use idea_core::{Command, Response};
use idea_types::{NodeId, WireError};
use std::io::{self, Read};

/// Frame magic: the ASCII bytes `IDEA`.
pub const MAGIC: [u8; 4] = *b"IDEA";

/// Protocol version carried in every frame header. A peer speaking a
/// different version is rejected at the first frame.
pub const VERSION: u16 = 1;

/// Upper bound on one frame's body.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Request id reserved for fire-and-forget commands (no response frame).
pub const NO_REPLY: u64 = 0;

/// What a frame carries.
#[derive(Debug, Clone, PartialEq)]
pub enum FramePayload {
    /// Server greeting, sent once per connection before anything else:
    /// the deployment size, so a remote client can implement
    /// `EngineHandle::nodes` without configuration.
    Hello {
        /// Number of nodes served.
        nodes: u32,
    },
    /// A client operation (client → server).
    Command(Command),
    /// The outcome of the operation with the same `request_id`
    /// (server → client).
    Response(Response),
}

/// One framed message.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Correlates a [`FramePayload::Response`] with its command;
    /// [`NO_REPLY`] marks fire-and-forget commands.
    pub request_id: u64,
    /// The node the command addresses (echoed in responses).
    pub node: NodeId,
    /// The message itself.
    pub payload: FramePayload,
}

impl WireCodec for FramePayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FramePayload::Hello { nodes } => {
                out.push(0);
                nodes.encode(out);
            }
            FramePayload::Command(cmd) => {
                out.push(1);
                cmd.encode(out);
            }
            FramePayload::Response(resp) => {
                out.push(2);
                resp.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(FramePayload::Hello { nodes: u32::decode(r)? }),
            1 => Ok(FramePayload::Command(Command::decode(r)?)),
            2 => Ok(FramePayload::Response(Response::decode(r)?)),
            _ => Err(CodecError { at: 0, what: "FramePayload tag out of domain" }),
        }
    }
}

impl WireCodec for Frame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.request_id.encode(out);
        self.node.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(Frame {
            request_id: u64::decode(r)?,
            node: NodeId::decode(r)?,
            payload: FramePayload::decode(r)?,
        })
    }
}

/// Encodes `frame` with its header into a buffer ready to write.
///
/// # Errors
/// Rejects a body over [`MAX_FRAME_BYTES`] with a typed protocol error —
/// enforced on the send side too, so an oversized command fails *its own*
/// call instead of poisoning the connection for every pipelined request.
pub fn frame_bytes(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let body = frame.to_bytes();
    if body.len() > MAX_FRAME_BYTES {
        return Err(protocol_err(format!(
            "frame body of {} bytes exceeds cap {MAX_FRAME_BYTES}",
            body.len()
        )));
    }
    let mut out = Vec::with_capacity(10 + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

fn transport_err(e: &io::Error) -> WireError {
    WireError::Transport(e.to_string())
}

fn protocol_err(what: impl Into<String>) -> WireError {
    WireError::Protocol(what.into())
}

/// Reads one frame. `Ok(None)` is a *clean* end of stream (the peer closed
/// the connection between frames); EOF mid-frame is a protocol error.
///
/// # Errors
/// [`WireError::Transport`] on I/O failure, [`WireError::Protocol`] on bad
/// magic, version mismatch, an oversized length or a malformed body.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; 10];
    // Distinguish "closed between frames" from "died mid-frame": the first
    // byte decides.
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(protocol_err("connection closed mid-frame header")),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(transport_err(&e)),
        }
    }
    if header[..4] != MAGIC {
        return Err(protocol_err("bad frame magic"));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(protocol_err(format!(
            "protocol version mismatch: peer speaks v{version}, this build speaks v{VERSION}"
        )));
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(protocol_err(format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            protocol_err("connection closed mid-frame body")
        } else {
            transport_err(&e)
        }
    })?;
    let frame = Frame::from_bytes(&body).map_err(WireError::from)?;
    Ok(Some(frame))
}

/// Tries to parse one frame from the front of `buf` without consuming it —
/// the reassembly primitive for nonblocking reads, where a socket hands
/// over arbitrary byte runs that rarely align with frame boundaries.
///
/// Returns `Ok(Some((frame, consumed)))` when `buf` starts with a complete
/// frame (`consumed` = header + body bytes to advance past), `Ok(None)`
/// when the prefix is valid so far but incomplete (read more and retry).
///
/// # Errors
/// The same protocol errors as [`read_frame`]: bad magic, version
/// mismatch, an over-cap length (rejected from the header alone, before
/// the body arrives) or a malformed body.
pub fn parse_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.len() < 10 {
        if !MAGIC.starts_with(&buf[..buf.len().min(4)]) {
            return Err(protocol_err("bad frame magic"));
        }
        return Ok(None);
    }
    if buf[..4] != MAGIC {
        return Err(protocol_err("bad frame magic"));
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != VERSION {
        return Err(protocol_err(format!(
            "protocol version mismatch: peer speaks v{version}, this build speaks v{VERSION}"
        )));
    }
    let len = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(protocol_err(format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}")));
    }
    let Some(body) = buf.get(10..10 + len) else {
        return Ok(None);
    };
    let frame = Frame::from_bytes(body).map_err(WireError::from)?;
    Ok(Some((frame, 10 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_types::ObjectId;

    fn sample() -> Frame {
        Frame {
            request_id: 7,
            node: NodeId(2),
            payload: FramePayload::Command(Command::Peek { object: ObjectId(5) }),
        }
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut wire = Vec::new();
        wire.extend(frame_bytes(&sample()).unwrap());
        wire.extend(
            frame_bytes(&Frame {
                request_id: 7,
                node: NodeId(2),
                payload: FramePayload::Response(Response::Done),
            })
            .unwrap(),
        );
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), sample());
        let second = read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(second.payload, FramePayload::Response(Response::Done)));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF after the last frame");
    }

    #[test]
    fn bad_magic_and_version_are_protocol_errors() {
        let mut wire = frame_bytes(&sample()).unwrap();
        wire[0] = b'X';
        assert!(matches!(read_frame(&mut &wire[..]), Err(WireError::Protocol(_))));

        let mut wire = frame_bytes(&sample()).unwrap();
        wire[4] = 99; // version
        let err = read_frame(&mut &wire[..]).unwrap_err();
        let WireError::Protocol(msg) = err else { panic!("{err:?}") };
        assert!(msg.contains("version"), "{msg}");
    }

    #[test]
    fn truncated_frames_are_protocol_errors() {
        let wire = frame_bytes(&sample()).unwrap();
        // Cut inside the header.
        assert!(matches!(read_frame(&mut &wire[..6]), Err(WireError::Protocol(_))));
        // Cut inside the body.
        assert!(matches!(read_frame(&mut &wire[..wire.len() - 2]), Err(WireError::Protocol(_))));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut wire = frame_bytes(&sample()).unwrap();
        wire[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert!(matches!(err, WireError::Protocol(_)), "{err:?}");
    }

    /// `parse_frame` yields the same frames as `read_frame` no matter how
    /// the bytes are chopped: every split point of a two-frame stream
    /// parses to incomplete-then-complete with the right consumed counts.
    #[test]
    fn parse_frame_reassembles_across_arbitrary_splits() {
        let mut wire = Vec::new();
        wire.extend(frame_bytes(&sample()).unwrap());
        let first_len = wire.len();
        wire.extend(
            frame_bytes(&Frame {
                request_id: 9,
                node: NodeId(1),
                payload: FramePayload::Response(Response::Done),
            })
            .unwrap(),
        );

        for split in 0..=wire.len() {
            let prefix = &wire[..split];
            match parse_frame(prefix).unwrap() {
                None => assert!(split < first_len, "complete frame reported incomplete"),
                Some((frame, consumed)) => {
                    assert_eq!(consumed, first_len);
                    assert_eq!(frame, sample());
                    // The remainder parses as the second frame once whole.
                    let rest = &prefix[consumed..];
                    if split == wire.len() {
                        let (second, used) = parse_frame(rest).unwrap().unwrap();
                        assert_eq!(used, rest.len());
                        assert_eq!(second.request_id, 9);
                    }
                }
            }
        }
    }

    /// `parse_frame` rejects garbage from the very first byte — it never
    /// waits for a full header to call bad magic.
    #[test]
    fn parse_frame_rejects_bad_prefixes_early() {
        assert!(matches!(parse_frame(b"X"), Err(WireError::Protocol(_))));
        assert!(matches!(parse_frame(b"IDEX"), Err(WireError::Protocol(_))));
        assert!(parse_frame(b"IDE").unwrap().is_none(), "valid prefix of the magic");
        assert!(parse_frame(b"").unwrap().is_none());

        let mut wire = frame_bytes(&sample()).unwrap();
        wire[4] = 99; // version
        let err = parse_frame(&wire).unwrap_err();
        let WireError::Protocol(msg) = err else { panic!("{err:?}") };
        assert!(msg.contains("version"), "{msg}");

        let mut wire = frame_bytes(&sample()).unwrap();
        wire[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            matches!(parse_frame(&wire[..10]), Err(WireError::Protocol(_))),
            "over-cap length must be rejected from the header alone"
        );
    }

    /// The cap binds on the send side too: an over-cap frame fails its own
    /// encode with a typed error, so no bytes exist to reach the wire.
    #[test]
    fn oversized_body_is_rejected_on_send() {
        use idea_types::UpdatePayload;
        let huge = Frame {
            request_id: 1,
            node: NodeId(0),
            payload: FramePayload::Command(Command::Write {
                object: ObjectId(1),
                meta_delta: 0,
                payload: UpdatePayload::Opaque(bytes::Bytes::from(vec![0u8; MAX_FRAME_BYTES + 1])),
            }),
        };
        assert!(matches!(frame_bytes(&huge), Err(WireError::Protocol(_))));
    }
}
