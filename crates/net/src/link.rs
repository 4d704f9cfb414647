//! The shared connection layer: framed streams, the request/response
//! peer link the active machine drives, and the serve loop the passive
//! machine answers with.
//!
//! A `Conn` is a blocking socket under per-request deadlines, and it
//! never changes mode. It owns a read buffer and parses frames out of
//! it, so one read picks up every frame a pipelining peer has already
//! sent, and a frame split across TCP segments is reassembled across
//! reads.

use crate::error::NetError;
use crate::protocol::{decode_frame, encode_frame, WireFrame, WireMsg, MAX_FRAME_LEN};
use offload_pta::AbsLocId;
use offload_runtime::{ControlMsg, ExecHost, HostError, ItemPayload, Machine};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Bytes requested from the socket per buffered read.
const READ_CHUNK: usize = 16 * 1024;

/// A framed, request-counting TCP connection with buffered reads.
pub struct Conn {
    stream: TcpStream,
    next_id: u64,
    /// Fault injection: abort the connection after this many more frames
    /// (sent + received). Used by tests to kill a server mid-run.
    frame_budget: Option<u64>,
    /// On-wire bytes written (frame length prefixes included).
    bytes_sent: u64,
    /// On-wire bytes read (frame length prefixes included); buffered
    /// bytes count as soon as they arrive, parsed or not.
    bytes_received: u64,
    /// Unparsed inbound bytes; `rpos` marks how much is already consumed.
    rbuf: Vec<u8>,
    rpos: usize,
}

impl Conn {
    /// Wraps a connected stream with per-request deadlines.
    ///
    /// # Errors
    ///
    /// Socket-option failures.
    pub fn new(stream: TcpStream, deadline: Option<Duration>) -> Result<Conn, NetError> {
        stream
            .set_nodelay(true)
            .map_err(|e| NetError::io("setting nodelay", e))?;
        stream
            .set_read_timeout(deadline)
            .map_err(|e| NetError::io("setting read deadline", e))?;
        stream
            .set_write_timeout(deadline)
            .map_err(|e| NetError::io("setting write deadline", e))?;
        Ok(Conn {
            stream,
            next_id: 0,
            frame_budget: None,
            bytes_sent: 0,
            bytes_received: 0,
            rbuf: Vec::new(),
            rpos: 0,
        })
    }

    /// On-wire bytes this connection has sent so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// On-wire bytes this connection has received so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Arms fault injection: after `n` more frames the connection
    /// pretends to die abruptly.
    pub fn fail_after_frames(&mut self, n: u64) {
        self.frame_budget = Some(n);
    }

    fn spend_frame(&mut self) -> Result<(), NetError> {
        if let Some(budget) = &mut self.frame_budget {
            if *budget == 0 {
                // Shut down the socket so the peer observes a dead
                // connection, exactly like a crashed process.
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                return Err(NetError::io(
                    "fault injection",
                    io::Error::new(io::ErrorKind::ConnectionAborted, "injected crash"),
                ));
            }
            *budget -= 1;
        }
        Ok(())
    }

    /// Parses one complete frame out of the read buffer, if present.
    /// `Ok(None)` means the buffer holds at most a frame prefix.
    fn try_parse_frame(&mut self) -> Result<Option<WireFrame>, NetError> {
        let buf = &self.rbuf[self.rpos..];
        let mut len = 0u64;
        let mut shift = 0u32;
        let mut i = 0usize;
        loop {
            if i >= buf.len() {
                return Ok(None);
            }
            if shift >= 64 {
                return Err(NetError::protocol("frame length varint overflow"));
            }
            let b = buf[i];
            i += 1;
            len |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        if len > MAX_FRAME_LEN {
            return Err(NetError::protocol(format!(
                "frame of {len} bytes exceeds limit"
            )));
        }
        let total = i + len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let frame = decode_frame(&buf[i..total])?;
        self.rpos += total;
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        }
        Ok(Some(frame))
    }

    /// Reads once from the socket into the buffer. Returns the byte
    /// count (0 = peer closed); a passed deadline passes through raw
    /// (`WouldBlock` or `TimedOut`, by platform).
    fn fill_read_buf(&mut self) -> io::Result<usize> {
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos >= READ_CHUNK {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        let old = self.rbuf.len();
        self.rbuf.resize(old + READ_CHUNK, 0);
        match self.stream.read(&mut self.rbuf[old..]) {
            Ok(n) => {
                self.rbuf.truncate(old + n);
                self.bytes_received += n as u64;
                Ok(n)
            }
            Err(e) => {
                self.rbuf.truncate(old);
                Err(e)
            }
        }
    }

    /// Encodes and sends one frame.
    fn write_msg(&mut self, frame: &WireFrame) -> Result<(), NetError> {
        let kind = frame.msg.kind();
        let bytes = encode_frame(frame);
        self.bytes_sent += bytes.len() as u64;
        self.stream
            .write_all(&bytes)
            .map_err(|e| NetError::io(format!("sending {kind}"), e))
    }

    /// Sends a message under a fresh request id; returns the id.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send(&mut self, msg: WireMsg) -> Result<u64, NetError> {
        self.spend_frame()?;
        self.next_id += 1;
        let id = self.next_id;
        self.write_msg(&WireFrame {
            request_id: id,
            msg,
        })?;
        Ok(id)
    }

    /// Sends a reply echoing the request id it answers.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn reply(&mut self, request_id: u64, msg: WireMsg) -> Result<(), NetError> {
        self.spend_frame()?;
        self.write_msg(&WireFrame { request_id, msg })
    }

    /// Receives the next frame, blocking under the connection deadline.
    ///
    /// # Errors
    ///
    /// Transport failures, deadline expiry, malformed frames.
    pub fn recv(&mut self) -> Result<WireFrame, NetError> {
        self.spend_frame()?;
        loop {
            if let Some(frame) = self.try_parse_frame()? {
                return Ok(frame);
            }
            match self.fill_read_buf() {
                Ok(0) => {
                    return Err(NetError::io(
                        "reading frame length",
                        io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed the connection"),
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::io("reading frame length", e)),
            }
        }
    }
}

/// The active side's view of the remote host: item fetches and pushes as
/// request/response round trips on the framed connection.
pub struct TcpPeer<'c> {
    conn: &'c mut Conn,
}

impl<'c> TcpPeer<'c> {
    /// Wraps a connection for the duration of one turn.
    pub fn new(conn: &'c mut Conn) -> Self {
        TcpPeer { conn }
    }

    fn round_trip(&mut self, msg: WireMsg) -> Result<WireMsg, NetError> {
        let id = self.conn.send(msg)?;
        let frame = self.conn.recv()?;
        if frame.request_id != id {
            return Err(NetError::protocol(format!(
                "reply id {} does not match request id {id}",
                frame.request_id
            )));
        }
        Ok(frame.msg)
    }
}

impl ExecHost for TcpPeer<'_> {
    fn fetch_item(&mut self, item: AbsLocId) -> Result<ItemPayload, HostError> {
        match self.round_trip(WireMsg::FetchItem {
            item: item.index() as u32,
        }) {
            Ok(WireMsg::ItemData(payload)) => Ok(payload),
            Ok(other) => Err(HostError(format!(
                "expected ItemData, got {}",
                other.kind()
            ))),
            Err(e) => Err(HostError(e.to_string())),
        }
    }

    fn push_item(&mut self, item: AbsLocId, payload: ItemPayload) -> Result<(), HostError> {
        match self.round_trip(WireMsg::PushItem {
            item: item.index() as u32,
            payload,
        }) {
            Ok(WireMsg::PushAck) => Ok(()),
            Ok(other) => Err(HostError(format!("expected PushAck, got {}", other.kind()))),
            Err(e) => Err(HostError(e.to_string())),
        }
    }
}

/// How a passive serve loop ended.
///
/// `Control` carries the full `ControlMsg` by value, mirroring
/// `offload_runtime::Outcome`: one is produced per control transfer and
/// consumed immediately, never stored.
#[allow(clippy::large_enum_variant)]
pub enum Served {
    /// The peer handed control over.
    Control(ControlMsg),
    /// The peer closed the session (client-initiated `Bye`).
    Bye,
}

/// Runs the passive side: answer the active host's item traffic against
/// the local machine until control (or the session end) arrives. An item
/// request the machine rejects gets a [`WireMsg::Error`] reply and ends
/// the loop.
///
/// # Errors
///
/// Transport failures, a rejected item request, and
/// [`NetError::Remote`] if the peer reports its half of the run failed.
pub fn serve(machine: &mut Machine<'_>, conn: &mut Conn) -> Result<Served, NetError> {
    loop {
        let frame = conn.recv()?;
        let reply = match frame.msg {
            WireMsg::FetchItem { item } => {
                machine.fetch_item(AbsLocId(item)).map(WireMsg::ItemData)
            }
            WireMsg::PushItem { item, payload } => machine
                .push_item(AbsLocId(item), payload)
                .map(|()| WireMsg::PushAck),
            WireMsg::Control(m) => return Ok(Served::Control(*m)),
            WireMsg::Error(m) => return Err(NetError::Remote(m)),
            WireMsg::Bye => return Ok(Served::Bye),
            other => {
                return Err(NetError::protocol(format!(
                    "unexpected {} while serving",
                    other.kind()
                )))
            }
        };
        match reply {
            Ok(msg) => conn.reply(frame.request_id, msg)?,
            Err(e) => {
                let _ = conn.reply(frame.request_id, WireMsg::Error(e.0.clone()));
                return Err(NetError::protocol(e.0));
            }
        }
    }
}
