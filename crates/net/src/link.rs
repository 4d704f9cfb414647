//! The shared connection layer: framed streams, the request/response
//! peer link the active machine drives, and the serve loop the passive
//! machine answers with.
//!
//! `Conn` owns a read buffer and parses frames out of it, so a frame
//! split across TCP segments is resumable: in reactor mode a poll that
//! sees half a frame returns `Ok(None)` and the next poll continues where
//! it left off — no worker ever blocks waiting for a slow peer to finish
//! a frame. A connection changes socket mode at most twice: the reactor
//! makes it nonblocking at accept, and a `Hello` makes it blocking again
//! for its session thread. In reactor mode replies are queued and
//! flushed with a single vectored write per drain instead of one `write`
//! per frame.

use crate::error::NetError;
use crate::protocol::{decode_frame, encode_frame, WireFrame, WireMsg, MAX_FRAME_LEN};
use offload_pta::AbsLocId;
use offload_runtime::{ControlMsg, ExecHost, HostError, ItemPayload, Machine};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Bytes requested from the socket per buffered read.
const READ_CHUNK: usize = 16 * 1024;

/// A framed, request-counting TCP connection with buffered reads and
/// optionally coalesced writes.
pub struct Conn {
    stream: TcpStream,
    next_id: u64,
    /// Fault injection: abort the connection after this many more frames
    /// (sent + received). Used by tests to kill a server mid-run.
    frame_budget: Option<u64>,
    /// On-wire bytes written (frame length prefixes included); queued
    /// reply bytes count as soon as they are accepted for sending.
    bytes_sent: u64,
    /// On-wire bytes read (frame length prefixes included); buffered
    /// bytes count as soon as they arrive, parsed or not.
    bytes_received: u64,
    /// Unparsed inbound bytes; `rpos` marks how much is already consumed.
    rbuf: Vec<u8>,
    rpos: usize,
    /// When set, outbound frames queue in `wqueue` for a vectored flush
    /// instead of writing through immediately (reactor mode).
    coalesce: bool,
    /// Encoded-but-unflushed outbound frames; `wpos` marks how much of
    /// the front frame is already on the wire.
    wqueue: VecDeque<Vec<u8>>,
    wpos: usize,
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
            coalesce: false,
            wqueue: VecDeque::new(),
            wpos: 0,
        })
    }

    /// On-wire bytes this connection has sent (or queued) so far.
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
    /// count (0 = peer closed); WouldBlock/TimedOut pass through raw.
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

    /// Encodes and sends (or, in reactor mode, queues) one frame.
    fn write_msg(&mut self, frame: &WireFrame) -> Result<(), NetError> {
        let kind = frame.msg.kind();
        let bytes = encode_frame(frame);
        self.bytes_sent += bytes.len() as u64;
        if self.coalesce {
            self.wqueue.push_back(bytes);
            return Ok(());
        }
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

    /// Polls a reactor-mode connection for one complete frame without
    /// ever blocking; `Ok(None)` means the socket ran dry first.
    ///
    /// Bytes are accumulated in the connection's read buffer, so a dry
    /// poll loses nothing: a frame that arrives byte-by-byte is picked up
    /// where it left off by the next poll, and a peer that stalls
    /// mid-frame costs the caller nothing.
    ///
    /// # Errors
    ///
    /// Transport failures (including the peer closing the socket, which
    /// surfaces as an unexpected-EOF I/O error) and malformed frames.
    #[cfg(target_os = "linux")]
    pub(crate) fn poll_frame(&mut self) -> Result<Option<WireFrame>, NetError> {
        let mut dry = false;
        loop {
            if let Some(frame) = self.try_parse_frame()? {
                self.spend_frame()?;
                return Ok(Some(frame));
            }
            if dry {
                return Ok(None);
            }
            match self.fill_read_buf() {
                Ok(0) => {
                    return Err(NetError::io(
                        "polling frame",
                        io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed the connection"),
                    ))
                }
                // A short read emptied the kernel buffer: no frame beyond
                // what is now buffered can appear until more bytes
                // arrive, and the arrival itself re-announces the socket
                // as an edge event — skip the confirming would-block read.
                Ok(n) => dry = n < READ_CHUNK,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::io("polling frame", e)),
            }
        }
    }

    /// Switches into reactor mode: the socket goes nonblocking and
    /// replies queue for vectored flushes.
    #[cfg(target_os = "linux")]
    pub(crate) fn enter_reactor_mode(&mut self) -> Result<(), NetError> {
        self.stream
            .set_nonblocking(true)
            .map_err(|e| NetError::io("entering reactor mode", e))?;
        self.coalesce = true;
        Ok(())
    }

    /// Switches into session mode for a dedicated blocking thread: the
    /// socket goes blocking under the deadlines [`Conn::new`] armed, and
    /// any replies still queued are flushed.
    pub(crate) fn enter_session_mode(&mut self) -> Result<(), NetError> {
        self.coalesce = false;
        self.stream
            .set_nonblocking(false)
            .map_err(|e| NetError::io("entering session mode", e))?;
        if self.flush_writes()? {
            Ok(())
        } else {
            Err(NetError::io(
                "flushing replies",
                io::Error::new(io::ErrorKind::TimedOut, "write deadline expired mid-flush"),
            ))
        }
    }

    /// Encoded frames queued but not yet fully flushed.
    #[cfg(target_os = "linux")]
    pub(crate) fn pending_frames(&self) -> usize {
        self.wqueue.len()
    }

    /// Flushes queued frames with vectored writes until done or the
    /// socket pushes back. `Ok(false)` means a nonblocking socket would
    /// block (or a blocking write timed out) with bytes still queued.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub(crate) fn flush_writes(&mut self) -> Result<bool, NetError> {
        while !self.wqueue.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.wqueue.len());
            for (i, buf) in self.wqueue.iter().enumerate() {
                slices.push(IoSlice::new(if i == 0 { &buf[self.wpos..] } else { buf }));
            }
            match self.stream.write_vectored(&slices) {
                Ok(0) => {
                    return Err(NetError::io(
                        "flushing replies",
                        io::Error::new(io::ErrorKind::WriteZero, "socket accepted no bytes"),
                    ))
                }
                Ok(mut n) => {
                    while n > 0 {
                        let front_left =
                            self.wqueue.front().expect("queue non-empty").len() - self.wpos;
                        if n >= front_left {
                            self.wqueue.pop_front();
                            self.wpos = 0;
                            n -= front_left;
                        } else {
                            self.wpos += n;
                            n = 0;
                        }
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(false)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::io("flushing replies", e)),
            }
        }
        Ok(true)
    }

    /// The raw fd, for reactor registration.
    #[cfg(target_os = "linux")]
    pub(crate) fn raw_fd(&self) -> i32 {
        use std::os::unix::io::AsRawFd;
        self.stream.as_raw_fd()
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
