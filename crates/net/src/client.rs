//! A small blocking client for the wire protocol — what the loopback
//! fleet, the tests, and any out-of-process tool speak to the server
//! with. One client wraps one TCP connection; requests can be
//! pipelined (send many, then receive many) and are correlated by
//! `request_id`, not by ordering.

use lbq_proto::{
    decode_frame, encode_frame, query_request, Decoded, Frame, DEFAULT_CLIENT_MAX_PAYLOAD,
};
use lbq_serve::QueryReq;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking protocol client over one TCP connection.
pub struct NetClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl NetClient {
    /// Connects to a server (Nagle disabled — frames are small and
    /// latency-sensitive).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Bounds how long [`NetClient::recv`] blocks (`None` = forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one engine request under a client-chosen correlation id.
    pub fn send_query(&mut self, request_id: u64, req: &QueryReq) -> std::io::Result<()> {
        self.send_frame(&query_request(request_id, req))
    }

    /// Encodes and sends one frame.
    pub fn send_frame(&mut self, frame: &Frame) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(64);
        encode_frame(frame, &mut bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        self.stream.write_all(&bytes)
    }

    /// Sends raw bytes verbatim — the adversarial tests' way of putting
    /// malformed frames on the wire.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Half-closes the sending direction: the server answers everything
    /// in flight, then closes. The pipelined-fleet pattern is
    /// `send × n` → `shutdown_write` → `recv × n`.
    pub fn shutdown_write(&self) -> std::io::Result<()> {
        self.stream.shutdown(Shutdown::Write)
    }

    /// Receives the next frame.
    pub fn recv(&mut self) -> std::io::Result<Frame> {
        Ok(self.recv_raw()?.0)
    }

    /// Receives the next frame together with its exact wire bytes —
    /// the currency of the byte-identical assertions. Unknown frame
    /// types (from a future server) are skipped, per the
    /// forward-compatibility rules.
    pub fn recv_raw(&mut self) -> std::io::Result<(Frame, Vec<u8>)> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match decode_frame(&self.buf, DEFAULT_CLIENT_MAX_PAYLOAD) {
                Ok(Decoded::Frame { frame, consumed }) => {
                    let raw = self.buf[..consumed].to_vec();
                    self.buf.drain(..consumed);
                    return Ok((frame, raw));
                }
                Ok(Decoded::Unknown { consumed, .. }) => {
                    self.buf.drain(..consumed);
                }
                Ok(Decoded::Incomplete { .. }) => {
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "connection closed mid-frame (or before a frame arrived)",
                        ));
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
        }
    }
}
