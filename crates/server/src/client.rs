//! A minimal blocking client for the line protocol — what the TCP
//! tests and `perfbench` use. One request in
//! flight at a time, replies read until the `.` terminator and
//! dot-unstuffed back into [`Reply`].
//!
//! Asynchronous `PUSH` frames (from `WATCH`) can arrive at any point —
//! including between a request and its reply. [`Client::request`]
//! stashes them and keeps reading until the actual reply;
//! [`Client::take_pushes`] drains the stash and [`Client::wait_push`]
//! blocks (with a timeout) for the next one.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{Reply, END};

/// A connected client session.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    pushes: VecDeque<Reply>,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            pushes: VecDeque::new(),
        })
    }

    /// Send one request line and read the full reply. `PUSH` frames
    /// arriving first are stashed for [`Client::take_pushes`].
    pub fn request(&mut self, line: &str) -> std::io::Result<Reply> {
        debug_assert!(!line.contains('\n'), "requests are single lines");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        loop {
            let frame = self.read_frame()?;
            if frame.is_push() {
                self.pushes.push_back(frame);
            } else {
                return Ok(frame);
            }
        }
    }

    /// Drain every `PUSH` frame received so far (stashed during
    /// [`Client::request`] calls), oldest first.
    pub fn take_pushes(&mut self) -> Vec<Reply> {
        self.pushes.drain(..).collect()
    }

    /// Return the next `PUSH` frame, blocking up to `timeout` for one
    /// to arrive. Times out with [`std::io::ErrorKind::WouldBlock`] or
    /// [`std::io::ErrorKind::TimedOut`] (platform-dependent).
    pub fn wait_push(&mut self, timeout: Duration) -> std::io::Result<Reply> {
        if let Some(p) = self.pushes.pop_front() {
            return Ok(p);
        }
        self.reader.get_ref().set_read_timeout(Some(timeout))?;
        let frame = self.read_frame();
        self.reader.get_ref().set_read_timeout(None)?;
        let frame = frame?;
        if frame.is_push() {
            Ok(frame)
        } else {
            // No request is in flight, so a non-push frame here means
            // the server broke protocol.
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected a PUSH frame, got: {}", frame.status),
            ))
        }
    }

    /// Read one framed message (reply or push) off the wire.
    fn read_frame(&mut self) -> std::io::Result<Reply> {
        let mut status = String::new();
        if self.reader.read_line(&mut status)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status = status.trim_end_matches(['\r', '\n']).to_string();
        let mut body = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "reply not terminated",
                ));
            }
            let line = line.trim_end_matches(['\r', '\n']);
            if line == END {
                break;
            }
            // Undo dot-stuffing: a lone `.` was the terminator above, so
            // any remaining leading dot carries one stuffed dot.
            body.push(line.strip_prefix('.').unwrap_or(line).to_string());
        }
        Ok(Reply { status, body })
    }
}
