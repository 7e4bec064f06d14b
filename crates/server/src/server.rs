//! The TCP front end: a listener thread accepting connections, one
//! thread per connection, every connection driving its own
//! [`Session`](crate::session::Session) over the shared
//! [`ServerState`].
//!
//! Connections speak the line protocol of [`crate::protocol`]: one
//! request per line, dot-terminated replies. A connection ends on
//! `QUIT`, on EOF, on an unreadable stream, or on a request line longer
//! than [`MAX_REQUEST_LINE`]; the server ends when
//! [`Server::shutdown`] flips the stop flag and nudges the listener
//! with a wake-up connection.

use std::fmt;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::protocol::Reply;
use crate::session::{ServerState, WatchSink};

/// The longest request line a connection may send, newline excluded.
/// Requests are read into memory whole, so without a cap a client that
/// never sends `\n` grows one buffer without limit; 1 MiB is three
/// orders of magnitude above any statement the protocol carries.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// A request line exceeded [`MAX_REQUEST_LINE`]: the connection is sent
/// this as an `ERR` reply and closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestLineTooLong;

impl fmt::Display for RequestLineTooLong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "request line too long (limit {MAX_REQUEST_LINE} bytes); closing connection"
        )
    }
}

impl std::error::Error for RequestLineTooLong {}

/// A running TCP server. Dropping it without calling
/// [`Server::shutdown`] leaves the listener thread running for the
/// life of the process (tests should shut down explicitly).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting connections on a background thread.
    pub fn bind(state: Arc<ServerState>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_state = Arc::clone(&state);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("pref-server-accept".to_string())
            .spawn(move || accept_loop(listener, accept_state, accept_stop))?;
        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            state,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state connections run on.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stop accepting and join the listener thread. Established
    /// connections finish on their own threads — each ends at its
    /// client's QUIT or disconnect; this call joins the ones already
    /// done and detaches from the rest.
    pub fn shutdown(mut self) {
        // Release pairs with the accept loop's Acquire load: everything
        // written before the store is visible once the loop sees `true`.
        // (The flag itself is the only coordination; no fence needed.)
        self.stop.store(true, Ordering::Release);
        // The listener blocks in accept(); a throwaway connection
        // wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>, stop: Arc<AtomicBool>) {
    // Finished connection threads are reaped opportunistically so a
    // long-lived server does not accumulate dead handles.
    let workers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    for stream in listener.incoming() {
        // Acquire pairs with shutdown()'s Release store of the flag.
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("pref-server-conn".to_string())
            .spawn(move || serve_connection(stream, conn_state));
        if let Ok(h) = handle {
            let mut ws = workers.lock();
            ws.retain(|w| !w.is_finished());
            ws.push(h);
        }
    }
    for w in workers.into_inner() {
        if w.is_finished() {
            let _ = w.join();
        }
    }
}

/// Drive one connection: read request lines, write framed replies.
/// The write half is a [`WatchSink`] shared with the push dispatcher,
/// so WATCH frames and replies serialize frame-atomically on the one
/// socket.
fn serve_connection(stream: TcpStream, state: Arc<ServerState>) {
    let sink = match stream.try_clone() {
        Ok(w) => WatchSink::new(w),
        Err(_) => return,
    };
    let mut session = state.session_with_sink(sink.clone());
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells "exactly at the limit" (newline
        // read) from "over it" (no newline within the allowance).
        let mut bounded = reader.by_ref().take(MAX_REQUEST_LINE as u64 + 1);
        match bounded.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.last() != Some(&b'\n') && line.len() > MAX_REQUEST_LINE {
            let _ = sink.write_frame(&Reply::err(RequestLineTooLong).frame());
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            break;
        };
        let reply = session.handle_line(text);
        if sink.write_frame(&reply.frame()).is_err() {
            break;
        }
        if session.closed() {
            break;
        }
    }
}
