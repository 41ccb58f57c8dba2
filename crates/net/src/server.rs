//! The TCP server: an acceptor plus per-connection reader/writer threads
//! feeding [`Service::submit_with`], with wire-level fault tolerance.
//!
//! ## Threading model
//!
//! No async runtime — plain threads and channels, matching the service's
//! Mutex/Condvar style:
//!
//! * one **acceptor** thread polls a non-blocking listener and spawns a
//!   connection thread per accepted socket;
//! * each connection runs a **reader** thread (frames → `submit_with` →
//!   an in-order channel of pending outcomes) and a **writer** thread
//!   (redeem each [`Ticket`] in arrival order, encode, write under the
//!   write deadline). Responses on one connection keep request order; the
//!   *service* still coalesces and reorders freely across connections.
//!
//! ## Failure model
//!
//! * **Malformed input never panics the server.** A request whose payload
//!   fails to decode (but framed correctly) is answered with a typed error
//!   frame and the connection keeps serving; a framing violation (bad
//!   magic, checksum mismatch, oversized length) means the stream lost
//!   sync, so the server sends a best-effort error frame and severs — only
//!   that connection.
//! * **Slow clients are severed, not served.** A write that cannot finish
//!   within the write deadline closes that connection; every other client
//!   is unaffected (per-connection threads, no shared write path).
//! * **No ticket left behind, extended to connections.** Whatever closes a
//!   connection — clean EOF, read/write timeout, injected fault, a writer
//!   panic — the writer's close path redeems every in-flight ticket before
//!   the connection is released, so service accounting stays exact. The
//!   [`ServiceStats::connections_opened`]/`severed`/`drained` counters
//!   audit exactly this.
//! * **Graceful drain on shutdown.** [`Server::shutdown`] stops accepting,
//!   refuses new submissions ([`Service::begin_shutdown`]), unblocks every
//!   reader, lets every writer flush its in-flight responses, joins all
//!   connection threads, and only then shuts the service itself down.
//!
//! [`ServiceStats::connections_opened`]: wazi_service::ServiceStats::connections_opened

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use wazi_service::{Service, ServiceError, ServiceStats, Submit, Ticket};

use crate::faults::{WireFault, WireFaultPlan};
use crate::wire::{read_raw_frame, Frame, FrameBody, WireError, DEFAULT_MAX_FRAME_LEN};

/// Tuning knobs of a [`Server`]; set via [`ServerBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Per-connection read deadline: a connection that sends no frame for
    /// this long is severed. Bounds how long an abandoned socket can hold
    /// a connection thread.
    pub read_timeout: Duration,
    /// Per-connection write deadline: a response write that cannot finish
    /// within it severs the connection (the slow-client guard).
    pub write_timeout: Duration,
    /// Payload-size cap applied to incoming frames before any allocation.
    pub max_frame_len: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(2),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// Builder-style front end for a [`Server`]; construct with
/// [`Server::builder`], finish with [`ServerBuilder::bind`].
pub struct ServerBuilder {
    service: Service,
    config: ServerConfig,
    wire_faults: Option<Arc<WireFaultPlan>>,
}

impl std::fmt::Debug for ServerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerBuilder")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ServerBuilder {
    /// Sets the per-connection read deadline.
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.config.read_timeout = timeout;
        self
    }

    /// Sets the per-connection write deadline (the slow-client guard).
    pub fn write_timeout(mut self, timeout: Duration) -> Self {
        self.config.write_timeout = timeout;
        self
    }

    /// Sets the incoming payload-size cap.
    pub fn max_frame_len(mut self, max: u32) -> Self {
        self.config.max_frame_len = max;
        self
    }

    /// Installs a deterministic wire fault plan (the transport chaos
    /// harness): faults fire at the planned request arrival ordinals. See
    /// [`crate::faults`].
    pub fn wire_faults(mut self, plan: Arc<WireFaultPlan>) -> Self {
        self.wire_faults = Some(plan);
        self
    }

    /// Binds the listener, starts the acceptor, and returns the running
    /// server. Bind to port 0 to let the OS pick ([`Server::local_addr`]
    /// reports the choice).
    pub fn bind(self, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // Non-blocking accept, polled: the acceptor must observe the stop
        // flag promptly even when no client ever connects.
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            service: self.service,
            config: self.config,
            stop: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(0),
            request_ordinal: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            wire_faults: self.wire_faults,
        });
        let conn_handles = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let inner = Arc::clone(&inner);
            let conn_handles = Arc::clone(&conn_handles);
            std::thread::Builder::new()
                .name("wazi-net-acceptor".into())
                .spawn(move || acceptor_loop(&inner, &listener, &conn_handles))
                .expect("spawn acceptor thread")
        };
        Ok(Server {
            inner,
            local_addr,
            acceptor: Some(acceptor),
            conn_handles,
        })
    }
}

/// State shared by the server handle, the acceptor, and every connection
/// thread.
struct Inner {
    service: Service,
    config: ServerConfig,
    stop: AtomicBool,
    next_conn_id: AtomicU64,
    /// Global request arrival counter — the ordinal space wire fault plans
    /// speak in.
    request_ordinal: AtomicU64,
    /// Live connection sockets (clones), so shutdown can unblock every
    /// reader with `Shutdown::Read`. Entries remove themselves on close.
    conns: Mutex<HashMap<u64, TcpStream>>,
    wire_faults: Option<Arc<WireFaultPlan>>,
}

/// A TCP front end serving one [`Service`] — see the module docs for the
/// threading and failure model.
///
/// The wire changes transport, never answers: responses routed through this
/// server are bit-identical to in-process [`Service::submit`] of the same
/// queries (asserted across every overview index by the facade test-suite).
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Starts building a server over `service` (taking ownership: the
    /// server becomes the service's front end and shuts it down as the
    /// last step of [`Server::shutdown`]).
    pub fn builder(service: Service) -> ServerBuilder {
        ServerBuilder {
            service,
            config: ServerConfig::default(),
            wire_faults: None,
        }
    }

    /// Binds with default configuration ([`Server::builder`] for knobs).
    pub fn bind(service: Service, addr: impl ToSocketAddrs) -> io::Result<Server> {
        Server::builder(service).bind(addr)
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served service — for stats probes and for in-process submission
    /// alongside the wire (how the bit-identity tests compare transports).
    pub fn service(&self) -> &Service {
        &self.inner.service
    }

    /// Snapshots the service counters (queries *and* connections).
    pub fn stats(&self) -> ServiceStats {
        self.inner.service.stats()
    }

    /// Graceful drain: stop accepting, refuse new submissions, flush every
    /// in-flight response, close every connection, then shut the service
    /// itself down. Returns the final counters. Never hangs: readers are
    /// unblocked explicitly and every ticket resolves by the service's own
    /// guarantee.
    pub fn shutdown(self) -> ServiceStats {
        let inner = Arc::clone(&self.inner);
        // Dropping the handle runs the full stop sequence and joins every
        // thread, after which ours is the only Arc left.
        drop(self);
        match Arc::try_unwrap(inner) {
            Ok(inner) => inner.service.shutdown(),
            // Unreachable in practice (all holders were joined); degrade to
            // a snapshot rather than panicking in a shutdown path.
            Err(inner) => {
                inner.service.begin_shutdown();
                inner.service.stats()
            }
        }
    }

    fn stop_all(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Refuse new submissions; queries already accepted keep executing
        // and their responses still flow out through the writers.
        self.inner.service.begin_shutdown();
        // Unblock every reader: a half-shutdown surfaces as a clean EOF at
        // the next frame boundary, which is the reader's signal to close
        // its connection after the writer flushes.
        {
            let conns = lock(&self.inner.conns);
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.conn_handles).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_all();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("config", &self.inner.config)
            .finish_non_exhaustive()
    }
}

/// Poison-resistant lock helper: a panicking connection thread must never
/// wedge the acceptor or shutdown.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn acceptor_loop(
    inner: &Arc<Inner>,
    listener: &TcpListener,
    conn_handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !inner.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(inner.config.read_timeout));
                let _ = stream.set_write_timeout(Some(inner.config.write_timeout));
                let conn_id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    lock(&inner.conns).insert(conn_id, clone);
                }
                inner.service.note_connection_opened();
                let handle = {
                    let inner = Arc::clone(inner);
                    std::thread::Builder::new()
                        .name(format!("wazi-net-conn-{conn_id}"))
                        .spawn(move || connection_loop(&inner, conn_id, stream))
                        .expect("spawn connection thread")
                };
                let mut handles = lock(conn_handles);
                // Reap finished connections so a long-lived server does not
                // accumulate one JoinHandle per connection ever served.
                let mut live = Vec::with_capacity(handles.len() + 1);
                for old in handles.drain(..) {
                    if old.is_finished() {
                        let _ = old.join();
                    } else {
                        live.push(old);
                    }
                }
                live.push(handle);
                *handles = live;
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// What the reader hands the writer for one received frame, in arrival
/// order.
struct Envelope {
    request_id: u64,
    /// Global arrival ordinal — the wire fault plan's key space.
    ordinal: u64,
    outcome: Outcome,
}

enum Outcome {
    /// Accepted: redeem for the response (or a typed service error).
    Ticket(Ticket),
    /// Shed under load: becomes the wire-level `Rejected` frame.
    Rejected,
    /// Refused by the service at submission time.
    Service(ServiceError),
    /// The frame itself was unusable; report the diagnosis.
    Transport(String),
}

/// One connection, start to finish: spawn the writer, pump requests into
/// the service, join the writer, account the close.
fn connection_loop(inner: &Arc<Inner>, conn_id: u64, mut stream: TcpStream) {
    let severed = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<Envelope>();
    let writer = stream.try_clone().ok().map(|write_half| {
        let inner = Arc::clone(inner);
        let severed = Arc::clone(&severed);
        std::thread::Builder::new()
            .name(format!("wazi-net-write-{conn_id}"))
            .spawn(move || writer_loop(&inner, write_half, &rx, &severed))
            .expect("spawn connection writer thread")
    });
    if writer.is_none() {
        // Could not clone the socket: nothing was submitted yet, so there
        // is nothing to drain — sever immediately.
        severed.store(true, Ordering::Relaxed);
    } else {
        reader_loop(inner, &mut stream, &tx, &severed);
    }
    // Close the reader's half and hand the channel to the writer's drain.
    drop(tx);
    if let Some(writer) = writer {
        let _ = writer.join();
    }
    let _ = stream.shutdown(Shutdown::Both);
    lock(&inner.conns).remove(&conn_id);
    if severed.load(Ordering::Relaxed) {
        inner.service.note_connection_severed();
    }
    // The writer's close path redeemed every in-flight ticket (or none
    // existed): the connection drained, however it ended.
    inner.service.note_connection_drained();
}

/// Pumps frames off the socket into the service until EOF, a fault, or a
/// framing violation.
fn reader_loop(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    tx: &mpsc::Sender<Envelope>,
    severed: &AtomicBool,
) {
    loop {
        match read_raw_frame(stream, inner.config.max_frame_len) {
            // Clean EOF at a frame boundary: the client closed (or shutdown
            // half-closed the socket). Not a sever.
            Ok(None) => return,
            Ok(Some(raw)) => {
                let ordinal = inner.request_ordinal.fetch_add(1, Ordering::Relaxed);
                let fault = inner
                    .wire_faults
                    .as_ref()
                    .and_then(|plan| plan.fire(&ordinal, WireFault::on_read));
                let drop_connection = match fault {
                    Some(WireFault::StallRead(delay)) => {
                        std::thread::sleep(delay);
                        false
                    }
                    Some(WireFault::DropConnection) => true,
                    _ => false,
                };
                let outcome = match raw.body() {
                    Ok(FrameBody::Request { query, options }) => {
                        match inner.service.submit_with(query, options) {
                            Ok(Submit::Accepted(ticket)) => Outcome::Ticket(ticket),
                            Ok(Submit::Rejected) => Outcome::Rejected,
                            Err(err) => Outcome::Service(err),
                        }
                    }
                    Ok(_) => {
                        // A client sending server-side frame kinds is not
                        // speaking the protocol; answer and sever.
                        let _ = tx.send(Envelope {
                            request_id: raw.request_id,
                            ordinal,
                            outcome: Outcome::Transport(
                                "unexpected frame kind from a client".into(),
                            ),
                        });
                        severed.store(true, Ordering::Relaxed);
                        return;
                    }
                    // The frame was in sync (framing + checksum passed) but
                    // the payload is malformed: typed error frame, keep the
                    // connection serving.
                    Err(err) => Outcome::Transport(err.to_string()),
                };
                if drop_connection {
                    // Injected fault: sever *before* the writer can answer,
                    // so the client observes a lost connection and the
                    // writer must drain the in-flight ticket.
                    severed.store(true, Ordering::Relaxed);
                    let _ = stream.shutdown(Shutdown::Both);
                    let _ = tx.send(Envelope {
                        request_id: raw.request_id,
                        ordinal,
                        outcome,
                    });
                    return;
                }
                if tx
                    .send(Envelope {
                        request_id: raw.request_id,
                        ordinal,
                        outcome,
                    })
                    .is_err()
                {
                    // Writer already gone (severed on its side).
                    return;
                }
            }
            Err(err) => {
                // Read deadline, lost connection, or a framing violation:
                // the stream can no longer be trusted. Best-effort typed
                // error frame (the writer may already be unable to send
                // it), then sever.
                severed.store(true, Ordering::Relaxed);
                let _ = tx.send(Envelope {
                    request_id: 0,
                    ordinal: u64::MAX,
                    outcome: Outcome::Transport(err.to_string()),
                });
                return;
            }
        }
    }
}

/// Redeems outcomes in arrival order and writes response frames; on any
/// exit path — clean, severed, or a panic (injected or otherwise) — drains
/// every remaining ticket before returning.
fn writer_loop(
    inner: &Arc<Inner>,
    mut stream: TcpStream,
    rx: &mpsc::Receiver<Envelope>,
    severed: &AtomicBool,
) {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pump_responses(inner, &mut stream, rx, severed)
    }));
    if caught.is_err() {
        // The writer panicked mid-drain (the KillWriter fault, or a bug):
        // isolate it, sever the connection, and fall through to the drain
        // below — the panic must not leak tickets.
        severed.store(true, Ordering::Relaxed);
        let _ = stream.shutdown(Shutdown::Both);
    }
    // No ticket left behind: the reader may still push a few envelopes
    // until it notices the severed socket; redeem and drop every one. The
    // loop ends when the reader drops its sender.
    for envelope in rx.iter() {
        if let Outcome::Ticket(ticket) = envelope.outcome {
            let _ = ticket.wait();
        }
    }
}

fn pump_responses(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    rx: &mpsc::Receiver<Envelope>,
    severed: &AtomicBool,
) {
    for envelope in rx.iter() {
        let fault = inner
            .wire_faults
            .as_ref()
            .and_then(|plan| plan.fire(&envelope.ordinal, |f| !f.on_read()));
        if fault == Some(WireFault::KillWriter) {
            panic!("injected writer kill (wire fault plan, request #{})", {
                envelope.ordinal
            });
        }
        let frame = resolve(envelope);
        let mut bytes = frame.encode();
        match fault {
            Some(WireFault::CorruptFrame) => {
                // Flip a checksum bit: the frame still parses, the checksum
                // verification must catch it, and the stream stays in sync
                // for a deterministic client-side ChecksumMismatch.
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
            }
            Some(WireFault::TruncateFrame) => {
                // A crash mid-write: half the frame, then a dead socket.
                let half = bytes.len() / 2;
                let _ = std::io::Write::write_all(stream, &bytes[..half]);
                let _ = std::io::Write::flush(stream);
                severed.store(true, Ordering::Relaxed);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            _ => {}
        }
        if std::io::Write::write_all(stream, &bytes)
            .and_then(|()| std::io::Write::flush(stream))
            .is_err()
        {
            // Write deadline or dead socket: the slow-client guard. Sever
            // this connection; the remaining tickets drain in the caller.
            severed.store(true, Ordering::Relaxed);
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// Turns one pending outcome into the frame the client receives. Blocks on
/// [`Ticket::wait`] — safe, because every ticket resolves by the service's
/// no-ticket-left-behind guarantee.
fn resolve(envelope: Envelope) -> Frame {
    let body = match envelope.outcome {
        Outcome::Ticket(ticket) => match ticket.wait() {
            Ok(response) => FrameBody::Response(Box::new(response)),
            Err(err) => FrameBody::Error(WireError::Service(err)),
        },
        Outcome::Rejected => FrameBody::Rejected,
        Outcome::Service(err) => FrameBody::Error(WireError::Service(err)),
        Outcome::Transport(message) => FrameBody::Error(WireError::Transport(message)),
    };
    Frame {
        request_id: envelope.request_id,
        body,
    }
}
