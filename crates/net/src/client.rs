//! The resilient client: a blocking, retrying front end over one TCP
//! connection.
//!
//! One [`Client`] drives one connection and one request at a time (spawn a
//! client per thread for parallel load — they are cheap). What it layers on
//! top of the raw socket:
//!
//! * **Connect and request timeouts.** Dialing uses
//!   [`ClientConfig::connect_timeout`]; every attempt of every request runs
//!   under [`ClientConfig::request_timeout`], enforced through the socket's
//!   read/write deadlines plus a per-attempt wall clock.
//! * **Retry with exponential backoff and jitter.** Transient failures —
//!   lost connections, timeouts, checksum mismatches, and (optionally) the
//!   service's load-shed [`Rejected`] — are retried on a fresh connection,
//!   up to [`ClientConfig::max_retries`] times, sleeping
//!   `min(base · 2^attempt, max)` scaled by a deterministic jitter factor
//!   in `[0.5, 1.0)`. Typed [`ServiceError`]s and protocol violations are
//!   *never* retried: they would recur byte-for-byte.
//! * **Request ids to detect duplicates.** Every request carries a fresh
//!   id; a response frame whose id does not match the request in flight
//!   (a stale answer surviving on a reused stream) is counted and dropped
//!   instead of being returned for the wrong query.
//!
//! [`Rejected`]: wazi_service::Submit::Rejected

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use wazi_core::engine::Query;
use wazi_core::faults::splitmix64;
use wazi_service::{QueryResponse, SubmitOptions};

use crate::error::{NetError, TransportError};
use crate::wire::{
    read_raw_frame, write_frame, Frame, FrameBody, WireError, DEFAULT_MAX_FRAME_LEN,
};

/// Tuning knobs of a [`Client`]. Construct with struct-update syntax over
/// [`ClientConfig::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline for establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Wall-clock deadline for one attempt of one request (also installed
    /// as the socket's read/write timeout).
    pub request_timeout: Duration,
    /// Retries after the first attempt (so `max_retries + 1` attempts
    /// total). Zero disables retrying.
    pub max_retries: u32,
    /// First backoff delay; doubles each retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Whether the service's load-shed `Rejected` outcome is retried (with
    /// backoff) or surfaced immediately as [`NetError::Rejected`].
    pub retry_rejected: bool,
    /// Payload-size cap applied to incoming response frames.
    pub max_frame_len: u32,
    /// Seed of the deterministic backoff jitter stream.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(10),
            max_retries: 4,
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_secs(1),
            retry_rejected: true,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            jitter_seed: 0x5EED_C0DE,
        }
    }
}

/// Connection state under the client's mutex: at most one request is on the
/// wire at a time.
struct ClientState {
    stream: Option<TcpStream>,
    /// Distinguishes first-dial failures from reconnects in the counters.
    ever_connected: bool,
}

/// A resilient synchronous client for a `wazi-net` server — see the module
/// docs for the retry and duplicate-detection model.
pub struct Client {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    state: Mutex<ClientState>,
    next_id: AtomicU64,
    jitter: Mutex<u64>,
    retries: AtomicU64,
    reconnects: AtomicU64,
    duplicates: AtomicU64,
    rejections: AtomicU64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("addrs", &self.addrs)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to a server, dialing through the same retry/backoff loop
    /// requests use — so a client may start slightly before its server.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Client, NetError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|err| NetError::Transport(TransportError::from(err)))?
            .collect();
        if addrs.is_empty() {
            return Err(NetError::Transport(TransportError::Protocol(
                "address resolved to nothing".into(),
            )));
        }
        let client = Client {
            addrs,
            config,
            state: Mutex::new(ClientState {
                stream: None,
                ever_connected: false,
            }),
            next_id: AtomicU64::new(1),
            jitter: Mutex::new(config.jitter_seed),
            retries: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
        };
        // Eager dial so `connect` fails fast on a dead address, retried so
        // it tolerates a server that is still binding.
        client.with_retries(|client| {
            let mut state = lock(&client.state);
            client.ensure_connected(&mut state).map(|_| ())
        })?;
        Ok(client)
    }

    /// Submits one query with default [`SubmitOptions`], retrying transient
    /// failures per the config. Blocks until a response, a permanent error,
    /// or retry exhaustion.
    pub fn request(&self, query: Query) -> Result<QueryResponse, NetError> {
        self.request_with(query, SubmitOptions::new())
    }

    /// Submits one query with explicit [`SubmitOptions`] (deadline et al.,
    /// relayed to the server losslessly).
    pub fn request_with(
        &self,
        query: Query,
        options: SubmitOptions,
    ) -> Result<QueryResponse, NetError> {
        self.with_retries(|client| client.attempt(query.clone(), options))
    }

    /// Total transient-failure retries performed.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Times a lost connection was re-established.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Response frames dropped because their request id did not match the
    /// request in flight.
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed)
    }

    /// Load-shed (`Rejected`) responses observed, whether or not retried.
    pub fn rejections_seen(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }

    /// The configuration this client runs with.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Runs `op` up to `1 + max_retries` times, sleeping with jittered
    /// exponential backoff between attempts, retrying only transient
    /// outcomes.
    fn with_retries<T>(
        &self,
        mut op: impl FnMut(&Client) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut attempt = 0u32;
        loop {
            let err = match op(self) {
                Ok(value) => return Ok(value),
                Err(err) => err,
            };
            let transient = match &err {
                NetError::Rejected => {
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    self.config.retry_rejected
                }
                NetError::Transport(err) => err.is_transient(),
                // A typed service error is the answer, not a wire failure.
                NetError::Service(_) => false,
            };
            if !transient || attempt >= self.config.max_retries {
                return Err(err);
            }
            attempt += 1;
            self.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.backoff_delay(attempt));
        }
    }

    /// The jittered exponential backoff delay before retry `attempt`
    /// (1-based): `min(base · 2^(attempt-1), max)` scaled into `[0.5, 1.0)`
    /// deterministically from the jitter seed.
    fn backoff_delay(&self, attempt: u32) -> Duration {
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(20))
            .min(self.config.backoff_max);
        let mut jitter = lock(&self.jitter);
        let draw = splitmix64(&mut jitter);
        drop(jitter);
        // Map the top 53 bits into [0.5, 1.0): full-jitter's worst herd
        // behaviour without ever zeroing the delay.
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + unit / 2.0)
    }

    /// One attempt: ensure a connection, write the request frame, then read
    /// frames until the matching response (or a failure) under the attempt
    /// deadline. Any wire failure severs the cached connection so the next
    /// attempt redials.
    fn attempt(&self, query: Query, options: SubmitOptions) -> Result<QueryResponse, NetError> {
        let mut state = lock(&self.state);
        let stream = self.ensure_connected(&mut state)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let frame = Frame::request(id, query, options);
        if let Err(err) = write_frame(stream, &frame) {
            state.stream = None;
            return Err(NetError::Transport(err));
        }
        let deadline = Instant::now() + self.config.request_timeout;
        loop {
            if Instant::now() >= deadline {
                state.stream = None;
                return Err(NetError::Transport(TransportError::Timeout));
            }
            let stream = state.stream.as_mut().expect("stream present after write");
            let raw = match read_raw_frame(stream, self.config.max_frame_len) {
                Ok(Some(raw)) => raw,
                Ok(None) => {
                    state.stream = None;
                    return Err(NetError::Transport(TransportError::ConnectionLost));
                }
                Err(err) => {
                    state.stream = None;
                    return Err(NetError::Transport(err));
                }
            };
            if raw.request_id != id {
                // A stale answer to an abandoned request: count and drop
                // rather than return it for the wrong query.
                self.duplicates.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            return match raw.body() {
                Ok(FrameBody::Response(response)) => Ok(*response),
                Ok(FrameBody::Rejected) => Err(NetError::Rejected),
                Ok(FrameBody::Error(WireError::Service(err))) => Err(NetError::Service(err)),
                Ok(FrameBody::Error(WireError::Transport(message))) => {
                    // The server could not use what we sent; the stream
                    // may be out of sync on its side — redial.
                    state.stream = None;
                    Err(NetError::Transport(TransportError::PeerReported(message)))
                }
                Ok(_) => {
                    state.stream = None;
                    Err(NetError::Transport(TransportError::Protocol(
                        "unexpected frame kind from the server".into(),
                    )))
                }
                Err(err) => {
                    state.stream = None;
                    Err(NetError::Transport(err))
                }
            };
        }
    }

    /// Returns the cached connection, dialing if there is none.
    fn ensure_connected<'a>(
        &self,
        state: &'a mut ClientState,
    ) -> Result<&'a mut TcpStream, NetError> {
        if state.stream.is_none() {
            let stream = self.dial()?;
            if state.ever_connected {
                self.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            state.ever_connected = true;
            state.stream = Some(stream);
        }
        Ok(state.stream.as_mut().expect("stream just ensured"))
    }

    fn dial(&self) -> Result<TcpStream, NetError> {
        let mut last: Option<TransportError> = None;
        for addr in &self.addrs {
            match TcpStream::connect_timeout(addr, self.config.connect_timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(self.config.request_timeout));
                    let _ = stream.set_write_timeout(Some(self.config.request_timeout));
                    return Ok(stream);
                }
                Err(err) => last = Some(TransportError::from(err)),
            }
        }
        Err(NetError::Transport(
            last.unwrap_or(TransportError::ConnectionLost),
        ))
    }
}

/// Poison-resistant lock helper (mirrors the service crate's discipline).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps_with_jitter_bounds() {
        let client = Client {
            addrs: vec!["127.0.0.1:1".parse().unwrap()],
            config: ClientConfig::default(),
            state: Mutex::new(ClientState {
                stream: None,
                ever_connected: false,
            }),
            next_id: AtomicU64::new(1),
            jitter: Mutex::new(7),
            retries: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
        };
        let base = client.config.backoff_base;
        let max = client.config.backoff_max;
        for attempt in 1..=10u32 {
            let delay = client.backoff_delay(attempt);
            let ceiling = base.saturating_mul(1 << (attempt - 1).min(20)).min(max);
            assert!(
                delay <= ceiling,
                "delay {delay:?} above ceiling {ceiling:?}"
            );
            assert!(
                delay >= ceiling.mul_f64(0.5),
                "delay {delay:?} below half the ceiling {ceiling:?}"
            );
        }
        // Deep attempts stay pinned at the cap band.
        let deep = client.backoff_delay(30);
        assert!(deep <= max && deep >= max.mul_f64(0.5));
    }

    #[test]
    fn request_to_silent_server_times_out_transiently() {
        // A listener that accepts and then says nothing: the request must
        // resolve to a transient transport error (timeout or lost
        // connection), never hang.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let mut held = Vec::new();
            // Hold every accepted socket open until the test ends.
            for _ in 0..2 {
                if let Ok((stream, _)) = listener.accept() {
                    held.push(stream);
                } else {
                    break;
                }
            }
            held
        });
        let config = ClientConfig {
            connect_timeout: Duration::from_millis(200),
            request_timeout: Duration::from_millis(100),
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let client = Client::connect(addr, config).unwrap();
        let err = client
            .request(Query::knn(wazi_geom::Point::new(0.5, 0.5), 1))
            .unwrap_err();
        assert!(
            matches!(&err, NetError::Transport(t) if t.is_transient()),
            "got {err:?}"
        );
        assert_eq!(client.retries(), 1);
        drop(client);
        let _ = sink.join();
    }
}
