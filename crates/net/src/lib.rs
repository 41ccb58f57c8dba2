//! # wazi-net
//!
//! A hardened TCP front end for [`wazi_service::Service`] — std-only (no
//! async runtime), built from the same threads-and-channels parts as the
//! service itself.
//!
//! **The wire changes transport, never answers.** A query routed through
//! this crate resolves to the same [`wazi_service::QueryResponse`] —
//! bit-identical output and execution stats — as an in-process
//! [`wazi_service::Service::submit`] of the same plan. The facade
//! test-suite asserts this across every overview index.
//!
//! Three layers:
//!
//! * [`wire`] — the frame codec: length-prefixed, checksummed binary
//!   frames for requests, responses, typed errors, and the load-shed
//!   `Rejected` outcome. Decoding is hardened: typed errors, never a
//!   panic, never an allocation driven by an unvalidated length.
//! * [`Server`] — acceptor + per-connection reader/writer threads feeding
//!   [`wazi_service::Service::submit_with`], with read/write deadlines,
//!   malformed-input containment, slow-client severing, graceful drain on
//!   shutdown, and connection accounting in
//!   [`wazi_service::ServiceStats`].
//! * [`Client`] — a blocking resilient client: connect/request timeouts,
//!   jittered exponential-backoff retry of transient failures, request
//!   ids to drop duplicate responses.
//!
//! A [`WireFaultPlan`] — a deterministic schedule of wire faults
//! (corruption, truncation, stalls, dropped connections, writer kills),
//! installed with [`ServerBuilder::wire_faults`] — drives the server's
//! failpoints for the chaos tests; without one, each failpoint is a single
//! `Option` check.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use wazi_core::{Query, QueryOutput, SpatialIndex, ZIndex};
//! use wazi_geom::{Point, Rect};
//! use wazi_net::{Client, ClientConfig, Server};
//! use wazi_service::Service;
//!
//! let points: Vec<Point> = (0..1_000)
//!     .map(|i| Point::new((i % 40) as f64 / 40.0, (i / 40) as f64 / 25.0))
//!     .collect();
//! let index: Arc<dyn SpatialIndex> = Arc::new(ZIndex::build_base(points));
//! let service = Service::builder(index).start();
//!
//! // Port 0: let the OS pick, then ask the server where it landed.
//! let server = Server::bind(service, "127.0.0.1:0").unwrap();
//! let client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();
//!
//! let response = client
//!     .request(Query::range_count(Rect::from_coords(0.1, 0.1, 0.6, 0.6)))
//!     .unwrap();
//! assert!(matches!(response.report.output, QueryOutput::Count(_)));
//!
//! let knn = client.request(Query::knn(Point::new(0.5, 0.5), 3)).unwrap();
//! assert!(matches!(knn.report.output, QueryOutput::Neighbors(ref n) if n.len() == 3));
//!
//! let stats = server.shutdown(); // drain: flush in-flight, then stop
//! assert_eq!(stats.completed, 2);
//! assert_eq!(stats.connections_opened, stats.connections_drained);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod error;
pub mod faults;
mod server;
pub mod wire;

pub use client::{Client, ClientConfig};
pub use error::{NetError, TransportError};
pub use faults::{WireFault, WireFaultPlan};
pub use server::{Server, ServerBuilder, ServerConfig};
pub use wire::{Frame, FrameBody, RawFrame, WireError, DEFAULT_MAX_FRAME_LEN};
