//! Supervised recommendation serving for the TAaMR reproduction.
//!
//! This crate turns the batch scoring stack into an online service with
//! explicit failure semantics, std-only (no async runtime):
//!
//! * [`Supervisor`] owns named model **slots**; each slot is an actor
//!   thread wrapping a [`ScoringEngine`](taamr_recsys::ScoringEngine)
//!   behind a version gate. A crashed actor is restarted from its newest
//!   usable [`SnapshotStore`] generation with **byte-identical** scores;
//!   [`Supervisor::swap`] replaces a slot's model with **zero downtime**
//!   (a clean version cliff, no failed requests).
//! * [`Server`] is an HTTP/1.1 front door over a bounded worker pool with
//!   keep-alive: each connection runs a request loop (idle deadline,
//!   per-connection request cap, per-request mid-stream load shedding),
//!   per-request deadlines become typed `503` timeouts, a full request
//!   queue sheds with `429`, and every outcome lands in the
//!   [`Accountant`] ledger (mirrored into `taamr-obs` telemetry, schema
//!   v8).
//! * The read path is cached and batched: a repeat is answered on the
//!   request thread from the live actor incarnation's result cache. The
//!   cache lives and dies with its incarnation: the incarnation's model
//!   never changes, a swap or restart brings a fresh cache, and a kill or
//!   any actor exit closes the old one, so a stale list is structurally
//!   unreachable. Misses go to the actor, which coalesces concurrent
//!   ones into one gathered scoring pass (bitwise-identical to serial
//!   answers) and caches the result.
//! * Failure paths are testable on demand: `taamr-fault` sites inject an
//!   actor panic mid-request, a corrupt snapshot write, or a stalled
//!   handler, deterministically, by the ordinal of the request among
//!   those the actor receives (cache hits never reach it).
//!
//! Serving in a reproduction of an *attack* paper is not an afterthought:
//! TAaMR's threat model is a deployed multimedia recommender whose item
//! images an adversary perturbs. The swap path is exactly how a retrained
//! or attacked model reaches users, and the recovery path is what keeps
//! recommendations stable while it happens.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use std::sync::Arc;
//! use std::time::Duration;
//! use rand::SeedableRng;
//! use taamr_recsys::BprMf;
//! use taamr_serve::{Server, ServerConfig, Supervisor, SupervisorConfig};
//!
//! let dir = std::env::temp_dir().join(format!("taamr-serve-doc-{}", std::process::id()));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let model = BprMf::new(12, 30, 4, &mut rng);
//!
//! let supervisor = Arc::new(Supervisor::new(SupervisorConfig::new(&dir)));
//! supervisor.add_slot("bpr", model, vec![vec![0]; 12])?;
//!
//! let server = Server::start(ServerConfig::default(), Arc::clone(&supervisor))?;
//! let (status, body) =
//!     taamr_serve::http_get(server.addr(), "/recommend/bpr/3?n=5")?;
//! assert_eq!(status, 200);
//! assert!(body.contains("\"items\""));
//! server.shutdown();
//! # let _ = std::fs::remove_dir_all(&dir);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod actor;
mod cache;
mod error;
mod http;
mod ledger;
mod queue;
mod server;
mod snapshot;
mod supervisor;

pub use actor::{SweepResponse, TopNResponse};
pub use error::ServeError;
pub use http::{http_get, HttpClient};
pub use ledger::{Accountant, LedgerSnapshot};
pub use server::{Server, ServerConfig};
pub use snapshot::{Restored, SnapshotStore, SNAPSHOT_KEEP};
pub use supervisor::{Supervisor, SupervisorConfig};

use serde::{Deserialize, Serialize};
use taamr_recsys::Recommender;

/// What a model must be to live in a serving slot: scoreable, owned by an
/// actor thread, cloneable for swaps, and serde-round-trippable for
/// snapshots. The snapshot body stores every float by its bits (packed
/// `f32` arrays, `f64` scalars), so that round trip is bit-exact for every
/// number, ±∞ included, and NaN restores as NaN — which is what the
/// byte-identical recovery guarantee rests on.
pub trait ServeModel: Recommender + Serialize + Deserialize + Clone + Send + 'static {}

impl<T: Recommender + Serialize + Deserialize + Clone + Send + 'static> ServeModel for T {}
