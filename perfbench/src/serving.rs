//! Seeded VBPR catalogs and the served slot shared by the serving
//! workloads.
//!
//! The paper's recommender is VBPR. A randomly initialised VBPR has the
//! scoring shape of a trained one (a static item term plus two bilinear
//! GEMM terms), so sweeps and reads measure GEMM plus selection without a
//! training run in the set-up.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taamr_recsys::{Vbpr, VbprConfig, VisualRecommender};
use taamr_serve::{HttpClient, Server, ServerConfig, Supervisor, SupervisorConfig};

/// Deep-feature dimension of the catalog items.
pub const FEATURE_DIM: usize = 16;
/// Item categories of the catalog.
pub const CATEGORIES: usize = 8;
/// Name of the served slot.
pub const SLOT: &str = "vbpr";
/// Deadline handed to the server; far above any operation of the runs.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// A served catalog: the model, each user's consumed items (sorted), and
/// each item's category.
pub struct Catalog {
    pub model: Vbpr,
    pub seen: Vec<Vec<usize>>,
    pub categories: Vec<usize>,
}

impl Catalog {
    /// A VBPR catalog of `users × items` drawn from `seed`: item features
    /// cluster around one centroid per category, and every user has
    /// consumed 3–8 items.
    pub fn generate(seed: u64, users: usize, items: usize) -> Catalog {
        let mut rng = StdRng::seed_from_u64(seed);
        let centroids: Vec<f32> = (0..CATEGORIES * FEATURE_DIM)
            .map(|_| rng.gen_range(0.0..1.0))
            .collect();
        let categories: Vec<usize> = (0..items).map(|_| rng.gen_range(0..CATEGORIES)).collect();
        let mut features = Vec::with_capacity(items * FEATURE_DIM);
        for &c in &categories {
            for d in 0..FEATURE_DIM {
                features.push(centroids[c * FEATURE_DIM + d] + rng.gen_range(-0.1..0.1));
            }
        }
        let model = Vbpr::new(
            users,
            items,
            FEATURE_DIM,
            features,
            VbprConfig::default(),
            &mut rng,
        );
        let seen = (0..users)
            .map(|_| {
                let mut s: Vec<usize> = (0..rng.gen_range(3..9))
                    .map(|_| rng.gen_range(0..items))
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        Catalog {
            model,
            seen,
            categories,
        }
    }

    /// The attacked copy of the model: every item of category `source` has
    /// its feature moved 80% of the way to the centroid of `target`, as a
    /// successful TAaMR attack does to the source category's images.
    pub fn attacked(&self, source: usize, target: usize) -> Vbpr {
        let dim = self.model.feature_dim();
        let mut centroid = vec![0.0f32; dim];
        let mut count = 0usize;
        for (item, _) in self
            .categories
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == target)
        {
            for (acc, &f) in centroid.iter_mut().zip(self.model.item_feature(item)) {
                *acc += f;
            }
            count += 1;
        }
        centroid
            .iter_mut()
            .for_each(|acc| *acc /= count.max(1) as f32);
        let mut attacked = self.model.clone();
        for (item, _) in self
            .categories
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == source)
        {
            let moved: Vec<f32> = attacked
                .item_feature(item)
                .iter()
                .zip(&centroid)
                .map(|(&f, &t)| 0.2 * f + 0.8 * t)
                .collect();
            attacked.set_item_feature(item, &moved);
        }
        attacked
    }
}

/// A supervisor serving one VBPR slot behind a one-worker HTTP server,
/// plus the single kept-alive client connection the workload reads
/// through.
pub struct Served {
    pub supervisor: Arc<Supervisor<Vbpr>>,
    pub server: Server,
    pub client: HttpClient,
}

impl Served {
    /// Snapshots `model` under `dir`, spawns its actor and starts the
    /// server. One worker serves the one client connection.
    pub fn start(dir: &Path, model: Vbpr, seen: Vec<Vec<usize>>) -> Result<Served, String> {
        let _ = std::fs::remove_dir_all(dir);
        let supervisor = Arc::new(Supervisor::new(SupervisorConfig::new(dir)));
        supervisor
            .add_slot(SLOT, model, seen)
            .map_err(|e| format!("add_slot: {e}"))?;
        let config = ServerConfig {
            workers: 1,
            deadline: DEADLINE,
            max_requests_per_connection: usize::MAX,
            ..ServerConfig::default()
        };
        let server = Server::start(config, Arc::clone(&supervisor))
            .map_err(|e| format!("server start: {e}"))?;
        let client = HttpClient::new(server.addr());
        Ok(Served {
            supervisor,
            server,
            client,
        })
    }

    /// One GET over the kept-alive connection; a non-200 status is an
    /// error carrying the body.
    pub fn get(&mut self, target: &str) -> Result<String, String> {
        match self.client.get(target) {
            Ok((200, body)) => Ok(body),
            Ok((status, body)) => Err(format!("GET {target}: {status} {body}")),
            Err(e) => Err(format!("GET {target}: {e}")),
        }
    }

    /// Stops the server and every actor, joining their threads.
    pub fn stop(self) {
        self.server.shutdown();
        self.supervisor.shutdown();
    }
}
