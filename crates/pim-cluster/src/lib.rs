//! Sharded, replicated multi-macro serving on simulated MRAM–SRAM PIM.
//!
//! One [`pim_runtime::Runtime`] serves one model on one simulated macro's
//! worth of PEs. This crate scales that out along both hardware axes the
//! paper's MARS-style deployments use:
//!
//! - **Sharding** (macro-group axis): each registered artifact's column
//!   tiles are dealt round-robin across `macro_groups` simulated macro
//!   groups ([`CompiledModel::shard`]). Column tiles partition the output
//!   space, so a group deal is a partition of the tile ledger, not a
//!   second execution path: the artifact serves the single-macro answer
//!   and run ledger bit for bit.
//! - **Replication** (throughput axis): `replicas` independent runtimes
//!   each serve a full copy of every artifact behind a queue-depth-aware
//!   router — exact join-shortest-queue on small fleets,
//!   power-of-two-choices probes with a JSQ fallback on large ones —
//!   with each replica's bounded queue as the admission-control valve.
//!
//! On top of the data path the cluster adds **coordinated rollouts**
//! ([`Cluster::swap_model`]): a replacement artifact is canaried on one
//! replica, its live answer verified bit-for-bit against the artifact's
//! own offline reference, and only then RCU-swapped across the fleet —
//! a diverging canary is rolled back and the fleet never sees it.
//!
//! Observability rolls up the same way the fleet fans out:
//! [`ClusterStats`] merges per-replica [`pim_runtime::RuntimeStats`]
//! exactly (pooled-sample percentiles, not percentile-of-percentiles),
//! and with a shared [`pim_runtime::Telemetry`] bundle every runtime
//! family is labelled `replica="<i>"` next to the cluster's own
//! `pim_cluster_*` families.
//!
//! ```no_run
//! use pim_cluster::ClusterBuilder;
//! use pim_nn::models::{Backbone, BackboneConfig, RepNet, RepNetConfig};
//! use pim_nn::tensor::Tensor;
//! use pim_runtime::CompiledModel;
//!
//! let model = RepNet::new(
//!     Backbone::new(BackboneConfig::tiny()),
//!     RepNetConfig { rep_channels: 4, num_classes: 10, seed: 42 },
//! );
//! let artifact = CompiledModel::compile("repnet", &model).unwrap();
//! let mut builder = ClusterBuilder::new().replicas(3).macro_groups(2);
//! let id = builder.register(artifact);
//! let cluster = builder.start();
//! let input = Tensor::zeros(&[1, 1, 8, 8]);
//! let response = cluster.infer(id, &input).unwrap();
//! println!("class {} from replica fleet", response.prediction);
//! let stats = cluster.shutdown();
//! println!("{stats}");
//! ```

mod cluster;
mod error;
mod router;
mod stats;
mod telemetry;

pub use cluster::{Cluster, ClusterBuilder, ClusterTicket, RolloutReport};
pub use error::ClusterError;
pub use stats::ClusterStats;

// Re-exported so cluster users need only this crate for the common path.
pub use pim_runtime::{BatchPolicy, CompiledModel, InferResponse, ModelId, RuntimeStats};
