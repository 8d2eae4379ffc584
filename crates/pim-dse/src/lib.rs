//! # pim-dse — analytic design-space exploration
//!
//! Sweeps the hybrid accelerator's architectural knobs — N:M sparsity
//! pattern, SRAM tile shape, weight precision — over a validated
//! [`ArchConfig`](pim_arch::ArchConfig) grid and prices every point with
//! the analytic `pim-arch` mapper roll-up ([`evaluate()`]), whose tile
//! formulas are bit-exact against the `pim-pe` cycle simulators.
//!
//! [`pareto_frontier`] prunes dominated points over the four minimized
//! objectives {latency, energy, area, EDP}; [`run_sweep`] orchestrates the
//! whole pipeline with telemetry counters; [`TunedDoc`] renders the result
//! as `TUNED.json`, the best-EDP configuration plus the frontier.

pub mod evaluate;
pub mod pareto;
pub mod space;
pub mod sweep;
pub mod tuned;

pub use evaluate::{evaluate, AnalyticCost, EvalError, Workload};
pub use pareto::{dominates, pareto_frontier, DesignPoint};
pub use space::SweepSpace;
pub use sweep::{run_sweep, SweepError, SweepOutcome};
pub use tuned::{FrontierEntry, TunedDoc};
