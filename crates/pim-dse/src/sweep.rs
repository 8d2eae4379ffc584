//! The sweep orchestrator.
//!
//! 1. **Enumerate** the [`SweepSpace`] grid through the
//!    [`ArchConfig`](pim_arch::ArchConfig) validation gate.
//! 2. **Evaluate** every valid point analytically (`pim-arch` roll-up) —
//!    cheap enough to cover the whole grid.
//! 3. **Prune** to the Pareto frontier over {latency, energy, area, EDP}.
//!
//! Progress is published to a [`TelemetryRegistry`]:
//! `pim_dse_points_total` / `pim_dse_points_invalid` /
//! `pim_dse_points_evaluated` counters, plus `pim_dse_sweep_progress`
//! (0..1) and `pim_dse_frontier_size` gauges.

use crate::evaluate::{evaluate, EvalError, Workload};
use crate::pareto::{pareto_frontier, DesignPoint};
use crate::space::SweepSpace;
use crate::tuned::{FrontierEntry, TunedDoc};
use pim_telemetry::TelemetryRegistry;
use std::fmt;

/// Everything a finished sweep produced.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The renderable `TUNED.json` document (best point + frontier).
    pub doc: TunedDoc,
    /// The full frontier as design points (with configs), ascending EDP.
    pub frontier: Vec<DesignPoint>,
    /// Valid points evaluated.
    pub evaluated: usize,
    /// Grid points rejected by validation.
    pub invalid: usize,
}

/// Why a sweep produced nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// Every grid point failed validation (or the grid was empty).
    EmptySpace,
    /// A valid point failed analytic evaluation.
    Eval(EvalError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptySpace => write!(f, "sweep space contains no valid design point"),
            Self::Eval(e) => write!(f, "analytic evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Runs the sweep of `space` on `workload`.
///
/// # Errors
///
/// [`SweepError::EmptySpace`] when no grid point validates;
/// [`SweepError::Eval`] when a point that passed validation fails to map.
pub fn run_sweep(
    space: &SweepSpace,
    workload: &Workload,
    registry: &TelemetryRegistry,
) -> Result<SweepOutcome, SweepError> {
    let (configs, invalid) = space.enumerate();
    registry
        .counter("pim_dse_points_total", "Design points enumerated")
        .add(space.grid_size() as f64);
    registry
        .counter(
            "pim_dse_points_invalid",
            "Design points rejected by validation",
        )
        .add(invalid as f64);
    if configs.is_empty() {
        return Err(SweepError::EmptySpace);
    }

    // Analytic evaluation of every valid point.
    let evaluated_counter = registry.counter(
        "pim_dse_points_evaluated",
        "Design points evaluated analytically",
    );
    let progress = registry.gauge(
        "pim_dse_sweep_progress",
        "Fraction of valid points evaluated",
    );
    let total = configs.len();
    let mut points = Vec::with_capacity(total);
    for (i, cfg) in configs.into_iter().enumerate() {
        let cost = evaluate(&cfg, workload).map_err(SweepError::Eval)?;
        points.push(DesignPoint::analytic(cfg, cost));
        evaluated_counter.inc();
        progress.set((i + 1) as f64 / total as f64);
    }

    // Prune to the frontier (ascending EDP).
    let frontier = pareto_frontier(&points);
    registry
        .gauge("pim_dse_frontier_size", "Pareto frontier size")
        .set(frontier.len() as f64);

    // The frontier is EDP-sorted, so its head is the best-EDP point.
    let best = frontier[0].clone();
    let doc = TunedDoc {
        workload: workload.name.clone(),
        points_swept: space.grid_size(),
        points_invalid: invalid,
        best,
        frontier: frontier.iter().map(FrontierEntry::from).collect(),
    };
    Ok(SweepOutcome {
        doc,
        frontier,
        evaluated: total,
        invalid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_sweep_selects_dac24() {
        let registry = TelemetryRegistry::new();
        let workload = Workload::resnet50_repnet();
        let outcome = run_sweep(&SweepSpace::dac24_only(), &workload, &registry).unwrap();
        assert_eq!(outcome.evaluated, 1);
        assert_eq!(outcome.invalid, 0);
        assert_eq!(outcome.frontier.len(), 1);
        assert_eq!(outcome.doc.best.config, pim_arch::ArchConfig::dac24());
        assert_eq!(
            outcome.doc.best.cost,
            evaluate(&pim_arch::ArchConfig::dac24(), &workload).unwrap()
        );
        assert_eq!(
            registry
                .counter(
                    "pim_dse_points_evaluated",
                    "Design points evaluated analytically"
                )
                .value(),
            1.0
        );
    }

    #[test]
    fn empty_space_is_an_error() {
        let mut space = SweepSpace::dac24_only();
        space.patterns.clear();
        let registry = TelemetryRegistry::new();
        assert_eq!(
            run_sweep(&space, &Workload::resnet50_repnet(), &registry).unwrap_err(),
            SweepError::EmptySpace
        );
    }
}
