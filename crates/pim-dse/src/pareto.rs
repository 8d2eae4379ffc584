//! Pareto-frontier extraction over the four sweep objectives.
//!
//! A design point *dominates* another when it is no worse on every
//! objective — latency, energy, area, EDP, all minimized — and strictly
//! better on at least one. The frontier is the set of non-dominated
//! points; pruning keeps every non-dominated point (pinned by a proptest
//! in `tests/integration_dse.rs`).

use crate::evaluate::AnalyticCost;
use pim_arch::ArchConfig;

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The validated configuration.
    pub config: ArchConfig,
    /// [`ArchConfig::label`] of the configuration.
    pub label: String,
    /// Analytic objectives.
    pub cost: AnalyticCost,
}

impl DesignPoint {
    /// A point priced by the analytic roll-up.
    pub fn analytic(config: ArchConfig, cost: AnalyticCost) -> Self {
        let label = config.label();
        Self {
            config,
            label,
            cost,
        }
    }

    /// Energy-delay product (pJ·ns).
    pub fn edp(&self) -> f64 {
        self.cost.edp()
    }

    /// The four minimized objectives: latency, energy, area, EDP.
    pub fn objectives(&self) -> [f64; 4] {
        [
            self.cost.latency_ns,
            self.cost.energy_pj,
            self.cost.area_mm2,
            self.edp(),
        ]
    }
}

/// `true` when `a` is no worse than `b` on every objective and strictly
/// better on at least one (all objectives minimized).
pub fn dominates(a: &DesignPoint, b: &DesignPoint) -> bool {
    let (oa, ob) = (a.objectives(), b.objectives());
    let mut strictly_better = false;
    for (x, y) in oa.iter().zip(ob.iter()) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Extracts the Pareto frontier: every point of `points` not dominated by
/// another, in the input order, sorted by ascending EDP. Duplicate
/// objective vectors all survive (none dominates its equal).
pub fn pareto_frontier(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut frontier: Vec<DesignPoint> = points
        .iter()
        .filter(|candidate| !points.iter().any(|other| dominates(other, candidate)))
        .cloned()
        .collect();
    frontier.sort_by(|a, b| a.edp().total_cmp(&b.edp()));
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(lat: f64, energy: f64, area: f64) -> DesignPoint {
        DesignPoint::analytic(
            ArchConfig::dac24(),
            AnalyticCost {
                latency_ns: lat,
                energy_pj: energy,
                area_mm2: area,
            },
        )
    }

    #[test]
    fn dominance_requires_strict_improvement_somewhere() {
        let a = point(1.0, 1.0, 1.0);
        let b = point(2.0, 1.0, 1.0);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(!dominates(&a, &a), "a point never dominates its equal");
    }

    #[test]
    fn frontier_drops_only_dominated_points() {
        // c trades latency for energy against a — both survive; b is
        // dominated by a on every axis.
        let a = point(1.0, 2.0, 1.0);
        let b = point(2.0, 3.0, 2.0);
        let c = point(3.0, 1.0, 1.0);
        let frontier = pareto_frontier(&[a.clone(), b, c.clone()]);
        assert_eq!(frontier.len(), 2);
        assert!(frontier.contains(&a));
        assert!(frontier.contains(&c));
    }

    #[test]
    fn frontier_is_sorted_by_edp() {
        let frontier = pareto_frontier(&[point(3.0, 1.0, 1.0), point(1.0, 2.0, 1.0)]);
        assert!(frontier[0].edp() <= frontier[1].edp());
    }

    #[test]
    fn duplicate_points_all_survive() {
        let frontier = pareto_frontier(&[point(1.0, 1.0, 1.0), point(1.0, 1.0, 1.0)]);
        assert_eq!(frontier.len(), 2);
    }
}
