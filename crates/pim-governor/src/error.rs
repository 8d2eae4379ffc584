//! Typed failures of the governor.

use crate::tenant::TenantId;
use pim_cluster::ClusterError;
use pim_runtime::RuntimeError;
use std::fmt;

/// Why a governor operation could not complete.
#[derive(Debug)]
pub enum GovernorError {
    /// The request named a tenant the governor does not serve.
    UnknownTenant {
        /// The offending handle.
        id: TenantId,
    },
    /// The tenant is currently shed: the ladder's deepest rung refuses
    /// its requests at admission. Retry after pressure clears.
    Shed {
        /// The shed tenant.
        id: TenantId,
    },
    /// The request input fails [`pim_runtime::validate_input`] against
    /// the tenant's model shape ([`RuntimeError::BadInput`] or
    /// [`RuntimeError::NonFiniteInput`]).
    BadInput(RuntimeError),
    /// A tenant's full and degraded artifacts disagree on the
    /// client-visible interface, so they cannot share a serving slot.
    IncompatiblePair {
        /// The offending tenant (registration index).
        tenant: usize,
    },
    /// The underlying cluster refused (saturated, unhealthy, swap
    /// failure, …).
    Cluster(ClusterError),
}

impl fmt::Display for GovernorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownTenant { id } => write!(f, "unknown {id}"),
            Self::Shed { id } => write!(f, "{id} is shed (admission refused under pressure)"),
            Self::BadInput(e) => write!(f, "tenant input rejected: {e}"),
            Self::IncompatiblePair { tenant } => write!(
                f,
                "tenant#{tenant}: full and degraded artifacts disagree on input shape or classes"
            ),
            Self::Cluster(e) => write!(f, "cluster: {e}"),
        }
    }
}

impl std::error::Error for GovernorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::BadInput(e) => Some(e),
            Self::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClusterError> for GovernorError {
    fn from(e: ClusterError) -> Self {
        Self::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_cause() {
        let e = GovernorError::Shed { id: TenantId(3) };
        assert!(e.to_string().contains("tenant#3"));
        let b = GovernorError::BadInput(RuntimeError::BadInput {
            expected: vec![3, 8, 8],
            actual: vec![1, 8, 8],
        });
        assert!(b.to_string().contains("[3, 8, 8]"));
        assert!(GovernorError::IncompatiblePair { tenant: 1 }
            .to_string()
            .contains("tenant#1"));
    }
}
