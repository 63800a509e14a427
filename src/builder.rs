//! [`SessionBuilder`] — construct a [`CleaningSession`] over either
//! error model, with an optional custom solver registry.
//!
//! ```
//! use fact_clean::prelude::*;
//!
//! let instance = Instance::new(
//!     vec![
//!         DiscreteDist::uniform_over(&[9.0, 10.0, 11.0]).unwrap(),
//!         DiscreteDist::uniform_over(&[19.0, 20.0, 21.0]).unwrap(),
//!     ],
//!     vec![10.0, 20.0],
//!     vec![1, 1],
//! )
//! .unwrap();
//! let claims = ClaimSet::new(
//!     LinearClaim::window_sum(0, 2).unwrap(),
//!     vec![LinearClaim::window_sum(0, 2).unwrap()],
//!     vec![1.0],
//!     Direction::HigherIsStronger,
//! )
//! .unwrap();
//! let session = SessionBuilder::new()
//!     .discrete(instance)
//!     .claims(claims)
//!     .build()
//!     .unwrap();
//! assert_eq!(session.original_value(), 30.0);
//! ```

use std::sync::Arc;

use fc_claims::ClaimSet;
use fc_core::{
    CacheStore, CoreError, GaussianInstance, Instance, Parallelism, Result, SolverRegistry,
};

use crate::session::{CleaningSession, DataModel};

/// Default support size when a Gaussian instance must be discretized
/// for non-affine measures (the paper's §4.2 choice).
pub const DEFAULT_DISCRETIZE_SUPPORT: usize = 6;

/// Builder for [`CleaningSession`].
pub struct SessionBuilder {
    data: Option<DataModel>,
    claims: Option<ClaimSet>,
    theta: Option<f64>,
    registry: Option<Arc<SolverRegistry>>,
    discretize_support: usize,
    parallelism: Parallelism,
    cache_store: Option<Arc<CacheStore>>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        // Hand-written so `default()` and `new()` agree on
        // `discretize_support` (a derived Default would produce 0 and
        // break Gaussian dup/frag objectives).
        Self {
            data: None,
            claims: None,
            theta: None,
            registry: None,
            discretize_support: DEFAULT_DISCRETIZE_SUPPORT,
            parallelism: Parallelism::Auto,
            cache_store: None,
        }
    }
}

impl SessionBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the uncertain data (either error model).
    pub fn data(mut self, data: impl Into<DataModel>) -> Self {
        self.data = Some(data.into());
        self
    }

    /// Sets a discrete instance as the data.
    pub fn discrete(self, instance: Instance) -> Self {
        self.data(instance)
    }

    /// Sets a Gaussian instance as the data.
    pub fn gaussian(self, instance: GaussianInstance) -> Self {
        self.data(instance)
    }

    /// Sets the claim family under scrutiny.
    pub fn claims(mut self, claims: ClaimSet) -> Self {
        self.claims = Some(claims);
        self
    }

    /// Overrides the reference value `θ` (default: the original claim's
    /// value on the current data).
    pub fn theta(mut self, theta: f64) -> Self {
        self.theta = Some(theta);
        self
    }

    /// Installs a custom solver registry (default:
    /// [`SolverRegistry::with_defaults`]). Share one `Arc` across
    /// sessions to amortize registry setup and to plug in custom
    /// engines fleet-wide.
    pub fn registry(mut self, registry: Arc<SolverRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Support size used when a Gaussian instance is discretized for
    /// the non-affine measures (`dup`/`frag`).
    pub fn discretize_support(mut self, k: usize) -> Self {
        self.discretize_support = k.max(2);
        self
    }

    /// How `recommend_many`/`recommend_sweep` shard work across
    /// threads (default [`Parallelism::Auto`]). Plans are byte-identical
    /// across modes; pick [`Parallelism::Sequential`] for
    /// single-request latency or tiny instances,
    /// [`Parallelism::Fixed`] to pin a core budget.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Installs a persistent engine store: scoped-EV tables are keyed
    /// on (instance fingerprint, measure identity) so repeated sessions
    /// over the same dataset skip the prefix rebuild. Share one `Arc`
    /// across sessions and request threads. See
    /// [`fc_core::planner::cache`] for the fingerprint caveats.
    pub fn cache_store(mut self, store: Arc<CacheStore>) -> Self {
        self.cache_store = Some(store);
        self
    }

    /// Finalizes the session.
    pub fn build(self) -> Result<CleaningSession> {
        let data = self.data.ok_or(CoreError::BuilderIncomplete {
            what: "data (discrete or Gaussian instance)",
        })?;
        let claims = self.claims.ok_or(CoreError::BuilderIncomplete {
            what: "claims (the ClaimSet under scrutiny)",
        })?;
        let theta = self
            .theta
            .unwrap_or_else(|| claims.original_value(data.current()));
        Ok(CleaningSession::from_parts(
            data,
            claims,
            theta,
            self.registry
                .unwrap_or_else(|| Arc::new(SolverRegistry::with_defaults())),
            self.discretize_support,
            self.parallelism,
            self.cache_store,
        ))
    }
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("has_data", &self.data.is_some())
            .field("has_claims", &self.claims.is_some())
            .field("theta", &self.theta)
            .field("custom_registry", &self.registry.is_some())
            .field("discretize_support", &self.discretize_support)
            .field("parallelism", &self.parallelism)
            .field("cache_store", &self.cache_store.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_components_are_typed_errors() {
        let err = SessionBuilder::new().build().unwrap_err();
        assert!(matches!(err, CoreError::BuilderIncomplete { what } if what.contains("data")));
    }

    #[test]
    fn default_agrees_with_new_on_discretization() {
        // A derived Default would zero discretize_support and break
        // every Gaussian dup/frag objective built from `default()`.
        use crate::planner::{Measure, ObjectiveSpec};
        let g = GaussianInstance::centered_independent(
            vec![10.0, 20.0, 30.0],
            &[1.0, 2.0, 3.0],
            vec![1; 3],
        )
        .unwrap();
        let claims = fc_claims::ClaimSet::new(
            fc_claims::LinearClaim::window_sum(0, 2).unwrap(),
            vec![fc_claims::LinearClaim::window_sum(1, 2).unwrap()],
            vec![1.0],
            fc_claims::Direction::HigherIsStronger,
        )
        .unwrap();
        let session = SessionBuilder::default()
            .gaussian(g)
            .claims(claims)
            .build()
            .unwrap();
        let plan = session
            .recommend(
                ObjectiveSpec::ascertain(Measure::Dup),
                fc_core::Budget::absolute(1),
            )
            .unwrap();
        assert!(plan.selection.cost() <= 1);
    }
}
