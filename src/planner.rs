//! Objective specifications for the planner-backed session API.
//!
//! An [`ObjectiveSpec`] is the serving-layer request shape: *which*
//! claim-quality measure to target ([`Measure`]), *what* to do with it
//! (a [`Goal`] — `MinVar` to ascertain, `MaxPr` to counter), and *how*
//! ([`Strategy`] — the paper's automatic routing, or any named strategy
//! from the [`fc_core::SolverRegistry`]). Any combination is
//! expressible: Gaussian instances, strategy overrides, MaxPr on any
//! measure with an affine form.

pub use fc_core::planner::Goal;

/// The claim-quality measure under optimization (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// Fairness — sensibility-weighted mean relative strength
    /// (affine; modular fast paths apply).
    Bias,
    /// Uniqueness — count of perturbations at least as strong.
    Dup,
    /// Robustness — sensibility-weighted squared weakenings.
    Frag,
}

impl Measure {
    /// The measure's §2.2 name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Bias => "bias",
            Self::Dup => "dup",
            Self::Frag => "frag",
        }
    }
}

/// How to pick the algorithm for a spec.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The paper's routing rules (modular fast path for affine
    /// measures, scoped Theorem 3.8 engine otherwise, convolution for
    /// discrete MaxPr, closed form for Gaussian MaxPr).
    #[default]
    Auto,
    /// A named strategy resolved through the session's
    /// [`fc_core::SolverRegistry`].
    Named(String),
}

impl Strategy {
    /// The registry key this strategy resolves through.
    pub fn key(&self) -> &str {
        match self {
            Self::Auto => "auto",
            Self::Named(name) => name,
        }
    }
}

/// A complete objective request: measure × goal × strategy.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ObjectiveSpec {
    /// The claim-quality measure to target.
    pub measure: Measure,
    /// MinVar (ascertain) or MaxPr (find a counterargument).
    pub goal: Goal,
    /// Algorithm selection (default: the paper's auto-routing).
    pub strategy: Strategy,
}

impl ObjectiveSpec {
    /// A spec with explicit measure and goal (auto strategy).
    pub fn new(measure: Measure, goal: Goal) -> Self {
        Self {
            measure,
            goal,
            strategy: Strategy::Auto,
        }
    }

    /// Ascertain `measure`: MinVar on it.
    pub fn ascertain(measure: Measure) -> Self {
        Self::new(measure, Goal::MinVar)
    }

    /// Hunt a counterargument: MaxPr on the bias measure with surprise
    /// threshold `tau`.
    pub fn find_counter(tau: f64) -> Self {
        Self::new(Measure::Bias, Goal::MaxPr { tau })
    }

    /// Overrides the strategy with a named registry entry.
    pub fn with_strategy(mut self, name: impl Into<String>) -> Self {
        self.strategy = Strategy::Named(name.into());
        self
    }

    /// Resets the strategy to auto-routing.
    pub fn with_auto_strategy(mut self) -> Self {
        self.strategy = Strategy::Auto;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_compose() {
        let spec = ObjectiveSpec::ascertain(Measure::Dup).with_strategy("best");
        assert_eq!(spec.measure, Measure::Dup);
        assert_eq!(spec.goal, Goal::MinVar);
        assert_eq!(spec.strategy.key(), "best");
        let spec = spec.with_auto_strategy();
        assert_eq!(spec.strategy.key(), "auto");

        let counter = ObjectiveSpec::find_counter(2.5);
        assert_eq!(counter.measure, Measure::Bias);
        assert!(matches!(counter.goal, Goal::MaxPr { tau } if tau == 2.5));
    }
}
