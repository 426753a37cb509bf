//! Model specifications: which terms the design matrix expands to.

use crate::ParameterSpace;

/// The term structure a design is optimized for (and that a linear model
/// fits): intercept + main effects, optionally all two-factor interactions.
///
/// The paper's linear models "incorporate individual effects between
/// parameters and two-factor interactions between them" (§5); higher-order
/// interactions are excluded because of training-data cost.
///
/// # Examples
///
/// ```
/// use emod_doe::{ModelSpec, Parameter, ParameterSpace};
///
/// let space = ParameterSpace::new(vec![Parameter::flag("a"), Parameter::flag("b")]);
/// let spec = ModelSpec::two_factor();
/// // 1 (intercept) + 2 mains + 1 interaction
/// assert_eq!(spec.term_count(&space), 4);
/// let row = spec.expand(&[1.0, -1.0]);
/// assert_eq!(row, vec![1.0, 1.0, -1.0, -1.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    interactions: bool,
}

impl ModelSpec {
    /// Intercept + main effects only.
    pub fn main_effects() -> Self {
        ModelSpec {
            interactions: false,
        }
    }

    /// Intercept + main effects + all two-factor interactions.
    pub fn two_factor() -> Self {
        ModelSpec { interactions: true }
    }

    /// Number of model terms for a `k`-parameter space.
    pub fn term_count(&self, space: &ParameterSpace) -> usize {
        let k = space.len();
        if self.interactions {
            1 + k + k * (k - 1) / 2
        } else {
            1 + k
        }
    }

    /// Expands a *coded* point into a model-matrix row:
    /// `[1, x1..xk, (x1*x2, x1*x3, … x_{k-1}*x_k)]`.
    pub fn expand(&self, coded: &[f64]) -> Vec<f64> {
        let k = coded.len();
        let mut row = Vec::with_capacity(if self.interactions {
            1 + k + k * (k - 1) / 2
        } else {
            1 + k
        });
        row.push(1.0);
        row.extend_from_slice(coded);
        if self.interactions {
            for i in 0..k {
                for j in i + 1..k {
                    row.push(coded[i] * coded[j]);
                }
            }
        }
        row
    }

    /// Human-readable term names aligned with [`ModelSpec::expand`] output.
    pub fn term_names(&self, space: &ParameterSpace) -> Vec<String> {
        let mut names = vec!["(intercept)".to_string()];
        for p in space.parameters() {
            names.push(p.name().to_string());
        }
        if self.interactions {
            let k = space.len();
            for i in 0..k {
                for j in i + 1..k {
                    names.push(format!(
                        "{} * {}",
                        space.parameters()[i].name(),
                        space.parameters()[j].name()
                    ));
                }
            }
        }
        names
    }
}

impl Default for ModelSpec {
    fn default() -> Self {
        ModelSpec::two_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Parameter;

    fn space() -> ParameterSpace {
        ParameterSpace::new(vec![
            Parameter::flag("a"),
            Parameter::flag("b"),
            Parameter::flag("c"),
        ])
    }

    #[test]
    fn term_counts() {
        let s = space();
        assert_eq!(ModelSpec::main_effects().term_count(&s), 4);
        assert_eq!(ModelSpec::two_factor().term_count(&s), 7);
    }

    #[test]
    fn expansion_matches_names_length() {
        let s = space();
        for spec in [ModelSpec::main_effects(), ModelSpec::two_factor()] {
            let row = spec.expand(&[1.0, -1.0, 1.0]);
            assert_eq!(row.len(), spec.term_count(&s));
            assert_eq!(spec.term_names(&s).len(), row.len());
        }
    }

    #[test]
    fn interaction_values_are_products() {
        let spec = ModelSpec::two_factor();
        let row = spec.expand(&[0.5, -1.0, 2.0]);
        // Order: 1, a, b, c, ab, ac, bc.
        assert_eq!(row, vec![1.0, 0.5, -1.0, 2.0, -0.5, 1.0, -2.0]);
    }

    #[test]
    fn names_include_interactions() {
        let names = ModelSpec::two_factor().term_names(&space());
        assert!(names.contains(&"a * b".to_string()));
        assert!(names.contains(&"b * c".to_string()));
        assert_eq!(names[0], "(intercept)");
    }
}
