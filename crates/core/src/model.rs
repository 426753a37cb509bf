//! A unified surrogate-model interface over the three families the paper
//! evaluates.

use emod_models::{
    Dataset, LinearModel, LinearTerms, Mars, MarsConfig, ModelError, RbfConfig, RbfNetwork,
    Regressor,
};

/// The three empirical modeling techniques of the paper's §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Linear regression with two-factor interactions (§4.1); falls back to
    /// main effects when the training set is smaller than the interaction
    /// term count.
    Linear,
    /// Multivariate adaptive regression splines (§4.2).
    Mars,
    /// Radial basis function network with regression-tree centers (§4.3) —
    /// the paper's most accurate family.
    Rbf,
}

impl ModelFamily {
    /// All families, in the paper's Table 3 column order.
    pub fn all() -> [ModelFamily; 3] {
        [ModelFamily::Linear, ModelFamily::Mars, ModelFamily::Rbf]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ModelFamily::Linear => "Linear model",
            ModelFamily::Mars => "MARS",
            ModelFamily::Rbf => "RBF-RT",
        }
    }
}

/// A fitted model of any family.
#[derive(Debug, Clone)]
pub enum SurrogateModel {
    /// Fitted linear model.
    Linear(LinearModel),
    /// Fitted MARS model.
    Mars(Mars),
    /// Fitted RBF network.
    Rbf(RbfNetwork),
}

impl SurrogateModel {
    /// Fits a model of `family` to coded training data. Every family is
    /// scale-equivariant in the response, so raw cycle counts can be fit
    /// directly.
    ///
    /// # Errors
    ///
    /// Propagates the underlying fit error.
    pub fn fit(data: &Dataset, family: ModelFamily) -> Result<Self, ModelError> {
        match family {
            ModelFamily::Linear => {
                let k = data.dim();
                let interaction_terms = 1 + k + k * (k - 1) / 2;
                let terms = if data.len() > interaction_terms {
                    LinearTerms::TwoFactor
                } else {
                    LinearTerms::MainEffects
                };
                Ok(SurrogateModel::Linear(LinearModel::fit(data, terms)?))
            }
            ModelFamily::Mars => {
                // Knot budget tuned for the 25-dimensional space: the
                // forward pass refits per candidate, so knots are capped.
                let cfg = MarsConfig {
                    max_terms: 17,
                    max_degree: 2,
                    max_knots: 5,
                    gcv_penalty: 3.0,
                };
                Ok(SurrogateModel::Mars(Mars::fit(data, cfg)?))
            }
            ModelFamily::Rbf => fit_rbf(data),
        }
    }

    /// The family of this model.
    pub fn family(&self) -> ModelFamily {
        match self {
            SurrogateModel::Linear(_) => ModelFamily::Linear,
            SurrogateModel::Mars(_) => ModelFamily::Mars,
            SurrogateModel::Rbf(_) => ModelFamily::Rbf,
        }
    }

    /// Decomposes `predict(x)` into labeled additive components (see
    /// `emod_models::explain`): per-term contributions for linear models,
    /// per-basis-function contributions for MARS, and bias/tail/unit
    /// contributions for RBF networks. The component sum reconstructs the
    /// prediction (bit-exactly for linear, to reassociation error for MARS
    /// and RBF).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the model dimension.
    pub fn explain(&self, x: &[f64]) -> Vec<emod_models::Attribution> {
        match self {
            SurrogateModel::Linear(m) => m.explain(x),
            SurrogateModel::Mars(m) => m.explain(x),
            SurrogateModel::Rbf(m) => m.explain(x),
        }
    }

    /// Serializes the model (family tag + family payload) into `w`.
    ///
    /// The encoding is bit-exact: a decoded model predicts identically to
    /// the original (see `emod_models::codec`).
    pub fn encode(&self, w: &mut emod_models::Writer) {
        match self {
            SurrogateModel::Linear(m) => {
                w.put_u8(0);
                m.encode(w);
            }
            SurrogateModel::Mars(m) => {
                w.put_u8(1);
                m.encode(w);
            }
            SurrogateModel::Rbf(m) => {
                w.put_u8(2);
                m.encode(w);
            }
        }
    }

    /// Deserializes a model written by [`SurrogateModel::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`emod_models::CodecError`] on an unknown family tag or a
    /// malformed family payload.
    pub fn decode(r: &mut emod_models::Reader<'_>) -> Result<Self, emod_models::CodecError> {
        match r.get_u8()? {
            0 => Ok(SurrogateModel::Linear(LinearModel::decode(r)?)),
            1 => Ok(SurrogateModel::Mars(Mars::decode(r)?)),
            2 => Ok(SurrogateModel::Rbf(RbfNetwork::decode(r)?)),
            t => Err(emod_models::CodecError::BadValue(format!(
                "surrogate family tag {}",
                t
            ))),
        }
    }
}

/// Fits an RBF network, selecting kernel, radius scale and polynomial tail
/// by 3-fold cross validation over the training data (the hidden-layer size
/// is BIC-selected inside each fit, paper §4.4). The paper likewise
/// "evaluated several kernel functions" before settling on one.
fn fit_rbf(data: &Dataset) -> Result<SurrogateModel, ModelError> {
    use emod_models::Kernel;
    let grid: Vec<(Kernel, f64, bool)> = {
        let mut g = Vec::new();
        for kernel in [
            Kernel::Multiquadric,
            Kernel::InverseMultiquadric,
            Kernel::Gaussian,
        ] {
            for radius_scale in [0.5, 1.0, 2.0, 4.0] {
                for linear_tail in [true, false] {
                    g.push((kernel, radius_scale, linear_tail));
                }
            }
        }
        g
    };
    let folds = 3.min(data.len());
    let mut best: Option<((Kernel, f64, bool), f64)> = None;
    for &(kernel, radius_scale, linear_tail) in &grid {
        let cfg = RbfConfig {
            kernel,
            radius_scale,
            linear_tail,
            ..RbfConfig::default()
        };
        // Deterministic interleaved folds (design order is already
        // randomized by the D-optimal selection).
        let mut total_err = 0.0;
        let mut ok = true;
        for fold in 0..folds {
            let train_idx: Vec<usize> = (0..data.len()).filter(|i| i % folds != fold).collect();
            let val_idx: Vec<usize> = (0..data.len()).filter(|i| i % folds == fold).collect();
            if train_idx.len() < 4 || val_idx.is_empty() {
                ok = false;
                break;
            }
            let train = data.subset(&train_idx);
            let val = data.subset(&val_idx);
            match RbfNetwork::fit(&train, cfg.clone()) {
                Ok(net) => {
                    let preds = net.predict_batch(val.points());
                    total_err += emod_models::metrics::mape(&preds, val.responses());
                }
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && best.as_ref().is_none_or(|(_, b)| total_err < *b) {
            best = Some(((kernel, radius_scale, linear_tail), total_err));
        }
    }
    let (kernel, radius_scale, linear_tail) = match best {
        Some((cfg, _)) => cfg,
        // Degenerate data (too small to cross-validate): paper defaults.
        None => (Kernel::Multiquadric, 2.0, false),
    };
    let net = RbfNetwork::fit(
        data,
        RbfConfig {
            kernel,
            radius_scale,
            linear_tail,
            ..RbfConfig::default()
        },
    )?;
    Ok(SurrogateModel::Rbf(net))
}

impl Regressor for SurrogateModel {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            SurrogateModel::Linear(m) => m.predict(x),
            SurrogateModel::Mars(m) => m.predict(x),
            SurrogateModel::Rbf(m) => m.predict(x),
        }
    }

    fn parameter_count(&self) -> usize {
        match self {
            SurrogateModel::Linear(m) => m.parameter_count(),
            SurrogateModel::Mars(m) => m.parameter_count(),
            SurrogateModel::Rbf(m) => m.parameter_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data(n: usize) -> Dataset {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = -1.0 + 2.0 * i as f64 / (n - 1) as f64;
                vec![t, (i % 3) as f64 - 1.0]
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 + x[0] * 2.0 + x[0] * x[1]).collect();
        Dataset::new(xs, ys).unwrap()
    }

    #[test]
    fn all_families_fit_and_predict() {
        let data = toy_data(40);
        for family in ModelFamily::all() {
            let m = SurrogateModel::fit(&data, family).unwrap();
            assert_eq!(m.family(), family);
            let preds = m.predict_batch(data.points());
            let r2 = emod_models::metrics::r_squared(&preds, data.responses());
            assert!(r2 > 0.8, "{:?}: R² = {}", family, r2);
        }
    }

    #[test]
    fn linear_falls_back_to_main_effects_when_small() {
        // 25-dim data with fewer samples than interaction terms.
        let xs: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                (0..25)
                    .map(|j| ((i * 7 + j * 3) % 5) as f64 / 2.0 - 1.0)
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum()).collect();
        let data = Dataset::new(xs, ys).unwrap();
        let m = SurrogateModel::fit(&data, ModelFamily::Linear).unwrap();
        assert!(m.parameter_count() <= 26);
    }

    #[test]
    fn family_names_match_paper() {
        assert_eq!(ModelFamily::Rbf.name(), "RBF-RT");
        assert_eq!(ModelFamily::Mars.name(), "MARS");
    }

    #[test]
    fn surrogate_round_trips_all_families() {
        let data = toy_data(40);
        for family in ModelFamily::all() {
            let m = SurrogateModel::fit(&data, family).unwrap();
            let mut w = emod_models::Writer::new();
            m.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = emod_models::Reader::new(&bytes);
            let back = SurrogateModel::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back.family(), family);
            for p in data.points() {
                assert_eq!(m.predict(p).to_bits(), back.predict(p).to_bits());
            }
        }
    }

    #[test]
    fn surrogate_bad_family_tag_rejected() {
        let mut r = emod_models::Reader::new(&[42]);
        assert!(SurrogateModel::decode(&mut r).is_err());
    }
}
