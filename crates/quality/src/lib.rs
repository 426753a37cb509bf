//! Model-quality observability primitives.
//!
//! The serving stack reports latency and request counts; this crate supplies
//! the signals that say whether a *prediction* should be believed:
//!
//! * [`DesignSummary`] — a compact, persistable summary of the training
//!   design (per-dimension hull plus a nearest-neighbor distance scale) used
//!   to score how far a query point extrapolates beyond the measured design.
//! * [`disagreement`] — the predict-time spread between sibling model
//!   families (linear/MARS/RBF) fit to the same data.
//! * [`ShadowRing`] / [`PredictionLog`] — bounded rings pairing predictions
//!   with later ground-truth observations, exporting rolling MAPE/max-error
//!   so accuracy drift is visible online.
//! * [`extrap_warn_threshold`] / [`disagree_warn_threshold`] — the
//!   `EMOD_EXTRAP_WARN` / `EMOD_DISAGREE_WARN` knobs gating structured
//!   warning events.
//!
//! Everything here is deterministic: scores are pure sequential functions of
//! their inputs, so quality numbers are bit-identical at any `EMOD_THREADS`.

#![warn(missing_docs)]

use emod_models::codec::{CodecError, CodecResult, Reader, Writer};
use emod_models::Dataset;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Euclidean distance between two equal-length points.
fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// A persistable summary of a training design, used to normalize
/// extrapolation scores.
///
/// The summary captures the design's per-dimension bounding box and its mean
/// nearest-neighbor distance (the design's own spacing). A query point's
/// extrapolation score is its nearest-neighbor distance to the design divided
/// by that spacing: ≈1 for points interleaved with the design, growing
/// without bound as the query leaves the measured region.
///
/// # Examples
///
/// ```
/// use emod_models::Dataset;
/// use emod_quality::DesignSummary;
///
/// let xs: Vec<Vec<f64>> = (0..11).map(|i| vec![-1.0 + i as f64 / 5.0]).collect();
/// let data = Dataset::new(xs, vec![0.0; 11])?;
/// let summary = DesignSummary::from_design(&data).unwrap();
/// let inside = summary.extrapolation(data.points(), &[0.1]).unwrap();
/// let outside = summary.extrapolation(data.points(), &[4.0]).unwrap();
/// assert!(inside <= 1.0);
/// assert!(outside > 10.0);
/// # Ok::<(), emod_models::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSummary {
    lo: Vec<f64>,
    hi: Vec<f64>,
    ref_dist: f64,
}

impl DesignSummary {
    /// Summarizes a training design. Returns `None` when the design is too
    /// small (fewer than two points) or degenerate (all points coincident),
    /// in which case extrapolation scoring stays disabled.
    pub fn from_design(data: &Dataset) -> Option<Self> {
        let points = data.points();
        if points.len() < 2 {
            return None;
        }
        let dim = data.dim();
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for p in points {
            for (d, &v) in p.iter().enumerate() {
                lo[d] = lo[d].min(v);
                hi[d] = hi[d].max(v);
            }
        }
        // Mean nearest-neighbor distance, scanned sequentially so the value
        // is a pure function of the point order.
        let mut total = 0.0;
        for (i, p) in points.iter().enumerate() {
            let mut nearest = f64::INFINITY;
            for (j, q) in points.iter().enumerate() {
                if i != j {
                    nearest = nearest.min(dist(p, q));
                }
            }
            total += nearest;
        }
        let ref_dist = total / points.len() as f64;
        if !ref_dist.is_finite() || ref_dist <= 0.0 {
            return None;
        }
        Some(DesignSummary { lo, hi, ref_dist })
    }

    /// Dimension of the summarized design.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// The design's mean nearest-neighbor distance (the score denominator).
    pub fn ref_dist(&self) -> f64 {
        self.ref_dist
    }

    /// Per-dimension lower bounds of the design hull.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Per-dimension upper bounds of the design hull.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Euclidean distance from `q` to the design's bounding box (0 inside).
    pub fn hull_excess(&self, q: &[f64]) -> f64 {
        q.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(&v, (&lo, &hi))| {
                let d = (lo - v).max(v - hi).max(0.0);
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Whether `q` lies inside the design's per-dimension bounding box.
    pub fn in_hull(&self, q: &[f64]) -> bool {
        self.hull_excess(q) == 0.0
    }

    /// Normalized extrapolation score of query `q` against the design
    /// `points` this summary was built from: nearest-neighbor distance
    /// divided by [`DesignSummary::ref_dist`]. Returns `None` on a dimension
    /// mismatch or an empty design.
    pub fn extrapolation(&self, points: &[Vec<f64>], q: &[f64]) -> Option<f64> {
        if q.len() != self.dim() || points.is_empty() {
            return None;
        }
        let mut nearest = f64::INFINITY;
        for p in points {
            if p.len() != q.len() {
                return None;
            }
            nearest = nearest.min(dist(p, q));
        }
        Some(nearest / self.ref_dist)
    }

    /// Serializes the summary (see `emod_models::codec`).
    pub fn encode(&self, w: &mut Writer) {
        w.put_f64s(&self.lo);
        w.put_f64s(&self.hi);
        w.put_f64(self.ref_dist);
    }

    /// Deserializes a summary written by [`DesignSummary::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated input or inconsistent bounds.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        let lo = r.get_f64s()?;
        let hi = r.get_f64s()?;
        let ref_dist = r.get_f64()?;
        if lo.is_empty() || lo.len() != hi.len() {
            return Err(CodecError::BadValue(format!(
                "design summary bounds have lengths {} and {}",
                lo.len(),
                hi.len()
            )));
        }
        if !ref_dist.is_finite() || ref_dist <= 0.0 {
            return Err(CodecError::BadValue(format!(
                "design summary reference distance {} (want finite > 0)",
                ref_dist
            )));
        }
        Ok(DesignSummary { lo, hi, ref_dist })
    }
}

/// Relative spread between sibling-family predictions for the same point:
/// `(max − min) / max(|mean|, 1e-12)`. Returns `None` with fewer than two
/// predictions or any non-finite value.
///
/// # Examples
///
/// ```
/// assert_eq!(emod_quality::disagreement(&[10.0, 10.0]), Some(0.0));
/// let d = emod_quality::disagreement(&[9.0, 10.0, 11.0]).unwrap();
/// assert!((d - 0.2).abs() < 1e-12);
/// assert_eq!(emod_quality::disagreement(&[1.0]), None);
/// ```
pub fn disagreement(predictions: &[f64]) -> Option<f64> {
    if predictions.len() < 2 || predictions.iter().any(|p| !p.is_finite()) {
        return None;
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &p in predictions {
        min = min.min(p);
        max = max.max(p);
        sum += p;
    }
    let mean = sum / predictions.len() as f64;
    Some((max - min) / mean.abs().max(1e-12))
}

/// A bounded ring of `(prediction, ground truth)` pairs with rolling error
/// summaries — the shadow accuracy tracker.
///
/// # Examples
///
/// ```
/// let mut ring = emod_quality::ShadowRing::new(8);
/// ring.record(110.0, 100.0);
/// ring.record(95.0, 100.0);
/// assert_eq!(ring.len(), 2);
/// assert!((ring.mape().unwrap() - 7.5).abs() < 1e-12);
/// assert!((ring.max_ape().unwrap() - 10.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct ShadowRing {
    pairs: VecDeque<(f64, f64)>,
    capacity: usize,
    observed: u64,
}

impl ShadowRing {
    /// Creates a ring holding at most `capacity` pairs (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ShadowRing {
            pairs: VecDeque::new(),
            capacity: capacity.max(1),
            observed: 0,
        }
    }

    /// Records a `(prediction, ground truth)` pair, evicting the oldest pair
    /// once the ring is full. Non-finite values are ignored.
    pub fn record(&mut self, predicted: f64, measured: f64) {
        if !predicted.is_finite() || !measured.is_finite() {
            return;
        }
        if self.pairs.len() == self.capacity {
            self.pairs.pop_front();
        }
        self.pairs.push_back((predicted, measured));
        self.observed += 1;
    }

    /// Pairs currently held.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pairs have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Total pairs ever recorded (including evicted ones).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Rolling mean absolute percentage error over the held pairs, in
    /// percent. `None` when empty or every ground truth is zero.
    pub fn mape(&self) -> Option<f64> {
        let mut total = 0.0;
        let mut n = 0usize;
        for &(p, t) in &self.pairs {
            if t != 0.0 {
                total += ((p - t) / t).abs() * 100.0;
                n += 1;
            }
        }
        (n > 0).then(|| total / n as f64)
    }

    /// Largest absolute percentage error over the held pairs, in percent.
    pub fn max_ape(&self) -> Option<f64> {
        self.pairs
            .iter()
            .filter(|(_, t)| *t != 0.0)
            .map(|&(p, t)| ((p - t) / t).abs() * 100.0)
            .max_by(f64::total_cmp)
    }
}

/// A bounded log of recent predictions, keyed by model id and the bit
/// pattern of the coded query point, so a later ground-truth observation of
/// the same point can be paired with what the model said at the time.
#[derive(Debug, Default)]
pub struct PredictionLog {
    entries: VecDeque<(String, Vec<u64>, f64)>,
    capacity: usize,
}

impl PredictionLog {
    /// Creates a log holding at most `capacity` predictions (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PredictionLog {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    fn key(point: &[f64]) -> Vec<u64> {
        point.iter().map(|v| v.to_bits()).collect()
    }

    /// Remembers `predicted` for `(model_id, point)`, evicting the oldest
    /// entry once full. A re-prediction of the same point refreshes the
    /// stored value.
    pub fn log(&mut self, model_id: &str, point: &[f64], predicted: f64) {
        let key = Self::key(point);
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|(id, k, _)| id == model_id && *k == key)
        {
            e.2 = predicted;
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries
            .push_back((model_id.to_string(), key, predicted));
    }

    /// The remembered prediction for `(model_id, point)`, if still held.
    pub fn lookup(&self, model_id: &str, point: &[f64]) -> Option<f64> {
        let key = Self::key(point);
        self.entries
            .iter()
            .find(|(id, k, _)| id == model_id && *k == key)
            .map(|&(_, _, p)| p)
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn env_f64(var: &str, default: f64) -> f64 {
    match std::env::var(var) {
        Ok(s) => match s.trim().parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => v,
            _ => default,
        },
        Err(_) => default,
    }
}

/// Extrapolation scores at or above this threshold emit a structured
/// warning event and tag the access log (`EMOD_EXTRAP_WARN`, default 3).
pub fn extrap_warn_threshold() -> f64 {
    static CACHE: OnceLock<f64> = OnceLock::new();
    *CACHE.get_or_init(|| env_f64("EMOD_EXTRAP_WARN", 3.0))
}

/// Cross-family disagreement at or above this threshold emits a structured
/// warning event and tags the access log (`EMOD_DISAGREE_WARN`, default
/// 0.25, i.e. a 25% relative spread).
pub fn disagree_warn_threshold() -> f64 {
    static CACHE: OnceLock<f64> = OnceLock::new();
    *CACHE.get_or_init(|| env_f64("EMOD_DISAGREE_WARN", 0.25))
}

/// Capacity of the shadow accuracy ring and the prediction log
/// (`EMOD_SHADOW_CAP`, default 512).
pub fn shadow_capacity() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("EMOD_SHADOW_CAP") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(v) if v >= 1 => v,
            _ => 512,
        },
        Err(_) => 512,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Dataset {
        let mut xs = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                xs.push(vec![-1.0 + i as f64 / 2.0, -1.0 + j as f64 / 2.0]);
            }
        }
        let n = xs.len();
        Dataset::new(xs, vec![0.0; n]).unwrap()
    }

    #[test]
    fn summary_captures_hull_and_spacing() {
        let data = grid();
        let s = DesignSummary::from_design(&data).unwrap();
        assert_eq!(s.lo(), &[-1.0, -1.0]);
        assert_eq!(s.hi(), &[1.0, 1.0]);
        // Grid spacing is 0.5 in each axis; mean NN distance equals it.
        assert!((s.ref_dist() - 0.5).abs() < 1e-12);
        assert!(s.in_hull(&[0.3, -0.7]));
        assert!(!s.in_hull(&[1.5, 0.0]));
        assert!((s.hull_excess(&[2.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extrapolation_grows_away_from_design() {
        let data = grid();
        let s = DesignSummary::from_design(&data).unwrap();
        let inside = s.extrapolation(data.points(), &[0.25, 0.25]).unwrap();
        let edge = s.extrapolation(data.points(), &[1.0, 1.0]).unwrap();
        let outside = s.extrapolation(data.points(), &[3.0, 3.0]).unwrap();
        assert!(inside <= 1.0, "inside = {}", inside);
        assert_eq!(edge, 0.0);
        assert!(outside > 4.0, "outside = {}", outside);
    }

    #[test]
    fn degenerate_designs_disable_scoring() {
        let one = Dataset::new(vec![vec![0.0]], vec![1.0]).unwrap();
        assert!(DesignSummary::from_design(&one).is_none());
        let coincident =
            Dataset::new(vec![vec![0.5, 0.5], vec![0.5, 0.5]], vec![1.0, 2.0]).unwrap();
        assert!(DesignSummary::from_design(&coincident).is_none());
    }

    #[test]
    fn extrapolation_rejects_dimension_mismatch() {
        let data = grid();
        let s = DesignSummary::from_design(&data).unwrap();
        assert_eq!(s.extrapolation(data.points(), &[0.0]), None);
        assert_eq!(s.extrapolation(&[], &[0.0, 0.0]), None);
    }

    #[test]
    fn summary_round_trips() {
        let data = grid();
        let s = DesignSummary::from_design(&data).unwrap();
        let mut w = Writer::new();
        s.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = DesignSummary::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn summary_decode_rejects_bad_values() {
        let mut w = Writer::new();
        w.put_f64s(&[0.0, 1.0]);
        w.put_f64s(&[1.0]); // length mismatch
        w.put_f64(0.5);
        assert!(DesignSummary::decode(&mut Reader::new(&w.into_bytes())).is_err());

        let mut w = Writer::new();
        w.put_f64s(&[0.0]);
        w.put_f64s(&[1.0]);
        w.put_f64(-1.0); // non-positive reference distance
        assert!(DesignSummary::decode(&mut Reader::new(&w.into_bytes())).is_err());
    }

    #[test]
    fn disagreement_spread() {
        assert_eq!(disagreement(&[]), None);
        assert_eq!(disagreement(&[5.0]), None);
        assert_eq!(disagreement(&[5.0, f64::NAN]), None);
        assert_eq!(disagreement(&[7.0, 7.0, 7.0]), Some(0.0));
        let d = disagreement(&[90.0, 110.0]).unwrap();
        assert!((d - 0.2).abs() < 1e-12);
    }

    #[test]
    fn shadow_ring_rolls_and_bounds() {
        let mut ring = ShadowRing::new(3);
        assert!(ring.is_empty());
        assert_eq!(ring.mape(), None);
        for i in 0..5 {
            ring.record(100.0 + i as f64, 100.0);
        }
        // Only the last three pairs remain: errors 2%, 3%, 4%.
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.observed(), 5);
        assert!((ring.mape().unwrap() - 3.0).abs() < 1e-12);
        assert!((ring.max_ape().unwrap() - 4.0).abs() < 1e-12);
        ring.record(f64::NAN, 1.0); // ignored
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn shadow_ring_skips_zero_truth() {
        let mut ring = ShadowRing::new(4);
        ring.record(5.0, 0.0);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.mape(), None);
        assert_eq!(ring.max_ape(), None);
    }

    #[test]
    fn prediction_log_lookup_and_eviction() {
        let mut log = PredictionLog::new(2);
        log.log("m1", &[0.5, -0.5], 10.0);
        log.log("m2", &[0.5, -0.5], 20.0);
        assert_eq!(log.lookup("m1", &[0.5, -0.5]), Some(10.0));
        assert_eq!(log.lookup("m2", &[0.5, -0.5]), Some(20.0));
        assert_eq!(log.lookup("m1", &[0.5, 0.5]), None);
        // Re-logging refreshes in place instead of duplicating.
        log.log("m1", &[0.5, -0.5], 11.0);
        assert_eq!(log.len(), 2);
        assert_eq!(log.lookup("m1", &[0.5, -0.5]), Some(11.0));
        // A third key evicts the oldest entry (m1's).
        log.log("m3", &[1.0], 30.0);
        assert_eq!(log.lookup("m1", &[0.5, -0.5]), None);
        assert_eq!(log.lookup("m3", &[1.0]), Some(30.0));
    }

    #[test]
    fn thresholds_have_sane_defaults() {
        // The env vars are unset in the test environment, so the OnceLock
        // caches land on the documented defaults.
        assert_eq!(extrap_warn_threshold(), 3.0);
        assert_eq!(disagree_warn_threshold(), 0.25);
        assert_eq!(shadow_capacity(), 512);
    }
}
