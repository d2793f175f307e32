//! Measured-hardware calibration: turning abstract α-β-γ costs into
//! predicted **seconds**.
//!
//! The rest of this crate counts *words, messages and flops* — the
//! machine-independent currency of the paper's bounds. A
//! [`MachineCalibration`] is the bridge to wall-clock time: three
//! measured constants, all in seconds,
//!
//! * `alpha` — per-message latency (seconds per message),
//! * `beta` — inverse bandwidth (seconds per word, one word = one `f64`),
//! * `gamma` — seconds per flop (one metered multiply-add),
//!
//! plus `rank_secs`, a fixed per-run overhead absorbing everything the
//! three linear terms do not (scheduler setup, buffer allocation).
//!
//! Calibrations are *fitted from timed probes*, not guessed:
//! `pmm-bench` runs ping-pong, stream and GEMM probes (see
//! `pmm_bench::calibrate`) and fits the constants with the least-squares
//! helpers here ([`fit_affine`], [`fit_through_origin`]). The result
//! round-trips through a small flat JSON document
//! ([`MachineCalibration::to_json`] / [`from_json`]) written by
//! `cargo xtask calibrate` and `pmm calibrate`.
//!
//! [`from_json`]: MachineCalibration::from_json
//!
//! # Example
//!
//! ```
//! use pmm_model::{Cost, MachineCalibration, MatMulDims};
//!
//! // A toy machine: 1 µs latency, 1 ns/word, 0.1 ns/flop.
//! let cal = MachineCalibration::new(1e-6, 1e-9, 1e-10);
//! let cost = Cost::message(1000.0); // one message of 1000 words
//! assert!((cal.seconds(cost) - 2e-6).abs() < 1e-12);
//!
//! // eq. (3) in seconds for a 64³ problem on the cubic 2×2×2 grid:
//! let secs = cal.alg1_seconds(MatMulDims::new(64, 64, 64), [2, 2, 2]);
//! assert!(secs > 0.0);
//!
//! // Round-trips through its JSON document.
//! let back = MachineCalibration::from_json(&cal.to_json()).unwrap();
//! assert_eq!(back, cal);
//! ```

use crate::cost::{Cost, MachineParams};
use crate::dims::MatMulDims;
use crate::predict::{plan_prediction, AlgPlan};

/// A measured machine: α, β, γ in seconds, fitted from timed probes.
///
/// See the [module docs](self) for the probe/fit pipeline and the JSON
/// interchange format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineCalibration {
    /// Per-message latency in seconds (the fitted intercept of the
    /// ping-pong probe).
    pub alpha: f64,
    /// Seconds per word — one word is one `f64` (the fitted slope of
    /// the ping-pong probe).
    pub beta: f64,
    /// Seconds per flop — one metered multiply-add (fitted through the
    /// origin from timed GEMM runs).
    pub gamma: f64,
    /// Fixed per-run overhead in seconds (world setup, buffer
    /// allocation); added once by [`alg1_seconds`](Self::alg1_seconds),
    /// not per cost term. Zero unless fitted.
    pub rank_secs: f64,
}

impl MachineCalibration {
    /// A calibration from the three linear constants, with zero fixed
    /// overhead. Panics if any constant is negative or non-finite (the
    /// same contract as [`MachineParams::new`]).
    pub fn new(alpha: f64, beta: f64, gamma: f64) -> MachineCalibration {
        let c = MachineCalibration { alpha, beta, gamma, rank_secs: 0.0 };
        c.validate();
        c
    }

    /// Set the fixed per-run overhead (builder style).
    pub fn with_rank_secs(mut self, rank_secs: f64) -> MachineCalibration {
        self.rank_secs = rank_secs;
        self.validate();
        self
    }

    fn validate(&self) {
        for (name, v) in [
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("gamma", self.gamma),
            ("rank_secs", self.rank_secs),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "calibration {name} must be finite and >= 0, got {v}"
            );
        }
    }

    /// The equivalent [`MachineParams`] — the calibrated machine as a
    /// cost-model point, usable anywhere the simulator or optimizer
    /// takes abstract α-β-γ weights.
    pub fn params(&self) -> MachineParams {
        MachineParams::new(self.alpha, self.beta, self.gamma)
    }

    /// Predicted seconds for an abstract [`Cost`]:
    /// `α·messages + β·words + γ·flops`.
    pub fn seconds(&self, cost: Cost) -> f64 {
        self.params().time(cost)
    }

    /// Predicted wall-clock seconds of one Algorithm 1 run of `dims` on
    /// `grid`: its [`plan_prediction`] cost (eq. (3) words, the messages of the
    /// fiber collectives as they execute, the multiply-adds and the
    /// reduce-scatter's additions) in seconds, plus the fixed
    /// `rank_secs` overhead.
    pub fn alg1_seconds(&self, dims: MatMulDims, grid: [usize; 3]) -> f64 {
        let cost = plan_prediction(dims, &AlgPlan::Alg1 { grid }).cost;
        self.seconds(cost) + self.rank_secs
    }

    /// Serialize as a small flat JSON object (stable key order, full
    /// `f64` precision via shortest-roundtrip formatting).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"alpha\": {},\n  \"beta\": {},\n  \"gamma\": {},\n  \"rank_secs\": {}\n}}\n",
            self.alpha, self.beta, self.gamma, self.rank_secs
        )
    }

    /// Parse the document [`to_json`](Self::to_json) writes (key order
    /// and whitespace are free; unknown keys are ignored). Returns a
    /// message naming the missing or malformed field on failure.
    pub fn from_json(text: &str) -> Result<MachineCalibration, String> {
        let field = |key: &str| -> Result<f64, String> {
            let needle = format!("\"{key}\"");
            let at = text.find(&needle).ok_or_else(|| format!("missing field {key}"))?;
            let rest = &text[at + needle.len()..];
            let rest = rest
                .trim_start()
                .strip_prefix(':')
                .ok_or_else(|| format!("expected ':' after {key}"))?
                .trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(rest.len());
            rest[..end].parse::<f64>().map_err(|e| format!("bad value for {key}: {e}"))
        };
        let cal = MachineCalibration {
            alpha: field("alpha")?,
            beta: field("beta")?,
            gamma: field("gamma")?,
            rank_secs: field("rank_secs").unwrap_or(0.0),
        };
        for (name, v) in [("alpha", cal.alpha), ("beta", cal.beta), ("gamma", cal.gamma)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("calibration {name} must be finite and >= 0, got {v}"));
            }
        }
        Ok(cal)
    }
}

/// Least-squares affine fit `y ≈ intercept + slope·x` over `(x, y)`
/// points, with both coefficients clamped at zero (a probe whose noise
/// drives a physical constant negative reports zero instead).
///
/// Returns `(intercept, slope)`. Panics on fewer than two points.
///
/// ```
/// use pmm_model::calib::fit_affine;
/// let (a, b) = fit_affine(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]);
/// assert!((a - 1.0).abs() < 1e-12 && (b - 2.0).abs() < 1e-12);
/// ```
pub fn fit_affine(points: &[(f64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "affine fit needs at least two points");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let det = n * sxx - sx * sx;
    if det == 0.0 {
        // All x equal: the slope is unidentifiable; report the mean as
        // the intercept.
        return ((sy / n).max(0.0), 0.0);
    }
    let slope = (n * sxy - sx * sy) / det;
    let intercept = (sy - slope * sx) / n;
    (intercept.max(0.0), slope.max(0.0))
}

/// Least-squares through-origin fit `y ≈ slope·x` (`slope = Σxy / Σx²`),
/// clamped at zero. Panics on an empty set or all-zero `x`.
///
/// ```
/// use pmm_model::calib::fit_through_origin;
/// let g = fit_through_origin(&[(1.0, 2.0), (2.0, 4.0)]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn fit_through_origin(points: &[(f64, f64)]) -> f64 {
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    assert!(sxx > 0.0, "through-origin fit needs a nonzero x");
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    (sxy / sxx).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_prices_all_three_terms() {
        let cal = MachineCalibration::new(1.0, 0.1, 0.01);
        let cost = Cost { messages: 2.0, words: 30.0, flops: 400.0 };
        assert!((cal.seconds(cost) - (2.0 + 3.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn alg1_seconds_is_eq3_plus_latency_plus_compute() {
        let dims = MatMulDims::new(8, 8, 8);
        let grid = [4, 2, 1];
        let cal = MachineCalibration::new(1e-3, 1e-6, 1e-9).with_rank_secs(0.5);
        // Recursive doubling over the 4-fiber (2 messages) and halving
        // over the 2-fiber (1); 64 multiply-adds and 8 reduction adds.
        let words = crate::alg1_prediction(dims, grid).total();
        let want = 1e-3 * 3.0 + 1e-6 * words + 1e-9 * (512.0 / 8.0 + 8.0) + 0.5;
        assert!((cal.alg1_seconds(dims, grid) - want).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips_including_rank_secs() {
        let cal = MachineCalibration::new(2.5e-7, 3.25e-10, 4.125e-11).with_rank_secs(1e-4);
        let back = MachineCalibration::from_json(&cal.to_json()).expect("round trip");
        assert_eq!(back, cal);
    }

    #[test]
    fn from_json_tolerates_order_and_unknown_keys() {
        let text = r#"{"gamma": 3e-11, "host": "ci", "alpha": 1e-6, "beta": 2e-9}"#;
        let cal = MachineCalibration::from_json(text).expect("parse");
        assert_eq!(cal.alpha, 1e-6);
        assert_eq!(cal.beta, 2e-9);
        assert_eq!(cal.gamma, 3e-11);
        assert_eq!(cal.rank_secs, 0.0, "rank_secs defaults to zero");
    }

    #[test]
    fn from_json_names_the_missing_field() {
        let err = MachineCalibration::from_json(r#"{"alpha": 1.0}"#).unwrap_err();
        assert!(err.contains("beta"), "got: {err}");
    }

    #[test]
    fn from_json_rejects_negative_constants() {
        let err = MachineCalibration::from_json(r#"{"alpha": 1.0, "beta": -2.0, "gamma": 0.0}"#)
            .unwrap_err();
        assert!(err.contains("beta"), "got: {err}");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn new_rejects_negative_constants() {
        MachineCalibration::new(1.0, -1.0, 0.0);
    }

    #[test]
    fn affine_fit_recovers_a_noiseless_line() {
        let pts: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, 0.25 + 1.5 * i as f64)).collect();
        let (a, b) = fit_affine(&pts);
        assert!((a - 0.25).abs() < 1e-9 && (b - 1.5).abs() < 1e-9);
    }

    #[test]
    fn fits_clamp_negative_physics_to_zero() {
        // A line with negative intercept: latency cannot be negative.
        let (a, _) = fit_affine(&[(1.0, 0.0), (2.0, 1.0)]);
        assert_eq!(a, 0.0);
        assert_eq!(fit_through_origin(&[(1.0, -2.0)]), 0.0);
    }

    #[test]
    fn degenerate_affine_fit_reports_the_mean() {
        let (a, b) = fit_affine(&[(3.0, 2.0), (3.0, 4.0)]);
        assert_eq!((a, b), (3.0, 0.0));
    }
}
