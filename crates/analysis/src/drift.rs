//! The one-step drift function `f(b)` and its roots (§4).
//!
//! Combining Lemmas 6 and 7, the paper bounds the conditional drift of the
//! defect fraction `b = B/A`:
//!
//! ```text
//! E[b′] − b ≤ f(b) = p·d²/k − (1−p)·d(k−d²)/k² · b + (1−p)·(d/k) · b^(2−1/d)
//! ```
//!
//! `f` is convex with `f(0) > 0`, a negative minimum near `b ≈ 1/2`, and
//! two roots `a₁ < a₂` in `(0, 1)`. `a₁` is Theorem 4's steady state;
//! crossing `a₂` is the collapse event of Theorem 5.

/// Parameters of the drift analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftParams {
    /// Failure probability per arrival.
    pub p: f64,
    /// Per-node degree.
    pub d: usize,
    /// Server threads.
    pub k: usize,
}

impl DriftParams {
    /// Creates parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`, `d ≥ 2` and `k > d²` (the paper's
    /// standing assumptions — outside them `f` need not have two roots).
    #[must_use]
    pub fn new(p: f64, d: usize, k: usize) -> Self {
        assert!((0.0..1.0).contains(&p), "p must be in [0, 1)");
        assert!(d >= 2, "theory requires d >= 2");
        assert!(k > d * d, "theory requires k > d^2");
        DriftParams { p, d, k }
    }

    /// Evaluates `f(b)`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is outside `[0, 1]`.
    #[must_use]
    pub fn f(&self, b: f64) -> f64 {
        assert!((0.0..=1.0).contains(&b), "b must be in [0, 1]");
        let (p, d, k) = (self.p, self.d as f64, self.k as f64);
        p * d * d / k - (1.0 - p) * d * (k - d * d) / (k * k) * b
            + (1.0 - p) * (d / k) * b.powf(2.0 - 1.0 / d)
    }

    /// Location of the minimum of `f` (closed form from `f′(b) = 0`):
    /// `b* = [(k − d²) / (k(2 − 1/d))]^{d/(d−1)}`, approximately `1/2`.
    #[must_use]
    pub fn minimum_location(&self) -> f64 {
        let (d, k) = (self.d as f64, self.k as f64);
        ((k - d * d) / (k * (2.0 - 1.0 / d))).powf(d / (d - 1.0))
    }

    /// Value of `f` at its minimum. The paper notes this is below `−d/8k`
    /// for admissible parameters.
    #[must_use]
    pub fn minimum_value(&self) -> f64 {
        self.f(self.minimum_location())
    }

    /// The two roots `(a₁, a₂)` of `f` in `(0, 1)`, by bisection; `None` if
    /// `f` never goes negative (parameters outside the stable regime, e.g.
    /// `p·d` too large).
    #[must_use]
    pub fn roots(&self) -> Option<(f64, f64)> {
        let bmin = self.minimum_location().clamp(0.0, 1.0);
        if self.f(bmin) >= 0.0 {
            return None;
        }
        let a1 = bisect(|b| self.f(b), 0.0, bmin, true);
        let a2 = if self.f(1.0) >= 0.0 {
            bisect(|b| self.f(b), bmin, 1.0, false)
        } else {
            1.0
        };
        Some((a1, a2))
    }

    /// Theorem 4's steady-state bound on `E[B]/A`: the first root `a₁`,
    /// which the paper expands as `(1+ε)·p·d/((1−p)(1−d²/k))` with
    /// `0 < ε < (2pd)^{1−1/d}`.
    #[must_use]
    pub fn theorem4_bound(&self) -> Option<f64> {
        self.roots().map(|(a1, _)| a1)
    }

    /// The leading-order approximation `p·d/((1−p)(1−d²/k))` of `a₁`
    /// (the `ε → 0` limit).
    #[must_use]
    pub fn a1_leading_order(&self) -> f64 {
        let (p, d, k) = (self.p, self.d as f64, self.k as f64);
        p * d / ((1.0 - p) * (1.0 - d * d / k))
    }

    /// Lemma 6's maximum one-step change of the defect fraction: `d²/k`.
    #[must_use]
    pub fn lemma6_max_step(&self) -> f64 {
        let (d, k) = (self.d as f64, self.k as f64);
        d * d / k
    }
}

/// Bisection for a sign change of `f` on `[lo, hi]`. `descending` says the
/// function goes from + to − on the interval.
fn bisect<F: Fn(f64) -> f64>(f: F, mut lo: f64, mut hi: f64, descending: bool) -> f64 {
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let v = f(mid);
        let go_right = if descending { v > 0.0 } else { v < 0.0 };
        if go_right {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn params() -> DriftParams {
        DriftParams::new(0.01, 3, 64)
    }

    #[test]
    fn f_positive_at_zero_negative_at_min() {
        let p = params();
        assert!(p.f(0.0) > 0.0);
        assert!(p.minimum_value() < 0.0);
    }

    #[test]
    fn minimum_location_is_stationary() {
        let p = params();
        let b = p.minimum_location();
        let eps = 1e-6;
        let slope = (p.f(b + eps) - p.f(b - eps)) / (2.0 * eps);
        assert!(slope.abs() < 1e-6, "slope {slope} at claimed minimum");
        assert!((0.3..0.7).contains(&b), "minimum should be near 1/2, got {b}");
    }

    #[test]
    fn paper_minimum_value_bound() {
        // "the minimum value of f is less than −d/8k" — holds for k ≥ c·d²
        // with c large enough and p small (the paper's standing regime).
        let p = DriftParams::new(0.001, 3, 256);
        let bound = -(p.d as f64) / (8.0 * p.k as f64);
        assert!(p.minimum_value() < bound, "{} !< {}", p.minimum_value(), bound);
    }

    #[test]
    fn roots_bracket_and_match_leading_order() {
        let p = params();
        let (a1, a2) = p.roots().expect("stable regime");
        assert!(0.0 < a1 && a1 < 0.5 && 0.5 < a2 && a2 <= 1.0);
        assert!(p.f(a1).abs() < 1e-9);
        if a2 < 1.0 {
            assert!(p.f(a2).abs() < 1e-9);
        }
        // a1 ≈ pd/((1-p)(1-d²/k)) within the paper's (1+ε) slack.
        let lead = p.a1_leading_order();
        assert!(a1 >= lead * 0.999, "a1 {a1} below leading order {lead}");
        let eps_cap = (2.0 * p.p * p.d as f64).powf(1.0 - 1.0 / p.d as f64);
        assert!(
            a1 <= lead * (1.0 + eps_cap) * 1.05,
            "a1 {a1} exceeds (1+ε)·leading order, ε cap {eps_cap}"
        );
    }

    #[test]
    fn unstable_regime_has_no_roots() {
        // Huge p·d: f stays positive everywhere.
        let p = DriftParams::new(0.5, 3, 64);
        assert!(p.roots().is_none());
    }

    #[test]
    fn lemma6_step() {
        assert!((params().lemma6_max_step() - 9.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "theory requires d >= 2")]
    fn d1_rejected() {
        let _ = DriftParams::new(0.1, 1, 16);
    }

    #[test]
    #[should_panic(expected = "b must be in [0, 1]")]
    fn f_domain_checked() {
        let _ = params().f(1.5);
    }

    /// f is convex: midpoint below chord.
    #[test]
    fn f_is_convex() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = params();
        for _ in 0..64 {
            let (x, y) = (rng.random_range(0.0f64..1.0), rng.random_range(0.0f64..1.0));
            let mid = 0.5 * (x + y);
            assert!(p.f(mid) <= 0.5 * (p.f(x) + p.f(y)) + 1e-12);
        }
    }

    /// Roots exist whenever p·d is small (stable regime), and a1 grows
    /// with p.
    #[test]
    fn a1_monotone_in_p() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..64 {
            let (p1, p2) = (rng.random_range(0.001f64..0.02), rng.random_range(0.001f64..0.02));
            if p1 >= p2 {
                continue;
            }
            let a1 = DriftParams::new(p1, 3, 64).theorem4_bound().unwrap();
            let b1 = DriftParams::new(p2, 3, 64).theorem4_bound().unwrap();
            assert!(a1 <= b1 + 1e-12);
        }
    }
}
