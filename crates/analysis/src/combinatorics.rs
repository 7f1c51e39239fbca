//! Log-domain combinatorics for the drift and bound formulas.

/// Natural log of `n!`, exact summation (fine for the `n ≤ 10⁴` range the
/// experiments use).
#[must_use]
pub fn ln_factorial(n: u64) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

/// Natural log of `C(n, r)`; `-inf` when `r > n`.
#[must_use]
pub fn ln_choose(n: u64, r: u64) -> f64 {
    if r > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(r) - ln_factorial(n - r)
}

/// `C(n, r)` as an `f64` (exact for small values, accurate to f64 beyond).
#[must_use]
pub fn choose_f64(n: u64, r: u64) -> f64 {
    if r > n {
        return 0.0;
    }
    let r = r.min(n - r);
    let mut acc = 1.0f64;
    for i in 0..r {
        acc *= (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// `C(n, r)` exactly in `u128`.
///
/// # Panics
///
/// Panics on overflow.
#[must_use]
pub fn choose_u128(n: u64, r: u64) -> u128 {
    if r > n {
        return 0;
    }
    let r = r.min(n - r);
    let mut acc: u128 = 1;
    for i in 0..r {
        acc = acc.checked_mul((n - i) as u128).expect("binomial overflow") / (i as u128 + 1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    #[test]
    fn ln_factorial_small_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn choose_agree_across_representations() {
        for n in 0..30u64 {
            for r in 0..=n {
                let exact = choose_u128(n, r) as f64;
                assert!(
                    (choose_f64(n, r) - exact).abs() / exact.max(1.0) < 1e-12,
                    "f64 mismatch at C({n},{r})"
                );
                assert!(
                    (ln_choose(n, r) - exact.ln()).abs() < 1e-9,
                    "ln mismatch at C({n},{r})"
                );
            }
        }
    }

    #[test]
    fn out_of_range_r() {
        assert_eq!(choose_u128(3, 4), 0);
        assert_eq!(choose_f64(3, 4), 0.0);
        assert_eq!(ln_choose(3, 4), f64::NEG_INFINITY);
    }

    #[test]
    fn pascal_rule() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..256 {
            let (n, r) = (rng.random_range(1u64..40), rng.random_range(1u64..40));
            if r > n {
                continue;
            }
            let lhs = choose_u128(n, r);
            let rhs = choose_u128(n - 1, r - 1) + choose_u128(n - 1, r);
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn symmetry() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..256 {
            let (n, r) = (rng.random_range(0u64..50), rng.random_range(0u64..50));
            if r > n {
                continue;
            }
            assert_eq!(choose_u128(n, r), choose_u128(n, n - r));
        }
    }
}
