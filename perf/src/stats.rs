//! Order statistics over small samples, and the digest used to fingerprint
//! seeded inputs.

/// Sorted copy of `xs` (NaNs would be a harness bug, so total order is
/// assumed).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The `q`-quantile (`0.0..=1.0`) by linear interpolation between order
/// statistics; `0.0` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the "exclusive" method) — the rule the acceptance check
/// uses for run-to-run spread. Needs at least two samples.
pub fn quartiles_exclusive(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles_exclusive(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Fingerprint of a sequence of lines: the WAL's own FNV-1a over them.
pub fn digest_lines<S: AsRef<str>>(lines: &[S]) -> u64 {
    let joined: Vec<&str> = lines.iter().map(AsRef::as_ref).collect();
    curtain_net::wal::fnv1a64(joined.join("\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(median(&xs), 5.5);
    }
}
