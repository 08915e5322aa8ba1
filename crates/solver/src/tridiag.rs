//! The scalar Thomas algorithm, one line at a time: the oracle the batched
//! sweep kernels are held to (`adi::tests::sweeps_reference`). No run calls
//! it; [`crate::kernels`] carries the production line solves.
//!
//! * [`solve`] — the Thomas algorithm for an open line,
//! * [`solve_periodic`] — Sherman–Morrison wrap-around for O-grid lines.

/// Solve `a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = d[i]` in place; the answer
/// lands in `d`. `a[0]` and `c[n-1]` are ignored.
pub fn solve(a: &[f64], b: &[f64], c: &[f64], d: &mut [f64]) {
    let n = d.len();
    assert!(n >= 1 && a.len() == n && b.len() == n && c.len() == n);
    let mut cp = vec![0.0; n];
    let mut bp = b[0];
    assert!(bp != 0.0);
    cp[0] = c[0] / bp;
    d[0] /= bp;
    for i in 1..n {
        bp = b[i] - a[i] * cp[i - 1];
        cp[i] = c[i] / bp;
        d[i] = (d[i] - a[i] * d[i - 1]) / bp;
    }
    for i in (0..n - 1).rev() {
        d[i] -= cp[i] * d[i + 1];
    }
}

/// Solve a periodic tridiagonal system (wrap coupling `a[0] x[n-1]` and
/// `c[n-1] x[0]`) via the Sherman–Morrison formula. `n >= 3` required.
pub fn solve_periodic(a: &[f64], b: &[f64], c: &[f64], d: &mut [f64]) {
    let n = d.len();
    assert!(n >= 3);
    let alpha = a[0];
    let beta = c[n - 1];
    let gamma = -b[0];

    // Modified diagonal.
    let mut bb = b.to_vec();
    bb[0] = b[0] - gamma;
    bb[n - 1] = b[n - 1] - alpha * beta / gamma;

    // Solve A' y = d.
    solve(a, &bb, c, d);

    // Solve A' z = u, u = (gamma, 0, ..., 0, beta).
    let mut z = vec![0.0; n];
    z[0] = gamma;
    z[n - 1] = beta;
    solve(a, &bb, c, &mut z);

    let fact = (d[0] + a[0] * d[n - 1] / gamma) / (1.0 + z[0] + a[0] * z[n - 1] / gamma);
    for i in 0..n {
        d[i] -= fact * z[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_vec(a: &[f64], b: &[f64], c: &[f64], x: &[f64], periodic: bool) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|i| {
                let mut v = b[i] * x[i];
                if i > 0 {
                    v += a[i] * x[i - 1];
                } else if periodic {
                    v += a[0] * x[n - 1];
                }
                if i + 1 < n {
                    v += c[i] * x[i + 1];
                } else if periodic {
                    v += c[n - 1] * x[0];
                }
                v
            })
            .collect()
    }

    fn sample_system(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|i| -0.4 - 0.01 * i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| 2.0 + 0.05 * i as f64).collect();
        let c: Vec<f64> = (0..n).map(|i| -0.3 - 0.02 * i as f64).collect();
        let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        (a, b, c, x)
    }

    #[test]
    fn thomas_recovers_known_solution() {
        let n = 25;
        let (a, b, c, x) = sample_system(n);
        let mut d = mat_vec(&a, &b, &c, &x, false);
        solve(&a, &b, &c, &mut d);
        for i in 0..n {
            assert!((d[i] - x[i]).abs() < 1e-10, "i={i}: {} vs {}", d[i], x[i]);
        }
    }

    #[test]
    fn thomas_single_unknown() {
        let mut d = vec![6.0];
        solve(&[0.0], &[2.0], &[0.0], &mut d);
        assert!((d[0] - 3.0).abs() < 1e-15);
    }

    #[test]
    fn periodic_recovers_known_solution() {
        let n = 17;
        let (a, b, c, x) = sample_system(n);
        let mut d = mat_vec(&a, &b, &c, &x, true);
        solve_periodic(&a, &b, &c, &mut d);
        for i in 0..n {
            assert!((d[i] - x[i]).abs() < 1e-9, "i={i}: {} vs {}", d[i], x[i]);
        }
    }

    #[test]
    fn diagonally_dominant_stability() {
        // Large random-ish diagonally dominant system solves accurately.
        let n = 500;
        let a: Vec<f64> = (0..n).map(|i| -(0.1 + ((i * 7) % 5) as f64 * 0.1)).collect();
        let c: Vec<f64> = (0..n).map(|i| -(0.1 + ((i * 13) % 5) as f64 * 0.1)).collect();
        let b: Vec<f64> = (0..n).map(|i| 1.5 + a[i].abs() + c[i].abs()).collect();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut d = mat_vec(&a, &b, &c, &x, false);
        solve(&a, &b, &c, &mut d);
        let err: f64 = d.iter().zip(&x).map(|(u, v)| (u - v).abs()).fold(0.0, f64::max);
        assert!(err < 1e-11, "max err {err}");
    }
}
