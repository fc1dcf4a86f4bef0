//! Finite-difference gradient checking.

/// Central-difference numeric gradient of `f` at `x`.
pub fn numeric_grad(f: &dyn Fn(&[f32]) -> f32, x: &[f32], eps: f32) -> Vec<f32> {
    let mut grad = Vec::with_capacity(x.len());
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let orig = xp[i];
        xp[i] = orig + eps;
        let hi = f(&xp);
        xp[i] = orig - eps;
        let lo = f(&xp);
        xp[i] = orig;
        grad.push((hi - lo) / (2.0 * eps));
    }
    grad
}

/// Assert that `analytic` matches the numeric gradient of `f` at `x` within
/// relative tolerance `tol` (per element, normalized by the larger scale).
///
/// # Panics
/// On mismatch, with the offending index and values.
pub fn numeric_vs_analytic(f: &dyn Fn(&[f32]) -> f32, x: &[f32], analytic: &[f32], tol: f32) {
    numeric_vs_analytic_with_step(f, x, analytic, 1e-2, tol);
}

/// [`numeric_vs_analytic`] with central differences of step `eps`.
///
/// # Panics
/// On mismatch, with the offending index and values.
pub fn numeric_vs_analytic_with_step(
    f: &dyn Fn(&[f32]) -> f32,
    x: &[f32],
    analytic: &[f32],
    eps: f32,
    tol: f32,
) {
    assert_eq!(x.len(), analytic.len());
    let numeric = numeric_grad(f, x, eps);
    for (i, (&n, &a)) in numeric.iter().zip(analytic).enumerate() {
        let scale = n.abs().max(a.abs()).max(1.0);
        assert!(
            (n - a).abs() / scale < tol,
            "gradient mismatch at {i}: numeric {n} vs analytic {a}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_gradient() {
        let f = |x: &[f32]| x.iter().map(|v| v * v).sum::<f32>();
        let x = [1.0f32, -2.0, 0.5];
        let g = numeric_grad(&f, &x, 1e-3);
        for (gi, xi) in g.iter().zip(&x) {
            assert!((gi - 2.0 * xi).abs() < 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "gradient mismatch")]
    fn detects_wrong_gradient() {
        let f = |x: &[f32]| x[0] * x[0];
        numeric_vs_analytic(&f, &[3.0], &[0.0], 1e-2);
    }
}
