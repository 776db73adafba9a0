//! Gradient reversal (Ganin & Lempitsky, 2015).
//!
//! The GRL acts as identity in the forward pass and multiplies the gradient
//! by `−λ` in the backward pass, so the embedding network is pushed to
//! produce domain-*invariant* features while the domain classifier is still
//! trained to discriminate (Section 4, Adaptive Training Paradigm). λ is
//! scheduled from 0 to 1 over training, following the original paper.

use crate::mat::Mat;

/// The DANN λ schedule: `λ(p) = 2 / (1 + e^{−γ p}) − 1` with γ = 10, where
/// `p ∈ [0, 1]` is training progress. Starts at 0 (let the classifier warm
/// up) and saturates at 1.
pub fn lambda_schedule(progress: f64) -> f64 {
    let p = progress.clamp(0.0, 1.0);
    2.0 / (1.0 + (-10.0 * p).exp()) - 1.0
}

/// Applies the backward side of the GRL: writes `−λ · grad` into a reusable
/// buffer.
pub fn reverse_gradient_into(grad: &Mat, lambda: f64, out: &mut Mat) {
    out.copy_scaled_from(grad, -(lambda as f32));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_starts_at_zero_and_saturates() {
        assert!(lambda_schedule(0.0).abs() < 1e-9);
        assert!(lambda_schedule(1.0) > 0.99);
        assert!(lambda_schedule(0.5) > 0.9); // γ=10 saturates fast
    }

    #[test]
    fn schedule_is_monotone() {
        let mut prev = -1.0;
        for i in 0..=10 {
            let l = lambda_schedule(i as f64 / 10.0);
            assert!(l >= prev);
            prev = l;
        }
    }

    #[test]
    fn reverse_negates_and_scales() {
        let g = Mat::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        let mut r = Mat::default();
        reverse_gradient_into(&g, 0.5, &mut r);
        assert_eq!(r.data, vec![-0.5, 1.0, -0.25]);
    }

    #[test]
    fn progress_is_clamped() {
        assert_eq!(lambda_schedule(-1.0), lambda_schedule(0.0));
        assert_eq!(lambda_schedule(2.0), lambda_schedule(1.0));
    }
}
