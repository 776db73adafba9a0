//! Loss functions with gradients.
//!
//! LOAM uses mean squared error for the cost-prediction loss `L_c` and
//! cross-entropy for the domain-classification loss `L_d` (Equation 1).

use crate::linear::softmax_rows_into;
use crate::mat::Mat;

/// Mean squared error over all elements. Returns the loss and writes
/// `grad = 2 (pred − target) / n` into a reusable buffer.
pub fn mse_into(pred: &Mat, target: &Mat, grad: &mut Mat) -> f32 {
    assert_eq!(pred.data.len(), target.data.len());
    let n = pred.data.len().max(1) as f32;
    grad.resize_in_place(pred.rows, pred.cols);
    let mut loss = 0.0;
    for i in 0..pred.data.len() {
        let d = pred.data[i] - target.data[i];
        loss += d * d;
        grad.data[i] = 2.0 * d / n;
    }
    loss / n
}

/// Softmax cross-entropy with integer class labels. Returns the loss and
/// writes the gradient w.r.t. the logits (already divided by batch size)
/// into a reusable buffer, computing the softmax probabilities in place
/// inside it.
pub fn cross_entropy_logits_into(logits: &Mat, labels: &[usize], grad: &mut Mat) -> f32 {
    assert_eq!(logits.rows, labels.len());
    softmax_rows_into(logits, grad);
    let n = labels.len().max(1) as f32;
    let mut loss = 0.0;
    for (r, &y) in labels.iter().enumerate() {
        let p = grad.get(r, y);
        loss -= p.max(1e-9).ln();
        grad.set(r, y, p - 1.0);
    }
    grad.scale(1.0 / n);
    loss / n
}

/// Binary classification accuracy for 2-logit outputs.
pub fn accuracy(logits: &Mat, labels: &[usize]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|(r, &y)| {
            let row = logits.row(*r);
            let pred = if row[1] > row[0] { 1 } else { 0 };
            pred == y
        })
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mse(pred: &Mat, target: &Mat) -> (f32, Mat) {
        let mut grad = Mat::default();
        let loss = mse_into(pred, target, &mut grad);
        (loss, grad)
    }

    fn cross_entropy(logits: &Mat, labels: &[usize]) -> (f32, Mat) {
        let mut grad = Mat::default();
        let loss = cross_entropy_logits_into(logits, labels, &mut grad);
        (loss, grad)
    }

    #[test]
    fn mse_zero_on_exact_match() {
        let a = Mat::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let (l, g) = mse(&a, &a);
        assert_eq!(l, 0.0);
        assert!(g.data.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let pred = Mat::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        let target = Mat::from_vec(1, 3, vec![0.0, 1.0, 0.5]);
        let (_, g) = mse(&pred, &target);
        let eps = 1e-3;
        for i in 0..3 {
            let mut p = pred.clone();
            p.data[i] += eps;
            let (lp, _) = mse(&p, &target);
            p.data[i] -= 2.0 * eps;
            let (lm, _) = mse(&p, &target);
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - g.data[i]).abs() < 1e-3, "i={i}");
        }
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let good = Mat::from_vec(1, 2, vec![-3.0, 3.0]);
        let bad = Mat::from_vec(1, 2, vec![3.0, -3.0]);
        let (lg, _) = cross_entropy(&good, &[1]);
        let (lb, _) = cross_entropy(&bad, &[1]);
        assert!(lg < 0.01);
        assert!(lb > 1.0);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Mat::from_vec(2, 2, vec![0.3, -0.7, 1.2, 0.1]);
        let labels = [1usize, 0];
        let (_, g) = cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for i in 0..4 {
            let mut l = logits.clone();
            l.data[i] += eps;
            let (lp, _) = cross_entropy(&l, &labels);
            l.data[i] -= 2.0 * eps;
            let (lm, _) = cross_entropy(&l, &labels);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - g.data[i]).abs() < 1e-3,
                "i={i}: {num} vs {}",
                g.data[i]
            );
        }
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Mat::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 2.0, -1.0]);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-12);
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-12);
    }
}
