//! Parameter-parity auditor.
//!
//! The crash-safe checkpoint subsystem promises *exact* resume: a run
//! interrupted at any optimizer step and restarted from its checkpoint
//! must produce bit-identical parameters to the uninterrupted run; the
//! worker pool promises that a training step leaves the same parameters
//! at any width. This module compares the parameter **values** of two
//! stores — the reference run's and the resumed (or wider) run's — and
//! reports any divergence in parameter sets, shapes, or values. Values
//! are compared through their bit patterns, so `-0.0` vs `0.0` and NaN
//! payload differences are caught too.

use crate::error::AuditError;
use turl_nn::ParamStore;

/// Summary of a successful parity check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParityReport {
    /// Number of parameters compared.
    pub n_params: usize,
    /// Total scalars compared across all parameters.
    pub n_scalars: usize,
}

/// Compare the parameter values of `reference` and `resumed` stores
/// parameter by parameter. Both stores must hold the same parameters
/// (matched by name and registration order); every pair of values must
/// agree in shape and be bit-identical element-wise (`f32::to_bits`).
pub fn check_value_parity(
    reference: &ParamStore,
    resumed: &ParamStore,
) -> Result<ParityReport, Vec<AuditError>> {
    let mut errors = Vec::new();
    if reference.len() != resumed.len() {
        errors.push(AuditError::BadConfig {
            field: "value_parity.params",
            detail: format!("stores hold {} vs {} parameters", reference.len(), resumed.len()),
        });
        return Err(errors);
    }
    let mut n_scalars = 0usize;
    for id in reference.ids() {
        let name = reference.name(id);
        if resumed.name(id) != name {
            errors.push(AuditError::BadConfig {
                field: "value_parity.names",
                detail: format!("param {id:?}: `{name}` vs `{}`", resumed.name(id)),
            });
            continue;
        }
        let (va, vb) = (reference.value(id), resumed.value(id));
        if va.shape() != vb.shape() {
            errors.push(AuditError::ShapeMismatch {
                op: "value_parity",
                shapes: vec![va.shape().to_vec(), vb.shape().to_vec()],
                detail: format!("`{name}`: reference vs resumed value shapes differ"),
            });
            continue;
        }
        for (i, (a, b)) in va.data().iter().zip(vb.data().iter()).enumerate() {
            if a.to_bits() != b.to_bits() {
                errors.push(AuditError::BadConfig {
                    field: "value_parity.values",
                    detail: format!(
                        "`{name}` element {i}: reference {a} ({:#010x}) vs resumed {b} ({:#010x})",
                        a.to_bits(),
                        b.to_bits()
                    ),
                });
                break;
            }
        }
        n_scalars += va.len();
    }
    if errors.is_empty() {
        Ok(ParityReport { n_params: reference.len(), n_scalars })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turl_tensor::Tensor;

    fn store_with_value(v: Vec<f32>) -> ParamStore {
        let mut s = ParamStore::new();
        s.register("w", Tensor::from_vec(vec![v.len()], v));
        s
    }

    #[test]
    fn identical_values_pass() {
        let a = store_with_value(vec![1.0, -2.0, 3.5]);
        let b = store_with_value(vec![1.0, -2.0, 3.5]);
        let r = check_value_parity(&a, &b).expect("identical values must pass");
        assert_eq!(r.n_params, 1);
        assert_eq!(r.n_scalars, 3);
    }

    #[test]
    fn sign_of_zero_is_not_ignored() {
        let a = store_with_value(vec![0.0]);
        let b = store_with_value(vec![-0.0]);
        let errs = check_value_parity(&a, &b).unwrap_err();
        assert!(errs[0].to_string().contains("element 0"), "{}", errs[0]);
    }

    #[test]
    fn diverging_values_are_reported() {
        let a = store_with_value(vec![1.0, 2.0]);
        let b = store_with_value(vec![1.0, 2.5]);
        let errs = check_value_parity(&a, &b).unwrap_err();
        assert!(errs[0].to_string().contains("element 1"), "{}", errs[0]);
    }

    #[test]
    fn parameter_count_mismatch_is_fatal() {
        let a = store_with_value(vec![1.0]);
        let mut b = store_with_value(vec![1.0]);
        b.register("extra", Tensor::zeros(vec![2]));
        assert!(check_value_parity(&a, &b).is_err());
    }
}
