//! Small dense linear algebra for GPTQ (Cholesky, triangular inverse).

/// Cholesky factor `L` (lower) of a symmetric positive-definite `a`
/// (row-major `n × n`): `a = L Lᵀ`.
///
/// Returns `None` if the matrix is not positive definite.
pub(crate) fn cholesky_lower(a: &[f32], n: usize) -> Option<Vec<f32>> {
    assert_eq!(a.len(), n * n, "matrix must be n*n");
    let mut l = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j] as f64;
            for k in 0..j {
                sum -= l[i * n + k] as f64 * l[j * n + k] as f64;
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i * n + j] = (sum.sqrt()) as f32;
            } else {
                l[i * n + j] = (sum / l[j * n + j] as f64) as f32;
            }
        }
    }
    Some(l)
}

/// Inverse of a lower-triangular matrix (forward substitution per column).
///
/// # Panics
///
/// Panics if a diagonal element is zero.
pub(crate) fn invert_lower(l: &[f32], n: usize) -> Vec<f32> {
    let mut inv = vec![0.0f32; n * n];
    for col in 0..n {
        inv[col * n + col] = 1.0 / l[col * n + col];
        for i in (col + 1)..n {
            let mut sum = 0.0f64;
            for k in col..i {
                sum += l[i * n + k] as f64 * inv[k * n + col] as f64;
            }
            assert!(l[i * n + i] != 0.0, "singular triangular matrix");
            inv[i * n + col] = (-sum / l[i * n + i] as f64) as f32;
        }
    }
    inv
}

/// Inverse of a symmetric positive-definite matrix via Cholesky:
/// `a⁻¹ = L⁻ᵀ L⁻¹`.
pub(crate) fn spd_inverse(a: &[f32], n: usize) -> Option<Vec<f32>> {
    let l = cholesky_lower(a, n)?;
    let linv = invert_lower(&l, n);
    // a^{-1}[i][j] = Σ_k linv[k][i] · linv[k][j]
    let mut inv = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = 0.0f64;
            for k in i.max(j)..n {
                sum += linv[k * n + i] as f64 * linv[k * n + j] as f64;
            }
            inv[i * n + j] = sum as f32;
            inv[j * n + i] = sum as f32;
        }
    }
    Some(inv)
}

/// `aᵀa` of an `[r, c]` matrix → `[c, c]` Gram matrix.
pub(crate) fn gram(a: &[f32], r: usize, c: usize) -> Vec<f32> {
    assert_eq!(a.len(), r * c);
    let mut g = vec![0.0f32; c * c];
    for row in a.chunks(c) {
        for i in 0..c {
            let ri = row[i];
            if ri == 0.0 {
                continue;
            }
            for j in 0..c {
                g[i * c + j] += ri * row[j];
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Multiply `[n,n]` square matrices (row-major).
    fn matmul_square(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n * n];
        for i in 0..n {
            for k in 0..n {
                let v = a[i * n + k];
                if v == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += v * b[k * n + j];
                }
            }
        }
        out
    }

    fn spd(n: usize, seed: u64) -> Vec<f32> {
        // A = B Bᵀ + n·I is SPD.
        let mut state = seed.wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let b: Vec<f32> = (0..n * n).map(|_| next()).collect();
        let mut a = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += b[i * n + k] * b[j * n + k];
                }
                a[i * n + j] = s + if i == j { n as f32 } else { 0.0 };
            }
        }
        a
    }

    #[test]
    fn cholesky_of_identity() {
        let eye = vec![1.0, 0.0, 0.0, 1.0];
        let l = cholesky_lower(&eye, 2).unwrap();
        assert_eq!(l, eye);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(cholesky_lower(&a, 2).is_none());
    }

    #[test]
    fn cholesky_reconstructs() {
        let n = 5;
        let a = spd(n, 3);
        let l = cholesky_lower(&a, n).unwrap();
        // L Lᵀ == A
        let mut lt = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                lt[i * n + j] = l[j * n + i];
            }
        }
        let rec = matmul_square(&l, &lt, n);
        for (x, y) in rec.iter().zip(&a) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn triangular_inverse() {
        let l = vec![2.0, 0.0, 1.0, 4.0];
        let inv = invert_lower(&l, 2);
        let prod = matmul_square(&l, &inv, 2);
        assert!((prod[0] - 1.0).abs() < 1e-6);
        assert!((prod[3] - 1.0).abs() < 1e-6);
        assert!(prod[1].abs() < 1e-6 && prod[2].abs() < 1e-6);
    }

    #[test]
    fn gram_is_symmetric_psd_diag() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // [3, 2]
        let g = gram(&a, 3, 2);
        assert_eq!(g.len(), 4);
        assert_eq!(g[1], g[2]);
        assert!(g[0] > 0.0 && g[3] > 0.0);
        assert_eq!(g[0], 1.0 + 9.0 + 25.0);
    }

    proptest! {
        /// spd_inverse really inverts: A·A⁻¹ ≈ I.
        #[test]
        fn prop_spd_inverse(n in 1usize..8, seed in any::<u64>()) {
            let a = spd(n, seed);
            let inv = spd_inverse(&a, n).expect("spd must factor");
            let prod = matmul_square(&a, &inv, n);
            for i in 0..n {
                for j in 0..n {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    prop_assert!((prod[i * n + j] - expect).abs() < 1e-2,
                        "prod[{i}][{j}] = {}", prod[i * n + j]);
                }
            }
        }
    }
}
