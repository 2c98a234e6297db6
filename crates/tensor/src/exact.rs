//! f32 products formed exactly in f64, so subnormals cost no microcode
//! assist.
//!
//! On x86 an f32 multiply that reads or writes a subnormal takes a
//! microcode assist (about 45–60 ns on a 2-vCPU Xeon KVM guest with
//! avx512f), and DKM's attention map and its gradients hold a few percent
//! subnormals. Widening both factors to f64 makes their product exact and
//! normal: 24 + 24 significand bits fit in f64's 53, and the smallest
//! product, 2^-298, is far above f64's smallest normal. Rounding it once
//! to f32 therefore gives the bits of the f32 product `x * y`: the same
//! value, the same signed zero, the same infinity, NaN when it is NaN.
//! On that CPU the widening, the f64 multiply and the narrowing to a
//! subnormal f32 take no assist, and neither do f32 adds.
//!
//! LLVM knows the same fact: when optimising, it folds
//! `(x as f64 * y as f64) as f32` back into an f32 multiply. So one factor
//! must reach the multiply as an f64 the optimiser cannot trace back to an
//! f32: a scalar widened once through `opaque`, or a slice widened once
//! through [`widen`] or [`widen_into`].

use std::hint::black_box;

/// `x` widened to f64, hidden from the optimiser, so that [`mul`] by it
/// stays an f64 multiply.
#[inline]
pub(crate) fn opaque(x: f32) -> f64 {
    black_box(f64::from(x))
}

/// `v` widened to f64, element by element, hidden from the optimiser.
pub fn widen(v: &[f32]) -> Vec<f64> {
    black_box(v.iter().map(|&x| f64::from(x)).collect())
}

/// [`widen`] into a reused buffer: `buf` is cleared, filled with `v`
/// widened and returned.
pub fn widen_into<'a>(buf: &'a mut Vec<f64>, v: &[f32]) -> &'a [f64] {
    buf.clear();
    buf.extend(v.iter().map(|&x| f64::from(x)));
    black_box(buf.as_mut_slice())
}

/// `x · y` rounded once to f32: bit for bit the f32 product of `x` and the
/// f32 that `y` widens, with no assist when either or both are subnormal.
#[inline(always)]
pub fn mul(x: f32, y: f64) -> f32 {
    (f64::from(x) * y) as f32
}

/// A factor a multiply body reads: f32 for the plain body, its [`widen`]ed
/// copy for the exact one. Both give the bits of the f32 product.
pub(crate) trait Factor: Copy + Send + Sync {
    /// `a · self`, rounded to f32.
    fn times(self, a: f32) -> f32;
}

impl Factor for f32 {
    #[inline(always)]
    fn times(self, a: f32) -> f32 {
        a * self
    }
}

impl Factor for f64 {
    #[inline(always)]
    fn times(self, a: f32) -> f32 {
        mul(a, self)
    }
}

/// Elements [`smallest_magnitude`] scans between checks for a subnormal.
const SCAN_CHUNK: usize = 256;

/// The smallest nonzero magnitude in `v` (`+inf` when `v` holds only
/// zeros), or, as soon as a chunk holds one, some subnormal magnitude.
///
/// Each chunk is one lane-parallel integer pass: a magnitude's bits minus
/// one wrap a zero to `u32::MAX`, so their minimum is the smallest nonzero
/// magnitude's bits minus one, and no float op reads a subnormal.
fn smallest_magnitude(v: &[f32]) -> f32 {
    let subnormal_below = f32::MIN_POSITIVE.to_bits() - 1;
    let mut least = u32::MAX;
    for chunk in v.chunks(SCAN_CHUNK) {
        least = chunk.iter().fold(least, |m, &x| {
            m.min((x.to_bits() & 0x7fff_ffff).wrapping_sub(1))
        });
        if least < subnormal_below {
            break;
        }
    }
    if least == u32::MAX {
        f32::INFINITY
    } else {
        f32::from_bits(least + 1)
    }
}

/// `true` when a product of an element of `a` and an element of `b` can
/// read or write a subnormal: when either holds a subnormal, or their
/// smallest nonzero magnitudes multiply to less than `f32::MIN_POSITIVE`.
/// Stops scanning at the first subnormal.
pub(crate) fn products_touch_subnormals(a: &[f32], b: &[f32]) -> bool {
    let x = smallest_magnitude(a);
    if x < f32::MIN_POSITIVE {
        return true;
    }
    let y = smallest_magnitude(b);
    y < f32::MIN_POSITIVE || f64::from(x) * f64::from(y) < f64::from(f32::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// `mul` by an opaque widening, against the f32 multiply. NaN payloads
    /// are not compared: only NaN-ness is specified.
    fn check(x: f32, y: f32) {
        let want = x * y;
        let got = mul(x, opaque(y));
        if want.is_nan() {
            assert!(got.is_nan(), "{x:e} · {y:e}: want NaN, got {got:e}");
        } else {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{x:e} ({:#010x}) · {y:e} ({:#010x}): want {want:e}, got {got:e}",
                x.to_bits(),
                y.to_bits()
            );
        }
        // The widened-slice route rounds the same way.
        let wide = widen(&[y]);
        assert_eq!(mul(x, wide[0]).is_nan(), want.is_nan());
        if !want.is_nan() {
            assert_eq!(mul(x, wide[0]).to_bits(), want.to_bits());
        }
    }

    /// An f32 with unbiased exponent `e` (-149..=127; below -126 it is
    /// subnormal) and mantissa bits `m`, with the given sign.
    fn with_exponent(e: i32, m: u32, negative: bool) -> f32 {
        let sign = u32::from(negative) << 31;
        let bits = if e >= -126 {
            (((e + 127) as u32) << 23) | (m & 0x7f_ffff)
        } else {
            // Subnormal: the leading one sits at bit 149 + e.
            let lead = 1u32 << (149 + e);
            lead | (m & (lead - 1))
        };
        f32::from_bits(sign | bits)
    }

    #[test]
    fn matches_the_f32_product_on_random_bit_pairs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..200_000 {
            check(f32::from_bits(rng.gen()), f32::from_bits(rng.gen()));
        }
    }

    #[test]
    fn matches_the_f32_product_on_every_exponent_pair_straddling_min_positive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for ex in -149..=127 {
            for sum in -130..=-122 {
                let ey = sum - ex;
                if !(-149..=127).contains(&ey) {
                    continue;
                }
                for trial in 0..8 {
                    let (mx, my) = match trial {
                        0 => (0, 0),
                        1 => (0x7f_ffff, 0x7f_ffff),
                        _ => (rng.gen(), rng.gen()),
                    };
                    let (sx, sy) = (trial % 2 == 1, trial % 4 >= 2);
                    check(with_exponent(ex, mx, sx), with_exponent(ey, my, sy));
                }
            }
        }
    }

    #[test]
    fn products_just_below_min_positive_round_up_to_it() {
        // 2^-63 · (1 − 2^-24)·2^-63 lies half a subnormal step below
        // 2^-126: ties-to-even rounds it up to f32::MIN_POSITIVE.
        let x = 2f32.powi(-63);
        let y = f32::from_bits(0x3f7f_ffff) * 2f32.powi(-63);
        assert_eq!(x * y, f32::MIN_POSITIVE);
        check(x, y);
        check(-x, y);
        // One step lower rounds down to the largest subnormal.
        let y = f32::from_bits(0x3f7f_fffe) * 2f32.powi(-63);
        check(x, y);
        assert!((x * y) < f32::MIN_POSITIVE);
    }

    #[test]
    fn matches_the_f32_product_on_special_values() {
        let specials = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            1.0,
            -1.5,
            3.0e-20,
            f32::MAX,
            -f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::EPSILON,
        ];
        for &x in &specials {
            for &y in &specials {
                check(x, y);
            }
        }
    }

    #[test]
    fn subnormal_times_normal_matches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for _ in 0..50_000 {
            let sub = f32::from_bits(rng.gen_range(1..0x0080_0000u32) | (rng.gen::<u32>() << 31));
            let normal = f32::from_bits(rng.gen_range(0x0080_0000..0x7f80_0000u32));
            check(sub, normal);
            check(normal, sub);
        }
    }

    #[test]
    fn smallest_magnitude_skips_zeros_and_signs() {
        assert_eq!(smallest_magnitude(&[]), f32::INFINITY);
        assert_eq!(smallest_magnitude(&[0.0, -0.0]), f32::INFINITY);
        assert_eq!(smallest_magnitude(&[0.0, -0.25, 3.0, -0.0]), 0.25);
        assert_eq!(smallest_magnitude(&[f32::NAN, 2.0]), 2.0);
        assert_eq!(smallest_magnitude(&[f32::INFINITY]), f32::INFINITY);
        let mut v = vec![1.0f32; 1000];
        v[700] = -1.0e-3;
        assert_eq!(smallest_magnitude(&v), 1.0e-3);
        v[999] = f32::from_bits(5);
        assert!(smallest_magnitude(&v) < f32::MIN_POSITIVE);
    }

    #[test]
    fn selection_rule() {
        let tiny = f32::from_bits(3); // subnormal
        assert!(products_touch_subnormals(&[1.0, tiny], &[1.0]));
        assert!(products_touch_subnormals(&[1.0], &[0.0, tiny]));
        // 0 × a subnormal still reads one.
        assert!(products_touch_subnormals(&[0.0], &[tiny]));
        // Normal operands whose smallest magnitudes multiply below 2^-126.
        assert!(products_touch_subnormals(&[1e-20, 5.0], &[1e-19]));
        // … or round up to it.
        let x = 2f32.powi(-63);
        let y = f32::from_bits(0x3f7f_ffff) * 2f32.powi(-63);
        assert!(products_touch_subnormals(&[x], &[y]));
        assert!(!products_touch_subnormals(&[x], &[x]));
        // Typical activations and weights.
        assert!(!products_touch_subnormals(
            &[0.5, -1e-6, 0.0],
            &[0.02, -3.0]
        ));
        assert!(!products_touch_subnormals(&[0.0; 4], &[1.0]));
        assert!(!products_touch_subnormals(&[], &[]));
    }
}
