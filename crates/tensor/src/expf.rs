//! `f32::exp` on eight lanes at a time, bit for bit.
//!
//! On x86-64 Linux with glibc, `f32::exp` calls glibc's `expf`, and on a
//! CPU with AVX2 and FMA glibc's IFUNC resolver picks its FMA build of
//! `sysdeps/ieee754/flt-32/e_expf.c` (checked on glibc 2.36 by `objdump
//! -d libm.so.6`: the resolver tests FMA and AVX2, and the body has five
//! fused multiply-adds). [`exp_lanes`] runs that algorithm, with the
//! same constants and the same five fused operations, on four f64 lanes
//! per body and two bodies per group of eight floats: where the premise
//! holds, each lane gets the bits `f32::exp` returns. NaN lanes and lanes
//! of 88.0 or more call `f32::exp` itself, and so does every other target
//! and CPU. The tests pin the body to the host's libm on every f32
//! (DESIGN.md §4).

/// Replaces each of the eight lanes of `g` by its `f32::exp`: glibc's
/// body on a CPU with AVX2 and FMA, `f32::exp` elsewhere.
#[inline(always)]
pub(crate) fn exp_lanes(g: &mut [f32; 8]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: `g` is eight floats, and the one requirement of calling
        // an `avx2,fma` target-feature function is a CPU with both,
        // detected just above.
        unsafe {
            let x = std::arch::x86_64::_mm256_loadu_ps(g.as_ptr());
            std::arch::x86_64::_mm256_storeu_ps(g.as_mut_ptr(), exp_m256(x));
        }
        return;
    }
    for x in g {
        *x = x.exp();
    }
}

/// The `f32::exp` of each of the eight lanes of `x`, for callers compiled
/// for AVX2 and FMA, into which it inlines: glibc's body where its
/// premise holds, `f32::exp` on other targets.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
pub(crate) fn exp_m256(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    return glibc_fma::exp8(x);
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        use std::arch::x86_64::*;
        let mut g = [0.0f32; 8];
        // SAFETY: `g` is eight floats.
        unsafe { _mm256_storeu_ps(g.as_mut_ptr(), x) };
        for v in &mut g {
            *v = v.exp();
        }
        // SAFETY: as above.
        unsafe { _mm256_loadu_ps(g.as_ptr()) }
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod glibc_fma {
    use std::arch::x86_64::*;

    /// `tab` of glibc's `e_exp2f_data.c`: `T[i]` is the bits of
    /// `2^(i/32)` minus `i << 47`, so `T[k % 32] + (k << 47)` is the bits
    /// of `2^(k/32)`.
    static T: [u64; 32] = [
        0x3ff0000000000000,
        0x3fefd9b0d3158574,
        0x3fefb5586cf9890f,
        0x3fef9301d0125b51,
        0x3fef72b83c7d517b,
        0x3fef54873168b9aa,
        0x3fef387a6e756238,
        0x3fef1e9df51fdee1,
        0x3fef06fe0a31b715,
        0x3feef1a7373aa9cb,
        0x3feedea64c123422,
        0x3feece086061892d,
        0x3feebfdad5362a27,
        0x3feeb42b569d4f82,
        0x3feeab07dd485429,
        0x3feea47eb03a5585,
        0x3feea09e667f3bcd,
        0x3fee9f75e8ec5f74,
        0x3feea11473eb0187,
        0x3feea589994cce13,
        0x3feeace5422aa0db,
        0x3feeb737b0cdc5e5,
        0x3feec49182a3f090,
        0x3feed503b23e255d,
        0x3feee89f995ad3ad,
        0x3feeff76f2fb5e47,
        0x3fef199bdd85529c,
        0x3fef3720dcef9069,
        0x3fef5818dcfba487,
        0x3fef7c97337b9b5f,
        0x3fefa4afa2a490da,
        0x3fefd0765b6e4540,
    ];
    /// `invln2_scaled`: 0x1.71547652b82fep5 = 32 / ln 2.
    const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
    /// `shift`: 0x1.8p52, which rounds `k` to an integer in the low bits.
    const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
    /// `poly_scaled`: `2^(r/32) ≈ C0·r³ + C1·r² + C2·r + 1`.
    const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
    const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
    const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
    /// -0x1.9fe368p6 ≈ log(2^-150): below it `expf` returns +0.0, and far
    /// below it the body's `k` wraps. From here up to -0x1.9d1d9ep6 glibc
    /// returns 2^-149 through `__math_may_uflowf`, which the body rounds
    /// to on that whole band as well (the sweep passes without a blend).
    const UFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
    /// `expf` leaves its body from here up (and on NaN).
    const BODY_BELOW: f32 = 88.0;

    /// glibc's `expf` body on four lanes, without its special cases:
    /// `k` and `r` from two fused operations on `x·32/ln 2`, the table
    /// entry for `k`, the cubic in `r` as three fused operations, and the
    /// product rounded from f64 to f32, in glibc's order.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn body(x: __m128) -> __m128 {
        let xd = _mm256_cvtps_pd(x);
        let inv_ln2_n = _mm256_set1_pd(INV_LN2_N);
        let shift = _mm256_set1_pd(SHIFT);
        let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let r = _mm256_fmsub_pd(inv_ln2_n, xd, _mm256_sub_pd(kd, shift));
        let slot = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        // SAFETY: every lane of `slot` is below 32, the length of `T`.
        let t = unsafe { _mm256_i64gather_epi64::<8>(T.as_ptr().cast(), slot) };
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(_mm256_set1_pd(C0), r, _mm256_set1_pd(C1));
        let y = _mm256_fmadd_pd(_mm256_set1_pd(C2), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, _mm256_mul_pd(r, r), y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }

    /// The `f32::exp` of each of the eight lanes of `xv` on a CPU with
    /// AVX2 and FMA: two bodies, with +0.0 blended in below [`UFLOW`]; NaN
    /// lanes and lanes of 88.0 or more call `f32::exp`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub(super) fn exp8(xv: __m256) -> __m256 {
        let y = _mm256_set_m128(
            body(_mm256_extractf128_ps::<1>(xv)),
            body(_mm256_castps256_ps128(xv)),
        );
        let y = _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(xv, _mm256_set1_ps(UFLOW)), y);
        let outside =
            _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NLT_UQ>(xv, _mm256_set1_ps(BODY_BELOW)));
        if outside == 0 {
            return y;
        }
        let (mut x, mut g) = ([0.0f32; 8], [0.0f32; 8]);
        // SAFETY: `x` and `g` are 8 floats each.
        unsafe {
            _mm256_storeu_ps(x.as_mut_ptr(), xv);
            _mm256_storeu_ps(g.as_mut_ptr(), y);
        }
        for (lane, (o, x)) in g.iter_mut().zip(x).enumerate() {
            if outside >> lane & 1 == 1 {
                *o = x.exp();
            }
        }
        // SAFETY: as above.
        unsafe { _mm256_loadu_ps(g.as_ptr()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every element of `v` by its `f32::exp`: [`exp_lanes`] on each group
    /// of eight, `f32::exp` on the tail.
    fn exp_in_place(v: &mut [f32]) {
        let (groups, tail) = v.as_chunks_mut::<8>();
        for g in groups {
            exp_lanes(g);
        }
        for x in tail {
            *x = x.exp();
        }
    }

    /// [`exp_in_place`] on `x` against `f32::exp` on each element, bit for
    /// bit, NaN payloads included.
    fn check(x: &[f32]) {
        let mut got = x.to_vec();
        exp_in_place(&mut got);
        for (&x, &got) in x.iter().zip(&got) {
            let want = x.exp();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "exp({x:e} = {:#010x}): got {got:e}, want {want:e}",
                x.to_bits()
            );
        }
    }

    /// Every f32 whose bits lie within 4096 of `centre`'s.
    fn window(centre: f32) -> Vec<f32> {
        let c = centre.to_bits();
        (c - 4096..=c + 4096).map(f32::from_bits).collect()
    }

    #[test]
    fn matches_f32_exp_on_every_4093rd_f32() {
        let x: Vec<f32> = (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect();
        check(&x);
    }

    #[test]
    fn matches_f32_exp_around_the_cut_offs() {
        for centre in [
            f32::from_bits(0xc2cf_f1b4),              // -0x1.9fe368p6: +0.0 below
            f32::from_bits(0xc2ce_8ecf),              // -0x1.9d1d9ep6: 2^-149 below
            88.0,                                     // f32::exp from here up
            f32::from_bits(0x42b1_7217),              // 0x1.62e42ep6: overflow above
            (-126.0 * std::f64::consts::LN_2) as f32, // subnormal below
        ] {
            check(&window(centre));
        }
    }

    #[test]
    fn matches_f32_exp_on_special_values_in_every_lane_and_tail() {
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc1_2345), // quiet, with a payload
            f32::from_bits(0x7f80_0001), // signalling
            f32::from_bits(0xff81_2345), // signalling, negative
            f32::from_bits(1),
            -103.5,
            -1e9,
        ];
        for len in 0..=9 {
            let base: Vec<f32> = (0..len).map(|i| -1.5 * i as f32 + 0.25).collect();
            check(&base);
            for &s in &specials {
                for pos in 0..len {
                    let mut x = base.clone();
                    x[pos] = s;
                    check(&x);
                }
            }
        }
    }

    /// The pin: the four-lane body against the host's `expf` on all 2^32
    /// f32s, on at most `available_parallelism()` threads. If it fails on a
    /// host, fix the body or narrow its premise (DESIGN.md §4).
    #[test]
    #[ignore = "all 2^32 f32s: run in release, about 20 s on 2 threads"]
    fn matches_f32_exp_on_every_f32() {
        const BLOCK: u64 = 1 << 12;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let per = (1u64 << 32).div_ceil(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    let end = ((t + 1) * per).min(1 << 32);
                    let mut x = Vec::with_capacity(BLOCK as usize);
                    for start in (t * per..end).step_by(BLOCK as usize) {
                        x.clear();
                        x.extend(
                            (start..(start + BLOCK).min(end)).map(|b| f32::from_bits(b as u32)),
                        );
                        check(&x);
                    }
                });
            }
        });
    }
}
