//! IEEE-754 binary16 conversion.
//!
//! The reproduction stores the FP16 baseline KV cache by rounding every f32
//! through binary16, so the baseline carries exactly the precision the paper's
//! FP16 baseline would. The conversions are bit-exact (round-to-nearest-even),
//! implemented from scratch to avoid an external `half` dependency.

/// Converts an `f32` to IEEE-754 binary16 bits (round-to-nearest-even).
///
/// # Examples
///
/// ```
/// use rkvc_tensor::{f32_to_f16_bits, f16_bits_to_f32};
/// assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.0)), 1.0);
/// ```
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: preserve NaN-ness with a quiet bit.
        let nan_bit = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan_bit | ((mant >> 13) as u16 & 0x03ff);
    }

    // Re-bias exponent from 127 to 15.
    let unbiased = exp - 127;
    let half_exp = unbiased + 15;

    if half_exp >= 0x1f {
        // Overflow to infinity.
        return sign | 0x7c00;
    }

    if half_exp <= 0 {
        // Subnormal or zero in f16.
        if half_exp < -10 {
            return sign; // Rounds to zero.
        }
        // Add the implicit leading bit and shift into subnormal position.
        let mant = mant | 0x0080_0000;
        let shift = (14 - half_exp) as u32;
        let rounded = mant >> shift;
        let remainder = mant & ((1u32 << shift) - 1);
        let half_way = 1u32 << (shift - 1);
        let mut result = rounded as u16;
        if remainder > half_way || (remainder == half_way && (result & 1) == 1) {
            result += 1;
        }
        return sign | result;
    }

    // Normalized: round mantissa from 23 to 10 bits, nearest-even.
    let mut out = sign | ((half_exp as u16) << 10) | ((mant >> 13) as u16);
    let remainder = mant & 0x1fff;
    if remainder > 0x1000 || (remainder == 0x1000 && (out & 1) == 1) {
        out = out.wrapping_add(1); // May carry into exponent, which is correct.
    }
    out
}

/// Converts IEEE-754 binary16 bits to an `f32`.
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let mant = (bits & 0x03ff) as u32;

    let out = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalize.
            let mut e = 0i32;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            let m = (m & 0x03ff) << 13;
            let e = ((127 - 15 + e + 1) as u32) << 23;
            sign | e | m
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

/// Rounds an `f32` through binary16 precision and back.
///
/// This is how the FP16 baseline "stores" values: the f32 buffer holds the
/// exact value an FP16 tensor would hold. Equal, bit for bit and for every
/// `f32` (NaN payloads included), to
/// `f16_bits_to_f32(f32_to_f16_bits(value))`, but computed without leaving
/// `f32` and without a data-dependent branch, so a loop over it
/// vectorises. On the magnitude bits, by range:
///
/// * binary16 normals, `2^-14 <= |x|`: integer round-to-nearest-even on
///   the 13 mantissa bits binary16 drops — a carry out of the mantissa
///   increments the exponent, which is the correctly rounded result — and
///   anything that lands on `2^16` or above (`|x| >= 65520`) is infinity;
/// * binary16 subnormals and zero, `|x| < 2^-14`: `(|x| + 0.5) - 0.5`. In
///   `[0.5, 1)` consecutive `f32` are `2^-24` apart, binary16's subnormal
///   spacing, so the hardware addition performs the round-to-nearest-even
///   and the subtraction is exact;
/// * NaN: quieted, keeping the ten payload bits binary16 has room for.
#[inline]
pub fn round_to_f16(value: f32) -> f32 {
    const EXP_MASK: u32 = 0x7f80_0000;
    const DROPPED: u32 = 0x1fff;
    let bits = value.to_bits();
    let abs = bits & 0x7fff_ffff;
    let sign = bits ^ abs;

    let even_bias = (abs >> 13) & 1;
    let normal = (abs + 0x0fff + even_bias) & !DROPPED;
    let normal = if normal >= 0x4780_0000 { EXP_MASK } else { normal };
    let subnormal = (f32::from_bits(abs) + 0.5 - 0.5).to_bits();
    let nan = (abs & !DROPPED) | 0x0040_0000;

    let rounded = if abs > EXP_MASK {
        nan
    } else if abs < 0x3880_0000 {
        subnormal
    } else {
        normal
    };
    f32::from_bits(sign | rounded)
}

/// Rounds every element of a slice through binary16 precision in place.
pub fn round_slice_to_f16(values: &mut [f32]) {
    for v in values {
        *v = round_to_f16(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let v = i as f32;
            assert_eq!(round_to_f16(v), v, "integer {i} should be exact in f16");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // f16::MAX
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(f32_to_f16_bits(1.0e6), 0x7c00);
        assert!(round_to_f16(1.0e6).is_infinite());
    }

    #[test]
    fn subnormals_round_trip() {
        // Smallest positive f16 subnormal: 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(round_to_f16(tiny), tiny);
        // Below half of the smallest subnormal rounds to zero.
        assert_eq!(round_to_f16(2.0f32.powi(-26)), 0.0);
    }

    #[test]
    fn nan_stays_nan() {
        assert!(round_to_f16(f32::NAN).is_nan());
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next f16; ties to
        // even keep 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(round_to_f16(halfway), 1.0);
        // Slightly above the halfway point rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-17);
        assert!(round_to_f16(above) > 1.0);
    }

    #[test]
    fn relative_error_is_bounded() {
        // f16 has 11 significand bits; relative error <= 2^-11 for normal range.
        let mut x = 1e-3f32;
        while x < 1e4 {
            let r = round_to_f16(x);
            assert!(((r - x) / x).abs() <= 2.0f32.powi(-11), "x={x} r={r}");
            x *= 1.37;
        }
    }

    #[test]
    fn slice_rounding_matches_scalar() {
        let mut v = vec![0.1, 0.2, 0.3, 1234.567];
        let expect: Vec<f32> = v.iter().map(|&x| round_to_f16(x)).collect();
        round_slice_to_f16(&mut v);
        assert_eq!(v, expect);
    }

    /// The packing path is the oracle of the branch-free round.
    fn assert_matches_packing(bits: u32) {
        let x = f32::from_bits(bits);
        let want = f16_bits_to_f32(f32_to_f16_bits(x)).to_bits();
        let got = round_to_f16(x).to_bits();
        assert_eq!(got, want, "f32 bits {bits:#010x} ({x:e}): got {got:#010x}, want {want:#010x}");
    }

    /// Stratified sweep: every f32 exponent (zero/subnormal and Inf/NaN
    /// included) crossed with the mantissas where the 13 dropped bits sit
    /// at, just below and just above a tie, on an even and on an odd kept
    /// bit, and where rounding carries into the exponent — plus seeded
    /// mantissas — with both signs. The slice form must agree with the
    /// scalar on the same values.
    #[test]
    fn matches_the_packing_round_trip_on_a_stratified_sweep() {
        const EDGE_MANTISSAS: [u32; 9] =
            [0, 1, 0x0fff, 0x1000, 0x1001, 0x1fff, 0x2000, 0x3000, 0x7f_ffff];
        let mut rng = crate::det::SeededRng::new(0xF16_0001);
        let mut swept = Vec::new();
        for exp in 0..=0xffu32 {
            let seeded = (0..64).map(|_| rng.next_u32() & 0x7f_ffff);
            for mant in EDGE_MANTISSAS.into_iter().chain(seeded) {
                for sign in [0u32, 0x8000_0000] {
                    swept.push(sign | exp << 23 | mant);
                }
            }
        }
        for &bits in &swept {
            assert_matches_packing(bits);
        }
        let mut values: Vec<f32> = swept.iter().map(|&b| f32::from_bits(b)).collect();
        round_slice_to_f16(&mut values);
        for (v, &bits) in values.iter().zip(&swept) {
            assert_eq!(v.to_bits(), round_to_f16(f32::from_bits(bits)).to_bits());
        }
    }

    /// The boundaries between the three ranges, by value.
    #[test]
    fn range_boundaries_round_like_binary16() {
        let p = |e: i32| 2.0f32.powi(e);
        for x in [
            0.0,
            f32::INFINITY,
            65504.0,              // f16::MAX
            65519.996,            // largest f32 below the tie: still f16::MAX
            65520.0,              // the tie to 2^16: infinity
            p(-14),               // smallest binary16 normal
            p(-14) - p(-38),      // just inside the subnormal range
            p(-14) - p(-25),      // subnormal tie that rounds up into the normals
            p(-24),               // smallest binary16 subnormal
            p(-25),               // tie between 0 and 2^-24: even is 0
            p(-25) + p(-48),      // just above it
            1.5 * p(-24),         // tie between 2^-24 and 2^-23: even is 2^-23
            f32::MIN_POSITIVE,
            f32::from_bits(1),    // smallest f32 subnormal
        ] {
            assert_matches_packing(x.to_bits());
            assert_matches_packing((-x).to_bits());
        }
        assert_eq!(round_to_f16(65519.996), 65504.0);
        assert_eq!(round_to_f16(65520.0), f32::INFINITY);
        assert_eq!(round_to_f16(-65520.0), f32::NEG_INFINITY);
        assert_eq!(round_to_f16(p(-14) - p(-25)), p(-14));
        assert_eq!(round_to_f16(p(-25)).to_bits(), 0);
        assert_eq!(round_to_f16(-p(-25)).to_bits(), 0x8000_0000);
        assert_eq!(round_to_f16(1.5 * p(-24)), p(-23));
    }

    /// Signalling and quiet NaNs come back quiet, with the ten payload
    /// bits binary16 keeps and the sign.
    #[test]
    fn nan_payloads_are_quieted_not_lost() {
        for payload in [1u32, 0x1fff, 0x2000, 0x15_4000, 0x3f_ffff, 0x40_0000, 0x40_0001, 0x7f_ffff] {
            for sign in [0u32, 0x8000_0000] {
                let bits = sign | 0x7f80_0000 | payload;
                assert_matches_packing(bits);
                let got = round_to_f16(f32::from_bits(bits)).to_bits();
                assert_eq!(got, sign | 0x7fc0_0000 | (payload & 0x007f_e000));
            }
        }
    }

    /// Every one of the 2^32 `f32` bit patterns. Seconds in release, far
    /// too slow unoptimised: gate 3 of `scripts/check_hermetic.sh` runs it
    /// with `cargo test --release -p rkvc-tensor -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn matches_the_packing_round_trip_exhaustively() {
        (0..=u32::MAX).for_each(assert_matches_packing);
    }
}
