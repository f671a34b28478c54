//! Small checked bit-manipulation helpers shared across the kernel.

/// Mask with the low `n` bits set.
///
/// The naive `(1u64 << n) - 1` is undefined at `n == 64` (it panics in
/// debug builds and wraps to `0` — the *opposite* of the intended all-ones
/// mask — in release builds). Every "all VC slots" / "last mask word"
/// computation in the kernel funnels through this helper so radix or VC
/// growth can never silently hit that shift overflow.
///
/// # Panics
/// When `n > 64` — a caller asking for more than a `u64` holds is a logic
/// error (configs are validated to fit, see `SimConfig::validate`).
#[inline]
#[must_use]
pub fn low_bits(n: usize) -> u64 {
    assert!(n <= 64, "low_bits({n}): mask wider than u64");
    if n == 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

/// The positions of the set bits of `word`, ascending — how the phases walk
/// the router masks and the per-router VC bitmaps.
#[inline]
pub fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::{low_bits, set_bits};

    #[test]
    fn set_bits_ascend() {
        assert_eq!(set_bits(0).count(), 0);
        assert_eq!(set_bits(0b1010_0001).collect::<Vec<_>>(), [0, 5, 7]);
        assert_eq!(set_bits(u64::MAX).count(), 64);
        assert_eq!(set_bits(1 << 63).next(), Some(63));
    }

    #[test]
    fn low_bits_edge_cases() {
        assert_eq!(low_bits(0), 0);
        assert_eq!(low_bits(1), 1);
        assert_eq!(low_bits(5), 0b1_1111);
        assert_eq!(low_bits(63), u64::MAX >> 1);
        assert_eq!(low_bits(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "mask wider than u64")]
    fn low_bits_rejects_overwide_masks() {
        let _ = low_bits(65);
    }
}
