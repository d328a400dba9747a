//! Portable word-slice loops shared by the bit sets, the compiled row
//! tables and the strided engine's non-selective sweep.
//!
//! The software analogue of a CAM row operation is a bitwise AND across a
//! whole match row, followed by the one-bit-per-word summary update (the
//! selective-precharge analogue) and a popcount. The simulator's hot
//! loops do not sweep whole rows: they visit only the words a summary
//! marks (`cama_sim`'s engine), the way CAMA precharges only the arrays
//! that hold enabled states. What is left here runs off the per-cycle
//! path — compile-time row summaries, bit-set algebra, the cycle-0
//! start-of-data probe and the naive strided baseline — as one scalar
//! loop per operation.
//!
//! Every function takes `&[u64]` word slices of any length, including
//! zero.
//!
//! # Examples
//!
//! ```
//! use cama_core::kernel;
//!
//! let words = [0b1010_u64, 0, 1];
//! let mut summary = [0_u64];
//! kernel::summarize(&words, &mut summary);
//! assert_eq!(summary, [0b101]);
//! assert_eq!(kernel::popcount(&words), 3);
//! assert!(kernel::intersects(&words, &[0b0010, 0, 0]));
//! ```

/// A one-line description of the word loops, for bench headers.
pub fn describe() -> String {
    "kernel: scalar (portable word loops)".to_string()
}

/// `dst[i] |= src[i]`.
pub fn or_into(src: &[u64], dst: &mut [u64]) {
    debug_assert_eq!(src.len(), dst.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Total set-bit count of `words`.
pub fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

/// Rebuilds the one-bit-per-word summary: bit `i` of `summary` is set
/// iff `words[i] != 0`. `summary` must hold `words.len().div_ceil(64)`
/// words (it is fully overwritten).
pub fn summarize(words: &[u64], summary: &mut [u64]) {
    debug_assert_eq!(summary.len(), words.len().div_ceil(64));
    summary.fill(0);
    for (i, &w) in words.iter().enumerate() {
        if w != 0 {
            summary[i / 64] |= 1u64 << (i % 64);
        }
    }
}

/// Fused enable sweep: `out = a & b & (c | d)`, rebuild `summary`
/// over `out`, and return the popcount of `out`.
///
/// This is one non-selective 2-stride pair cycle in a single pass:
/// both halves' match rows AND the enable vector (`dynamic | static
/// starts`) without ever materializing the OR.
pub fn and2_or2_summarize(
    a: &[u64],
    b: &[u64],
    c: &[u64],
    d: &[u64],
    out: &mut [u64],
    summary: &mut [u64],
) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    debug_assert_eq!(a.len(), d.len());
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(summary.len(), a.len().div_ceil(64));
    summary.fill(0);
    let mut count = 0u64;
    for (i, ((((o, &x), &y), &z), &e)) in out.iter_mut().zip(a).zip(b).zip(c).zip(d).enumerate() {
        let v = x & y & (z | e);
        *o = v;
        if v != 0 {
            summary[i / 64] |= 1u64 << (i % 64);
            count += v.count_ones() as u64;
        }
    }
    count
}

/// Whether `a & b` has any set bit.
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_cross_summary_word_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let words: Vec<u64> = (0..len)
                .map(|i| (i % 3 != 0) as u64 * (i as u64 + 1))
                .collect();
            let mut summary = vec![!0u64; len.div_ceil(64)];
            summarize(&words, &mut summary);
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(
                    summary[i / 64] >> (i % 64) & 1 == 1,
                    w != 0,
                    "len {len}, word {i}"
                );
            }
        }
    }

    #[test]
    fn and2_or2_is_the_fused_enable_sweep() {
        for len in [0usize, 1, 5, 64, 65] {
            let a: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let b: Vec<u64> = a.iter().map(|x| x.rotate_left(7) | 1).collect();
            let c: Vec<u64> = a.iter().map(|x| x >> 3).collect();
            let d: Vec<u64> = (0..len)
                .map(|i| if i % 4 == 0 { u64::MAX } else { 0 })
                .collect();
            let want: Vec<u64> = (0..len).map(|i| a[i] & b[i] & (c[i] | d[i])).collect();
            let mut want_summary = vec![0u64; len.div_ceil(64)];
            summarize(&want, &mut want_summary);

            let mut out = vec![!0u64; len];
            let mut summary = vec![!0u64; len.div_ceil(64)];
            let n = and2_or2_summarize(&a, &b, &c, &d, &mut out, &mut summary);
            assert_eq!(out, want, "len {len}");
            assert_eq!(summary, want_summary, "len {len}");
            assert_eq!(n, popcount(&want), "len {len}");
        }
    }
}
