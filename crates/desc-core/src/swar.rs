//! SWAR helpers — parallel arithmetic on bit fields packed in one
//! `u64` — shared by the word-parallel transfer kernels: the bus-invert
//! family's segment fields and zero-skipped DESC's chunk fields.

/// `(1 << bits) - 1`, for `bits` in 1..=64.
#[inline]
pub(crate) fn low_mask(bits: usize) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The low bit of each of `fields` consecutive `width`-bit fields.
pub(crate) fn field_lsbs(width: usize, fields: usize) -> u64 {
    (0..fields).fold(0, |m, f| m | 1 << (f * width))
}

/// Every other `w`-bit field of a word (fields 0, 2, 4, …), for `w` a
/// power of two up to 32: the masks of the SWAR popcount's steps.
#[inline]
pub(crate) const fn even_fields(w: usize) -> u64 {
    match w {
        1 => 0x5555_5555_5555_5555,
        2 => 0x3333_3333_3333_3333,
        4 => 0x0F0F_0F0F_0F0F_0F0F,
        8 => 0x00FF_00FF_00FF_00FF,
        16 => 0x0000_FFFF_0000_FFFF,
        _ => 0x0000_0000_FFFF_FFFF,
    }
}

/// The `width`-bit fields of `v` that hold a non-zero value, as a mask
/// of their low bits; `lsb` marks the fields. Adding each field's low
/// bits to all-ones below its top bit carries into the top bit exactly
/// when one of them is set, with no carry out of the field.
#[inline]
pub(crate) fn nonzero_fields(v: u64, width: usize, lsb: u64) -> u64 {
    let top = lsb << (width - 1);
    let body = top - lsb; // each field's bits below its top bit
    ((((v & body) + body) | v) & top) >> (width - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonzero_fields_marks_exactly_the_non_zero_fields() {
        for width in [1usize, 2, 3, 4, 8, 16, 32, 64] {
            let fields = 64 / width;
            let lsb = field_lsbs(width, fields);
            let mut state = 0x2545_F491_4F6C_DD1Du64;
            for _ in 0..200 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Zero about half the fields.
                let mut v = state;
                for f in 0..fields {
                    if (state >> (f % 64)) & 2 == 0 {
                        v &= !(low_mask(width) << (f * width));
                    }
                }
                let expected = (0..fields)
                    .filter(|f| (v >> (f * width)) & low_mask(width) != 0)
                    .fold(0u64, |m, f| m | 1 << (f * width));
                assert_eq!(nonzero_fields(v, width, lsb), expected, "width {width}, v {v:#x}");
            }
        }
    }

    #[test]
    fn even_fields_alternate() {
        for w in [1usize, 2, 4, 8, 16, 32] {
            assert_eq!(even_fields(w), field_lsbs(2 * w, 64 / (2 * w)) * low_mask(w), "w {w}");
        }
    }
}
