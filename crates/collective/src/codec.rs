//! The one little-endian byte codec for `f32` buffers: the socket frames
//! ([`crate::socket`]) and the checkpoint shards (`megatron_dist::checkpoint`)
//! both carry `f32`s as 4 little-endian bytes each.
//!
//! On a little-endian target an `f32` in memory already is its encoding, so
//! a whole slice crosses with one copy in either direction — no per-float
//! `to_le_bytes`/`from_le_bytes`. The crate refuses to build for a
//! big-endian target rather than keep a second path.

// A byte copy of an f32 slice is its little-endian encoding only here.
const _: () = assert!(
    cfg!(target_endian = "little"),
    "the f32 codec copies memory as little-endian bytes"
);

/// Types with no padding whose every bit pattern is a value: bytes copied
/// from any of them are always valid values of any other.
trait Plain: Copy {}
impl Plain for u8 {}
impl Plain for f32 {}

/// Append the bytes of `src` to `dst` as whole `D`s, with one copy and no
/// fill of the new elements first.
fn append_bytes<S: Plain, D: Plain>(dst: &mut Vec<D>, src: &[S]) {
    let len = std::mem::size_of_val(src);
    let size = std::mem::size_of::<D>();
    assert!(
        len.is_multiple_of(size),
        "{len} bytes are not whole elements"
    );
    let (old, added) = (dst.len(), len / size);
    dst.reserve(added);
    // SAFETY: after the `reserve`, `dst` has room for `added` more elements,
    // `len` bytes in all, past its `old` ones; `src` is readable for `len`
    // bytes; a shared and an exclusive borrow never overlap; and a byte
    // copy needs no alignment. `Plain` types have no padding, so every byte
    // read from `src` is initialised, and no invalid bit patterns, so the
    // `added` elements the copy wrote are valid `D`s before the length
    // covers them.
    unsafe {
        let end = dst.as_mut_ptr().add(old).cast::<u8>();
        std::ptr::copy_nonoverlapping(src.as_ptr().cast::<u8>(), end, len);
        dst.set_len(old + added);
    }
}

/// Append `xs` to `out` as `4 · xs.len()` little-endian bytes.
pub fn put_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    append_bytes(out, xs);
}

/// The `f32`s whose little-endian encoding is `bytes`. Panics unless the
/// length is a multiple of 4.
pub fn f32s_from(bytes: &[u8]) -> Vec<f32> {
    let mut xs = Vec::new();
    append_bytes(&mut xs, bytes);
    xs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoding the codec must keep: one `to_le_bytes` per float.
    fn reference(xs: &[f32]) -> Vec<u8> {
        xs.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    /// The values an encoding can get wrong.
    const SPECIAL: [f32; 11] = [
        f32::from_bits(0x7fc0_1234), // quiet NaN with a payload
        f32::from_bits(0xff80_0001), // negative signalling NaN
        f32::from_bits(0x7fbf_ffff), // signalling NaN, full payload
        0.0,
        -0.0,
        f32::from_bits(1),            // smallest subnormal
        -f32::from_bits(0x007f_ffff), // largest subnormal, negated
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN,
    ];

    /// `n` floats: the special values from `SPECIAL[shift]` on, then
    /// seeded bit patterns of every kind.
    fn awkward(n: usize, shift: usize) -> Vec<f32> {
        let mut x = 0x9e37_79b9u32;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                if i < SPECIAL.len() {
                    SPECIAL[(i + shift) % SPECIAL.len()]
                } else {
                    f32::from_bits(x)
                }
            })
            .collect()
    }

    #[test]
    fn bytes_are_per_float_little_endian_and_decode_to_the_same_bits() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, 3, 4097] {
            // Every special value leads the slice once, so even the short
            // lengths see them all.
            for shift in 0..SPECIAL.len() {
                let xs = awkward(n, shift);
                // After a byte already there: the encoding appends, and
                // the decoder reads an unaligned slice.
                let mut out = vec![0xAB];
                put_f32s(&mut out, &xs);
                assert_eq!(out[0], 0xAB);
                assert_eq!(out[1..], reference(&xs), "n = {n}, shift = {shift}");
                let back = f32s_from(&out[1..]);
                assert_eq!(bits(&back), bits(&xs), "n = {n}, shift = {shift}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "7 bytes are not whole elements")]
    fn a_partial_float_is_refused() {
        f32s_from(&[0; 7]);
    }
}
