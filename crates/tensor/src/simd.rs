//! One source, two compilations: how `gemm` and `elementwise` use wider
//! vectors without a build flag.
//!
//! A kernel is a plain-Rust body. [`dual_compiled!`] emits it once for the
//! baseline instruction set and once more under
//! `#[target_feature(enable = "avx2")]`, and picks between the two with
//! [`simd_available`]. Rust never contracts `a * b + c` into a fused
//! multiply-add and never reassociates float arithmetic, so both
//! compilations perform the same IEEE operations in the same order and
//! agree bit for bit; each kernel's tests assert it.

/// Whether the AVX2 compilation of a kernel may run on this processor.
pub(crate) fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Declares each kernel as a pair: `fn $portable` is the body compiled for
/// the baseline instruction set, `fn $name` runs the same body compiled
/// again with AVX2 where [`simd_available`] says so.
macro_rules! dual_compiled {
    ($(
        $(#[$meta:meta])*
        $vis:vis fn $name:ident, $portable:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    )*) => {$(
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $portable($($arg),*)
                }
                if $crate::simd::simd_available() {
                    // SAFETY: AVX2 was just detected on this processor,
                    // which is all `avx2` requires of its caller; its body
                    // is the safe `$portable`, inlined.
                    return unsafe { avx2($($arg),*) };
                }
            }
            $portable($($arg),*)
        }

        #[doc = concat!(
            "The body of [`", stringify!($name), "`] compiled for the baseline ",
            "instruction set: the same operations in the same order, the same bits."
        )]
        #[inline(always)]
        $vis fn $portable($($arg: $ty),*) $(-> $ret)? $body
    )*};
}
pub(crate) use dual_compiled;
