//! One source, three compilations: how `gemm` and `elementwise` run at the
//! host's vector width without a build flag.
//!
//! A kernel is a plain-Rust body. [`per_isa!`] emits it once per [`Isa`] —
//! for the baseline instruction set, under `#[target_feature(enable =
//! "avx2")]` and under the AVX-512 features — and the dispatched function
//! runs the widest build [`Isa::active`] found on this processor. Rust never
//! contracts `a * b + c` into a fused multiply-add (enabling `avx512f` makes
//! the instruction available, nothing emits it) and never reassociates float
//! arithmetic, so all three compilations perform the same IEEE operations in
//! the same order and agree bit for bit; each kernel's tests assert it, one
//! build at a time, through `name_with(isa, ..)`.

use std::sync::OnceLock;

/// An instruction set a kernel is compiled for, narrowest first: a
/// processor that runs one runs every one before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// What the target guarantees (SSE2 on x86-64).
    Baseline,
    /// 8-lane vectors, 16 vector registers.
    Avx2,
    /// 16-lane vectors, 32 vector registers (`avx512f`, `vl`, `dq`, `bw`).
    Avx512,
}

impl Isa {
    /// Every instruction set, narrowest first.
    pub const ALL: [Isa; 3] = [Isa::Baseline, Isa::Avx2, Isa::Avx512];

    /// The widest instruction set this processor runs: the one the
    /// dispatched kernels use. Detected once.
    pub fn active() -> Isa {
        static ACTIVE: OnceLock<Isa> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                // Exactly the features `per_isa!` enables for each build.
                let avx2 = has!("avx2");
                let avx512 =
                    has!("avx512f") && has!("avx512vl") && has!("avx512dq") && has!("avx512bw");
                if avx2 && avx512 {
                    return Isa::Avx512;
                }
                if avx2 {
                    return Isa::Avx2;
                }
            }
            Isa::Baseline
        })
    }

    /// The instruction sets this processor runs, narrowest first.
    pub fn available() -> impl Iterator<Item = Isa> {
        Isa::ALL.into_iter().filter(|&isa| isa <= Isa::active())
    }

    /// `"baseline"`, `"avx2"` or `"avx512"`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

/// Declares kernels whose body is compiled once per [`Isa`].
///
/// `fn name, name_with(..)` declares a pair: `name_with(isa, ..)` runs the
/// build for `isa`, which this processor must run, and `name(..)` the build
/// for [`Isa::active`]. `fn name_with[ISA](..)` declares the named-build
/// function alone, for a kernel whose caller lays data out for one build:
/// its body sees `const ISA: Isa`, the instruction set that copy of it is
/// compiled for.
macro_rules! per_isa {
    ($(
        $(#[$meta:meta])*
        $vis:vis fn $name:ident, $with:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    )*) => {$(
        $(#[$meta])*
        #[inline]
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            $with($crate::simd::Isa::active(), $($arg),*)
        }

        $crate::simd::per_isa! {
            #[doc = concat!(
                "[`", stringify!($name), "`] as compiled for `isa`: the same operations ",
                "in the same order, the same bits."
            )]
            $vis fn $with[_ISA]($($arg: $ty),*) $(-> $ret)? $body
        }
    )*};
    (
        $(#[$meta:meta])*
        $vis:vis fn $with:ident[$isa:ident]($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$meta])*
        ///
        /// # Panics
        /// If this processor does not run `isa`.
        $vis fn $with(isa: $crate::simd::Isa, $($arg: $ty),*) $(-> $ret)? {
            use $crate::simd::Isa;
            #[inline(always)]
            fn baseline($($arg: $ty),*) $(-> $ret)? {
                const $isa: Isa = Isa::Baseline;
                $body
            }
            assert!(isa <= Isa::active(), "this processor does not run {}", isa.name());
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    #[inline(always)]
                    fn body($($arg: $ty),*) $(-> $ret)? {
                        const $isa: Isa = Isa::Avx2;
                        $body
                    }
                    body($($arg),*)
                }
                #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512bw")]
                unsafe fn avx512($($arg: $ty),*) $(-> $ret)? {
                    #[inline(always)]
                    fn body($($arg: $ty),*) $(-> $ret)? {
                        const $isa: Isa = Isa::Avx512;
                        $body
                    }
                    body($($arg),*)
                }
                // SAFETY (both arms): `isa` is no wider than `Isa::active()`,
                // which detected on this processor every feature the build
                // enables; that is all the build requires of its caller, and
                // its body is safe code, inlined.
                match isa {
                    Isa::Avx512 => return unsafe { avx512($($arg),*) },
                    Isa::Avx2 => return unsafe { avx2($($arg),*) },
                    Isa::Baseline => {}
                }
            }
            baseline($($arg),*)
        }
    };
}
pub(crate) use per_isa;

/// The builds a test loops over, reported by name once per test binary
/// (`--nocapture` shows it) so that a build this host cannot run is never
/// silently counted as passed.
#[cfg(test)]
pub(crate) fn builds_exercised() -> Vec<Isa> {
    static REPORT: std::sync::Once = std::sync::Once::new();
    let run: Vec<Isa> = Isa::available().collect();
    REPORT.call_once(|| {
        let names = |on_host: bool| -> String {
            let listed = Isa::ALL.iter().filter(|i| run.contains(i) == on_host);
            listed.map(|i| i.name()).collect::<Vec<_>>().join(", ")
        };
        println!("builds exercised: {}", names(true));
        if run.len() < Isa::ALL.len() {
            println!("builds NOT exercised (not on this host): {}", names(false));
        }
    });
    run
}
