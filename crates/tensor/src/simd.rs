//! One source, three compilations: how `gemm` and `elementwise` run at the
//! host's vector width without a build flag — and a fourth build, AMX, whose
//! `gemm` is the matrix unit's and whose element-wise kernels are AVX-512's.
//!
//! A kernel is a plain-Rust body. [`per_isa!`] emits it once per FMA
//! [`Isa`] — for the baseline instruction set, under `#[target_feature(enable
//! = "avx2,fma")]` and under the AVX-512 features plus `fma` — and the
//! dispatched function runs the widest build [`Isa::active`] found on this
//! processor; under [`Isa::Amx`] that is the AVX-512 copy, and only `gemm`
//! does anything else (the matrix unit, `crate::amx`). Rust never contracts
//! `a * b + c` into a fused multiply-add and never reassociates float
//! arithmetic: enabling `fma` makes the instruction available, and only an
//! explicit `f32::mul_add` emits it (the FMA `gemm` kernel, whose contract is
//! one fused multiply-add per bf16-rounded term). IEEE specifies both
//! exactly — `a * b + c` rounded twice, `mul_add` once, in the baseline
//! build through libm `fmaf` — so all three compilations perform the same
//! operations in the same order and agree bit for bit; each kernel's tests
//! assert it, one build at a time, through `name_with(isa, ..)`.

use std::sync::OnceLock;

/// An instruction set a kernel is compiled for, narrowest first: a
/// processor that runs one runs every one before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// What the target guarantees (SSE2 on x86-64).
    Baseline,
    /// 8-lane vectors, 16 vector registers, fused multiply-add (`avx2`,
    /// `fma`).
    Avx2,
    /// 16-lane vectors, 32 vector registers (`avx512f`, `vl`, `dq`, `bw`,
    /// and `fma`).
    Avx512,
    /// AVX-512 plus `avx512bf16` and the matrix unit (AMX-TILE, AMX-BF16),
    /// with the operating system's leave to use its tile registers. `gemm`
    /// runs `TDPBF16PS` on it; every other kernel runs the AVX-512 build.
    Amx,
}

impl Isa {
    /// Every instruction set, narrowest first.
    pub const ALL: [Isa; 4] = [Isa::Baseline, Isa::Avx2, Isa::Avx512, Isa::Amx];

    /// The widest instruction set this processor runs: the one the
    /// dispatched kernels use. Detected once, and the engine's process
    /// setup with it: the allocator policy (`keep_heap`) and, on a host
    /// with a matrix unit, the tile grant.
    pub fn active() -> Isa {
        static ACTIVE: OnceLock<Isa> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            keep_heap();
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                // Exactly the features `per_isa!` enables for each build.
                let avx2 = has!("avx2") && has!("fma");
                let avx512 =
                    has!("avx512f") && has!("avx512vl") && has!("avx512dq") && has!("avx512bw");
                if avx2 && avx512 && has!("avx512bf16") && amx_granted() {
                    return Isa::Amx;
                }
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

    /// `"baseline"`, `"avx2"`, `"avx512"` or `"amx"`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Amx => "amx",
        }
    }
}

/// Tells glibc's allocator to keep what the process frees: never give the
/// top of the heap back to the operating system, and never serve a large
/// block from an `mmap` of its own, which `free` would unmap. A training
/// step frees its activations and gradients and the next one allocates the
/// same sizes again; with the default policy the kernel hands those pages
/// back zeroed on first touch, one minor fault per page, thousands per
/// step. Kept, the freed blocks serve any later allocation, so a
/// steady-state step touches only pages the process already has. The cost
/// is that a process keeps its peak heap for the rest of its life: memory
/// freed mid-run (after a checkpoint save, say) is reused by the process,
/// not returned.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_heap() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only sets allocator parameters; it is thread-safe
    // and touches no memory of the caller.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        mallopt(M_MMAP_THRESHOLD, c_int::MAX);
    }
}

/// Other allocators keep their own policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_heap() {}

/// Whether this processor has the matrix unit's tiles and bf16 products
/// (CPUID leaf 7: EDX bits 24 and 22), the operating system saves tile
/// state (XCR0 bits 17 and 18), and Linux has granted this process the
/// tile data (`arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`). The
/// grant is per process and asked for once, before the build is chosen;
/// without it the first tile instruction would kill the process.
#[cfg(target_arch = "x86_64")]
fn amx_granted() -> bool {
    use std::arch::x86_64::__cpuid_count;
    extern "C" {
        fn syscall(number: std::ffi::c_long, ...) -> std::ffi::c_long;
    }
    const SYS_ARCH_PRCTL: std::ffi::c_long = 158;
    const ARCH_REQ_XCOMP_PERM: std::ffi::c_long = 0x1023;
    const XFEATURE_XTILEDATA: std::ffi::c_long = 18;
    let leaf7 = __cpuid_count(7, 0);
    let (bf16, tile) = (leaf7.edx & (1 << 22) != 0, leaf7.edx & (1 << 24) != 0);
    let osxsave = __cpuid_count(1, 0).ecx & (1 << 27) != 0;
    if !(bf16 && tile && osxsave) {
        return false;
    }
    let (lo, _hi): (u32, u32);
    // SAFETY: `xgetbv` with ECX = 0 reads XCR0, which OSXSAVE (checked
    // above) makes readable; it touches no memory.
    unsafe {
        std::arch::asm!("xgetbv", in("ecx") 0, out("eax") lo, out("edx") _hi,
            options(nomem, nostack, preserves_flags));
    }
    if lo & (3 << 17) != 3 << 17 {
        return false;
    }
    // SAFETY: `arch_prctl` with this request reads and writes no memory of
    // this process; it returns 0 once the tile data may be used.
    unsafe { syscall(SYS_ARCH_PRCTL, ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA) == 0 }
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
                #[target_feature(enable = "avx2,fma")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    #[inline(always)]
                    fn body($($arg: $ty),*) $(-> $ret)? {
                        const $isa: Isa = Isa::Avx2;
                        $body
                    }
                    body($($arg),*)
                }
                #[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512bw,fma")]
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
                // enables (the AMX build is a superset of the AVX-512 one);
                // that is all the build requires of its caller, and its body
                // is safe code, inlined.
                match isa {
                    Isa::Amx | Isa::Avx512 => return unsafe { avx512($($arg),*) },
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
