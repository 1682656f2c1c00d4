//! The instruction sets the propagation kernels are compiled for, and the one
//! run-time choice among them.
//!
//! Each propagation kernel — the GEMM micro-kernel in [`crate::dense`], the
//! SpMM row kernel and the transposed scatter in [`crate::spmm`] — is one
//! `#[inline(always)]` body compiled three times: for the build target, under
//! `#[target_feature(enable = "avx2")]` and under
//! `#[target_feature(enable = "avx512f")]`.  The CPU's features are detected
//! once, on the first call, and pick the widest copy it runs.  The copies
//! compute the same bits: each body adds separately rounded products in a
//! fixed order, and rustc never contracts a separate `*` and `+` into a fused
//! multiply-add, whatever the enabled features allow (ARCHITECTURE.md,
//! "Propagation at the kernel tier").

use std::sync::OnceLock;

/// A compiled copy of the propagation kernels that this CPU runs.
///
/// Only [`Isa::host`] and [`Isa::each_copy`] build one, after detecting the
/// instruction set it names, so holding an `Isa` proves the CPU can execute
/// its copy: that is what the kernels' `unsafe` calls rest on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Isa(Level);

/// The instruction set a copy is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    /// The build target (baseline x86-64 is SSE2).
    Portable,
    /// AVX2: 4-lane `ymm` registers.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F: 8-lane `zmm` registers.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Level {
    /// Every level, narrowest first.
    #[cfg(target_arch = "x86_64")]
    const ALL: [Level; 3] = [Level::Portable, Level::Avx2, Level::Avx512];
    #[cfg(not(target_arch = "x86_64"))]
    const ALL: [Level; 1] = [Level::Portable];

    /// Whether this CPU executes the level's instructions.
    fn runs_here(self) -> bool {
        match self {
            Level::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => is_x86_feature_detected!("avx512f"),
        }
    }
}

impl Isa {
    /// The widest copy this CPU runs, detected on the first call.
    pub(crate) fn host() -> Isa {
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(|| {
            let widest = Level::ALL.into_iter().rev().find(|level| level.runs_here());
            Isa(widest.unwrap_or(Level::Portable))
        })
    }

    /// The instruction set of this copy.
    pub(crate) fn level(self) -> Level {
        self.0
    }

    /// Every copy this CPU runs, narrowest first; prints each copy it skips.
    #[cfg(test)]
    pub(crate) fn each_copy() -> Vec<Isa> {
        Level::ALL
            .into_iter()
            .filter(|&level| {
                let runs = level.runs_here();
                if !runs {
                    println!("skipped the {level:?} copy: this CPU lacks its instruction set");
                }
                runs
            })
            .map(Isa)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_host_copy_is_the_widest_runnable_one() {
        let copies = Isa::each_copy();
        assert_eq!(copies[0].level(), Level::Portable);
        assert_eq!(copies.last(), Some(&Isa::host()));
    }
}
