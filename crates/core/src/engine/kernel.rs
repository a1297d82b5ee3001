//! Row-diff kernels and the adaptive selector used by the pipeline.
//!
//! The paper's sequential analysis (§2) assumes run-length processing is
//! always the right representation, but its `Θ(k1 + k2)` merge loses to a
//! plain word-wise XOR once rows get dense: a 16 384-pixel row is only 256
//! `u64` words, while a noisy scan line can easily carry thousands of runs.
//! Breuel (arXiv:0712.0121) and Ehrensperger et al. (arXiv:1504.01052)
//! document the same density-dependent crossover for RLE morphology. This
//! module packages the three in-tree ways of diffing one row pair —
//!
//! * **RLE merge** ([`rle::ops::xor_into`]): `Θ(k1 + k2)` merge iterations,
//!   allocation-free against a per-worker output buffer;
//! * **packed run-cancellation**: XOR is symmetric difference, so runs that
//!   appear identically in both rows annihilate without touching pixel
//!   data. A SIMD common-prefix scan ([`crate::engine::simd`]) cancels the
//!   long identical stretches that dominate real scan pairs; only the
//!   leftover runs are toggled into one reusable [`BitRow`] scratch, which
//!   is then re-encoded (`Θ(width/64 + k_cancelled/V + k_leftover)` for
//!   vector width `V`);
//! * **systolic simulation** ([`SystolicArray`]): the paper's cycle-accurate
//!   machine, kept for stats-exact experiments (cost ~ iterations × cells);
//!
//! — behind one [`diff_row`] entry point, plus [`Kernel::Auto`], which picks
//! per row using the calibrated crossover [`PACKED_RUNS_PER_WORD`] and
//! short-circuits trivial rows (equal → empty diff, one side empty → copy)
//! without running any kernel at all.
//!
//! Kernel selection is purely per-row (a function of the two rows and the
//! configured [`Kernel`]), never per-batch: on the multi-image executor a
//! worker interleaves chunks from unrelated jobs, and a row diffs to the
//! same bits and the same kernel choice whether its job runs alone or
//! next to a dozen others — the bit-identity half of the executor's
//! fairness/isolation proof suite leans on this.

use crate::array::SystolicArray;
use crate::engine::simd::{common_prefix_runs, SimdLevel};
use crate::error::SystolicError;
use crate::stats::ArrayStats;
use bitimg::bitrow::words_for;
use bitimg::{convert, BitRow};
use rle::RleRow;

/// Kernel selection policy for the pipeline (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Per-row choice: fast paths first, then RLE merge vs. packed words by
    /// the [`PACKED_RUNS_PER_WORD`] density crossover.
    #[default]
    Auto,
    /// Always the sequential RLE merge (the paper's §2 algorithm).
    Rle,
    /// Always decode → word-wise XOR → re-encode.
    Packed,
    /// Always the cycle-accurate systolic array simulation. Slow, but the
    /// only kernel whose [`ArrayStats`] model the paper's machine exactly.
    Systolic,
}

impl std::str::FromStr for Kernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Kernel::Auto),
            "rle" => Ok(Kernel::Rle),
            "packed" => Ok(Kernel::Packed),
            "systolic" => Ok(Kernel::Systolic),
            other => Err(format!(
                "unknown kernel {other:?} (expected auto, rle, packed or systolic)"
            )),
        }
    }
}

/// What [`diff_row`] actually ran for one row — recorded per row in
/// [`crate::stats::PipelineStats`] so the selector's behaviour is
/// observable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// Trivial row short-circuited: equal inputs (empty diff) or an empty
    /// side (canonicalized copy). No kernel ran.
    FastPath,
    /// The sequential RLE merge.
    Rle,
    /// Decode → word XOR → re-encode.
    Packed,
    /// The systolic array simulation.
    Systolic,
}

impl KernelChoice {
    /// Every choice, in discriminant order (the index of a per-kernel
    /// tally such as [`crate::engine::executor::ChunkOutcome::kernels`]).
    pub const ALL: [KernelChoice; 4] = [Self::FastPath, Self::Rle, Self::Packed, Self::Systolic];
}

/// `Auto` switches from the RLE merge to the packed kernel when
/// `k1 + k2 > PACKED_RUNS_PER_WORD * ceil(width / 64)`.
///
/// Calibration (see DESIGN.md "Hot path & kernel selection"): the merge
/// costs ~`k1 + k2` branchy iterations; the run-cancellation packed kernel
/// costs `Θ(width/64 + k_cancelled/V + k_leftover)`, where the cancelled
/// fraction is unknowable from `k1 + k2` alone. Re-measured on 16 384-px
/// rows with the SIMD cancellation kernel: on realistic pairs (similar
/// scans, ~1 % row errors — the paper's workload) packed wins from roughly
/// one run per word upward and by 3–4× in dense territory; on adversarial
/// pairs where nothing cancels, the merge wins at every density. At two
/// runs per word those risks are symmetric (~2× either way), so the factor
/// stays the balanced middle. It also guarantees that an auto-chosen
/// packed kernel reports `iterations < (k1 + k2) / 2`, keeping every auto
/// row within the paper's Theorem-1 budget of `k1 + k2`.
pub const PACKED_RUNS_PER_WORD: usize = 2;

/// Per-worker reusable buffers: one dense scratch row for the packed
/// kernel, one output row shared by all kernels, the lazily-built systolic
/// array, and the SIMD dispatch level the packed kernel's prefix scan runs
/// at. In steady state a worker's row diffs allocate only the compact
/// clone of each result row.
#[derive(Debug)]
pub struct KernelScratch {
    dense: BitRow,
    out: RleRow,
    array: Option<SystolicArray>,
    simd: SimdLevel,
}

impl Default for KernelScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelScratch {
    /// Empty scratch; buffers grow on first use and are then reused. The
    /// SIMD level comes from [`SimdLevel::default_level`] (runtime
    /// detection, overridable via `SYSTOLIC_SIMD`).
    #[must_use]
    pub fn new() -> Self {
        Self::with_simd(SimdLevel::default_level())
    }

    /// Empty scratch pinned to an explicit SIMD level (clamped to what the
    /// CPU supports, so a forced level is always executable).
    #[must_use]
    pub fn with_simd(level: SimdLevel) -> Self {
        Self {
            dense: BitRow::new(0),
            out: RleRow::new(0),
            array: None,
            simd: SimdLevel::resolve(Some(level)),
        }
    }

    /// The SIMD level the packed kernel's prefix scan dispatches at.
    #[must_use]
    pub fn simd(&self) -> SimdLevel {
        self.simd
    }

    /// Discards state that may be mid-mutation after a caught panic. The
    /// dense and output buffers are unconditionally reset per row, so only
    /// the array can hold poisoned state.
    pub fn discard_poisoned(&mut self) {
        self.array = None;
    }
}

/// Diffs one row pair with the given kernel policy, using `scratch` for
/// all intermediate state. Returns the canonical diff row, the cost
/// accounting and which kernel actually ran.
///
/// Unlike the raw kernels this is a total function over mismatched widths:
/// they surface as [`SystolicError::WidthMismatch`], never a panic, so a
/// bad row costs the pipeline one error outcome instead of a retry loop.
pub fn diff_row(
    kernel: Kernel,
    scratch: &mut KernelScratch,
    a: &RleRow,
    b: &RleRow,
) -> Result<(RleRow, ArrayStats, KernelChoice), SystolicError> {
    if a.width() != b.width() {
        return Err(SystolicError::WidthMismatch {
            left: a.width(),
            right: b.width(),
        });
    }
    match kernel {
        Kernel::Rle => Ok(rle_kernel(scratch, a, b)),
        Kernel::Packed => Ok(packed_kernel(scratch, a, b)),
        Kernel::Systolic => systolic_kernel(scratch, a, b),
        Kernel::Auto => {
            if std::ptr::eq(a, b) || a.runs() == b.runs() {
                scratch.out.reset(a.width());
                return Ok(fast_path(scratch, a, b));
            }
            if a.is_empty() || b.is_empty() {
                scratch.out.copy_from(if a.is_empty() { b } else { a });
                scratch.out.canonicalize();
                return Ok(fast_path(scratch, a, b));
            }
            let runs = a.run_count() + b.run_count();
            if runs > PACKED_RUNS_PER_WORD * words_for(a.width()) {
                Ok(packed_kernel(scratch, a, b))
            } else {
                Ok(rle_kernel(scratch, a, b))
            }
        }
    }
}

/// Shared stats skeleton for the non-systolic kernels: they model no cells,
/// swaps or shifts — only input/output sizes and an iteration count.
fn host_stats(a: &RleRow, b: &RleRow, iterations: u64, output_runs: usize) -> ArrayStats {
    ArrayStats {
        iterations,
        k1: a.run_count(),
        k2: b.run_count(),
        output_runs,
        ..ArrayStats::default()
    }
}

fn fast_path(
    scratch: &mut KernelScratch,
    a: &RleRow,
    b: &RleRow,
) -> (RleRow, ArrayStats, KernelChoice) {
    let stats = host_stats(a, b, 0, scratch.out.run_count());
    (scratch.out.clone(), stats, KernelChoice::FastPath)
}

fn rle_kernel(
    scratch: &mut KernelScratch,
    a: &RleRow,
    b: &RleRow,
) -> (RleRow, ArrayStats, KernelChoice) {
    let op = rle::ops::xor_into(a, b, &mut scratch.out);
    let stats = host_stats(a, b, op.iterations, scratch.out.run_count());
    (scratch.out.clone(), stats, KernelChoice::Rle)
}

/// The packed kernel: run-cancellation with a SIMD prefix scan.
///
/// XOR is symmetric difference, so a run that appears byte-identically in
/// both rows contributes nothing — it would be toggled twice. The scan
/// walks both sorted run lists, cancelling common prefixes at vector
/// width ([`common_prefix_runs`]); each leftover run is toggled into the
/// zeroed dense scratch with [`BitRow::toggle_range`]. Toggling is exact
/// because each side's runs are disjoint within that side (the `RleRow`
/// invariant), so a pixel is flipped once per side that covers it —
/// twice (back to 0) exactly where both rows agree. The scratch is then
/// re-encoded into canonical runs.
///
/// On near-identical dense rows (the continuous-inspection workload) this
/// replaces two full decodes — millions of branchy `set_range` calls per
/// image — with a memcmp-speed scan plus a handful of toggles around the
/// actual defects.
fn packed_kernel(
    scratch: &mut KernelScratch,
    a: &RleRow,
    b: &RleRow,
) -> (RleRow, ArrayStats, KernelChoice) {
    scratch.dense.reset(a.width());
    let (ar, br) = (a.runs(), b.runs());
    let (mut i, mut j) = (0usize, 0usize);
    while i < ar.len() || j < br.len() {
        let p = common_prefix_runs(scratch.simd, &ar[i..], &br[j..]);
        i += p;
        j += p;
        // After cancellation either one list is exhausted or the heads
        // differ; toggle the earlier-starting head and rescan (error sites
        // desynchronise the lists only locally — absolute positions mean
        // the tails match again, which the next prefix scan exploits).
        let take_a = match (ar.get(i), br.get(j)) {
            (Some(ra), Some(rb)) => ra.start() <= rb.start(),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let run = if take_a {
            let r = ar[i];
            i += 1;
            r
        } else {
            let r = br[j];
            j += 1;
            r
        };
        scratch.dense.toggle_range(run.start(), run.end());
    }
    convert::encode_row_into(&scratch.dense, &mut scratch.out);
    // One "iteration" per word of the dense scratch: the packed kernel's
    // fixed re-encode cost, directly comparable against the merge's
    // k1 + k2 (and, via the Auto crossover, always below it).
    let stats = host_stats(a, b, words_for(a.width()) as u64, scratch.out.run_count());
    (scratch.out.clone(), stats, KernelChoice::Packed)
}

fn systolic_kernel(
    scratch: &mut KernelScratch,
    a: &RleRow,
    b: &RleRow,
) -> Result<(RleRow, ArrayStats, KernelChoice), SystolicError> {
    let machine = match scratch.array.as_mut() {
        Some(machine) => {
            machine.reload(a, b)?;
            machine
        }
        None => scratch.array.insert(SystolicArray::load(a, b)?),
    };
    machine.run()?;
    Ok((machine.extract()?, *machine.stats(), KernelChoice::Systolic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rle::ops::xor;

    fn row(width: u32, pairs: &[(u32, u32)]) -> RleRow {
        RleRow::from_pairs(width, pairs).unwrap()
    }

    fn dense_row(width: u32) -> RleRow {
        // Alternating single-pixel runs: the worst case for run counts.
        let pairs: Vec<(u32, u32)> = (0..width).step_by(2).map(|p| (p, 1)).collect();
        row(width, &pairs)
    }

    #[test]
    fn all_kernels_agree_with_reference() {
        let cases = [
            (row(130, &[(0, 5), (70, 10)]), row(130, &[(3, 5), (64, 30)])),
            (dense_row(200), row(200, &[(0, 200)])),
            (row(65, &[(64, 1)]), row(65, &[(0, 1)])),
        ];
        let mut scratch = KernelScratch::new();
        for (a, b) in &cases {
            let expected = xor(a, b);
            for kernel in [Kernel::Auto, Kernel::Rle, Kernel::Packed, Kernel::Systolic] {
                let (got, stats, _) = diff_row(kernel, &mut scratch, a, b).unwrap();
                assert_eq!(got, expected, "{kernel:?}: {a:?} ^ {b:?}");
                assert_eq!(stats.k1, a.run_count());
                assert_eq!(stats.k2, b.run_count());
            }
        }
    }

    #[test]
    fn auto_fast_paths_trivial_rows() {
        let mut scratch = KernelScratch::new();
        let a = row(100, &[(5, 10)]);
        let empty = RleRow::new(100);

        let (d, stats, choice) = diff_row(Kernel::Auto, &mut scratch, &a, &a.clone()).unwrap();
        assert!(d.is_empty());
        assert_eq!((stats.iterations, choice), (0, KernelChoice::FastPath));

        let (d, _, choice) = diff_row(Kernel::Auto, &mut scratch, &a, &empty).unwrap();
        assert_eq!((d, choice), (a.clone(), KernelChoice::FastPath));
        let (d, _, choice) = diff_row(Kernel::Auto, &mut scratch, &empty, &a).unwrap();
        assert_eq!((d, choice), (a, KernelChoice::FastPath));
    }

    #[test]
    fn auto_switches_kernels_at_the_density_crossover() {
        let mut scratch = KernelScratch::new();
        // 256 px = 4 words; threshold is 8 total runs.
        let sparse = row(256, &[(0, 3), (50, 3)]);
        let sparse_b = row(256, &[(10, 3), (80, 3)]);
        let (_, _, choice) = diff_row(Kernel::Auto, &mut scratch, &sparse, &sparse_b).unwrap();
        assert_eq!(choice, KernelChoice::Rle);

        let dense_a = dense_row(256);
        let dense_b = row(256, &[(1, 254)]);
        let (_, stats, choice) = diff_row(Kernel::Auto, &mut scratch, &dense_a, &dense_b).unwrap();
        assert_eq!(choice, KernelChoice::Packed);
        assert!(
            stats.within_theorem1(),
            "auto-chosen packed stays within the k1+k2 budget"
        );
    }

    #[test]
    fn width_mismatch_is_an_error_not_a_panic() {
        let mut scratch = KernelScratch::new();
        let a = RleRow::new(10);
        let b = RleRow::new(12);
        for kernel in [Kernel::Auto, Kernel::Rle, Kernel::Packed, Kernel::Systolic] {
            assert_eq!(
                diff_row(kernel, &mut scratch, &a, &b),
                Err(SystolicError::WidthMismatch {
                    left: 10,
                    right: 12
                }),
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn kernel_parses_from_str() {
        assert_eq!("auto".parse::<Kernel>().unwrap(), Kernel::Auto);
        assert_eq!("rle".parse::<Kernel>().unwrap(), Kernel::Rle);
        assert_eq!("packed".parse::<Kernel>().unwrap(), Kernel::Packed);
        assert_eq!("systolic".parse::<Kernel>().unwrap(), Kernel::Systolic);
        assert!("warp".parse::<Kernel>().is_err());
        assert_eq!(Kernel::default(), Kernel::Auto);
    }

    #[test]
    fn zero_width_rows() {
        let mut scratch = KernelScratch::new();
        let empty = RleRow::new(0);
        for kernel in [Kernel::Auto, Kernel::Rle, Kernel::Packed, Kernel::Systolic] {
            let (d, _, _) = diff_row(kernel, &mut scratch, &empty, &empty.clone()).unwrap();
            assert_eq!(d.width(), 0);
            assert!(d.is_empty());
        }
    }
}
