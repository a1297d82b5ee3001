//! A run-length-encoded binary image row.

use crate::error::RleError;
use crate::run::{Pixel, Run};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// One run-length-encoded row of a binary image.
///
/// Invariants (checked on construction, upheld by all mutators):
///
/// * runs are sorted by strictly increasing start,
/// * runs do not overlap (`prev.end < next.start`); adjacency
///   (`prev.end + 1 == next.start`) is allowed, matching the paper,
/// * every run lies within `[0, width)`.
///
/// A row where no two runs are adjacent is *canonical* (maximally
/// compressed); see [`RleRow::is_canonical`] and [`RleRow::canonicalize`].
pub struct RleRow {
    width: Pixel,
    runs: Vec<Run>,
    /// Lazily cached [`RleRow::signature`]; 0 means "not computed yet"
    /// (computed signatures are never 0; see [`crate::sig`]). `Relaxed`
    /// atomics suffice because racing readers compute and store the same
    /// deterministic value. The cache is *not* part of the row's identity:
    /// `Clone` copies it, but `PartialEq`/`Hash` ignore it.
    sig: AtomicU64,
}

impl Clone for RleRow {
    fn clone(&self) -> Self {
        Self {
            width: self.width,
            runs: self.runs.clone(),
            sig: AtomicU64::new(self.sig.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for RleRow {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.runs == other.runs
    }
}

impl Eq for RleRow {}

impl Hash for RleRow {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.runs.hash(state);
    }
}

impl RleRow {
    /// Creates an empty (all-background) row of the given width.
    #[must_use]
    pub fn new(width: Pixel) -> Self {
        Self {
            width,
            runs: Vec::new(),
            sig: AtomicU64::new(0),
        }
    }

    /// Creates an empty row whose run vector can hold `capacity` runs
    /// without reallocating — the seed for a reusable output buffer.
    #[must_use]
    pub fn with_capacity(width: Pixel, capacity: usize) -> Self {
        Self {
            width,
            runs: Vec::with_capacity(capacity),
            sig: AtomicU64::new(0),
        }
    }

    /// Clears the row and gives it a new width, keeping the run allocation
    /// so the row can be refilled without touching the allocator.
    pub fn reset(&mut self, width: Pixel) {
        self.width = width;
        self.runs.clear();
        *self.sig.get_mut() = 0;
    }

    /// Makes this row a copy of `src`, reusing the existing run allocation
    /// where possible (the buffer-reuse counterpart of `Clone`).
    pub fn copy_from(&mut self, src: &RleRow) {
        self.width = src.width;
        self.runs.clear();
        self.runs.extend_from_slice(&src.runs);
        // Equal content means the source's cached signature (possibly the
        // "unset" 0) is exactly right for us too.
        *self.sig.get_mut() = src.sig.load(Ordering::Relaxed);
    }

    /// Creates a row from a validated run list.
    pub fn from_runs(width: Pixel, runs: Vec<Run>) -> Result<Self, RleError> {
        Self::validate(width, &runs)?;
        Ok(Self {
            width,
            runs,
            sig: AtomicU64::new(0),
        })
    }

    /// Wraps a run list the caller has already validated (the binary
    /// decoder checks each run once as it reads it).
    pub(crate) fn from_validated_runs(width: Pixel, runs: Vec<Run>) -> Self {
        debug_assert!(Self::validate(width, &runs).is_ok());
        Self {
            width,
            runs,
            sig: AtomicU64::new(0),
        }
    }

    /// Creates a row from the paper's `(start, length)` tuple notation.
    pub fn from_pairs(width: Pixel, pairs: &[(Pixel, Pixel)]) -> Result<Self, RleError> {
        let mut runs = Vec::with_capacity(pairs.len());
        for &(start, len) in pairs {
            runs.push(Run::try_new(start, len)?);
        }
        Self::from_runs(width, runs)
    }

    /// Creates a row from an unencoded bitstring, producing a canonical
    /// encoding (this is "run-length encoding" proper).
    #[must_use]
    pub fn from_bits(bits: &[bool]) -> Self {
        let width = Pixel::try_from(bits.len()).expect("row too wide for Pixel");
        let mut runs = Vec::new();
        let mut i = 0usize;
        while i < bits.len() {
            if bits[i] {
                let start = i;
                while i < bits.len() && bits[i] {
                    i += 1;
                }
                runs.push(Run::new(start as Pixel, (i - start) as Pixel));
            } else {
                i += 1;
            }
        }
        Self {
            width,
            runs,
            sig: AtomicU64::new(0),
        }
    }

    /// Decodes to an unencoded bitstring of length `width`.
    #[must_use]
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits = vec![false; self.width as usize];
        for run in &self.runs {
            for p in run.start()..=run.end() {
                bits[p as usize] = true;
            }
        }
        bits
    }

    fn validate(width: Pixel, runs: &[Run]) -> Result<(), RleError> {
        for (index, run) in runs.iter().enumerate() {
            if u64::from(run.start()) + u64::from(run.len()) > u64::from(width) {
                return Err(RleError::RunExceedsWidth { index, width });
            }
            if index > 0 {
                let prev = &runs[index - 1];
                // Strictly increasing starts and no overlap. Adjacency
                // (next.start == prev.end + 1) is valid input per the paper.
                if run.start() <= prev.end() {
                    return Err(RleError::OutOfOrder { index });
                }
            }
        }
        Ok(())
    }

    /// Row width `b` in pixels.
    #[must_use]
    pub fn width(&self) -> Pixel {
        self.width
    }

    /// The ordered run list.
    #[must_use]
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Consumes the row, returning its run list.
    #[must_use]
    pub fn into_runs(self) -> Vec<Run> {
        self.runs
    }

    /// Number of runs (`k` in the paper's complexity analysis).
    #[must_use]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Whether the row has no foreground pixels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of foreground pixels.
    #[must_use]
    pub fn ones(&self) -> u64 {
        self.runs.iter().map(|r| u64::from(r.len())).sum()
    }

    /// Fraction of foreground pixels, in `[0, 1]`.
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.width == 0 {
            0.0
        } else {
            self.ones() as f64 / f64::from(self.width)
        }
    }

    /// Value of the pixel at position `p` (false = background).
    ///
    /// Binary-searches the run list, so `O(log k)`.
    #[must_use]
    pub fn get(&self, p: Pixel) -> bool {
        debug_assert!(
            p < self.width,
            "pixel {p} out of row of width {}",
            self.width
        );
        match self.runs.binary_search_by(|r| r.start().cmp(&p)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => self.runs[i - 1].contains(p),
        }
    }

    /// 64-bit signature of the row's canonical content (see [`crate::sig`]).
    ///
    /// Computed on first use and cached; every mutator invalidates the
    /// cache, so repeated calls on an unchanged row are one atomic load.
    /// Equal rows — including different (canonical vs non-canonical)
    /// encodings of the same bitstring — always return equal signatures,
    /// and a signature is never 0. Distinct rows collide with probability
    /// ~2⁻⁶⁴; callers that cannot tolerate that use the signature only as
    /// a prefilter (see the pipeline's `verify_signatures`).
    #[must_use]
    pub fn signature(&self) -> u64 {
        let cached = self.sig.load(Ordering::Relaxed);
        if cached != 0 {
            return cached;
        }
        let sig = crate::sig::signature_of_runs(self.width, &self.runs);
        self.sig.store(sig, Ordering::Relaxed);
        sig
    }

    /// The cached signature, if one has been computed since the last
    /// mutation. Mostly useful for tests pinning the cache discipline.
    #[must_use]
    pub fn cached_signature(&self) -> Option<u64> {
        match self.sig.load(Ordering::Relaxed) {
            0 => None,
            s => Some(s),
        }
    }

    /// Appends a run to the end of the row, validating ordering against the
    /// current last run.
    pub fn push_run(&mut self, run: Run) -> Result<(), RleError> {
        let index = self.runs.len();
        if u64::from(run.start()) + u64::from(run.len()) > u64::from(self.width) {
            return Err(RleError::RunExceedsWidth {
                index,
                width: self.width,
            });
        }
        if let Some(prev) = self.runs.last() {
            if run.start() <= prev.end() {
                return Err(RleError::OutOfOrder { index });
            }
        }
        self.runs.push(run);
        *self.sig.get_mut() = 0;
        Ok(())
    }

    /// Appends a run, merging it with the last run when they touch. Always
    /// succeeds as long as the run is in order and within the width; the
    /// result stays canonical if the row was canonical.
    pub fn push_run_coalescing(&mut self, run: Run) -> Result<(), RleError> {
        if let Some(prev) = self.runs.last_mut() {
            if run.start() < prev.start() {
                return Err(RleError::OutOfOrder {
                    index: self.runs.len(),
                });
            }
            if let Some(merged) = prev.union(&run) {
                if u64::from(merged.start()) + u64::from(merged.len()) > u64::from(self.width) {
                    return Err(RleError::RunExceedsWidth {
                        index: self.runs.len(),
                        width: self.width,
                    });
                }
                *prev = merged;
                *self.sig.get_mut() = 0;
                return Ok(());
            }
        }
        self.push_run(run)
    }

    /// Whether the encoding is maximally compressed (no two runs adjacent).
    #[must_use]
    pub fn is_canonical(&self) -> bool {
        self.runs
            .windows(2)
            .all(|w| w[0].end_exclusive() < w[1].start())
    }

    /// Merges adjacent runs in place, producing the canonical encoding.
    /// This is the "additional pass" the paper mentions at the end of §2.
    ///
    /// Returns the number of merges performed.
    ///
    /// The cached [`RleRow::signature`] survives: signatures are defined
    /// over the canonical view, so canonicalizing never changes them.
    pub fn canonicalize(&mut self) -> usize {
        crate::canonical::coalesce_in_place(&mut self.runs)
    }

    /// Returns a canonicalized copy of the row.
    #[must_use]
    pub fn canonicalized(&self) -> Self {
        let mut row = self.clone();
        row.canonicalize();
        row
    }

    /// The complement row (foreground and background exchanged).
    #[must_use]
    pub fn complement(&self) -> Self {
        crate::ops::not(self)
    }

    /// Iterator over positions of all foreground pixels.
    pub fn iter_ones(&self) -> impl Iterator<Item = Pixel> + '_ {
        self.runs.iter().flat_map(|r| r.start()..=r.end())
    }

    /// Extracts the window `[start, start + len)` as a new row of width
    /// `len`, with run positions rebased to the window. Runs straddling the
    /// window edges are clipped. The window is clamped to the row, so a
    /// window reaching past the end simply yields trailing background.
    #[must_use]
    pub fn crop(&self, start: Pixel, len: Pixel) -> RleRow {
        let mut out = RleRow::new(len);
        if len == 0 || start >= self.width {
            return out;
        }
        let end = start.saturating_add(len - 1).min(self.width - 1);
        for run in &self.runs {
            if run.end() < start {
                continue;
            }
            if run.start() > end {
                break;
            }
            let s = run.start().max(start);
            let e = run.end().min(end);
            out.push_run(Run::from_bounds(s - start, e - start))
                .expect("cropped runs stay ordered");
        }
        out
    }

    /// Rebuilds a row from runs that are sorted but possibly adjacent or
    /// overlapping, merging as needed. Useful for constructing rows from
    /// noisy generators. Runs must still be sorted by start.
    pub fn from_sorted_merging(width: Pixel, runs: Vec<Run>) -> Result<Self, RleError> {
        let mut row = RleRow::new(width);
        for (index, run) in runs.into_iter().enumerate() {
            if let Some(prev) = row.runs.last_mut() {
                if run.start() < prev.start() {
                    return Err(RleError::OutOfOrder { index });
                }
                if run.start() <= prev.end_exclusive() {
                    // Overlapping or adjacent: extend.
                    let merged = prev.hull(&run);
                    if u64::from(merged.start()) + u64::from(merged.len()) > u64::from(width) {
                        return Err(RleError::RunExceedsWidth { index, width });
                    }
                    *prev = merged;
                    continue;
                }
            }
            if u64::from(run.start()) + u64::from(run.len()) > u64::from(width) {
                return Err(RleError::RunExceedsWidth { index, width });
            }
            row.runs.push(run);
        }
        Ok(row)
    }
}

impl fmt::Debug for RleRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RleRow[w={}; ", self.width)?;
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{run:?}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pairs: &[(Pixel, Pixel)]) -> RleRow {
        RleRow::from_pairs(64, pairs).unwrap()
    }

    #[test]
    fn empty_row() {
        let r = RleRow::new(10);
        assert!(r.is_empty());
        assert_eq!(r.run_count(), 0);
        assert_eq!(r.ones(), 0);
        assert_eq!(r.density(), 0.0);
        assert_eq!(r.to_bits(), vec![false; 10]);
        assert!(r.is_canonical());
    }

    #[test]
    fn from_pairs_valid() {
        let r = row(&[(3, 4), (8, 5), (15, 5)]);
        assert_eq!(r.run_count(), 3);
        assert_eq!(r.ones(), 14);
    }

    #[test]
    fn adjacent_runs_are_valid_but_not_canonical() {
        // Paper: "it is permissible, in general, for two intervals in a
        // single bitstring to be directly adjacent".
        let r = row(&[(3, 4), (7, 2)]);
        assert!(!r.is_canonical());
        let mut c = r.clone();
        assert_eq!(c.canonicalize(), 1);
        assert_eq!(c.runs(), &[Run::new(3, 6)]);
        assert!(c.is_canonical());
    }

    #[test]
    fn overlapping_runs_rejected() {
        assert_eq!(
            RleRow::from_pairs(64, &[(3, 4), (6, 2)]),
            Err(RleError::OutOfOrder { index: 1 })
        );
    }

    #[test]
    fn out_of_order_runs_rejected() {
        assert_eq!(
            RleRow::from_pairs(64, &[(10, 2), (3, 2)]),
            Err(RleError::OutOfOrder { index: 1 })
        );
        // Equal starts are also rejected (not strictly increasing).
        assert_eq!(
            RleRow::from_pairs(64, &[(10, 2), (10, 4)]),
            Err(RleError::OutOfOrder { index: 1 })
        );
    }

    #[test]
    fn run_past_width_rejected() {
        assert_eq!(
            RleRow::from_pairs(16, &[(14, 3)]),
            Err(RleError::RunExceedsWidth {
                index: 0,
                width: 16
            })
        );
        // Run ending exactly at width-1 is fine.
        assert!(RleRow::from_pairs(16, &[(14, 2)]).is_ok());
    }

    #[test]
    fn bits_round_trip() {
        let r = row(&[(0, 1), (2, 3), (10, 4), (63, 1)]);
        let bits = r.to_bits();
        assert_eq!(bits.len(), 64);
        let back = RleRow::from_bits(&bits);
        assert_eq!(back, r);
    }

    #[test]
    fn from_bits_produces_canonical() {
        let mut bits = vec![false; 20];
        for p in [1, 2, 3, 5, 6, 19] {
            bits[p] = true;
        }
        let r = RleRow::from_bits(&bits);
        assert!(r.is_canonical());
        assert_eq!(r.runs(), &[Run::new(1, 3), Run::new(5, 2), Run::new(19, 1)]);
    }

    #[test]
    fn get_binary_search() {
        let r = row(&[(3, 4), (10, 1), (20, 5)]);
        let bits = r.to_bits();
        for p in 0..64u32 {
            assert_eq!(r.get(p), bits[p as usize], "pixel {p}");
        }
    }

    #[test]
    fn push_run_validates() {
        let mut r = RleRow::new(32);
        r.push_run(Run::new(0, 4)).unwrap();
        assert_eq!(
            r.push_run(Run::new(2, 2)),
            Err(RleError::OutOfOrder { index: 1 })
        );
        r.push_run(Run::new(4, 2)).unwrap(); // adjacency ok
        assert_eq!(
            r.push_run(Run::new(30, 4)),
            Err(RleError::RunExceedsWidth {
                index: 2,
                width: 32
            })
        );
    }

    #[test]
    fn push_run_coalescing_merges() {
        let mut r = RleRow::new(32);
        r.push_run_coalescing(Run::new(0, 4)).unwrap();
        r.push_run_coalescing(Run::new(4, 2)).unwrap(); // adjacent → merged
        r.push_run_coalescing(Run::new(3, 5)).unwrap(); // overlapping → merged
        assert_eq!(r.runs(), &[Run::new(0, 8)]);
        r.push_run_coalescing(Run::new(10, 2)).unwrap();
        assert_eq!(r.run_count(), 2);
        assert!(r.is_canonical());
        assert_eq!(
            r.push_run_coalescing(Run::new(5, 1)),
            Err(RleError::OutOfOrder { index: 2 })
        );
    }

    #[test]
    fn from_sorted_merging_handles_overlaps() {
        let runs = vec![
            Run::new(0, 5),
            Run::new(3, 4),
            Run::new(7, 1),
            Run::new(20, 2),
        ];
        let r = RleRow::from_sorted_merging(32, runs).unwrap();
        assert_eq!(r.runs(), &[Run::new(0, 8), Run::new(20, 2)]);
    }

    #[test]
    fn crop_windows() {
        let r = row(&[(3, 4), (10, 5), (30, 10)]); // 3..6, 10..14, 30..39
                                                   // Window fully containing a run.
        assert_eq!(r.crop(2, 8).runs(), &[Run::new(1, 4)]);
        // Window clipping both sides of a run.
        assert_eq!(r.crop(11, 2).runs(), &[Run::new(0, 2)]);
        // Window spanning multiple runs.
        let w = r.crop(5, 10); // pixels 5..14
        assert_eq!(w.runs(), &[Run::new(0, 2), Run::new(5, 5)]);
        // Empty window region.
        assert!(r.crop(20, 5).is_empty());
        // Window past the end clamps.
        assert_eq!(r.crop(38, 10).runs(), &[Run::new(0, 2)]);
        assert_eq!(r.crop(38, 10).width(), 10);
        // Degenerate windows.
        assert!(r.crop(0, 0).is_empty());
        assert!(r.crop(64, 5).is_empty());
        // Crop matches bit-level slicing.
        let bits = r.to_bits();
        for (start, len) in [(0u32, 64u32), (3, 7), (9, 6), (13, 1)] {
            let want: Vec<bool> = bits[start as usize..(start + len) as usize].to_vec();
            assert_eq!(r.crop(start, len).to_bits(), want, "window ({start},{len})");
        }
    }

    #[test]
    fn reset_and_copy_from_reuse_the_allocation() {
        let mut r = RleRow::with_capacity(64, 8);
        assert_eq!(r.width(), 64);
        assert!(r.runs.capacity() >= 8);
        r.push_run(Run::new(3, 4)).unwrap();
        let cap = r.runs.capacity();
        r.reset(32);
        assert_eq!(r.width(), 32);
        assert!(r.is_empty());
        assert_eq!(r.runs.capacity(), cap);

        let src = RleRow::from_pairs(48, &[(0, 2), (10, 5)]).unwrap();
        r.copy_from(&src);
        assert_eq!(r, src);
        assert_eq!(r.runs.capacity(), cap, "copy within capacity reuses it");
    }

    #[test]
    fn iter_ones_matches_bits() {
        let r = row(&[(1, 2), (5, 1)]);
        let ones: Vec<Pixel> = r.iter_ones().collect();
        assert_eq!(ones, vec![1, 2, 5]);
    }

    #[test]
    fn density() {
        let r = RleRow::from_pairs(10, &[(0, 3)]).unwrap();
        assert!((r.density() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn signature_cache_discipline() {
        let mut r = row(&[(3, 4)]);
        assert_eq!(r.cached_signature(), None, "lazy until first use");
        let sig = r.signature();
        assert_eq!(r.cached_signature(), Some(sig));

        // Clone carries the cache; equality/hash ignore it.
        let fresh = row(&[(3, 4)]);
        assert_eq!(fresh.cached_signature(), None);
        assert_eq!(fresh, r);
        assert_eq!(r.clone().cached_signature(), Some(sig));

        // Mutators invalidate...
        r.push_run(Run::new(10, 2)).unwrap();
        assert_eq!(r.cached_signature(), None);
        let sig2 = r.signature();
        assert_ne!(sig2, sig);
        r.push_run_coalescing(Run::new(12, 1)).unwrap();
        assert_eq!(r.cached_signature(), None);
        let _ = r.signature();
        r.reset(32);
        assert_eq!(r.cached_signature(), None);

        // ...copy_from copies the source's cache verbatim...
        let src = row(&[(1, 2)]);
        let src_sig = src.signature();
        r.copy_from(&src);
        assert_eq!(r.cached_signature(), Some(src_sig));

        // ...and canonicalize preserves it (signatures are canonical-view).
        let mut nc = row(&[(3, 4), (7, 2)]);
        let nc_sig = nc.signature();
        nc.canonicalize();
        assert_eq!(nc.cached_signature(), Some(nc_sig));
        assert_eq!(nc.signature(), row(&[(3, 6)]).signature());
    }

    #[test]
    fn debug_format() {
        let r = row(&[(3, 4), (8, 5)]);
        assert_eq!(format!("{r:?}"), "RleRow[w=64; (3, 4) (8, 5)]");
    }
}
