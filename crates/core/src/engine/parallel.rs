//! Barrier-synchronised multi-threaded execution of the systolic machine.
//!
//! Hardware updates all cells at once; this engine approximates that by
//! giving each worker a contiguous chunk of cells. Each iteration runs in
//! three barrier-separated phases:
//!
//! 1. **compute** — every worker applies steps 1–2 to its own cells
//!    (disjoint `&mut` chunks: no sharing), publishes its chunk's last
//!    `RegBig` value as the carry into the next chunk, and adds its occupied
//!    `RegBig` count to a shared atomic;
//! 2. **shift** — after the barrier, every worker shifts its chunk right by
//!    one, pulling the carry published by its left neighbour; the global
//!    occupied count decides termination (all workers read the same value);
//! 3. **reset** — a third barrier lets the leader zero the shared counter
//!    before anyone can contribute to the next iteration.
//!
//! The engine produces *bit-identical* register evolution, iteration counts
//! and statistics to the sequential engine — asserted by tests — because
//! the machine itself is deterministic and phase order is preserved.

use crate::array::SystolicArray;
use crate::cell::{step1_order, step2_xor, OrderEvent, XorEvent};
use crate::engine::pipeline::lock;
use crate::error::SystolicError;
use crate::stats::ArrayStats;
use rle::Run;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

/// Cells below which a chunk is not worth a dedicated thread; tiny arrays
/// fall back to the sequential engine.
const MIN_CELLS_PER_THREAD: usize = 512;

/// Per-worker statistics, merged into the array's [`ArrayStats`] at the end.
#[derive(Default, Clone, Copy)]
struct LocalStats {
    swaps: u64,
    moves: u64,
    disjoint_xors: u64,
    combines: u64,
    annihilations: u64,
    run_shifts: u64,
    busy_cell_iterations: u64,
}

/// Runs the machine to termination using up to `threads` worker threads.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn run_parallel(array: &mut SystolicArray, threads: usize) -> Result<(), SystolicError> {
    assert!(threads > 0, "need at least one thread");
    let n = array.cells();
    let workers = threads.min(n.div_ceil(MIN_CELLS_PER_THREAD)).max(1);
    if workers == 1 || array.is_done() {
        // Tiny arrays, and machines that are already terminated (e.g. an
        // empty second image — nothing on the RegBig chain): the sequential
        // engine's loop is a no-op in the latter case and finalises
        // `output_runs` itself, so both paths share one write site.
        return array.run();
    }

    let bound = (array.stats().k1 + array.stats().k2) as u64;
    let chunk = n.div_ceil(workers);
    // chunks_mut may produce fewer chunks than `workers` when the division
    // is uneven; the barrier must match the number of threads that exist.
    let num_chunks = n.div_ceil(chunk);
    let barrier = Barrier::new(num_chunks);
    let occupied_total = AtomicU64::new(0);
    // carries[t] = RegBig leaving chunk t to the right this iteration.
    let carries: Vec<Mutex<Option<Run>>> = (0..num_chunks).map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<SystolicError>> = Mutex::new(None);

    let (small, big) = array.registers_mut();
    let small_chunks: Vec<&mut [Option<Run>]> = small.chunks_mut(chunk).collect();
    let big_chunks: Vec<&mut [Option<Run>]> = big.chunks_mut(chunk).collect();
    debug_assert_eq!(num_chunks, small_chunks.len());

    let mut iterations = 0u64;
    let mut locals: Vec<LocalStats> = Vec::new();

    std::thread::scope(|scope| {
        let handles: Vec<_> = small_chunks
            .into_iter()
            .zip(big_chunks)
            .enumerate()
            .map(|(t, (small_chunk, big_chunk))| {
                let barrier = &barrier;
                let occupied_total = &occupied_total;
                let carries = &carries;
                let failure = &failure;
                scope.spawn(move || {
                    worker(
                        t,
                        num_chunks,
                        n,
                        bound,
                        small_chunk,
                        big_chunk,
                        barrier,
                        occupied_total,
                        carries,
                        failure,
                    )
                })
            })
            .collect();
        for handle in handles {
            let (iters, local) = handle.join().expect("systolic worker panicked");
            iterations = iters; // every worker reports the same count
            locals.push(local);
        }
    });

    if let Some(err) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(err);
    }

    // Merge audit: on this path the array's own phase methods never ran, so
    // every per-iteration counter below is accumulated by workers *only*;
    // nothing is counted by both a worker and the array. `output_runs` is a
    // final snapshot (not a counter) and is written exactly once, here.
    let stats = array.stats_mut();
    stats.iterations += iterations;
    for l in &locals {
        stats.swaps += l.swaps;
        stats.moves += l.moves;
        stats.disjoint_xors += l.disjoint_xors;
        stats.combines += l.combines;
        stats.annihilations += l.annihilations;
        stats.run_shifts += l.run_shifts;
        stats.busy_cell_iterations += l.busy_cell_iterations;
    }
    array.set_occupied_big(0);
    let output_runs = array.views().filter(|c| c.small.is_some()).count();
    array.stats_mut().output_runs = output_runs;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn worker(
    t: usize,
    num_chunks: usize,
    total_cells: usize,
    bound: u64,
    small: &mut [Option<Run>],
    big: &mut [Option<Run>],
    barrier: &Barrier,
    occupied_total: &AtomicU64,
    carries: &[Mutex<Option<Run>>],
    failure: &Mutex<Option<SystolicError>>,
) -> (u64, LocalStats) {
    let mut local = LocalStats::default();
    let mut iterations = 0u64;
    let last_chunk = t + 1 == num_chunks;

    loop {
        // --- phase 1: steps 1 and 2 on our own cells -------------------
        let mut occupied = 0u64;
        for (s, b) in small.iter_mut().zip(big.iter_mut()) {
            match step1_order(s, b) {
                OrderEvent::Swapped => local.swaps += 1,
                OrderEvent::Moved => local.moves += 1,
                OrderEvent::None => {}
            }
            match step2_xor(s, b) {
                XorEvent::Idle => {}
                XorEvent::Disjoint => local.disjoint_xors += 1,
                XorEvent::Combined => local.combines += 1,
                XorEvent::Annihilated => local.annihilations += 1,
            }
            if b.is_some() {
                occupied += 1;
            }
            if s.is_some() || b.is_some() {
                local.busy_cell_iterations += 1;
            }
        }
        occupied_total.fetch_add(occupied, Ordering::Relaxed);
        *lock(&carries[t]) = big.last().copied().flatten();

        barrier.wait();
        iterations += 1; // steps 1–2 of this iteration are now complete

        // --- phase 2: termination / error decision, then shift ---------
        // Every predicate below is evaluated identically by every worker
        // (shared atomics / the published carries / the common iteration
        // count), so all workers break together and the barrier stays
        // balanced.
        let total = occupied_total.load(Ordering::Relaxed);
        if total == 0 {
            break;
        }
        if iterations >= bound {
            lock(failure).get_or_insert(SystolicError::IterationBound { bound });
            break;
        }
        if lock(&carries[num_chunks - 1]).is_some() {
            // The run at the array's end would fall off — Corollary 1.2
            // says this cannot happen at default capacity. (The last chunk
            // may be shorter than the others, so the array's size must be
            // reported from the shared total, not `t * small.len()`.)
            if last_chunk {
                lock(failure).get_or_insert(SystolicError::Overflow { cells: total_cells });
            }
            break;
        }

        local.run_shifts += occupied;
        let carry_in = if t == 0 { None } else { *lock(&carries[t - 1]) };
        for i in (1..big.len()).rev() {
            big[i] = big[i - 1];
        }
        big[0] = carry_in;

        barrier.wait();

        // --- phase 3: leader resets the shared counter ------------------
        if t == 0 {
            occupied_total.store(0, Ordering::Relaxed);
        }

        barrier.wait();
    }

    (iterations, local)
}

/// One-call convenience: systolic XOR of two rows on `threads` workers,
/// returning the canonicalized difference and statistics.
pub fn systolic_xor_parallel(
    a: &rle::RleRow,
    b: &rle::RleRow,
    threads: usize,
) -> Result<(rle::RleRow, ArrayStats), SystolicError> {
    let mut array = SystolicArray::load(a, b)?;
    // Invariant checks scan the whole array per iteration and would
    // serialise the run; leave them to the sequential engine.
    array.enable_invariant_checks(false);
    run_parallel(&mut array, threads)?;
    let row = array.extract()?;
    Ok((row, *array.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rle::RleRow;

    /// Random sparse row with roughly `runs` runs.
    fn random_row(rng: &mut StdRng, width: u32, runs: usize) -> RleRow {
        let mut row = RleRow::new(width);
        let mut pos = 0u32;
        for _ in 0..runs {
            let gap = rng.gen_range(1..=6);
            let len = rng.gen_range(1..=5);
            if u64::from(pos) + u64::from(gap) + u64::from(len) >= u64::from(width) {
                break;
            }
            pos += gap;
            row.push_run(Run::new(pos, len)).unwrap();
            pos += len;
        }
        row
    }

    #[test]
    fn small_arrays_fall_back_to_sequential() {
        let a = RleRow::from_pairs(64, &[(0, 4), (10, 4)]).unwrap();
        let b = RleRow::from_pairs(64, &[(2, 4), (20, 4)]).unwrap();
        let (got, stats) = systolic_xor_parallel(&a, &b, 8).unwrap();
        assert_eq!(got, rle::ops::xor(&a, &b));
        assert!(stats.within_theorem1());
    }

    #[test]
    fn parallel_matches_sequential_on_large_inputs() {
        let mut rng = StdRng::seed_from_u64(42);
        // ~2000 runs per side → ~4000 cells → multiple real chunks.
        let width = 40_000;
        let a = random_row(&mut rng, width, 2_000);
        let b = random_row(&mut rng, width, 2_000);
        assert!(a.run_count() > 1500 && b.run_count() > 1500);

        let (seq_row, seq_stats) = crate::array::systolic_xor(&a, &b).unwrap();
        for threads in [2, 3, 4, 7] {
            let (par_row, par_stats) = systolic_xor_parallel(&a, &b, threads).unwrap();
            assert_eq!(par_row, seq_row, "threads={threads}");
            assert_eq!(
                par_stats.iterations, seq_stats.iterations,
                "threads={threads}"
            );
            assert_eq!(par_stats.swaps, seq_stats.swaps, "threads={threads}");
            assert_eq!(par_stats.moves, seq_stats.moves, "threads={threads}");
            assert_eq!(par_stats.combines, seq_stats.combines, "threads={threads}");
            assert_eq!(
                par_stats.annihilations, seq_stats.annihilations,
                "threads={threads}"
            );
            assert_eq!(
                par_stats.run_shifts, seq_stats.run_shifts,
                "threads={threads}"
            );
            assert_eq!(
                par_stats.busy_cell_iterations, seq_stats.busy_cell_iterations,
                "threads={threads}"
            );
            assert_eq!(
                par_stats.output_runs, seq_stats.output_runs,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_matches_on_highly_similar_inputs() {
        // The paper's sweet spot: nearly identical images.
        let mut rng = StdRng::seed_from_u64(7);
        let width = 100_000;
        let a = random_row(&mut rng, width, 5_000);
        let mut b_runs: Vec<Run> = a.runs().to_vec();
        b_runs.remove(1000);
        b_runs.remove(3000);
        let b = RleRow::from_runs(width, b_runs).unwrap();

        let (seq_row, seq_stats) = crate::array::systolic_xor(&a, &b).unwrap();
        let (par_row, par_stats) = systolic_xor_parallel(&a, &b, 4).unwrap();
        assert_eq!(par_row, seq_row);
        assert_eq!(par_stats.iterations, seq_stats.iterations);
        assert_eq!(par_row, rle::ops::xor(&a, &b));
    }

    #[test]
    fn randomized_parallel_cross_check() {
        let mut rng = StdRng::seed_from_u64(0xABCD);
        for case in 0..10 {
            let width = 30_000;
            let a = random_row(&mut rng, width, 1_500);
            let b = random_row(&mut rng, width, 1_500);
            let (got, stats) = systolic_xor_parallel(&a, &b, 3).unwrap();
            assert_eq!(got, rle::ops::xor(&a, &b), "case {case}");
            assert!(stats.within_theorem1(), "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let a = RleRow::new(8);
        let _ = systolic_xor_parallel(&a, &a.clone(), 0);
    }

    #[test]
    fn empty_inputs() {
        let e = RleRow::new(1024);
        let (row, stats) = systolic_xor_parallel(&e, &e.clone(), 4).unwrap();
        assert!(row.is_empty());
        assert_eq!(stats.iterations, 0);
    }
}
