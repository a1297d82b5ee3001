//! Cross-engine equivalence at image granularity: the sequential streamer
//! ([`xor_image`]), the per-row thread-scope engine ([`xor_image_parallel`])
//! and the persistent worker-pool pipeline ([`DiffPipeline`]) must produce
//! bit-identical images and consistent statistics on random workloads.

mod common;

use common::rle_row;
use proptest::prelude::*;
use rle_systolic::rle::{RleImage, RleRow};
use rle_systolic::systolic_core::engine::kernel::{self, KernelScratch};
use rle_systolic::systolic_core::image::{xor_image, xor_image_parallel};
use rle_systolic::systolic_core::{
    DiffExecutorConfig, DiffPipeline, DiffPipelineConfig, Kernel, PipelineStats,
};
use rle_systolic::workload::pcb::{inspection_pair, typical_defects, PcbParams};
use rle_systolic::workload::{errors, ErrorModel, GenParams, RowGenerator};
use std::sync::Arc;

const WIDTH: u32 = 512;

fn image_pair() -> impl Strategy<Value = (RleImage, RleImage)> {
    prop::collection::vec((rle_row(WIDTH, 12, true), rle_row(WIDTH, 12, true)), 0..=12).prop_map(
        |pairs| {
            let (rows_a, rows_b): (Vec<RleRow>, Vec<RleRow>) = pairs.into_iter().unzip();
            (
                RleImage::from_rows(WIDTH, rows_a).unwrap(),
                RleImage::from_rows(WIDTH, rows_b).unwrap(),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn three_engines_are_bit_identical((a, b) in image_pair(), threads in 1usize..5) {
        let (seq, seq_stats) = xor_image(&a, &b).unwrap();
        let (par, par_stats) = xor_image_parallel(&a, &b, threads).unwrap();
        // The systolic-kernel pool runs the same cycle-accurate machine as
        // the reference engines, so its stats must agree exactly.
        let mut pool = DiffPipelineConfig::new(threads)
            .kernel(Kernel::Systolic)
            .build();
        let (pipe, pipe_stats) = pool.diff_images(&a, &b).unwrap();

        // Bit-identical output rows across all three engines.
        prop_assert_eq!(&par, &seq);
        prop_assert_eq!(&pipe, &seq);
        // And against the pure-RLE reference.
        prop_assert_eq!(&pipe, &a.xor(&b).unwrap());

        // Stats invariants: per-row counters aggregate identically no
        // matter which engine scheduled the rows.
        prop_assert_eq!(par_stats.totals, seq_stats.totals);
        prop_assert_eq!(pipe_stats.totals, seq_stats.totals);
        prop_assert_eq!(pipe_stats.max_row_iterations, seq_stats.max_row_iterations);
        prop_assert_eq!(pipe_stats.rows, a.height());
        prop_assert_eq!(pipe_stats.rows_systolic_kernel, a.height());
        prop_assert_eq!(pipe_stats.workers, threads);
        prop_assert!(pipe_stats.effective_workers <= threads);
        if a.height() > 0 {
            prop_assert!(pipe_stats.effective_workers >= 1);
        }
        // Theorem 1 holds in aggregate: total iterations never exceed the
        // summed per-row bounds.
        prop_assert!(pipe_stats.totals.within_theorem1());

        // Every kernel policy — hybrid, forced-RLE, forced-packed — is
        // bit-identical to the reference; only scheduling and per-row
        // algorithm differ.
        for kernel in [Kernel::Auto, Kernel::Rle, Kernel::Packed] {
            let mut pool = DiffPipelineConfig::new(threads).kernel(kernel).build();
            let (img, stats) = pool.diff_images(&a, &b).unwrap();
            prop_assert_eq!(&img, &seq, "kernel {:?}", kernel);
            prop_assert_eq!(stats.rows, a.height());
            // The adaptive policy only picks the packed kernel when it is
            // cheaper than the merge, so its host iteration totals stay
            // within the machine's Theorem-1 budget. (Forcing Packed on
            // sparse rows legitimately exceeds it.)
            if kernel != Kernel::Packed {
                prop_assert!(stats.totals.within_theorem1(), "kernel {:?}", kernel);
            }
        }
    }
}

#[test]
fn pipeline_is_reusable_and_stable_across_batches() {
    // One pool serving many images — the deployment shape the pipeline
    // exists for. Results must not depend on what the pool processed
    // before (register buffers are reloaded, not leaked).
    let mut pool = DiffPipeline::new(3);
    let mut gen = rle_systolic::workload::RowGenerator::new(
        rle_systolic::workload::GenParams::for_density(WIDTH, 0.3),
        42,
    );
    let images: Vec<RleImage> = (0..4).map(|_| gen.next_image(16)).collect();
    for window in images.windows(2) {
        let (expected, _) = xor_image(&window[0], &window[1]).unwrap();
        let (first, _) = pool.diff_images(&window[0], &window[1]).unwrap();
        let (second, stats) = pool.diff_images(&window[0], &window[1]).unwrap();
        assert_eq!(first, expected);
        assert_eq!(second, expected, "repeat batch on a warm pool must agree");
        assert_eq!(stats.rows, 16);
    }
}

/// The chunk-block path against a single-thread fold of
/// [`kernel::diff_row`]: for every kernel policy, worker count and pair
/// shape, `DiffExecutor::diff_pair`, `DiffPipeline::diff_images_shared`
/// and `DiffPipeline::diff_images` must produce `RleImage::xor` exactly
/// and the same row count, kernel tallies, summed statistics and slowest
/// row as the fold.
#[test]
fn chunk_blocks_match_a_single_thread_kernel_fold() {
    let pcb = inspection_pair(
        &PcbParams {
            width: 512,
            height: 96,
            ..PcbParams::default()
        },
        &typical_defects(),
        7,
    );
    let random = |height: usize, seed: u64| {
        let params = GenParams::for_density(256, 0.3);
        let a = RowGenerator::new(params, seed).next_image(height);
        let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.2), seed ^ 0xB10C);
        (a, b)
    };
    // 37 rows in chunks of ~40 runs: a prime height that no chunk count
    // divides, so the last block is short.
    let cases = [
        ("pcb", pcb, None),
        ("random", random(48, 0xD1FF), None),
        ("ragged", random(37, 0x0DD), Some(40)),
    ];
    for (name, (a, b), chunk_target) in cases {
        let expected = a.xor(&b).unwrap();
        let (a, b) = (Arc::new(a), Arc::new(b));
        for kernel in [Kernel::Auto, Kernel::Rle, Kernel::Packed, Kernel::Systolic] {
            let mut scratch = KernelScratch::new();
            let mut fold = PipelineStats::default();
            for (ra, rb) in a.rows().iter().zip(b.rows()) {
                let (_, row_stats, choice) =
                    kernel::diff_row(kernel, &mut scratch, ra, rb).unwrap();
                fold.rows += 1;
                fold.totals.absorb(&row_stats);
                fold.max_row_iterations = fold.max_row_iterations.max(row_stats.iterations);
                fold.count_kernel(choice, 1);
            }
            for threads in [1, 2, 4] {
                let exec = DiffExecutorConfig {
                    kernel,
                    chunk_target,
                    ..DiffExecutorConfig::new(threads)
                }
                .build();
                let job = exec.diff_pair(&a, &b, None).unwrap();
                let mut config = DiffPipelineConfig::new(threads).kernel(kernel);
                config.chunk_target = chunk_target;
                let mut pipeline = config.build();
                let shared = pipeline.diff_images_shared(&a, &b).unwrap();
                let owned = pipeline.diff_images(&a, &b).unwrap();
                for (front, (image, stats)) in [
                    ("diff_pair", (job.image, job.stats)),
                    ("diff_images_shared", shared),
                    ("diff_images", owned),
                ] {
                    let at = format!("{name} {kernel:?} threads={threads} {front}");
                    assert_eq!(image, expected, "{at}");
                    assert_eq!(stats.rows, fold.rows, "{at}");
                    assert_eq!(stats.totals, fold.totals, "{at}");
                    assert_eq!(stats.max_row_iterations, fold.max_row_iterations, "{at}");
                    assert_eq!(
                        [
                            stats.rows_fast_path,
                            stats.rows_rle_kernel,
                            stats.rows_packed_kernel,
                            stats.rows_systolic_kernel
                        ],
                        [
                            fold.rows_fast_path,
                            fold.rows_rle_kernel,
                            fold.rows_packed_kernel,
                            fold.rows_systolic_kernel
                        ],
                        "{at}"
                    );
                    if name == "ragged" {
                        assert!(stats.chunks > 1, "{at}: {}", stats.chunks);
                        assert_ne!(a.height() % stats.chunks, 0, "{at}");
                    }
                }
                assert_eq!(exec.in_flight(), 0);
                assert_eq!(pipeline.in_flight(), 0);
            }
        }
    }
}
