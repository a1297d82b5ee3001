//! Layer replays for the traced run.
//!
//! Some layers run where the benchmark cannot put a span around them: the
//! kernel inside executor workers, the executor inside the diffd server,
//! the proto codec inside `DiffClient::diff`. The traced run therefore
//! calls each of those layers' public functions again, on the same inputs
//! the workload just served, after the measured window, and records a
//! span around every call. Replays never overlap the measured traffic.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rle::{RleImage, RleRow};
use systolic_core::engine::kernel::{diff_row, KernelScratch};
use systolic_core::{DiffExecutorConfig, Kernel, KernelChoice, ObsConfig};

use crate::report::{Metrics, Tally};
use crate::stats::{ratio, Samples};
use crate::trace::Tracer;

/// One input pair, shared with the layers that take `Arc`s.
pub type Pair = (Arc<RleImage>, Arc<RleImage>);

/// How many times each replay walks the pairs, capped by a time budget.
const REPLAY_BUDGET: Duration = Duration::from_millis(800);

/// Repeats `pass` (one walk over the inputs) until `min_passes` ran and
/// the budget is spent, or `max_passes` ran.
fn repeat(min_passes: usize, max_passes: usize, mut pass: impl FnMut()) {
    let start = Instant::now();
    for i in 0..max_passes {
        if i >= min_passes && start.elapsed() >= REPLAY_BUDGET {
            break;
        }
        pass();
    }
}

/// Single-threaded `kernel::diff_row` over every row of every pair, with
/// the `Auto` policy the workloads use. Rows are first classified by the
/// kernel `Auto` picks, then each class is timed in bulk so the per-call
/// timer does not swamp fast-path rows. Returns the per-pair
/// single-threaded time in µs (the executor-overhead denominator).
pub fn kernel(pairs: &[Pair], tr: &mut Tracer, m: &mut Metrics, tally: &mut Tally) -> Samples {
    let mut scratch = KernelScratch::new();
    let mut class_rows: [Vec<(&RleRow, &RleRow)>; 3] = Default::default();
    let (mut runs_in, mut runs_out) = (0u64, 0u64);
    for (a, b) in pairs {
        for (ra, rb) in a.rows().iter().zip(b.rows()) {
            let Ok((row, _, choice)) = diff_row(Kernel::Auto, &mut scratch, ra, rb) else {
                tally.wrong("kernel replay rejected a row pair");
                continue;
            };
            if row != rle::ops::xor(ra, rb) {
                tally.wrong("kernel replay row differs from the reference XOR");
            }
            runs_in += (ra.run_count() + rb.run_count()) as u64;
            runs_out += row.run_count() as u64;
            let class = match choice {
                KernelChoice::Packed => 0,
                KernelChoice::Rle => 1,
                KernelChoice::FastPath => 2,
                KernelChoice::Systolic => unreachable!("Auto never picks the systolic kernel"),
            };
            class_rows[class].push((ra, rb));
        }
    }
    let mut class_ns = [Samples::default(), Samples::default(), Samples::default()];
    let mut pair_us = Samples::default();
    repeat(3, 200, || {
        for (i, rows) in class_rows.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let t0 = Instant::now();
            for (ra, rb) in rows {
                let out = diff_row(Kernel::Auto, &mut scratch, ra, rb);
                std::hint::black_box(&out);
            }
            let end = Instant::now();
            tr.record("kernel.diff_row_batch", None, i as u64, t0, end);
            class_ns[i].push((end - t0).as_secs_f64() * 1e9 / rows.len() as f64);
        }
        for (p, (a, b)) in pairs.iter().enumerate() {
            let t0 = Instant::now();
            for (ra, rb) in a.rows().iter().zip(b.rows()) {
                let out = diff_row(Kernel::Auto, &mut scratch, ra, rb);
                std::hint::black_box(&out);
            }
            let end = Instant::now();
            tr.record("kernel.diff_pair_rows", None, p as u64, t0, end);
            pair_us.push_us(end - t0);
        }
    });
    let n_pairs = pairs.len().max(1) as f64;
    m.set("kernel.packed_ns_per_row", class_ns[0].p50());
    m.set("kernel.rle_ns_per_row", class_ns[1].p50());
    m.set("kernel.fast_ns_per_row", class_ns[2].p50());
    m.set("kernel.runs_in", runs_in as f64 / n_pairs);
    m.set("kernel.runs_out", runs_out as f64 / n_pairs);
    // Input runs consumed per µs of single-threaded kernel time.
    let passes = pair_us.len() as f64 / n_pairs;
    m.set(
        "kernel.runs_per_us",
        ratio(runs_in as f64 * passes, pair_us.sum()),
    );
    pair_us
}

/// `DiffExecutor::diff_pair` on every pair, alternating an observed
/// executor (as diffd runs it) with a plain one, both with `threads`
/// workers. `kernel_pair_us` is the single-threaded kernel time per pair
/// from [`kernel`], the denominator of `executor.overhead_ratio`.
pub fn executor(
    pairs: &[Pair],
    expected: &[RleImage],
    threads: usize,
    kernel_pair_us: &Samples,
    tr: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let observed = DiffExecutorConfig {
        threads,
        observe: Some(ObsConfig::default()),
        ..DiffExecutorConfig::default()
    }
    .build();
    let plain = DiffExecutorConfig::new(threads).build();
    let mut job_obs = Samples::default();
    let mut job_plain = Samples::default();
    let mut queue_wait = Samples::default();
    let (mut jobs, mut chunks, mut steals, mut retries) = (0u64, 0u64, 0u64, 0u64);
    repeat(3, 500, || {
        for (i, (a, b)) in pairs.iter().enumerate() {
            for (exec, name, samples) in [
                (&observed, "executor.diff_pair_observed", &mut job_obs),
                (&plain, "executor.diff_pair_plain", &mut job_plain),
            ] {
                let t0 = Instant::now();
                let out = exec.diff_pair(a, b, None);
                let end = Instant::now();
                tr.record(name, None, i as u64, t0, end);
                match out {
                    Ok(job) => {
                        if job.image != expected[i] {
                            tally.wrong("executor replay output differs from the reference XOR");
                        }
                        samples.push_us(end - t0);
                        queue_wait.push_us(job.queue_wait);
                        jobs += 1;
                        chunks += job.stats.chunks as u64;
                        steals += job.stats.chunks_stolen;
                        retries += job.stats.retries;
                    }
                    Err(e) => tally.fail(&format!("executor replay failed: {e}")),
                }
            }
        }
    });
    let in_flight = observed.in_flight() + plain.in_flight();
    if in_flight != 0 || observed.abandoned() + plain.abandoned() != 0 {
        tally.gate_failed(&format!(
            "executor replay not quiescent: {in_flight} rows in flight"
        ));
    }
    m.set("executor.job_p50_us", job_obs.p50());
    m.set("executor.job_plain_p50_us", job_plain.p50());
    m.set(
        "executor.obs_overhead_ratio",
        ratio(job_obs.p50(), job_plain.p50()),
    );
    m.set(
        "executor.overhead_ratio",
        ratio(job_plain.p50(), kernel_pair_us.p50()),
    );
    m.set("executor.queue_wait_p50_us", queue_wait.p50());
    m.set("executor.chunks_per_job", ratio(chunks as f64, jobs as f64));
    m.set("executor.steals_per_job", ratio(steals as f64, jobs as f64));
    m.set("executor.retries", retries as f64);
    m.set("executor.in_flight_end", in_flight as f64);
}

/// The `rle` substrate on the workload's images: signatures of a copy
/// with a cold signature cache, serialisation both ways, and the
/// reference XOR.
pub fn rle(pairs: &[Pair], tr: &mut Tracer, m: &mut Metrics, tally: &mut Tally) {
    let mut sig = Samples::default();
    let mut enc = Samples::default();
    let mut dec = Samples::default();
    let mut xor = Samples::default();
    repeat(2, 100, || {
        for (i, (a, b)) in pairs.iter().enumerate() {
            let op = i as u64;
            let cold = cold_copy(a);
            let t0 = Instant::now();
            let sigs = cold.row_signatures();
            let t1 = Instant::now();
            tr.record("rle.row_signatures", None, op, t0, t1);
            sig.push_us(t1 - t0);
            std::hint::black_box(sigs);

            let t0 = Instant::now();
            let bytes = rle::serialize::encode_image(a);
            let t1 = Instant::now();
            tr.record("rle.encode_image", None, op, t0, t1);
            enc.push_us(t1 - t0);

            let t0 = Instant::now();
            let decoded = rle::serialize::decode_image(&bytes);
            let t1 = Instant::now();
            tr.record("rle.decode_image", None, op, t0, t1);
            dec.push_us(t1 - t0);
            if decoded.as_ref().ok() != Some(&**a) {
                tally.wrong("rle decode(encode(image)) is not the image");
            }

            let t0 = Instant::now();
            let diff = a.xor(b);
            let t1 = Instant::now();
            tr.record("rle.xor", None, op, t0, t1);
            xor.push_us(t1 - t0);
            std::hint::black_box(diff.ok());
        }
    });
    m.set("rle.sig_us_per_frame", sig.p50());
    m.set("rle.encode_us", enc.p50());
    m.set("rle.decode_us", dec.p50());
    m.set("rle.xor_ref_us", xor.p50());
}

/// A copy of `img` whose rows carry no cached signature.
fn cold_copy(img: &RleImage) -> RleImage {
    let rows = img
        .rows()
        .iter()
        .map(|r| RleRow::from_runs(r.width(), r.runs().to_vec()).expect("runs of a valid row"))
        .collect();
    RleImage::from_rows(img.width(), rows).expect("rows of a valid image")
}
