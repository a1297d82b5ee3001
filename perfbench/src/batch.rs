//! `batch_scan` and `batch_pcb`: `DiffPipeline::diff_images_shared` with
//! the `diff-image` CLI defaults (`threads = nproc`, `Kernel::Auto`, no
//! signature prefilter, no observer), one pair class per workload.

use std::sync::Arc;
use std::time::Instant;

use rle::RleImage;
use systolic_core::{DiffPipeline, DiffPipelineConfig, Kernel, PipelineStats};
use workload::pcb::{self, PcbParams};
use workload::{errors, ErrorModel, GenParams, RowGenerator};

use crate::layers::{self, Pair};
use crate::report::{rss_peak_mb, Metrics, Tally};
use crate::stats::{iqm, ratio, Samples};
use crate::trace::Tracer;
use crate::{mix, Cfg, Outcome};

const SETUP_REPS: usize = 11;

#[derive(Clone, Copy)]
pub enum Class {
    /// Dense 16384×1024 scans (2–4 px runs at 30 %, 1 % errors): `Auto`
    /// picks the packed kernel on every row.
    Scan,
    /// 8192×2048 boards against a scan with defects: nearly every row
    /// takes the fast path, the rest run the RLE merge.
    Pcb,
}

impl Class {
    /// Distinct pairs a run cycles through: enough boards that a run does
    /// not hinge on one seed's layout, few enough scans to stay in memory.
    fn pool(self) -> usize {
        match self {
            Class::Scan => 3,
            Class::Pcb => 8,
        }
    }

    fn pair(self, seed: u64) -> (RleImage, RleImage) {
        match self {
            Class::Scan => {
                let params = GenParams::with_runs(16_384, (2, 4), 0.3);
                let a = RowGenerator::new(params, seed).next_image(1_024);
                let b = errors::apply_errors_image(&a, &ErrorModel::fraction(0.01), mix(seed));
                (a, b)
            }
            Class::Pcb => {
                let params = PcbParams {
                    width: 8_192,
                    height: 2_048,
                    h_traces: 384,
                    v_traces: 64,
                    trace_width: 3,
                    pads: 256,
                    vias: 640,
                };
                pcb::inspection_pair(&params, &pcb::typical_defects(), seed)
            }
        }
    }
}

struct Inputs {
    pairs: Vec<Pair>,
    expected: Vec<RleImage>,
}

fn generate(class: Class, seed: u64, tr: &mut Tracer) -> Inputs {
    let mut pairs = Vec::with_capacity(class.pool());
    let mut expected = Vec::with_capacity(class.pool());
    for i in 0..class.pool() as u64 {
        let (a, b) = class.pair(mix(seed ^ i));
        expected.push(tr.time("rle.xor_reference", None, i, || {
            a.xor(&b).expect("pairs share dimensions")
        }));
        pairs.push((Arc::new(a), Arc::new(b)));
    }
    Inputs { pairs, expected }
}

fn build_pipeline(threads: usize) -> DiffPipeline {
    DiffPipelineConfig::new(threads)
        .kernel(Kernel::Auto)
        .build()
}

/// What the measured loop saw.
#[derive(Default)]
struct Window {
    call_ms: Samples,
    pixels: f64,
    stats: StatsSum,
    ticketed_rows: u64,
}

impl Window {
    /// Pairs per second of pipeline time, from the interquartile mean.
    fn rate(&self) -> f64 {
        ratio(1e3, iqm(self.call_ms.values()))
    }
}

fn measure(
    pipeline: &mut DiffPipeline,
    inputs: &Inputs,
    seed: u64,
    window: std::time::Duration,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Window {
    let mut w = Window::default();
    let until = Instant::now() + window;
    let mut k = 0u64;
    while Instant::now() < until {
        let idx = (mix(seed ^ k) % inputs.pairs.len() as u64) as usize;
        let (a, b) = &inputs.pairs[idx];
        let root = tr.open("batch.pair", None, k);
        let tickets = pipeline.next_ticket();
        let t0 = Instant::now();
        let res = pipeline.diff_images_shared(a, b);
        let t1 = Instant::now();
        tr.record("pipeline.diff_images_shared", root, k, t0, t1);
        match res {
            Ok((img, stats)) => {
                if img == inputs.expected[idx] {
                    tally.ok();
                } else {
                    tally.wrong("batch output differs from the reference XOR");
                }
                w.call_ms.push_ms(t1 - t0);
                w.pixels += 2.0 * f64::from(a.width()) * a.height() as f64;
                w.ticketed_rows += pipeline.next_ticket() - tickets;
                w.stats.add(&stats);
            }
            Err(e) => tally.fail(&format!("diff_images_shared failed: {e}")),
        }
        tr.close(root);
        k += 1;
    }
    w
}

pub fn run(class: Class, cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = out.log.tracer(cfg.trace, 0);
    let tally = &mut out.tally;

    // Set-up is input generation (pairs and their reference XORs),
    // pipeline build and one verified pair; the last repetition is kept.
    let mut setups = Samples::default();
    let mut kept = None;
    for i in 0..SETUP_REPS {
        let last = i + 1 == SETUP_REPS;
        let mut quiet = out.log.tracer(false, 0);
        let t0 = Instant::now();
        let inputs = generate(class, cfg.seed, if last { &mut tr } else { &mut quiet });
        let mut pipeline = build_pipeline(cfg.threads);
        let (a, b) = &inputs.pairs[0];
        let (img, _) = pipeline
            .diff_images_shared(a, b)
            .map_err(|e| format!("first batch: {e}"))?;
        if img != inputs.expected[0] {
            return Err("first batch output differs from the reference XOR".into());
        }
        setups.push(t0.elapsed().as_secs_f64());
        tally.ok();
        if last {
            kept = Some((inputs, pipeline));
        }
    }
    let (inputs, mut pipeline) = kept.expect("at least one set-up");
    let window = cfg.window();
    let mut off = out.log.tracer(false, 0);
    let base = measure(&mut pipeline, &inputs, cfg.seed, window, &mut off, tally);
    let ops = base.rate();
    let m = &mut out.metrics;
    m.set("setup_s", setups.p50());
    m.set("ops_per_s", ops);
    m.set("op_p50_ms", base.call_ms.p50());
    let mpix = ratio(base.pixels / 1e6, base.call_ms.sum() / 1e3);
    out.named.push(("batch.mpix_per_s", mpix, "Mpx/s"));
    let p50_name = match class {
        Class::Scan => "batch.scan_ms_p50",
        Class::Pcb => "batch.pcb_ms_p50",
    };
    out.named.push((p50_name, base.call_ms.p50(), "ms"));
    out.named
        .push(("batch.pairs", base.call_ms.len() as f64, "count"));

    if cfg.trace {
        let traced = measure(
            &mut pipeline,
            &inputs,
            mix(cfg.seed),
            window,
            &mut tr,
            tally,
        );
        let traced_ops = traced.rate();
        m.set("trace.overhead_ratio", ratio(ops, traced_ops));
        pipeline_metrics(&traced, m);
        let kernel_pair_us = layers::kernel(&inputs.pairs, &mut tr, m, tally);
        layers::executor(
            &inputs.pairs,
            &inputs.expected,
            cfg.threads,
            &kernel_pair_us,
            &mut tr,
            m,
            tally,
        );
        layers::rle(&inputs.pairs, &mut tr, m, tally);
    }
    let (in_flight, abandoned) = (pipeline.in_flight(), pipeline.abandoned());
    tally.gate("pipeline_idle", in_flight == 0 && abandoned == 0, || {
        format!("{in_flight} rows in flight, {abandoned} abandoned")
    });
    drop(pipeline);
    m.set("rss_peak_mb", rss_peak_mb());
    out.log.absorb(tr);
    Ok(out)
}

/// A window's `PipelineStats` summed call by call, so the benchmark's own
/// memory, and with it `rss_peak_mb`, does not grow with the call count.
#[derive(Default)]
pub struct StatsSum {
    calls: usize,
    rows: usize,
    rows_sig_skipped: usize,
    sig_collisions: usize,
    rows_fast_path: usize,
    rows_rle: usize,
    rows_packed: usize,
}

impl StatsSum {
    pub fn add(&mut self, s: &PipelineStats) {
        self.calls += 1;
        self.rows += s.rows;
        self.rows_sig_skipped += s.rows_sig_skipped;
        self.sig_collisions += s.sig_collisions;
        self.rows_fast_path += s.rows_fast_path;
        self.rows_rle += s.rows_rle_kernel;
        self.rows_packed += s.rows_packed_kernel;
    }
}

/// Pipeline-layer metrics from one window's `PipelineStats`, per call.
pub fn pipeline_metrics_from(
    call_ms: &Samples,
    stats: &StatsSum,
    ticketed_rows: u64,
    m: &mut Metrics,
) {
    let calls = stats.calls.max(1) as f64;
    let rows = stats.rows as f64;
    let host = (stats.rows_sig_skipped + stats.sig_collisions) as f64;
    m.set("pipeline.call_ms_p50", call_ms.p50());
    m.set("pipeline.call_ms_p99", call_ms.p99());
    m.set(
        "pipeline.sig_skip_ratio",
        ratio(stats.rows_sig_skipped as f64, rows),
    );
    // Rows neither resolved by signature nor given a ticket were diffed
    // inline on the calling thread.
    m.set(
        "pipeline.inline_rows",
        (rows - host - ticketed_rows as f64).max(0.0) / calls,
    );
    m.set(
        "pipeline.rows_fast_path",
        stats.rows_fast_path as f64 / calls,
    );
    m.set("pipeline.rows_rle", stats.rows_rle as f64 / calls);
    m.set("pipeline.rows_packed", stats.rows_packed as f64 / calls);
}

fn pipeline_metrics(w: &Window, m: &mut Metrics) {
    pipeline_metrics_from(&w.call_ms, &w.stats, w.ticketed_rows, m);
}
