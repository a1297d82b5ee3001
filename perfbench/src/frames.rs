//! `frame_archive`: a churn-controlled `FrameSequence`, each new frame
//! diffed against the previous one by a `DiffPipeline` with the signature
//! prefilter, then appended to an `ArchiveFile` journal on disk. After
//! every 4th append a seeded-random earlier frame is extracted and
//! compared with the generated frame.
//!
//! The journal is bounded: once it holds `EPOCH_FRAMES` frames it is
//! closed and a fresh one is started, so memory and file size do not grow
//! with the machine's speed. The first journal is pre-written with the
//! start of the sequence and re-opened during set-up, which runs the
//! recovery scan `rlediff archive append` pays on every call.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use archive::{ArchiveFile, ArchiveOptions, FsyncPolicy, MemStorage};
use rle::{RleImage, RleRow};
use systolic_core::{DiffPipeline, DiffPipelineConfig};
use workload::{FrameSequence, GenParams, SequenceParams};

use crate::batch::StatsSum;
use crate::layers::{self, Pair};
use crate::report::{rss_peak_mb, Metrics, Tally};
use crate::stats::{iqm, ratio, Samples};
use crate::trace::Tracer;
use crate::{mix, Cfg, Outcome};

const WIDTH: u32 = 4_096;
const HEIGHT: usize = 512;
const CHURN: f64 = 0.02;
const KEYFRAME_INTERVAL: usize = 16;
/// Frames pre-written into the journal set-up re-opens.
const PREWRITTEN: usize = 32;
/// Frames per journal before a fresh one is started.
const EPOCH_FRAMES: usize = 256;
const EXTRACT_EVERY: usize = 4;
const SETUP_REPS: usize = 15;

fn options() -> ArchiveOptions {
    ArchiveOptions {
        keyframe_interval: KEYFRAME_INTERVAL,
        fsync: FsyncPolicy::OnClose,
    }
}

fn build_pipeline(threads: usize) -> DiffPipeline {
    DiffPipelineConfig::new(threads)
        .signature_prefilter()
        .build()
}

/// The generated frames of the current journal, kept compactly: the
/// first frame plus, per later frame, the rows that changed. This is the
/// reference extracted frames are compared with.
struct Reference {
    base: RleImage,
    changes: Vec<Vec<(usize, RleRow)>>,
}

impl Reference {
    fn new(base: RleImage) -> Self {
        Self {
            base,
            changes: Vec::new(),
        }
    }

    fn push(&mut self, prev: &RleImage, next: &RleImage) {
        let changed = prev
            .rows()
            .iter()
            .zip(next.rows())
            .enumerate()
            .filter(|(_, (p, n))| p != n)
            .map(|(i, (_, n))| (i, n.clone()))
            .collect();
        self.changes.push(changed);
    }

    fn frame(&self, index: usize) -> RleImage {
        let mut img = self.base.clone();
        for change in &self.changes[..index] {
            for (row, data) in change {
                img.set_row(*row, data.clone()).expect("generated rows fit");
            }
        }
        img
    }
}

/// The sequence generator, the previous frame, and the journal's
/// reference frames.
struct Source {
    seq: FrameSequence,
    prev: Arc<RleImage>,
    reference: Reference,
    prewritten: Vec<u8>,
}

fn generate(seed: u64) -> Source {
    let params = SequenceParams {
        gen: GenParams::with_runs(WIDTH, (2, 4), 0.3),
        height: HEIGHT,
        churn: CHURN,
    };
    let mut seq = FrameSequence::new(params, seed);
    let first = seq.next_frame();
    let mut reference = Reference::new(first.clone());
    let mut journal =
        ArchiveFile::create_on(MemStorage::new(), options()).expect("in-memory journal");
    journal.append(&first).expect("in-memory append");
    let mut prev = first;
    for _ in 1..PREWRITTEN {
        let next = seq.next_frame();
        journal.append(&next).expect("in-memory append");
        reference.push(&prev, &next);
        prev = next;
    }
    Source {
        seq,
        prev: Arc::new(prev),
        reference,
        prewritten: journal.into_storage().into_bytes(),
    }
}

/// The live journal plus the pipeline that diffs into it.
struct Ingest {
    archive: ArchiveFile<std::fs::File>,
    pipeline: DiffPipeline,
}

#[derive(Default)]
struct Window {
    /// Seconds inside diff, append and extract per cycle of
    /// `EXTRACT_EVERY` frames (the cycle ends with its extract).
    cycles: Vec<f64>,
    busy: f64,
    ingest_ms: Samples,
    diff_ms: Samples,
    append_ms: Samples,
    extract_ms: Samples,
    close_ms: Samples,
    frames: u64,
    bytes: u64,
    changed_rows: u64,
    replayed: u64,
    stats: StatsSum,
    ticketed_rows: u64,
}

impl Window {
    /// Frames per second of diff, append and extract time, from the
    /// interquartile mean of the cycle times.
    fn fps(&self) -> f64 {
        ratio(EXTRACT_EVERY as f64, iqm(&self.cycles))
    }
}

/// One frame: generate (untimed), diff, append, and every
/// `EXTRACT_EVERY` appends an extract. Operation failures go to `tally`;
/// an `Err` is an I/O failure of the benchmark's own files.
#[allow(clippy::too_many_arguments)]
fn step(
    ing: &mut Ingest,
    src: &mut Source,
    path: &Path,
    k: u64,
    seed: u64,
    w: &mut Window,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    if ing.archive.len() == EPOCH_FRAMES {
        let old = std::mem::replace(
            &mut ing.archive,
            ArchiveFile::open(path.with_extension("next"), options())
                .map_err(|e| format!("open fresh journal: {e}"))?,
        );
        let t0 = Instant::now();
        old.close().map_err(|e| format!("close journal: {e}"))?;
        let t1 = Instant::now();
        tr.record("archive.close", None, k, t0, t1);
        w.close_ms.push_ms(t1 - t0);
        std::fs::rename(path.with_extension("next"), path)
            .map_err(|e| format!("rotate journal: {e}"))?;
        src.reference = Reference::new((*src.prev).clone());
        // The fresh journal starts with the current frame as its keyframe.
        ing.archive
            .append(&src.prev)
            .map_err(|e| format!("append keyframe: {e}"))?;
    }
    let next = Arc::new(src.seq.next_frame());
    let expected = src.prev.xor(&next).expect("frames share dimensions");
    src.reference.push(&src.prev, &next);

    let root = tr.open("frames.ingest", None, k);
    let tickets = ing.pipeline.next_ticket();
    let t0 = Instant::now();
    let diff = ing.pipeline.diff_images_shared(&src.prev, &next);
    let t1 = Instant::now();
    let appended = ing.archive.append(&next);
    let t2 = Instant::now();
    tr.record("pipeline.diff_images_shared", root, k, t0, t1);
    tr.record("archive.append", root, k, t1, t2);
    tr.close(root);
    w.busy += (t2 - t0).as_secs_f64();
    match diff {
        Ok((img, stats)) if img == expected => {
            w.ticketed_rows += ing.pipeline.next_ticket() - tickets;
            w.stats.add(&stats);
            w.diff_ms.push_ms(t1 - t0);
        }
        Ok(_) => tally.wrong("frame diff differs from the reference XOR"),
        Err(e) => tally.fail(&format!("frame diff failed: {e}")),
    }
    match appended {
        Ok(outcome) => {
            tally.ok();
            w.frames += 1;
            w.append_ms.push_ms(t2 - t1);
            w.ingest_ms.push_ms(t2 - t0);
            w.bytes += ing.archive.stat().last_append_bytes;
            w.changed_rows += outcome.changed_rows as u64;
        }
        Err(e) => tally.fail(&format!("append failed: {e}")),
    }
    src.prev = next;

    if w.frames.is_multiple_of(EXTRACT_EVERY as u64) {
        let len = ing.archive.len();
        let index = (mix(seed ^ k) % len as u64) as usize;
        let before = ing.archive.stat().records_replayed;
        let t0 = Instant::now();
        let got = ing.archive.extract(index);
        let t1 = Instant::now();
        tr.record("archive.extract", None, k, t0, t1);
        w.cycles.push(w.busy + (t1 - t0).as_secs_f64());
        w.busy = 0.0;
        match got {
            Ok(img) if img == src.reference.frame(index) => {
                tally.ok();
                w.extract_ms.push_ms(t1 - t0);
                w.replayed += ing.archive.stat().records_replayed - before;
            }
            Ok(_) => tally.wrong("extracted frame differs from the generated frame"),
            Err(e) => tally.fail(&format!("extract failed: {e}")),
        }
    }
    Ok(())
}

fn measure(
    ing: &mut Ingest,
    src: &mut Source,
    path: &Path,
    seed: u64,
    window: Duration,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Window, String> {
    let mut w = Window::default();
    let until = Instant::now() + window;
    let mut k = 0u64;
    while Instant::now() < until {
        step(ing, src, path, k, seed, &mut w, tr, tally)?;
        k += 1;
    }
    Ok(w)
}

/// Writes the pre-written journal, then times open (recovery), pipeline
/// build and the first frame's diff and append. Writing the journal file
/// and making the first frame and its reference stay outside the time.
fn start(
    src: &mut Source,
    path: &Path,
    threads: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(Ingest, f64, f64), String> {
    std::fs::write(path, &src.prewritten).map_err(|e| format!("write journal: {e}"))?;
    let t0 = Instant::now();
    let archive = ArchiveFile::open(path, options()).map_err(|e| format!("open journal: {e}"))?;
    let opened = Instant::now();
    tr.record("archive.open", None, 0, t0, opened);
    let pipeline = build_pipeline(threads);
    let built = t0.elapsed().as_secs_f64();
    if archive.len() != PREWRITTEN || !archive.recovery().clean() {
        return Err(format!(
            "re-opened journal holds {} frames, recovery {:?}",
            archive.len(),
            archive.recovery()
        ));
    }
    let mut ing = Ingest { archive, pipeline };
    let mut w = Window::default();
    let mut off = Tracer::new(false, t0, 0);
    step(&mut ing, src, path, 0, 0, &mut w, &mut off, tally)?;
    if w.frames != 1 || tally.wrong > 0 {
        return Err("first frame was not ingested correctly".into());
    }
    Ok((ing, built + w.busy, (opened - t0).as_secs_f64() * 1e3))
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = out.log.tracer(cfg.trace, 0);
    let dir = cfg.scratch_dir()?;
    let path: PathBuf = dir.join("frames.rda");
    let tally = &mut out.tally;

    // Set-up is input generation (the first frames and the in-memory
    // journal of them) plus `start`; the last repetition is kept.
    let mut setups = Samples::default();
    let mut opens = Samples::default();
    let mut kept = None;
    for i in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut src = generate(cfg.seed);
        let generated = t0.elapsed().as_secs_f64();
        let (ing, setup, open_ms) = start(&mut src, &path, cfg.threads, &mut tr, tally)?;
        setups.push(generated + setup);
        opens.push(open_ms);
        if i + 1 == SETUP_REPS {
            kept = Some((src, ing));
        } else {
            ing.archive
                .close()
                .map_err(|e| format!("close journal: {e}"))?;
        }
    }
    let (mut src, mut ing) = kept.expect("at least one set-up");
    let window = cfg.window();
    let mut off = out.log.tracer(false, 0);
    let base = measure(&mut ing, &mut src, &path, cfg.seed, window, &mut off, tally)?;
    let ops = base.fps();
    let m = &mut out.metrics;
    m.set("setup_s", setups.p50());
    m.set("ops_per_s", ops);
    m.set("op_p50_ms", base.ingest_ms.p50());
    out.named.push(("frames.fps", ops, "frames/s"));
    out.named
        .push(("frames.extract_ms_p50", base.extract_ms.p50(), "ms"));
    out.named.push((
        "frames.bytes_per_frame",
        ratio(base.bytes as f64, base.frames as f64),
        "B",
    ));
    out.named
        .push(("frames.count", base.frames as f64, "count"));

    let mut traced_closes = None;
    if cfg.trace {
        let traced = measure(
            &mut ing,
            &mut src,
            &path,
            mix(cfg.seed),
            window,
            &mut tr,
            tally,
        )?;
        let traced_ops = traced.fps();
        m.set("trace.overhead_ratio", ratio(ops, traced_ops));
        crate::batch::pipeline_metrics_from(
            &traced.diff_ms,
            &traced.stats,
            traced.ticketed_rows,
            m,
        );
        archive_metrics(&traced, &opens, m);
        traced_closes = Some(traced.close_ms.clone());
        let pairs = replay_pairs(&mut src);
        layers::kernel(&pairs, &mut tr, m, tally);
        layers::rle(&pairs, &mut tr, m, tally);
    }

    let (in_flight, abandoned) = (ing.pipeline.in_flight(), ing.pipeline.abandoned());
    tally.gate("pipeline_idle", in_flight == 0 && abandoned == 0, || {
        format!("{in_flight} rows in flight, {abandoned} abandoned")
    });
    let frames = ing.archive.len();
    let t0 = Instant::now();
    ing.archive
        .close()
        .map_err(|e| format!("close journal: {e}"))?;
    if let Some(mut closes) = traced_closes {
        closes.push_ms(t0.elapsed());
        m.set("archive.close_ms", closes.p50());
    }
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .map_err(|e| format!("reopen journal for fsck: {e}"))?;
    let fsck = ArchiveFile::fsck(&mut file, false).map_err(|e| format!("fsck: {e}"))?;
    tally.gate(
        "fsck_clean",
        fsck.clean() && fsck.verified == frames,
        || format!("{fsck:?} for {frames} frames"),
    );
    drop(file);
    drop(ing.pipeline);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove scratch dir: {e}"))?;
    m.set("rss_peak_mb", rss_peak_mb());
    out.log.absorb(tr);
    Ok(out)
}

fn archive_metrics(w: &Window, opens: &Samples, m: &mut Metrics) {
    m.set("archive.open_ms", opens.p50());
    m.set("archive.append_ms_p50", w.append_ms.p50());
    m.set("archive.append_ms_p99", w.append_ms.p99());
    m.set(
        "archive.bytes_per_append",
        ratio(w.bytes as f64, w.frames as f64),
    );
    m.set(
        "archive.changed_rows_per_append",
        ratio(w.changed_rows as f64, w.frames as f64),
    );
    m.set("archive.extract_ms_p50", w.extract_ms.p50());
    m.set("archive.extract_ms_p99", w.extract_ms.p99());
    m.set(
        "archive.replay_depth_mean",
        ratio(w.replayed as f64, w.extract_ms.len() as f64),
    );
}

/// The next few consecutive frame pairs of the same sequence, for the
/// kernel and rle replays.
fn replay_pairs(src: &mut Source) -> Vec<Pair> {
    let mut pairs = Vec::new();
    let mut prev = Arc::clone(&src.prev);
    for _ in 0..8 {
        let next = Arc::new(src.seq.next_frame());
        pairs.push((Arc::clone(&prev), Arc::clone(&next)));
        prev = next;
    }
    pairs
}
