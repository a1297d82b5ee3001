//! `perfbench` — the repository's benchmark: the `diffd` service, the
//! batch diff pipeline and the delta archive, each driven through its
//! public API, with every output checked against `RleImage::xor`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rate <req/s>]
//! perfbench --smoke [--rate <req/s>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! same workload untraced and then traced (half the window each) and
//! reports the per-layer metrics and the tracing overhead. The last line
//! of standard output is the result object. See `README.md`.

mod batch;
mod diffd_serve;
mod frames;
mod layers;
mod report;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::{json_str, metrics_json, Def, Metrics, Stamp, Tally, END_TO_END, PER_LAYER};
use trace::TraceLog;

/// Run parameters shared by every workload.
pub struct Cfg {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Phase-A rate of `diffd_serve`, in requests per second.
    pub rate: Option<f64>,
    /// Client connections, executor workers and pipeline workers.
    pub threads: usize,
    pub out_dir: PathBuf,
}

impl Cfg {
    /// The measured window: the whole run untraced, or half of it for each
    /// of the untraced and traced passes of a traced run.
    pub fn window(&self) -> Duration {
        let secs = Duration::from_secs(self.seconds);
        if self.trace {
            secs / 2
        } else {
            secs
        }
    }

    /// A fresh per-process directory for the benchmark's temporary files.
    pub fn scratch_dir(&self) -> Result<PathBuf, String> {
        let dir = self.out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Workload-specific headline numbers, printed by name for people.
    pub named: Vec<(&'static str, f64, &'static str)>,
    pub log: TraceLog,
}

/// SplitMix64 finalizer: derives independent seeds and picks from one.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Copy)]
enum Workload {
    DiffdServe,
    BatchScan,
    BatchPcb,
    FrameArchive,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DiffdServe,
        Workload::BatchScan,
        Workload::BatchPcb,
        Workload::FrameArchive,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DiffdServe => "diffd_serve",
            Workload::BatchScan => "batch_scan",
            Workload::BatchPcb => "batch_pcb",
            Workload::FrameArchive => "frame_archive",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The layers on this workload's path; the others report 0.
    fn layers(self) -> &'static [&'static str] {
        match self {
            Workload::DiffdServe => &[
                "loadgen", "client", "proto", "server", "executor", "kernel", "rle", "trace",
            ],
            Workload::BatchScan | Workload::BatchPcb => {
                &["pipeline", "executor", "kernel", "rle", "trace"]
            }
            Workload::FrameArchive => &["pipeline", "kernel", "rle", "archive", "trace"],
        }
    }

    /// The quiescence gates a run must pass.
    fn gates(self) -> &'static [&'static str] {
        match self {
            Workload::DiffdServe => &["setup_drain", "server_ledger", "executor_idle", "drain"],
            Workload::BatchScan | Workload::BatchPcb => &["pipeline_idle"],
            Workload::FrameArchive => &["pipeline_idle", "fsck_clean"],
        }
    }

    fn run(self, cfg: &Cfg) -> Result<Outcome, String> {
        match self {
            Workload::DiffdServe => diffd_serve::run(cfg),
            Workload::BatchScan => batch::run(batch::Class::Scan, cfg),
            Workload::BatchPcb => batch::run(batch::Class::Pcb, cfg),
            Workload::FrameArchive => frames::run(cfg),
        }
    }
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits inside the repository")
        .to_path_buf()
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    rate: Option<f64>,
    smoke: bool,
}

const USAGE: &str = "usage: perfbench --workload <diffd_serve|batch_scan|batch_pcb|frame_archive> \
                     --seed <n> --seconds <s> --trace <0|1> [--rate <req/s>]\n       \
                     perfbench --smoke [--rate <req/s>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        rate: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--rate" => args.rate = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds < 2 {
        return Err("--seconds must be at least 2".into());
    }
    if !args.smoke && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One run as the result line and the human report describe it.
struct Run {
    stamp: Stamp,
    outcome: Outcome,
    missing: Vec<&'static str>,
    metrics: String,
}

fn run(w: Workload, args: &Args, seconds: u64, trace: bool) -> Result<Run, String> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let root = repo_root();
    let cfg = Cfg {
        seed: args.seed,
        seconds,
        trace,
        rate: args.rate,
        threads,
        out_dir: root.join("perfbench").join("out"),
    };
    let stamp = Stamp {
        workload: w.name().to_owned(),
        seed: args.seed,
        seconds,
        trace,
        nproc: threads,
        simd: systolic_core::SimdLevel::default_level().to_string(),
        rustc: env!("PERFBENCH_RUSTC"),
        commit: report::commit(&root),
    };
    let mut outcome = w.run(&cfg)?;
    for gate in w.gates() {
        if !outcome.tally.gates_run.contains(gate) {
            outcome
                .tally
                .gate_failed(&format!("gate {gate} did not run"));
        }
    }
    if trace {
        outcome
            .metrics
            .set("trace.spans", outcome.log.span_count() as f64);
    }
    let defs: &[Def] = if trace { PER_LAYER } else { END_TO_END };
    let (metrics, missing) = metrics_json(defs, w.layers(), &outcome.metrics);
    let run = Run {
        stamp,
        outcome,
        missing,
        metrics,
    };
    write_record(&cfg, &run)?;
    Ok(run)
}

fn fail_ratio(t: &Tally) -> f64 {
    stats::ratio(t.failed as f64, t.attempted as f64)
}

fn result_line(run: &Run) -> String {
    let t = &run.outcome.tally;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.correct() && run.missing.is_empty(),
        t.attempted.max(1),
        t.failed,
        run.metrics
    )
}

/// The human-readable report: stamp, headline metrics by name with their
/// units, gates, problems and (traced) self time per span.
fn human_report(run: &Run) -> String {
    let mut s = String::new();
    let o = &run.outcome;
    let _ = writeln!(s, "stamp {}", run.stamp.to_json());
    let m = &o.metrics;
    let mut line = |name: &str, value: f64, unit: &str| {
        let _ = writeln!(s, "  {name:<34} {value:>14.4} {unit}");
    };
    if !run.stamp.trace {
        for d in END_TO_END {
            line(d.name, m.get(d.name).unwrap_or(0.0), d.unit);
        }
    }
    line("fail_ratio", fail_ratio(&o.tally), "ratio");
    for (name, value, unit) in &o.named {
        line(name, *value, unit);
    }
    if run.stamp.trace {
        for d in PER_LAYER {
            if let Some(v) = m.get(d.name) {
                line(d.name, v, d.unit);
            }
        }
        let _ = writeln!(s, "  self time per span (us): name, p50, p99, count");
        for (name, samples) in o.log.self_times_us() {
            let _ = writeln!(
                s,
                "    {name:<32} {:>12.2} {:>12.2} {:>8}",
                samples.p50(),
                samples.p99(),
                samples.len()
            );
        }
    }
    let _ = writeln!(
        s,
        "  gates run: {} | attempted {} failed {}",
        o.tally.gates_run.join(", "),
        o.tally.attempted,
        o.tally.failed
    );
    for p in &o.tally.problems {
        let _ = writeln!(s, "  problem: {p}");
    }
    for name in &run.missing {
        let _ = writeln!(s, "  problem: on-path metric {name} was not measured");
    }
    s
}

/// Writes the run's record (stamp, result, headline metrics) and, for a
/// traced run, its spans, under `perfbench/out/`.
fn write_record(cfg: &Cfg, run: &Run) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        run.stamp.workload,
        run.stamp.seed,
        u8::from(run.stamp.trace)
    );
    let mut named = String::from("{");
    for (i, (name, value, unit)) in run.outcome.named.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            named,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    named.push('}');
    let record = format!(
        "{{\"stamp\": {}, \"named\": {named}, \"gates\": {:?}, \"result\": {}}}\n",
        run.stamp.to_json(),
        run.outcome.tally.gates_run,
        result_line(run)
    );
    let path = cfg.out_dir.join(format!("{stem}.json"));
    std::fs::write(&path, record).map_err(|e| format!("write {}: {e}", path.display()))?;
    if run.stamp.trace {
        let spans = cfg.out_dir.join(format!("{stem}.spans.tsv"));
        run.outcome
            .log
            .write_tsv(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
    }
    Ok(())
}

/// The issue-level headline metrics every full smoke pass must print.
const HEADLINES: &[&str] = &[
    "diffd.p50_ms",
    "diffd.p99_ms",
    "diffd.max_rps",
    "batch.mpix_per_s",
    "batch.scan_ms_p50",
    "batch.pcb_ms_p50",
    "frames.fps",
    "frames.extract_ms_p50",
    "frames.bytes_per_frame",
];

/// Runs every workload briefly in both modes and checks that every
/// declared metric was measured, every gate ran, and `BENCHMARK.json`
/// declares the same metrics with the same units.
fn smoke(args: &Args) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        if !spec.contains(&entry) {
            problems.push(format!("BENCHMARK.json does not declare {entry}"));
        }
    }
    let mut printed = Vec::new();
    for w in Workload::ALL {
        for trace in [false, true] {
            let run = run(w, args, 2, trace)?;
            print!("{}", human_report(&run));
            println!("{}", result_line(&run));
            let t = &run.outcome.tally;
            if !t.correct() || t.attempted == 0 {
                problems.push(format!("{} trace={trace}: {:?}", w.name(), t.problems));
            }
            for name in &run.missing {
                problems.push(format!("{} trace={trace}: {name} not measured", w.name()));
            }
            printed.extend(run.outcome.named.iter().map(|n| n.0));
        }
    }
    for name in HEADLINES {
        if !printed.contains(name) {
            problems.push(format!("headline metric {name} was not printed"));
        }
    }
    Ok(problems)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return match smoke(&args) {
            Ok(problems) if problems.is_empty() => {
                println!("smoke: every workload, metric and gate checked");
                ExitCode::SUCCESS
            }
            Ok(problems) => {
                for p in problems {
                    eprintln!("smoke: {p}");
                }
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let w = args.workload.expect("checked by parse_args");
    match run(w, &args, args.seconds, args.trace) {
        Ok(run) => {
            print!("{}", human_report(&run));
            println!("{}", result_line(&run));
            if run.outcome.tally.correct() && run.missing.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
