//! Metric definitions, failure accounting, the machine stamp and the
//! result line.
//!
//! The tables below are the single source of the metric names and units;
//! `BENCHMARK.json` lists the same ones and `--smoke` checks that it does.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One metric: name, unit, and the layer that owns it.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub layer: &'static str,
}

const fn def(layer: &'static str, name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, layer }
}

/// Metrics of the untraced run, reported on every workload. What "op"
/// means per workload is in the README.
pub const END_TO_END: &[Def] = &[
    def("e2e", "setup_s", "s"),
    def("e2e", "rss_peak_mb", "MiB"),
    def("e2e", "ops_per_s", "1/s"),
    def("e2e", "op_p50_ms", "ms"),
];

/// Metrics of the traced run. A workload reports a layer's metrics only
/// if that layer is on its path (see `Workload::layers`); the others read
/// 0 because the layer did no work.
pub const PER_LAYER: &[Def] = &[
    def("loadgen", "loadgen.late_p99_ms", "ms"),
    def("loadgen", "loadgen.latency_p50_ms", "ms"),
    def("loadgen", "loadgen.latency_p99_ms", "ms"),
    def("client", "client.rtt_p50_ms", "ms"),
    def("client", "client.rtt_p99_ms", "ms"),
    def("client", "client.sheds", "count"),
    def("proto", "proto.encode_req_us", "us"),
    def("proto", "proto.decode_req_us", "us"),
    def("proto", "proto.encode_reply_us", "us"),
    def("proto", "proto.decode_reply_us", "us"),
    def("proto", "proto.read_frame_us", "us"),
    def("proto", "proto.req_bytes", "B"),
    def("proto", "proto.reply_bytes", "B"),
    def("server", "server.queue_wait_p50_ms", "ms"),
    def("server", "server.queue_wait_p99_ms", "ms"),
    def("server", "server.compute_p50_ms", "ms"),
    def("server", "server.compute_p99_ms", "ms"),
    def("server", "server.unaccounted_p50_ms", "ms"),
    def("server", "server.reconcile_gap_ratio", "ratio"),
    def("server", "server.shed_ratio", "ratio"),
    def("executor", "executor.job_p50_us", "us"),
    def("executor", "executor.job_plain_p50_us", "us"),
    def("executor", "executor.obs_overhead_ratio", "ratio"),
    def("executor", "executor.overhead_ratio", "ratio"),
    def("executor", "executor.queue_wait_p50_us", "us"),
    def("executor", "executor.chunks_per_job", "count"),
    def("executor", "executor.steals_per_job", "count"),
    def("executor", "executor.retries", "count"),
    def("executor", "executor.in_flight_end", "count"),
    def("pipeline", "pipeline.call_ms_p50", "ms"),
    def("pipeline", "pipeline.call_ms_p99", "ms"),
    def("pipeline", "pipeline.sig_skip_ratio", "ratio"),
    def("pipeline", "pipeline.inline_rows", "rows"),
    def("pipeline", "pipeline.rows_fast_path", "rows"),
    def("pipeline", "pipeline.rows_rle", "rows"),
    def("pipeline", "pipeline.rows_packed", "rows"),
    def("kernel", "kernel.packed_ns_per_row", "ns"),
    def("kernel", "kernel.rle_ns_per_row", "ns"),
    def("kernel", "kernel.fast_ns_per_row", "ns"),
    def("kernel", "kernel.runs_in", "count"),
    def("kernel", "kernel.runs_out", "count"),
    def("kernel", "kernel.runs_per_us", "1/us"),
    def("rle", "rle.sig_us_per_frame", "us"),
    def("rle", "rle.encode_us", "us"),
    def("rle", "rle.decode_us", "us"),
    def("rle", "rle.xor_ref_us", "us"),
    def("archive", "archive.open_ms", "ms"),
    def("archive", "archive.append_ms_p50", "ms"),
    def("archive", "archive.append_ms_p99", "ms"),
    def("archive", "archive.bytes_per_append", "B"),
    def("archive", "archive.changed_rows_per_append", "rows"),
    def("archive", "archive.extract_ms_p50", "ms"),
    def("archive", "archive.extract_ms_p99", "ms"),
    def("archive", "archive.replay_depth_mean", "count"),
    def("archive", "archive.close_ms", "ms"),
    def("trace", "trace.overhead_ratio", "ratio"),
    def("trace", "trace.spans", "count"),
];

/// Named metric values, checked against the tables when printed.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not declared"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Operations attempted and failed, wrong outputs and gate violations.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub gates_run: Vec<&'static str>,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// An operation that returned an error (shed, deadline, i/o…).
    pub fn fail(&mut self, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.note(why);
    }

    /// An operation whose output differs from the reference: counts as a
    /// failure and fails the run.
    pub fn wrong(&mut self, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
        self.note(why);
    }

    /// Records that a quiescence gate ran, and whether it held.
    pub fn gate(&mut self, name: &'static str, held: bool, detail: impl FnOnce() -> String) {
        self.gates_run.push(name);
        if !held {
            self.gate_failed(&format!("gate {name} violated: {}", detail()));
        }
    }

    pub fn gate_failed(&mut self, why: &str) {
        self.failed += 1;
        self.wrong += 1;
        self.note(why);
    }

    fn note(&mut self, why: &str) {
        // The first few reasons are enough to diagnose; a storm of
        // identical failures should not flood the report.
        if self.problems.len() < 8 {
            self.problems.push(why.to_owned());
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }
}

/// Where a run was measured: the machine, the toolchain, the code and the
/// inputs.
pub struct Stamp {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub simd: String,
    pub rustc: &'static str,
    pub commit: String,
}

impl Stamp {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
             \"simd\": {}, \"rustc\": {}, \"commit\": {}}}",
            json_str(&self.workload),
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.nproc,
            json_str(&self.simd),
            json_str(self.rustc),
            json_str(&self.commit),
        )
    }
}

/// The commit of the checkout, read from `.git` without running git; a
/// checkout that is not a git repository reports `unknown`.
pub fn commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `metrics` object for `defs`: each on-path metric as measured, each
/// off-path one as 0. Returns the names an on-path layer failed to report.
pub fn metrics_json(defs: &[Def], layers: &[&str], m: &Metrics) -> (String, Vec<&'static str>) {
    let mut missing = Vec::new();
    let mut out = String::from("{");
    for (i, d) in defs.iter().enumerate() {
        let on_path = d.layer == "e2e" || layers.contains(&d.layer);
        let value = match m.get(d.name) {
            Some(v) if on_path && v.is_finite() => v,
            _ => {
                if on_path {
                    missing.push(d.name);
                }
                0.0
            }
        };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(d.name),
            json_str(d.unit)
        );
    }
    out.push('}');
    (out, missing)
}
