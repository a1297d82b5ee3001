//! Server-side counters (`diffd_*`), kept separate from the pipeline's
//! `diffpipeline_*` registry: the pipeline counts rows and chunks, the
//! server counts connections, requests and the ways they fail. Built on
//! the same lock-light atomics (`core::obs::metrics`), exposed through
//! the same Prometheus/JSON writer so `/metrics` is one concatenation.

use systolic_core::obs::metrics::{
    json_text, prometheus_text, Counter, Family, Gauge, HistogramSnapshot, Log2Histogram,
    MetricsSnapshot, Value,
};

/// Every metric the server maintains. All counters are monotonic; the one
/// gauge (`connections_open`) is inc/dec'd symmetrically around each
/// connection's lifetime.
///
/// Accounting identities (asserted by the chaos suite on a drained
/// server):
///
/// * `connections_accepted == connections_closed` once every connection
///   has ended (`connections_open == 0`);
/// * `requests == responses_ok + sheds + deadline_hits + mismatches +
///   row_failures + internal_errors + shutdown_rejects` — every parsed
///   `Diff` request gets exactly one typed response;
/// * `protocol_errors` and `idle_timeouts` count *connection* failures
///   before or between requests, so they are outside the request ledger.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections the accept loop handed to a session thread.
    pub connections_accepted: Counter,
    /// Sessions that ended (any reason).
    pub connections_closed: Counter,
    /// Sessions currently alive.
    pub connections_open: Gauge,
    /// `Diff` requests successfully parsed off the wire.
    pub requests: Counter,
    /// `DiffOk` responses sent.
    pub responses_ok: Counter,
    /// Requests (or whole connections) shed by admission control with a
    /// typed `Overloaded` response.
    pub sheds: Counter,
    /// Requests that hit their deadline and were answered
    /// `DeadlineExceeded`.
    pub deadline_hits: Counter,
    /// Requests rejected because the image dimensions disagreed.
    pub mismatches: Counter,
    /// Requests answered `RowFailed` (a row exhausted its retry budget).
    pub row_failures: Counter,
    /// Requests answered `Internal`.
    pub internal_errors: Counter,
    /// Requests refused because the server was draining.
    pub shutdown_rejects: Counter,
    /// Malformed frames / headers answered with a typed `Protocol` error
    /// and a close.
    pub protocol_errors: Counter,
    /// Connections closed for idling between frames or stalling
    /// mid-frame (slowloris defence).
    pub idle_timeouts: Counter,
    /// Payload bytes read off accepted connections.
    pub bytes_read: Counter,
    /// Frame bytes written to clients.
    pub bytes_written: Counter,
    /// Nanoseconds an admitted request's job waited between submission
    /// and its first chunk checkout on the shared executor. Splitting
    /// this out of the request latency separates "the server is
    /// queueing" from "the diff is slow" — the tail of this histogram is
    /// the executor's scheduling delay under concurrent load (what used
    /// to be the pipeline-mutex wait before sessions submitted as
    /// independent jobs).
    pub queue_wait_ns: Log2Histogram,
    /// Nanoseconds spent computing the diff (the request latency minus
    /// parse, admission and queue wait).
    pub compute_ns: Log2Histogram,
}

impl ServerMetrics {
    /// Every series in exposition order; the histograms are read into
    /// `histograms` first so the families can borrow them.
    fn families<'a>(&self, histograms: &'a [HistogramSnapshot; 2]) -> Vec<Family<'a>> {
        let counters = [
            ("connections_accepted", &self.connections_accepted),
            ("connections_closed", &self.connections_closed),
            ("requests", &self.requests),
            ("responses_ok", &self.responses_ok),
            ("sheds", &self.sheds),
            ("deadline_hits", &self.deadline_hits),
            ("mismatches", &self.mismatches),
            ("row_failures", &self.row_failures),
            ("internal_errors", &self.internal_errors),
            ("shutdown_rejects", &self.shutdown_rejects),
            ("protocol_errors", &self.protocol_errors),
            ("idle_timeouts", &self.idle_timeouts),
            ("bytes_read", &self.bytes_read),
            ("bytes_written", &self.bytes_written),
        ];
        let [queue_wait, compute] = histograms;
        counters
            .into_iter()
            .map(|(name, c)| (name, Value::Counter(c.get())))
            .chain([
                (
                    "connections_open",
                    Value::Gauge(self.connections_open.get()),
                ),
                ("queue_wait_ns", Value::Histogram(queue_wait)),
                ("compute_ns", Value::Histogram(compute)),
            ])
            .collect()
    }

    fn histograms(&self) -> [HistogramSnapshot; 2] {
        [self.queue_wait_ns.snapshot(), self.compute_ns.snapshot()]
    }

    /// Prometheus text exposition (prefix `diffd_`), written by the same
    /// [`prometheus_text`] as the pipeline's so both concatenate into one
    /// `/metrics` body.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        prometheus_text("diffd_", &self.families(&self.histograms()))
    }

    /// Flat JSON exposition (see [`json_text`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        json_text(&self.families(&self.histograms()))
    }

    /// The full `/metrics` body: the executor's `diffpipeline_*`
    /// exposition followed by the server's `diffd_*` series.
    pub(crate) fn prometheus_body(&self, pipeline: &MetricsSnapshot) -> String {
        let mut text = pipeline.to_prometheus();
        text.push_str(&self.to_prometheus());
        text
    }

    /// The `/metrics.json` body: both JSON expositions under one object.
    pub(crate) fn json_body(&self, pipeline: &MetricsSnapshot) -> String {
        format!(
            "{{\n\"pipeline\": {},\n\"server\": {}\n}}\n",
            pipeline.to_json().trim_end(),
            self.to_json().trim_end(),
        )
    }

    /// The request ledger's right-hand side: every typed response class.
    /// Equals [`Self::requests`] on a drained server.
    #[must_use]
    pub fn responses_total(&self) -> u64 {
        self.responses_ok.get()
            + self.sheds.get()
            + self.deadline_hits.get()
            + self.mismatches.get()
            + self.row_failures.get()
            + self.internal_errors.get()
            + self.shutdown_rejects.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::obs::MetricsRegistry;

    /// A pipeline snapshot with every counter, gauge and histogram set to
    /// a distinct fixed value.
    fn pinned_pipeline() -> MetricsSnapshot {
        let reg = MetricsRegistry::default();
        let counters = [
            &reg.rows_submitted,
            &reg.rows_completed,
            &reg.rows_errored,
            &reg.rows_diffed,
            &reg.rows_kernel_errors,
            &reg.rows_discarded,
            &reg.rows_abandoned,
            &reg.rows_sig_skipped,
            &reg.rows_inline_diffed,
            &reg.rows_fast_path,
            &reg.rows_rle_kernel,
            &reg.rows_packed_kernel,
            &reg.rows_systolic_kernel,
            &reg.chunks_dispatched,
            &reg.chunks_completed,
            &reg.chunks_stolen,
            &reg.retries,
            &reg.respawns,
            &reg.timeouts,
            &reg.batches,
            &reg.jobs_submitted,
            &reg.jobs_completed,
            &reg.jobs_abandoned,
        ];
        for (i, counter) in counters.into_iter().enumerate() {
            counter.add(100 + i as u64);
        }
        reg.queue_depth.set(-3);
        reg.in_flight.set(12);
        for v in [0, 1, 900, 1_000_000] {
            reg.row_latency_ns.record(v);
        }
        reg.chunk_latency_ns.record(70_000);
        let mut snapshot = reg.snapshot();
        snapshot.trace_recorded = 4_242;
        snapshot.trace_dropped = 7;
        snapshot
    }

    /// Server metrics with every series set to a distinct fixed value.
    fn pinned_server() -> ServerMetrics {
        let m = ServerMetrics::default();
        let counters = [
            &m.connections_accepted,
            &m.connections_closed,
            &m.requests,
            &m.responses_ok,
            &m.sheds,
            &m.deadline_hits,
            &m.mismatches,
            &m.row_failures,
            &m.internal_errors,
            &m.shutdown_rejects,
            &m.protocol_errors,
            &m.idle_timeouts,
            &m.bytes_read,
            &m.bytes_written,
        ];
        for (i, counter) in counters.into_iter().enumerate() {
            counter.add(10 + i as u64);
        }
        m.connections_open.set(2);
        m.queue_wait_ns.record(3);
        m.queue_wait_ns.record(5_000);
        m
    }

    /// `MetricsSnapshot::to_prometheus` of [`pinned_pipeline`].
    const PIPELINE_PROM: &str = r#"# TYPE diffpipeline_rows_submitted counter
diffpipeline_rows_submitted_total 100
# TYPE diffpipeline_rows_completed counter
diffpipeline_rows_completed_total 101
# TYPE diffpipeline_rows_errored counter
diffpipeline_rows_errored_total 102
# TYPE diffpipeline_rows_diffed counter
diffpipeline_rows_diffed_total 103
# TYPE diffpipeline_rows_kernel_errors counter
diffpipeline_rows_kernel_errors_total 104
# TYPE diffpipeline_rows_discarded counter
diffpipeline_rows_discarded_total 105
# TYPE diffpipeline_rows_abandoned counter
diffpipeline_rows_abandoned_total 106
# TYPE diffpipeline_rows_sig_skipped counter
diffpipeline_rows_sig_skipped_total 107
# TYPE diffpipeline_rows_inline_diffed counter
diffpipeline_rows_inline_diffed_total 108
# TYPE diffpipeline_rows_fast_path counter
diffpipeline_rows_fast_path_total 109
# TYPE diffpipeline_rows_rle_kernel counter
diffpipeline_rows_rle_kernel_total 110
# TYPE diffpipeline_rows_packed_kernel counter
diffpipeline_rows_packed_kernel_total 111
# TYPE diffpipeline_rows_systolic_kernel counter
diffpipeline_rows_systolic_kernel_total 112
# TYPE diffpipeline_chunks_dispatched counter
diffpipeline_chunks_dispatched_total 113
# TYPE diffpipeline_chunks_completed counter
diffpipeline_chunks_completed_total 114
# TYPE diffpipeline_chunks_stolen counter
diffpipeline_chunks_stolen_total 115
# TYPE diffpipeline_retries counter
diffpipeline_retries_total 116
# TYPE diffpipeline_respawns counter
diffpipeline_respawns_total 117
# TYPE diffpipeline_timeouts counter
diffpipeline_timeouts_total 118
# TYPE diffpipeline_batches counter
diffpipeline_batches_total 119
# TYPE diffpipeline_jobs_submitted counter
diffpipeline_jobs_submitted_total 120
# TYPE diffpipeline_jobs_completed counter
diffpipeline_jobs_completed_total 121
# TYPE diffpipeline_jobs_abandoned counter
diffpipeline_jobs_abandoned_total 122
# TYPE diffpipeline_trace_events counter
diffpipeline_trace_events_total 4242
# TYPE diffpipeline_trace_events_dropped counter
diffpipeline_trace_events_dropped_total 7
# TYPE diffpipeline_queue_depth gauge
diffpipeline_queue_depth -3
# TYPE diffpipeline_in_flight gauge
diffpipeline_in_flight 12
# TYPE diffpipeline_row_latency_ns histogram
diffpipeline_row_latency_ns_bucket{le="0"} 1
diffpipeline_row_latency_ns_bucket{le="1"} 2
diffpipeline_row_latency_ns_bucket{le="1023"} 3
diffpipeline_row_latency_ns_bucket{le="1048575"} 4
diffpipeline_row_latency_ns_bucket{le="+Inf"} 4
diffpipeline_row_latency_ns_sum 1000901
diffpipeline_row_latency_ns_count 4
# TYPE diffpipeline_chunk_latency_ns histogram
diffpipeline_chunk_latency_ns_bucket{le="131071"} 1
diffpipeline_chunk_latency_ns_bucket{le="+Inf"} 1
diffpipeline_chunk_latency_ns_sum 70000
diffpipeline_chunk_latency_ns_count 1
# TYPE diffpipeline_row_runs histogram
diffpipeline_row_runs_bucket{le="+Inf"} 0
diffpipeline_row_runs_sum 0
diffpipeline_row_runs_count 0
"#;

    /// `MetricsSnapshot::to_json` of [`pinned_pipeline`].
    const PIPELINE_JSON: &str = r#"{
  "rows_submitted": 100,
  "rows_completed": 101,
  "rows_errored": 102,
  "rows_diffed": 103,
  "rows_kernel_errors": 104,
  "rows_discarded": 105,
  "rows_abandoned": 106,
  "rows_sig_skipped": 107,
  "rows_inline_diffed": 108,
  "rows_fast_path": 109,
  "rows_rle_kernel": 110,
  "rows_packed_kernel": 111,
  "rows_systolic_kernel": 112,
  "chunks_dispatched": 113,
  "chunks_completed": 114,
  "chunks_stolen": 115,
  "retries": 116,
  "respawns": 117,
  "timeouts": 118,
  "batches": 119,
  "jobs_submitted": 120,
  "jobs_completed": 121,
  "jobs_abandoned": 122,
  "queue_depth": -3,
  "in_flight": 12,
  "trace_recorded": 4242,
  "trace_dropped": 7,
  "row_latency_ns": {"count": 4, "sum": 1000901, "buckets": [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]},
  "chunk_latency_ns": {"count": 1, "sum": 70000, "buckets": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]},
  "row_runs": {"count": 0, "sum": 0, "buckets": []}
}
"#;

    /// `ServerMetrics::to_prometheus` of [`pinned_server`].
    const SERVER_PROM: &str = r#"# TYPE diffd_connections_accepted counter
diffd_connections_accepted_total 10
# TYPE diffd_connections_closed counter
diffd_connections_closed_total 11
# TYPE diffd_requests counter
diffd_requests_total 12
# TYPE diffd_responses_ok counter
diffd_responses_ok_total 13
# TYPE diffd_sheds counter
diffd_sheds_total 14
# TYPE diffd_deadline_hits counter
diffd_deadline_hits_total 15
# TYPE diffd_mismatches counter
diffd_mismatches_total 16
# TYPE diffd_row_failures counter
diffd_row_failures_total 17
# TYPE diffd_internal_errors counter
diffd_internal_errors_total 18
# TYPE diffd_shutdown_rejects counter
diffd_shutdown_rejects_total 19
# TYPE diffd_protocol_errors counter
diffd_protocol_errors_total 20
# TYPE diffd_idle_timeouts counter
diffd_idle_timeouts_total 21
# TYPE diffd_bytes_read counter
diffd_bytes_read_total 22
# TYPE diffd_bytes_written counter
diffd_bytes_written_total 23
# TYPE diffd_connections_open gauge
diffd_connections_open 2
# TYPE diffd_queue_wait_ns histogram
diffd_queue_wait_ns_bucket{le="3"} 1
diffd_queue_wait_ns_bucket{le="8191"} 2
diffd_queue_wait_ns_bucket{le="+Inf"} 2
diffd_queue_wait_ns_sum 5003
diffd_queue_wait_ns_count 2
# TYPE diffd_compute_ns histogram
diffd_compute_ns_bucket{le="+Inf"} 0
diffd_compute_ns_sum 0
diffd_compute_ns_count 0
"#;

    /// `ServerMetrics::to_json` of [`pinned_server`].
    const SERVER_JSON: &str = r#"{
  "connections_accepted": 10,
  "connections_closed": 11,
  "requests": 12,
  "responses_ok": 13,
  "sheds": 14,
  "deadline_hits": 15,
  "mismatches": 16,
  "row_failures": 17,
  "internal_errors": 18,
  "shutdown_rejects": 19,
  "protocol_errors": 20,
  "idle_timeouts": 21,
  "bytes_read": 22,
  "bytes_written": 23,
  "connections_open": 2,
  "queue_wait_ns": {"count": 2, "sum": 5003, "buckets": [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]},
  "compute_ns": {"count": 0, "sum": 0, "buckets": []}
}
"#;

    /// The `/metrics.json` body of the two.
    const BODY_JSON: &str = r#"{
"pipeline": {
  "rows_submitted": 100,
  "rows_completed": 101,
  "rows_errored": 102,
  "rows_diffed": 103,
  "rows_kernel_errors": 104,
  "rows_discarded": 105,
  "rows_abandoned": 106,
  "rows_sig_skipped": 107,
  "rows_inline_diffed": 108,
  "rows_fast_path": 109,
  "rows_rle_kernel": 110,
  "rows_packed_kernel": 111,
  "rows_systolic_kernel": 112,
  "chunks_dispatched": 113,
  "chunks_completed": 114,
  "chunks_stolen": 115,
  "retries": 116,
  "respawns": 117,
  "timeouts": 118,
  "batches": 119,
  "jobs_submitted": 120,
  "jobs_completed": 121,
  "jobs_abandoned": 122,
  "queue_depth": -3,
  "in_flight": 12,
  "trace_recorded": 4242,
  "trace_dropped": 7,
  "row_latency_ns": {"count": 4, "sum": 1000901, "buckets": [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]},
  "chunk_latency_ns": {"count": 1, "sum": 70000, "buckets": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]},
  "row_runs": {"count": 0, "sum": 0, "buckets": []}
},
"server": {
  "connections_accepted": 10,
  "connections_closed": 11,
  "requests": 12,
  "responses_ok": 13,
  "sheds": 14,
  "deadline_hits": 15,
  "mismatches": 16,
  "row_failures": 17,
  "internal_errors": 18,
  "shutdown_rejects": 19,
  "protocol_errors": 20,
  "idle_timeouts": 21,
  "bytes_read": 22,
  "bytes_written": 23,
  "connections_open": 2,
  "queue_wait_ns": {"count": 2, "sum": 5003, "buckets": [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]},
  "compute_ns": {"count": 0, "sum": 0, "buckets": []}
}
}
"#;

    #[test]
    fn exposition_bytes_are_pinned() {
        let (pipeline, server) = (pinned_pipeline(), pinned_server());
        assert_eq!(pipeline.to_prometheus(), PIPELINE_PROM);
        assert_eq!(pipeline.to_json(), PIPELINE_JSON);
        assert_eq!(server.to_prometheus(), SERVER_PROM);
        assert_eq!(server.to_json(), SERVER_JSON);
        let body = server.prometheus_body(&pipeline);
        assert_eq!(body, format!("{PIPELINE_PROM}{SERVER_PROM}"));
        assert_eq!(server.json_body(&pipeline), BODY_JSON);
        // The series a load generator scrapes from the `/metrics` body.
        assert!(body.lines().any(|l| l == "diffd_requests_total 12"));
        assert!(body.lines().any(|l| l == "diffd_sheds_total 14"));
    }

    #[test]
    fn expositions_are_well_formed() {
        let m = ServerMetrics::default();
        m.requests.add(3);
        m.responses_ok.add(2);
        m.sheds.inc();
        m.connections_open.set(1);
        m.queue_wait_ns.record(1_500);
        m.queue_wait_ns.record(0);
        m.compute_ns.record(2_000_000);
        let prom = m.to_prometheus();
        assert!(prom.contains("diffd_requests_total 3"));
        assert!(prom.contains("diffd_sheds_total 1"));
        assert!(prom.contains("diffd_connections_open 1"));
        assert!(prom.contains("# TYPE diffd_queue_wait_ns histogram"));
        assert!(prom.contains("diffd_queue_wait_ns_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("diffd_queue_wait_ns_sum 1500"));
        assert!(prom.contains("diffd_compute_ns_count 1"));
        let json = m.to_json();
        assert!(json.contains("\"responses_ok\": 2"));
        assert!(json.contains("\"queue_wait_ns\": {\"count\": 2, \"sum\": 1500"));
        assert!(json.contains("\"compute_ns\": {\"count\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n}"));
        assert_eq!(m.responses_total(), 3);
    }
}
