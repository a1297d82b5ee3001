//! `diffd_serve`: an in-process `DiffServer` (default config, always
//! observed) on loopback, driven through `DiffClient` on `nproc`
//! connections.
//!
//! Phase A is an open loop at a fixed absolute rate: each request is due
//! at `k / rate`, and its latency runs from that due time, so a stall also
//! charges the requests queued behind it. Phase B is a closed loop with
//! no think time; its completion rate is the capacity.

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use diffd::proto::{self, DiffReply, DiffRequest, FrameKind, DEFAULT_MAX_FRAME_LEN};
use diffd::{
    ClientError, DiffClient, DiffServer, DiffServerConfig, DrainReport, ErrorCode, ServerHandle,
};
use rle::RleImage;
use workload::{errors, ErrorModel, GenParams, RowGenerator};

use crate::layers::{self, Pair};
use crate::report::{rss_peak_mb, Metrics, Tally};
use crate::stats::{iqm, ratio, Samples};
use crate::trace::{TraceLog, Tracer};
use crate::{mix, Cfg, Outcome};

const WIDTH: u32 = 2_048;
const HEIGHT: usize = 128;
const DENSITY: f64 = 0.3;
const ERROR_FRACTION: f64 = 0.02;
/// Distinct request pairs the load draws from.
const POOL: usize = 32;
const SETUP_REPS: usize = 41;

struct Inputs {
    pairs: Vec<Pair>,
    expected: Vec<RleImage>,
}

fn generate(seed: u64, tr: &mut Tracer) -> Inputs {
    let params = GenParams::for_density(WIDTH, DENSITY);
    let mut pairs = Vec::with_capacity(POOL);
    let mut expected = Vec::with_capacity(POOL);
    for i in 0..POOL as u64 {
        let s = mix(seed ^ i);
        let a = RowGenerator::new(params, s).next_image(HEIGHT);
        let b = errors::apply_errors_image(&a, &ErrorModel::fraction(ERROR_FRACTION), mix(s));
        expected.push(tr.time("rle.xor_reference", None, i, || {
            a.xor(&b).expect("pool pairs share dimensions")
        }));
        pairs.push((Arc::new(a), Arc::new(b)));
    }
    Inputs { pairs, expected }
}

/// A running server and the benchmark's connections to it.
struct Service {
    handle: ServerHandle,
    join: JoinHandle<DrainReport>,
    clients: Vec<DiffClient>,
}

/// Server bind, executor spawn, `threads` connections and one verified
/// request: the set-up a diffd caller waits for.
fn start(inputs: &Inputs, threads: usize) -> Result<Service, String> {
    let server = DiffServer::bind("127.0.0.1:0", DiffServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr: SocketAddr = server.local_addr();
    let (handle, join) = server.spawn();
    let mut clients = Vec::with_capacity(threads);
    for _ in 0..threads {
        let mut c = DiffClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("read timeout: {e}"))?;
        clients.push(c);
    }
    let (a, b) = &inputs.pairs[0];
    let reply = clients[0]
        .diff(a, b, 0)
        .map_err(|e| format!("first request: {e}"))?;
    if reply.image != inputs.expected[0] {
        return Err("first reply differs from the reference XOR".into());
    }
    Ok(Service {
        handle,
        join,
        clients,
    })
}

fn stop(svc: Service) -> Result<DrainReport, String> {
    drop(svc.clients);
    svc.handle.shutdown();
    svc.join
        .join()
        .map_err(|_| "server thread panicked".to_owned())
}

/// One request's record, in milliseconds.
#[derive(Clone, Copy, Default)]
struct Req {
    latency: f64,
    late: f64,
    rtt: f64,
    queue_wait: f64,
    compute: f64,
}

/// What one phase produced across all connections.
#[derive(Default)]
struct Phase {
    reqs: Vec<Req>,
    ok: u64,
    sheds: u64,
    /// Concurrent connections.
    clients: usize,
    /// One reply per pool pair, kept for the proto replay.
    replies: Vec<Option<DiffReply>>,
}

impl Phase {
    /// Closed-loop completions per second: connections over the
    /// interquartile mean round trip (Little's law, no think time).
    fn capacity(&self) -> f64 {
        let rtt_s: Vec<f64> = self.reqs.iter().map(|r| r.rtt / 1e3).collect();
        ratio(self.clients as f64, iqm(&rtt_s))
    }
}

enum Loop {
    /// Open loop at this many requests per second across all connections.
    Open(f64),
    Closed,
}

#[allow(clippy::too_many_arguments)]
fn drive(
    svc: &mut Service,
    inputs: &Inputs,
    seed: u64,
    mode: &Loop,
    window: Duration,
    log: &mut TraceLog,
    traced: bool,
    tally: &mut Tally,
) -> Phase {
    let n = svc.clients.len();
    let start = Instant::now();
    let until = start + window;
    let log_ref = &*log;
    let per_thread: Vec<(Phase, Tracer, Tally)> = std::thread::scope(|s| {
        let workers: Vec<_> = svc
            .clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                s.spawn(move || {
                    let mut tr = log_ref.tracer(traced, t as u32 + 1);
                    let mut tally = Tally::default();
                    let mut phase = Phase {
                        replies: vec![None; POOL],
                        ..Phase::default()
                    };
                    let mut k = t as u64;
                    loop {
                        let due = match mode {
                            Loop::Open(rate) => start + Duration::from_secs_f64(k as f64 / rate),
                            Loop::Closed => Instant::now(),
                        };
                        if due >= until {
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let idx = (mix(seed ^ k) % POOL as u64) as usize;
                        let (a, b) = &inputs.pairs[idx];
                        let root = tr.open("loadgen.request", None, k);
                        let sent = Instant::now();
                        let res = client.diff(a, b, 0);
                        let done = Instant::now();
                        tr.record("client.diff", root, k, sent, done);
                        match res {
                            Ok(reply) => {
                                if reply.image == inputs.expected[idx] {
                                    tally.ok();
                                    phase.ok += 1;
                                } else {
                                    tally.wrong("diffd reply differs from the reference XOR");
                                }
                                phase.reqs.push(Req {
                                    latency: ms(done - due),
                                    late: ms(sent.saturating_duration_since(due)),
                                    rtt: ms(done - sent),
                                    queue_wait: reply.queue_wait_ns as f64 / 1e6,
                                    compute: reply.compute_ns as f64 / 1e6,
                                });
                                phase.replies[idx].get_or_insert(reply);
                            }
                            Err(ClientError::Server {
                                code: ErrorCode::Overloaded,
                                ..
                            }) => {
                                phase.sheds += 1;
                                tally.fail("diffd shed a request");
                            }
                            Err(e) => tally.fail(&format!("diffd request failed: {e}")),
                        }
                        tr.close(root);
                        k += n as u64;
                    }
                    (phase, tr, tally)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    let mut out = Phase {
        replies: vec![None; POOL],
        clients: n,
        ..Phase::default()
    };
    for (phase, tr, t) in per_thread {
        out.reqs.extend(phase.reqs);
        out.ok += phase.ok;
        out.sheds += phase.sheds;
        for (slot, r) in out.replies.iter_mut().zip(phase.replies) {
            if slot.is_none() {
                *slot = r;
            }
        }
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        tally.wrong += t.wrong;
        tally.problems.extend(t.problems);
        log.absorb(tr);
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn column(reqs: &[Req], f: impl Fn(&Req) -> f64) -> Samples {
    let mut s = Samples::default();
    for r in reqs {
        s.push(f(r));
    }
    s
}

/// Phase A then phase B, each for half of `window`.
#[allow(clippy::too_many_arguments)]
fn measure(
    svc: &mut Service,
    inputs: &Inputs,
    cfg: &Cfg,
    rate: f64,
    window: Duration,
    log: &mut TraceLog,
    traced: bool,
    tally: &mut Tally,
) -> (Phase, Phase) {
    let half = window / 2;
    let a = drive(
        svc,
        inputs,
        cfg.seed,
        &Loop::Open(rate),
        half,
        log,
        traced,
        tally,
    );
    let b = drive(
        svc,
        inputs,
        mix(cfg.seed),
        &Loop::Closed,
        half,
        log,
        traced,
        tally,
    );
    (a, b)
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let rate = cfg
        .rate
        .ok_or("diffd_serve needs --rate <requests per second> for phase A")?;
    let mut out = Outcome::default();
    let mut tr = out.log.tracer(cfg.trace, 0);
    let tally = &mut out.tally;

    // Set-up is input generation (the request pool and its reference
    // XORs) plus the service start, each repeated and timed apart;
    // `setup_s` is the sum of their medians. Generating between service
    // starts made the allocator's per-thread arenas, and so the peak RSS,
    // differ from run to run.
    let mut generations = Samples::default();
    let mut inputs = None;
    for i in 0..SETUP_REPS {
        let last = i + 1 == SETUP_REPS;
        let mut quiet = out.log.tracer(false, 0);
        let t0 = Instant::now();
        let generated = generate(cfg.seed, if last { &mut tr } else { &mut quiet });
        generations.push(t0.elapsed().as_secs_f64());
        if last {
            inputs = Some(generated);
        }
    }
    let inputs = inputs.expect("at least one generation");
    let mut starts = Samples::default();
    let mut svc = None;
    for i in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = start(&inputs, cfg.threads)?;
        starts.push(t0.elapsed().as_secs_f64());
        tally.ok();
        if i + 1 < SETUP_REPS {
            let drain = stop(s)?;
            tally.gate("setup_drain", drain.sessions_detached == 0, || {
                format!("{} sessions detached", drain.sessions_detached)
            });
        } else {
            svc = Some(s);
        }
    }
    let mut svc = svc.expect("at least one set-up");
    let window = cfg.window();
    let m = &mut out.metrics;

    let (a, b) = measure(
        &mut svc,
        &inputs,
        cfg,
        rate,
        window,
        &mut out.log,
        false,
        tally,
    );
    let latency = column(&a.reqs, |r| r.latency);
    let closed_rtt = column(&b.reqs, |r| r.rtt);
    let capacity = b.capacity();
    m.set("setup_s", generations.p50() + starts.p50());
    m.set("ops_per_s", capacity);
    m.set("op_p50_ms", closed_rtt.p50());
    out.named.push(("diffd.p50_ms", latency.p50(), "ms"));
    out.named.push(("diffd.p99_ms", latency.p99(), "ms"));
    out.named.push(("diffd.max_rps", capacity, "req/s"));
    out.named
        .push(("diffd.closed_loop_rtt_p50_ms", closed_rtt.p50(), "ms"));
    out.named
        .push(("diffd.phase_a_requests", a.reqs.len() as f64, "count"));
    out.named.push(("diffd.phase_a_rate", rate, "req/s"));

    if cfg.trace {
        let (ta, tb) = measure(
            &mut svc,
            &inputs,
            cfg,
            rate,
            window,
            &mut out.log,
            true,
            tally,
        );
        let traced_capacity = tb.capacity();
        m.set("trace.overhead_ratio", ratio(capacity, traced_capacity));
        layer_metrics(&ta, &tb, &inputs, cfg, &mut tr, m, tally);
    }

    // Quiescence: every admitted request answered, nothing left in the
    // executor, and the server's own books close.
    let scrape = svc.clients[0]
        .metrics()
        .map_err(|e| format!("/metrics scrape: {e}"))?;
    let requests = prom_counter(&scrape, "diffd_requests_total");
    let sheds = prom_counter(&scrape, "diffd_sheds_total");
    m.set("server.shed_ratio", ratio(sheds, requests));
    let sm = svc.handle.server_metrics();
    let (req_total, resp_total) = (sm.requests.get(), sm.responses_total());
    tally.gate("server_ledger", req_total == resp_total, || {
        format!("{req_total} requests but {resp_total} responses")
    });
    let (in_flight, abandoned) = (
        svc.handle.pipeline_in_flight(),
        svc.handle.pipeline_abandoned(),
    );
    tally.gate("executor_idle", in_flight == 0 && abandoned == 0, || {
        format!("{in_flight} rows in flight, {abandoned} abandoned")
    });
    let drain = stop(svc)?;
    tally.gate("drain", drain.sessions_detached == 0, || {
        format!("{} sessions detached", drain.sessions_detached)
    });
    m.set("rss_peak_mb", rss_peak_mb());
    out.log.absorb(tr);
    Ok(out)
}

/// Per-layer numbers from the traced phases plus the layer replays.
fn layer_metrics(
    a: &Phase,
    b: &Phase,
    inputs: &Inputs,
    cfg: &Cfg,
    tr: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    m.set("loadgen.late_p99_ms", column(&a.reqs, |r| r.late).p99());
    let latency = column(&a.reqs, |r| r.latency);
    m.set("loadgen.latency_p50_ms", latency.p50());
    m.set("loadgen.latency_p99_ms", latency.p99());
    let rtt = column(&a.reqs, |r| r.rtt);
    m.set("client.rtt_p50_ms", rtt.p50());
    m.set("client.rtt_p99_ms", rtt.p99());
    m.set("client.sheds", (a.sheds + b.sheds) as f64);

    let proto_client_ms = proto_replay(a, inputs, tr, m, tally);
    let qw = column(&a.reqs, |r| r.queue_wait);
    let compute = column(&a.reqs, |r| r.compute);
    let unaccounted = column(&a.reqs, |r| {
        r.rtt - proto_client_ms - r.queue_wait - r.compute
    });
    m.set("server.queue_wait_p50_ms", qw.p50());
    m.set("server.queue_wait_p99_ms", qw.p99());
    m.set("server.compute_p50_ms", compute.p50());
    m.set("server.compute_p99_ms", compute.p99());
    m.set("server.unaccounted_p50_ms", unaccounted.p50());
    let parts = proto_client_ms + qw.p50() + compute.p50() + unaccounted.p50();
    m.set(
        "server.reconcile_gap_ratio",
        ratio((rtt.p50() - parts).abs(), rtt.p50()),
    );

    let kernel_pair_us = layers::kernel(&inputs.pairs, tr, m, tally);
    layers::executor(
        &inputs.pairs,
        &inputs.expected,
        cfg.threads,
        &kernel_pair_us,
        tr,
        m,
        tally,
    );
    layers::rle(&inputs.pairs, tr, m, tally);
}

/// Replays the proto codec on the requests and replies phase A carried.
/// Returns the client's share (request encode, reply frame read and reply
/// decode) at p50, in ms.
fn proto_replay(
    a: &Phase,
    inputs: &Inputs,
    tr: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> f64 {
    let mut enc_req = Samples::default();
    let mut dec_req = Samples::default();
    let mut enc_reply = Samples::default();
    let mut read = Samples::default();
    let mut dec_reply = Samples::default();
    let (mut req_bytes, mut reply_bytes) = (Samples::default(), Samples::default());
    let mut client_us = Samples::default();
    for pass in 0..16u64 {
        for (idx, reply) in a.replies.iter().enumerate() {
            let Some(reply) = reply else { continue };
            let op = pass << 32 | idx as u64;
            let (pa, pb) = &inputs.pairs[idx];
            let req = DiffRequest {
                request_id: reply.request_id,
                deadline_ms: 0,
                a: (**pa).clone(),
                b: (**pb).clone(),
            };
            let t0 = Instant::now();
            let payload = proto::encode_diff_request(&req);
            let t1 = Instant::now();
            let decoded = proto::decode_diff_request(&payload);
            let t2 = Instant::now();
            let reply_payload = proto::encode_diff_reply(reply);
            let t3 = Instant::now();
            let frame = proto::encode_frame(FrameKind::DiffOk, &reply_payload);
            let t4 = Instant::now();
            let got = proto::read_frame(&mut Cursor::new(&frame), DEFAULT_MAX_FRAME_LEN);
            let t5 = Instant::now();
            let back = got
                .ok()
                .flatten()
                .map(|(_, p)| proto::decode_diff_reply(&p));
            let t6 = Instant::now();
            tr.record("proto.encode_diff_request", None, op, t0, t1);
            tr.record("proto.decode_diff_request", None, op, t1, t2);
            tr.record("proto.encode_diff_reply", None, op, t2, t3);
            tr.record("proto.read_frame", None, op, t4, t5);
            tr.record("proto.decode_diff_reply", None, op, t5, t6);
            enc_req.push_us(t1 - t0);
            dec_req.push_us(t2 - t1);
            enc_reply.push_us(t3 - t2);
            read.push_us(t5 - t4);
            // The read replay includes copying the payload out of the
            // frame; the decode is timed on the payload alone.
            dec_reply.push_us(t6 - t5);
            client_us.push_us((t1 - t0) + (t6 - t4));
            req_bytes.push((payload.len() + proto::FRAME_HEADER_LEN) as f64);
            reply_bytes.push(frame.len() as f64);
            let req_ok = decoded.is_ok_and(|d| d.a == req.a && d.b == req.b);
            let reply_ok = matches!(back, Some(Ok(r)) if r.image == inputs.expected[idx]);
            if !(req_ok && reply_ok) {
                tally.wrong("proto replay did not round-trip");
            }
        }
    }
    m.set("proto.encode_req_us", enc_req.p50());
    m.set("proto.decode_req_us", dec_req.p50());
    m.set("proto.encode_reply_us", enc_reply.p50());
    m.set("proto.decode_reply_us", dec_reply.p50());
    m.set("proto.read_frame_us", read.p50());
    m.set("proto.req_bytes", req_bytes.mean());
    m.set("proto.reply_bytes", reply_bytes.mean());
    client_us.p50() / 1e3
}

/// A counter's value from a Prometheus exposition (0 if absent).
fn prom_counter(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
            rest.trim().parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}
