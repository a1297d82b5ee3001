//! A small blocking client for the `diffd` protocol — used by the CLI's
//! `diff-client` load generator, the loopback test suites and the bench
//! harness. One connection, sequential request/response.

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use rle::RleImage;

use crate::proto::{
    self, DiffReply, ErrorCode, FrameKind, FrameReadError, ProtoError, DEFAULT_MAX_FRAME_LEN,
    REUSED_BUFFER_CAP,
};

/// Everything a request can come back as, typed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes the server closing mid-response).
    Io(std::io::Error),
    /// The server's bytes violated the protocol.
    Proto(ProtoError),
    /// The server answered with a typed error frame.
    Server {
        /// Failure class.
        code: ErrorCode,
        /// Advisory detail.
        message: String,
    },
    /// The connection closed before a response arrived.
    Closed,
    /// A well-formed frame of the wrong kind (or wrong request id).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Proto(e) => write!(f, "protocol error: {e}"),
            Self::Server { code, message } => write!(f, "server error ({code:?}): {message}"),
            Self::Closed => write!(f, "connection closed before a response arrived"),
            Self::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameReadError> for ClientError {
    fn from(e: FrameReadError) -> Self {
        match e {
            FrameReadError::Io(e) => Self::Io(e),
            FrameReadError::Proto(e) => Self::Proto(e),
        }
    }
}

/// Retry policy for requests the server sheds with
/// [`ErrorCode::Overloaded`]: capped exponential backoff with
/// deterministic jitter.
///
/// Only `Overloaded` is retried — it is the one response that promises
/// the request was rejected *before* any work started, so a replay is
/// safe and the condition is transient by construction (admission
/// pressure). Deadline misses, mismatches and transport failures
/// propagate immediately.
///
/// The jitter is a pure function of `(jitter_seed, attempt)`, not of
/// wall-clock or process state: two runs with the same seed back off on
/// the identical schedule, which keeps load tests reproducible, while
/// different seeds (one per client) decorrelate the herd.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 disables retrying).
    pub retries: u32,
    /// Backoff before the first retry; doubles each further attempt.
    pub base_backoff: Duration,
    /// Ceiling the doubling clamps to.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Retrying is opt-in: the default absorbs nothing (`retries: 0`)
    /// but carries sane backoff shape for callers who only bump the
    /// count.
    fn default() -> Self {
        Self {
            retries: 0,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based): `base · 2^attempt`,
    /// clamped to `max_backoff`, then jittered into the upper half of that
    /// window (`[½·d, d]`) so synchronized clients spread out without any
    /// of them waiting longer than the cap.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doubled = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        let mixed = splitmix64(self.jitter_seed ^ (u64::from(attempt) << 32));
        let fraction = 0.5 + (mixed >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        doubled.mul_f64(fraction)
    }
}

/// SplitMix64: the standard 64-bit finalizer, here as the jitter stream.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A blocking `diffd` connection.
pub struct DiffClient {
    stream: TcpStream,
    max_frame_len: u32,
    next_request_id: u64,
    /// Outgoing frames are built here, reused across requests.
    frame: Vec<u8>,
}

impl DiffClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::over(TcpStream::connect(addr)?)
    }

    /// Connects with a connect timeout (a resolved address is required).
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        Self::over(TcpStream::connect_timeout(addr, timeout)?)
    }

    fn over(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            next_request_id: 1,
            frame: Vec::new(),
        })
    }

    /// Caps how long any single read may block (useful in tests so a
    /// misbehaving server cannot wedge the harness).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Builds one frame in the reused buffer and sends it.
    fn send_with(&mut self, build: impl FnOnce(&mut Vec<u8>)) -> Result<(), ClientError> {
        self.frame.clear();
        build(&mut self.frame);
        let sent = self
            .stream
            .write_all(&self.frame)
            .and_then(|()| self.stream.flush());
        // One huge request must not pin its memory for the connection's life.
        self.frame.shrink_to(REUSED_BUFFER_CAP);
        sent.map_err(ClientError::Io)
    }

    fn recv(&mut self) -> Result<(FrameKind, Vec<u8>), ClientError> {
        match proto::read_frame(&mut self.stream, self.max_frame_len)? {
            Some(frame) => Ok(frame),
            None => Err(ClientError::Closed),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send_with(|out| proto::encode_frame_into(out, FrameKind::Ping, &[]))?;
        match self.recv()? {
            (FrameKind::Pong, _) => Ok(()),
            (FrameKind::Error, payload) => Err(server_error(&payload)),
            _ => Err(ClientError::Unexpected("wanted Pong")),
        }
    }

    /// Fetches the server's Prometheus exposition over the binary
    /// protocol.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.send_with(|out| proto::encode_frame_into(out, FrameKind::Metrics, &[]))?;
        match self.recv()? {
            (FrameKind::MetricsText, payload) => Ok(String::from_utf8_lossy(&payload).into_owned()),
            (FrameKind::Error, payload) => Err(server_error(&payload)),
            _ => Err(ClientError::Unexpected("wanted MetricsText")),
        }
    }

    /// Diffs two images on the server. `deadline_ms == 0` requests the
    /// server's default budget. Returns the full reply (ticket range
    /// included) on success.
    pub fn diff(
        &mut self,
        a: &RleImage,
        b: &RleImage,
        deadline_ms: u32,
    ) -> Result<DiffReply, ClientError> {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        self.send_with(|out| {
            proto::encode_diff_request_frame(out, request_id, deadline_ms, a, b);
        })?;
        match self.recv()? {
            (FrameKind::DiffOk, payload) => {
                let reply = proto::decode_diff_reply(&payload).map_err(ClientError::Proto)?;
                if reply.request_id != request_id {
                    return Err(ClientError::Unexpected("response for a different request"));
                }
                Ok(reply)
            }
            (FrameKind::Error, payload) => Err(server_error(&payload)),
            _ => Err(ClientError::Unexpected("wanted DiffOk or Error")),
        }
    }

    /// Like [`diff`](Self::diff), but absorbs `Overloaded` sheds under
    /// `policy`, sleeping the jittered backoff between attempts. Returns
    /// the reply plus how many sheds were absorbed on the way (0 = the
    /// first attempt went through). Exhausting the budget surfaces the
    /// final `Overloaded` error; every other failure propagates
    /// unretried.
    pub fn diff_with_retry(
        &mut self,
        a: &RleImage,
        b: &RleImage,
        deadline_ms: u32,
        policy: &RetryPolicy,
    ) -> Result<(DiffReply, u32), ClientError> {
        let mut sheds = 0u32;
        loop {
            match self.diff(a, b, deadline_ms) {
                Ok(reply) => return Ok((reply, sheds)),
                Err(ClientError::Server {
                    code: ErrorCode::Overloaded,
                    message,
                }) => {
                    if sheds >= policy.retries {
                        return Err(ClientError::Server {
                            code: ErrorCode::Overloaded,
                            message,
                        });
                    }
                    std::thread::sleep(policy.backoff(sheds));
                    sheds += 1;
                }
                Err(other) => return Err(other),
            }
        }
    }
}

fn server_error(payload: &[u8]) -> ClientError {
    match proto::decode_error_reply(payload) {
        Ok(reply) => ClientError::Server {
            code: reply.code,
            message: reply.message,
        },
        Err(e) => ClientError::Proto(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_stays_in_the_jitter_window() {
        let policy = RetryPolicy {
            retries: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(160),
            jitter_seed: 7,
        };
        for attempt in 0..12 {
            let nominal = Duration::from_millis(10)
                .saturating_mul(1u32 << attempt.min(16))
                .min(Duration::from_millis(160));
            let d = policy.backoff(attempt);
            assert!(
                d >= nominal / 2 && d <= nominal,
                "attempt {attempt}: {d:?} outside [{:?}, {nominal:?}]",
                nominal / 2
            );
        }
        // The cap holds even at absurd attempt counts (no shift overflow).
        assert!(policy.backoff(u32::MAX) <= Duration::from_millis(160));
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_decorrelated_across_seeds() {
        let a = RetryPolicy {
            jitter_seed: 1,
            retries: 3,
            ..RetryPolicy::default()
        };
        let b = RetryPolicy {
            jitter_seed: 2,
            ..a
        };
        for attempt in 0..8 {
            assert_eq!(
                a.backoff(attempt),
                a.backoff(attempt),
                "same seed, same delay"
            );
        }
        assert!(
            (0..8).any(|i| a.backoff(i) != b.backoff(i)),
            "different seeds must produce different schedules"
        );
    }
}
