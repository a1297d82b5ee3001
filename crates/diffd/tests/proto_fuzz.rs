//! Wire-protocol fuzzing, modeled on the repo's `serialize_fuzz` suite:
//! every truncation point, bit flips, crafted oversize claims and raw
//! garbage — first against the pure decoders, then against a live server
//! socket. The bar is identical everywhere: a typed [`ProtoError`] (or a
//! typed error frame plus a clean close), never a panic, and never an
//! allocation proportional to an attacker's *claimed* size.

use std::io::{Cursor, Write};
use std::net::TcpStream;
use std::time::Duration;

use diffd::proto::{
    self, encode_frame, DiffReply, DiffRequest, ErrorCode, FrameKind, FrameReadError, ProtoError,
    DEFAULT_MAX_FRAME_LEN, FRAME_HEADER_LEN, PREALLOC_CAP,
};
use diffd::{DiffClient, DiffServer, DiffServerConfig};
use rle::RleImage;
use workload::{GenParams, RowGenerator};

/// Deterministic xorshift64* — same self-contained generator idiom the
/// serialize fuzz suite uses; no RNG dependency in the loop.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

fn sample_image(seed: u64) -> RleImage {
    RowGenerator::new(GenParams::for_density(48, 0.3), seed).next_image(6)
}

fn sample_request() -> DiffRequest {
    DiffRequest {
        request_id: 42,
        deadline_ms: 250,
        a: sample_image(1),
        b: sample_image(2),
    }
}

fn fuzz_server_config() -> DiffServerConfig {
    DiffServerConfig {
        threads: 2,
        max_frame_len: 1 << 20,
        // Short slowloris windows: half-delivered garbage should be
        // evicted in milliseconds, not wall-clock test time.
        idle_timeout: Duration::from_millis(200),
        frame_timeout: Duration::from_millis(200),
        poll_interval: Duration::from_millis(5),
        shutdown_grace: Duration::from_secs(5),
        ..DiffServerConfig::default()
    }
}

// ---------------------------------------------------------------- decoders

#[test]
fn header_truncated_at_every_cut_is_typed() {
    let frame = encode_frame(FrameKind::Ping, &[]);
    for cut in 0..FRAME_HEADER_LEN {
        let mut cur = Cursor::new(frame[..cut].to_vec());
        match proto::read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN) {
            // EOF before any byte is the one *clean* case: a peer hanging
            // up between frames.
            Ok(None) => assert_eq!(cut, 0),
            Err(FrameReadError::Proto(ProtoError::Truncated { needed, have })) => {
                assert_eq!(needed, FRAME_HEADER_LEN);
                assert_eq!(have, cut);
            }
            other => panic!("cut {cut}: wanted Truncated, got {other:?}"),
        }
    }
}

#[test]
fn payload_truncated_at_every_cut_is_typed() {
    let payload = proto::encode_diff_request(&sample_request());
    // Whole-frame truncation: header promises `payload.len()` bytes.
    let frame = encode_frame(FrameKind::Diff, &payload);
    for cut in FRAME_HEADER_LEN..frame.len() {
        let mut cur = Cursor::new(frame[..cut].to_vec());
        match proto::read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN) {
            Err(FrameReadError::Proto(ProtoError::Truncated { .. })) => {}
            other => panic!("frame cut {cut}: wanted Truncated, got {other:?}"),
        }
    }
    // Payload-structure truncation: every cut of the request body itself
    // must decode to a typed error, never a panic and never an `Ok`.
    for cut in 0..payload.len() {
        assert!(
            proto::decode_diff_request(&payload[..cut]).is_err(),
            "request cut {cut} decoded despite missing bytes"
        );
    }
    assert!(proto::decode_diff_request(&payload).is_ok());
}

#[test]
fn every_single_bit_flip_decodes_or_rejects_without_panicking() {
    let req = sample_request();
    let payload = proto::encode_diff_request(&req);
    let frame = encode_frame(FrameKind::Diff, &payload);
    for byte in 0..frame.len() {
        for bit in 0..8 {
            let mut mutant = frame.clone();
            mutant[byte] ^= 1 << bit;
            // The reader enforces header caps first, then payload shape;
            // any outcome is fine except a panic.
            let mut cur = Cursor::new(mutant);
            if let Ok(Some((FrameKind::Diff, p))) =
                proto::read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN)
            {
                let _ = proto::decode_diff_request(&p);
            }
        }
    }
}

#[test]
fn oversize_claims_are_rejected_before_any_allocation() {
    for declared in [DEFAULT_MAX_FRAME_LEN + 1, u32::MAX / 2, u32::MAX] {
        let mut header = Vec::new();
        header.extend_from_slice(&proto::FRAME_MAGIC);
        header.push(FrameKind::Diff as u8);
        header.extend_from_slice(&declared.to_le_bytes());
        // Only the 9 header bytes exist: if the reader tried to allocate or
        // read `declared` bytes this would hang or OOM instead of erroring.
        let mut cur = Cursor::new(header);
        match proto::read_frame(&mut cur, DEFAULT_MAX_FRAME_LEN) {
            Err(FrameReadError::Proto(ProtoError::FrameTooLarge { declared: d, max })) => {
                assert_eq!(d, declared);
                assert_eq!(max, DEFAULT_MAX_FRAME_LEN);
            }
            other => panic!("declared {declared}: wanted FrameTooLarge, got {other:?}"),
        }
    }
}

#[test]
fn random_garbage_streams_never_panic_the_decoder() {
    let mut rng = XorShift(0xF00D_F00D_F00D_F00D);
    for round in 0..500 {
        let len = (rng.next() % 256) as usize;
        let mut blob = vec![0u8; len];
        rng.fill(&mut blob);
        let mut cur = Cursor::new(blob);
        // Drain the cursor through the frame reader; every iteration must
        // terminate with Ok or a typed error.
        while let Ok(Some(_)) = proto::read_frame(&mut cur, 4096) {}
        // The payload decoders get the same raw treatment.
        let mut body = vec![0u8; (rng.next() % 128) as usize];
        rng.fill(&mut body);
        let _ = proto::decode_diff_request(&body);
        let _ = proto::decode_diff_reply(&body);
        let _ = proto::decode_error_reply(&body);
        let _ = round;
    }
}

#[test]
fn frames_built_in_place_match_the_payload_then_frame_path() {
    for seed in 0..16u64 {
        let req = DiffRequest {
            request_id: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            deadline_ms: seed as u32 * 7,
            a: sample_image(seed),
            b: sample_image(seed + 100),
        };
        let want = encode_frame(FrameKind::Diff, &proto::encode_diff_request(&req));
        // Appending after existing bytes must not disturb either length
        // patch.
        let mut out = b"earlier frame".to_vec();
        proto::encode_diff_request_frame(&mut out, req.request_id, req.deadline_ms, &req.a, &req.b);
        assert_eq!(&out[13..], &want[..], "Diff frame, seed {seed}");

        let reply = DiffReply {
            request_id: req.request_id,
            ticket_lo: seed,
            ticket_hi: seed + 6,
            queue_wait_ns: seed * 1_000,
            compute_ns: seed * 77_777,
            image: req.a.xor(&req.b).unwrap(),
        };
        let want = encode_frame(FrameKind::DiffOk, &proto::encode_diff_reply(&reply));
        let mut out = b"earlier frame".to_vec();
        proto::encode_diff_reply_frame(&mut out, &reply);
        assert_eq!(&out[13..], &want[..], "DiffOk frame, seed {seed}");

        let mut out = b"x".to_vec();
        proto::encode_frame_into(&mut out, FrameKind::Ping, b"body");
        assert_eq!(&out[1..], &encode_frame(FrameKind::Ping, b"body")[..]);
    }
}

// ------------------------------------------------------------- live socket

/// Sends raw bytes, returns the server's typed error frame (if any), and
/// asserts the connection then closes cleanly.
fn poke_server(addr: std::net::SocketAddr, bytes: &[u8]) -> Option<ErrorCode> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    let code = match proto::read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(Some((FrameKind::Error, payload))) => {
            Some(proto::decode_error_reply(&payload).unwrap().code)
        }
        Ok(None) => None,
        other => panic!("wanted an error frame or clean close, got {other:?}"),
    };
    if code.is_some() {
        // After the typed error the server hangs up at once.
        assert!(proto::read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .is_none());
    }
    code
}

#[test]
fn live_server_answers_malformed_frames_with_typed_errors_and_survives() {
    let cfg = fuzz_server_config();
    let max_len = cfg.max_frame_len;
    let server = DiffServer::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    // Bad magic.
    assert_eq!(
        poke_server(addr, b"NOPE\x01\x00\x00\x00\x00"),
        Some(ErrorCode::Protocol)
    );
    // Unknown kind byte (in the request range).
    let mut unknown = Vec::new();
    unknown.extend_from_slice(&proto::FRAME_MAGIC);
    unknown.push(0x7F);
    unknown.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(poke_server(addr, &unknown), Some(ErrorCode::Protocol));
    // A response kind sent as a request.
    let mut response_kind = Vec::new();
    response_kind.extend_from_slice(&proto::FRAME_MAGIC);
    response_kind.push(FrameKind::DiffOk as u8);
    response_kind.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(poke_server(addr, &response_kind), Some(ErrorCode::Protocol));
    // Oversize claim: rejected from the header alone — the connection
    // never has to deliver (and the server never allocates) the claimed
    // gigabytes.
    let mut oversize = Vec::new();
    oversize.extend_from_slice(&proto::FRAME_MAGIC);
    oversize.push(FrameKind::Diff as u8);
    oversize.extend_from_slice(&(max_len + 1).to_le_bytes());
    assert_eq!(poke_server(addr, &oversize), Some(ErrorCode::Protocol));
    // A well-framed Diff whose payload is garbage.
    let mut body = vec![0u8; 64];
    XorShift(0xBAD5EED).fill(&mut body);
    assert_eq!(
        poke_server(addr, &encode_frame(FrameKind::Diff, &body)),
        Some(ErrorCode::Protocol)
    );
    // Truncation: promise 100 payload bytes, send 10, hang up. The server
    // closes without a response (there is no one left to answer).
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(&proto::FRAME_MAGIC);
        frame.push(FrameKind::Diff as u8);
        frame.extend_from_slice(&100u32.to_le_bytes());
        frame.extend_from_slice(&[0u8; 10]);
        stream.write_all(&frame).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        assert!(proto::read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .is_none());
    }

    // Raw garbage connections in bulk.
    let mut rng = XorShift(0xDEAD_BEEF_0BAD_CAFE);
    for _ in 0..20 {
        let mut blob = vec![0u8; 1 + (rng.next() % 64) as usize];
        rng.fill(&mut blob);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = stream.write_all(&blob);
        // Half-close so the server sees EOF at once instead of waiting out
        // the idle window for bytes that will never come.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        // Whatever comes back (typed error or close), it must come back.
        let _ = proto::read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN);
    }

    // After all of that the server still answers a polite client.
    let mut client = DiffClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    client.ping().unwrap();
    let m = handle.server_metrics();
    assert!(
        m.protocol_errors.get() >= 5,
        "each malformed connection is accounted ({} seen)",
        m.protocol_errors.get()
    );
    assert_eq!(
        handle.pipeline_in_flight(),
        0,
        "garbage never reaches the pipeline"
    );

    handle.shutdown();
    join.join().unwrap();
    // Every accepted connection was also closed.
    let m = handle.server_metrics();
    assert_eq!(m.connections_open.get(), 0);
    assert_eq!(m.connections_accepted.get(), m.connections_closed.get());
}

#[test]
fn live_server_reads_a_dribbled_frame_larger_than_the_preallocation() {
    let server = DiffServer::bind("127.0.0.1:0", fuzz_server_config()).unwrap();
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    // Two wide, busy images: the payload is several times PREALLOC_CAP,
    // so the server's buffer has to grow while bytes arrive.
    let gen = |seed| RowGenerator::new(GenParams::for_density(8192, 0.3), seed).next_image(512);
    let (a, b) = (gen(7), gen(8));
    let mut frame = Vec::new();
    proto::encode_diff_request_frame(&mut frame, 5, 0, &a, &b);
    assert!(frame.len() > 3 * PREALLOC_CAP, "{} bytes", frame.len());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for piece in frame.chunks(7_919) {
        stream.write_all(piece).unwrap();
        stream.flush().unwrap();
    }
    match proto::read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).unwrap() {
        Some((FrameKind::DiffOk, payload)) => {
            let reply = proto::decode_diff_reply(&payload).unwrap();
            assert_eq!(reply.request_id, 5);
            assert_eq!(reply.image, a.xor(&b).unwrap());
        }
        other => panic!("wanted DiffOk, got {other:?}"),
    }
    drop(stream);
    handle.shutdown();
    join.join().unwrap();
}
