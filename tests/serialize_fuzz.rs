//! Adversarial-input property suite for `rle::serialize`: the decoders
//! face document-pipeline reality (truncated transfers, bit rot, hostile
//! headers) and must *never* panic or allocate beyond input-proportional
//! bounds — every malformed stream is a structured [`DecodeError`].
//!
//! Strategy coverage: exact round-trips on valid bytes, every truncation
//! point, single-bit flips, random garbage, trailing extensions, and
//! crafted count/height headers.
//!
//! The codec is also held to a straightforward reference implementation
//! ([`reference`]): the encoders must produce the same bytes, and the
//! decoders must return the same `Result` — the same image, or the same
//! error variant with the same fields — on every input.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::rle_row;
use proptest::prelude::*;
use rle_systolic::rle::serialize::{
    self, decode_image, decode_row, encode_image, encode_row, DecodeError, ImageReader,
};
use rle_systolic::rle::{Pixel, RleImage, RleRow, Run};

/// Counts the bytes each thread asks the allocator for, so a test can
/// check that a decoder rejects a header without allocating.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: forwards every call to `System` unchanged; the thread-local
// counter is a const-initialised `Cell` without a destructor, so touching
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes this thread allocated while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// The straightforward codec the optimised one must match exactly: one
/// checked varint read per value, every run pushed through
/// `RleRow::push_run`, every byte appended with `push`.
mod reference {
    use super::*;
    use rle_systolic::rle::RleError;

    fn put_varint(out: &mut Vec<u8>, mut v: u32) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    fn get_varint(data: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
        let mut value: u32 = 0;
        let mut shift = 0u32;
        loop {
            let &byte = data.get(*pos).ok_or(DecodeError::Truncated)?;
            *pos += 1;
            if shift > 28 || (shift == 28 && byte & 0x70 != 0) {
                return Err(DecodeError::VarintOverflow);
            }
            value |= u32::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    fn encode_row_body(row: &RleRow, out: &mut Vec<u8>) {
        put_varint(out, row.run_count() as u32);
        let mut prev_end: Pixel = 0;
        for run in row.runs() {
            put_varint(out, run.start() - prev_end);
            put_varint(out, run.len() - 1);
            prev_end = run.end_exclusive();
        }
    }

    fn decode_row_body(data: &[u8], pos: &mut usize, width: Pixel) -> Result<RleRow, DecodeError> {
        let count = get_varint(data, pos)? as usize;
        let max_plausible = ((data.len() - *pos) as u64 / 2).min(u64::from(width));
        if count as u64 > max_plausible {
            return Err(DecodeError::ImplausibleCount {
                declared: count as u64,
                max_plausible,
            });
        }
        let mut row = RleRow::new(width);
        let mut prev_end: u64 = 0;
        for _ in 0..count {
            let gap = u64::from(get_varint(data, pos)?);
            let len = u64::from(get_varint(data, pos)?) + 1;
            let start = prev_end + gap;
            if start + len > u64::from(width) {
                return Err(RleError::RunExceedsWidth {
                    index: row.run_count(),
                    width,
                }
                .into());
            }
            row.push_run(Run::new(start as Pixel, len as Pixel))?;
            prev_end = start + len;
        }
        Ok(row)
    }

    fn header(data: &[u8], magic: &[u8; 4]) -> Result<(Pixel, usize), DecodeError> {
        if data.len() < 4 {
            return Err(DecodeError::Truncated);
        }
        if &data[..4] != magic {
            return Err(DecodeError::BadMagic);
        }
        let width = data.get(4..8).ok_or(DecodeError::Truncated)?;
        Ok((u32::from_le_bytes(width.try_into().unwrap()), 8))
    }

    pub fn encode_row(row: &RleRow) -> Vec<u8> {
        let mut out = b"RLR1".to_vec();
        out.extend_from_slice(&row.width().to_le_bytes());
        encode_row_body(row, &mut out);
        out
    }

    pub fn encode_image(img: &RleImage) -> Vec<u8> {
        let mut out = b"RLI1".to_vec();
        out.extend_from_slice(&img.width().to_le_bytes());
        put_varint(&mut out, img.height() as u32);
        for row in img.rows() {
            encode_row_body(row, &mut out);
        }
        out
    }

    pub fn decode_row(data: &[u8]) -> Result<RleRow, DecodeError> {
        let (width, mut pos) = header(data, b"RLR1")?;
        decode_row_body(data, &mut pos, width)
    }

    pub fn decode_image(data: &[u8]) -> Result<RleImage, DecodeError> {
        let (width, mut pos) = header(data, b"RLI1")?;
        let height = get_varint(data, &mut pos)? as usize;
        let remaining = data.len() - pos;
        if height > remaining {
            return Err(DecodeError::ImplausibleCount {
                declared: height as u64,
                max_plausible: remaining as u64,
            });
        }
        let mut rows = Vec::with_capacity(height);
        for _ in 0..height {
            rows.push(decode_row_body(data, &mut pos, width)?);
        }
        Ok(RleImage::from_rows(width, rows)?)
    }
}

/// Strategy: rows whose gaps and lengths need multi-byte varints, so the
/// decoder's one-byte fast path and its checked fallback both run.
fn wide_row(width: Pixel) -> impl Strategy<Value = RleRow> {
    prop::collection::vec((0u32..20_000, 1u32..400), 0..12).prop_map(move |pieces| {
        let mut row = RleRow::new(width);
        let mut pos = 0u32;
        for (gap, len) in pieces {
            let start = pos.saturating_add(gap);
            if u64::from(start) + u64::from(len) > u64::from(width) {
                break;
            }
            row.push_run(Run::new(start, len)).unwrap();
            pos = start + len;
        }
        row
    })
}

/// Strategy: small images, half of them needing multi-byte varints.
fn sample_image() -> impl Strategy<Value = RleImage> {
    (
        any::<bool>(),
        prop::collection::vec(rle_row(300, 10, true), 0..5),
        prop::collection::vec(wide_row(100_000), 0..4),
    )
        .prop_map(|(wide, narrow_rows, wide_rows)| {
            if wide {
                RleImage::from_rows(100_000, wide_rows).unwrap()
            } else {
                RleImage::from_rows(300, narrow_rows).unwrap()
            }
        })
}

/// The optimised decoders agree with the reference on `bytes`.
fn assert_decoders_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    prop_assert_eq!(decode_image(bytes), reference::decode_image(bytes));
    prop_assert_eq!(decode_row(bytes), reference::decode_row(bytes));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid bytes still round-trip exactly (the hardening must not reject
    /// anything the encoder produces).
    #[test]
    fn row_round_trip_survives_hardening(row in rle_row(5_000, 40, true)) {
        let bytes = encode_row(&row);
        prop_assert_eq!(decode_row(&bytes).unwrap(), row);
    }

    /// Image round-trip, batch and streaming decoders agreeing.
    #[test]
    fn image_round_trip_survives_hardening(
        rows in prop::collection::vec(rle_row(900, 24, true), 1..8),
    ) {
        let img = RleImage::from_rows(900, rows).unwrap();
        let bytes = encode_image(&img);
        prop_assert_eq!(decode_image(&bytes).unwrap(), img.clone());
        let mut reader = ImageReader::new(&bytes[..]).unwrap();
        let mut streamed = Vec::new();
        while let Some(next) = reader.next_row() {
            streamed.push(next.unwrap());
        }
        prop_assert_eq!(RleImage::from_rows(900, streamed).unwrap(), img);
    }

    /// Every truncation of a valid row stream errors without panicking.
    #[test]
    fn truncated_rows_never_panic(row in rle_row(2_000, 24, true)) {
        let bytes = encode_row(&row);
        for cut in 0..bytes.len() {
            prop_assert!(decode_row(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
    }

    /// Every truncation of a valid image stream errors (batch and
    /// streaming) without panicking.
    #[test]
    fn truncated_images_never_panic(
        rows in prop::collection::vec(rle_row(300, 10, true), 1..5),
    ) {
        let img = RleImage::from_rows(300, rows).unwrap();
        let bytes = encode_image(&img);
        for cut in 0..bytes.len() {
            prop_assert!(decode_image(&bytes[..cut]).is_err(), "cut at {}", cut);
            match ImageReader::new(&bytes[..cut]) {
                Err(_) => {}
                Ok(mut reader) => {
                    // Draining a truncated stream must end in an error,
                    // never a panic (it may yield valid prefix rows first).
                    let mut failed = false;
                    while let Some(next) = reader.next_row() {
                        if next.is_err() {
                            failed = true;
                            break;
                        }
                    }
                    prop_assert!(
                        failed || reader.rows_remaining() == 0,
                        "cut at {} decoded cleanly",
                        cut
                    );
                }
            }
        }
    }

    /// A single flipped bit anywhere decodes to Ok (a different valid row)
    /// or a structured error — never a panic, never a huge allocation.
    #[test]
    fn bit_flips_never_panic(
        row in rle_row(2_000, 24, true),
        flip_byte in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let mut bytes = encode_row(&row);
        let idx = usize::from(flip_byte) % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        let _ = decode_row(&bytes); // Ok or Err both fine; no panic.
    }

    /// Same for whole images, batch and streaming.
    #[test]
    fn image_bit_flips_never_panic(
        rows in prop::collection::vec(rle_row(300, 10, true), 1..5),
        flip_byte in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let img = RleImage::from_rows(300, rows).unwrap();
        let mut bytes = encode_image(&img);
        let idx = usize::from(flip_byte) % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        let _ = decode_image(&bytes);
        if let Ok(mut reader) = ImageReader::new(&bytes[..]) {
            while let Some(next) = reader.next_row() {
                if next.is_err() {
                    break;
                }
            }
        }
    }

    /// Pure garbage never panics either decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_row(&bytes);
        let _ = decode_image(&bytes);
        if let Ok(mut reader) = ImageReader::new(&bytes[..]) {
            while let Some(next) = reader.next_row() {
                if next.is_err() {
                    break;
                }
            }
        }
    }

    /// Garbage wearing a valid magic number still can't panic or force a
    /// disproportionate allocation.
    #[test]
    fn garbage_with_magic_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let mut row_bytes = b"RLR1".to_vec();
        row_bytes.extend_from_slice(&bytes);
        let _ = decode_row(&row_bytes);
        let mut img_bytes = b"RLI1".to_vec();
        img_bytes.extend_from_slice(&bytes);
        let _ = decode_image(&img_bytes);
    }

    /// Trailing extension bytes after a valid row are ignored (the row
    /// format is length-delimited by its own header), and an extended image
    /// decodes its declared height then errors or stops cleanly.
    #[test]
    fn extended_streams_never_panic(
        row in rle_row(2_000, 24, true),
        extra in prop::collection::vec(any::<u8>(), 1..50),
    ) {
        let mut bytes = encode_row(&row);
        bytes.extend_from_slice(&extra);
        prop_assert_eq!(decode_row(&bytes).unwrap(), row);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The encoders are byte-identical to the reference.
    #[test]
    fn encoders_match_the_reference(img in sample_image()) {
        prop_assert_eq!(encode_image(&img), reference::encode_image(&img));
        let mut appended = b"prefix".to_vec();
        serialize::encode_image_into(&img, &mut appended);
        prop_assert_eq!(&appended[6..], &reference::encode_image(&img)[..]);
        for row in img.rows() {
            prop_assert_eq!(encode_row(row), reference::encode_row(row));
        }
    }

    /// Every truncation and every single-bit flip of a valid image decodes
    /// to exactly what the reference decodes it to.
    #[test]
    fn mutated_images_decode_like_the_reference(img in sample_image()) {
        let bytes = encode_image(&img);
        for cut in 0..=bytes.len() {
            assert_decoders_agree(&bytes[..cut])?;
        }
        for bit in 0..bytes.len() * 8 {
            let mut mutant = bytes.clone();
            mutant[bit / 8] ^= 1 << (bit % 8);
            assert_decoders_agree(&mutant)?;
        }
        // The same for a single row's stream.
        if let Some(row) = img.rows().first() {
            let bytes = encode_row(row);
            for cut in 0..=bytes.len() {
                assert_decoders_agree(&bytes[..cut])?;
            }
            for bit in 0..bytes.len() * 8 {
                let mut mutant = bytes.clone();
                mutant[bit / 8] ^= 1 << (bit % 8);
                assert_decoders_agree(&mutant)?;
            }
        }
    }

    /// Garbage, with and without a valid magic, decodes like the
    /// reference.
    #[test]
    fn garbage_decodes_like_the_reference(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        assert_decoders_agree(&bytes)?;
        for magic in [b"RLI1", b"RLR1"] {
            let mut with_magic = magic.to_vec();
            with_magic.extend_from_slice(&bytes);
            assert_decoders_agree(&with_magic)?;
        }
    }
}

#[test]
fn a_13_byte_header_claiming_u32_max_runs_is_rejected_before_allocating() {
    // Row: magic, width, and a five-byte count of u32::MAX — 13 bytes.
    let mut row = b"RLR1".to_vec();
    row.extend_from_slice(&u32::MAX.to_le_bytes());
    row.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
    assert_eq!(row.len(), 13);
    // Image: the same count as the one row of a height-1 image.
    let mut img = b"RLI1".to_vec();
    img.extend_from_slice(&u32::MAX.to_le_bytes());
    img.push(1);
    img.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);

    let want = DecodeError::ImplausibleCount {
        declared: u64::from(u32::MAX),
        max_plausible: 0,
    };
    let (got, bytes) = allocated_by(|| decode_row(&row));
    assert_eq!(got, Err(want));
    assert_eq!(bytes, 0, "the run count was trusted before it was checked");
    let (got, bytes) = allocated_by(|| decode_image(&img));
    assert_eq!(
        got,
        Err(DecodeError::ImplausibleCount {
            declared: u64::from(u32::MAX),
            max_plausible: 0,
        })
    );
    // Only the one-row `rows` vector may exist when the count is refused.
    assert!(bytes <= 64, "{bytes} bytes allocated for a refused header");
}

#[test]
fn adversarial_count_headers_are_rejected_fast() {
    // Row: declares u32::MAX runs in a handful of bytes.
    let mut bytes = b"RLR1".to_vec();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]); // count = u32::MAX
    assert!(matches!(
        decode_row(&bytes),
        Err(DecodeError::ImplausibleCount { .. })
    ));

    // Image: 13 bytes claiming ~268M rows.
    let mut bytes = b"RLI1".to_vec();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0x7F]);
    assert!(matches!(
        decode_image(&bytes),
        Err(DecodeError::ImplausibleCount { .. })
    ));

    // Streaming: a row claiming more runs than the image is wide.
    let mut bytes = b"RLI1".to_vec();
    bytes.extend_from_slice(&16u32.to_le_bytes());
    bytes.push(1); // height 1
    bytes.extend_from_slice(&[0xFF, 0x7F]); // count = 16383 runs in 16 px
    let mut reader = ImageReader::new(&bytes[..]).unwrap();
    assert!(matches!(
        reader.next_row().unwrap(),
        Err(DecodeError::ImplausibleCount { .. })
    ));
}

#[test]
fn dense_size_reporting_still_works() {
    // Smoke-check the module's unrelated entry point still behaves after
    // the hardening refactor.
    assert_eq!(serialize::dense_size_bytes(16, 4), 8);
}
