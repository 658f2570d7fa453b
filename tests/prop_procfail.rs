//! Property tests of the `MFP1` IPC framing (`mfp_mlops::procserve`):
//! for randomized frame streams, truncation at an arbitrary byte offset
//! and single bit flips must never forge a frame — [`scan_frames`] and
//! the incremental [`FrameReader`] decode exactly a valid prefix and
//! classify the rest as torn/corrupt. Also a process-level smoke: the
//! real `memfault --shard-worker` binary speaks the protocol over a
//! pipe and exits cleanly on EOF.

use mfp_mlops::procserve::{
    encode_frame, scan_frames, stream_header, FrameReader, FrameStep, ProcError, RawFrame,
    WORKER_ENV,
};
use mfp_rng::StdRng;

mod common;
use common::check;

/// A seeded stream: the 5-byte header plus `n` random frames.
fn build_stream(seed: u64, n: usize) -> (Vec<u8>, Vec<RawFrame>) {
    let mut s = StdRng::from_state(seed);
    let mut bytes = stream_header().to_vec();
    let mut frames = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = (s.next_u64() % 20) as u8 + 1;
        let seq = s.next_u64();
        let plen = (s.next_u64() % 200) as usize;
        let payload: Vec<u8> = (0..plen).map(|_| s.next_u64() as u8).collect();
        bytes.extend_from_slice(&encode_frame(kind, seq, &payload));
        frames.push(RawFrame { kind, seq, payload });
    }
    (bytes, frames)
}

/// Frames whose encodings fit entirely within `cut` bytes of stream.
fn complete_within(frames: &[RawFrame], cut: usize) -> usize {
    let mut pos = stream_header().len();
    let mut k = 0;
    for f in frames {
        pos += 13 + f.payload.len() + 4;
        if pos > cut {
            break;
        }
        k += 1;
    }
    k
}

/// Truncating the stream at any byte offset yields exactly the
/// frames that are complete before the cut; the remainder is torn,
/// never misparsed. In particular a torn *final* frame is detected.
#[test]
fn truncation_decodes_exactly_the_complete_prefix() {
    check(
        "truncation_decodes_exactly_the_complete_prefix",
        16,
        |rng| {
            let seed = rng.next_u64();
            let n = rng.random_range(1usize..12);
            let frac = rng.random::<f64>();
            let (bytes, frames) = build_stream(seed, n);
            let cut = ((bytes.len() as f64) * frac) as usize;
            let scan = scan_frames(&bytes[..cut]).expect("truncation is torn, not malformed");
            let k = complete_within(&frames, cut);
            assert_eq!(&scan.frames[..], &frames[..k]);
            // Byte accounting is exact: everything past the decodable
            // prefix — including a torn final frame — is reported torn.
            assert_eq!(scan.valid_bytes + scan.torn_bytes, cut as u64);
            // Re-scanning only the valid prefix is clean and idempotent.
            let again =
                scan_frames(&bytes[..scan.valid_bytes as usize]).expect("valid prefix rescans");
            assert_eq!(again.frames, scan.frames);
            assert_eq!(again.torn_bytes, 0);
        },
    );
}

/// A single bit flip anywhere past the header can corrupt or end
/// the stream but never forges a frame: every decoded frame is one
/// of the originals, in order, as a strict prefix.
#[test]
fn bit_flips_never_forge_frames() {
    check("bit_flips_never_forge_frames", 16, |rng| {
        let seed = rng.next_u64();
        let n = rng.random_range(1usize..10);
        let pos_frac = rng.random::<f64>();
        let bit = rng.random_range(0u8..8);
        let (mut bytes, frames) = build_stream(seed, n);
        let lo = stream_header().len();
        let pos = lo + (((bytes.len() - lo - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let scan = scan_frames(&bytes).expect("header is intact");
        assert!(scan.frames.len() < frames.len());
        assert_eq!(&scan.frames[..], &frames[..scan.frames.len()]);
    });
}

/// A flipped header is rejected outright, not resynchronized into
/// phantom frames.
#[test]
fn header_flips_are_bad_header() {
    check("header_flips_are_bad_header", 16, |rng| {
        let seed = rng.next_u64();
        let pos = rng.random_range(0usize..5);
        let bit = rng.random_range(0u8..8);
        let (mut bytes, _) = build_stream(seed, 3);
        bytes[pos] ^= 1 << bit;
        assert!(matches!(scan_frames(&bytes), Err(ProcError::BadHeader)));
    });
}

/// The incremental reader recovers the full frame sequence no
/// matter how the bytes are chopped into reads, even with a
/// printable-ASCII banner (a test harness preamble) ahead of the
/// header.
#[test]
fn driblet_reads_with_leading_banner_recover_everything() {
    check(
        "driblet_reads_with_leading_banner_recover_everything",
        16,
        |rng| {
            let seed = rng.next_u64();
            let n = rng.random_range(1usize..8);
            let banner_len = rng.random_range(0usize..40);
            let chunk_seed = rng.next_u64();
            let (stream, frames) = build_stream(seed, n);
            let mut s = StdRng::from_state(seed ^ 0xABCD);
            // Printable ASCII can never contain the 0x01 version byte, so
            // the banner cannot alias the header.
            let mut bytes: Vec<u8> = (0..banner_len)
                .map(|_| b' ' + (s.next_u64() % 95) as u8)
                .collect();
            bytes.extend_from_slice(&stream);
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            let mut cs = StdRng::from_state(chunk_seed);
            let mut pos = 0;
            while pos < bytes.len() {
                let take = 1 + (cs.next_u64() % 37) as usize;
                let hi = (pos + take).min(bytes.len());
                reader.push(&bytes[pos..hi]);
                pos = hi;
                loop {
                    match reader.next_step() {
                        FrameStep::Frame(f) => got.push(f),
                        FrameStep::NeedMore => break,
                        FrameStep::Corrupt => panic!("clean stream read as corrupt"),
                    }
                }
            }
            assert_eq!(got, frames);
        },
    );
}

/// The real worker binary comes up, writes its stream header to the
/// pipe, and exits 0 when the supervisor side closes stdin before the
/// handshake — the supervisor relies on this for graceful teardown of
/// half-started workers.
#[test]
fn worker_binary_writes_header_and_exits_cleanly_on_eof() {
    use std::io::Read;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_memfault"))
        .arg("--shard-worker")
        .env(WORKER_ENV, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker");
    drop(child.stdin.take());
    let mut out = Vec::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_end(&mut out)
        .expect("read worker stdout");
    let status = child.wait().expect("wait for worker");
    assert!(status.success(), "worker exited {status:?}");
    assert_eq!(
        &out[..],
        &stream_header()[..],
        "worker must open with the MFP1 header"
    );
}
