//! Property tests of the trace codec: round-trips are identity, and —
//! mirroring the crash journal's discipline — arbitrary bytes,
//! truncations, and single-bit flips must never panic, never fabricate
//! ops, and must classify damage as typed errors rather than silently
//! replaying it. Failures shrink and persist their seeds next to this
//! file.

use ftspm_harness::journal::{deframe, Framer};
use ftspm_testkit::prop::{any_int, check, int_range, vec_of, Config};
use ftspm_trace::{record, Tail, Trace, TraceError};
use ftspm_workloads::{Synthetic, SyntheticConfig};

fn cfg() -> Config {
    Config::default().persisting(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/trace_props.regressions"
    ))
}

/// A small, quick-to-record trace shaped by a handful of dials.
fn sample_trace(wf_pct: u32, accesses: u32, buffer_words: u32, seed: u32) -> Trace {
    let mut workload = Synthetic::new(SyntheticConfig {
        write_fraction: f64::from(wf_pct.min(100)) / 100.0,
        buffer_words,
        accesses,
        run_length: 4,
        seed: u64::from(seed),
    });
    record(&mut workload).expect("synthetic workloads always record")
}

/// Encode → decode is identity: clean tail, complete, equal trace.
#[test]
fn round_trip_is_identity() {
    check(
        &Config::with_cases(64).persisting(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/trace_props.regressions"
        )),
        &(
            int_range(0u32..101),
            int_range(1u32..300),
            int_range(16u32..128),
            any_int::<u32>(),
        ),
        |&(wf, accesses, buffer, seed)| {
            let trace = sample_trace(wf, accesses, buffer, seed);
            let bytes = trace.encode();
            let (decoded, tail) = Trace::decode(&bytes).expect("round trip decodes");
            assert_eq!(tail, Tail::Clean);
            assert!(decoded.complete());
            assert_eq!(decoded, trace);
        },
    );
}

/// Arbitrary bytes decode to a value or a typed error — never a panic
/// — and anything that does decode re-encodes to itself.
#[test]
fn decoder_never_panics_on_junk() {
    check(
        &cfg(),
        &vec_of(any_int::<u8>(), 0..600),
        |bytes: &Vec<u8>| {
            if let Ok((trace, _tail)) = Trace::decode(bytes) {
                let reencoded = trace.encode();
                let (again, _) = Trace::decode(&reencoded).expect("re-encode decodes");
                assert!(again.records().eq(trace.records()));
            }
        },
    );
}

/// Every truncation of a valid trace is either a torn tail holding a
/// clean prefix of the ops, or — when the cut lands before the header
/// chunk completes — a typed [`TraceError::Truncated`]. Never
/// `Corrupt`, never `Malformed`, never a panic, never invented ops.
#[test]
fn truncations_yield_a_clean_prefix_or_truncated() {
    let trace = sample_trace(30, 220, 64, 0xA11CE);
    let full = trace.encode();
    check(&cfg(), &any_int::<u32>(), |&cut_seed| {
        let cut = cut_seed as usize % (full.len() + 1);
        match Trace::decode(&full[..cut]) {
            Err(TraceError::Truncated) | Err(TraceError::BadHeader) => {}
            Err(e) => panic!("truncation must never classify as damage: {e}"),
            Ok((prefix, tail)) => {
                assert_eq!(prefix.name, trace.name);
                assert_eq!(prefix.program, trace.program);
                assert_eq!(prefix.init, trace.init);
                assert_eq!(prefix.op_count, trace.op_count);
                let (prefix_ops, ops): (Vec<_>, Vec<_>) =
                    (prefix.records().collect(), trace.records().collect());
                assert!(
                    prefix_ops.len() <= ops.len() && prefix_ops == ops[..prefix_ops.len()],
                    "decoded ops must be a prefix of the originals"
                );
                if cut == full.len() {
                    assert_eq!(tail, Tail::Clean);
                    assert!(prefix.complete());
                } else {
                    assert_eq!(tail, Tail::Torn);
                }
            }
        }
    });
}

/// A single flipped bit never panics and never fabricates ops: either a
/// typed error, or a decode whose ops are a prefix of the originals.
#[test]
fn bit_flips_never_fabricate_ops() {
    let trace = sample_trace(50, 180, 48, 0xB0B);
    let full = trace.encode();
    check(&cfg(), &any_int::<u32>(), |&flip_seed| {
        let mut bytes = full.clone();
        let bit = flip_seed as usize % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match Trace::decode(&bytes) {
            Err(_) => {}
            Ok((decoded, _)) => {
                let (decoded_ops, ops): (Vec<_>, Vec<_>) =
                    (decoded.records().collect(), trace.records().collect());
                assert!(
                    decoded_ops.len() <= ops.len() && decoded_ops == ops[..decoded_ops.len()],
                    "a bit flip must not fabricate or reorder ops"
                );
            }
        }
    });
}

/// Replay is a fixed point of recording: re-recording a trace's replay
/// reproduces the *identical* trace — same name, program, init, op
/// stream, and checksum. This is the in-process half of the
/// byte-identical-replay guarantee.
#[test]
fn replay_re_records_to_the_identical_trace() {
    let trace = sample_trace(25, 240, 96, 0x5EED);
    let shared = std::sync::Arc::new(trace.clone());
    let mut replay = ftspm_trace::TraceWorkload::new(shared);
    let again = record(&mut replay).expect("replay records");
    assert_eq!(again, trace);
}

/// Named regression: a trace cut mid-chunk-header (inside the 8-byte
/// len+CRC frame of an op chunk) is a torn tail with the header and
/// earlier chunks intact — the crash signature of an interrupted
/// upload or copy.
#[test]
fn cut_mid_chunk_header_is_a_torn_tail() {
    let trace = sample_trace(40, 200, 64, 7);
    let full = trace.encode();
    // The header chunk starts at byte 10 (magic + version); walk its
    // frame to find where the first op chunk begins.
    let header_len = u32::from_le_bytes(full[10..14].try_into().unwrap()) as usize;
    let second_chunk = 10 + 8 + header_len;
    assert!(second_chunk + 8 < full.len(), "trace has op chunks");
    for cut in second_chunk + 1..second_chunk + 8 {
        let (prefix, tail) = Trace::decode(&full[..cut]).expect("mid-frame cut is torn, not bad");
        assert_eq!(tail, Tail::Torn);
        assert_eq!(prefix.program, trace.program);
        assert!(prefix.records().next().is_none());
    }
}

/// Re-frames `full` with some of its op varints padded: the varint's
/// last byte gains a continuation bit and a `0x00` follows, so it reads
/// the same value one byte longer (a zero delta becomes `0x80 0x00`).
/// Which varints pad follows `seed`.
fn pad_varints(full: &[u8], seed: u64) -> Vec<u8> {
    let header = &full[..10];
    let (chunks, _) = deframe(header, full).expect("own encoding deframes");
    let mut out = Framer::new(header, full.len() * 2);
    out.push(chunks[0]);
    let mut bits = seed | 1;
    for chunk in &chunks[1..] {
        let mut padded = Vec::with_capacity(chunk.len() * 2);
        let mut pos = 0;
        while pos < chunk.len() {
            let tag = chunk[pos];
            padded.push(tag);
            pos += 1;
            // Cycle delta plus the tag's operands.
            let varints = match tag {
                1 => 1,
                0 | 2 | 5 => 2,
                3 | 6 => 3,
                4 => 4,
                other => panic!("unknown tag {other} in an encoded trace"),
            };
            for _ in 0..varints {
                let start = pos;
                while chunk[pos] & 0x80 != 0 {
                    pos += 1;
                }
                pos += 1;
                padded.extend_from_slice(&chunk[start..pos]);
                bits ^= bits << 13;
                bits ^= bits >> 7;
                bits ^= bits << 17;
                if bits & 1 == 1 && pos - start < 10 {
                    *padded.last_mut().expect("just extended") |= 0x80;
                    padded.push(0);
                }
            }
        }
        out.push(&padded);
    }
    out.finish()
}

/// An upload whose varints are padded decodes to the canonical trace:
/// equal to the original, and re-encoding yields the canonical bytes.
#[test]
fn padded_varints_decode_to_the_canonical_trace() {
    check(
        &Config::with_cases(32).persisting(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/trace_props.regressions"
        )),
        &(int_range(0u32..101), int_range(1u32..300), any_int::<u64>()),
        |&(wf, accesses, seed)| {
            let trace = sample_trace(wf, accesses, 64, seed as u32);
            let full = trace.encode();
            let padded = pad_varints(&full, seed);
            assert!(padded.len() > full.len(), "some varint was padded");
            let (decoded, tail) = Trace::decode(&padded).expect("padded varints decode");
            assert_eq!(tail, Tail::Clean);
            assert_eq!(decoded, trace);
            assert_eq!(decoded.encode(), full);
        },
    );
}

/// A torn decode of a multi-chunk trace — cut on a chunk boundary,
/// which the framing alone reads as clean, or inside a chunk — holds a
/// prefix of the original ops, and `complete()` compares the decoded
/// count against the declared `op_count`.
#[test]
fn torn_decodes_hold_a_counted_prefix() {
    let trace = sample_trace(30, 20_000, 64, 0x70A4);
    let full = trace.encode();
    let ops: Vec<_> = trace.records().collect();
    // Frame start offsets of the op chunks.
    let mut starts = Vec::new();
    let mut at = 10 + 8 + u32::from_le_bytes(full[10..14].try_into().unwrap()) as usize;
    while at < full.len() {
        starts.push(at);
        at += 8 + u32::from_le_bytes(full[at..at + 4].try_into().unwrap()) as usize;
    }
    assert!(starts.len() >= 3, "the trace spans several op chunks");
    check(&cfg(), &any_int::<u64>(), |&cut_seed| {
        let chunk = (cut_seed % starts.len() as u64) as usize;
        let frame_end = starts.get(chunk + 1).copied().unwrap_or(full.len());
        let cut = starts[chunk] + (cut_seed >> 32) as usize % (frame_end - starts[chunk]);
        let (prefix, tail) = Trace::decode(&full[..cut]).expect("a cut after the header is torn");
        assert_eq!(tail, Tail::Torn);
        assert_eq!(prefix.op_count, trace.op_count);
        assert!(!prefix.complete());
        assert!(prefix.decoded_ops() < prefix.op_count);
        let prefix_ops: Vec<_> = prefix.records().collect();
        assert_eq!(prefix_ops.len() as u64, prefix.decoded_ops());
        assert_eq!(prefix_ops, ops[..prefix_ops.len()]);
    });
}

/// The footprint pin: a recorded kernel's resident op stream is no
/// larger than its encoded upload, before and after a round trip, and
/// it reads back every declared op.
#[test]
fn resident_op_stream_is_no_larger_than_the_upload() {
    let entry = ftspm_workloads::find("bitcount").expect("bitcount is registered");
    let trace = record(entry.build(None).as_mut()).expect("bitcount records");
    let bytes = trace.encode();
    let (decoded, tail) = Trace::decode(&bytes).expect("round trip decodes");
    assert_eq!(tail, Tail::Clean);
    for t in [&trace, &decoded] {
        assert!(t.op_stream_bytes() <= bytes.len());
        assert_eq!(t.records().count() as u64, t.op_count);
    }
}
