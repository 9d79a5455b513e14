//! Property tests for the trace codec: round-trip identity over arbitrary
//! record streams, rejection of truncated and corrupted encodings, and a
//! decoder that never panics on arbitrary bytes. Also demonstrates the
//! framework's shrinking on trace streams: a failing stream property
//! minimizes to a single-record counterexample.

use cmpsim_engine::prop::{self, Config, Source};
use cmpsim_trace::{
    analyze_bytes, decode, decode_chunk, decode_with_header, encode, salvage, scan_chunks,
    TraceKind, TraceRecord, VERSION,
};

/// Draws a record stream with the shapes capture actually produces:
/// mostly forward cycle jumps with occasional backward steps (the run
/// loop's CPU interleave), clustered and wild addresses, all four kinds,
/// and CPUs below the header's `n_cpus`.
fn gen_records(src: &mut Source, n_cpus: u8) -> Vec<TraceRecord> {
    let mut cycle = src.u64(0..1_000_000);
    let base_addr = src.u32(0..0x1000_0000) & !0x3;
    src.vec(1..200, |s| {
        cycle = cycle.saturating_add_signed(s.i64(-64..4096));
        let addr = if s.bool() {
            base_addr.wrapping_add(s.u32(0..4096))
        } else {
            s.u32_any()
        };
        TraceRecord {
            cycle,
            cpu: s.u8(0..n_cpus),
            kind: s.choice(&[
                TraceKind::IFetch,
                TraceKind::Load,
                TraceKind::Store,
                TraceKind::StatsReset,
            ]),
            addr,
        }
    })
}

#[test]
fn prop_encode_decode_is_identity() {
    prop::check("trace codec round-trip", |src| {
        let n_cpus = src.u8(1..65);
        let records = gen_records(src, n_cpus);
        let bytes = encode(&records, usize::from(n_cpus), 32).expect("encodes");
        let (header, decoded) = decode_with_header(&bytes).expect("decodes");
        assert_eq!(header.n_cpus, n_cpus);
        assert_eq!(header.line_bytes, 32);
        assert_eq!(decoded, records);
    });
}

#[test]
fn prop_truncation_is_always_detected() {
    prop::check("trace codec truncation", |src| {
        let records = gen_records(src, 4);
        let bytes = encode(&records, 4, 32).expect("encodes");
        // Any strict prefix must fail to decode: the footer doubles as the
        // end-of-stream marker, so a cut stream can never look complete.
        let cut = src.usize(0..bytes.len());
        assert!(
            decode(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded",
            bytes.len()
        );
    });
}

#[test]
fn prop_corruption_is_always_detected() {
    prop::check("trace codec corruption", |src| {
        let records = gen_records(src, 4);
        let bytes = encode(&records, 4, 32).expect("encodes");
        // Flip one bit anywhere past the (unchecksummed) 8-byte file
        // header and before the 12-byte footer: chunk headers and payloads
        // are both covered — lengths/counts by consistency checks, the
        // payload by the FNV-1a checksum.
        let body = bytes.len() - 12;
        if body <= 8 {
            return;
        }
        let at = src.usize(8..body);
        let bit = src.u8(0..8);
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 1 << bit;
        assert!(
            decode(&corrupt).is_err(),
            "bit {bit} of byte {at}/{} flipped and the stream still decoded",
            bytes.len()
        );
    });
}

#[test]
fn prop_decoder_never_panics_on_arbitrary_bytes() {
    prop::check("trace codec arbitrary input", |src| {
        let mut bytes = src.vec(0..300, |s| s.u32(0..256) as u8);
        if src.bool() {
            // Valid magic + the real version, and a header geometry that
            // is usually valid, so the deeper chunk machinery runs too.
            let mut framed = b"CMPT".to_vec();
            framed.push(VERSION);
            framed.push(src.choice(&[1u8, 4, 64, 0, 65, 100]));
            framed.extend_from_slice(&src.choice(&[32u16, 64, 0, 48]).to_le_bytes());
            framed.append(&mut bytes);
            bytes = framed;
        }
        // Must return (Ok or Err), never panic or loop — on every entry
        // point: strict decode, the lenient salvage walk, the frame
        // scanner, single-chunk decode, and analysis of a whole file.
        let _ = decode(&bytes);
        let _ = analyze_bytes(&bytes);
        let _ = salvage(&bytes);
        if let Ok((header, frames)) = scan_chunks(&bytes) {
            for frame in &frames {
                let _ = decode_chunk(&bytes, &header, frame);
            }
        }
    });
}

/// Chunk independence: decoding any chunk subset in any order equals the
/// corresponding slices of the serial decode.
/// Streams span several chunks (the writer flushes every 4096 records),
/// and the visit order is a drawn permutation, so later chunks routinely
/// decode before — or without — earlier ones.
#[test]
fn prop_any_chunk_subset_decodes_in_any_order() {
    let cfg = Config {
        cases: 25,
        ..Config::default()
    };
    prop::check_result(&cfg, "chunk subset independence", |src| {
        let mut cycle = src.u64(0..1_000_000);
        let records: Vec<TraceRecord> = src.vec(1..10_000, |s| {
            cycle = cycle.saturating_add_signed(s.i64(-64..4096));
            TraceRecord {
                cycle,
                cpu: s.u8(0..64),
                kind: s.choice(&[TraceKind::IFetch, TraceKind::Load, TraceKind::Store]),
                addr: s.u32_any(),
            }
        });
        let bytes = encode(&records, 64, 32).expect("encodes");
        let serial = decode(&bytes).expect("decodes");
        assert_eq!(serial, records);
        let (header, frames) = scan_chunks(&bytes).expect("scans");
        // Draw a permutation (Fisher-Yates off the choice stream), then a
        // subset of it: any prefix of a random permutation is a random
        // subset in random order.
        let mut order: Vec<usize> = (0..frames.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, src.usize(0..i + 1));
        }
        let keep = src.usize(1..order.len() + 1);
        for &fi in &order[..keep] {
            let frame = &frames[fi];
            let got = decode_chunk(&bytes, &header, frame).expect("chunk decodes");
            let lo = frame.first_record as usize;
            assert_eq!(
                got,
                serial[lo..lo + frame.n_records as usize],
                "chunk {fi} diverged from the serial slice"
            );
        }
    })
    .expect("holds");
}

/// Shrinking works on trace streams: a property that forbids stores fails,
/// and the minimized counterexample replayed through the generator is a
/// single-record stream whose one record is the store.
#[test]
fn shrinking_reduces_to_a_single_record_stream() {
    let cfg = Config {
        cases: 200,
        ..Config::default()
    };
    let failure = prop::check_result(&cfg, "streams never store", |src| {
        let records = gen_records(src, 4);
        let bytes = encode(&records, 4, 32).expect("encodes");
        let decoded = decode(&bytes).expect("decodes");
        assert!(decoded.iter().all(|r| r.kind != TraceKind::Store));
    })
    .expect_err("the generator emits stores");

    let minimal = gen_records(&mut Source::replay(failure.choices.clone()), 4);
    assert_eq!(
        minimal.len(),
        1,
        "shrunk to one record, got {minimal:?} (choices {:?})",
        failure.choices
    );
    assert_eq!(minimal[0].kind, TraceKind::Store);
}
