//! Fault-injection suite for crash-safe trace I/O: torn-tail
//! truncations, mid-chunk corruption, bad restart preambles, and the
//! atomic-finalize (temp file + rename) capture path.

use cmpsim_trace::codec::{
    decode, encode, fnv1a, salvage, scan_chunks, TraceError, TraceKind, TraceRecord, CHUNK_RECORDS,
};
use cmpsim_trace::{AtomicFile, SinkOut, TraceSink};
use std::io::Write as _;

/// A deterministic stream long enough for several chunks: cycles strictly
/// increase, addresses stride through a few cache lines per CPU.
fn stream(n: usize) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| TraceRecord {
            cycle: (i as u64) * 3 + (i as u64 % 5),
            cpu: (i % 4) as u8,
            kind: match i % 3 {
                0 => TraceKind::Load,
                1 => TraceKind::Store,
                _ => TraceKind::IFetch,
            },
            addr: 0x1000 + ((i as u32) % 97) * 32,
        })
        .collect()
}

#[test]
fn intact_file_salvages_completely_and_cleanly() {
    let records = stream(3 * CHUNK_RECORDS + 100);
    let bytes = encode(&records, 4, 32).expect("encodes");
    let s = salvage(&bytes).expect("header is intact");
    assert_eq!(s.records, records);
    assert_eq!(s.chunks_recovered, 4);
    assert_eq!(s.chunks_skipped, 0);
    assert_eq!(s.bytes_dropped, 0);
    assert!(s.clean_eof);
    assert_eq!(s.header.n_cpus, 4);
}

#[test]
fn torn_tail_recovers_every_complete_chunk() {
    let records = stream(3 * CHUNK_RECORDS + 100);
    let bytes = encode(&records, 4, 32).expect("encodes");
    let (_, frames) = scan_chunks(&bytes).expect("scans");
    assert_eq!(frames.len(), 4);

    // Truncation points: mid-payload of chunk 2, mid-header of chunk 2,
    // and mid-footer — each must yield exactly the preceding whole chunks.
    let cases = [
        (frames[2].payload.start + 10, 2usize),
        (frames[1].payload.end + 2, 2),
        (bytes.len() - 5, 4),
    ];
    for (cut, whole_chunks) in cases {
        let torn = &bytes[..cut];
        let s = salvage(torn).expect("header survives the tear");
        let want: usize = frames[..whole_chunks]
            .iter()
            .map(|f| f.n_records as usize)
            .sum();
        assert_eq!(s.records, records[..want], "cut at {cut}");
        assert_eq!(s.chunks_recovered, whole_chunks as u64, "cut at {cut}");
        assert_eq!(s.chunks_skipped, 0, "cut at {cut}");
        assert!(!s.clean_eof, "cut at {cut}");
        assert!(s.bytes_dropped > 0, "cut at {cut}");
        // The strict decoder must reject every torn variant.
        assert!(decode(torn).is_err(), "cut at {cut}");
    }
}

#[test]
fn mid_chunk_corruption_skips_only_that_chunk() {
    let records = stream(3 * CHUNK_RECORDS + 100);
    let mut bytes = encode(&records, 4, 32).expect("encodes");
    let (_, frames) = scan_chunks(&bytes).expect("scans");
    let mid = frames[1].payload.start + frames[1].payload.len() / 2;
    bytes[mid] ^= 0xA5;

    let s = salvage(&bytes).expect("header is intact");
    assert_eq!(s.chunks_recovered, 3);
    assert_eq!(s.chunks_skipped, 1);
    assert_eq!(s.bytes_dropped, 0);
    // The footer still matches the declared counts, so the file reads as
    // finalized — the gap is per-chunk, not a tear.
    assert!(s.clean_eof);
    let mut want = records[..frames[1].first_record as usize].to_vec();
    want.extend_from_slice(&records[frames[2].first_record as usize..]);
    assert_eq!(s.records, want);
    assert!(decode(&bytes).is_err(), "strict decode rejects corruption");
}

#[test]
fn bad_restart_preamble_skips_the_chunk() {
    // Splice a frame whose payload is shorter than the 12-byte restart
    // preamble between two real chunks. Its checksum is valid for the
    // payload, so only the preamble read can reject it.
    let records = stream(CHUNK_RECORDS + 50);
    let bytes = encode(&records, 4, 32).expect("encodes");
    let (_, frames) = scan_chunks(&bytes).expect("scans");
    let bogus_payload = [0xEEu8; 4];
    let mut spliced = bytes[..frames[1].payload.start - 16].to_vec();
    spliced.extend_from_slice(&(bogus_payload.len() as u32).to_le_bytes());
    spliced.extend_from_slice(&7u32.to_le_bytes());
    spliced.extend_from_slice(&fnv1a(&bogus_payload).to_le_bytes());
    spliced.extend_from_slice(&bogus_payload);
    spliced.extend_from_slice(&bytes[frames[1].payload.start - 16..]);

    let s = salvage(&spliced).expect("header is intact");
    assert_eq!(s.chunks_recovered, 2);
    assert_eq!(s.chunks_skipped, 1);
    assert_eq!(s.records, records);
    // The bogus frame declares 7 records the footer never counted.
    assert!(!s.clean_eof);
}

/// A record naming a CPU the header does not declare fails strict decode
/// with a typed error, and salvage skips only its chunk. The capture path
/// never writes one; `encode` writes whatever it is given.
#[test]
fn a_record_beyond_the_header_cpus_fails_only_its_chunk() {
    let mut records = stream(2 * CHUNK_RECORDS + 10);
    for r in &mut records {
        r.cpu %= 2;
    }
    records[CHUNK_RECORDS + 5].cpu = 3;
    let bytes = encode(&records, 2, 32).expect("encodes");
    let err = decode(&bytes).expect_err("CPU 3 in a 2-CPU trace");
    assert_eq!(
        err.to_string(),
        "chunk 1 names CPU 3, but the header declares 2 CPUs"
    );
    let s = salvage(&bytes).expect("header is intact");
    assert_eq!(s.chunks_recovered, 2);
    assert_eq!(s.chunks_skipped, 1);
    assert!(s.clean_eof);
    let mut want = records[..CHUNK_RECORDS].to_vec();
    want.extend_from_slice(&records[2 * CHUNK_RECORDS..]);
    assert_eq!(s.records, want);
}

#[test]
fn trailing_garbage_after_the_footer_is_counted_dropped() {
    let records = stream(100);
    let mut bytes = encode(&records, 4, 32).expect("encodes");
    bytes.extend_from_slice(b"oops");
    let s = salvage(&bytes).expect("header is intact");
    assert_eq!(s.records, records);
    assert!(!s.clean_eof);
    assert_eq!(s.bytes_dropped, 4);
}

#[test]
fn unusable_header_is_the_only_salvage_error() {
    assert!(matches!(salvage(b"CMP"), Err(TraceError::Truncated)));
    assert!(matches!(
        salvage(b"NOPE\x02\x04\x20\x00"),
        Err(TraceError::BadMagic(_))
    ));
    assert!(matches!(
        salvage(b"CMPT\x09\x04\x20\x00"),
        Err(TraceError::BadVersion(9))
    ));
    assert!(matches!(
        salvage(b"CMPT\x01\x04\x20\x00"),
        Err(TraceError::BadVersion(1))
    ));
    assert!(matches!(
        salvage(b"CMPT\x02\x64\x20\x00"),
        Err(TraceError::BadHeader {
            n_cpus: 100,
            line_bytes: 32
        })
    ));
    assert!(matches!(
        salvage(b"CMPT\x02\x04\x30\x00"),
        Err(TraceError::BadHeader {
            n_cpus: 4,
            line_bytes: 48
        })
    ));
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cmpsim-salvage-{tag}-{}", std::process::id()))
}

#[test]
fn atomic_capture_surfaces_only_after_finish() {
    let dest = temp_path("atomic");
    let tmp = dest.with_file_name(format!(
        "{}.tmp",
        dest.file_name().expect("has name").to_string_lossy()
    ));
    let _ = std::fs::remove_file(&dest);
    let _ = std::fs::remove_file(&tmp);

    let out = SinkOut::Atomic(AtomicFile::create(&dest).expect("creates temp"));
    let mut sink = TraceSink::new(out, 4).expect("writes the header");
    for rec in stream(CHUNK_RECORDS + 10) {
        let req = cmpsim_mem::MemRequest {
            cpu: rec.cpu as usize,
            addr: rec.addr,
            kind: rec.kind.access_kind().expect("access kinds only"),
        };
        sink.record_access(cmpsim_engine::Cycle(rec.cycle), &req);
    }
    assert!(tmp.exists(), "bytes accumulate at the temp path");
    assert!(!dest.exists(), "destination is invisible before finish");

    sink.finish().expect("finalizes");
    assert!(dest.exists(), "finish publishes the destination");
    assert!(!tmp.exists(), "the temp file was renamed, not copied");

    let bytes = std::fs::read(&dest).expect("reads");
    let s = salvage(&bytes).expect("intact");
    assert!(s.clean_eof);
    assert_eq!(s.records.len(), CHUNK_RECORDS + 10);
    std::fs::remove_file(&dest).expect("cleanup");
}

#[test]
fn killed_capture_leaves_a_salvageable_temp_and_no_destination() {
    let dest = temp_path("killed");
    let tmp = dest.with_file_name(format!(
        "{}.tmp",
        dest.file_name().expect("has name").to_string_lossy()
    ));
    let _ = std::fs::remove_file(&dest);
    let _ = std::fs::remove_file(&tmp);

    {
        let out = SinkOut::Atomic(AtomicFile::create(&dest).expect("creates temp"));
        let mut sink = TraceSink::new(out, 4).expect("writes the header");
        for rec in stream(2 * CHUNK_RECORDS) {
            let req = cmpsim_mem::MemRequest {
                cpu: rec.cpu as usize,
                addr: rec.addr,
                kind: rec.kind.access_kind().expect("access kinds only"),
            };
            sink.record_access(cmpsim_engine::Cycle(rec.cycle), &req);
        }
        // Dropped without finish: the footer lands best-effort in the
        // temp file, but the rename never happens.
    }
    assert!(!dest.exists(), "an unfinished capture never publishes");
    assert!(tmp.exists(), "the temp file stays behind for salvage");

    // Simulate the kill -9 tear the drop-footer papered over.
    let full = std::fs::read(&tmp).expect("reads");
    let cut = full.len() * 3 / 5;
    let mut f = std::fs::File::create(&tmp).expect("rewrites");
    f.write_all(&full[..cut]).expect("writes");
    drop(f);

    let torn = std::fs::read(&tmp).expect("reads");
    let s = salvage(&torn).expect("header survives");
    assert!(!s.clean_eof);
    assert_eq!(s.chunks_recovered as usize * CHUNK_RECORDS, s.records.len());
    assert!(!s.records.is_empty(), "a 60% tear keeps at least one chunk");
    assert_eq!(s.records, stream(2 * CHUNK_RECORDS)[..s.records.len()]);
    std::fs::remove_file(&tmp).expect("cleanup");
}
