//! Corruption robustness for the snapshot format: any damaged snapshot —
//! flipped bytes, truncations, extensions, doctored section tables, random
//! garbage — must produce a structured [`SnapshotError`], never a panic and
//! never a silently wrong graph. Every property runs under an
//! unwind-catching harness so a latent panic in the decoder shows up as a
//! test failure with the exact corrupted offset, not an abort.
//!
//! The byte-flip property is stronger than no-panic: because every byte of
//! the file is covered by a CRC32C (header, section table, payloads) or by
//! a must-be-zero rule (padding, gaps), *any* single-byte change must be
//! rejected outright.

use hin_datagen::dblp::{generate, SyntheticConfig};
use hin_snapshot::format::{assemble, parse_layout, section};
use hin_snapshot::{Snapshot, SnapshotError, SnapshotWriter};
use netout::engine::index::{ChunkSelection, PmIndex};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// One encoded snapshot (graph + full PM index) reused by every case.
fn encoded() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let net = generate(&SyntheticConfig::tiny(11));
        let index = PmIndex::build_full(&net.graph, ChunkSelection::All, 1);
        SnapshotWriter::encode(&net.graph, Some(&index))
    })
}

/// Run `f` under `catch_unwind`; `Err` means the decoder panicked.
fn no_panic(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_flip_is_rejected_without_panic(idx in 0usize..1_000_000, flip in 1u8..=255) {
        let mut buf = encoded().to_vec();
        let i = idx % buf.len();
        buf[i] ^= flip;
        let mut outcome = None;
        let ok = no_panic(|| {
            outcome = Some(Snapshot::from_bytes(&buf).map(|_| ()));
        });
        prop_assert!(ok, "decoder panicked after flipping byte {i} with {flip:#04x}");
        prop_assert!(
            matches!(outcome, Some(Err(_))),
            "flipping byte {i} with {flip:#04x} went undetected"
        );
    }

    #[test]
    fn truncation_is_rejected_without_panic(idx in 0usize..1_000_000) {
        let buf = encoded();
        let cut = idx % buf.len(); // strict prefix
        let mut outcome = None;
        let ok = no_panic(|| {
            outcome = Some(Snapshot::from_bytes(&buf[..cut]).map(|_| ()));
        });
        prop_assert!(ok, "decoder panicked on a {cut}-byte prefix");
        prop_assert!(
            matches!(outcome, Some(Err(_))),
            "a {cut}-byte prefix unexpectedly decoded"
        );
    }

    #[test]
    fn extension_is_rejected_without_panic(tail in proptest::collection::vec(any::<u8>(), 1..64)) {
        let mut buf = encoded().to_vec();
        buf.extend_from_slice(&tail);
        let mut outcome = None;
        let ok = no_panic(|| {
            outcome = Some(Snapshot::from_bytes(&buf).map(|_| ()));
        });
        prop_assert!(ok, "decoder panicked on an extended file");
        prop_assert!(
            matches!(outcome, Some(Err(_))),
            "appending {} bytes went undetected",
            tail.len()
        );
    }

    #[test]
    fn random_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        prop_assert!(
            no_panic(|| {
                let _ = Snapshot::from_bytes(&data);
            }),
            "decoder panicked on random garbage"
        );
    }

    #[test]
    fn garbage_with_valid_magic_never_panics(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        // Pass the magic check so the fuzz reaches the header/table layers.
        let mut buf = b"HSNP".to_vec();
        buf.extend_from_slice(&data);
        prop_assert!(
            no_panic(|| {
                let _ = Snapshot::from_bytes(&buf);
            }),
            "decoder panicked on magic-prefixed garbage"
        );
    }

    #[test]
    fn doctored_section_offsets_never_panic(
        entry_byte in 0usize..1_000,
        value in any::<u8>(),
    ) {
        // Target the section table specifically: bytes 64.. hold the 32-byte
        // entries whose offsets/lengths drive all slicing downstream.
        let mut buf = encoded().to_vec();
        let table_start = 64usize;
        let i = table_start + entry_byte % (buf.len() - table_start);
        buf[i] = value;
        let mut outcome = None;
        let ok = no_panic(|| {
            outcome = Some(Snapshot::from_bytes(&buf).map(|_| ()));
        });
        prop_assert!(ok, "decoder panicked after overwriting byte {i} with {value:#04x}");
        if buf[i] != encoded()[i] {
            prop_assert!(
                matches!(outcome, Some(Err(_))),
                "overwriting byte {i} with {value:#04x} went undetected"
            );
        }
    }
}

#[test]
fn every_truncation_rejected_exhaustively() {
    // Exhaustive (not sampled) sweep: every strict prefix must fail cleanly.
    // Uses the small Figure 1 network — the sweep is quadratic in file size,
    // and format-layer coverage is identical.
    let g = hin_datagen::toy::figure1_network();
    let buf = SnapshotWriter::encode(&g, None);
    for cut in 0..buf.len() {
        let ok = no_panic(|| {
            assert!(
                Snapshot::from_bytes(&buf[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly decoded"
            );
        });
        assert!(ok, "panic on a {cut}-byte prefix");
    }
}

/// The pristine snapshot with one section's payload edited and every CRC
/// recomputed: damage the container cannot see, only the decoder can.
fn reassembled_with(id: u32, edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let bytes = encoded();
    let sections: Vec<(u32, Vec<u8>)> = parse_layout(bytes)
        .expect("pristine layout")
        .iter()
        .map(|s| {
            let mut payload = bytes[s.offset..s.offset + s.len].to_vec();
            if s.id == id {
                edit(&mut payload);
            }
            (s.id, payload)
        })
        .collect();
    assemble(&sections)
}

#[test]
fn index_rows_that_are_not_canonical_are_rejected() {
    // The first index row with two entries: the engine hands stored rows out
    // as they are, so a repeated column or a stored zero must not load —
    // `row()` and a re-canonicalised copy would disagree about the row.
    let snap = Snapshot::from_bytes(encoded()).expect("pristine snapshot loads");
    let index = snap.index().expect("snapshot carries an index");
    let mut base = 0usize;
    let mut target = None;
    'chunks: for (_, matrix) in index.chunks() {
        let (_, offsets, _) = matrix.raw_parts();
        for w in offsets.windows(2) {
            if w[1] - w[0] >= 2 {
                target = Some(base + w[0] as usize);
                break 'chunks;
            }
        }
        base += matrix.nnz();
    }
    let at = target.expect("some indexed row has two entries");

    let duplicate_column = reassembled_with(section::PM_COLS, |cols| {
        let first: [u8; 4] = cols[at * 4..at * 4 + 4].try_into().unwrap();
        cols[(at + 1) * 4..(at + 2) * 4].copy_from_slice(&first);
    });
    let explicit_zero = reassembled_with(section::PM_VALS, |vals| {
        vals[at * 8..at * 8 + 8].copy_from_slice(&0.0f64.to_le_bytes());
    });
    for (what, bytes) in [
        ("duplicate column", duplicate_column),
        ("explicit zero", explicit_zero),
    ] {
        parse_layout(&bytes).expect("the container itself is intact");
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::Graph(_) | SnapshotError::Format { .. }) => {}
            Err(other) => panic!("{what}: unexpected error {other}"),
            Ok(_) => panic!("{what}: loaded as an index"),
        }
    }
    // The same surgery with nothing changed still loads.
    Snapshot::from_bytes(&reassembled_with(section::PM_COLS, |_| {})).expect("identity edit");
}

#[test]
fn untampered_snapshot_decodes() {
    // The suite is vacuous if the baseline itself doesn't load.
    let snap = Snapshot::from_bytes(encoded()).expect("pristine snapshot loads");
    assert!(snap.info().has_index);
    assert!(snap.graph().vertex_count() > 0);
}
