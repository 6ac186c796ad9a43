//! Property-based tests for the memory substrate.
//!
//! Uses the in-tree [`oasis_sim::check`] harness so the suite runs with
//! no external dependencies.

use std::collections::{BTreeMap, BTreeSet};

use oasis_mem::bitmap::Bitmap;
use oasis_mem::chunk::FRAMES_PER_CHUNK;
use oasis_mem::compress::{compress, decompress, PageClass};
use oasis_mem::page_table::{Access, PageTable, PageTableError};
use oasis_mem::{ByteSize, MachineFrame, PageNum, PAGE_SIZE};
use oasis_sim::check::{run, Gen};

/// The codec is lossless for arbitrary byte strings.
#[test]
fn compress_round_trips() {
    run(64, |g: &mut Gen| {
        let data = g.bytes(8_192);
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    });
}

/// Compression never expands beyond the one-byte header.
#[test]
fn compress_bounded_expansion() {
    run(64, |g: &mut Gen| {
        let data = g.bytes(8_192);
        let packed = compress(&data);
        assert!(packed.len() <= data.len() + 1);
    });
}

/// Highly repetitive input compresses well.
#[test]
fn repetitive_input_compresses() {
    run(64, |g: &mut Gen| {
        let byte = g.byte();
        let len = g.usize_in(64, 4_096);
        let data = vec![byte; len];
        let packed = compress(&data);
        assert!(packed.len() < len / 2, "{} -> {}", len, packed.len());
    });
}

/// Decompressing arbitrary garbage never panics (errors are fine).
#[test]
fn decompress_is_total() {
    run(64, |g: &mut Gen| {
        let data = g.bytes(4_096);
        let _ = decompress(&data);
    });
}

/// Synthesized pages of every class round trip.
#[test]
fn synthesized_pages_round_trip() {
    run(64, |g: &mut Gen| {
        let class = *g.pick(&PageClass::ALL);
        let page = class.synthesize(g.u64());
        assert_eq!(decompress(&compress(&page)).unwrap(), page);
    });
}

/// The bitmap behaves exactly like a set of indices.
#[test]
fn bitmap_matches_set_model() {
    run(64, |g: &mut Gen| {
        let len = g.usize_in(1, 2_000);
        let ops = g.vec(0, 300, |g| (g.bool(), g.usize_in(0, 2_000)));
        let mut bitmap = Bitmap::new(len);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for (set, idx) in ops {
            let idx = idx % len;
            if set {
                bitmap.set(idx);
                model.insert(idx);
            } else {
                bitmap.clear(idx);
                model.remove(&idx);
            }
        }
        assert_eq!(bitmap.count_ones(), model.len());
        let ones: Vec<usize> = bitmap.iter_ones().collect();
        let expect: Vec<usize> = model.into_iter().collect();
        assert_eq!(ones, expect);
    });
}

/// Page-table state machine: a page is present iff installed and not
/// evicted; faults only on absent pages.
#[test]
fn page_table_state_machine() {
    run(64, |g: &mut Gen| {
        let pages = g.u64_in(1, 2_000);
        let ops = g.vec(0, 200, |g| (g.u64_in(0, 3) as u8, g.u64_in(0, 2_000)));
        let mut pt = PageTable::new_absent(pages);
        let mut present: BTreeSet<u64> = BTreeSet::new();
        for (op, raw) in ops {
            let p = PageNum(raw % pages);
            match op {
                0 => {
                    // Touch: hit iff present.
                    let access = pt.touch(p, false).unwrap();
                    if present.contains(&p.0) {
                        assert_eq!(access, Access::Hit);
                    } else {
                        assert_eq!(access, Access::Fault);
                    }
                }
                1 => {
                    // Install succeeds iff absent.
                    let r = pt.install(p, MachineFrame(p.0));
                    assert_eq!(r.is_ok(), !present.contains(&p.0));
                    present.insert(p.0);
                }
                _ => {
                    pt.evict(p).unwrap();
                    present.remove(&p.0);
                }
            }
        }
        assert_eq!(pt.present_count(), present.len() as u64);
    });
}

/// The page table's frame store behaves exactly like a
/// `BTreeMap<pfn, MachineFrame>` of installed pages under random
/// `install` / `evict` / `frame_of` / `present_pages` sequences, on
/// absent and resident tables, with pfns at both ends of the table (and
/// just past it) and frames up to the highest one a chunk allocator can
/// hand out. Catches, for example, an `evict` that returns the frame
/// without clearing its slot (the next `frame_of` still reports it).
#[test]
fn page_table_frames_match_map_model() {
    // A chunk allocator over the largest `u64` capacity ends here.
    let top_frame = u64::MAX / (FRAMES_PER_CHUNK * PAGE_SIZE) * FRAMES_PER_CHUNK - 1;
    run(64, |g: &mut Gen| {
        let pages = g.u64_in(1, 3_000);
        let resident = g.bool();
        let mut pt =
            if resident { PageTable::new_resident(pages) } else { PageTable::new_absent(pages) };
        let mut present: BTreeSet<u64> =
            if resident { (0..pages).collect() } else { BTreeSet::new() };
        let mut frames: BTreeMap<u64, MachineFrame> = BTreeMap::new();
        let ops = g.vec(0, 300, |g| g.u64_in(0, 5));
        for op in ops {
            let p = match g.u64_in(0, 4) {
                0 => 0,
                1 => pages - 1,
                2 => pages,
                _ => g.u64_in(0, pages),
            };
            let page = PageNum(p);
            match op {
                0 => {
                    let frame = MachineFrame(match g.u64_in(0, 3) {
                        0 => top_frame - g.u64_in(0, 2),
                        1 => g.u64_in(0, FRAMES_PER_CHUNK * 4),
                        _ => g.u64_in(0, top_frame + 1),
                    });
                    let expect = if p >= pages {
                        Err(PageTableError::OutOfRange(page))
                    } else if present.contains(&p) {
                        Err(PageTableError::AlreadyPresent(page))
                    } else {
                        present.insert(p);
                        frames.insert(p, frame);
                        Ok(())
                    };
                    assert_eq!(pt.install(page, frame), expect);
                }
                1 => {
                    let expect = if p >= pages {
                        Err(PageTableError::OutOfRange(page))
                    } else {
                        present.remove(&p);
                        Ok(frames.remove(&p))
                    };
                    assert_eq!(pt.evict(page), expect);
                }
                2 => assert_eq!(pt.frame_of(page), frames.get(&p).copied()),
                3 => {
                    let got: Vec<u64> = pt.present_pages().map(|p| p.0).collect();
                    assert_eq!(got, present.iter().copied().collect::<Vec<_>>());
                }
                _ => {
                    // The absent marker is never accepted as a frame.
                    let reserved = MachineFrame(u64::MAX);
                    if p < pages && !present.contains(&p) {
                        assert_eq!(
                            pt.install(page, reserved),
                            Err(PageTableError::ReservedFrame(reserved))
                        );
                    }
                }
            }
        }
        for p in 0..=pages {
            assert_eq!(pt.frame_of(PageNum(p)), frames.get(&p).copied(), "pfn {p}");
        }
        assert_eq!(pt.present_count(), present.len() as u64);
    });
}

/// Dirty epochs partition the write history: every written page shows
/// up in exactly one epoch.
#[test]
fn dirty_epochs_partition_writes() {
    run(64, |g: &mut Gen| {
        let writes = g.vec(0, 300, |g| g.u64_in(0, 500));
        let epoch_every = g.usize_in(1, 50);
        let mut pt = PageTable::new_resident(500);
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut expected: BTreeSet<u64> = BTreeSet::new();
        let mut collected: Vec<u64> = Vec::new();
        for (i, &w) in writes.iter().enumerate() {
            pt.touch(PageNum(w), true).unwrap();
            expected.insert(w);
            if i % epoch_every == 0 {
                for p in pt.take_dirty() {
                    assert!(seen.insert(p.0), "page in two epochs without rewrite");
                    collected.push(p.0);
                }
                seen.clear();
            }
        }
        for p in pt.take_dirty() {
            collected.push(p.0);
        }
        let got: BTreeSet<u64> = collected.into_iter().collect();
        assert_eq!(got, expected);
    });
}

/// ByteSize arithmetic is total and monotone.
#[test]
fn bytesize_arithmetic() {
    run(128, |g: &mut Gen| {
        let (a, b) = (g.u64(), g.u64());
        let sa = ByteSize::bytes(a);
        let sb = ByteSize::bytes(b);
        assert!(sa + sb >= sa.max(sb));
        assert!(sa.saturating_sub(sb) <= sa);
        assert_eq!(sa.checked_sub(sb).is_some(), a >= b);
    });
}
