//! The index build stays linear in the number of indexed items.
//!
//! The build fills one flat word array and splits it into per-item bitmaps. If a split
//! left each bitmap holding the rest of the array as capacity (as peeling bitmaps off
//! with `Vec::split_off` does), resident memory would be quadratic in the item count:
//! about 100 MB for the 5,000 one-word bitmaps below, against 40 KB of words. This test
//! builds such an index and bounds the growth of the process's peak resident set
//! (`VmHWM`). It is the only test in its binary, so no other test's allocations move
//! the high-water mark.

use pb_fim::{TransactionDb, VerticalIndex};

const ITEMS: u32 = 5_000;

/// The process's peak resident set in KiB, where the platform reports one.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn wide_index_build_has_linear_memory() {
    // 64 rows (one word per bitmap); row r holds every item congruent to r mod 64.
    let transactions: Vec<Vec<u32>> = (0..64u32)
        .map(|r| (0..ITEMS).filter(|i| i % 64 == r).collect())
        .collect();
    let db = TransactionDb::from_transactions(transactions);
    let before = peak_rss_kib();
    let index = VerticalIndex::build(&db);
    let after = peak_rss_kib();

    assert_eq!(index.items().len(), ITEMS as usize);
    for (item, count) in index.item_counts() {
        assert_eq!(count, 1, "item {item}");
    }
    if let (Some(before), Some(after)) = (before, after) {
        let grown_mib = (after.saturating_sub(before)) / 1024;
        assert!(
            grown_mib < 16,
            "building a {ITEMS}-item index raised peak RSS by {grown_mib} MiB"
        );
    }
}
