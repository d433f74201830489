//! Shard layout planning.
//!
//! A [`ShardPlan`] pins *how* rows are assigned to shards. The released bytes never
//! depend on the assignment — every merged statistic is a sum over disjoint row sets,
//! and sums are invariant under re-partitioning — but a recorded layout keeps restarts
//! reproducible at the *system* level: a durable registry re-creates the same shard
//! boundaries after a crash, so per-shard structures (indexes, future per-shard
//! placement) come back exactly as they were.

use std::num::NonZeroUsize;

/// A deterministic assignment of `N` rows to `S` shards: contiguous blocks of
/// `ceil(N / S)` rows, in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    num_shards: NonZeroUsize,
}

impl ShardPlan {
    /// A plan over `num_shards` shards.
    pub fn new(num_shards: NonZeroUsize) -> ShardPlan {
        ShardPlan { num_shards }
    }

    /// The requested shard count. Small databases may yield fewer *non-empty* shards
    /// (see [`ShardPlan::boundaries`]); the plan records the operator's intent.
    pub fn num_shards(&self) -> usize {
        self.num_shards.get()
    }

    /// The non-empty row ranges of the plan over `num_rows` rows, in order.
    ///
    /// Every row belongs to exactly one range, ranges are contiguous and ascending, and
    /// at most `num_shards` ranges are produced (fewer when `num_rows < num_shards`).
    pub fn boundaries(&self, num_rows: usize) -> Vec<std::ops::Range<usize>> {
        if num_rows == 0 {
            return Vec::new();
        }
        let chunk = num_rows.div_ceil(self.num_shards());
        let mut ranges = Vec::with_capacity(self.num_shards().min(num_rows));
        let mut start = 0;
        while start < num_rows {
            let end = (start + chunk).min(num_rows);
            ranges.push(start..end);
            start = end;
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(shards: usize) -> ShardPlan {
        ShardPlan::new(NonZeroUsize::new(shards).expect("test plans have shards"))
    }

    #[test]
    fn boundaries_partition_every_row_exactly_once() {
        for shards in 1..=9 {
            for rows in [0usize, 1, 2, 7, 8, 9, 100] {
                let plan = plan(shards);
                let ranges = plan.boundaries(rows);
                assert!(ranges.len() <= shards);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "{shards} shards over {rows} rows");
                    assert!(r.end > r.start, "empty range emitted");
                    next = r.end;
                }
                assert_eq!(next, rows);
            }
        }
    }

    #[test]
    fn a_plan_has_at_least_one_shard_by_type() {
        // Zero shards is unrepresentable: the smallest plan is one shard holding
        // every row.
        assert!(NonZeroUsize::new(0).is_none());
        let plan = ShardPlan::new(NonZeroUsize::MIN);
        assert_eq!(plan.num_shards(), 1);
        assert_eq!(plan.boundaries(5), vec![0..5]);
    }

    #[test]
    fn balanced_within_one_chunk() {
        let plan = plan(4);
        let ranges = plan.boundaries(10);
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
    }
}
