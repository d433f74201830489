//! The vertical (item → transaction-id bitmap) index.
//!
//! [`TransactionDb`] stores transactions row-wise: good for streaming construction and
//! projection, bad for counting — `support(X)` walks all `N` rows and runs an `O(|t|)`
//! subset merge per row. A [`VerticalIndex`] transposes the database once into one
//! [`Bitmap`] per item (bit `t` set iff transaction `t` contains the item), after which
//! every counting primitive the PrivBasis pipeline needs becomes a word-parallel
//! bitwise loop:
//!
//! * `support(X)` — AND the `|X|` item bitmaps, popcount,
//! * `supports(C)` — the same per candidate, reusing one scratch buffer,
//! * `pair_counts(F)` — AND/popcount per pair, `O(|F|² · N/64)`, returned flat (one
//!   count per pair, zeros included) and split on the counting pool like a sweep,
//! * `bin_histogram(B)` — the `BasisFreq` kernel: sweep 64-transaction blocks,
//!   transposing the ℓ item words into per-transaction bin masks (§4.1's
//!   `t ∩ Bᵢ` bins) without ever touching the row representation.
//!
//! Over the most frequent items both are answered instead from a memoized table of
//! distinct row patterns (see "The prefix table" below).
//!
//! ## The histogram sweep
//!
//! Each 64-transaction block of a basis is a 64 × ℓ bit matrix: one word per item. The
//! OR of the ℓ words says which of the 64 transactions intersect the basis at all.
//!
//! * A **dense full block** (at least 16 of its 64 transactions intersect the basis) is
//!   transposed whole. The item words are cut into ⌈ℓ/8⌉ *byte planes* of 8 words each
//!   (items `8p .. 8p+7`, zero-padded). Each plane is byte-transposed, so word `b` holds
//!   byte `b` of every item word, then bit-transposed by an 8×8 bit transpose, so byte
//!   `j` holds the plane's bits of transaction `8b + j`. OR-ing plane `p`'s byte in at
//!   bit `8p` gives that transaction's bin. Every basis length takes this path.
//! * A **sparse or partial block** credits its non-intersecting transactions to bin 0
//!   with one popcount and assembles a bin mask per intersecting transaction.
//!
//! ## Groups of bases
//!
//! [`VerticalIndex::bin_histograms`] sweeps each greedy run of consecutive bases whose
//! union has at most 12 items once, over the union, so overlapping
//! bases share one pass over the bitmaps. The union histogram is then *projected* onto
//! each member basis: two byte tables map each byte of a union mask to the member
//! mask bits it carries, and each union bin's count is added to the member bin their OR
//! names. A basis wider than the cap forms its own group, and a one-basis group is
//! swept directly with no projection.
//!
//! With a thread budget above 1, each sweep of at least 256 words (`PAR_MIN_WORDS`) splits
//! its block range into shares on the process-wide [counting pool](crate::pool) and
//! sums the per-share histograms; the result is exactly the same integer vector
//! regardless of thread count or grouping, so callers that add noise stay
//! byte-for-byte deterministic. The bitmaps sit behind an `Arc`, so a share handed to a
//! pool helper carries its own handle to them.
//!
//! ## The prefix table
//!
//! PrivBasis counts only over its frequent items, and those are the few most frequent
//! items of the index: most rows look alike once cut down to them. So an index keeps,
//! per *class* `W ∈ {8, 16}`, a table of the distinct non-empty row patterns over its
//! `W` most frequent items (bit `r` of a pattern is the item of frequency rank `r`,
//! ties going to the lower item id) with each pattern's row count, and the pair
//! matrix of those `W` items counted from it. On the 100k-row Quest fixture the
//! class-16 table holds about 10k patterns, and every basis item of the service
//! benchmark's queries ranks inside it.
//!
//! * **Build.** A class's table is built on first use, from the bitmaps, behind a
//!   `OnceLock`, by one sweep into a dense histogram of `2^W` bins whose non-zero bins
//!   are the patterns.
//! * **Size guard.** A table with more than `N / 2` patterns
//!   (`PREFIX_MIN_ROWS_PER_PATTERN`) is stored as absent.
//! * **Use.** A histogram whose items (a group's union) all rank inside a class is
//!   read from the narrowest class's table: byte tables map each pattern byte to the
//!   basis-mask bits it carries, every pattern's count goes to the bin its bytes map
//!   to, and bin 0 also receives the `N − covered` rows with an empty pattern. Pair
//!   counts over items inside a class read the pair matrix. Anything else — an item
//!   ranked past 16, no indexed item at all, or an absent table — falls back to the
//!   sweep ([`VerticalIndex::bin_histograms_swept`] is that path alone).
//! * **Whole indexes only.** Only [`VerticalIndex::build`] indexes keep tables: every
//!   PrivBasis run counts on one (a shard's, a shard worker's, or the one-shard context
//!   a one-shot run builds). A [`VerticalIndex::build_restricted`] index — Algorithm 1
//!   alone over a bare database (`basis_freq_counts`), the top-`k` walk, Apriori,
//!   projections — counts once, where a table build would cost more than the sweep it
//!   saves.
//! * **Same bytes.** Both paths count every row exactly once into the same bin, as
//!   integers, so the histograms and pair counts are identical whatever the class, the
//!   rank order or the thread budget, and so is everything released from them.

use crate::bitmap::Bitmap;
use crate::itemset::{Item, ItemSet};
use crate::pairs::{num_pairs, PairCounts};
use crate::transaction::{distinct_items, TransactionDb};
use std::sync::{Arc, OnceLock};

pub use crate::pool::{available_parallelism, set_parallelism_override};

/// Below this many words per bitmap (64 transactions each) the histogram sweep stays
/// on one thread, and a split gives each share at least half of it. Measured for a
/// 9-item basis at a budget of 2 on a 2-core VM, a split over the pool breaks even at
/// about 128 words and saves 32–37% from 192 words up.
const PAR_MIN_WORDS: usize = 256;

/// Below this many transactions the index build fills its bitmaps on one thread.
const PAR_MIN_BUILD_ROWS: usize = 1 << 15;

/// The widest union [`VerticalIndex::bin_histograms`] sweeps for a group of bases. Its
/// bin table of 2^12 × 8 B = 32 KiB stays in L1, where the sweep's scattered bin
/// increments land; a cap of 16 measured slower on overlapping 4–5-item bases.
const MAX_GROUP_ITEMS: usize = 12;

/// The prefix classes: a class-`W` table holds the row patterns over the `W` most
/// frequent indexed items. A wider class would need a benchmark workload whose bases
/// reach rank 16.
const PREFIX_WIDTHS: [usize; 2] = [8, 16];

/// A prefix table with more distinct patterns than `N / PREFIX_MIN_ROWS_PER_PATTERN`
/// is stored as absent, and its class sweeps instead. Measured at N = 100k on a 2-core
/// VM, for a 9-item basis whose top item forces the class, with rows repeating a
/// chosen number of random patterns at item densities 0.3 and 0.05: a class-16 table
/// (two byte lookups per pattern) takes under 0.2× the sweep's time up to N patterns.
/// So the guard is set by memory, not speed: at `N / 2` patterns of 6 B each a table
/// costs at most 3 B per row beside the index's bitmaps.
const PREFIX_MIN_ROWS_PER_PATTERN: usize = 2;

/// An immutable vertical index over a [`TransactionDb`].
#[derive(Clone, Debug)]
pub struct VerticalIndex {
    num_transactions: usize,
    /// Indexed items, ascending.
    items: Vec<Item>,
    /// `bitmaps[i]` holds the transaction set of `items[i]`; shared so a sweep share
    /// on a pool helper can hold them.
    bitmaps: Arc<[Bitmap]>,
    /// The frequency ranks and the prefix tables, each built on first use (boxed: the
    /// index itself stays a few words); `None` on a restricted index.
    prefix: Option<Box<Prefix>>,
}

impl VerticalIndex {
    /// Builds the index over every distinct item of `db` in one pass (the database
    /// already holds its item universe).
    pub fn build(db: &TransactionDb) -> Self {
        Self::build_items(db.transactions(), db.item_universe(), true)
    }

    /// Builds the index over every distinct item of `rows`, a slice of some database
    /// (a shard's row range, a worker's loaded rows): one pass gathers the items, one
    /// fills their bitmaps.
    pub fn build_rows(rows: &[ItemSet]) -> Self {
        Self::build_items(rows, distinct_items(rows).into_iter().collect(), true)
    }

    /// Builds the index over only the items of `restrict` (items of `restrict` absent
    /// from the database get no bitmap). Useful when a caller will only ever query one
    /// basis, e.g. for projections.
    pub fn build_restricted(db: &TransactionDb, restrict: &ItemSet) -> Self {
        let universe = ItemSet::from_sorted(db.item_universe()).expect("universe is sorted");
        let items = universe.intersect(restrict).items().to_vec();
        Self::build_items(db.transactions(), items, false)
    }

    /// The one build: a bitmap per item of `items` (ascending) over `rows`, with prefix
    /// tables when `prefix` holds. Every bitmap is allocated once, at its final size,
    /// and filled in place. The rows are cut into 64-aligned chunks, one per worker of
    /// the thread budget (a single chunk below `PAR_MIN_BUILD_ROWS` rows, filled on the
    /// caller's thread), and each chunk sets bits only in its own word range of every
    /// bitmap, so the result is the same bits for any budget.
    fn build_items(rows: &[ItemSet], items: Vec<Item>, prefix: bool) -> Self {
        let n = rows.len();
        let num_words = n.div_ceil(64);
        let threads = if n >= PAR_MIN_BUILD_ROWS {
            available_parallelism()
        } else {
            1
        };
        let chunk_words = num_words.div_ceil(threads).max(1);
        let lookup = SlotLookup::new(&items);
        let mut words: Vec<Vec<u64>> = items.iter().map(|_| vec![0u64; num_words]).collect();
        // chunks[c][slot]: chunk c's word range of the bitmap at `slot`.
        let mut chunks: Vec<Vec<&mut [u64]>> = (0..num_words.div_ceil(chunk_words))
            .map(|_| Vec::with_capacity(items.len()))
            .collect();
        for bitmap in &mut words {
            for (chunk, range) in chunks.iter_mut().zip(bitmap.chunks_mut(chunk_words)) {
                chunk.push(range);
            }
        }
        let fill = |c: usize, mut chunk: Vec<&mut [u64]>| {
            let first = c * chunk_words * 64;
            let end = (first + chunk_words * 64).min(n);
            for (tid, t) in rows[first..end].iter().enumerate() {
                for item in t.iter() {
                    if let Some(slot) = lookup.slot(item) {
                        chunk[slot][tid / 64] |= 1u64 << (tid % 64);
                    }
                }
            }
        };
        // audit:allow(thread-spawn): the build borrows the rows and runs once per registration, not per query
        std::thread::scope(|scope| {
            let fill = &fill;
            let mut chunks = chunks.into_iter().enumerate();
            let first = chunks.next();
            for (c, chunk) in chunks {
                scope.spawn(move || fill(c, chunk));
            }
            if let Some((c, chunk)) = first {
                fill(c, chunk);
            }
        });
        VerticalIndex {
            num_transactions: n,
            bitmaps: words
                .into_iter()
                .map(|w| Bitmap::from_words(w, n))
                .collect(),
            items,
            prefix: prefix.then(Box::default),
        }
    }

    /// Number of transactions `N` the index spans.
    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    /// Wraps the index in an [`Arc`](std::sync::Arc) for reuse across query threads.
    ///
    /// Every query method takes `&self` and the bitmaps are immutable after build, so a
    /// single index can serve concurrent `support`/`pair_counts`/`bin_histogram` calls
    /// with no locking (`Send + Sync` is asserted at compile time in
    /// `transaction::shareability`).
    pub fn into_shared(self) -> std::sync::Arc<VerticalIndex> {
        std::sync::Arc::new(self)
    }

    /// The indexed items, ascending.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// The bitmap of one item, if the item is indexed.
    pub fn item_bitmap(&self, item: Item) -> Option<&Bitmap> {
        self.items
            .binary_search(&item)
            .ok()
            .map(|i| &self.bitmaps[i])
    }

    /// Per-item support counts, `(item, count)` ascending by item.
    pub fn item_counts(&self) -> Vec<(Item, usize)> {
        self.items
            .iter()
            .zip(self.bitmaps.iter())
            .map(|(&item, b)| (item, b.count_ones()))
            .collect()
    }

    /// Items sorted by descending support, ties by ascending item id — same contract as
    /// [`TransactionDb::items_by_frequency`].
    pub fn items_by_frequency(&self) -> Vec<(Item, usize)> {
        let mut v = self.item_counts();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Support count of one itemset (AND of the item bitmaps, popcount).
    ///
    /// The empty itemset is contained in every transaction; an itemset with an
    /// unindexed item has support 0.
    pub fn support(&self, itemset: &ItemSet) -> usize {
        let mut scratch = Vec::new();
        self.support_with_scratch(itemset, &mut scratch)
    }

    /// Support counts for a batch of itemsets, reusing one scratch buffer.
    pub fn supports(&self, itemsets: &[ItemSet]) -> Vec<usize> {
        let mut scratch = Vec::new();
        itemsets
            .iter()
            .map(|x| self.support_with_scratch(x, &mut scratch))
            .collect()
    }

    fn support_with_scratch(&self, itemset: &ItemSet, scratch: &mut Vec<u64>) -> usize {
        let items = itemset.items();
        match items.len() {
            0 => self.num_transactions,
            1 => self.item_bitmap(items[0]).map_or(0, Bitmap::count_ones),
            2 => match (self.item_bitmap(items[0]), self.item_bitmap(items[1])) {
                (Some(a), Some(b)) => a.and_popcount(b),
                _ => 0,
            },
            _ => {
                let mut maps = Vec::with_capacity(items.len());
                for &item in items {
                    match self.item_bitmap(item) {
                        Some(b) => maps.push(b),
                        None => return 0,
                    }
                }
                scratch.clear();
                scratch.extend_from_slice(maps[0].words());
                for b in &maps[1..] {
                    for (w, &other) in scratch.iter_mut().zip(b.words()) {
                        *w &= other;
                    }
                }
                scratch.iter().map(|w| w.count_ones() as usize).sum()
            }
        }
    }

    /// The support of every unordered pair of `items`, zeros included, in the flat
    /// order of [`PairCounts`] — with the whole thread budget for its split.
    pub fn pair_counts(&self, items: &ItemSet) -> PairCounts {
        self.pair_counts_with(items, available_parallelism())
    }

    /// [`VerticalIndex::pair_counts`] within a budget of `threads` workers: the word
    /// range is split into shares on the counting pool under the same rule as a
    /// histogram sweep, and the per-share counts are summed.
    ///
    /// Items that all lie inside a prefix class read the class table's pair matrix
    /// instead (see the module docs).
    pub fn pair_counts_with(&self, items: &ItemSet, threads: usize) -> PairCounts {
        let slots = self.slots(items);
        if let Some((table, ranks)) = self.prefix_table(&slots) {
            return PairCounts::from_flat(items, table.pair_counts(&ranks));
        }
        let num_words = self.num_transactions.div_ceil(64);
        let shares = split_shares(num_words, threads);
        let counts = if shares == 1 {
            count_pairs(&self.bitmaps, &slots, 0..num_words)
        } else {
            let share_len = num_words.div_ceil(shares);
            let bitmaps = Arc::clone(&self.bitmaps);
            let mut partials = crate::pool::run(shares, shares, move |c, _| {
                let range = c * share_len..((c + 1) * share_len).min(num_words);
                count_pairs(&bitmaps, &slots, range)
            })
            .into_iter();
            let mut counts = partials.next().expect("at least one share");
            for partial in partials {
                for (acc, x) in counts.iter_mut().zip(partial) {
                    *acc += x;
                }
            }
            counts
        };
        PairCounts::from_flat(items, counts)
    }

    /// The `BasisFreq` kernel: the exact bin histogram of `basis`.
    ///
    /// Returns `bins` of length `2^|basis|` where `bins[mask]` counts the transactions
    /// `t` with `t ∩ basis` equal to the subset of `basis` encoded by `mask` (bit `i` of
    /// `mask` ⇔ the `i`-th smallest basis item is in `t`). `Σ bins = N`.
    ///
    /// The one-basis case of [`VerticalIndex::bin_histograms`], with the whole thread
    /// budget for its sweep.
    ///
    /// # Panics
    /// Panics if `basis` has more than 25 items (the bin table would not fit in memory;
    /// callers cap ℓ far below this).
    pub fn bin_histogram(&self, basis: &ItemSet) -> Vec<u64> {
        self.histogram(basis, available_parallelism())
    }

    /// The histograms of several bases within one budget of `threads` sweep workers
    /// (`1` = fully sequential), equal to mapping [`VerticalIndex::bin_histogram`] over
    /// `bases` for any budget.
    ///
    /// Each greedy run of consecutive bases whose union has at most 12 items is counted
    /// once, over the union, and the union histogram is projected onto each member (see
    /// the module docs). A union inside a prefix class is counted from the class
    /// table; any other is swept. Groups run one after another, each with the whole
    /// budget for its block split.
    ///
    /// # Panics
    /// Panics if a basis has more than 25 items, as [`VerticalIndex::bin_histogram`].
    pub fn bin_histograms(&self, bases: &[ItemSet], threads: usize) -> Vec<Vec<u64>> {
        self.grouped_histograms(bases, threads, true)
    }

    /// [`VerticalIndex::bin_histograms`] by the bitmap sweep alone, never from a prefix
    /// table: what a union outside every prefix class takes, and the reference the
    /// table path is tested against.
    ///
    /// # Panics
    /// Panics if a basis has more than 25 items, as [`VerticalIndex::bin_histogram`].
    pub fn bin_histograms_swept(&self, bases: &[ItemSet], threads: usize) -> Vec<Vec<u64>> {
        self.grouped_histograms(bases, threads, false)
    }

    /// The greedy grouping of [`VerticalIndex::bin_histograms`]; each union is counted
    /// by [`VerticalIndex::histogram`] when `prefix` holds, else swept.
    fn grouped_histograms(&self, bases: &[ItemSet], threads: usize, prefix: bool) -> Vec<Vec<u64>> {
        let count = |basis: &ItemSet| {
            if prefix {
                self.histogram(basis, threads)
            } else {
                check_basis_len(basis);
                self.sweep_slots(&self.slots(basis), threads)
            }
        };
        let mut hists = Vec::with_capacity(bases.len());
        let mut start = 0;
        while start < bases.len() {
            let mut union = bases[start].clone();
            let mut end = start + 1;
            while let Some(next) = bases.get(end) {
                let wider = union.union(next);
                if wider.len() > MAX_GROUP_ITEMS {
                    break;
                }
                union = wider;
                end += 1;
            }
            let group = &bases[start..end];
            if let [basis] = group {
                hists.push(count(basis));
            } else {
                let union_bins = count(&union);
                hists.extend(group.iter().map(|b| project_bins(&union_bins, &union, b)));
            }
            start = end;
        }
        hists
    }

    /// One basis's histogram: from the narrowest prefix table that covers it, else
    /// swept within a budget of `threads`.
    fn histogram(&self, basis: &ItemSet, threads: usize) -> Vec<u64> {
        check_basis_len(basis);
        let slots = self.slots(basis);
        match self.prefix_table(&slots) {
            Some((table, ranks)) => table.histogram(&ranks, self.num_transactions),
            None => self.sweep_slots(&slots, threads),
        }
    }

    /// The bitmap slot of every item of `items`, `None` for an unindexed one.
    fn slots(&self, items: &ItemSet) -> Vec<Option<usize>> {
        items
            .iter()
            .map(|item| self.items.binary_search(&item).ok())
            .collect()
    }

    /// The histogram over the items at `slots` (bit `i` ⇔ `slots[i]`), its block range
    /// split into at most `threads` shares on the counting pool.
    fn sweep_slots(&self, slots: &[Option<usize>], threads: usize) -> Vec<u64> {
        if slots.is_empty() {
            return vec![self.num_transactions as u64];
        }
        let num_words = self.num_transactions.div_ceil(64);
        let n = self.num_transactions;
        let chunks = split_shares(num_words, threads);
        if chunks == 1 {
            return sweep_bins(&self.bitmaps, slots, 0..num_words, n);
        }
        let chunk_len = num_words.div_ceil(chunks);
        let bitmaps = Arc::clone(&self.bitmaps);
        let shared: Arc<[Option<usize>]> = slots.into();
        let partials = crate::pool::run(chunks, chunks, move |c, _| {
            let range = c * chunk_len..((c + 1) * chunk_len).min(num_words);
            sweep_bins(&bitmaps, &shared, range, n)
        });
        let mut bins = vec![0u64; 1 << slots.len()];
        for partial in partials {
            for (acc, x) in bins.iter_mut().zip(partial) {
                *acc += x;
            }
        }
        bins
    }

    /// The narrowest prefix table whose class holds every indexed item at `slots`,
    /// built on first use, with the frequency rank of each slot (`None` for an
    /// unindexed item). `None` on a restricted index, when no item is indexed, when no
    /// class holds them, or when that class's table is over the size guard.
    fn prefix_table(&self, slots: &[Option<usize>]) -> Option<(&PrefixTable, Vec<Option<u32>>)> {
        let prefix = self.prefix.as_deref()?;
        let ranks = prefix.ranks.get_or_init(|| Ranks::new(&self.bitmaps));
        let item_ranks: Vec<Option<u32>> =
            slots.iter().map(|s| s.map(|s| ranks.of_slot[s])).collect();
        let top = item_ranks.iter().flatten().max().map(|&r| r as usize)?;
        let class = PREFIX_WIDTHS.iter().position(|&width| top < width)?;
        let table = prefix.tables[class]
            .get_or_init(|| PrefixTable::build(self, PREFIX_WIDTHS[class], &ranks.top))
            .as_ref()?;
        Some((table, item_ranks))
    }

    /// Projects every transaction onto `basis`, producing a new row-oriented database —
    /// the vertical route for [`TransactionDb::project`].
    ///
    /// Runs in `O(N + Σ_{i ∈ basis} support(i))`: each item bitmap deposits its item
    /// into the rows that contain it, in ascending item order, so rows come out sorted.
    pub fn project(&self, basis: &ItemSet) -> TransactionDb {
        let mut rows: Vec<Vec<Item>> = vec![Vec::new(); self.num_transactions];
        for item in basis.iter() {
            if let Some(bitmap) = self.item_bitmap(item) {
                for tid in bitmap.ones() {
                    rows[tid].push(item);
                }
            }
        }
        let itemsets: Vec<ItemSet> = rows
            .into_iter()
            .map(|r| ItemSet::from_sorted(r).expect("items deposited in ascending order"))
            .collect();
        TransactionDb::from_itemsets(itemsets)
    }
}

/// How many shares a word-range kernel over `num_words` words splits into within a
/// budget of `threads`: one below `PAR_MIN_WORDS`, and never a share under half of it.
fn split_shares(num_words: usize, threads: usize) -> usize {
    if num_words >= PAR_MIN_WORDS {
        threads.min(num_words / (PAR_MIN_WORDS / 2)).max(1)
    } else {
        1
    }
}

/// Words per step of [`count_pairs`]: 256 words (2 KiB) of each item stay in L1 while
/// every pair over them is counted.
const PAIR_BLOCK_WORDS: usize = 256;

/// The flat pair counts (see [`PairCounts`]) of the items at `slots` of `bitmaps`
/// (`None` for an unindexed item, whose pairs count 0) over `word_range`, one block of
/// words at a time.
fn count_pairs(
    bitmaps: &[Bitmap],
    slots: &[Option<usize>],
    word_range: std::ops::Range<usize>,
) -> Vec<usize> {
    let mut counts = vec![0usize; num_pairs(slots.len())];
    let mut start = word_range.start;
    while start < word_range.end {
        let end = (start + PAIR_BLOCK_WORDS).min(word_range.end);
        let block: Vec<Option<&[u64]>> = slots
            .iter()
            .map(|slot| slot.map(|s| &bitmaps[s].words()[start..end]))
            .collect();
        let mut at = 0;
        for (i, a) in block.iter().enumerate() {
            let rest = &block[i + 1..];
            if let Some(a) = a {
                for (count, b) in counts[at..at + rest.len()].iter_mut().zip(rest) {
                    if let Some(b) = b {
                        *count += a
                            .iter()
                            .zip(*b)
                            .map(|(x, y)| (x & y).count_ones() as usize)
                            .sum::<usize>();
                    }
                }
            }
            at += rest.len();
        }
        start = end;
    }
    counts
}

/// Maps items to bitmap slots. When item ids are dense (the common case — generators and
/// FIMI files use small integer ids) a direct table replaces the `log |I|` binary search
/// in the build's inner loop.
struct SlotLookup {
    /// Dense table: `table[item] = slot`, `u32::MAX` = not indexed. Empty when sparse.
    table: Vec<u32>,
    /// Fallback for sparse id spaces: the sorted items themselves.
    items: Vec<Item>,
}

impl SlotLookup {
    fn new(items: &[Item]) -> Self {
        let dense_ok = items
            .last()
            .is_some_and(|&max| (max as usize) < items.len().saturating_mul(16) + 1024);
        if dense_ok {
            let max = *items.last().expect("non-empty by dense_ok") as usize;
            let mut table = vec![u32::MAX; max + 1];
            for (slot, &item) in items.iter().enumerate() {
                table[item as usize] = slot as u32;
            }
            SlotLookup {
                table,
                items: Vec::new(),
            }
        } else {
            SlotLookup {
                table: Vec::new(),
                items: items.to_vec(),
            }
        }
    }

    #[inline]
    fn slot(&self, item: Item) -> Option<usize> {
        if self.table.is_empty() {
            self.items.binary_search(&item).ok()
        } else {
            match self.table.get(item as usize) {
                Some(&slot) if slot != u32::MAX => Some(slot as usize),
                _ => None,
            }
        }
    }
}

/// # Panics
/// Panics if `basis` has more than 25 items: its bin table would not fit in memory.
fn check_basis_len(basis: &ItemSet) {
    let ell = basis.len();
    assert!(
        ell <= 25,
        "basis of {ell} items: bin table 2^{ell} too large"
    );
}

/// An index's frequency ranks and prefix tables, each built on first use.
#[derive(Clone, Debug, Default)]
struct Prefix {
    ranks: OnceLock<Ranks>,
    /// `tables[c]` for class `PREFIX_WIDTHS[c]`; `None` once built over the size guard.
    tables: [OnceLock<Option<PrefixTable>>; PREFIX_WIDTHS.len()],
}

/// The frequency order of an index's items: descending support, ties by ascending item
/// id, as [`VerticalIndex::items_by_frequency`].
#[derive(Clone, Debug)]
struct Ranks {
    /// `of_slot[s]`: the rank of the item at bitmap slot `s`.
    of_slot: Vec<u32>,
    /// The slots of the first (up to 16) ranks, in rank order.
    top: Vec<usize>,
}

impl Ranks {
    fn new(bitmaps: &[Bitmap]) -> Ranks {
        let counts: Vec<usize> = bitmaps.iter().map(Bitmap::count_ones).collect();
        // Slots ascend with item id, so the slot breaks ties as the item id does.
        let mut by_rank: Vec<usize> = (0..counts.len()).collect();
        by_rank.sort_unstable_by_key(|&s| (std::cmp::Reverse(counts[s]), s));
        let mut of_slot = vec![0u32; counts.len()];
        for (rank, &slot) in by_rank.iter().enumerate() {
            of_slot[slot] = rank as u32;
        }
        by_rank.truncate(PREFIX_WIDTHS[PREFIX_WIDTHS.len() - 1]);
        Ranks {
            of_slot,
            top: by_rank,
        }
    }
}

/// The distinct non-empty row patterns over the `width` most frequent indexed items
/// (bit `r` ⇔ the item of rank `r`), each with its row count.
#[derive(Clone, Debug)]
struct PrefixTable {
    width: usize,
    patterns: Vec<u16>,
    counts: Vec<u32>,
    /// Rows with a non-empty pattern: the sum of `counts`.
    covered: u64,
    /// `pairs[r * width + s]`, `r < s`: the rows holding the items of ranks `r` and `s`.
    pairs: Vec<usize>,
}

impl PrefixTable {
    /// Builds the class-`width` table of `index` from its bitmaps, given the slots of
    /// its top ranks; `None` when it has more patterns than the size guard allows.
    ///
    /// The ranked items are swept on the calling thread into a dense histogram of at
    /// most `2^16` bins, whose non-zero bins are the patterns.
    fn build(index: &VerticalIndex, width: usize, top: &[usize]) -> Option<PrefixTable> {
        let n = index.num_transactions;
        // Row counts are kept as `u32`; an index over more rows keeps no tables.
        u32::try_from(n).ok()?;
        let slots: Vec<Option<usize>> = top.iter().take(width).map(|&s| Some(s)).collect();
        let mut bins = vec![0u32; 1 << slots.len()];
        sweep_range(
            &index.bitmaps,
            &slots,
            0..n.div_ceil(64),
            n,
            |mask, count| bins[mask] += count as u32,
        );
        let (patterns, counts): (Vec<u16>, Vec<u32>) = (1..bins.len())
            .filter(|&mask| bins[mask] > 0)
            .map(|mask| (mask as u16, bins[mask]))
            .unzip();
        if patterns.len() > n / PREFIX_MIN_ROWS_PER_PATTERN {
            return None;
        }
        let mut pairs = vec![0usize; width * width];
        for (&pattern, &count) in patterns.iter().zip(&counts) {
            let mut rest = pattern;
            while rest != 0 {
                let r = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let mut others = rest;
                while others != 0 {
                    pairs[r * width + others.trailing_zeros() as usize] += count as usize;
                    others &= others - 1;
                }
            }
        }
        Some(PrefixTable {
            width,
            covered: counts.iter().map(|&count| u64::from(count)).sum(),
            patterns,
            counts,
            pairs,
        })
    }

    /// The histogram of a basis whose item `i` has rank `ranks[i]` (`None`: never
    /// present), over `n` rows. Two byte tables map the low and high byte of a pattern
    /// to the basis mask bits they carry; the rows with an empty pattern go to bin 0 in
    /// bulk.
    fn histogram(&self, ranks: &[Option<u32>], n: usize) -> Vec<u64> {
        let mut bit_of_rank = [0u32; 16];
        for (bit, rank) in ranks.iter().enumerate() {
            if let Some(rank) = rank {
                bit_of_rank[*rank as usize] = 1 << bit;
            }
        }
        let mut tables = [[0u32; 256]; 2];
        for (p, table) in tables.iter_mut().enumerate() {
            for v in 1..256usize {
                table[v] = table[v & (v - 1)] | bit_of_rank[8 * p + v.trailing_zeros() as usize];
            }
        }
        let mut bins = vec![0u64; 1 << ranks.len()];
        bins[0] = n as u64 - self.covered;
        for (&pattern, &count) in self.patterns.iter().zip(&self.counts) {
            let mask =
                tables[0][usize::from(pattern & 0xFF)] | tables[1][usize::from(pattern >> 8)];
            bins[mask as usize] += u64::from(count);
        }
        bins
    }

    /// The flat pair counts (see [`PairCounts`]) of items with ranks `ranks` (`None`:
    /// never present, so every pair with it counts 0).
    fn pair_counts(&self, ranks: &[Option<u32>]) -> Vec<usize> {
        let mut counts = Vec::with_capacity(num_pairs(ranks.len()));
        for (i, a) in ranks.iter().enumerate() {
            for b in &ranks[i + 1..] {
                counts.push(match (a, b) {
                    (Some(a), Some(b)) => {
                        let (r, s) = ((*a).min(*b) as usize, (*a).max(*b) as usize);
                        self.pairs[r * self.width + s]
                    }
                    _ => 0,
                });
            }
        }
        counts
    }
}

/// The partial histogram over the items at `slots` of `bitmaps` for `word_range`.
fn sweep_bins(
    bitmaps: &[Bitmap],
    slots: &[Option<usize>],
    word_range: std::ops::Range<usize>,
    num_transactions: usize,
) -> Vec<u64> {
    let mut bins = vec![0u64; 1 << slots.len()];
    sweep_range(
        bitmaps,
        slots,
        word_range,
        num_transactions,
        |mask, count| bins[mask] += count,
    );
    bins
}

/// Sweeps `word_range` of the items at `slots` of `bitmaps` (`None` for an unindexed
/// item, at most 32 items), with as many byte planes as they need, and credits every
/// transaction's mask to `credit(mask, count)`.
fn sweep_range(
    bitmaps: &[Bitmap],
    slots: &[Option<usize>],
    word_range: std::ops::Range<usize>,
    num_transactions: usize,
    credit: impl FnMut(usize, u64),
) {
    let word_slices: Vec<Option<&[u64]>> = slots
        .iter()
        .map(|slot| slot.map(|i| bitmaps[i].words()))
        .collect();
    let n = num_transactions;
    match slots.len().div_ceil(8) {
        1 => sweep_blocks::<1>(&word_slices, word_range, n, credit),
        2 => sweep_blocks::<2>(&word_slices, word_range, n, credit),
        3 => sweep_blocks::<3>(&word_slices, word_range, n, credit),
        _ => sweep_blocks::<4>(&word_slices, word_range, n, credit),
    }
}

/// Sweeps `word_range` (64-transaction blocks) of `word_slices.len()` items, at most
/// `8P`, in `P` byte planes, crediting each transaction's mask (bit `i` ⇔ item `i`).
///
/// For each block the item words are fetched once; the OR of them identifies the
/// transactions intersecting the items. A dense full block is transposed plane by
/// plane (see the module docs); in any other block everything non-intersecting goes to
/// mask 0 in bulk and each intersecting transaction's mask is assembled from one bit
/// column.
fn sweep_blocks<const P: usize>(
    word_slices: &[Option<&[u64]>],
    word_range: std::ops::Range<usize>,
    num_transactions: usize,
    mut credit: impl FnMut(usize, u64),
) {
    let ell = word_slices.len();
    // The block's item words, zero-padded to whole byte planes of 8 items.
    let mut block = [[0u64; 8]; P];
    for w in word_range {
        let mut occupied = 0u64;
        for (slot, slice) in block.as_flattened_mut().iter_mut().zip(word_slices) {
            *slot = slice.map_or(0, |s| s[w]);
            occupied |= *slot;
        }
        let block_len = (num_transactions - w * 64).min(64);
        if block_len == 64 && occupied.count_ones() >= 16 {
            // Dense full block: after the byte transpose, `planes[p][b]` holds byte `b`
            // of items 8p..8p+7, i.e. those items of transactions 64w + 8b .. + 7.
            let mut planes = block;
            for plane in &mut planes {
                transpose_bytes(plane);
            }
            for b in 0..8 {
                if planes.iter().all(|plane| plane[b] == 0) {
                    credit(0, 8);
                    continue;
                }
                // After the bit transpose, byte `j` of `bits[p]` holds the plane's items
                // of transaction 64w + 8b + j.
                let bits = planes.map(|plane| transpose8x8(plane[b]));
                for j in 0..8 {
                    let mut bin = 0usize;
                    for (p, &word) in bits.iter().enumerate() {
                        bin |= (((word >> (8 * j)) & 0xFF) as usize) << (8 * p);
                    }
                    credit(bin, 1);
                }
            }
        } else {
            // Sparse or partial block: credit the non-intersecting transactions to bin 0
            // in bulk, then assemble a mask per set bit of `occupied`.
            credit(0, (block_len as u32 - occupied.count_ones()) as u64);
            let words = &block.as_flattened()[..ell];
            while occupied != 0 {
                let j = occupied.trailing_zeros();
                occupied &= occupied - 1;
                let mut mask = 0usize;
                for (b, &word) in words.iter().enumerate() {
                    mask |= ((word >> j) & 1) as usize * (1 << b);
                }
                credit(mask, 1);
            }
        }
    }
}

/// Folds `union_bins`, the histogram over `union` (at most [`MAX_GROUP_ITEMS`] items),
/// onto `member ⊆ union`: every union bin's count goes to the member bin of the member
/// items it contains. Two byte tables map the low and high byte of a union mask to the
/// member mask bits they carry, so each bin costs two lookups.
fn project_bins(union_bins: &[u64], union: &ItemSet, member: &ItemSet) -> Vec<u64> {
    // member_bit[pos]: the member mask bit of the union item at `pos`, 0 if not a member.
    let mut member_bit = [0usize; 16];
    for (bit, item) in member.iter().enumerate() {
        let pos = union
            .items()
            .binary_search(&item)
            .expect("a group member lies inside its union");
        member_bit[pos] = 1 << bit;
    }
    let mut tables = [[0usize; 256]; 2];
    for (p, table) in tables.iter_mut().enumerate() {
        for v in 1..256usize {
            table[v] = table[v & (v - 1)] | member_bit[8 * p + v.trailing_zeros() as usize];
        }
    }
    let mut bins = vec![0u64; 1 << member.len()];
    for (mask, &count) in union_bins.iter().enumerate() {
        bins[tables[0][mask & 0xFF] | tables[1][mask >> 8]] += count;
    }
    bins
}

/// Transposes an 8×8 byte matrix held as eight words, one row per word: byte `b` of
/// word `i` becomes byte `i` of word `b`. Three rounds swap the off-diagonal 4×4, 2×2
/// and 1×1 blocks (the byte-level analogue of [`transpose8x8`]).
fn transpose_bytes(x: &mut [u64; 8]) {
    for (shift, mask) in [
        (32, 0x0000_0000_FFFF_FFFF_u64),
        (16, 0x0000_FFFF_0000_FFFF),
        (8, 0x00FF_00FF_00FF_00FF),
    ] {
        let stride = shift / 8;
        for i in (0..8).filter(|i| i & stride == 0) {
            let t = ((x[i] >> shift) ^ x[i + stride]) & mask;
            x[i + stride] ^= t;
            x[i] ^= t << shift;
        }
    }
}

/// Transposes an 8×8 bit matrix packed row-major into a `u64` (Hacker's Delight 7-3):
/// bit `j` of input byte `i` becomes bit `i` of output byte `j`.
fn transpose8x8(x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AA;
    let x = x ^ t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC;
    let x = x ^ t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0;
    x ^ t ^ (t << 28)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> TransactionDb {
        TransactionDb::from_transactions(vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![2, 3],
            vec![1, 2, 3, 4],
            vec![4],
            vec![],
        ])
    }

    fn set(items: &[u32]) -> ItemSet {
        ItemSet::new(items.to_vec())
    }

    #[test]
    fn build_and_basic_queries() {
        let db = sample_db();
        let idx = VerticalIndex::build(&db);
        assert_eq!(idx.num_transactions(), 6);
        assert_eq!(idx.items(), &[1, 2, 3, 4]);
        assert_eq!(idx.item_bitmap(2).unwrap().count_ones(), 4);
        assert!(idx.item_bitmap(9).is_none());
    }

    #[test]
    fn support_matches_row_scan() {
        let db = sample_db();
        let idx = VerticalIndex::build(&db);
        for candidate in [
            set(&[]),
            set(&[1]),
            set(&[1, 2]),
            set(&[1, 2, 3]),
            set(&[1, 2, 3, 4]),
            set(&[4]),
            set(&[9]),
            set(&[1, 9]),
        ] {
            assert_eq!(
                idx.support(&candidate),
                db.support(&candidate),
                "{candidate:?}"
            );
        }
        let batch = [set(&[1]), set(&[2, 3]), set(&[])];
        assert_eq!(idx.supports(&batch), db.supports(&batch));
    }

    #[test]
    fn item_counts_and_frequency_order_match_db() {
        let db = sample_db();
        let idx = VerticalIndex::build(&db);
        let mut db_counts: Vec<(Item, usize)> = db.item_counts().into_iter().collect();
        db_counts.sort_unstable();
        assert_eq!(idx.item_counts(), db_counts);
        assert_eq!(idx.items_by_frequency(), db.items_by_frequency());
    }

    #[test]
    fn pair_counts_match_db() {
        let db = sample_db();
        let idx = VerticalIndex::build(&db);
        let items = set(&[1, 2, 3, 4]);
        assert_eq!(idx.pair_counts(&items), db.pair_counts(&items));
        // Restricting to a subset restricts the pairs.
        let sub = set(&[1, 3]);
        assert_eq!(idx.pair_counts(&sub), db.pair_counts(&sub));
    }

    #[test]
    fn bin_histogram_partitions_the_database() {
        let db = sample_db();
        let idx = VerticalIndex::build(&db);
        let basis = set(&[1, 2, 3]);
        let bins = idx.bin_histogram(&basis);
        assert_eq!(bins.len(), 8);
        assert_eq!(bins.iter().sum::<u64>(), db.len() as u64);
        // Bin of mask m counts transactions with t ∩ {1,2,3} exactly the encoded subset:
        // {} -> rows {4},{};  {1,2} -> rows [1,2];  {1,2,3} -> rows [1,2,3] and [1,2,3,4].
        assert_eq!(bins[0b000], 2);
        assert_eq!(bins[0b011], 1);
        assert_eq!(bins[0b111], 2);
        assert_eq!(bins[0b110], 1); // {2,3} -> row [2,3]
        assert_eq!(bins[0b001], 0);
    }

    #[test]
    fn bin_histogram_handles_unindexed_items_and_empty_basis() {
        let db = sample_db();
        let idx = VerticalIndex::build(&db);
        assert_eq!(idx.bin_histogram(&set(&[])), vec![6]);
        // Item 9 never occurs: its bit is always 0, so odd masks are empty.
        let bins = idx.bin_histogram(&set(&[1, 9]));
        assert_eq!(bins[0b10], 0);
        assert_eq!(bins[0b11], 0);
        assert_eq!(bins[0b01], db.support(&set(&[1])) as u64);
    }

    #[test]
    fn bin_histogram_crosses_word_boundaries() {
        // 300 transactions spanning 5 words; transaction t contains item 0 iff t % 2 == 0
        // and item 1 iff t % 3 == 0.
        let transactions: Vec<Vec<u32>> = (0..300)
            .map(|t| {
                let mut row = Vec::new();
                if t % 2 == 0 {
                    row.push(0);
                }
                if t % 3 == 0 {
                    row.push(1);
                }
                row
            })
            .collect();
        let db = TransactionDb::from_transactions(transactions);
        let idx = VerticalIndex::build(&db);
        let bins = idx.bin_histogram(&set(&[0, 1]));
        assert_eq!(bins[0b11], 50); // multiples of 6
        assert_eq!(bins[0b01], 100); // even, not multiple of 3
        assert_eq!(bins[0b10], 50); // multiple of 3, odd
        assert_eq!(bins[0b00], 100);
    }

    #[test]
    fn multi_basis_schedule_matches_per_basis_histograms() {
        // Wide enough (≥ 2^15 rows) for the block split to engage when the `parallel`
        // feature is on; without it every budget takes the sequential path, which must
        // agree all the same. All five bases, the empty one included, share one sweep
        // over their 12-item union; the prefix `bases[..1]` is a one-basis group.
        let n = (1 << 15) + 1_000;
        let transactions: Vec<Vec<u32>> = (0..n)
            .map(|t| {
                (0..12u32)
                    .filter(|&j| (t * 7 + j as usize * 13).is_multiple_of(j as usize + 3))
                    .collect()
            })
            .collect();
        let idx = VerticalIndex::build(&TransactionDb::from_transactions(transactions));
        let bases = [
            set(&[0, 1, 2, 3]),
            set(&[4, 5, 6]),
            set(&[7, 8]),
            set(&[9, 10, 11, 0]),
            set(&[]),
        ];
        let expected: Vec<Vec<u64>> = bases.iter().map(|b| idx.bin_histogram(b)).collect();
        for threads in 1..=4 {
            assert_eq!(
                idx.bin_histograms(&bases, threads),
                expected,
                "budget {threads}"
            );
            assert_eq!(idx.bin_histograms(&bases[..1], threads), expected[..1]);
        }
        assert!(idx.bin_histograms(&[], 3).is_empty());
    }

    #[test]
    fn split_bitmaps_own_exactly_their_words() {
        let transactions: Vec<Vec<u32>> = (0..200u32).map(|t| vec![t % 7, 7 + t % 5]).collect();
        let idx = VerticalIndex::build(&TransactionDb::from_transactions(transactions));
        assert_eq!(idx.items().len(), 12);
        for &item in idx.items() {
            let bitmap = idx.item_bitmap(item).unwrap();
            assert_eq!(bitmap.words().len(), 4);
            assert_eq!(bitmap.capacity_words(), 4, "item {item}");
        }
    }

    #[test]
    fn transpose_bytes_roundtrip_and_known_values() {
        // Byte `b` of word `i` holds 8i + b, so after the transpose byte `i` of word `b`
        // must hold 8i + b.
        let mut x: [u64; 8] =
            std::array::from_fn(|i| (0..8).map(|b| ((8 * i + b) as u64) << (8 * b)).sum());
        let original = x;
        transpose_bytes(&mut x);
        for (b, &word) in x.iter().enumerate() {
            for i in 0..8 {
                assert_eq!(
                    (word >> (8 * i)) & 0xFF,
                    (8 * i + b) as u64,
                    "word {b} byte {i}"
                );
            }
        }
        transpose_bytes(&mut x);
        assert_eq!(x, original);
    }

    #[test]
    fn restricted_build_answers_restricted_queries() {
        let db = sample_db();
        let idx = VerticalIndex::build_restricted(&db, &set(&[2, 4, 9]));
        assert_eq!(idx.items(), &[2, 4]);
        assert_eq!(idx.support(&set(&[2])), 4);
        assert_eq!(idx.support(&set(&[1])), 0); // 1 not indexed
    }

    #[test]
    fn project_matches_row_projection() {
        let db = sample_db();
        let idx = VerticalIndex::build(&db);
        let basis = set(&[1, 4]);
        let via_index = idx.project(&basis);
        assert_eq!(via_index.len(), db.len());
        assert_eq!(via_index.support(&set(&[1])), db.support(&set(&[1])));
        assert_eq!(via_index.support(&set(&[2])), 0);
        assert_eq!(via_index.num_distinct_items(), 2);
    }

    #[test]
    fn parallel_paths_match_sequential() {
        // The container running the tests may expose a single core, in which case the
        // threaded build/sweep would never execute; the in-process override forces them
        // on. Concurrently running tests seeing the override stay correct — both paths
        // produce identical bits — and, unlike std::env::set_var, an atomic store cannot
        // race libc getenv.
        //
        // Both row counts clear both parallel thresholds and end in a partial word. At a
        // budget of 4 the second cuts its 513 words into chunks of 129, 129, 129 and a
        // short last chunk of 126.
        for n in [
            PAR_MIN_BUILD_ROWS.max(64 * PAR_MIN_WORDS) + 77,
            64 * 513 - 13,
        ] {
            let transactions: Vec<Vec<u32>> = (0..n)
                .map(|t| {
                    (0..10u32)
                        .filter(|&j| (t * 31 + j as usize * 17).is_multiple_of(j as usize + 2))
                        .collect()
                })
                .collect();
            let db = TransactionDb::from_transactions(transactions);
            // The oracles: each item's bitmap set bit by bit, and each row's bin.
            let mut expected: Vec<Bitmap> = vec![Bitmap::zero(n); 10];
            let basis = set(&[0, 1, 2, 3, 4, 5]);
            let mut expected_bins = vec![0u64; 1 << basis.len()];
            for (tid, t) in db.iter().enumerate() {
                for item in t.iter() {
                    expected[item as usize].set(tid);
                }
                let bin = basis
                    .iter()
                    .enumerate()
                    .filter(|&(_, item)| t.contains(item))
                    .fold(0, |bin, (i, _)| bin | 1 << i);
                expected_bins[bin] += 1;
            }
            for threads in 1..=4 {
                super::set_parallelism_override(Some(threads));
                let index = VerticalIndex::build(&db);
                let bins = index.bin_histogram(&basis);
                super::set_parallelism_override(None);
                assert_eq!(index.items(), (0..10).collect::<Vec<u32>>());
                for (item, bitmap) in (0..10u32).zip(&expected) {
                    assert_eq!(
                        index.item_bitmap(item).unwrap(),
                        bitmap,
                        "bitmap of item {item}, {n} rows, budget {threads}"
                    );
                }
                assert_eq!(bins, expected_bins, "{n} rows, budget {threads}");
            }
        }
    }

    #[test]
    fn transpose8x8_roundtrip_and_known_values() {
        // Transposing twice is the identity.
        for x in [0u64, u64::MAX, 0x0123456789ABCDEF, 0x8040201008040201] {
            assert_eq!(transpose8x8(transpose8x8(x)), x);
        }
        // The identity matrix is its own transpose.
        assert_eq!(transpose8x8(0x8040201008040201), 0x8040201008040201);
        // Row 0 = all ones (byte 0 = 0xFF) transposes to column 0 (bit 0 of every byte).
        assert_eq!(transpose8x8(0xFF), 0x0101010101010101);
    }

    #[test]
    fn dense_blocks_take_the_transpose_path_and_agree() {
        // 250 transactions, every one intersecting the basis: forces the dense path on
        // all full blocks, for one, two and three byte planes; compare against a
        // brute-force partition.
        for ell in [8u32, 9, 16, 20] {
            let transactions: Vec<Vec<u32>> = (0..250)
                .map(|t| {
                    (0..ell)
                        .filter(|&j| ((t * 2654435761u64) >> j) & 1 == 1 || j == t as u32 % ell)
                        .collect()
                })
                .collect();
            let db = TransactionDb::from_transactions(transactions);
            let idx = VerticalIndex::build(&db);
            let basis = ItemSet::new((0..ell).collect());
            let bins = idx.bin_histogram(&basis);
            let mut expected = vec![0u64; 1 << ell];
            for t in db.iter() {
                let mut mask = 0usize;
                for (bit, &item) in basis.items().iter().enumerate() {
                    if t.contains(item) {
                        mask |= 1 << bit;
                    }
                }
                expected[mask] += 1;
            }
            assert_eq!(bins, expected, "ell {ell}");
            assert_eq!(bins.iter().sum::<u64>(), 250);
        }
    }

    #[test]
    fn empty_database_index() {
        let db = TransactionDb::from_transactions(Vec::<Vec<u32>>::new());
        let idx = VerticalIndex::build(&db);
        assert_eq!(idx.num_transactions(), 0);
        assert_eq!(idx.support(&set(&[1])), 0);
        assert_eq!(idx.support(&set(&[])), 0);
        assert_eq!(idx.bin_histogram(&set(&[1])), vec![0, 0]);
    }

    #[test]
    fn prefix_tables_are_built_per_class_and_guarded_by_size() {
        // Items 0..8 are frequent (item j in the rows where bit j % 2 of r % 4 is set:
        // three non-empty patterns); items 8..20 each appear in one row of their own, so
        // ranks 8..19 are the singletons and the class-16 table has 3 + 8 patterns.
        let mut rows: Vec<Vec<u32>> = (0..200u32)
            .map(|r| (0..8).filter(|&j| (r % 4) >> (j % 2) & 1 == 1).collect())
            .collect();
        for item in 8..20 {
            rows[item as usize * 7].push(item);
        }
        let db = TransactionDb::from_transactions(rows);
        let idx = VerticalIndex::build(&db);
        let tables =
            |idx: &VerticalIndex| idx.prefix.as_ref().expect("a whole index").tables.clone();
        let swept = |idx: &VerticalIndex, basis: &ItemSet| {
            idx.bin_histograms_swept(std::slice::from_ref(basis), 1)
                .remove(0)
        };

        // Nothing indexed to count, or an item ranked past 16: no table is built.
        assert_eq!(idx.bin_histogram(&set(&[])), vec![200]);
        assert_eq!(idx.bin_histogram(&set(&[99])), vec![200, 0]);
        assert_eq!(idx.pair_counts(&set(&[98, 99])).counts(), [0]);
        let wide = set(&[0, 19]);
        assert_eq!(idx.bin_histogram(&wide), swept(&idx, &wide));
        assert!(tables(&idx).iter().all(|t| t.get().is_none()));

        let narrow = set(&[0, 1, 2]);
        assert_eq!(idx.bin_histogram(&narrow), swept(&idx, &narrow));
        let eight = tables(&idx)[0].get().expect("class 8 built").clone();
        let eight = eight.expect("3 patterns over 200 rows is under the guard");
        assert_eq!((eight.patterns.len(), eight.covered), (3, 150));
        assert!(tables(&idx)[1].get().is_none(), "class 16 not needed yet");

        let sixteen = set(&[0, 15]);
        assert_eq!(idx.bin_histogram(&sixteen), swept(&idx, &sixteen));
        let table = tables(&idx)[1].get().expect("class 16 built").clone();
        assert_eq!(table.expect("under the guard").patterns.len(), 11);
        assert_eq!(
            idx.pair_counts(&set(&[0, 1, 15])),
            db.pair_counts(&set(&[0, 1, 15]))
        );

        // A restricted index keeps no tables and answers by the sweep.
        let restricted = VerticalIndex::build_restricted(&db, &narrow);
        assert!(restricted.prefix.is_none());
        assert_eq!(restricted.bin_histogram(&narrow), swept(&idx, &narrow));

        // Every row its own pattern: over the guard, so the class is stored as absent
        // and answers by the sweep.
        let distinct: Vec<Vec<u32>> = (0..64u32)
            .map(|r| (0..8).filter(|&j| r >> (j % 6) & 1 == 1).collect())
            .collect();
        let db = TransactionDb::from_transactions(distinct);
        let idx = VerticalIndex::build(&db);
        let basis = set(&[0, 1, 2, 3, 4, 5]);
        let bins = idx.bin_histogram(&basis);
        assert!(matches!(tables(&idx)[0].get(), Some(None)));
        assert_eq!(bins, swept(&idx, &basis));
        assert_eq!(idx.pair_counts(&basis), db.pair_counts(&basis));
    }
}
