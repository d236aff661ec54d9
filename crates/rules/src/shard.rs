//! Row-shard planning and the unified worker-count policy.
//!
//! A [`ShardPlan`] splits a view's rows into contiguous chunks so condition
//! statistics — all of which are weight sums — can be accumulated per shard
//! and reduced in **shard-index order**. The plan is a pure function of
//! `(n_rows, requested shard count)`: it never consults the machine, so the
//! same request yields the same chunk boundaries (and therefore the same
//! float-addition grouping and the same learned model) on any host with any
//! worker count. [`crate::search::find_best_condition`] accumulates through
//! the plan whether its statistics pass runs inline or on worker threads,
//! which is what makes the two bit-identical by construction rather than
//! by luck.
//!
//! [`worker_count`] is the one policy deciding how many worker threads a
//! search spawns, shared by the attribute-level and row-sharded paths —
//! the task count it caps against is `attributes × shards`.

use crate::search::PARALLEL_MIN_CELLS;

/// Rows per shard the automatic plan aims for. Chosen so a shard's partial
/// statistics stay cache-friendly while leaving enough shards to occupy a
/// large machine on KDD-scale (millions of rows) datasets.
pub const SHARD_TARGET_ROWS: usize = 65_536;

/// A deterministic split of `n_rows` contiguous rows into balanced chunks.
///
/// Shard `k` covers `[bounds(k).0, bounds(k).1)`; the first `n_rows %
/// n_shards` shards carry one extra row. Requests are clamped to
/// `[1, max(n_rows, 1)]` so no shard is ever empty (except the single shard
/// of an empty plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    n_rows: usize,
    n_shards: usize,
}

impl ShardPlan {
    /// Plan for `n_rows` with an explicit shard-count request; `None`
    /// keeps the whole view in one shard, which reproduces the unsharded
    /// scan's float arithmetic exactly. Sharding is therefore strictly
    /// opt-in: existing models cannot drift unless a caller asks for it.
    pub fn new(n_rows: usize, requested: Option<usize>) -> Self {
        let n_shards = match requested {
            Some(k) => k.clamp(1, n_rows.max(1)),
            None => 1,
        };
        ShardPlan { n_rows, n_shards }
    }

    /// Machine-independent automatic plan: `ceil(n_rows /`
    /// [`SHARD_TARGET_ROWS`]`)` shards, so views below the target keep a
    /// single shard (bit-identical to the unsharded scan) and larger ones
    /// scale with data size, never with core count.
    pub fn auto(n_rows: usize) -> Self {
        Self::new(n_rows, Some(n_rows.div_ceil(SHARD_TARGET_ROWS).max(1)))
    }

    /// Number of shards (always ≥ 1).
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Number of rows the plan covers.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Half-open row range `[lo, hi)` of shard `shard`.
    ///
    /// # Panics
    /// Panics if `shard >= n_shards`.
    pub fn bounds(&self, shard: usize) -> (usize, usize) {
        assert!(shard < self.n_shards, "shard {shard} out of range");
        let base = self.n_rows / self.n_shards;
        let rem = self.n_rows % self.n_shards;
        let lo = shard * base + shard.min(rem);
        (lo, lo + base + usize::from(shard < rem))
    }

    /// Iterator over all shard ranges in shard-index order.
    pub fn ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n_shards).map(|k| self.bounds(k))
    }
}

/// The single worker-count policy for condition search.
///
/// Returns how many worker threads to spawn for a search of `tasks`
/// independent units (`attributes × shards`) over `cells = rows ×
/// attributes`, given `available` hardware threads. A return of `1` means
/// the caller runs the search inline.
///
/// * `max_workers == Some(1)` (or a degenerate search with at most one
///   task) → inline;
/// * `max_workers == Some(k > 1)` forces worker threads even below the
///   cell threshold, with at least two workers so single-core hosts still
///   exercise the worker merge (thread-count sweeps rely on this);
/// * `max_workers == None` engages threads only when `cells` reaches
///   [`PARALLEL_MIN_CELLS`].
pub fn worker_count(
    max_workers: Option<usize>,
    cells: usize,
    tasks: usize,
    available: usize,
) -> usize {
    if tasks <= 1 {
        return 1;
    }
    match max_workers {
        Some(cap) if cap <= 1 => 1,
        Some(cap) => available.max(2).min(cap).min(tasks),
        None if cells >= PARALLEL_MIN_CELLS => available.max(1).min(tasks),
        None => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_one_shard() {
        let p = ShardPlan::new(1000, None);
        assert_eq!(p.n_shards(), 1);
        assert_eq!(p.bounds(0), (0, 1000));
    }

    #[test]
    fn ranges_partition_exactly_and_balance() {
        for n_rows in [0usize, 1, 7, 10, 65, 1000] {
            for k in [1usize, 2, 3, 4, 7, 16] {
                let p = ShardPlan::new(n_rows, Some(k));
                let mut expect_lo = 0;
                let mut sizes = Vec::new();
                for (lo, hi) in p.ranges() {
                    assert_eq!(lo, expect_lo, "contiguous at {n_rows}x{k}");
                    assert!(hi >= lo);
                    sizes.push(hi - lo);
                    expect_lo = hi;
                }
                assert_eq!(expect_lo, n_rows, "covers all rows at {n_rows}x{k}");
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "balanced at {n_rows}x{k}: {sizes:?}");
                if n_rows > 0 {
                    assert!(*min >= 1, "no empty shard at {n_rows}x{k}");
                }
            }
        }
    }

    #[test]
    fn requests_are_clamped_to_rows() {
        assert_eq!(ShardPlan::new(3, Some(10)).n_shards(), 3);
        assert_eq!(ShardPlan::new(0, Some(10)).n_shards(), 1);
        assert_eq!(ShardPlan::new(5, Some(0)).n_shards(), 1);
    }

    #[test]
    fn auto_plan_tracks_the_target_rows() {
        assert_eq!(ShardPlan::auto(0).n_shards(), 1);
        assert_eq!(ShardPlan::auto(SHARD_TARGET_ROWS).n_shards(), 1);
        assert_eq!(ShardPlan::auto(SHARD_TARGET_ROWS + 1).n_shards(), 2);
        assert_eq!(ShardPlan::auto(10 * SHARD_TARGET_ROWS).n_shards(), 10);
    }

    #[test]
    fn plan_is_machine_independent() {
        // Pure in its inputs: repeated construction gives the same bounds.
        let a = ShardPlan::new(1_000_003, Some(17));
        let b = ShardPlan::new(1_000_003, Some(17));
        assert_eq!(a, b);
        assert_eq!(
            a.ranges().collect::<Vec<_>>(),
            b.ranges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn inline_cases_return_one_worker() {
        // degenerate search: at most one task
        assert_eq!(worker_count(None, 1 << 20, 1, 8), 1);
        assert_eq!(worker_count(Some(8), 1 << 20, 0, 8), 1);
        // explicit one-worker cap
        assert_eq!(worker_count(Some(1), 1 << 20, 64, 8), 1);
        assert_eq!(worker_count(Some(0), 1 << 20, 64, 8), 1);
        // below the size threshold with no explicit cap
        assert_eq!(worker_count(None, 100, 64, 8), 1);
    }

    #[test]
    fn explicit_cap_forces_threads_below_the_threshold() {
        // Small search, cap 4, 8 hardware threads: threaded with 4 workers.
        assert_eq!(worker_count(Some(4), 100, 64, 8), 4);
        // A single-core host still gets the two-worker floor under a cap.
        assert_eq!(worker_count(Some(4), 100, 64, 1), 2);
        // Never more workers than tasks.
        assert_eq!(worker_count(Some(16), 1 << 20, 3, 8), 3);
    }

    #[test]
    fn default_heuristic_uses_available_parallelism() {
        // Above threshold: one worker per hardware thread, capped by tasks.
        assert_eq!(worker_count(None, PARALLEL_MIN_CELLS, 64, 8), 8);
        assert_eq!(worker_count(None, 1 << 20, 3, 8), 3);
        // Single core above the threshold stays inline.
        assert_eq!(worker_count(None, 1 << 20, 64, 1), 1);
    }
}
