//! Shared resource-budget enforcement for both pipeline schedules.
//!
//! Both schedules — the one-thread pair loop
//! ([`crate::pipeline::run_pair`]) and the streaming dataflow executor
//! ([`crate::dataflow`]) — must degrade *identically* when a
//! [`crate::config::ResourceBudget`] trips: the golden-report and
//! fault-tolerance suites compare their outputs byte for byte. This
//! module is the single implementation of the filter-tile clamp,
//! consumed through `stages::seed_lane`, so the truncation arithmetic
//! and the [`RunEvent::BudgetExceeded`] record cannot drift apart — and
//! of how a strand that is never held whole still keeps exactly the
//! prefix that clamp names (`SmallestHits`).

use crate::config::WgaParams;
use crate::report::{BudgetKind, RunEvent};
use seed::SeedHit;

/// Result of clamping one strand's seed-hit list against the filter-tile
/// budget: how many hits to keep (a prefix — hits arrive in stable
/// positional order, so truncation is deterministic) and the budget
/// event, if it tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HitClamp {
    /// Number of leading hits that fit within the budget.
    pub take: usize,
    /// The [`RunEvent::BudgetExceeded`] of a tripped budget.
    pub event: Option<RunEvent>,
}

/// Applies the filter-tile budget (per pair, `tiles_used` consumed so
/// far) to a strand's `hits`-long hit list: each hit is one filter tile.
///
/// Both schedules pass the tiles *queued* for filtering so far — the
/// hits handed to a filter batch, whether or not a failed batch kept
/// them from running — so a clamp never waits on filtering.
pub fn clamp_hit_count(params: &WgaParams, hits: usize, tiles_used: u64) -> HitClamp {
    let mut clamp = HitClamp {
        take: hits,
        event: None,
    };
    if let Some(limit) = params.budget.max_filter_tiles {
        // The tile budget spans both strands of the pair: only the tiles
        // not yet consumed remain available to this strand.
        let remaining = limit.saturating_sub(tiles_used);
        if hits as u64 > remaining {
            clamp.event = Some(RunEvent::BudgetExceeded {
                budget: BudgetKind::FilterTiles,
                limit,
                observed: tiles_used + hits as u64,
            });
            clamp.take = remaining as usize;
        }
    }
    clamp
}

/// The `cap` smallest hits of a stream, and how many hits it had, in
/// O(`cap`) memory: what a budgeted strand keeps of its D-SOFT walk so
/// that [`clamp_hit_count`]'s prefix rule needs no strand-long list. The
/// buffer is cut back to its `cap` smallest whenever it reaches twice
/// that; hits arrive in any order (they are distinct, so the result does
/// not depend on it).
#[derive(Debug)]
pub(crate) struct SmallestHits {
    cap: usize,
    kept: Vec<SeedHit>,
    seen: usize,
}

impl SmallestHits {
    /// Room for the most hits the budget could let through with
    /// `tiles_used` filter tiles already spent.
    pub(crate) fn new(params: &WgaParams, tiles_used: u64) -> SmallestHits {
        let cap = params.budget.max_filter_tiles.map_or(usize::MAX, |limit| {
            usize::try_from(limit.saturating_sub(tiles_used)).unwrap_or(usize::MAX)
        });
        SmallestHits {
            cap,
            kept: Vec::new(),
            seen: 0,
        }
    }

    pub(crate) fn absorb(&mut self, hits: &[SeedHit]) {
        self.seen += hits.len();
        if self.cap == 0 {
            return;
        }
        for &hit in hits {
            self.kept.push(hit);
            if self.kept.len() >= self.cap.saturating_mul(2) {
                self.kept.select_nth_unstable(self.cap - 1);
                self.kept.truncate(self.cap);
            }
        }
    }

    /// The clamp of everything absorbed, and the hits it keeps in
    /// (target, query) order.
    pub(crate) fn finish(
        mut self,
        params: &WgaParams,
        tiles_used: u64,
    ) -> (HitClamp, Vec<SeedHit>) {
        let clamp = clamp_hit_count(params, self.seen, tiles_used);
        self.kept.sort_unstable();
        self.kept.truncate(clamp.take);
        (clamp, self.kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResourceBudget;

    fn params_with(budget: ResourceBudget) -> WgaParams {
        WgaParams {
            budget,
            ..WgaParams::darwin_wga()
        }
    }

    #[test]
    fn unbounded_budget_keeps_everything() {
        let clamp = clamp_hit_count(&params_with(ResourceBudget::default()), 1000, 0);
        assert_eq!(clamp.take, 1000);
        assert_eq!(clamp.event, None);
    }

    #[test]
    fn tile_budget_accounts_for_tiles_already_used() {
        let p = params_with(ResourceBudget {
            max_filter_tiles: Some(60),
            ..ResourceBudget::default()
        });
        // First strand takes the full 40; second strand only gets 20.
        let first = clamp_hit_count(&p, 40, 0);
        assert_eq!(first.take, 40);
        assert_eq!(first.event, None);
        let second = clamp_hit_count(&p, 40, 40);
        assert_eq!(second.take, 20);
        let filtering = RunEvent::BudgetExceeded {
            budget: BudgetKind::FilterTiles,
            limit: 60,
            observed: 80,
        };
        assert_eq!(second.event, Some(filtering));
    }

    #[test]
    fn smallest_hits_keeps_the_clamped_prefix_in_bounded_memory() {
        let p = params_with(ResourceBudget {
            max_filter_tiles: Some(10),
            ..ResourceBudget::default()
        });
        // 1000 distinct hits in a scrambled order, fed in uneven pieces.
        let hits: Vec<SeedHit> = (0..1000usize)
            .map(|i| SeedHit::new(i * 7919 % 1000, i))
            .collect();
        let mut sorted = hits.clone();
        sorted.sort_unstable();
        for tiles_used in [0, 5, 12] {
            let mut smallest = SmallestHits::new(&p, tiles_used);
            for piece in hits.chunks(37) {
                smallest.absorb(piece);
                assert!(smallest.kept.len() < 20);
            }
            let (clamp, kept) = smallest.finish(&p, tiles_used);
            assert_eq!(clamp, clamp_hit_count(&p, 1000, tiles_used));
            assert_eq!(kept, sorted[..clamp.take]);
        }
    }
}
