//! Shared resource-budget enforcement for both pipeline schedules.
//!
//! Both schedules — the one-thread pair loop
//! ([`crate::pipeline::run_pair`]) and the streaming dataflow executor
//! ([`crate::dataflow`]) — must degrade *identically* when a
//! [`crate::config::ResourceBudget`] trips: the golden-report and
//! fault-tolerance suites compare their outputs byte for byte. This
//! module is the single implementation of the clamp rules, consumed
//! through `stages::seed_lane`, so the truncation arithmetic and the
//! [`RunEvent::BudgetExceeded`] records cannot drift apart — and of how
//! a strand that is never held whole still keeps exactly the prefix
//! those rules name (`SmallestHits`).

use crate::config::{ResourceBudget, WgaParams};
use crate::report::{BudgetKind, RunEvent, StageKind};
use seed::SeedHit;
use std::time::Instant;

/// Result of clamping one strand's seed-hit list against the seed-hit
/// and filter-tile budgets: how many hits to keep (a prefix — hits
/// arrive in stable positional order, so truncation is deterministic)
/// and the budget events tripped along the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HitClamp {
    /// Number of leading hits that fit within the budgets.
    pub take: usize,
    /// One [`RunEvent::BudgetExceeded`] per tripped budget, in the order
    /// they were evaluated (seed hits, then filter tiles).
    pub events: Vec<RunEvent>,
}

/// Applies the seed-hit budget (per strand) and the filter-tile budget
/// (per pair, `tiles_used` consumed so far) to a strand's `hits`-long
/// hit list.
///
/// Both schedules pass the tiles *queued* for filtering so far — the
/// hits handed to a filter batch, whether or not a deadline or a failed
/// batch kept them from running — so a clamp never waits on filtering.
pub fn clamp_hit_count(params: &WgaParams, hits: usize, tiles_used: u64) -> HitClamp {
    let mut take = hits;
    let mut events = Vec::new();
    if let Some(limit) = params.budget.max_seed_hits {
        if take as u64 > limit {
            events.push(RunEvent::BudgetExceeded {
                budget: BudgetKind::SeedHits,
                stage: StageKind::Seeding,
                limit,
                observed: take as u64,
            });
            take = limit as usize;
        }
    }
    if let Some(limit) = params.budget.max_filter_tiles {
        // The tile budget spans both strands of the pair: only the tiles
        // not yet consumed remain available to this strand.
        let remaining = limit.saturating_sub(tiles_used);
        if take as u64 > remaining {
            events.push(RunEvent::BudgetExceeded {
                budget: BudgetKind::FilterTiles,
                stage: StageKind::Filtering,
                limit,
                observed: tiles_used + take as u64,
            });
            take = remaining as usize;
        }
    }
    HitClamp { take, events }
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
    /// Room for the most hits the budgets could let through with
    /// `tiles_used` filter tiles already spent.
    pub(crate) fn new(params: &WgaParams, tiles_used: u64) -> SmallestHits {
        let budget = &params.budget;
        let tiles_left = budget
            .max_filter_tiles
            .map(|limit| limit.saturating_sub(tiles_used));
        let cap = budget.max_seed_hits.into_iter().chain(tiles_left).min();
        let cap = cap.map_or(usize::MAX, |cap| usize::try_from(cap).unwrap_or(usize::MAX));
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

/// Builds the [`BudgetKind::Deadline`] event every executor records when
/// the per-pair wall-clock deadline interrupts a stage.
pub fn deadline_event(budget: &ResourceBudget, stage: StageKind, pair_start: Instant) -> RunEvent {
    RunEvent::BudgetExceeded {
        budget: BudgetKind::Deadline,
        stage,
        limit: budget.deadline.map_or(0, |d| d.as_millis() as u64),
        observed: pair_start.elapsed().as_millis() as u64,
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

    fn tripped(budget: BudgetKind, stage: StageKind, limit: u64, observed: u64) -> RunEvent {
        RunEvent::BudgetExceeded {
            budget,
            stage,
            limit,
            observed,
        }
    }

    #[test]
    fn unbounded_budget_keeps_everything() {
        let clamp = clamp_hit_count(&params_with(ResourceBudget::default()), 1000, 0);
        assert_eq!(clamp.take, 1000);
        assert!(clamp.events.is_empty());
    }

    #[test]
    fn seed_hit_budget_truncates_and_records() {
        let p = params_with(ResourceBudget {
            max_seed_hits: Some(25),
            ..ResourceBudget::default()
        });
        let clamp = clamp_hit_count(&p, 100, 0);
        assert_eq!(clamp.take, 25);
        let seeding = tripped(BudgetKind::SeedHits, StageKind::Seeding, 25, 100);
        assert_eq!(clamp.events, [seeding]);
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
        assert!(first.events.is_empty());
        let second = clamp_hit_count(&p, 40, 40);
        assert_eq!(second.take, 20);
        let filtering = tripped(BudgetKind::FilterTiles, StageKind::Filtering, 60, 80);
        assert_eq!(second.events, [filtering]);
    }

    #[test]
    fn both_budgets_trip_in_order() {
        let p = params_with(ResourceBudget {
            max_seed_hits: Some(50),
            max_filter_tiles: Some(30),
            ..ResourceBudget::default()
        });
        let clamp = clamp_hit_count(&p, 100, 0);
        assert_eq!(clamp.take, 30);
        let seeding = tripped(BudgetKind::SeedHits, StageKind::Seeding, 50, 100);
        let filtering = tripped(BudgetKind::FilterTiles, StageKind::Filtering, 30, 50);
        assert_eq!(clamp.events, [seeding, filtering]);
    }

    #[test]
    fn smallest_hits_keeps_the_clamped_prefix_in_bounded_memory() {
        let p = params_with(ResourceBudget {
            max_seed_hits: Some(10),
            max_filter_tiles: Some(12),
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

    #[test]
    fn deadline_event_reports_limit_and_elapsed() {
        let budget = ResourceBudget {
            deadline: Some(std::time::Duration::from_millis(7)),
            ..ResourceBudget::default()
        };
        let start = Instant::now() - std::time::Duration::from_millis(20);
        match deadline_event(&budget, StageKind::Extension, start) {
            RunEvent::BudgetExceeded {
                budget: BudgetKind::Deadline,
                stage: StageKind::Extension,
                limit,
                observed,
            } => {
                assert_eq!(limit, 7);
                assert!(observed >= 20);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
