//! The UCSC axtChain "loose" gap-cost schedule.
//!
//! AXTCHAIN charges the gap between two chained blocks with a piecewise-
//! linear function of the target-side and query-side gap lengths; the
//! `-linearGap=loose` table (used by the paper, §V-E) is reproduced here
//! verbatim. Costs are interpolated between breakpoints and extrapolated
//! with the final slope beyond the table.

/// Breakpoint positions of the `loose` table.
const POSITIONS: [u64; 11] = [
    1, 2, 3, 11, 111, 2111, 12111, 32111, 72111, 152111, 252111,
];
/// One-sided gap costs (identical for target and query gaps in `loose`).
const ONE_SIDED: [u64; 11] = [
    325, 360, 400, 450, 600, 1100, 3600, 7600, 15600, 31600, 56600,
];
/// Double-sided gap costs.
const BOTH: [u64; 11] = [
    625, 660, 700, 750, 900, 1400, 4000, 8000, 16000, 32000, 57000,
];

/// The piecewise-linear gap cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LooseGapCost;

impl LooseGapCost {
    /// Cost of a gap of `dt` target bases and `dq` query bases between two
    /// chained blocks. Zero when both gaps are zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use chain::gapcost::LooseGapCost;
    ///
    /// let g = LooseGapCost;
    /// assert_eq!(g.cost(0, 0), 0);
    /// assert_eq!(g.cost(1, 0), 325);
    /// assert_eq!(g.cost(1, 1), 625); // double-sided gaps cost more
    /// assert!(g.cost(1000, 0) < g.cost(10_000, 0));
    /// ```
    pub fn cost(&self, dt: u64, dq: u64) -> u64 {
        match (dt, dq) {
            (0, 0) => 0,
            (t, 0) => interpolate(t, &ONE_SIDED),
            (0, q) => interpolate(q, &ONE_SIDED),
            (t, q) => interpolate(t.max(q), &BOTH),
        }
    }
}

/// Piecewise-linear interpolation over the breakpoint table.
fn interpolate(size: u64, costs: &[u64; 11]) -> u64 {
    debug_assert!(size >= 1);
    if size <= POSITIONS[0] {
        return costs[0];
    }
    for i in 1..POSITIONS.len() {
        if size <= POSITIONS[i] {
            let (x0, x1) = (POSITIONS[i - 1], POSITIONS[i]);
            let (y0, y1) = (costs[i - 1], costs[i]);
            return y0 + (y1 - y0) * (size - x0) / (x1 - x0);
        }
    }
    // Extrapolate with the last segment's slope.
    let n = POSITIONS.len();
    let slope_num = costs[n - 1] - costs[n - 2];
    let slope_den = POSITIONS[n - 1] - POSITIONS[n - 2];
    costs[n - 1] + (size - POSITIONS[n - 1]) * slope_num / slope_den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_breakpoints() {
        let g = LooseGapCost;
        assert_eq!(g.cost(1, 0), 325);
        assert_eq!(g.cost(0, 3), 400);
        assert_eq!(g.cost(111, 0), 600);
        assert_eq!(g.cost(2111, 2111), 1400);
    }

    #[test]
    fn interpolation_is_monotone() {
        let g = LooseGapCost;
        let mut prev = 0;
        for size in [1u64, 2, 5, 50, 500, 5_000, 50_000, 500_000, 5_000_000] {
            let c = g.cost(size, 0);
            assert!(c >= prev, "cost({size}) = {c} < {prev}");
            prev = c;
        }
    }

    #[test]
    fn double_sided_costs_more_than_single() {
        let g = LooseGapCost;
        for size in [1u64, 10, 100, 10_000] {
            assert!(g.cost(size, size) > g.cost(size, 0));
        }
    }

    #[test]
    fn extrapolation_beyond_table() {
        let g = LooseGapCost;
        let at_end = g.cost(252_111, 0);
        assert_eq!(at_end, 56_600);
        let beyond = g.cost(352_111, 0);
        // slope = (56600-31600)/(252111-152111) = 0.25 per base
        assert_eq!(beyond, 56_600 + 25_000);
    }

    #[test]
    fn sublinear_growth_tolerates_large_gaps() {
        // The defining property of "loose": huge gaps are affordable
        // relative to the alignment scores flanking them, so chains span
        // rearrangement-scale distances.
        let g = LooseGapCost;
        assert!(g.cost(100_000, 0) < 25_000);
    }
}
