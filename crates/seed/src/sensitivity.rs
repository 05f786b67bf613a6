//! Seed sensitivity estimation.
//!
//! D-SOFT's parameters (§III-B) trade sensitivity against computation;
//! the paper tunes them "to various points, including the one which
//! recovers every alignment in LASTZ". This module quantifies the seeding
//! side of that trade-off: the probability that a homologous region
//! yields at least one seed hit, analytically per position and by Monte
//! Carlo per region.

use crate::pattern::SeedPattern;
use genome::Sequence;
use rand::Rng;

/// Probability that a single position produces a seed hit, given the
/// per-base match probability `identity` and, among mismatches, the
/// fraction `transition_fraction` that are transitions.
///
/// With `allow_transition` the seed tolerates one transition at any
/// sampled position (Fig. 5b).
///
/// # Examples
///
/// ```
/// use seed::{pattern::SeedPattern, sensitivity::hit_probability};
///
/// let p = SeedPattern::lastz_default();
/// let exact = hit_probability(&p, 0.8, 2.0 / 3.0, false);
/// let with_tr = hit_probability(&p, 0.8, 2.0 / 3.0, true);
/// assert!(with_tr > 2.0 * exact); // transition tolerance buys a lot
/// ```
pub fn hit_probability(
    pattern: &SeedPattern,
    identity: f64,
    transition_fraction: f64,
    allow_transition: bool,
) -> f64 {
    assert!((0.0..=1.0).contains(&identity), "identity out of range");
    let w = pattern.weight() as f64;
    let p_match = identity;
    let p_transition = (1.0 - identity) * transition_fraction;
    let all_match = p_match.powf(w);
    if !allow_transition {
        return all_match;
    }
    all_match + w * p_match.powf(w - 1.0) * p_transition
}

/// Monte Carlo estimate of the probability that a homologous region of
/// `region_len` bases (uniform per-base identity, geometric indel spacing
/// of mean `indel_every`) produces at least one seed hit.
///
/// An indel terminates the current gap-free run; seeds cannot span runs.
#[allow(clippy::too_many_arguments)] // mirrors the model's parameter list
pub fn region_sensitivity<R: Rng + ?Sized>(
    pattern: &SeedPattern,
    identity: f64,
    transition_fraction: f64,
    allow_transition: bool,
    region_len: usize,
    indel_every: f64,
    trials: usize,
    rng: &mut R,
) -> f64 {
    assert!(trials > 0, "need at least one trial");
    let span = pattern.span();
    let mut hits = 0usize;
    for _ in 0..trials {
        // Lay out the region as a sequence of per-base events:
        // match / transition / transversion, with indel breakpoints.
        let mut run: Vec<u8> = Vec::with_capacity(region_len); // 0=match,1=ts,2=tv
        let mut found = false;
        let p_indel = if indel_every > 0.0 { 1.0 / indel_every } else { 0.0 };
        for _ in 0..region_len {
            if p_indel > 0.0 && rng.gen::<f64>() < p_indel {
                found |= run_has_hit(pattern, &run, allow_transition);
                run.clear();
                if found {
                    break;
                }
                continue;
            }
            let x: f64 = rng.gen();
            let event = if x < identity {
                0
            } else if x < identity + (1.0 - identity) * transition_fraction {
                1
            } else {
                2
            };
            run.push(event);
            // Early exit: check the window ending here.
            if run.len() >= span {
                let start = run.len() - span;
                if window_hits(pattern, &run[start..], allow_transition) {
                    found = true;
                    break;
                }
            }
        }
        if found {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

fn run_has_hit(pattern: &SeedPattern, run: &[u8], allow_transition: bool) -> bool {
    let span = pattern.span();
    if run.len() < span {
        return false;
    }
    (0..=run.len() - span).any(|s| window_hits(pattern, &run[s..s + span], allow_transition))
}

fn window_hits(pattern: &SeedPattern, window: &[u8], allow_transition: bool) -> bool {
    let mut transitions = 0;
    for &off in pattern.sampled_offsets() {
        match window[off] {
            0 => {}
            1 if allow_transition => {
                transitions += 1;
                if transitions > 1 {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

/// Empirical per-position hit check on real sequences, for validating the
/// model: whether the windows at `pos` of `a` and `b` seed-match.
pub fn sequences_hit(
    pattern: &SeedPattern,
    a: &Sequence,
    b: &Sequence,
    pos: usize,
    allow_transition: bool,
) -> bool {
    if allow_transition {
        let words = pattern.extract_with_transitions(a, pos);
        match pattern.extract(b, pos) {
            Some(bw) => words.contains(&bw),
            None => false,
        }
    } else {
        match (pattern.extract(a, pos), pattern.extract(b, pos)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn analytic_matches_intuition() {
        let p = SeedPattern::lastz_default();
        // Perfect identity: always hits.
        assert!((hit_probability(&p, 1.0, 0.67, false) - 1.0).abs() < 1e-12);
        assert!((hit_probability(&p, 1.0, 0.67, true) - 1.0).abs() < 1e-9);
        // Monotone in identity.
        let lo = hit_probability(&p, 0.6, 0.67, true);
        let hi = hit_probability(&p, 0.9, 0.67, true);
        assert!(hi > lo);
        // 0.8^12 ≈ 0.0687.
        let exact = hit_probability(&p, 0.8, 0.67, false);
        assert!((exact - 0.8f64.powi(12)).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_per_position() {
        // A region of exactly one span with no indels is one Bernoulli
        // trial of the per-position probability.
        let p = SeedPattern::exact(8);
        let mut rng = StdRng::seed_from_u64(1);
        let mc = region_sensitivity(&p, 0.85, 0.67, false, 8, 0.0, 20_000, &mut rng);
        let analytic = hit_probability(&p, 0.85, 0.67, false);
        assert!((mc - analytic).abs() < 0.02, "mc {mc} vs analytic {analytic}");
    }

    #[test]
    fn longer_regions_are_more_sensitive() {
        let p = SeedPattern::lastz_default();
        let mut rng = StdRng::seed_from_u64(2);
        let short = region_sensitivity(&p, 0.75, 0.67, true, 40, 50.0, 4_000, &mut rng);
        let long = region_sensitivity(&p, 0.75, 0.67, true, 400, 50.0, 4_000, &mut rng);
        assert!(long > short + 0.1, "short {short} long {long}");
    }

    #[test]
    fn dense_indels_reduce_sensitivity() {
        let p = SeedPattern::lastz_default();
        let mut rng = StdRng::seed_from_u64(3);
        // With indels every ~8 bp no 19-span window survives intact; with
        // indels every ~100 bp most regions seed. This is the Fig. 2
        // mechanism at the seeding stage.
        let sparse = region_sensitivity(&p, 0.7, 0.67, true, 150, 100.0, 4_000, &mut rng);
        let dense = region_sensitivity(&p, 0.7, 0.67, true, 150, 8.0, 4_000, &mut rng);
        assert!(sparse > dense + 0.3, "sparse {sparse} dense {dense}");
    }

    #[test]
    fn transition_tolerance_helps() {
        let p = SeedPattern::lastz_default();
        let mut rng = StdRng::seed_from_u64(4);
        let without = region_sensitivity(&p, 0.7, 0.67, false, 100, 60.0, 4_000, &mut rng);
        let with = region_sensitivity(&p, 0.7, 0.67, true, 100, 60.0, 4_000, &mut rng);
        assert!(with > without, "with {with} without {without}");
    }

    #[test]
    fn sequences_hit_validates_model_semantics() {
        let p = SeedPattern::exact(6);
        let a: Sequence = "ACGTAC".parse().unwrap();
        let exact: Sequence = "ACGTAC".parse().unwrap();
        let ts: Sequence = "GCGTAC".parse().unwrap(); // A→G transition
        let tv: Sequence = "CCGTAC".parse().unwrap(); // A→C transversion
        assert!(sequences_hit(&p, &a, &exact, 0, false));
        assert!(!sequences_hit(&p, &a, &ts, 0, false));
        assert!(sequences_hit(&p, &a, &ts, 0, true));
        assert!(!sequences_hit(&p, &a, &tv, 0, true));
    }
}
