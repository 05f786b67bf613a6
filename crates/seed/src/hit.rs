//! Seed hits and anchors shared between pipeline stages.

/// A seed hit: a spaced-seed match between target and query.
///
/// Eight bytes, positions as the seed table stores them: a strand's hit
/// list grows with the product of the two lengths, and every filter
/// batch carries its share of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeedHit {
    /// Target position of the seed window start.
    pub target_pos: u32,
    /// Query position of the seed window start.
    pub query_pos: u32,
}

impl SeedHit {
    /// Creates a seed hit. A position past `u32::MAX` saturates there:
    /// the pipeline rejects a chromosome that long before it seeds.
    pub fn new(target_pos: usize, query_pos: usize) -> SeedHit {
        let clamp = |pos: usize| u32::try_from(pos).unwrap_or(u32::MAX);
        SeedHit {
            target_pos: clamp(target_pos),
            query_pos: clamp(query_pos),
        }
    }

    /// The hit's diagonal (`target - query`), which is constant along a
    /// gap-free alignment.
    pub fn diagonal(&self) -> i64 {
        i64::from(self.target_pos) - i64::from(self.query_pos)
    }
}

/// An anchor produced by the filtering stage: the position of the filter
/// tile's maximum score, from which the extension stage starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Anchor {
    /// Target coordinate.
    pub target_pos: usize,
    /// Query coordinate.
    pub query_pos: usize,
    /// Filter score that qualified this anchor.
    pub filter_score: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal() {
        assert_eq!(SeedHit::new(10, 4).diagonal(), 6);
        assert_eq!(SeedHit::new(4, 10).diagonal(), -6);
    }
}
