//! TBLASTX-like translated search.
//!
//! Translates target and query in all reading frames, seeds on exact
//! amino-acid words, extends each hit with X-drop Smith-Waterman in
//! protein space, and maps results back to DNA coordinates — the tool the
//! paper uses to define its exon-recovery oracle (§V-E) and names as
//! Darwin-WGA's future extension (§IX: "TBLASTX-like search in the amino
//! acid space for protein-coding genes").

use crate::amino::{translate, AminoAcid, Frame, TranslatedFrame};
use crate::blosum::ProteinMatrix;
use genome::Sequence;
use std::collections::{BTreeMap, HashMap};

/// Parameters of the translated search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TblastxParams {
    /// Seed word length in residues (BLAST's default for proteins is 3;
    /// 4 keeps the laptop-scale hit count tractable).
    pub word_len: usize,
    /// X-drop for the gapless protein extension.
    pub xdrop: i32,
    /// Minimum alignment score to report (in BLOSUM62 units).
    pub min_score: i64,
    /// Search the query's reverse-complement frames too.
    pub both_strands: bool,
}

impl Default for TblastxParams {
    fn default() -> Self {
        TblastxParams {
            word_len: 4,
            xdrop: 20,
            min_score: 60,
            both_strands: false,
        }
    }
}

/// One translated hit mapped back to DNA coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslatedHit {
    /// Target frame.
    pub target_frame: Frame,
    /// Query frame.
    pub query_frame: Frame,
    /// Protein-space alignment score (BLOSUM62, gapless).
    pub score: i64,
    /// Residues aligned.
    pub residues: usize,
    /// Target DNA interval covered (forward-strand coordinates).
    pub target_dna: (usize, usize),
    /// Query DNA interval covered (forward-strand coordinates).
    pub query_dna: (usize, usize),
}

/// Runs a translated search of `query` against `target`.
///
/// Returns hits sorted by descending score; overlapping hits within the
/// same frame pair are merged (best kept).
///
/// # Examples
///
/// ```
/// use genome::Sequence;
/// use protein::search::{tblastx, TblastxParams};
///
/// // A conserved coding region: same peptide, synonymous third bases.
/// let t: Sequence = "ATGGCAGCTGAAGTTCGTGGTCATAAACTGATGCCTTGGTACGAC".parse()?;
/// let q: Sequence = "ATGGCTGCAGAGGTACGTGGACACAAGCTTATGCCATGGTATGAT".parse()?;
/// let hits = tblastx(&t, &q, &TblastxParams::default());
/// assert!(!hits.is_empty());
/// assert_eq!(hits[0].target_frame.offset, 0);
/// # Ok::<(), genome::ParseBaseError>(())
/// ```
pub fn tblastx(target: &Sequence, query: &Sequence, params: &TblastxParams) -> Vec<TranslatedHit> {
    let matrix = ProteinMatrix::blosum62();
    let target_frames: Vec<TranslatedFrame> = Frame::forward()
        .iter()
        .map(|&f| translate(target, f))
        .collect();
    let query_frame_list: Vec<Frame> = if params.both_strands {
        Frame::all().to_vec()
    } else {
        Frame::forward().to_vec()
    };

    // Index target words.
    let mut index: HashMap<u64, Vec<(u8, u32)>> = HashMap::new();
    for (fi, tf) in target_frames.iter().enumerate() {
        for pos in 0..tf.peptide.len().saturating_sub(params.word_len.saturating_sub(1)) {
            if let Some(word) = pack_word(&tf.peptide[pos..pos + params.word_len]) {
                index.entry(word).or_default().push((fi as u8, pos as u32));
            }
        }
    }

    let mut hits: Vec<TranslatedHit> = Vec::new();
    for qframe in query_frame_list {
        let qf = translate(query, qframe);
        // Per (target frame, diagonal) best hit to suppress duplicates.
        // BTreeMap so `into_values()` drains in key order: the final
        // stable sort then breaks score ties by (frame, diagonal) and
        // hit order never depends on hasher state.
        let mut best_on_diag: BTreeMap<(u8, i64), TranslatedHit> = BTreeMap::new();
        for qpos in 0..qf.peptide.len().saturating_sub(params.word_len.saturating_sub(1)) {
            let Some(word) = pack_word(&qf.peptide[qpos..qpos + params.word_len]) else {
                continue;
            };
            let Some(matches) = index.get(&word) else {
                continue;
            };
            for &(fi, tpos) in matches {
                let tf = &target_frames[fi as usize];
                let (score, t0, t1, q0, _q1) = extend_gapless(
                    &tf.peptide,
                    &qf.peptide,
                    tpos as usize,
                    qpos,
                    params.word_len,
                    &matrix,
                    params.xdrop,
                );
                if score < params.min_score {
                    continue;
                }
                let diag = tpos as i64 - qpos as i64;
                let key = (fi, diag);
                let residues = t1 - t0;
                let hit = TranslatedHit {
                    target_frame: tf.frame,
                    query_frame: qframe,
                    score,
                    residues,
                    target_dna: dna_span(tf, t0, t1),
                    query_dna: dna_span(&qf, q0, q0 + residues),
                };
                match best_on_diag.get(&key) {
                    Some(existing) if existing.score >= score => {}
                    _ => {
                        best_on_diag.insert(key, hit);
                    }
                }
            }
        }
        hits.extend(best_on_diag.into_values());
    }

    hits.sort_by_key(|h| std::cmp::Reverse(h.score));
    hits
}

/// DNA interval covered by peptide positions `[p0, p1)` of a frame,
/// normalised to forward-strand coordinates.
fn dna_span(frame: &TranslatedFrame, p0: usize, p1: usize) -> (usize, usize) {
    if p1 == p0 {
        let d = frame.dna_position(p0);
        return (d, d);
    }
    let a = frame.dna_position(p0);
    let b = frame.dna_position(p1 - 1);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (lo, hi + 3)
}

/// Packs a word of unambiguous residues into a `u64`; `None` when the
/// word contains a stop or X (those never seed).
fn pack_word(residues: &[AminoAcid]) -> Option<u64> {
    let mut word = 0u64;
    for &aa in residues {
        if matches!(aa, AminoAcid::Stop | AminoAcid::X) {
            return None;
        }
        word = word * 32 + aa.index() as u64;
    }
    Some(word)
}

/// Gapless X-drop extension in protein space around a seed word.
/// Returns `(score, t_start, t_end, q_start, q_end)` in peptide
/// coordinates.
fn extend_gapless(
    target: &[AminoAcid],
    query: &[AminoAcid],
    t0: usize,
    q0: usize,
    word_len: usize,
    matrix: &ProteinMatrix,
    xdrop: i32,
) -> (i64, usize, usize, usize, usize) {
    let mut score = 0i64;
    for k in 0..word_len {
        score += matrix.score(target[t0 + k], query[q0 + k]) as i64;
    }

    // Right.
    let (mut best_r, mut len_r, mut run) = (0i64, 0usize, 0i64);
    let (mut t, mut q) = (t0 + word_len, q0 + word_len);
    let mut steps = 0usize;
    while t < target.len() && q < query.len() {
        run += matrix.score(target[t], query[q]) as i64;
        steps += 1;
        if run > best_r {
            best_r = run;
            len_r = steps;
        }
        if run < best_r - xdrop as i64 {
            break;
        }
        t += 1;
        q += 1;
    }

    // Left.
    let (mut best_l, mut len_l, mut run) = (0i64, 0usize, 0i64);
    let (mut t, mut q) = (t0, q0);
    let mut steps = 0usize;
    while t > 0 && q > 0 {
        t -= 1;
        q -= 1;
        run += matrix.score(target[t], query[q]) as i64;
        steps += 1;
        if run > best_l {
            best_l = run;
            len_l = steps;
        }
        if run < best_l - xdrop as i64 {
            break;
        }
    }

    (
        score + best_r + best_l,
        t0 - len_l,
        t0 + word_len + len_r,
        q0 - len_l,
        q0 + word_len + len_r,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::markov::MarkovModel;
    use genome::Base;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a coding region whose third codon positions are randomised
    /// (synonymous-ish divergence): high protein identity, lower DNA
    /// identity.
    fn wobble_pair(codons: usize, rng: &mut StdRng) -> (Sequence, Sequence) {
        // Codons of the form NNC/NNT etc. — use 4-fold degenerate families
        // only (CT?, GT?, TC?, CC?, AC?, GC?, CG?, GG?) so any third base
        // is synonymous.
        const FAMILIES: [(Base, Base); 8] = [
            (Base::C, Base::T),
            (Base::G, Base::T),
            (Base::T, Base::C),
            (Base::C, Base::C),
            (Base::A, Base::C),
            (Base::G, Base::C),
            (Base::C, Base::G),
            (Base::G, Base::G),
        ];
        let mut t = Sequence::new();
        let mut q = Sequence::new();
        for _ in 0..codons {
            let (c1, c2) = FAMILIES[rng.gen_range(0..8)];
            t.push(c1);
            t.push(c2);
            t.push(Base::from_code(rng.gen_range(0..4)));
            q.push(c1);
            q.push(c2);
            q.push(Base::from_code(rng.gen_range(0..4)));
        }
        (t, q)
    }

    #[test]
    fn finds_wobble_diverged_coding_region() {
        let mut rng = StdRng::seed_from_u64(1);
        let (core_t, core_q) = wobble_pair(40, &mut rng);
        let model = MarkovModel::genome_like();
        let mut target = model.generate(300, &mut rng);
        let t_start = target.len();
        target.extend(core_t.iter());
        target.extend(model.generate(300, &mut rng).iter());
        let mut query = model.generate(200, &mut rng);
        query.extend(core_q.iter());
        query.extend(model.generate(200, &mut rng).iter());

        let hits = tblastx(&target, &query, &TblastxParams::default());
        assert!(!hits.is_empty(), "no translated hits found");
        let best = &hits[0];
        assert!(best.score >= 100, "score {}", best.score);
        // The hit must land on the coding region.
        assert!(best.target_dna.0 >= t_start.saturating_sub(30));
        assert!(best.target_dna.1 <= t_start + 120 + 30);
    }

    #[test]
    fn no_hits_between_unrelated_sequences() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = MarkovModel::genome_like();
        let a = model.generate(2_000, &mut rng);
        let b = model.generate(2_000, &mut rng);
        let hits = tblastx(&a, &b, &TblastxParams::default());
        assert!(hits.is_empty(), "{} spurious hits", hits.len());
    }

    #[test]
    fn detects_frame_shifted_homology() {
        // The same coding sequence embedded at offsets that differ by 1:
        // DNA-frame 0 of the target matches frame 1 of the query.
        let mut rng = StdRng::seed_from_u64(3);
        let (core, _) = wobble_pair(40, &mut rng);
        let model = MarkovModel::genome_like();
        let mut target = Sequence::new();
        target.extend(core.iter());
        let mut query = model.generate(1, &mut rng); // 1-base shift
        query.extend(core.iter());

        let hits = tblastx(&target, &query, &TblastxParams::default());
        assert!(!hits.is_empty());
        // The same homology is visible from every frame pair with a
        // constant relative shift of +1 (codon phase), e.g. (0,1), (1,2),
        // (2,0). The best hit must respect that phase.
        let best = &hits[0];
        assert_eq!(
            (best.query_frame.offset + 3 - best.target_frame.offset) % 3,
            1,
            "target frame {} query frame {}",
            best.target_frame.offset,
            best.query_frame.offset
        );
        assert!(!best.target_frame.reverse && !best.query_frame.reverse);
    }

    #[test]
    fn reverse_strand_found_when_enabled() {
        let mut rng = StdRng::seed_from_u64(4);
        let (core, _) = wobble_pair(40, &mut rng);
        let target = core.clone();
        let query = core.reverse_complement();
        let forward_only = tblastx(&target, &query, &TblastxParams::default());
        let both = tblastx(
            &target,
            &query,
            &TblastxParams {
                both_strands: true,
                ..TblastxParams::default()
            },
        );
        assert!(both.iter().any(|h| h.query_frame.reverse));
        assert!(both.first().map(|h| h.score).unwrap_or(0)
            > forward_only.first().map(|h| h.score).unwrap_or(0));
    }

    #[test]
    fn word_packing_rejects_stops() {
        use AminoAcid::*;
        assert!(pack_word(&[A, R, N, D]).is_some());
        assert!(pack_word(&[A, Stop, N, D]).is_none());
        assert!(pack_word(&[A, X, N, D]).is_none());
        assert_ne!(pack_word(&[A, R, N, D]), pack_word(&[R, A, N, D]));
    }
}
