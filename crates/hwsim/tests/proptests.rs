//! Property-based validation of the cycle-level array simulations
//! against the software kernels.

use align::banded::banded_smith_waterman;
use align::xdrop::xdrop_tile;
use genome::{Base, GapPenalties, Sequence, SubstitutionMatrix};
use hwsim::bsw_array::BswTileGeometry;
use hwsim::rtl::simulate_bsw_tile;
use hwsim::rtl_gactx::simulate_gactx_tile;
use hwsim::systolic::ArrayConfig;
use proptest::prelude::*;

fn dna(min: usize, max: usize) -> impl Strategy<Value = Sequence> {
    prop::collection::vec(0u8..4, min..max)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

fn scoring() -> (SubstitutionMatrix, GapPenalties) {
    (SubstitutionMatrix::darwin_wga(), GapPenalties::darwin_wga())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bsw_rtl_equals_software_kernel(
        t in dna(8, 120),
        q in dna(8, 120),
        npe in 2usize..16,
        band in 2usize..24,
    ) {
        let (w, g) = scoring();
        let geometry = BswTileGeometry { tile_size: 128, band };
        let array = ArrayConfig { num_pe: npe, freq_hz: 1.0e8, tile_overhead_cycles: 0 };
        let sim = simulate_bsw_tile(&t.to_bases(), &q.to_bases(), &w, &g, &geometry, &array);
        let sw = banded_smith_waterman(&t.to_bases(), &q.to_bases(), &w, &g, band);
        prop_assert_eq!(sim.max_score, sw.max_score);
    }

    #[test]
    fn gactx_rtl_path_rescores_to_its_vmax(
        t in dna(8, 150),
        q in dna(8, 150),
        npe in 2usize..16,
    ) {
        let (w, g) = scoring();
        let array = ArrayConfig { num_pe: npe, freq_hz: 1.0e8, tile_overhead_cycles: 0 };
        let sim = simulate_gactx_tile(&t.to_bases(), &q.to_bases(), &w, &g, 9430, &array);
        let a = align::Alignment::new(0, 0, sim.cigar.clone(), sim.max_score);
        prop_assert!(a.validate(&t, &q).is_ok(), "{:?}", a.validate(&t, &q));
        prop_assert_eq!(sim.max_score, a.rescore(&t, &q, &w, &g));
    }

    #[test]
    fn gactx_rtl_never_beats_unpruned_software(
        t in dna(8, 120),
        q in dna(8, 120),
        y in 1000i64..20_000,
    ) {
        // Stripe-granular pruning is sandwiched between the row-granular
        // software kernel (below) and the unpruned kernel (above).
        let (w, g) = scoring();
        let array = ArrayConfig::fpga();
        let sim = simulate_gactx_tile(&t.to_bases(), &q.to_bases(), &w, &g, y, &array);
        let lower = xdrop_tile(&t.to_bases(), &q.to_bases(), &w, &g, y);
        let upper = xdrop_tile(&t.to_bases(), &q.to_bases(), &w, &g, i64::MAX / 8);
        prop_assert!(sim.max_score >= lower.max_score,
            "sim {} < software {}", sim.max_score, lower.max_score);
        prop_assert!(sim.max_score <= upper.max_score,
            "sim {} > unpruned {}", sim.max_score, upper.max_score);
    }

    #[test]
    fn bsw_rtl_cycles_scale_with_tile(
        npe in 2usize..32,
    ) {
        let (w, g) = scoring();
        let mut prev = 0u64;
        for tile in [64usize, 128, 256] {
            let geometry = BswTileGeometry { tile_size: tile, band: 8 };
            let array = ArrayConfig { num_pe: npe, freq_hz: 1.0e8, tile_overhead_cycles: 0 };
            let t: Sequence = (0..tile).map(|i| Base::from_code((i % 4) as u8)).collect();
            let sim = simulate_bsw_tile(&t.to_bases(), &t.to_bases(), &w, &g, &geometry, &array);
            prop_assert!(sim.cycles > prev);
            prev = sim.cycles;
        }
    }
}
