//! Property-based tests of placement legality and refinement invariants.

use proptest::prelude::*;
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::Design;
use vm1_place::{greedy_refine, place, scatter, PlaceConfig};
use vm1_tech::{CellArch, Library};

fn profile_from(idx: u8) -> DesignProfile {
    DesignProfile::ALL[idx as usize % DesignProfile::ALL.len()]
}

fn arch_from(idx: u8) -> CellArch {
    [CellArch::ClosedM1, CellArch::OpenM1, CellArch::Conv12T][idx as usize % 3]
}

fn generate(profile: DesignProfile, arch: CellArch, n: usize, util: f64, seed: u64) -> Design {
    let lib = Library::synthetic_7nm(arch);
    GeneratorConfig::profile(profile)
        .with_insts(n)
        .with_utilization(util)
        .generate(&lib, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn place_always_legal(
        p in 0u8..4,
        a in 0u8..3,
        n in 60usize..240,
        util in 0.5f64..0.85,
        seed in 0u64..1000,
    ) {
        let mut d = generate(profile_from(p), arch_from(a), n, util, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        prop_assert!(d.validate_placement().is_ok());
    }

    #[test]
    fn scatter_always_legal(
        n in 60usize..240,
        util in 0.5f64..0.9,
        seed in 0u64..1000,
    ) {
        let mut d = generate(DesignProfile::Aes, CellArch::ClosedM1, n, util, seed);
        scatter(&mut d, seed.wrapping_mul(31));
        prop_assert!(d.validate_placement().is_ok());
    }

    #[test]
    fn refine_never_worsens_and_stays_legal(
        n in 60usize..200,
        seed in 0u64..1000,
        disp in 1i64..5,
    ) {
        let mut d = generate(DesignProfile::Aes, CellArch::ClosedM1, n, 0.7, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        let stats = greedy_refine(&mut d, disp, 2);
        prop_assert!(stats.hpwl_after <= stats.hpwl_before);
        prop_assert!(d.validate_placement().is_ok());
    }
}
