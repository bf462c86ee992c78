//! Shared fixtures for the `DistOpt` round benchmark (the
//! `bench_distopt_sched` binary that produces the checked-in
//! `BENCH_distopt_sched.json`).

use vm1_core::{DistOptParams, Vm1Config};
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::Design;
use vm1_place::{place, PlaceConfig};
use vm1_tech::{CellArch, Library};

/// A placed ClosedM1 benchmark design of `n` instances (AES profile,
/// fixed seed).
#[must_use]
pub fn bench_design(n: usize) -> Design {
    let lib = Library::synthetic_7nm(CellArch::ClosedM1);
    let mut d = GeneratorConfig::profile(DesignProfile::Aes)
        .with_insts(n)
        .generate(&lib, 7);
    place(&mut d, &PlaceConfig::default(), 7);
    d
}

/// Pass parameters on a 10×10 window grid, so every round holds several
/// windows to spread over the workers.
#[must_use]
pub fn bench_params(d: &Design) -> DistOptParams {
    DistOptParams {
        tx: 0,
        ty: 0,
        bw_sites: (d.sites_per_row / 10).max(10),
        bh_rows: (d.num_rows / 10).max(2),
        lx: 3,
        ly: 1,
        flip: false,
    }
}

/// The benchmark configuration for a thread count (cache off so every
/// pass does identical full work).
#[must_use]
pub fn bench_config(threads: usize) -> Vm1Config {
    let mut cfg = Vm1Config::closedm1().with_threads(threads);
    cfg.smart_window_selection = false;
    cfg
}

/// Order-sensitive digest of a placement, for cross-config bit-identity
/// checks in the benchmark artifacts.
#[must_use]
pub fn placement_digest(d: &Design) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (_, i) in d.insts() {
        for v in [
            i.site as u64,
            i.row as u64,
            u64::from(i.orient.is_flipped()),
        ] {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm1_core::Vm1Optimizer;

    #[test]
    fn fixtures_are_deterministic_and_thread_counts_agree() {
        let base = bench_design(400);
        let p = bench_params(&base);
        let mut digests = Vec::new();
        for threads in [1, 2, 4] {
            let mut d = base.clone();
            let stats = Vm1Optimizer::new(bench_config(threads)).run_pass(&mut d, &p);
            assert!(stats.rounds > 0);
            digests.push(placement_digest(&d));
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "the thread count must not change the result"
        );
    }
}
