//! Property-based tests of the generator and the DEF round trip.

use proptest::prelude::*;
use vm1_netlist::generator::{DesignProfile, GeneratorConfig};
use vm1_netlist::io::{read_def, write_def};
use vm1_netlist::NetPin;
use vm1_place::{place, PlaceConfig};
use vm1_tech::{CellArch, Library, PinDir};

fn arch_from(idx: u8) -> CellArch {
    [CellArch::ClosedM1, CellArch::OpenM1, CellArch::Conv12T][idx as usize % 3]
}

/// Replacement tokens for the DEF fuzz test: keywords out of place,
/// numbers at the edges of `i64`, and malformed connections.
const FUZZ_TOKENS: [&str; 16] = [
    "",
    "0",
    "-1",
    "9223372036854775807",
    "-9223372036854775808",
    "99999999999999999999",
    "CORE",
    "INST",
    "NET",
    "PORT",
    "END",
    "FN",
    "FIXED",
    "P:",
    "I:u0",
    "I:nope:A",
];

/// Corrupts DEF `text` one way: `op` 0 truncates it at byte `a`, 1
/// replaces the `b`-th token of line `a` with `FUZZ_TOKENS[token]`, 2
/// swaps lines `a` and `b` (indices wrap around).
fn corrupt(text: &str, op: u8, a: usize, b: usize, token: usize) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let n = lines.len();
    match op {
        0 => return text[..a % (text.len() + 1)].to_owned(),
        1 => {
            let line = &mut lines[a % n];
            let mut toks: Vec<&str> = line.split_whitespace().collect();
            if !toks.is_empty() {
                let k = b % toks.len();
                toks[k] = FUZZ_TOKENS[token % FUZZ_TOKENS.len()];
            }
            *line = toks.join(" ");
        }
        _ => lines.swap(a % n, b % n),
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_designs_are_structurally_valid(
        a in 0u8..3,
        n in 50usize..400,
        ff in 0.05f64..0.25,
        util in 0.5f64..0.85,
        seed in 0u64..10_000,
    ) {
        let lib = Library::synthetic_7nm(arch_from(a));
        let mut cfg = GeneratorConfig::profile(DesignProfile::Aes)
            .with_insts(n)
            .with_utilization(util);
        cfg.ff_ratio = ff;
        let d = cfg.generate(&lib, seed);
        prop_assert!(d.validate_connectivity().is_ok());
        // Every net has exactly one driver.
        for (id, _) in d.nets() {
            prop_assert!(d.net_driver(id).is_some());
        }
        // Every signal input pin of every instance is connected.
        for (_, inst) in d.insts() {
            let cell = d.library().cell(inst.cell);
            for (k, pin) in cell.pins.iter().enumerate() {
                if pin.dir == PinDir::In {
                    prop_assert!(inst.pin_nets[k].is_some(), "dangling input");
                }
            }
        }
        // Core capacity is sufficient.
        prop_assert!(d.utilization() <= 1.0);
    }

    #[test]
    fn def_round_trip_is_lossless(
        a in 0u8..3,
        n in 50usize..250,
        seed in 0u64..10_000,
    ) {
        let arch = arch_from(a);
        let lib = Library::synthetic_7nm(arch);
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(n)
            .generate(&lib, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        let text = write_def(&d);
        let d2 = read_def(&text, &lib).expect("parse");
        prop_assert_eq!(d.num_insts(), d2.num_insts());
        prop_assert_eq!(d.num_nets(), d2.num_nets());
        prop_assert_eq!(d.total_hpwl(), d2.total_hpwl());
        for ((_, x), (_, y)) in d.insts().zip(d2.insts()) {
            prop_assert_eq!(x.site, y.site);
            prop_assert_eq!(x.row, y.row);
            prop_assert_eq!(x.orient, y.orient);
            prop_assert_eq!(x.cell, y.cell);
        }
        for ((_, x), (_, y)) in d.nets().zip(d2.nets()) {
            prop_assert_eq!(&x.pins, &y.pins);
        }
        // Second round trip is byte-identical (canonical form).
        prop_assert_eq!(text, write_def(&d2));
    }

    #[test]
    fn nets_have_at_most_one_port_driver(
        n in 50usize..200,
        seed in 0u64..10_000,
    ) {
        let lib = Library::synthetic_7nm(CellArch::ClosedM1);
        let d = GeneratorConfig::profile(DesignProfile::Jpeg)
            .with_insts(n)
            .generate(&lib, seed);
        for (_, net) in d.nets() {
            let drivers = net
                .pins
                .iter()
                .filter(|&&p| match p {
                    NetPin::Inst(pr) => d.macro_pin(pr).dir == PinDir::Out,
                    NetPin::Port(pid) => d.port(pid).dir == PinDir::In,
                })
                .count();
            prop_assert_eq!(drivers, 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn corrupted_def_is_an_error_never_a_panic(
        a in 0u8..3,
        seed in 0u64..10_000,
        op in 0u8..3,
        x in 0usize..1_000_000,
        y in 0usize..1_000_000,
        token in 0usize..FUZZ_TOKENS.len(),
    ) {
        let lib = Library::synthetic_7nm(arch_from(a));
        let mut d = GeneratorConfig::profile(DesignProfile::M0)
            .with_insts(20)
            .generate(&lib, seed);
        place(&mut d, &PlaceConfig::default(), seed);
        let text = corrupt(&write_def(&d), op, x, y, token);
        // `Ok` is fine too: a swap of two INST lines, say, is still a
        // valid file.
        let parsed = std::panic::catch_unwind(|| read_def(&text, &lib).map(|_| ()));
        prop_assert!(parsed.is_ok(), "read_def panicked on:\n{}", text);
    }
}
