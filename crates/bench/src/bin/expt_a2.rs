//! ExptA-2 / Figure 6: sensitivity of routed wirelength and #dM1 to the
//! alignment weight α.

use vm1_bench::env_cli;
use vm1_flow::experiments::expt_a2;

fn main() {
    let cli = env_cli();
    for arch in cli.archs.list() {
        println!("# ExptA-2 (Figure 6): RWL and #dM1 vs alpha — {arch}");
        println!(
            "{:>8} {:>12} {:>10} {:>12}",
            "alpha", "RWL(um)", "#dM1", "alignments"
        );
        let rows = expt_a2(cli.scale, arch);
        for r in &rows {
            println!(
                "{:>8.0} {:>12.1} {:>10} {:>12}",
                r.alpha, r.rwl_um, r.dm1, r.alignments
            );
        }
        // Paper observations: #dM1 grows monotonically with α; RWL is
        // non-monotonic with a sweet spot at a mid α (1200 ClosedM1 /
        // 1000 OpenM1).
        let best = rows.iter().min_by(|a, b| a.rwl_um.total_cmp(&b.rwl_um));
        if let Some(b) = best {
            println!(
                "# best RWL at alpha = {} (paper: 1200 ClosedM1 / 1000 OpenM1)",
                b.alpha
            );
        }
        println!();
    }
}
