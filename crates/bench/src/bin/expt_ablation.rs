//! Ablation of the paper's §1.1 premise: both the detailed placer *and*
//! the router must comprehend vertical alignment to exploit direct
//! vertical M1 routing. 2×2 matrix on the aes-like ClosedM1 design.

use vm1_bench::env_cli;
use vm1_flow::experiments::expt_ablation;

fn main() {
    let cli = env_cli();
    println!("# Ablation: placer-awareness x router-awareness (aes_like, ClosedM1)");
    println!(
        "{:>14} {:>14} {:>8} {:>12} {:>8}",
        "placer-aware", "router-aware", "#dM1", "RWL(um)", "#via12"
    );
    for r in expt_ablation(cli.scale) {
        println!(
            "{:>14} {:>14} {:>8} {:>12.1} {:>8}",
            r.placer_aware, r.router_aware, r.dm1, r.rwl_um, r.via12
        );
    }
    println!();
    println!("# the aligning placer raises #dM1 and cuts RWL/#via12; router awareness barely moves either.");
}
