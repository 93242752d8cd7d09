//! Regenerates **Figure 3**: the four uplink-density connection rules over
//! a 2×2×2 subgrid, printed as text — which nodes are uplinked and which
//! path each non-connected node uses to reach its uplink.

use exaflow::topo::{ConnectionRule, MixedRadix, UplinkMap};

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("fig3 takes no options");
        std::process::exit(2);
    }
    let shape = MixedRadix::new(&[2, 2, 2]);
    for rule in ConnectionRule::all() {
        let map = UplinkMap::new(&shape, rule);
        println!(
            "Density 1:{} (u = {}): {} of {} nodes uplinked",
            rule.u(),
            rule.u(),
            map.num_uplinks(),
            shape.len()
        );
        for local in 0..shape.len() as u32 {
            let c = shape.decode(local as u64);
            let target = map.target(local);
            if map.is_uplinked(local) {
                println!("  ({},{},{})  UPLINKED", c[0], c[1], c[2]);
            } else {
                let tc = shape.decode(target as u64);
                let hops: u32 = c.iter().zip(&tc).map(|(&a, &b)| a.abs_diff(b)).sum();
                println!(
                    "  ({},{},{})  -> ({},{},{})  [{} hop{}]",
                    c[0],
                    c[1],
                    c[2],
                    tc[0],
                    tc[1],
                    tc[2],
                    hops,
                    if hops == 1 { "" } else { "s" }
                );
            }
        }
        println!();
    }
}
