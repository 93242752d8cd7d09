//! Topology explorer: structural properties of every network family in the
//! study — node/link counts, degrees, exact distance statistics — plus a
//! DOT rendering of a small instance of each.
//!
//! Run with: `cargo run --release --example topology_explorer`

use exaflow::netgraph::dot::to_dot;
use exaflow::netgraph::NetworkStats;
use exaflow::prelude::*;
use exaflow::topo::ConnectionRule;

fn main() {
    let topos: Vec<Box<dyn Topology>> = vec![
        Box::new(Torus::new(&[4, 4, 2])),
        Box::new(KAryTree::new(4, 2)),
        Box::new(GeneralizedHypercube::new(&[4, 4], 2)),
        Box::new(Nested::new(
            UpperTierKind::Fattree,
            8,
            2,
            ConnectionRule::QuarterNodes,
        )),
        Box::new(Nested::new(
            UpperTierKind::GeneralizedHypercube,
            8,
            2,
            ConnectionRule::HalfNodes,
        )),
    ];

    std::fs::create_dir_all("explorer_out").expect("create explorer_out/");
    for topo in &topos {
        let stats = NetworkStats::of(topo.network());
        let dist = distance_stats_exact(topo.as_ref());
        println!("{}", topo.name());
        println!("  {stats}");
        println!(
            "  avg distance {:.3}, diameter {}, histogram {:?}",
            dist.average, dist.diameter, dist.histogram
        );
        let file = format!(
            "explorer_out/{}.dot",
            topo.name()
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect::<String>()
        );
        std::fs::write(&file, to_dot(topo.network(), &topo.name())).expect("write dot");
        println!("  wrote {file}\n");
    }
}
