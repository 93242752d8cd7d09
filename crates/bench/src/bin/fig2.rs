//! Regenerates **Figure 2**: Graphviz DOT drawings of the paper's four
//! example topologies —
//!
//! * (a) a 4×4×2 torus,
//! * (b) a torus nested in a generalised hypercube, NestGHC(t=2, u=8),
//! * (c) a 4-ary 2-tree,
//! * (d) a torus nested in a fattree, NestTree(t=2, u=8).
//!
//! DOT files are written to `figure2/` in the current directory; render
//! with `neato -Tpng figure2/<name>.dot`.

use exaflow::netgraph::dot::{to_dot, DotOptions};
use exaflow::prelude::*;
use exaflow::topo::ConnectionRule;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("fig2 takes no options");
        std::process::exit(2);
    }
    std::fs::create_dir_all("figure2").expect("create figure2/");

    let panels: Vec<(&str, Box<dyn Topology>)> = vec![
        ("a_torus_4x4x2", Box::new(Torus::new(&[4, 4, 2]))),
        (
            "b_nest_ghc_t2_u8",
            Box::new(Nested::new(
                UpperTierKind::GeneralizedHypercube,
                16,
                2,
                ConnectionRule::EighthNodes,
            )),
        ),
        ("c_4ary_2tree", Box::new(KAryTree::new(4, 2))),
        (
            "d_nest_tree_t2_u8",
            Box::new(Nested::new(
                UpperTierKind::Fattree,
                16,
                2,
                ConnectionRule::EighthNodes,
            )),
        ),
    ];

    for (name, topo) in panels {
        let opts = DotOptions {
            name: topo.name(),
            ..DotOptions::default()
        };
        let dot = to_dot(topo.network(), &opts);
        let path = format!("figure2/{name}.dot");
        std::fs::write(&path, &dot).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!(
            "{path}: {} — {} nodes, {} links",
            topo.name(),
            topo.network().num_nodes(),
            topo.network().num_links()
        );
    }
    println!("render with: neato -Tpng figure2/<name>.dot -o <name>.png");
}
