//! Graphviz DOT export.
//!
//! Used by `exaflow reproduce fig2` to regenerate the paper's Figure 2
//! topology drawings (torus 4x4x2, 4-ary 2-tree, NestGHC(2,8), NestTree(2,8))
//! as renderable `.dot` files.

use crate::network::Network;
use std::fmt::Write as _;

/// Render `net` to an undirected Graphviz DOT graph named `name`.
///
/// Endpoints are drawn as circles labelled `e<i>`, switches as boxes
/// labelled `s<i>`. A pair of opposite links is emitted as one edge, kept in
/// its `src < dst` direction; a link without a reverse is emitted as is.
pub fn to_dot(net: &Network, name: &str) -> String {
    let mut out = String::new();
    writeln!(out, "graph {} {{", sanitize(name)).unwrap();
    writeln!(out, "  layout=neato;").unwrap();
    for node in net.node_ids() {
        let idx = node.index();
        let (label, shape) = if net.is_endpoint(node) {
            (format!("e{idx}"), "circle")
        } else {
            (format!("s{}", idx - net.num_endpoints()), "box")
        };
        writeln!(out, "  n{idx} [label=\"{label}\", shape={shape}];").unwrap();
    }
    for link in net.links() {
        if link.src > link.dst && net.find_link(link.dst, link.src).is_some() {
            continue;
        }
        writeln!(out, "  n{} -- n{};", link.src.index(), link.dst.index()).unwrap();
    }
    writeln!(out, "}}").unwrap();
    out
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if cleaned.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        format!("g{cleaned}")
    } else if cleaned.is_empty() {
        "g".to_owned()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    fn pair() -> Network {
        let mut b = NetworkBuilder::new();
        let e0 = b.add_endpoint();
        let s0 = b.add_switch();
        b.add_duplex(e0, s0);
        b.build()
    }

    #[test]
    fn merged_duplex_emits_single_edge() {
        let net = pair();
        let dot = to_dot(&net, "network");
        assert_eq!(dot.matches("n0 -- n1").count(), 1);
        assert!(dot.starts_with("graph network {"));
    }

    #[test]
    fn shapes_reflect_node_kind() {
        let net = pair();
        let dot = to_dot(&net, "network");
        assert!(dot.contains("shape=circle"));
        assert!(dot.contains("shape=box"));
    }

    #[test]
    fn name_sanitized() {
        assert_eq!(sanitize("4-ary 2-tree"), "g4_ary_2_tree".to_string());
        assert_eq!(sanitize("torus"), "torus".to_string());
        assert!(sanitize("4x").starts_with('g'));
        assert_eq!(sanitize(""), "g");
    }
}
