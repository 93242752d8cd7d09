//! Pinned-artefact comparison shared by `golden.rs` and `tier2_scale.rs`:
//! load a checked-in JSON file and diff a recomputation against it at a
//! relative 1e-9 with a readable mismatch list.

use exaflow::prelude::*;
use exaflow::reproduce::{reproduce, Artefact};
use serde_json::Value;
use std::path::Path;

const REL_TOL: f64 = 1e-9;

pub fn load(name: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {} unreadable: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("golden file {name} is not JSON: {e}"))
}

pub fn numbers_match(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Recursively diff `got` against `want`, collecting human-readable
/// mismatch lines (`path: got X, pinned Y`).
fn diff(got: &Value, want: &Value, path: &str, out: &mut Vec<String>) {
    match (got, want) {
        (Value::Number(g), Value::Number(w)) => {
            let (g, w) = (g.as_f64(), w.as_f64());
            if !numbers_match(g, w) {
                out.push(format!("{path}: got {g:.17e}, pinned {w:.17e}"));
            }
        }
        (Value::Array(g), Value::Array(w)) => {
            if g.len() != w.len() {
                out.push(format!("{path}: length {} vs pinned {}", g.len(), w.len()));
                return;
            }
            for (i, (gi, wi)) in g.iter().zip(w).enumerate() {
                diff(gi, wi, &format!("{path}[{i}]"), out);
            }
        }
        (Value::Object(g), Value::Object(w)) => {
            for (key, gv) in g.iter() {
                match w.get(key) {
                    Some(wv) => diff(gv, wv, &format!("{path}.{key}"), out),
                    None => out.push(format!("{path}.{key}: not in pinned file")),
                }
            }
            for (key, _) in w.iter() {
                if g.get(key).is_none() {
                    out.push(format!("{path}.{key}: missing from recomputation"));
                }
            }
        }
        _ if got == want => {}
        _ => out.push(format!("{path}: got {got:?}, pinned {want:?}")),
    }
}

pub fn assert_matches_pinned(got: Value, want: &Value, what: &str) {
    let mut mismatches = Vec::new();
    diff(&got, want, what, &mut mismatches);
    assert!(
        mismatches.is_empty(),
        "{what} drifted from its golden file ({} mismatch(es)):\n  {}",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

/// Recompute Figure 4 (heavy workloads) and Figure 5 (light) at `scale`
/// as `exaflow reproduce` does and diff every panel of its JSON against
/// the pinned `[fig4, fig5]` files.
pub fn assert_figures_match(scale: SystemScale, [fig4, fig5]: [&str; 2], threads: Option<usize>) {
    for (file, artefact) in [(fig4, Artefact::Fig4), (fig5, Artefact::Fig5)] {
        let json = reproduce(artefact, scale, threads).unwrap().json.unwrap();
        assert_matches_pinned(serde_json::from_str(&json).unwrap(), &load(file), file);
    }
}
