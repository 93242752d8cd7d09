//! Property tests for [`MaxMinSolver`]: feasibility and max-min
//! saturation on arbitrary capacity/path sets — the definition, checked
//! directly rather than against a second solver — plus scale invariance
//! and cross-call reusability.

use exaflow_sim::maxmin::MaxMinSolver;
use proptest::prelude::*;

const RESOURCES: usize = 24;

/// Arbitrary loop-free paths over `RESOURCES` resources. Empty paths are
/// legal (unconstrained flows).
fn paths_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(
        prop::collection::vec(0u32..RESOURCES as u32, 0..6).prop_map(|mut p| {
            p.sort_unstable();
            p.dedup();
            p
        }),
        1..60,
    )
}

fn caps_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.5f64..500.0, RESOURCES)
}

fn solve(caps: &[f64], paths: &[Vec<u32>]) -> Vec<f64> {
    let mut solver = MaxMinSolver::new(caps.to_vec()).unwrap();
    let mut rates = vec![0.0; paths.len()];
    solver.solve(paths, &mut rates);
    rates
}

fn usage(caps: &[f64], paths: &[Vec<u32>], rates: &[f64]) -> Vec<f64> {
    let mut used = vec![0.0f64; caps.len()];
    for (f, p) in paths.iter().enumerate() {
        for &r in p {
            used[r as usize] += rates[f];
        }
    }
    used
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feasibility: no resource is allocated beyond its capacity.
    #[test]
    fn allocation_is_feasible(paths in paths_strategy(), caps in caps_strategy()) {
        let rates = solve(&caps, &paths);
        let used = usage(&caps, &paths, &rates);
        for (r, &u) in used.iter().enumerate() {
            prop_assert!(
                u <= caps[r] * (1.0 + 1e-9) + 1e-9,
                "resource {r}: used {u} > cap {}", caps[r]
            );
        }
    }

    /// Max-min saturation: no constrained flow can be increased — each
    /// crosses at least one saturated resource. Unconstrained (empty-path)
    /// flows get infinite rate; everything else is finite and non-negative.
    #[test]
    fn every_flow_is_bottlenecked(paths in paths_strategy(), caps in caps_strategy()) {
        let rates = solve(&caps, &paths);
        let used = usage(&caps, &paths, &rates);
        for (f, p) in paths.iter().enumerate() {
            if p.is_empty() {
                prop_assert!(rates[f].is_infinite());
                continue;
            }
            prop_assert!(rates[f].is_finite() && rates[f] >= 0.0);
            let saturated = p
                .iter()
                .any(|&r| used[r as usize] >= caps[r as usize] * (1.0 - 1e-6));
            prop_assert!(saturated, "flow {f} (rate {}) could be increased", rates[f]);
        }
    }

    /// Scale invariance: multiplying every capacity by λ multiplies every
    /// finite rate by λ (progressive filling is homogeneous of degree 1).
    #[test]
    fn allocation_scales_with_capacity(
        paths in paths_strategy(),
        caps in caps_strategy(),
        lambda in 0.1f64..50.0,
    ) {
        let base = solve(&caps, &paths);
        let scaled_caps: Vec<f64> = caps.iter().map(|c| c * lambda).collect();
        let scaled = solve(&scaled_caps, &paths);
        for (f, (&a, &b)) in base.iter().zip(&scaled).enumerate() {
            if a.is_infinite() {
                prop_assert!(b.is_infinite());
            } else {
                prop_assert!(
                    (b - a * lambda).abs() <= a.abs() * lambda * 1e-9 + 1e-9,
                    "flow {f}: {a} scaled by {lambda} gave {b}"
                );
            }
        }
    }

    /// The solver's scratch state is fully reset between calls: solving a
    /// different problem and then the original again reproduces the first
    /// answer exactly.
    #[test]
    fn solver_state_resets_between_calls(
        paths_a in paths_strategy(),
        paths_b in paths_strategy(),
        caps in caps_strategy(),
    ) {
        let mut solver = MaxMinSolver::new(caps.clone()).unwrap();
        let mut first = vec![0.0; paths_a.len()];
        solver.solve(&paths_a, &mut first);
        let mut other = vec![0.0; paths_b.len()];
        solver.solve(&paths_b, &mut other);
        let mut again = vec![0.0; paths_a.len()];
        solver.solve(&paths_a, &mut again);
        prop_assert_eq!(first, again);
    }
}
