//! Tier-2 full-scale regression tests.
//!
//! Every test here is `#[ignore]`-gated: tier-1 CI never builds a
//! 131,072-QFDB network. The dedicated `tier2` CI job runs them with
//! `cargo test --release -- --ignored` under a hard timeout, pinning the
//! scale trend that EXPERIMENTS.md previously only argued for: the torus
//! average distance grows with the system while the fattree's stays ~6,
//! so at paper scale the gap is the paper's headline 40-vs-6.
//!
//! Sampled statistics come from the stratified estimator seeded per spec
//! fingerprint (`exaflow analyze`'s engine), so the measured numbers are
//! reproducible bit for bit across machines and runs; since the paper's
//! families count their distances by equidistant class, the *exact*
//! all-sources Table 1 at 131,072 QFDBs is checked here too — against the
//! closed forms, against the estimator's confidence interval, and cell by
//! cell against the checked-in `table1_results.json`.
//!
//! The file also holds the first *simulated* workload at paper scale:
//! Reduce at 131,072 tasks (one event per phase, so the event count allows
//! it), a solver-bound random panel, Bisection at 8,192 QFDBs, and the
//! fattree AllReduce at 16,384 QFDBs, 31,474 events of solver churn. Those
//! runs carry a `max_wall_s` budget, so a regression of the engine's
//! batch bookkeeping or of the water-fill is a typed `DeadlineExceeded`,
//! not a hung job. The `tier2` CI job runs this whole file with
//! `--ignored`; new tests here need no workflow change.

use exaflow::prelude::*;
use exaflow::sim::FlowId;
use std::time::Instant;

mod common;

fn sampled(scale: SystemScale, spec: &TopologySpec, sources: usize) -> DistanceStats {
    let report = analyze_distances(
        scale,
        std::slice::from_ref(spec),
        SourceBudget::Sample(sources),
        0, // auto threads; statistics are thread-invariant
    )
    .expect("analysis at scale");
    report.rows.into_iter().next().unwrap().stats
}

/// At 16,384 QFDBs (the smallest "large" scale) the torus average distance
/// already dwarfs the fattree's: ≈ 20 hops vs ≈ 6.
#[test]
#[ignore = "tier-2 full-scale sweep; run with --ignored in the tier2 CI job"]
fn torus_average_distance_dwarfs_fattree_at_16k() {
    let scale = SystemScale::new(16_384).unwrap();
    assert_eq!(scale.torus_dims(), [32, 32, 16]);
    let torus = sampled(scale, &scale.torus_spec(), 256);
    let fattree = sampled(scale, &scale.fattree_spec(), 256);
    assert!(
        torus.average > 3.0 * fattree.average,
        "torus {} vs fattree {}",
        torus.average,
        fattree.average
    );
    // Closed-form checks: a 32x32x16 torus averages 20 (diameter 40); any
    // 3-stage fattree has diameter 6.
    let torus_ref = Torus::new(&scale.torus_dims()).average_distance();
    assert!(
        (torus.average - torus_ref).abs() < 0.01,
        "{}",
        torus.average
    );
    assert_eq!(torus.diameter, 40);
    assert_eq!(fattree.diameter, 6);
}

/// Table 1 at the paper's own 131,072-QFDB scale: sampled torus / fattree
/// averages bracket the paper's reported values within the estimator's
/// confidence interval plus the paper's own rounding precision (Table 1
/// prints "40" and "5.94").
#[test]
#[ignore = "tier-2 full-scale sweep; run with --ignored in the tier2 CI job"]
fn paper_scale_table1_within_confidence() {
    let scale = SystemScale::PAPER;
    assert_eq!(scale.torus_dims(), [64, 64, 32]);

    let torus = sampled(scale, &scale.torus_spec(), 512);
    let torus_ci = torus.confidence_95.expect("sampled run reports a CI");
    // The torus is vertex-transitive, so the sampled mean equals the exact
    // closed form and the CI collapses to rounding noise.
    let torus_ref = Torus::new(&scale.torus_dims()).average_distance();
    assert!(
        (torus.average - torus_ref).abs() <= torus_ci + 1e-9,
        "sampled {} vs closed form {torus_ref} (CI {torus_ci})",
        torus.average
    );
    // Paper Table 1 prints the torus average as "40" (integer precision).
    assert!(
        (torus.average - 40.0).abs() <= torus_ci + 0.5,
        "sampled {} vs paper 40",
        torus.average
    );
    assert_eq!(torus.diameter, 80, "paper torus diameter");

    let fattree = sampled(scale, &scale.fattree_spec(), 512);
    let fattree_ci = fattree.confidence_95.expect("sampled run reports a CI");
    // Paper Table 1 prints 5.94 for a fully-populated 64-ary 3-tree; our
    // right-sized 51-ary tree with 131,072 of 132,651 ports populated sits
    // within a few hundredths of that, so allow the CI plus that modelling
    // difference.
    assert!(
        (fattree.average - 5.94).abs() <= fattree_ci + 0.05,
        "sampled {} vs paper 5.94 (CI {fattree_ci})",
        fattree.average
    );
    assert_eq!(fattree.diameter, 6, "any 3-stage fattree has diameter 6");

    // The headline gap: ~6.7x longer average paths on the torus.
    assert!(
        torus.average > 6.0 * fattree.average,
        "torus {} vs fattree {}",
        torus.average,
        fattree.average
    );
}

/// Table 1 at 131,072 QFDBs swept over all sources: the exact rows meet
/// the closed forms where one exists, and the 64-source stratified
/// estimate — what `exaflow analyze` prints by default — brackets the
/// exact average inside its own 95 % interval wherever sources differ.
#[test]
#[ignore = "tier-2 full-scale sweep; run with --ignored in the tier2 CI job"]
fn paper_scale_table1_is_exact() {
    let scale = SystemScale::PAPER;
    let specs = table1_specs(scale, true).unwrap();
    let started = Instant::now();
    let exact = analyze_distances(scale, &specs, SourceBudget::All, 1).unwrap();
    let wall = started.elapsed().as_secs_f64();
    eprintln!("exact Table 1 baselines + hybrids at 131,072 QFDBs in {wall:.2} s on one thread");
    assert!(wall < 60.0, "exact sweep took {wall:.1} s");

    let e = scale.qfdbs;
    for row in &exact.rows {
        assert!(row.stats.exact, "{}", row.topology);
        assert_eq!(row.stats.sources_measured, 131_072, "{}", row.topology);
        assert_eq!(row.stats.confidence_95, None, "{}", row.topology);
        let pairs: u64 = row.stats.histogram.iter().sum();
        assert_eq!(pairs, e * (e - 1), "{}", row.topology);
    }
    let diameters: Vec<u32> = exact.rows.iter().map(|r| r.stats.diameter).collect();
    assert_eq!(diameters, [80, 6, 8, 8]);

    let torus_ref = Torus::new(&scale.torus_dims()).average_distance();
    assert!((exact.rows[0].stats.average - torus_ref).abs() < 1e-9);
    let TopologySpec::Fattree { k, n, .. } = specs[1] else {
        panic!("second Table 1 baseline is the fattree");
    };
    let fattree_ref = KAryTree::with_endpoints(k, n, e as usize).average_distance();
    assert!((exact.rows[1].stats.average - fattree_ref).abs() < 1e-9);

    // The torus is vertex-transitive (its interval is rounding noise), so
    // the estimator is only on trial on the other three.
    let sampled = analyze_distances(scale, &specs[1..], SourceBudget::Sample(64), 1).unwrap();
    for (estimate, truth) in sampled.rows.iter().zip(&exact.rows[1..]) {
        let half_width = estimate
            .stats
            .confidence_95
            .expect("sampled run reports a CI");
        assert!(
            (estimate.stats.average - truth.stats.average).abs() <= half_width,
            "{}: estimate {} ± {half_width} misses the exact {}",
            truth.topology,
            estimate.stats.average,
            truth.stats.average
        );
    }
}

/// Every cell of the checked-in Table 1 (`table1_results.json`, written by
/// `exaflow reproduce table1`) is the exact all-sources value: the rows
/// `reproduce` computes match it field for field. Tier-1 pins row (2,8)
/// (`tests/golden.rs`); the whole grid lives here.
#[test]
#[ignore = "tier-2 full-scale sweep; run with --ignored in the tier2 CI job"]
fn paper_scale_table1_grid_matches_pinned() {
    let threads = exaflow::analysis::default_threads();
    let started = Instant::now();
    let (rows, _) = exaflow::reproduce::table1(SystemScale::PAPER, threads).unwrap();
    eprintln!(
        "exact Table 1 grid in {:.3} s on {threads} threads",
        started.elapsed().as_secs_f64()
    );
    let pinned = common::load("table1_results.json");
    common::assert_matches_pinned(serde_json::to_value(&rows).unwrap(), &pinned, "table1");
}

/// Every NestGHC(t,u) of Table 1 at 131,072 QFDBs counts, from 16 sources
/// at a fixed stride, the histogram and hop total that one `distance` per
/// pair tallies: the class counting at the upper tier's real shapes (up to
/// 9,000 routers of 16 ports), not only at test sizes.
#[test]
#[ignore = "tier-2 full-scale sweep; run with --ignored in the tier2 CI job"]
fn paper_scale_nestghc_histograms_match_the_pair_loop() {
    let scale = SystemScale::PAPER;
    for (t, u) in exaflow::presets::hybrid_grid() {
        let Ok(spec) = scale.nested_spec(UpperTierKind::GeneralizedHypercube, t, u) else {
            continue;
        };
        let topo = spec.build().unwrap();
        let e = topo.num_endpoints() as u32;
        let slots = topo.diameter_bound() as usize + 1;
        // A stride one short of e/16 moves each source to another offset
        // in its subtorus and another port of its router.
        for src in (0..16).map(|i| NodeId(i * (e / 16 - 1))) {
            let (mut counted, mut looped) = (vec![0u64; slots], vec![0u64; slots]);
            let counted_hops = topo.distance_histogram(src, &mut counted);
            let mut looped_hops = 0u64;
            for dst in (0..e).filter(|&d| d != src.0).map(NodeId) {
                let d = topo.distance(src, dst);
                looped[d as usize] += 1;
                looped_hops += d as u64;
            }
            let what = format!("{} from {src}", topo.name());
            assert_eq!((counted, counted_hops), (looped, looped_hops), "{what}");
        }
    }
}

/// The whole Fig 4 + Fig 5 grid at the 2,048-QFDB simulation scale (11
/// panels × 26 topologies) against the checked-in `fig{4,5}_results.json`,
/// so a stale figure artefact is a red test. Tier-1 pins all eleven panels
/// at 128 QFDBs (`tests/golden.rs`).
#[test]
#[ignore = "tier-2 figure grid; run with --ignored in the tier2 CI job"]
fn fig45_grid_at_2048_qfdbs_matches_pinned() {
    let files = ["fig4_results.json", "fig5_results.json"];
    common::assert_figures_match(SystemScale::DEFAULT_SIM, files, None);
}

/// The frontier-bitset BFS kernel agrees with the analytic routing at
/// scale: DOR on the torus is minimal, so physical shortest-path
/// statistics over a stratified source sample are identical to the
/// route-based statistics over the same sources.
#[test]
#[ignore = "tier-2 full-scale BFS; run with --ignored in the tier2 CI job"]
fn bfs_kernel_matches_routing_at_16k() {
    let scale = SystemScale::new(16_384).unwrap();
    let topo = scale.torus_spec().build().unwrap();
    let seed = spec_seed(&scale.torus_spec());
    let sources = stratified_sources(topo.num_endpoints(), 64, seed);
    let nodes: Vec<NodeId> = sources.iter().map(|&s| NodeId(s)).collect();
    let physical = physical_distance_sweep(topo.as_ref(), &nodes, 0);

    let routed = {
        let report =
            analyze_distances(scale, &[scale.torus_spec()], SourceBudget::Sample(64), 0).unwrap();
        report.rows.into_iter().next().unwrap().stats
    };
    assert_eq!(physical.histogram, routed.histogram, "DOR is minimal");
    assert_eq!(physical.average.to_bits(), routed.average.to_bits());
    assert_eq!(physical.diameter, routed.diameter);
}

/// Engine config for the paper-scale runs: defaults plus the deadline.
fn deadline_cfg() -> SimConfig {
    SimConfig {
        max_wall_s: Some(60.0),
        ..SimConfig::default()
    }
}

/// Reduce at the paper's 131,072 tasks on the torus and the fattree: the
/// paper's topology-insensitive collective, serialised at the root's
/// consumption port — 131,071 messages of 64 KiB through one 10 Gbps port
/// whatever lies between.
#[test]
#[ignore = "tier-2 paper-scale simulation; run with --ignored in the tier2 CI job"]
fn paper_scale_reduce_is_topology_insensitive() {
    let scale = SystemScale::PAPER;
    let n = scale.qfdbs as usize;
    let workload = WorkloadSpec::Reduce {
        tasks: n,
        bytes: 64 << 10,
    };
    let expect = (n - 1) as f64 * (64u64 << 10) as f64 * 8.0 / exaflow::topo::LINK_RATE_BPS;
    for spec in [scale.torus_spec(), scale.fattree_spec()] {
        let topo = spec.build().unwrap();
        let dag = workload.generate(&TaskMapping::linear(n, topo.num_endpoints()));
        let started = Instant::now();
        let report = Simulator::with_config(topo.as_ref(), deadline_cfg())
            .run(&dag)
            .unwrap_or_else(|e| panic!("{}: {e}", topo.name()));
        eprintln!(
            "{}: Reduce at {n} tasks in {:.2} s of wall",
            topo.name(),
            started.elapsed().as_secs_f64()
        );
        assert_eq!(report.flows, n as u64 - 1);
        assert_eq!(report.events, 1, "{}", topo.name());
        assert!(
            (report.makespan_seconds - expect).abs() / expect < 1e-9,
            "{}: {} vs {expect}",
            topo.name(),
            report.makespan_seconds
        );
    }
}

/// Bisection, 4 rounds, at 8,192 QFDBs on the 32×16×16 torus: a random
/// panel of Fig 4/5 one rung below the 16,384-QFDB grid, bound by the
/// max-min solver (25,536 completion events, each a merged pass). On a
/// 2-core box it takes 1.8 s alone; with a dirty-region BFS gating the
/// merge it took 16 s, with a merged pass that walks every live entry
/// 43 s, and with no merge replay (`maxmin` module docs) 175 s, the last
/// two past this budget.
#[test]
#[ignore = "tier-2 paper-scale simulation; run with --ignored in the tier2 CI job"]
fn bisection_at_8192_qfdbs_finishes_inside_its_budget() {
    let mut cfg: ExperimentConfig = serde_json::from_str(
        r#"{"topology": {"topology": "torus", "dims": [32, 16, 16]},
            "workload": {"workload": "bisection", "tasks": 8192, "rounds": 4,
                         "bytes": 1048576, "seed": 1},
            "mapping": {"mapping": "linear"}}"#,
    )
    .unwrap();
    cfg.sim.max_wall_s = Some(40.0);
    let started = Instant::now();
    let result = run_experiment(&cfg).unwrap_or_else(|e| panic!("Bisection at 8,192: {e}"));
    eprintln!(
        "Bisection x4 at 8,192 QFDBs on the torus in {:.1} s of wall",
        started.elapsed().as_secs_f64()
    );
    assert_eq!(result.events, 25_536);
    let expect = 0.027044836927906407;
    assert!(
        (result.makespan_seconds - expect).abs() / expect < 1e-9,
        "{}",
        result.makespan_seconds
    );
}

/// AllReduce at 16,384 QFDBs on the 26-ary 3-tree: 31,474 completion
/// events, each a solver pass whose change reaches a few dozen of the
/// thousands of logged freeze rounds. A pass that walks every logged round
/// took 5.2 s alone on a 2-core box, twice what jumping the rounds a change
/// cannot reach takes, so the wall time is printed for comparison.
#[test]
#[ignore = "tier-2 paper-scale simulation; run with --ignored in the tier2 CI job"]
fn fattree_allreduce_at_16384_qfdbs_keeps_its_makespan() {
    let scale = SystemScale::new(16_384).unwrap();
    let topo = scale.fattree_spec().build().unwrap();
    let n = scale.qfdbs as usize;
    let workload = WorkloadSpec::AllReduce {
        tasks: n,
        bytes: 1 << 20,
    };
    let dag = workload.generate(&TaskMapping::linear(n, topo.num_endpoints()));
    let started = Instant::now();
    let report = Simulator::with_config(topo.as_ref(), deadline_cfg())
        .run(&dag)
        .unwrap_or_else(|e| panic!("{}: {e}", topo.name()));
    eprintln!(
        "{}: AllReduce at {n} tasks in {:.2} s of wall",
        topo.name(),
        started.elapsed().as_secs_f64()
    );
    assert_eq!(report.events, 31_474);
    let expect = 0.024429321467621962;
    assert!(
        (report.makespan_seconds - expect).abs() / expect < 1e-9,
        "{}",
        report.makespan_seconds
    );
}

/// Two Reduce phases back to back — everyone to endpoint 0, a barrier,
/// everyone to endpoint 1 — so that the 131,071-entry batch of the first
/// phase, all sharing one ejection port, really is unlinked from the
/// solver mid-run (the batch that ends a run is never settled). Unlinking
/// it one `position` scan per entry was quadratic: 10.4 s for the single
/// phase before the batch unlink, under 5 s for both phases on the 2-core
/// box since.
#[test]
#[ignore = "tier-2 paper-scale simulation; run with --ignored in the tier2 CI job"]
fn paper_scale_two_phase_reduce_unlinks_its_first_batch() {
    let scale = SystemScale::PAPER;
    let n = scale.qfdbs as u32;
    let bytes = 64u64 << 10;
    let topo = scale.torus_spec().build().unwrap();
    let mut b = FlowDagBuilder::with_capacity(2 * n as usize, 2 * n as usize);
    let first: Vec<FlowId> = (1..n)
        .map(|src| b.add_flow(NodeId(src), NodeId(0), bytes, &[]))
        .collect();
    let barrier = b.add_barrier(&first);
    for src in (0..n).filter(|&src| src != 1) {
        b.add_flow(NodeId(src), NodeId(1), bytes, &[barrier]);
    }
    let dag = b.build();

    let started = Instant::now();
    let report = Simulator::with_config(topo.as_ref(), deadline_cfg())
        .run(&dag)
        .unwrap_or_else(|e| panic!("two-phase Reduce: {e}"));
    let wall = started.elapsed().as_secs_f64();
    eprintln!("two-phase Reduce at {n} tasks on the torus in {wall:.2} s of wall");
    assert_eq!(report.events, 2);
    assert_eq!(report.rate_recomputes, 2);
    let phase = (n - 1) as f64 * bytes as f64 * 8.0 / exaflow::topo::LINK_RATE_BPS;
    assert!(
        (report.makespan_seconds - 2.0 * phase).abs() / phase < 1e-9,
        "{}",
        report.makespan_seconds
    );
}
