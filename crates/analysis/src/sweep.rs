//! Parallel distance sweeps and stratified sampled estimators.
//!
//! This module is the paper-scale engine behind Table 1: where
//! [`distance_stats_exact`](crate::distance_stats_exact) walks every
//! source from a single thread, [`distance_sweep`] partitions the source
//! endpoints into one deterministic contiguous chunk per worker of the
//! [pool](crate::pool) and sums the chunks' histograms in chunk order.
//! Because the histograms hold `u64` counts, the merged result is
//! **bit-identical** to the sequential path at any thread count.
//!
//! A source costs one [`Topology::distance_histogram`]. The torus, the
//! fattree, the GHC and the nested hybrids count equidistant classes, so
//! their exact sweep is cheap even at 131,072 QFDBs. For a quick look,
//! [`distance_estimate`] measures a stratified deterministic sample of
//! sources: the endpoint range is split into `samples` equal strata and
//! one source per stratum is picked by a SplitMix64 stream seeded from the
//! caller's seed. Every
//! source still covers *all* destinations, so each per-source mean is an
//! unbiased estimate of the population mean and the spread between them
//! yields a standard error ([`DistanceStats::stderr`]) and a 95%
//! confidence half-width ([`DistanceStats::confidence_95`]).
//!
//! [`physical_distance_sweep`] applies the same parallel harness to a
//! breadth-first search per source ([`exaflow_netgraph::BfsScratch`]),
//! measuring *physical shortest-path* distances instead of
//! deterministic-route distances — the gap between the two is the
//! routing-minimality cost of a topology's routing rule (zero for
//! torus/fattree/GHC, nonzero for the nested hybrids whose intra-subtorus
//! traffic must stay local).

use crate::distance::{sized_histogram, DistanceStats};
use crate::pool::scoped_map;
use exaflow_netgraph::{BfsScratch, NodeId};
use exaflow_topo::Topology;

/// Contiguous chunk `[start, end)` of `len` items owned by worker `w` of
/// `workers`; the first `len % workers` chunks take one extra item.
fn chunk_bounds(len: usize, workers: usize, w: usize) -> (usize, usize) {
    let per = len / workers;
    let rem = len % workers;
    let start = w * per + w.min(rem);
    (start, start + per + usize::from(w < rem))
}

/// Split `sources` into one contiguous chunk per worker, run `chunk` on
/// each through the [pool](crate::pool) and sum the chunks' histograms in
/// chunk order. `chunk` tallies its sources into the histogram it is
/// handed and returns their hop totals; the result is the summed
/// histogram plus per-source hop totals in `sources` order. A chunk that
/// panics re-raises here, so a short histogram is never returned.
fn tally_chunks<F>(
    sources: &[u32],
    threads: usize,
    histogram_len: usize,
    chunk: F,
) -> (Vec<u64>, Vec<u64>)
where
    F: Fn(&[u32], &mut [u64]) -> Vec<u64> + Sync,
{
    let workers = threads.max(1).min(sources.len().max(1));
    let chunks: Vec<usize> = (0..workers).collect();
    let outs = scoped_map(&chunks, workers, |_, &w| {
        let (lo, hi) = chunk_bounds(sources.len(), workers, w);
        let mut histogram = vec![0u64; histogram_len];
        let hops = chunk(&sources[lo..hi], &mut histogram);
        (histogram, hops)
    });
    let mut histogram = vec![0u64; histogram_len];
    let mut hops = Vec::with_capacity(sources.len());
    for out in outs {
        let (part, part_hops) = out.unwrap_or_else(|panic| panic!("distance sweep: {panic}"));
        for (acc, v) in histogram.iter_mut().zip(&part) {
            *acc += v;
        }
        hops.extend(part_hops);
    }
    (histogram, hops)
}

/// `chunk` for [`tally_chunks`] over routed distances: one
/// [`Topology::distance_histogram`] per source.
fn routed<'a>(topo: &'a dyn Topology) -> impl Fn(&[u32], &mut [u64]) -> Vec<u64> + Sync + 'a {
    move |chunk, histogram| {
        chunk
            .iter()
            .map(|&s| topo.distance_histogram(NodeId(s), histogram))
            .collect()
    }
}

/// Exact all-sources distance statistics computed on `threads` threads.
///
/// Bit-identical to [`distance_stats_exact`](crate::distance_stats_exact)
/// at every thread count: sources are partitioned statically, histogram
/// counts are integers, and per-chunk histograms merge in fixed order, so
/// neither scheduling nor summation order can perturb the result.
pub fn distance_sweep(topo: &dyn Topology, threads: usize) -> DistanceStats {
    let e = topo.num_endpoints();
    let sources: Vec<u32> = (0..e as u32).collect();
    let len = sized_histogram(topo).len();
    let (histogram, _) = tally_chunks(&sources, threads, len, routed(topo));
    DistanceStats::from_histogram(histogram, e, true)
}

/// Stratified deterministic source sample: the endpoint range is split
/// into `samples` equal strata and one source per stratum is chosen by a
/// SplitMix64 stream over `seed`. Requires `samples < endpoints`; sources
/// are distinct by construction (strata are disjoint) and reproducible
/// for a given `(endpoints, samples, seed)`.
pub fn stratified_sources(endpoints: usize, samples: usize, seed: u64) -> Vec<u32> {
    assert!(
        samples < endpoints,
        "stratified sample of {samples} needs fewer sources than {endpoints} endpoints"
    );
    let n = samples.max(1);
    (0..n)
        .map(|i| {
            let lo = i * endpoints / n;
            let hi = (i + 1) * endpoints / n;
            let off = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            (lo as u64 + off % (hi - lo) as u64) as u32
        })
        .collect()
}

/// Sampled distance statistics with error bounds, computed on `threads`
/// threads.
///
/// When the sample would cover every endpoint this delegates to
/// [`distance_sweep`], so `sources = all` is bit-identical to the exact
/// path (`exact: true`, no error bounds). Otherwise it measures a
/// [`stratified_sources`] sample against all destinations and reports the
/// spread of the per-source means as [`DistanceStats::stderr`] /
/// [`DistanceStats::confidence_95`]. The stderr uses the iid sample
/// formula, which *over*states the error of a stratified sample — the
/// reported interval is conservative.
pub fn distance_estimate(
    topo: &dyn Topology,
    samples: usize,
    seed: u64,
    threads: usize,
) -> DistanceStats {
    let e = topo.num_endpoints();
    if samples >= e {
        return distance_sweep(topo, threads);
    }
    let sources = stratified_sources(e, samples, seed);
    let len = sized_histogram(topo).len();
    let (histogram, hops) = tally_chunks(&sources, threads, len, routed(topo));
    let mut stats = DistanceStats::from_histogram(histogram, sources.len(), false);
    if sources.len() >= 2 && e >= 2 {
        let dests = (e - 1) as f64;
        let means: Vec<f64> = hops.iter().map(|&h| h as f64 / dests).collect();
        let n = means.len() as f64;
        let mean = means.iter().sum::<f64>() / n;
        let var = means.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / (n - 1.0);
        let stderr = (var / n).sqrt();
        stats.stderr = Some(stderr);
        stats.confidence_95 = Some(1.96 * stderr);
    }
    stats
}

/// Physical shortest-path statistics over `sources`, computed with one BFS
/// per source on `threads` threads. Each chunk owns one [`BfsScratch`]
/// reused across all its sources; no per-source allocation happens after
/// warm-up.
///
/// The metric is graph distance in link hops, a lower bound on the
/// deterministic-route distance reported by [`distance_sweep`]; equality
/// certifies that the routing rule is minimal. It is a test oracle: the
/// link-walking BFS costs a pass over every link per source.
pub fn physical_distance_sweep(
    topo: &dyn Topology,
    sources: &[NodeId],
    threads: usize,
) -> DistanceStats {
    let net = topo.network();
    let len = sized_histogram(topo).len();
    let sources: Vec<u32> = sources.iter().map(|n| n.0).collect();
    let (histogram, _) = tally_chunks(&sources, threads, len, |chunk, hist| {
        let mut scratch = BfsScratch::new(net.num_nodes());
        chunk
            .iter()
            .map(|&s| {
                scratch.run(net, NodeId(s));
                endpoint_histogram(&scratch.distances()[..net.num_endpoints()], s, hist)
            })
            .collect()
    });
    let exact = sources.len() == topo.num_endpoints();
    DistanceStats::from_histogram(histogram, sources.len(), exact)
}

/// Tally the BFS distance of every endpoint but `src` into
/// `histogram[d] += 1`, skipping unreachable ones (`u32::MAX`); `dist` is
/// the endpoint prefix of a BFS distance table. Returns the number
/// counted.
fn endpoint_histogram(dist: &[u32], src: u32, histogram: &mut [u64]) -> u64 {
    let mut counted = 0u64;
    for (node, &d) in dist.iter().enumerate() {
        if node as u32 == src || d == u32::MAX {
            continue;
        }
        histogram[d as usize] += 1;
        counted += 1;
    }
    counted
}

/// SplitMix64 mix function (Steele, Lea & Flood; public-domain constants).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance_stats_exact;
    use exaflow_netgraph::{LinkId, Network, NetworkBuilder};
    use exaflow_topo::{ConnectionRule, KAryTree, Nested, Torus, UpperTierKind};

    /// A topology that can only count: every other endpoint is one hop
    /// away by `distance_histogram`, and asking for a single `distance`
    /// panics. So does counting from `broken`, when set.
    struct CountingOnly {
        net: Network,
        broken: Option<NodeId>,
    }

    fn counting_only(endpoints: usize, broken: Option<NodeId>) -> CountingOnly {
        let mut b = NetworkBuilder::new();
        b.add_endpoints(endpoints);
        CountingOnly {
            net: b.build(),
            broken,
        }
    }

    impl Topology for CountingOnly {
        fn name(&self) -> String {
            "CountingOnly".to_string()
        }
        fn network(&self) -> &Network {
            &self.net
        }
        fn route(&self, _: NodeId, _: NodeId, _: &mut Vec<LinkId>) {
            panic!("a distance sweep never routes");
        }
        fn distance(&self, _: NodeId, _: NodeId) -> u32 {
            panic!("the per-pair loop was re-entered");
        }
        fn diameter_bound(&self) -> u32 {
            1
        }
        fn distance_histogram(&self, src: NodeId, histogram: &mut [u64]) -> u64 {
            assert_ne!(
                Some(src),
                self.broken,
                "no histogram from the broken source"
            );
            let others = self.num_endpoints() as u64 - 1;
            histogram[1] += others;
            others
        }
    }

    #[test]
    fn sweeps_count_through_the_histogram_override() {
        // Were a sweep to fall back to the per-pair loop, a real topology
        // would give the same numbers, so nothing but a panic shows it.
        let topo = counting_only(5, None);
        let swept = distance_sweep(&topo, 2);
        assert_eq!(swept.histogram, vec![0, 20]);
        let estimate = distance_estimate(&topo, 3, 1, 2);
        assert_eq!(estimate.histogram, vec![0, 12]);
        assert_eq!(estimate.average, 1.0);
        assert_eq!(estimate.stderr, Some(0.0));
    }

    #[test]
    #[should_panic(expected = "no histogram from the broken source")]
    fn a_panicking_source_panics_the_sweep() {
        // The pool catches the chunk's panic; the sweep must re-raise it
        // rather than sum the chunks that came back.
        distance_sweep(&counting_only(5, Some(NodeId(3))), 2);
    }

    #[test]
    fn sweep_matches_exact_at_every_thread_count() {
        let n = Nested::new(UpperTierKind::Fattree, 8, 2, ConnectionRule::QuarterNodes);
        let exact = distance_stats_exact(&n);
        for threads in [1, 2, 3, 8] {
            assert_eq!(distance_sweep(&n, threads), exact, "threads = {threads}");
        }
    }

    #[test]
    fn estimate_with_full_coverage_is_exact() {
        let t = Torus::new(&[4, 4]);
        let s = distance_estimate(&t, 1_000, 42, 2);
        assert_eq!(s, distance_stats_exact(&t));
        assert!(s.exact);
        assert!(s.stderr.is_none());
    }

    #[test]
    fn stratified_sources_are_distinct_in_range_and_deterministic() {
        let a = stratified_sources(1_000, 64, 0xABCD);
        let b = stratified_sources(1_000, 64, 0xABCD);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "strata are disjoint");
        assert!(a.iter().all(|&s| s < 1_000));
        assert_ne!(a, stratified_sources(1_000, 64, 0xABCE), "seed matters");
    }

    #[test]
    fn estimate_reports_error_bounds_on_a_partial_tree() {
        let t = KAryTree::with_endpoints(4, 3, 50);
        let exact = distance_stats_exact(&t);
        let est = distance_estimate(&t, 16, 7, 2);
        assert!(!est.exact);
        assert_eq!(est.sources_measured, 16);
        let conf = est.confidence_95.expect("sampled run reports a CI");
        assert!(conf >= 0.0);
        assert!(
            (est.average - exact.average).abs() <= conf.max(0.35),
            "estimate {} vs exact {} outside CI {conf}",
            est.average,
            exact.average
        );
    }

    #[test]
    fn torus_estimate_is_exact_by_symmetry() {
        // A torus is vertex-transitive: every source sees the same distance
        // multiset, so any source sample reproduces the exact mean with
        // zero variance.
        let t = Torus::new(&[6, 6, 2]);
        let exact = distance_stats_exact(&t);
        let est = distance_estimate(&t, 5, 99, 1);
        assert!((est.average - exact.average).abs() < 1e-12);
        // Not exactly zero: summing identical per-source means and dividing
        // back can round in the last ulp.
        assert!(est.stderr.unwrap() < 1e-12);
        assert_eq!(est.diameter, exact.diameter);
    }

    #[test]
    fn physical_sweep_matches_route_sweep_on_minimal_topologies() {
        // Torus DOR and fattree up/down routing are minimal, so physical
        // shortest-path statistics equal route statistics exactly.
        let all = |e: usize| (0..e as u32).map(NodeId).collect::<Vec<_>>();
        let t = Torus::new(&[4, 4, 2]);
        let p = physical_distance_sweep(&t, &all(t.num_endpoints()), 2);
        assert_eq!(p, distance_stats_exact(&t));
        let f = KAryTree::new(4, 2);
        let p = physical_distance_sweep(&f, &all(f.num_endpoints()), 3);
        assert_eq!(p, distance_stats_exact(&f));
    }

    #[test]
    fn physical_sweep_lower_bounds_routes_on_hybrids() {
        let n = Nested::new(UpperTierKind::Fattree, 8, 2, ConnectionRule::EveryNode);
        let all: Vec<NodeId> = (0..n.num_endpoints() as u32).map(NodeId).collect();
        let phys = physical_distance_sweep(&n, &all, 2);
        let routed = distance_stats_exact(&n);
        assert!(phys.average <= routed.average + 1e-12);
        assert!(phys.diameter <= routed.diameter);
    }

    #[test]
    fn endpoint_histogram_counts_endpoints_only() {
        let mut b = NetworkBuilder::new();
        let e0 = b.add_endpoint();
        let e1 = b.add_endpoint();
        let s = b.add_switch();
        b.add_duplex(e0, s);
        b.add_duplex(e1, s);
        let net = b.build();
        let mut scratch = BfsScratch::new(net.num_nodes());
        scratch.run(&net, e0);
        let mut hist = vec![0u64; 4];
        let counted =
            endpoint_histogram(&scratch.distances()[..net.num_endpoints()], e0.0, &mut hist);
        // Only e1 (2 hops via the switch) counts; the switch itself does not.
        assert_eq!(counted, 1);
        assert_eq!(hist, vec![0, 0, 1, 0]);
    }

    #[test]
    fn endpoint_histogram_skips_unreachable() {
        let mut b = NetworkBuilder::new();
        let e0 = b.add_endpoint();
        b.add_endpoint();
        let net = b.build();
        let mut scratch = BfsScratch::new(net.num_nodes());
        scratch.run(&net, e0);
        let mut hist = vec![0u64; 1];
        let counted =
            endpoint_histogram(&scratch.distances()[..net.num_endpoints()], e0.0, &mut hist);
        assert_eq!(counted, 0);
        assert_eq!(hist, vec![0]);
    }

    #[test]
    fn chunk_bounds_partition_exactly() {
        for len in [0usize, 1, 7, 64, 100] {
            for workers in [1usize, 2, 3, 8] {
                let mut covered = 0;
                for w in 0..workers {
                    let (lo, hi) = chunk_bounds(len, workers, w);
                    assert_eq!(lo, covered);
                    covered = hi;
                }
                assert_eq!(covered, len);
            }
        }
    }
}
