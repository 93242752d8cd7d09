//! The paper's six artefacts, computed and rendered. `exaflow reproduce
//! <artefact>` prints [`Reproduced::text`] and writes [`Reproduced::json`];
//! the golden tests call the same functions.
//!
//! | artefact | contents |
//! |----------|----------|
//! | `table1` | average distance + diameter per hybrid config |
//! | `table2` | switch counts, cost & power overheads |
//! | `fig2`   | DOT drawings of the four example topologies |
//! | `fig3`   | the four uplink-density connection rules |
//! | `fig4`   | normalised execution time, heavy workloads |
//! | `fig5`   | normalised execution time, light workloads |
//!
//! Figures 4 and 5 are one [`ExperimentSuite`] each: the expander crosses
//! the figure's workloads with [`presets::figure_topologies`], the suite
//! builds each topology once and runs its entries together, and the
//! reducer normalises each panel to its fattree entry. Every entry is
//! independent and deterministic, so a figure is the same at any thread
//! count.

use crate::analyze::{analyze_distances, SourceBudget};
use crate::experiment::{ExperimentConfig, ExperimentResult, MappingSpec};
use crate::presets;
use crate::scale::SystemScale;
use crate::suite::{scoped_map, ExperimentSuite};
use crate::topospec::TopologySpec;
use exaflow_netgraph::dot::to_dot;
use exaflow_sim::SimConfig;
use exaflow_system::{CostModel, UpperTier};
use exaflow_topo::{
    ConnectionRule, KAryTree, MixedRadix, Nested, Topology, Torus, UplinkMap, UpperTierKind,
};
use exaflow_workloads::WorkloadSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write;

/// One artefact of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Artefact {
    Fig2,
    Fig3,
    Fig4,
    Fig5,
    Table1,
    Table2,
}

impl Artefact {
    /// Every artefact with its command-line name.
    const ALL: [(&'static str, Artefact); 6] = [
        ("fig2", Artefact::Fig2),
        ("fig3", Artefact::Fig3),
        ("fig4", Artefact::Fig4),
        ("fig5", Artefact::Fig5),
        ("table1", Artefact::Table1),
        ("table2", Artefact::Table2),
    ];

    /// The artefact called `name` on the command line.
    pub fn parse(name: &str) -> Option<Artefact> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, a)| a)
    }

    /// The scale to run at when none is given: the tables analyse the
    /// paper's own [`SystemScale::PAPER`], the figures simulate at
    /// [`SystemScale::DEFAULT_SIM`]. Figures 2 and 3 draw fixed instances
    /// and ignore it.
    pub fn default_scale(self) -> SystemScale {
        match self {
            Artefact::Table1 | Artefact::Table2 => SystemScale::PAPER,
            _ => SystemScale::DEFAULT_SIM,
        }
    }
}

/// What an artefact prints and writes.
pub struct Reproduced {
    /// The text printed on stdout, without its final newline.
    pub text: String,
    /// Pretty-printed results for `--json`; Figures 2 and 3 have none.
    pub json: Option<String>,
    /// Further files, as (relative path, contents): Figure 2's drawings.
    pub files: Vec<(String, String)>,
}

/// Compute `artefact` at `scale` on `threads` workers (all cores when
/// `None`).
pub fn reproduce(
    artefact: Artefact,
    scale: SystemScale,
    threads: Option<usize>,
) -> Result<Reproduced, String> {
    let all_cores = || threads.unwrap_or_else(exaflow_analysis::default_threads);
    let (text, json) = match artefact {
        Artefact::Fig2 => return Ok(fig2()),
        Artefact::Fig3 => (fig3(), None),
        Artefact::Fig4 | Artefact::Fig5 => {
            let workloads = if artefact == Artefact::Fig4 {
                presets::heavy_workloads(scale)
            } else {
                presets::light_workloads(scale)
            };
            let panels = figure(scale, &workloads, threads)?;
            let text: Vec<String> = panels.iter().map(FigurePanel::render).collect();
            let by_name: BTreeMap<String, &FigurePanel> =
                panels.iter().map(|p| (p.workload.clone(), p)).collect();
            (text.join("\n"), Some(pretty(&by_name)))
        }
        Artefact::Table1 => {
            let (rows, text) = table1(scale, all_cores())?;
            (text, Some(pretty(&rows)))
        }
        Artefact::Table2 => {
            let rows = table2(scale, all_cores())?;
            (render_table2(scale, &rows), Some(pretty(&rows)))
        }
    };
    let files = Vec::new();
    Ok(Reproduced { text, json, files })
}

fn pretty<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("artefact results serialise")
}

/// The `(t, u)` of one of [`presets::figure_topologies`]'s hybrids.
fn grid_point(spec: &TopologySpec) -> (u32, u32) {
    match *spec {
        TopologySpec::Nested { t, u, .. } => (t, u),
        _ => unreachable!("figure hybrids are nested specs"),
    }
}

/// One (t, u) cell of a figure panel.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FigureCell {
    pub t: u32,
    pub u: u32,
    pub nest_ghc: f64,
    pub nest_tree: f64,
    pub fattree: f64,
    pub torus: f64,
}

/// One panel of Figure 4 or 5: a workload across the hybrid grid,
/// normalised to the fattree baseline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FigurePanel {
    pub workload: String,
    pub scale_qfdbs: u64,
    pub baseline_seconds: f64,
    pub torus_seconds: f64,
    pub cells: Vec<FigureCell>,
}

impl FigurePanel {
    /// The panel as the text table the paper's figure corresponds to.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}  (normalised to Fattree; {} QFDBs)\n    \
             (t,u)    NestGHC   NestTree    Fattree    Torus3D\n",
            self.workload, self.scale_qfdbs
        );
        for c in &self.cells {
            writeln!(
                out,
                "  ({},{:>2}) {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                c.t, c.u, c.nest_ghc, c.nest_tree, c.fattree, c.torus
            )
            .unwrap();
        }
        out
    }
}

/// Figures 4 and 5: every workload on every figure topology as one suite
/// on `threads` workers (all cores when `None`). Returns one panel per
/// workload, in `workloads` order.
pub fn figure(
    scale: SystemScale,
    workloads: &[WorkloadSpec],
    threads: Option<usize>,
) -> Result<Vec<FigurePanel>, String> {
    let topologies = presets::figure_topologies(scale);
    let configs = workloads
        .iter()
        .flat_map(|workload| {
            topologies.iter().map(|topology| ExperimentConfig {
                topology: topology.clone(),
                workload: workload.clone(),
                mapping: MappingSpec::Linear,
                sim: SimConfig::default(),
                failures: None,
                fault_injection: None,
            })
        })
        .collect();
    let mut suite = ExperimentSuite::new(configs);
    if let Some(n) = threads {
        suite = suite.threads(n);
    }
    let results: Vec<ExperimentResult> = suite
        .run()
        .results
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    workloads
        .iter()
        .zip(results.chunks_exact(topologies.len()))
        .map(|(workload, results)| panel(scale, workload, &topologies, results))
        .collect()
}

/// The reducer: one workload's results, in [`presets::figure_topologies`]
/// order (fattree, torus, then NestGHC/NestTree pairs), normalised to the
/// fattree.
fn panel(
    scale: SystemScale,
    workload: &WorkloadSpec,
    topologies: &[TopologySpec],
    results: &[ExperimentResult],
) -> Result<FigurePanel, String> {
    let base = results[0].makespan_seconds;
    if base <= 0.0 {
        return Err("fattree baseline has zero makespan".into());
    }
    let torus = results[1].makespan_seconds;
    let cells = topologies[2..]
        .chunks_exact(2)
        .zip(results[2..].chunks_exact(2))
        .map(|(specs, pair)| {
            let (t, u) = grid_point(&specs[0]);
            FigureCell {
                t,
                u,
                nest_ghc: pair[0].makespan_seconds / base,
                nest_tree: pair[1].makespan_seconds / base,
                fattree: 1.0,
                torus: torus / base,
            }
        })
        .collect();
    Ok(FigurePanel {
        workload: workload.name().to_owned(),
        scale_qfdbs: scale.qfdbs,
        baseline_seconds: base,
        torus_seconds: torus,
        cells,
    })
}

/// One row of Table 1: exact average distance (uniform traffic) and
/// diameter of NestGHC and NestTree at one (t, u).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table1Row {
    pub t: u32,
    pub u: u32,
    pub avg_ghc: f64,
    pub avg_tree: f64,
    pub diam_ghc: u32,
    pub diam_tree: u32,
}

/// Table 1 at `scale`: every hybrid the scale hosts, swept over all
/// sources and destinations on `threads` threads, plus the rendered table
/// with the caption's fattree and torus references. Distances are counted
/// by equidistant class, so no topology wires a link.
pub fn table1(scale: SystemScale, threads: usize) -> Result<(Vec<Table1Row>, String), String> {
    let mut specs = presets::figure_topologies(scale);
    specs.remove(1); // The torus reference is closed-form.
    let report =
        analyze_distances(scale, &specs, SourceBudget::All, threads).map_err(|e| e.to_string())?;
    let (fattree, hybrids) = report.rows.split_first().expect("a fattree row");
    let fattree = &fattree.stats;
    let rows: Vec<Table1Row> = hybrids
        .chunks_exact(2)
        .map(|pair| {
            let (t, u) = grid_point(&pair[0].spec);
            let (ghc, tree) = (&pair[0].stats, &pair[1].stats);
            Table1Row {
                t,
                u,
                avg_ghc: ghc.average,
                avg_tree: tree.average,
                diam_ghc: ghc.diameter,
                diam_tree: tree.diameter,
            }
        })
        .collect();

    let mut text = String::from(
        "Table 1: average distance and diameter of the hybrid topologies\n  \
         (t,u) |  avg NestGHC avg NestTree |  diam GHC diam Tree\n",
    );
    for r in &rows {
        writeln!(
            text,
            "({},{:>2})  | {:>12.2} {:>12.2} | {:>9} {:>9}",
            r.t, r.u, r.avg_ghc, r.avg_tree, r.diam_ghc, r.diam_tree
        )
        .unwrap();
    }
    let torus = Torus::new(&scale.torus_dims());
    write!(
        text,
        "reference Fattree: avg {:.2}, diameter {}\n\
         reference Torus:   avg {:.2}, diameter {}\n\
         (paper at 131072 QFDBs: fattree avg 5.94 diam 6; torus avg 40 diam 80)",
        fattree.average,
        fattree.diameter,
        torus.average_distance(),
        torus.diameter()
    )
    .unwrap();
    Ok((rows, text))
}

/// One row of Table 2: upper-tier switch counts and cost/power overheads
/// of NestGHC and NestTree at one (t, u).
///
/// `paper_*` are the closed-form counts reverse-engineered from Table 2
/// itself (see `exaflow_system::cost`); `built_*` are the switches the
/// topology generators instantiate at the requested scale.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table2Row {
    pub t: u32,
    pub u: u32,
    pub paper_switches_ghc: u64,
    pub paper_switches_tree: u64,
    pub built_switches_ghc: u64,
    pub built_switches_tree: u64,
    pub cost_pct_ghc: f64,
    pub cost_pct_tree: f64,
    pub power_pct_ghc: f64,
    pub power_pct_tree: f64,
}

/// Table 2 at `scale`. Wiring both hybrids of a grid point dominates the
/// run at paper scale, so the points fan out across `threads` workers.
pub fn table2(scale: SystemScale, threads: usize) -> Result<Vec<Table2Row>, String> {
    let model = CostModel::default();
    let n = scale.qfdbs;
    let topologies = presets::figure_topologies(scale);
    let pairs: Vec<&[TopologySpec]> = topologies[2..].chunks_exact(2).collect();
    scoped_map(&pairs, threads, |_, pair| {
        let (t, u) = grid_point(&pair[0]);
        let built = |spec: &TopologySpec| -> Result<u64, String> {
            let topo = spec.build().map_err(|e| e.to_string())?;
            Ok(topo.network().num_switches() as u64)
        };
        let ghc_paper = model.paper_switch_count(UpperTier::GeneralizedHypercube, n, u);
        let tree_paper = model.paper_switch_count(UpperTier::Fattree, n, u);
        let ghc_over = model.overheads(ghc_paper, n);
        let tree_over = model.overheads(tree_paper, n);
        Ok(Table2Row {
            t,
            u,
            paper_switches_ghc: ghc_paper,
            paper_switches_tree: tree_paper,
            built_switches_ghc: built(&pair[0])?,
            built_switches_tree: built(&pair[1])?,
            cost_pct_ghc: ghc_over.cost_increase_pct,
            cost_pct_tree: tree_over.cost_increase_pct,
            power_pct_ghc: ghc_over.power_increase_pct,
            power_pct_tree: tree_over.power_increase_pct,
        })
    })
    .into_iter()
    .map(|o| o.unwrap_or_else(|panic| Err(format!("grid point {panic}"))))
    .collect()
}

fn render_table2(scale: SystemScale, rows: &[Table2Row]) -> String {
    let n = scale.qfdbs;
    let mut text = format!(
        "Table 2: switches and cost/power overhead ({n} QFDBs)\n  \
         (t,u) |   paper GHC  paper Tree |   built GHC  built Tree |  cost%G  cost%T |   pwr%G   pwr%T\n"
    );
    for r in rows {
        writeln!(
            text,
            "({},{:>2})  | {:>11} {:>11} | {:>11} {:>11} | {:>6.2}% {:>6.2}% | {:>6.2}% {:>6.2}%",
            r.t,
            r.u,
            r.paper_switches_ghc,
            r.paper_switches_tree,
            r.built_switches_ghc,
            r.built_switches_tree,
            r.cost_pct_ghc,
            r.cost_pct_tree,
            r.power_pct_ghc,
            r.power_pct_tree
        )
        .unwrap();
    }
    let model = CostModel::default();
    let ft = model.paper_fattree_switch_count(n);
    let fo = model.overheads(ft, n);
    write!(
        text,
        "reference Fattree: {} switches, +{:.2}% cost, +{:.2}% power (paper: 9216, 5.27%, 1.76%)",
        ft, fo.cost_increase_pct, fo.power_increase_pct
    )
    .unwrap();
    text
}

/// Figure 2: Graphviz DOT drawings of the paper's four example topologies
/// — (a) a 4×4×2 torus, (b) NestGHC(t=2, u=8), (c) a 4-ary 2-tree, (d)
/// NestTree(t=2, u=8) — as `figure2/<name>.dot`; render with
/// `neato -Tpng figure2/<name>.dot`.
fn fig2() -> Reproduced {
    let nested = |upper| Nested::new(upper, 16, 2, ConnectionRule::EighthNodes);
    let panels: [(&str, Box<dyn Topology>); 4] = [
        ("a_torus_4x4x2", Box::new(Torus::new(&[4, 4, 2]))),
        (
            "b_nest_ghc_t2_u8",
            Box::new(nested(UpperTierKind::GeneralizedHypercube)),
        ),
        ("c_4ary_2tree", Box::new(KAryTree::new(4, 2))),
        (
            "d_nest_tree_t2_u8",
            Box::new(nested(UpperTierKind::Fattree)),
        ),
    ];
    let mut text = String::new();
    let mut files = Vec::new();
    for (name, topo) in panels {
        let path = format!("figure2/{name}.dot");
        let net = topo.network();
        writeln!(
            text,
            "{path}: {} — {} nodes, {} links",
            topo.name(),
            net.num_nodes(),
            net.num_links()
        )
        .unwrap();
        files.push((path, to_dot(net, &topo.name())));
    }
    text.push_str("render with: neato -Tpng figure2/<name>.dot -o <name>.png");
    Reproduced {
        text,
        json: None,
        files,
    }
}

/// Figure 3: the four uplink-density connection rules over a 2×2×2
/// subgrid — which nodes are uplinked, and how many hops each other node
/// travels to its uplink.
fn fig3() -> String {
    let shape = MixedRadix::new(&[2, 2, 2]);
    let xyz = |local: u32| shape.decode(local as u64);
    let at = |c: &[u32]| format!("({},{},{})", c[0], c[1], c[2]);
    let mut text = String::new();
    for rule in ConnectionRule::all() {
        let map = UplinkMap::new(&shape, rule);
        writeln!(
            text,
            "Density 1:{} (u = {}): {} of {} nodes uplinked",
            rule.u(),
            rule.u(),
            map.num_uplinks(),
            shape.len()
        )
        .unwrap();
        for local in 0..shape.len() as u32 {
            let c = xyz(local);
            if map.is_uplinked(local) {
                writeln!(text, "  {}  UPLINKED", at(&c)).unwrap();
                continue;
            }
            let tc = xyz(map.target(local));
            let hops: u32 = c.iter().zip(&tc).map(|(&a, &b)| a.abs_diff(b)).sum();
            let plural = if hops == 1 { "" } else { "s" };
            writeln!(text, "  {}  -> {}  [{hops} hop{plural}]", at(&c), at(&tc)).unwrap();
        }
        text.push('\n');
    }
    // The last rule's blank line is the final newline the caller adds.
    text.pop();
    text
}
