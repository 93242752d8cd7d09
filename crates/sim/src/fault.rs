//! Mid-run fault injection: schedules of link-down / link-up events and
//! the recovery policies deciding what happens to interrupted flows.
//!
//! **Extension beyond the paper** (its §6 flags fault tolerance as future
//! work): a [`FaultSchedule`] is a time-ordered list of [`FaultEvent`]s the
//! engine consumes alongside flow-retirement events — a link that dies
//! while flows are in flight interrupts them, and the configured
//! [`RecoveryPolicy`] decides whether the run aborts, drops the flow, or
//! reroutes it (keeping or discarding the bytes already transferred).
//!
//! Schedules are either explicit (exact events, for crafted scenarios and
//! tests) or generated deterministically from a seed: a Poisson process of
//! cable failures at a given rate over a time horizon, optionally followed
//! by repairs after a fixed delay ([`FaultScheduleSpec`]). The same seed
//! always yields the same schedule, which is what makes Monte-Carlo
//! resilience campaigns reproducible and lets different recovery policies
//! face identical fault traces.
//!
//! A schedule also carries the links that are down for the whole run
//! ([`FaultSchedule::with_failed_links`]): cables cut before t = 0, as
//! [`random_cable_failures`] picks them. They live in the same overlay as
//! the scheduled faults, so one route rule serves both, and no scheduled
//! `Up` restores them.

use crate::error::SimError;
use exaflow_netgraph::{LinkId, Network};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What a fault event does to its link.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultAction {
    /// The link goes out of service.
    Down,
    /// The link returns to service (a repair).
    Up,
}

/// One link transition at a simulated time.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulated time of the transition, seconds.
    pub time_s: f64,
    /// The unidirectional link that changes state.
    pub link: u32,
    /// Down or up.
    pub action: FaultAction,
}

/// A time-ordered schedule of link fault events, plus the links that are
/// down for the whole run.
///
/// Construction sorts events by time (stably, so same-time events keep
/// their given order) and rejects non-finite or negative times; link ids,
/// of the events and of the run-long set alike, are validated against the
/// topology at [`FaultSchedule::validate_for`] time, which the engine
/// calls before consuming the schedule.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    /// Links down from t = 0 to the end of the run, sorted, no duplicates.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    failed: Vec<u32>,
}

impl FaultSchedule {
    /// A schedule with no events and no failed links: simulation behaves
    /// exactly as fault-free.
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// Build a schedule from `events`, sorting them by time.
    pub fn new(mut events: Vec<FaultEvent>) -> Result<Self, SimError> {
        for e in &events {
            if !(e.time_s.is_finite() && e.time_s >= 0.0) {
                return Err(SimError::invalid_config(
                    "fault.time_s",
                    e.time_s,
                    "must be finite and >= 0",
                ));
            }
        }
        events.sort_by(|a, b| {
            a.time_s
                .partial_cmp(&b.time_s)
                .expect("fault times are finite")
        });
        Ok(FaultSchedule {
            events,
            failed: Vec::new(),
        })
    }

    /// This schedule with `links` down for the whole run as well: the
    /// engine fails them before t = 0, a scheduled `Down` on one is a
    /// no-op and a scheduled `Up` never restores it.
    pub fn with_failed_links(mut self, links: impl IntoIterator<Item = LinkId>) -> Self {
        self.failed.extend(links.into_iter().map(|l| l.0));
        self.failed.sort_unstable();
        self.failed.dedup();
        self
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The links down for the whole run, ascending.
    pub fn failed_links(&self) -> &[u32] {
        &self.failed
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check that every event's link and every run-long failed link exists
    /// in `net`.
    pub fn validate_for(&self, net: &Network) -> Result<(), SimError> {
        let num_links = net.num_links();
        let events = self.events.iter().map(|e| ("fault.link", e.link));
        let failed = self.failed.iter().map(|&l| ("fault.failed_link", l));
        match events
            .chain(failed)
            .find(|&(_, link)| link as usize >= num_links)
        {
            Some((field, link)) => Err(SimError::InvalidConfig {
                field: field.into(),
                value: link.to_string(),
                constraint: format!("must be < {num_links} (number of links)"),
            }),
            None => Ok(()),
        }
    }
}

/// What the engine does with a transferring flow whose path just lost a
/// link.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum RecoveryPolicy {
    /// Fail the whole run with a typed [`SimError::LinkLost`] the moment
    /// a fault interrupts any transferring flow. Models a system with no
    /// fault tolerance at all.
    Abort,
    /// Reroute interrupted flows over surviving links, keeping transferred
    /// bytes; a flow whose destination became unreachable is dropped and
    /// recorded (see [`SimReport::skipped_flows`](crate::SimReport)), and
    /// its dependents proceed as if it had completed. Models an
    /// application that gives up on unreachable peers.
    SkipUnreachable,
    /// Reroute interrupted flows over surviving links, keeping transferred
    /// bytes; an unreachable destination fails the run with a typed
    /// [`SimError::Unreachable`]. Models transparent network-level path
    /// migration.
    #[default]
    RerouteResume,
    /// Reroute interrupted flows but retransmit from zero — the bytes
    /// already transferred are lost. Models recovery without end-to-end
    /// checkpointing. Unreachable destinations fail the run as with
    /// [`RecoveryPolicy::RerouteResume`].
    RerouteRestart,
}

impl RecoveryPolicy {
    /// All policies, in a stable order (useful for campaign grids).
    pub const ALL: [RecoveryPolicy; 4] = [
        RecoveryPolicy::Abort,
        RecoveryPolicy::SkipUnreachable,
        RecoveryPolicy::RerouteResume,
        RecoveryPolicy::RerouteRestart,
    ];

    /// Snake-case name, matching the serialized form.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPolicy::Abort => "abort",
            RecoveryPolicy::SkipUnreachable => "skip_unreachable",
            RecoveryPolicy::RerouteResume => "reroute_resume",
            RecoveryPolicy::RerouteRestart => "reroute_restart",
        }
    }
}

/// Declarative description of a fault schedule, resolved against a
/// topology's network by [`FaultScheduleSpec::build`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "mode", rename_all = "snake_case")]
pub enum FaultScheduleSpec {
    /// Exactly these events.
    Explicit {
        /// The events (sorted at build time).
        events: Vec<FaultEvent>,
    },
    /// A seeded Poisson process of duplex-cable failures: cables fail at
    /// `rate_per_s` over `[0, horizon_s)`, both directions at once, each
    /// optionally repaired `repair_s` seconds later. `rate_per_s = 0`
    /// yields an empty schedule (bit-identical to a fault-free run).
    Random {
        /// RNG seed; the schedule is a pure function of the seed and the
        /// topology.
        seed: u64,
        /// Expected cable failures per simulated second.
        rate_per_s: f64,
        /// Failures are drawn in `[0, horizon_s)`.
        horizon_s: f64,
        /// Fixed delay after which a failed cable is repaired (both
        /// directions come back). `None` means failures are permanent.
        #[serde(default)]
        repair_s: Option<f64>,
    },
}

/// Ceiling on generated events: a runaway `rate × horizon` is a config
/// error, not an allocation storm.
const MAX_GENERATED_EVENTS: usize = 100_000;

impl FaultScheduleSpec {
    /// Resolve the spec into a concrete, validated [`FaultSchedule`] for
    /// `net`.
    pub fn build(&self, net: &Network) -> Result<FaultSchedule, SimError> {
        let schedule = match self {
            FaultScheduleSpec::Explicit { events } => FaultSchedule::new(events.clone())?,
            FaultScheduleSpec::Random {
                seed,
                rate_per_s,
                horizon_s,
                repair_s,
            } => generate_random(net, *seed, *rate_per_s, *horizon_s, *repair_s)?,
        };
        schedule.validate_for(net)?;
        Ok(schedule)
    }
}

/// Representative duplex cables of `net`: one `(forward, reverse)` pair per
/// cable, `src < dst`.
fn duplex_cables(net: &Network) -> Vec<(LinkId, Option<LinkId>)> {
    let mut cables = Vec::new();
    for (i, link) in net.links().iter().enumerate() {
        if link.src > link.dst {
            continue;
        }
        let reverse = net.find_link(link.dst, link.src);
        cables.push((LinkId(i as u32), reverse));
    }
    cables
}

/// Pick `count` random duplex cables to cut before a run, deterministic in
/// `seed`: the cables of `duplex_cables` in a seeded shuffle, taking each
/// unless it is the last link of either of its end nodes — a failure
/// study needs a degraded network, not an isolated node (a partition of
/// larger parts can still happen, and surfaces as an unreachable
/// destination). Returns the cut cables, fewer than `count`
/// when the network runs out of safely removable ones.
pub fn random_cable_failures(
    net: &Network,
    count: usize,
    seed: u64,
) -> Vec<(LinkId, Option<LinkId>)> {
    let mut cables = duplex_cables(net);
    let mut degree = vec![0u32; net.num_nodes()];
    for link in net.links() {
        degree[link.src.index()] += 1;
    }
    cables.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut cut = Vec::new();
    for cable in cables {
        if cut.len() >= count {
            break;
        }
        let link = net.link(cable.0);
        let (a, b) = (link.src.index(), link.dst.index());
        if degree[a] <= 1 || degree[b] <= 1 {
            continue;
        }
        degree[a] -= 1;
        degree[b] -= 1;
        cut.push(cable);
    }
    cut
}

fn generate_random(
    net: &Network,
    seed: u64,
    rate_per_s: f64,
    horizon_s: f64,
    repair_s: Option<f64>,
) -> Result<FaultSchedule, SimError> {
    if !(rate_per_s.is_finite() && rate_per_s >= 0.0) {
        return Err(SimError::invalid_config(
            "fault.rate_per_s",
            rate_per_s,
            "must be finite and >= 0",
        ));
    }
    if !(horizon_s.is_finite() && horizon_s >= 0.0) {
        return Err(SimError::invalid_config(
            "fault.horizon_s",
            horizon_s,
            "must be finite and >= 0",
        ));
    }
    if let Some(r) = repair_s {
        if !(r.is_finite() && r > 0.0) {
            return Err(SimError::invalid_config(
                "fault.repair_s",
                r,
                "must be finite and > 0",
            ));
        }
    }
    let expected = rate_per_s * horizon_s;
    if expected > (MAX_GENERATED_EVENTS / 4) as f64 {
        return Err(SimError::invalid_config(
            "fault.rate_per_s",
            rate_per_s,
            "rate × horizon would generate too many fault events",
        ));
    }

    let mut events = Vec::new();
    if rate_per_s > 0.0 && horizon_s > 0.0 {
        let cables = duplex_cables(net);
        if !cables.is_empty() {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = 0.0f64;
            loop {
                // Exponential inter-arrival via inverse transform; the
                // vendored RNG draws uniforms in [0, 1), so 1 - u > 0.
                let u: f64 = rng.random();
                t += -(1.0 - u).ln() / rate_per_s;
                // `t` is monotone and can only leave [0, horizon) upward
                // (ln(1-u) is finite or -inf, never NaN), so >= is a safe
                // exit condition even for t = +inf.
                if t >= horizon_s || events.len() >= MAX_GENERATED_EVENTS {
                    break;
                }
                let (fwd, rev) = cables[rng.random_range(0..cables.len())];
                let mut push = |link: LinkId, time_s: f64, action: FaultAction| {
                    events.push(FaultEvent {
                        time_s,
                        link: link.0,
                        action,
                    });
                };
                push(fwd, t, FaultAction::Down);
                if let Some(r) = rev {
                    push(r, t, FaultAction::Down);
                }
                if let Some(delay) = repair_s {
                    push(fwd, t + delay, FaultAction::Up);
                    if let Some(r) = rev {
                        push(r, t + delay, FaultAction::Up);
                    }
                }
            }
        }
    }
    FaultSchedule::new(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaflow_topo::{Topology, Torus};

    fn ev(time_s: f64, link: u32, action: FaultAction) -> FaultEvent {
        FaultEvent {
            time_s,
            link,
            action,
        }
    }

    #[test]
    fn schedule_sorts_events() {
        let s = FaultSchedule::new(vec![
            ev(2.0, 1, FaultAction::Up),
            ev(0.5, 0, FaultAction::Down),
            ev(1.0, 1, FaultAction::Down),
        ])
        .unwrap();
        let times: Vec<f64> = s.events().iter().map(|e| e.time_s).collect();
        assert_eq!(times, vec![0.5, 1.0, 2.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn negative_or_nan_times_rejected() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let err = FaultSchedule::new(vec![ev(bad, 0, FaultAction::Down)]).unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig { ref field, .. } if field == "fault.time_s"),
                "{err:?}"
            );
        }
    }

    #[test]
    fn out_of_range_link_rejected_against_network() {
        let t = Torus::new(&[4]);
        let s = FaultSchedule::new(vec![ev(1.0, 9999, FaultAction::Down)]).unwrap();
        let err = s.validate_for(t.network()).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidConfig { ref field, .. } if field == "fault.link"),
            "{err:?}"
        );
    }

    #[test]
    fn failed_links_are_validated_like_events() {
        let t = Torus::new(&[4]);
        let s = FaultSchedule::empty().with_failed_links([LinkId(9999)]);
        let err = s.validate_for(t.network()).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidConfig { ref field, .. } if field == "fault.failed_link"),
            "{err:?}"
        );
        let s = FaultSchedule::empty().with_failed_links([LinkId(3), LinkId(1), LinkId(3)]);
        assert_eq!(s.failed_links(), [1, 3]);
        s.validate_for(t.network()).unwrap();
        // A schedule without run-long failures serialises as before, and
        // old schedules load.
        let json = serde_json::to_string(&FaultSchedule::empty()).unwrap();
        assert_eq!(json, r#"{"events":[]}"#);
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, FaultSchedule::empty());
    }

    #[test]
    fn random_cable_failures_are_deterministic_duplex_cables() {
        let t = Torus::new(&[4, 4, 2]);
        let net = t.network();
        let cut = random_cable_failures(net, 4, 7);
        assert_eq!(cut, random_cable_failures(net, 4, 7));
        assert_eq!(cut.len(), 4);
        for &(fwd, rev) in &cut {
            let (a, b) = (net.link(fwd), net.link(rev.unwrap()));
            assert_eq!((a.src, a.dst), (b.dst, b.src));
        }
        // A larger count cuts a superset: the same shuffled order.
        assert_eq!(random_cable_failures(net, 8, 7)[..4], cut[..]);
    }

    #[test]
    fn random_cable_failures_never_isolate_a_node() {
        // A 2x2 torus has far fewer than 100 safely removable cables: the
        // shortfall shows in the length, and no node lost its last link.
        let t = Torus::new(&[2, 2]);
        let net = t.network();
        let cut = random_cable_failures(net, 100, 3);
        assert!(cut.len() < 100);
        let failed: Vec<LinkId> = cut
            .iter()
            .flat_map(|&(f, r)| [Some(f), r])
            .flatten()
            .collect();
        for node in 0..net.num_nodes() as u32 {
            let surviving = net
                .out_links(exaflow_netgraph::NodeId(node))
                .iter()
                .filter(|l| !failed.contains(l))
                .count();
            assert!(surviving >= 1, "node {node} was isolated");
        }
    }

    #[test]
    fn random_schedule_deterministic_in_seed() {
        let t = Torus::new(&[4, 4]);
        let spec = FaultScheduleSpec::Random {
            seed: 42,
            rate_per_s: 3.0,
            horizon_s: 5.0,
            repair_s: Some(0.5),
        };
        let a = spec.build(t.network()).unwrap();
        let b = spec.build(t.network()).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Downs and ups pair off (every failure is repaired).
        let downs = a
            .events()
            .iter()
            .filter(|e| e.action == FaultAction::Down)
            .count();
        let ups = a
            .events()
            .iter()
            .filter(|e| e.action == FaultAction::Up)
            .count();
        assert_eq!(downs, ups);
    }

    #[test]
    fn zero_rate_is_empty_schedule() {
        let t = Torus::new(&[4, 4]);
        let spec = FaultScheduleSpec::Random {
            seed: 1,
            rate_per_s: 0.0,
            horizon_s: 100.0,
            repair_s: None,
        };
        assert!(spec.build(t.network()).unwrap().is_empty());
    }

    #[test]
    fn runaway_rate_is_typed_error() {
        let t = Torus::new(&[4]);
        let spec = FaultScheduleSpec::Random {
            seed: 1,
            rate_per_s: 1e9,
            horizon_s: 1e9,
            repair_s: None,
        };
        assert!(spec.build(t.network()).is_err());
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = FaultScheduleSpec::Random {
            seed: 7,
            rate_per_s: 0.25,
            horizon_s: 10.0,
            repair_s: None,
        };
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"mode\":\"random\""), "{json}");
        let back: FaultScheduleSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);

        let spec = FaultScheduleSpec::Explicit {
            events: vec![ev(1.5, 3, FaultAction::Down), ev(2.5, 3, FaultAction::Up)],
        };
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"action\":\"down\""), "{json}");
        let back: FaultScheduleSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn policy_serde_is_snake_case_string() {
        for p in RecoveryPolicy::ALL {
            let json = serde_json::to_string(&p).unwrap();
            assert_eq!(json, format!("\"{}\"", p.name()));
            let back: RecoveryPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, p);
        }
    }
}
