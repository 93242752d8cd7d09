//! Declarative topology configuration.

use crate::error::ExperimentError;
use exaflow_topo::{
    ConnectionRule, GeneralizedHypercube, KAryTree, Nested, Topology, Torus, UpperTierKind,
};

/// Shorthand for [`ExperimentError::InvalidTopology`].
fn invalid(reason: impl Into<String>) -> ExperimentError {
    ExperimentError::InvalidTopology {
        reason: reason.into(),
    }
}

/// Hard sanity cap on node counts derived from spec arithmetic: anything
/// this side of a billion routers is a typo, not an exascale design point,
/// and catching it here keeps `build` panic-free on adversarial configs.
const MAX_ENDPOINTS: usize = 1 << 30;

/// Product of a dimension vector, rejecting zero dimensions and overflow
/// with a typed error instead of panicking (or silently wrapping) in the
/// constructor.
fn checked_product(dims: &[u32], what: &str) -> Result<usize, ExperimentError> {
    let mut total: usize = 1;
    for &d in dims {
        if d == 0 {
            return Err(invalid(format!("{what} dimensions must be positive")));
        }
        total = total
            .checked_mul(d as usize)
            .filter(|&t| t <= MAX_ENDPOINTS)
            .ok_or_else(|| invalid(format!("{what} dimensions {dims:?} overflow")))?;
    }
    Ok(total)
}
use serde::{Deserialize, Serialize};

/// Every topology of the study, as tagged configuration data.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "topology", rename_all = "snake_case")]
pub enum TopologySpec {
    /// d-dimensional torus (the paper's `Torus3D` baseline when 3-D).
    Torus { dims: Vec<u32> },
    /// k-ary n-tree fattree, optionally partially populated.
    Fattree {
        k: u32,
        n: u32,
        #[serde(default)]
        endpoints: Option<usize>,
    },
    /// Standalone generalised hypercube.
    Ghc {
        dims: Vec<u32>,
        ports_per_router: u32,
        #[serde(default)]
        endpoints: Option<usize>,
    },
    /// NestTree / NestGHC hybrid: `subtori` subtori of `t³` QFDBs with one
    /// uplink per `u` QFDBs.
    Nested {
        upper: UpperTierKind,
        subtori: u64,
        t: u32,
        u: u32,
    },
}

impl TopologySpec {
    /// Number of endpoints the built topology will have.
    pub fn num_endpoints(&self) -> usize {
        match self {
            TopologySpec::Torus { dims } => dims.iter().map(|&d| d as usize).product(),
            TopologySpec::Fattree { k, n, endpoints } => endpoints.unwrap_or((*k as usize).pow(*n)),
            TopologySpec::Ghc {
                dims,
                ports_per_router,
                endpoints,
            } => endpoints.unwrap_or_else(|| {
                dims.iter().map(|&d| d as usize).product::<usize>() * *ports_per_router as usize
            }),
            TopologySpec::Nested { subtori, t, .. } => (*subtori as usize) * (*t as usize).pow(3),
        }
    }

    /// Instantiate the topology, or explain why the spec is invalid as a
    /// typed [`ExperimentError::InvalidTopology`].
    pub fn build(&self) -> Result<Box<dyn Topology>, ExperimentError> {
        match self {
            TopologySpec::Torus { dims } => {
                if dims.is_empty() {
                    return Err(invalid("torus needs at least one dimension"));
                }
                checked_product(dims, "torus")?;
                Ok(Box::new(Torus::new(dims)))
            }
            TopologySpec::Fattree { k, n, endpoints } => {
                if *k < 2 || *n < 1 {
                    return Err(invalid(format!("invalid fattree parameters k={k}, n={n}")));
                }
                let full = (*k as usize)
                    .checked_pow(*n)
                    .filter(|&e| e <= MAX_ENDPOINTS)
                    .ok_or_else(|| {
                        invalid(format!(
                            "fattree k={k}, n={n}: k^n endpoint count overflows"
                        ))
                    })?;
                let eps = endpoints.unwrap_or(full);
                if eps == 0 || eps > full {
                    return Err(invalid(format!(
                        "fattree k={k}, n={n} hosts 1..={full} endpoints, got {eps}"
                    )));
                }
                Ok(Box::new(KAryTree::with_endpoints(*k, *n, eps)))
            }
            TopologySpec::Ghc {
                dims,
                ports_per_router,
                endpoints,
            } => {
                if dims.is_empty() || *ports_per_router == 0 {
                    return Err(invalid("invalid GHC parameters"));
                }
                let routers = checked_product(dims, "GHC")?;
                let full = routers
                    .checked_mul(*ports_per_router as usize)
                    .filter(|&e| e <= MAX_ENDPOINTS)
                    .ok_or_else(|| invalid("GHC endpoint count overflows"))?;
                let eps = endpoints.unwrap_or(full);
                if eps == 0 || eps > full {
                    return Err(invalid(format!(
                        "GHC {dims:?} x{ports_per_router} hosts 1..={full} endpoints, got {eps}"
                    )));
                }
                Ok(Box::new(GeneralizedHypercube::with_endpoints(
                    dims,
                    *ports_per_router,
                    eps,
                )))
            }
            TopologySpec::Nested {
                upper,
                subtori,
                t,
                u,
            } => {
                let rule = ConnectionRule::from_u(*u)
                    .ok_or_else(|| invalid(format!("u must be 1, 2, 4 or 8, got {u}")))?;
                if *t < 2 {
                    return Err(invalid(format!("subtorus size t={t} must be >= 2")));
                }
                if *subtori == 0 {
                    return Err(invalid("need at least one subtorus"));
                }
                let per_subtorus = (*t as usize)
                    .checked_pow(3)
                    .filter(|&e| e <= MAX_ENDPOINTS)
                    .ok_or_else(|| invalid(format!("subtorus size t={t} overflows")))?;
                if (*subtori as u128) * (per_subtorus as u128) > MAX_ENDPOINTS as u128 {
                    return Err(invalid(format!(
                        "{subtori} subtori of t={t} overflow the endpoint count"
                    )));
                }
                Ok(Box::new(Nested::new(*upper, *subtori, *t, rule)))
            }
        }
    }

    /// The display name the built topology will report.
    pub fn display_name(&self) -> String {
        match self.build() {
            Ok(t) => t.name(),
            Err(e) => format!("<invalid: {e}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every family builds with the endpoint count its spec predicts and
    /// wires every physical link at the one link rate of the study.
    #[test]
    fn builds_every_variant() {
        let specs = [
            TopologySpec::Torus {
                dims: vec![4, 4, 2],
            },
            TopologySpec::Fattree {
                k: 4,
                n: 2,
                endpoints: None,
            },
            TopologySpec::Fattree {
                k: 4,
                n: 3,
                endpoints: Some(40),
            },
            TopologySpec::Ghc {
                dims: vec![4, 4],
                ports_per_router: 2,
                endpoints: None,
            },
            TopologySpec::Nested {
                upper: UpperTierKind::Fattree,
                subtori: 4,
                t: 2,
                u: 4,
            },
            TopologySpec::Nested {
                upper: UpperTierKind::GeneralizedHypercube,
                subtori: 4,
                t: 2,
                u: 2,
            },
        ];
        for s in &specs {
            let topo = s.build().unwrap();
            assert_eq!(topo.num_endpoints(), s.num_endpoints(), "{s:?}");
            // Every link is half of a duplex cable: its reverse exists.
            let net = topo.network();
            assert!(net.num_links() > 0, "{s:?}");
            for l in net.links() {
                assert!(net.find_link(l.dst, l.src).is_some(), "{s:?}: {l:?}");
            }
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(TopologySpec::Torus { dims: vec![] }.build().is_err());
        assert!(TopologySpec::Nested {
            upper: UpperTierKind::Fattree,
            subtori: 4,
            t: 2,
            u: 3,
        }
        .build()
        .is_err());
        assert!(TopologySpec::Nested {
            upper: UpperTierKind::Fattree,
            subtori: 4,
            t: 1,
            u: 1,
        }
        .build()
        .is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let s = TopologySpec::Nested {
            upper: UpperTierKind::GeneralizedHypercube,
            subtori: 64,
            t: 4,
            u: 2,
        };
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"topology\":\"nested\""));
        let back: TopologySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn partial_fattree_endpoint_count() {
        let s = TopologySpec::Fattree {
            k: 4,
            n: 3,
            endpoints: Some(40),
        };
        assert_eq!(s.num_endpoints(), 40);
        assert_eq!(s.build().unwrap().num_endpoints(), 40);
    }
}
