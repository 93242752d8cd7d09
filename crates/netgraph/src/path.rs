//! Path validation helpers.
//!
//! Routing functions return paths as sequences of link ids. These helpers
//! verify that such a sequence actually connects a source endpoint to a
//! destination endpoint through the network — the central invariant that the
//! topology property tests exercise.

use crate::ids::{LinkId, NodeId};
use crate::network::Network;

/// Why a path failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The path is empty but the source differs from the destination.
    EmptyButDistinct { src: NodeId, dst: NodeId },
    /// Link `link` does not start where the previous one ended.
    Discontinuous {
        position: usize,
        link: LinkId,
        expected_src: NodeId,
        actual_src: NodeId,
    },
    /// The final link does not end at the destination.
    WrongDestination { last: NodeId, dst: NodeId },
    /// The path visits the same node twice (routing loop).
    Loop { node: NodeId },
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::EmptyButDistinct { src, dst } => {
                write!(f, "empty path but {src} != {dst}")
            }
            PathError::Discontinuous {
                position,
                link,
                expected_src,
                actual_src,
            } => write!(
                f,
                "link {link} at position {position} starts at {actual_src}, expected {expected_src}"
            ),
            PathError::WrongDestination { last, dst } => {
                write!(f, "path ends at {last}, expected {dst}")
            }
            PathError::Loop { node } => write!(f, "path revisits node {node}"),
        }
    }
}

impl std::error::Error for PathError {}

/// Validate that `path` is a loop-free walk from `src` to `dst` in `net`.
///
/// An empty path is valid iff `src == dst` (self-traffic is delivered
/// locally without touching the network).
pub fn validate_path(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    path: &[LinkId],
) -> Result<(), PathError> {
    if path.is_empty() {
        return if src == dst {
            Ok(())
        } else {
            Err(PathError::EmptyButDistinct { src, dst })
        };
    }
    let mut visited = std::collections::HashSet::with_capacity(path.len() + 1);
    visited.insert(src);
    let mut at = src;
    for (i, &lid) in path.iter().enumerate() {
        let link = net.link(lid);
        if link.src != at {
            return Err(PathError::Discontinuous {
                position: i,
                link: lid,
                expected_src: at,
                actual_src: link.src,
            });
        }
        at = link.dst;
        if !visited.insert(at) {
            return Err(PathError::Loop { node: at });
        }
    }
    if at != dst {
        return Err(PathError::WrongDestination { last: at, dst });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    fn line3() -> (Network, Vec<NodeId>) {
        let mut b = NetworkBuilder::new();
        let eps: Vec<NodeId> = (0..3).map(|_| b.add_endpoint()).collect();
        b.add_duplex(eps[0], eps[1]);
        b.add_duplex(eps[1], eps[2]);
        (b.build(), eps)
    }

    #[test]
    fn valid_path_ok() {
        let (net, eps) = line3();
        let l01 = net.find_link(eps[0], eps[1]).unwrap();
        let l12 = net.find_link(eps[1], eps[2]).unwrap();
        assert!(validate_path(&net, eps[0], eps[2], &[l01, l12]).is_ok());
    }

    #[test]
    fn empty_path_self_ok() {
        let (net, eps) = line3();
        assert!(validate_path(&net, eps[1], eps[1], &[]).is_ok());
    }

    #[test]
    fn empty_path_distinct_fails() {
        let (net, eps) = line3();
        assert_eq!(
            validate_path(&net, eps[0], eps[1], &[]),
            Err(PathError::EmptyButDistinct {
                src: eps[0],
                dst: eps[1]
            })
        );
    }

    #[test]
    fn discontinuous_fails() {
        let (net, eps) = line3();
        let l12 = net.find_link(eps[1], eps[2]).unwrap();
        let err = validate_path(&net, eps[0], eps[2], &[l12]).unwrap_err();
        assert!(matches!(err, PathError::Discontinuous { .. }));
    }

    #[test]
    fn wrong_destination_fails() {
        let (net, eps) = line3();
        let l01 = net.find_link(eps[0], eps[1]).unwrap();
        let err = validate_path(&net, eps[0], eps[2], &[l01]).unwrap_err();
        assert_eq!(
            err,
            PathError::WrongDestination {
                last: eps[1],
                dst: eps[2]
            }
        );
    }

    #[test]
    fn loop_detected() {
        let (net, eps) = line3();
        let l01 = net.find_link(eps[0], eps[1]).unwrap();
        let l10 = net.find_link(eps[1], eps[0]).unwrap();
        let l01b = l01;
        let err = validate_path(&net, eps[0], eps[1], &[l01, l10, l01b]).unwrap_err();
        assert!(matches!(err, PathError::Loop { .. }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = PathError::WrongDestination {
            last: NodeId(3),
            dst: NodeId(5),
        };
        assert!(e.to_string().contains("n3"));
        assert!(e.to_string().contains("n5"));
    }
}
