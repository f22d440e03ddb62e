//! The simulated interconnect: nodes, links, runtime reconfiguration.
//!
//! Models the communication fabric the paper's energy argument ranges
//! over — from "other sockets on the same board" to cluster nodes — plus
//! the HAEC project's headline feature: "high-bandwidth, short-range
//! wireless and optical links to dynamically configure the topology of
//! the computer during runtime" (§III). Links can be brought up or
//! replaced at runtime and each carries bandwidth, latency,
//! energy-per-byte and a static power draw that is paid while the link
//! is up.

use haec_energy::units::{ByteCount, Joules, Watts};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Identifier of a node (a socket or a machine, depending on scale).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The technology class of a link, with 2013-flavoured defaults.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Socket-to-socket on one board (QPI-class).
    IntraBoard,
    /// 10 GbE within a rack.
    Ethernet10G,
    /// 1 GbE (legacy / management).
    Ethernet1G,
    /// HAEC-style short-range optical express link.
    Optical,
    /// HAEC-style short-range wireless link.
    Wireless,
}

/// Physical parameters of one link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Bytes per second.
    pub bandwidth: f64,
    /// One-way propagation + stack latency.
    pub latency: Duration,
    /// Dynamic energy per byte (picojoules) across both endpoints.
    pub pj_per_byte: f64,
    /// Power drawn while the link is enabled, even if idle.
    pub idle_w: f64,
}

impl LinkSpec {
    /// Defaults for a technology class.
    pub fn default_for(class: LinkClass) -> LinkSpec {
        match class {
            LinkClass::IntraBoard => LinkSpec {
                bandwidth: 12.8e9,
                latency: Duration::from_nanos(300),
                pj_per_byte: 5.0,
                idle_w: 2.0,
            },
            LinkClass::Ethernet10G => LinkSpec {
                bandwidth: 10.0e9 / 8.0,
                latency: Duration::from_micros(30),
                pj_per_byte: 40.0,
                idle_w: 4.0,
            },
            LinkClass::Ethernet1G => LinkSpec {
                bandwidth: 1.0e9 / 8.0,
                latency: Duration::from_micros(60),
                pj_per_byte: 120.0,
                idle_w: 1.5,
            },
            LinkClass::Optical => LinkSpec {
                bandwidth: 40.0e9 / 8.0,
                latency: Duration::from_micros(2),
                pj_per_byte: 8.0,
                idle_w: 6.0,
            },
            LinkClass::Wireless => LinkSpec {
                bandwidth: 4.0e9 / 8.0,
                latency: Duration::from_micros(10),
                pj_per_byte: 250.0,
                idle_w: 3.0,
            },
        }
    }

    /// Time to move `bytes` across the link (latency + serialization).
    pub fn transfer_time(&self, bytes: ByteCount) -> Duration {
        self.latency + Duration::from_secs_f64(bytes.bytes() as f64 / self.bandwidth)
    }

    /// Dynamic energy to move `bytes`.
    pub fn transfer_energy(&self, bytes: ByteCount) -> Joules {
        Joules::new(bytes.bytes() as f64 * self.pj_per_byte * 1e-12)
    }
}

/// A link instance in a topology.
#[derive(Clone, Debug, PartialEq)]
pub struct Link {
    /// Technology class.
    pub class: LinkClass,
    /// Physical parameters.
    pub spec: LinkSpec,
}

/// A reconfigurable point-to-point topology.
///
/// ```
/// use haec_net::topology::{LinkClass, NodeId, Topology};
/// use haec_energy::units::ByteCount;
///
/// let mut t = Topology::new(4);
/// t.connect(NodeId(0), NodeId(1), LinkClass::Ethernet10G);
/// let time = t.best_spec(NodeId(0), NodeId(1)).unwrap().transfer_time(ByteCount::from_mib(1));
/// assert!(time.as_micros() > 800); // ~1 MiB over 1.25 GB/s
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    nodes: u32,
    links: HashMap<(NodeId, NodeId), Link>,
}

impl Topology {
    /// Creates a topology of `nodes` unconnected nodes.
    pub fn new(nodes: u32) -> Self {
        Topology { nodes, links: HashMap::new() }
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Adds (or replaces) a bidirectional link of `class`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, class: LinkClass) {
        self.connect_with(a, b, class, LinkSpec::default_for(class));
    }

    /// Adds (or replaces) a link with explicit parameters.
    fn connect_with(&mut self, a: NodeId, b: NodeId, class: LinkClass, spec: LinkSpec) {
        assert!(a.0 < self.nodes && b.0 < self.nodes, "node out of range");
        assert_ne!(a, b, "no self links");
        self.links.insert(Self::key(a, b), Link { class, spec });
    }

    /// Looks a link up.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<&Link> {
        self.links.get(&Self::key(a, b))
    }

    /// Total idle power of all links — what an express link costs
    /// while it is up.
    pub fn idle_power(&self) -> Watts {
        Watts::new(self.links.values().map(|l| l.spec.idle_w).sum())
    }

    /// The spec of the link between two nodes, if any — what the
    /// shipping decision costs a transfer over after reconfiguration.
    pub fn best_spec(&self, a: NodeId, b: NodeId) -> Option<&LinkSpec> {
        self.link(a, b).map(|l| &l.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_and_transfer() {
        let mut t = Topology::new(2);
        t.connect(NodeId(0), NodeId(1), LinkClass::Ethernet10G);
        let spec = t.best_spec(NodeId(0), NodeId(1)).unwrap();
        let time = spec.transfer_time(ByteCount::from_mib(125));
        // 125 MiB over 1.25 GB/s ≈ 105 ms.
        assert!(time.as_millis() > 100 && time.as_millis() < 120, "{time:?}");
        // 125 MiB at 40 pJ/B ≈ 5.2 mJ.
        let energy = spec.transfer_energy(ByteCount::from_mib(125)).joules();
        assert!((energy - 125.0 * 1024.0 * 1024.0 * 40e-12).abs() < 1e-12, "{energy}");
    }

    #[test]
    fn links_are_bidirectional() {
        let mut t = Topology::new(2);
        t.connect(NodeId(1), NodeId(0), LinkClass::Optical);
        assert!(t.link(NodeId(0), NodeId(1)).is_some());
        assert_eq!(t.best_spec(NodeId(1), NodeId(0)), t.best_spec(NodeId(0), NodeId(1)));
    }

    #[test]
    fn reconfiguration_toggles_links() {
        // Bringing up an express link over a pair replaces its link.
        let mut t = Topology::new(2);
        assert!(t.best_spec(NodeId(0), NodeId(1)).is_none());
        t.connect(NodeId(0), NodeId(1), LinkClass::Wireless);
        assert_eq!(t.link(NodeId(0), NodeId(1)).unwrap().class, LinkClass::Wireless);
        t.connect(NodeId(1), NodeId(0), LinkClass::Optical);
        assert_eq!(t.link(NodeId(0), NodeId(1)).unwrap().class, LinkClass::Optical);
        assert_eq!(t.best_spec(NodeId(0), NodeId(1)), Some(&LinkSpec::default_for(LinkClass::Optical)));
    }

    #[test]
    fn idle_power_tracks_enabled_links() {
        let mut t = Topology::new(3);
        t.connect(NodeId(0), NodeId(1), LinkClass::Optical); // 6 W
        t.connect(NodeId(1), NodeId(2), LinkClass::Ethernet10G); // 4 W
        assert!((t.idle_power().watts() - 10.0).abs() < 1e-12);
        t.connect(NodeId(0), NodeId(1), LinkClass::Wireless); // 3 W
        assert!((t.idle_power().watts() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn class_speed_ordering() {
        // Optical fastest for bulk; intra-board fastest overall; 1GbE slowest.
        let mib = ByteCount::from_mib(64);
        let t_board = LinkSpec::default_for(LinkClass::IntraBoard).transfer_time(mib);
        let t_opt = LinkSpec::default_for(LinkClass::Optical).transfer_time(mib);
        let t_10g = LinkSpec::default_for(LinkClass::Ethernet10G).transfer_time(mib);
        let t_1g = LinkSpec::default_for(LinkClass::Ethernet1G).transfer_time(mib);
        assert!(t_board < t_opt && t_opt < t_10g && t_10g < t_1g);
    }

    #[test]
    #[should_panic(expected = "no self links")]
    fn self_link_panics() {
        Topology::new(2).connect(NodeId(1), NodeId(1), LinkClass::Optical);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_panics() {
        Topology::new(2).connect(NodeId(0), NodeId(5), LinkClass::Optical);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", NodeId(2)), "node2");
    }
}
