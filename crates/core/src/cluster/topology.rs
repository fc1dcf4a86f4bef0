//! Node and cluster interconnect description.

use super::GpuSpec;

/// Which physical link class a transfer between two GPUs rides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Same GPU — no transfer needed.
    Local,
    /// Intra-node NVLink/NVSwitch.
    NvLink,
    /// Inter-node InfiniBand.
    InfiniBand,
}

/// A multi-GPU server (the paper's DGX A100).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// GPUs per node (8 on a DGX A100).
    pub gpus_per_node: usize,
    /// Effective NVLink/NVSwitch bandwidth per GPU per direction, B/s.
    /// (A100 NVLink3 via NVSwitch: 300 GB/s raw, ~250 GB/s effective.)
    pub nvlink_bandwidth: f64,
    /// NVLink transfer latency, seconds.
    pub nvlink_latency: f64,
    /// InfiniBand HCAs per node (8 × HDR on a DGX A100).
    pub ib_hcas_per_node: usize,
    /// Effective bandwidth per HCA per direction, B/s
    /// (HDR 200 Gb/s = 25 GB/s raw, ~21.5 GB/s effective).
    pub ib_bandwidth: f64,
    /// InfiniBand end-to-end latency through the fat tree, seconds.
    pub ib_latency: f64,
}

impl NodeSpec {
    /// DGX A100 as deployed in Selene.
    pub fn dgx_a100() -> Self {
        NodeSpec {
            gpus_per_node: 8,
            nvlink_bandwidth: 250e9,
            nvlink_latency: 2.0e-6,
            ib_hcas_per_node: 8,
            ib_bandwidth: 21.5e9,
            ib_latency: 5.0e-6,
        }
    }

    /// Aggregate injection bandwidth of one node into the fat tree, B/s.
    pub fn node_injection_bandwidth(&self) -> f64 {
        self.ib_bandwidth * self.ib_hcas_per_node as f64
    }
}

/// A cluster: `n_nodes` identical nodes in a full-bisection fat tree.
///
/// Selene's three-level (leaf/spine/core) fat tree with 850 switches is
/// modeled as non-blocking: inter-node contention arises only at the HCAs
/// (injection/ejection), which is accurate for a full-bisection topology
/// under the paper's traffic patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Per-GPU compute model.
    pub gpu: GpuSpec,
    /// Per-node interconnect model.
    pub node: NodeSpec,
    /// Number of nodes.
    pub n_nodes: usize,
}

impl ClusterSpec {
    /// A Selene-like cluster with enough DGX A100 nodes for `n_gpus`.
    ///
    /// # Panics
    /// If `n_gpus` is not a positive multiple of 8.
    pub fn selene(n_gpus: usize) -> Self {
        let node = NodeSpec::dgx_a100();
        assert!(
            n_gpus > 0 && n_gpus.is_multiple_of(node.gpus_per_node),
            "n_gpus={n_gpus} must be a positive multiple of {}",
            node.gpus_per_node
        );
        let n_nodes = n_gpus / node.gpus_per_node;
        ClusterSpec {
            gpu: GpuSpec::a100_80gb(),
            node,
            n_nodes,
        }
    }

    /// A cluster with a custom node size (used in tests and ablations).
    pub fn custom(gpu: GpuSpec, node: NodeSpec, n_nodes: usize) -> Self {
        ClusterSpec { gpu, node, n_nodes }
    }

    /// Total number of GPUs.
    pub fn total_gpus(&self) -> usize {
        self.n_nodes * self.node.gpus_per_node
    }

    /// Node index hosting a global GPU rank.
    #[inline]
    pub fn node_of(&self, gpu: usize) -> usize {
        gpu / self.node.gpus_per_node
    }

    /// Index of a GPU within its node.
    #[inline]
    pub fn local_rank(&self, gpu: usize) -> usize {
        gpu % self.node.gpus_per_node
    }

    /// Link class connecting two global GPU ranks.
    pub fn link_class(&self, a: usize, b: usize) -> LinkClass {
        if a == b {
            LinkClass::Local
        } else if self.node_of(a) == self.node_of(b) {
            LinkClass::NvLink
        } else {
            LinkClass::InfiniBand
        }
    }

    /// Point-to-point bandwidth for a link class, B/s (infinite for Local).
    pub fn bandwidth(&self, class: LinkClass) -> f64 {
        match class {
            LinkClass::Local => f64::INFINITY,
            LinkClass::NvLink => self.node.nvlink_bandwidth,
            LinkClass::InfiniBand => self.node.ib_bandwidth,
        }
    }

    /// Point-to-point latency for a link class, seconds (zero for Local).
    pub fn latency(&self, class: LinkClass) -> f64 {
        match class {
            LinkClass::Local => 0.0,
            LinkClass::NvLink => self.node.nvlink_latency,
            LinkClass::InfiniBand => self.node.ib_latency,
        }
    }

    /// Time for one point-to-point message of `bytes` over `class`.
    pub fn p2p_time(&self, class: LinkClass, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        self.latency(class) + bytes / self.bandwidth(class)
    }

    /// Theoretical bisection bandwidth of the inter-node network, B/s:
    /// half the nodes injecting at full rate (full-bisection fat tree).
    pub fn bisection_bandwidth(&self) -> f64 {
        (self.n_nodes as f64 / 2.0) * self.node.node_injection_bandwidth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selene_sizes() {
        let c = ClusterSpec::selene(3072);
        assert_eq!(c.n_nodes, 384);
        assert_eq!(c.total_gpus(), 3072);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn selene_rejects_non_multiple() {
        ClusterSpec::selene(12);
    }

    #[test]
    fn link_classification() {
        let c = ClusterSpec::selene(16);
        assert_eq!(c.link_class(3, 3), LinkClass::Local);
        assert_eq!(c.link_class(0, 7), LinkClass::NvLink);
        assert_eq!(c.link_class(0, 8), LinkClass::InfiniBand);
        assert_eq!(c.link_class(15, 7), LinkClass::InfiniBand);
    }

    #[test]
    fn node_and_local_rank() {
        let c = ClusterSpec::selene(32);
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(8), 1);
        assert_eq!(c.local_rank(13), 5);
    }

    #[test]
    fn p2p_time_orders_links() {
        let c = ClusterSpec::selene(16);
        let bytes = 16.0 * 1024.0 * 1024.0;
        let nv = c.p2p_time(LinkClass::NvLink, bytes);
        let ib = c.p2p_time(LinkClass::InfiniBand, bytes);
        assert!(nv < ib, "NVLink must beat InfiniBand");
        assert_eq!(c.p2p_time(LinkClass::Local, bytes), 0.0);
        assert_eq!(c.p2p_time(LinkClass::InfiniBand, 0.0), 0.0);
    }

    #[test]
    fn selene_bisection_magnitude() {
        // 384 nodes × 8 HCAs × 21.5 GB/s ≈ 66 TB/s injected; bisection ≈ 33 TB/s.
        let c = ClusterSpec::selene(3072);
        let bi = c.bisection_bandwidth();
        assert!(bi > 20e12 && bi < 50e12, "got {bi}");
    }
}
