//! Checkpoint load/save model (§5.10).
//!
//! The paper trains on an all-NVMe shared parallel filesystem. Checkpoint
//! I/O is bulk-bandwidth-bound: loads saturate the filesystem's peak read
//! bandwidth (1 TB/s on Selene); saves reach a fraction of peak write
//! bandwidth (the paper observed 40 %, 273 GB/s) because write traffic
//! funnels through fewer concurrent streams.

use crate::model::{memory, GptConfig};

/// Shared parallel filesystem characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilesystemSpec {
    /// Peak aggregate read bandwidth, B/s.
    pub peak_read_bandwidth: f64,
    /// Peak aggregate write bandwidth, B/s.
    pub peak_write_bandwidth: f64,
    /// Fraction of peak write bandwidth checkpoint saves achieve.
    pub write_efficiency: f64,
    /// Per-node read bandwidth limit (NIC + local path), B/s.
    pub per_node_read_bandwidth: f64,
}

impl FilesystemSpec {
    /// Selene's all-NVMe Lustre-like filesystem.
    pub fn selene() -> Self {
        FilesystemSpec {
            peak_read_bandwidth: 1e12,
            peak_write_bandwidth: 683e9, // 273 GB/s observed at 40 % of peak
            write_efficiency: 0.40,
            per_node_read_bandwidth: 2.0 * 21.5e9, // two dedicated storage HCAs
        }
    }
}

/// Checkpoint I/O estimates for one model on one cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointIo {
    /// Checkpoint size, bytes.
    pub bytes: u64,
    /// Time for all nodes to load it, seconds.
    pub load_seconds: f64,
    /// Achieved aggregate read bandwidth, B/s.
    pub read_bandwidth: f64,
    /// Time to save it, seconds.
    pub save_seconds: f64,
    /// Achieved aggregate write bandwidth, B/s.
    pub write_bandwidth: f64,
}

impl CheckpointIo {
    /// Estimate checkpoint I/O for `model` loaded by `n_nodes` nodes.
    pub fn estimate(model: &GptConfig, fs: &FilesystemSpec, n_nodes: usize) -> Self {
        let bytes = memory::checkpoint_bytes(model);
        let read_bw = fs
            .peak_read_bandwidth
            .min(n_nodes as f64 * fs.per_node_read_bandwidth);
        let write_bw = fs.peak_write_bandwidth * fs.write_efficiency;
        CheckpointIo {
            bytes,
            load_seconds: bytes as f64 / read_bw,
            read_bandwidth: read_bw,
            save_seconds: bytes as f64 / write_bw,
            write_bandwidth: write_bw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::zoo;

    #[test]
    fn trillion_model_matches_section_5_10() {
        let io = CheckpointIo::estimate(&zoo::gpt_1t(), &FilesystemSpec::selene(), 384);
        // 13.8 TB checkpoint.
        assert!((io.bytes as f64 / 1e12 - 13.8).abs() < 0.6);
        // Load saturates the 1 TB/s filesystem peak.
        assert!((io.read_bandwidth - 1e12).abs() < 1e9);
        // Save achieves 273 GB/s.
        assert!((io.write_bandwidth - 273e9).abs() / 273e9 < 0.01);
        // ⇒ ~14 s load, ~50 s save.
        assert!(io.load_seconds > 10.0 && io.load_seconds < 20.0);
        assert!(io.save_seconds > 40.0 && io.save_seconds < 60.0);
    }

    #[test]
    fn few_nodes_cannot_saturate_reads() {
        let io = CheckpointIo::estimate(&zoo::gpt_1t(), &FilesystemSpec::selene(), 4);
        assert!(io.read_bandwidth < 0.5e12);
    }
}
