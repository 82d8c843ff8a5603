//! CPU↔GPU interconnect model.

use serde::{Deserialize, Serialize};

/// Latency + bandwidth line model of the PCIe interconnect.
///
/// The paper's Fig. 5 micro-benchmark (CUDA point-to-point bulk transfer on
/// PCIe 3.0) shows latency increasing almost linearly with message size;
/// that is exactly `time = base_latency + bytes / bandwidth`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferModel {
    /// Fixed per-transfer cost (driver + DMA setup), microseconds.
    pub latency_us: f64,
    /// Sustained bandwidth, GB/s.
    pub bandwidth_gbps: f64,
}

impl TransferModel {
    /// PCIe 3.0 x16: ~10 us setup, ~12 GB/s sustained of the 15.75 GB/s
    /// theoretical peak.
    pub fn pcie3() -> Self {
        TransferModel {
            latency_us: 10.0,
            bandwidth_gbps: 12.0,
        }
    }

    /// Time to move `bytes` one way, microseconds.
    pub fn time_us(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        self.latency_us + bytes / (self.bandwidth_gbps * 1e3)
    }

    /// Effective bandwidth achieved for a message of `bytes`, GB/s —
    /// the second series of Fig. 5.
    pub fn effective_bandwidth_gbps(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        (bytes / 1e3) / self.time_us(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(TransferModel::pcie3().time_us(0.0), 0.0);
    }

    #[test]
    fn latency_linear_in_message_size() {
        let t = TransferModel::pcie3();
        let t1 = t.time_us(1e6);
        let t2 = t.time_us(2e6);
        let t4 = t.time_us(4e6);
        // Equal increments of bytes → equal increments of time.
        assert!(((t2 - t1) - (t4 - t2) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn small_messages_latency_bound() {
        let t = TransferModel::pcie3();
        // 4 KB: essentially pure latency.
        let us = t.time_us(4096.0);
        assert!((us - 10.0).abs() < 1.0, "{us}");
    }

    #[test]
    fn effective_bandwidth_approaches_peak() {
        let t = TransferModel::pcie3();
        let small = t.effective_bandwidth_gbps(4096.0);
        let large = t.effective_bandwidth_gbps(256e6);
        assert!(small < 1.0, "{small}");
        assert!(large > 11.0, "{large}");
        assert!(large <= t.bandwidth_gbps);
    }

    #[test]
    fn transfer_cheap_vs_operator_time() {
        // §III-B: passing operator I/O (a few hundred KB) costs far less
        // than an LSTM/CNN subgraph (milliseconds).
        let t = TransferModel::pcie3();
        let io_bytes = 100.0 * 256.0 * 4.0; // LSTM output at seq 100
        assert!(t.time_us(io_bytes) < 30.0);
    }
}
