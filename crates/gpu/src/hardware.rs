//! GPU hardware specifications.

/// A GPU's relevant capabilities for the roofline model.
///
/// `compute_efficiency` and `memory_efficiency` are the achievable fractions
/// of peak (MFU/MBU); they are calibration constants chosen so the FP16
/// baseline lands near the paper's measured throughput on the same hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"A6000"`.
    pub name: String,
    /// Peak FP16 tensor-core throughput in TFLOPS.
    pub fp16_tflops: f64,
    /// Peak memory bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Device memory capacity in GiB.
    pub hbm_gib: f64,
    /// Inter-GPU interconnect bandwidth in GB/s (per direction).
    pub interconnect_gbs: f64,
    /// Achievable fraction of peak compute (model-FLOPs utilization).
    pub compute_efficiency: f64,
    /// Achievable fraction of peak bandwidth (memory-bandwidth utilization).
    pub memory_efficiency: f64,
    /// Fixed latency of a collective (all-reduce) launch, seconds.
    pub collective_latency_s: f64,
}

impl GpuSpec {
    /// NVIDIA RTX A6000 (the paper's primary testbed, 4x with NVLink).
    pub fn a6000() -> Self {
        GpuSpec {
            name: "A6000".to_owned(),
            fp16_tflops: 155.0,
            mem_bw_gbs: 768.0,
            hbm_gib: 48.0,
            interconnect_gbs: 112.5,
            compute_efficiency: 0.62,
            memory_efficiency: 0.62,
            collective_latency_s: 12e-6,
        }
    }

    /// NVIDIA H800 (the paper's Figure 2 testbed for LLaMA-70B).
    pub fn h800() -> Self {
        GpuSpec {
            name: "H800".to_owned(),
            fp16_tflops: 990.0,
            mem_bw_gbs: 3350.0,
            hbm_gib: 80.0,
            interconnect_gbs: 200.0,
            compute_efficiency: 0.55,
            memory_efficiency: 0.65,
            collective_latency_s: 10e-6,
        }
    }

    /// Effective compute rate in FLOP/s.
    pub fn effective_flops(&self) -> f64 {
        self.fp16_tflops * 1e12 * self.compute_efficiency
    }

    /// Effective memory bandwidth in bytes/s.
    pub fn effective_bandwidth(&self) -> f64 {
        self.mem_bw_gbs * 1e9 * self.memory_efficiency
    }

    /// Device memory capacity in bytes.
    pub fn hbm_bytes(&self) -> u64 {
        (self.hbm_gib * 1024.0 * 1024.0 * 1024.0) as u64
    }

    /// Roofline time for a kernel touching `bytes` of memory and doing
    /// `flops` floating-point work: the max of its memory and compute time.
    pub fn roofline(&self, bytes: f64, flops: f64) -> f64 {
        (bytes / self.effective_bandwidth()).max(flops / self.effective_flops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h800_dominates_a6000() {
        let a = GpuSpec::a6000();
        let h = GpuSpec::h800();
        assert!(h.effective_flops() > a.effective_flops());
        assert!(h.effective_bandwidth() > a.effective_bandwidth());
        assert!(h.hbm_bytes() > a.hbm_bytes());
    }

    #[test]
    fn roofline_takes_the_max() {
        let g = GpuSpec::a6000();
        // Tiny compute, huge traffic: memory-bound.
        let t_mem = g.roofline(1e9, 1e6);
        assert!((t_mem - 1e9 / g.effective_bandwidth()).abs() < 1e-12);
        // Huge compute, tiny traffic: compute-bound.
        let t_cmp = g.roofline(1e3, 1e13);
        assert!((t_cmp - 1e13 / g.effective_flops()).abs() < 1e-9);
    }

    #[test]
    fn a6000_capacity_is_48_gib() {
        assert_eq!(GpuSpec::a6000().hbm_bytes(), 48 * 1024 * 1024 * 1024);
    }
}
