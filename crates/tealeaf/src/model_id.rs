//! Identifiers for the evaluated programming models.

use simdev::DeviceKind;

/// One of the programming-model ports, including the paper's tuning
/// variants (Kokkos HP, RAJA SIMD) and the two OpenMP 3.0 language
/// flavours distinguished in Figure 8.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// Serial reference implementation (testing baseline, not a paper
    /// model), the default.
    #[default]
    Serial,
    /// OpenMP 3.0, the original Fortran 90 codebase (device-tuned
    /// CPU/KNC-native baseline).
    Omp3F90,
    /// OpenMP 3.0, the functionally identical C/C++ port (15 % slower
    /// Chebyshev on CPU with the Intel 15.0.3 compilers, §4.1).
    Omp3Cpp,
    /// OpenMP 4.0 `target` offloading.
    Omp4,
    /// OpenACC `kernels` offloading.
    OpenAcc,
    /// Kokkos, flat-range functors with a loop-body halo guard (§3.3).
    Kokkos,
    /// Kokkos with hierarchical parallelism (Figure 7's `Kokkos HP`).
    KokkosHP,
    /// RAJA with halo-excluding `ListSegment` index sets (§3.4).
    Raja,
    /// RAJA proof-of-concept SIMD variant (§4.1, `RAJA SIMD`).
    RajaSimd,
    /// OpenCL with hand-written work-group reductions (§3.6).
    OpenCl,
    /// CUDA, the device-tuned NVIDIA baseline (§3.5).
    Cuda,
}

impl ModelId {
    /// Figure label used in the paper's plots.
    pub fn label(self) -> &'static str {
        match self {
            ModelId::Serial => "Serial",
            ModelId::Omp3F90 => "OpenMP F90",
            ModelId::Omp3Cpp => "OpenMP C++",
            ModelId::Omp4 => "OpenMP 4.0",
            ModelId::OpenAcc => "OpenACC",
            ModelId::Kokkos => "Kokkos",
            ModelId::KokkosHP => "Kokkos HP",
            ModelId::Raja => "RAJA",
            ModelId::RajaSimd => "RAJA SIMD",
            ModelId::OpenCl => "OpenCL",
            ModelId::Cuda => "CUDA",
        }
    }

    /// Every port, serial included.
    pub const ALL: [ModelId; 11] = [
        ModelId::Serial,
        ModelId::Omp3F90,
        ModelId::Omp3Cpp,
        ModelId::Omp4,
        ModelId::OpenAcc,
        ModelId::Kokkos,
        ModelId::KokkosHP,
        ModelId::Raja,
        ModelId::RajaSimd,
        ModelId::OpenCl,
        ModelId::Cuda,
    ];

    /// Is the model *performance portable* in the paper's categorisation
    /// (§3: cross-platform vs platform-specific)?
    pub fn cross_platform(self) -> bool {
        matches!(
            self,
            ModelId::Omp4
                | ModelId::OpenAcc
                | ModelId::Kokkos
                | ModelId::KokkosHP
                | ModelId::Raja
                | ModelId::RajaSimd
                | ModelId::OpenCl
        )
    }

    /// Device support matrix — Table 1 of the paper.
    ///
    /// Returns `None` if unsupported, or the support label
    /// (`"Yes"`, `"Native"`, `"Offload"`, `"Experimental Offload"`).
    pub fn supports(self, device: DeviceKind) -> Option<&'static str> {
        use DeviceKind::*;
        use ModelId::*;
        match (self, device) {
            (Serial, Cpu) => Some("Yes"),
            (Serial, _) => None,
            (Omp3F90 | Omp3Cpp, Cpu) => Some("Yes"),
            (Omp3F90 | Omp3Cpp, Accelerator) => Some("Native"),
            (Omp3F90 | Omp3Cpp, Gpu) => None,
            (OpenCl, Cpu) | (OpenCl, Gpu) => Some("Yes"),
            (OpenCl, Accelerator) => Some("Offload"),
            (Cuda, Gpu) => Some("Yes"),
            (Cuda, _) => None,
            (Omp4, Cpu) => Some("Yes"),
            (Omp4, Gpu) => Some("Experimental"),
            (Omp4, Accelerator) => Some("Offload"),
            (OpenAcc, Cpu) => Some("Yes"), // PGI 15.10 x86 targeting (§2.2)
            (OpenAcc, Gpu) => Some("Yes"),
            (OpenAcc, Accelerator) => None,
            (Kokkos | KokkosHP, Cpu) | (Kokkos | KokkosHP, Gpu) => Some("Yes"),
            (Kokkos | KokkosHP, Accelerator) => Some("Native"),
            (Raja | RajaSimd, Cpu) => Some("Yes"),
            (Raja | RajaSimd, Accelerator) => Some("Native"),
            (Raja | RajaSimd, Gpu) => None, // unreleased implementation excluded GPU support (§3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matrix() {
        // Spot checks against Table 1.
        assert_eq!(ModelId::Cuda.supports(DeviceKind::Gpu), Some("Yes"));
        assert_eq!(ModelId::Cuda.supports(DeviceKind::Cpu), None);
        assert_eq!(
            ModelId::Omp3F90.supports(DeviceKind::Accelerator),
            Some("Native")
        );
        assert_eq!(
            ModelId::Omp4.supports(DeviceKind::Accelerator),
            Some("Offload")
        );
        assert_eq!(
            ModelId::OpenCl.supports(DeviceKind::Accelerator),
            Some("Offload")
        );
        assert_eq!(ModelId::Raja.supports(DeviceKind::Gpu), None);
        assert_eq!(ModelId::Kokkos.supports(DeviceKind::Gpu), Some("Yes"));
    }

    #[test]
    fn portability_classes() {
        assert!(!ModelId::Cuda.cross_platform());
        assert!(!ModelId::Omp3F90.cross_platform());
        assert!(ModelId::Kokkos.cross_platform());
        assert!(ModelId::OpenCl.cross_platform());
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = ModelId::ALL.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ModelId::ALL.len());
    }
}
