//! The programming-model ports.
//!
//! One module per port, mirroring the paper's §3 ("Design, Development,
//! and Findings"): each port expresses the same kernels in its model's
//! idiom, against its model's data containers, charged with its model's
//! cost profile. The `tile` port is the odd one out: it runs the serial
//! reference's arithmetic on one rank's tile of a distributed run.

pub mod common;
pub mod cuda;
pub mod directive;
pub mod kokkos;
pub mod omp3;
pub mod opencl;
pub mod raja;
pub mod serial;
pub mod tile;

use std::fmt;

use simdev::DeviceSpec;

use crate::kernels::TeaLeafPort;
use crate::model_id::ModelId;
use crate::problem::Problem;

/// Why a port could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum PortError {
    /// Table 1: the model has no implementation for this device.
    Unsupported {
        model: ModelId,
        device: &'static str,
    },
    /// The deck failed [`tea_core::config::TeaConfig::validate`].
    InvalidConfig(tea_core::config::InvalidConfig),
}

impl fmt::Display for PortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortError::Unsupported { model, device } => {
                write!(
                    f,
                    "{} has no implementation for the {} (paper Table 1)",
                    model.label(),
                    device
                )
            }
            PortError::InvalidConfig(err) => write!(f, "invalid deck: {err}"),
        }
    }
}

impl std::error::Error for PortError {}

impl From<tea_core::config::InvalidConfig> for PortError {
    fn from(err: tea_core::config::InvalidConfig) -> Self {
        PortError::InvalidConfig(err)
    }
}

/// Construct the port for `model` on `device`, pre-loaded with
/// `problem`'s initial fields. Fails for combinations Table 1 marks
/// unsupported.
pub fn make_port(
    model: ModelId,
    device: DeviceSpec,
    problem: &Problem,
    seed: u64,
) -> Result<Box<dyn TeaLeafPort>, PortError> {
    if model.supports(device.kind).is_none() {
        return Err(PortError::Unsupported {
            model,
            device: device.kind.name(),
        });
    }
    Ok(match model {
        ModelId::Serial => Box::new(serial::SerialPort::new(device, problem, seed)),
        ModelId::Omp3F90 | ModelId::Omp3Cpp => {
            Box::new(omp3::Omp3Port::new(model, device, problem, seed))
        }
        ModelId::Omp4 | ModelId::OpenAcc => {
            Box::new(directive::DirectivePort::new(model, device, problem, seed))
        }
        ModelId::Kokkos | ModelId::KokkosHP => {
            Box::new(kokkos::KokkosPort::new(model, device, problem, seed))
        }
        ModelId::Raja | ModelId::RajaSimd => {
            Box::new(raja::RajaPort::new(model, device, problem, seed))
        }
        ModelId::OpenCl => Box::new(opencl::OpenClPort::new(device, problem, seed)),
        ModelId::Cuda => Box::new(cuda::CudaPort::new(device, problem, seed)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::devices;
    use tea_core::config::TeaConfig;

    #[test]
    fn unsupported_combinations_fail() {
        let problem = Problem::from_config(&TeaConfig::paper_problem(16)).expect("valid config");
        let err = make_port(ModelId::Cuda, devices::cpu_xeon_e5_2670_x2(), &problem, 1);
        assert!(err.is_err());
        let err = make_port(ModelId::Raja, devices::gpu_k20x(), &problem, 1);
        let Err(e) = err else {
            panic!("RAJA on GPU must be unsupported")
        };
        let msg = format!("{e}");
        assert!(msg.contains("RAJA") && msg.contains("gpu"));
    }

    #[test]
    fn every_supported_combination_constructs() {
        let problem = Problem::from_config(&TeaConfig::paper_problem(8)).expect("valid config");
        for device in devices::paper_devices() {
            for model in ModelId::ALL {
                let result = make_port(model, device.clone(), &problem, 1);
                assert_eq!(
                    result.is_ok(),
                    model.supports(device.kind).is_some(),
                    "{model:?} on {}",
                    device.name
                );
            }
        }
    }
}
