//! Hardware model of the Darwin-WGA accelerator.
//!
//! The paper implements BSW filtering and GACT-X extension on linear
//! systolic arrays, deployed on an AWS F1 FPGA and (via synthesis +
//! place-and-route) a TSMC 40 nm ASIC. This crate substitutes a
//! cycle-level analytical model for the silicon:
//!
//! * [`systolic`] — stripe/wavefront timing shared by both arrays;
//! * [`bsw_array`] — the filter array (equations 4–5 band geometry);
//! * [`gactx_array`] — the extension array, driven by measured DP
//!   workloads;
//! * [`dram`] — DDR4 channel bandwidth and the min(compute, memory)
//!   arbitration the paper uses to provision the ASIC;
//! * [`platform`] — the three platforms of Table VI (CPU, FPGA, ASIC);
//! * [`area`] — the Table IV area/power breakdown from published
//!   constants;
//! * [`perf`] — Table V roll-ups: runtimes, performance/$ and
//!   performance/W.
//!
//! Throughput *ratios* between platforms are the quantity the paper
//! reports; the model reproduces those from first principles plus the
//! paper's published cost and power constants.
//!
//! # Quick start
//!
//! ```
//! use hwsim::platform::AcceleratorConfig;
//!
//! let fpga = AcceleratorConfig::fpga();
//! let tps = fpga.filter_tiles_per_second();
//! // Paper: ~6.25M filter tiles/s on the FPGA.
//! assert!((4.0e6..9.0e6).contains(&tps));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod bsw_array;
pub mod dram;
pub mod gactx_array;
pub mod perf;
pub mod platform;
pub mod rtl;
pub mod rtl_gactx;
pub mod systolic;

pub use perf::{ModeledCycles, RuntimeBreakdown, SoftwareThroughput, Workload};
pub use platform::{AcceleratorConfig, CpuConfig};
