//! LUT-DLA: a Look-Up Table deep learning accelerator framework
//! (reproduction of the HPCA 2025 paper).
//!
//! This crate is the user-facing facade over the workspace:
//!
//! * **Algorithm stack** — re-exports `lutdla-vq` (product quantization,
//!   LUT construction, approximate GEMM) and `lutdla-lutboost` (the
//!   multistage model converter).
//! * **Hardware stack** — re-exports `lutdla-hwmodel` (area/power models),
//!   `lutdla-sim` (the cycle-accurate CCM/IMM simulator), and
//!   `lutdla-baselines` (NVDLA/Gemmini/PQA comparators).
//! * **Co-design** — re-exports `lutdla-dse` (Algorithm 2 search, the
//!   Table VII design points) and provides end-to-end glue:
//!   [`simulate_workload`], [`end_to_end`].
//!
//! # Quickstart
//!
//! ```
//! use lutdla_core::prelude::*;
//!
//! // Approximate a GEMM with lookup tables…
//! use rand::{rngs::StdRng, SeedableRng};
//! let mut rng = StdRng::seed_from_u64(0);
//! let a = Tensor::rand_uniform(&mut rng, &[64, 32], -1.0, 1.0);
//! let b = Tensor::rand_uniform(&mut rng, &[32, 16], -1.0, 1.0);
//! let pq = ProductQuantizer::fit(&a, 4, 16, Distance::L1, &mut rng);
//! let lut = LutTable::build(&pq, &b, LutQuant::Int8);
//! let approx = approx_matmul(&a, &pq, &lut);
//!
//! // …and estimate how fast Design 1 executes it.
//! let report = simulate_gemm(&design1().sim_config(), &Gemm::new(64, 32, 16));
//! assert!(report.cycles > 0 && approx.dims() == [64, 16]);
//! ```

mod framework;
mod table;

pub use framework::{
    distance_to_metric, end_to_end, metric_to_distance, simulate_workload, workload_gemms, EndToEnd,
};
pub use table::{fnum, TextTable};

/// Convenient single-import surface for examples and benches.
pub mod prelude {
    pub use crate::framework::{
        distance_to_metric, end_to_end, metric_to_distance, simulate_workload, workload_gemms,
    };
    pub use crate::table::{fnum, TextTable};
    pub use lutdla_baselines::{
        nvdla_gemm, nvdla_model, pqa_onchip_bytes, simulate_pqa, systolic_gemm, systolic_model,
        table8_specs, NvdlaConfig, SystolicConfig,
    };
    pub use lutdla_dse::{
        all_designs, design1, design2, design3, search, Constraints, SearchSpace, SurrogateAccuracy,
    };
    pub use lutdla_hwmodel::{
        design_cost, DesignCost, LutDlaHwConfig, Metric, NumFormat, TechNode,
    };
    pub use lutdla_lutboost::{
        convert_and_train_images, convert_and_train_seq, eval_images_deployed, eval_seq_deployed,
        lut_layers, lutify_convnet, lutify_transformer, undeploy_units, CentroidInit,
        ConvertPolicy, DecodeSession, DeployConfig, LutConfig, LutRuntime, ModelSession,
        RuntimeOptions, ServeError, SessionBuilder, Strategy, TrainSchedule, UnitPlan,
    };
    pub use lutdla_models::trainable::ServableModel;
    pub use lutdla_models::{zoo, GemmDims, LayerShape, Workload};
    pub use lutdla_nn::{Graph, ParamSet};
    pub use lutdla_sim::{
        analytic_cycles, simulate_gemm, Dataflow, DataflowParams, Gemm, SimConfig, SimReport,
    };
    pub use lutdla_tensor::Tensor;
    pub use lutdla_vq::{
        approx_matmul, BatchOptions, Distance, EngineStage, LutQuant, LutTable, ProductQuantizer,
        ServeTiming, StageStats,
    };
}
