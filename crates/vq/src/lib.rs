//! Vector/product quantization and LUT-based approximate matrix
//! multiplication — the algorithmic core of LUT-DLA.
//!
//! The pipeline mirrors the paper's Fig. 2:
//!
//! 1. [`ProductQuantizer::fit`] — k-means per subspace over calibration
//!    activations (step ➊);
//! 2. [`LutTable::build`] — precompute centroid×weight partial sums
//!    (step ➋);
//! 3. [`approx_matmul`] — encode inputs by similarity search (step ➌) and
//!    accumulate table rows (step ➍).
//!
//! Three similarity metrics ([`Distance::L2`], [`Distance::L1`],
//! [`Distance::Chebyshev`]) and three table precisions ([`LutQuant`]) span
//! the accuracy/hardware-cost design space explored by `lutdla-dse`.
//!
//! # Example
//!
//! ```
//! use lutdla_vq::{approx_matmul, Distance, LutQuant, LutTable, ProductQuantizer};
//! use lutdla_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let activations = Tensor::rand_uniform(&mut rng, &[128, 16], -1.0, 1.0);
//! let weight = Tensor::rand_uniform(&mut rng, &[16, 8], -1.0, 1.0);
//!
//! let pq = ProductQuantizer::fit(&activations, 4, 32, Distance::L1, &mut rng);
//! let lut = LutTable::build(&pq, &weight, LutQuant::Int8);
//! let product = approx_matmul(&activations, &pq, &lut);
//! assert_eq!(product.dims(), &[128, 8]);
//! ```

mod amm;
mod codebook;
mod codes;
mod distance;
mod engine;
mod kmeans;
mod lut;
mod nonlinear;
mod pool;
mod precision;
mod serve;

pub use amm::{
    amm_error, approx_matmul, approx_matmul_from_codes, approx_matmul_with_precision, AmmError,
};
pub use codebook::{Codebook, ProductQuantizer};
pub use codes::{CodeWidth, EncodeMemo, MemoStats, PackedCodes, ROW_BLOCK_ALIGN};
pub use distance::{Distance, ParseDistanceError};
pub use engine::{
    default_workers, EngineError, EngineOptions, LutEngine, TileTables, DEFAULT_TILE_N, MAX_WORKERS,
};
pub use kmeans::{kmeans, KmeansConfig, KmeansResult};
pub use lut::{LutQuant, LutTable};
pub use nonlinear::{Nonlinearity, PiecewiseTable};
pub use pool::{PoolScope, WorkerPool};
pub use precision::{bf16_round, fp16_round, FloatPrecision, Int8Block};
pub use serve::{
    lock_engine, share, BatchOptions, EngineStage, MicroBatcher, Pending, PendingResolver,
    ServeError, ServeTiming, SharedEngine, StageStats,
};
