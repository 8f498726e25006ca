"""``repro.hardware`` — the Gen-NeRF accelerator and baseline devices.

Cycle-level simulator of the paper's accelerator (Sec. 4-5): DRAM/SRAM
models, feature-storage interleaving, systolic PE pool, preprocessing
and special-function units, the greedy 3D-point-patch workload
scheduler, the composed frame simulator with Fig. 12's ablation
variants, GPU roofline baselines, the ICARUS spec row, and the Table 1
area/power component model.
"""

from .accelerator import (AcceleratorConfig, FrameSimulation,
                          GenNerfAccelerator, variant_config)
from .area_power import (ModuleBudget, PAPER_TABLE1, full_chip_budget,
                         prefetch_buffer_budget, preprocessing_unit_budget,
                         rendering_engine_budget, workload_scheduler_budget)
from .dram import (DramAccessStats, DramBatchStats, DramConfig, DramModel,
                   GDDR6_2080TI, LPDDR4_1600_TX2, LPDDR4_2400)
from .energy import (EnergyReport, dynamic_energy, frame_energy_from_power,
                     typical_chip_power_w)
from .engine import (EngineConfig, PatchCompute, PatchComputeBatch,
                     RenderingEngine, point_network_gemms, ray_module_gemms)
from .gpu_model import (GpuModel, GpuSimulation, GpuSpec, JETSON_TX2,
                        RTX_2080TI)
from .icarus import (AcceleratorSpec, GEN_NERF_SPEC, ICARUS,
                     JETSON_TX2_SPEC, RTX_2080TI_SPEC, TABLE4_PAPER_ROWS)
from .interleave import (FeatureStore, FootprintRegion, LAYOUTS,
                         balance_factor, balance_factors,
                         bank_load_for_footprints, batched_bank_load,
                         regions_as_array)
from .pe_pool import PePool, PePoolConfig, PoolExecution, PoolExecutionBatch
from .preprocessing import PreprocessingConfig, PreprocessingUnit
from .scheduler import (DEFAULT_CANDIDATES, FramePlan, GreedyPatchScheduler,
                        Patch, PatchShape, PlanArrays, SchedulerConfig,
                        fixed_partition)
from .special_function import SfuConfig, SpecialFunctionUnit
from .sram import PrefetchDoubleBuffer, SramBank, SramConfig
from .systolic import (GemmShape, SystolicConfig, gemm_cycles,
                       gemm_cycles_batch, gemm_utilization)
from .units import (ACCELERATOR_FREQ_HZ, DEFAULT_ENERGY, EnergyTable, GB_PER_S,
                    KB, MB, cycles_to_seconds, seconds_to_cycles)

__all__ = [
    "AcceleratorConfig", "FrameSimulation", "GenNerfAccelerator",
    "variant_config",
    "ModuleBudget", "PAPER_TABLE1", "full_chip_budget",
    "workload_scheduler_budget", "preprocessing_unit_budget",
    "rendering_engine_budget", "prefetch_buffer_budget",
    "DramConfig", "DramModel", "DramAccessStats", "DramBatchStats",
    "LPDDR4_2400", "LPDDR4_1600_TX2", "GDDR6_2080TI",
    "EnergyReport", "dynamic_energy", "typical_chip_power_w",
    "frame_energy_from_power",
    "EngineConfig", "RenderingEngine", "PatchCompute", "PatchComputeBatch",
    "point_network_gemms", "ray_module_gemms",
    "GpuModel", "GpuSimulation", "GpuSpec", "RTX_2080TI", "JETSON_TX2",
    "AcceleratorSpec", "ICARUS", "GEN_NERF_SPEC", "JETSON_TX2_SPEC",
    "RTX_2080TI_SPEC", "TABLE4_PAPER_ROWS",
    "FeatureStore", "FootprintRegion", "LAYOUTS", "balance_factor",
    "balance_factors", "bank_load_for_footprints", "batched_bank_load",
    "regions_as_array",
    "PePool", "PePoolConfig", "PoolExecution", "PoolExecutionBatch",
    "PreprocessingConfig", "PreprocessingUnit",
    "GreedyPatchScheduler", "SchedulerConfig", "PatchShape", "Patch",
    "FramePlan", "PlanArrays", "fixed_partition",
    "DEFAULT_CANDIDATES",
    "SfuConfig", "SpecialFunctionUnit",
    "PrefetchDoubleBuffer", "SramBank", "SramConfig",
    "GemmShape", "SystolicConfig", "gemm_cycles", "gemm_cycles_batch",
    "gemm_utilization",
    "EnergyTable", "DEFAULT_ENERGY", "ACCELERATOR_FREQ_HZ", "KB", "MB",
    "GB_PER_S", "cycles_to_seconds", "seconds_to_cycles",
]
