#ifndef TENSORDASH_CORE_TENSORDASH_HH_
#define TENSORDASH_CORE_TENSORDASH_HH_

/**
 * @file
 * Umbrella header: the public API of the TensorDash library.
 *
 * Typical use:
 *
 *   #include "core/tensordash.hh"
 *
 *   tensordash::RunConfig cfg;                 // Table 2 defaults
 *   tensordash::ModelRunner runner(cfg);
 *   auto result = runner.runByName("VGG16");
 *   std::printf("speedup %.2fx\n", result.speedup());
 *
 * Lower-level entry points:
 *   - TensorDashPe / Tile: cycle-level models of the PE and tile
 *   - Dataflow: lower the three training convolutions into tile jobs
 *   - Accelerator: multi-tile simulation with memory traffic + energy
 *   - AreaModel / EnergyModel: Table 3 area/power and energy accounting
 *   - ModelZoo: the paper's workload suite
 */

#include "common/hashing.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/result_store.hh"
#include "core/runner.hh"
#include "core/synth_cache.hh"
#include "models/model_zoo.hh"
#include "sim/accelerator.hh"
#include "sim/area_model.hh"
#include "sim/dataflow.hh"
#include "sim/energy.hh"
#include "sim/estimator.hh"
#include "sim/memory/compressing_dma.hh"
#include "sim/memory/dram.hh"
#include "sim/memory/sram.hh"
#include "sim/memory/transposer.hh"
#include "sim/mux_pattern.hh"
#include "sim/pe.hh"
#include "sim/power_gate.hh"
#include "sim/scheduler.hh"
#include "sim/tile.hh"
#include "sparsity/generator.hh"
#include "sparsity/temporal.hh"
#include "tensor/bfloat16.hh"
#include "tensor/conv_ref.hh"
#include "tensor/tensor.hh"

#endif // TENSORDASH_CORE_TENSORDASH_HH_
