#include "sim/accelerator.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "sim/memory/compressing_dma.hh"
#include "sim/memory/transposer.hh"

namespace tensordash {

void
AcceleratorConfig::hashInto(FnvHasher &h) const
{
    h.i64(tiles);
    tile.hashInto(h);
    h.i64((int)dtype);
    h.f64(freq_ghz);
    dram.hashInto(h);
    energy.hashInto(h);
    h.i64((int)memory_model);
    mem_pipeline.hashInto(h);
    h.u64(max_sampled_macs);
    h.u64(seed);
    h.b(power_gating);
    h.f64(gate_min_sparsity);
    h.i64((int)fwd_side);
    h.i64((int)bwd_data_side);
    h.i64((int)wg_side);
}

uint64_t
AcceleratorConfig::fingerprint() const
{
    FnvHasher h;
    hashInto(h);
    return h.value();
}

AcceleratorConfig
AcceleratorConfig::arrayConfig() const
{
    const AcceleratorConfig defaults;
    AcceleratorConfig a = *this;
    a.tiles = defaults.tiles;
    a.dtype = defaults.dtype;
    a.freq_ghz = defaults.freq_ghz;
    a.dram = defaults.dram;
    a.energy = defaults.energy;
    a.memory_model = defaults.memory_model;
    a.mem_pipeline = defaults.mem_pipeline;
    return a;
}

void
OpResult::serialize(ByteWriter &w) const
{
    w.u8((uint8_t)op);
    w.f64(base_cycles);
    w.f64(td_cycles);
    w.f64(base_mem_stall_cycles);
    w.f64(td_mem_stall_cycles);
    w.b(memory_bound);
    w.f64(b_nonzero_slots);
    w.f64(b_total_slots);
    w.f64(mac_slots);
    activity.serialize(w);
    w.b(gated);
}

void
OpResult::deserialize(ByteReader &r)
{
    uint8_t op_byte = r.u8();
    if (op_byte > (uint8_t)TrainOp::BackwardWeights)
        r.fail(); // not a TrainOp: corrupt
    op = (TrainOp)op_byte;
    base_cycles = r.f64();
    td_cycles = r.f64();
    base_mem_stall_cycles = r.f64();
    td_mem_stall_cycles = r.f64();
    memory_bound = r.b();
    b_nonzero_slots = r.f64();
    b_total_slots = r.f64();
    mac_slots = r.f64();
    activity.deserialize(r);
    gated = r.b();
}

Accelerator::Accelerator(const AcceleratorConfig &config)
    : config_(config), tile_(config.tile),
      energy_model_(config.geometry(), config.freq_ghz, config.dram,
                    config.energy),
      gate_(config.gate_min_sparsity)
{
    TD_ASSERT(config.tiles >= 1, "need at least one tile");
}

OpResult
Accelerator::runOp(const LoweredOp &lowered, GateOperand gate) const
{
    OpResult result = runJobs(lowered, gate);
    divideByTiles(result);
    return result;
}

OpResult
Accelerator::runJobs(const LoweredOp &lowered, GateOperand gate) const
{
    OpResult result;
    result.op = lowered.op;
    result.b_nonzero_slots = (double)lowered.b_nonzero_slots;
    result.b_total_slots = (double)lowered.b_total_slots;
    result.mac_slots = (double)lowered.total_mac_slots;

    bool sparse_enabled = true;
    if (config_.power_gating && gate != GateOperand::None)
        sparse_enabled = gate_.enabled(gateOperandName(gate));
    result.gated = !sparse_enabled;

    double base_cycles = 0.0;
    double td_cycles = 0.0;
    TileStats stats;
    for (const TileJob &job : lowered.jobs) {
        uint64_t dense = Tile::baselineCycles(job);
        base_cycles += (double)dense * job.weight;
        if (sparse_enabled) {
            uint64_t cycles = tile_.run(job, stats);
            td_cycles += (double)cycles * job.weight;
        } else {
            td_cycles += (double)dense * job.weight;
        }
    }

    result.base_cycles = base_cycles;
    result.td_cycles = td_cycles;

    // Staging traffic observed by the tiles, scaled to the full layer.
    double scale = lowered.sampled_jobs
        ? (double)lowered.total_jobs / (double)lowered.sampled_jobs
        : 0.0;
    result.activity.spad_row_reads =
        (double)(stats.b_rows_fetched + stats.a_rows_fetched) * scale;
    result.activity.spad_row_writes = result.activity.spad_row_reads;
    // Each scratchpad row was first read from the shared SRAMs.
    result.activity.sram_block_reads = result.activity.spad_row_reads;
    // One accumulated output per (b, a) pair, written back in blocks.
    double outputs = (double)lowered.out_shape.size();
    result.activity.sram_block_writes = outputs / config_.tile.lanes;
    return result;
}

void
Accelerator::divideByTiles(OpResult &result) const
{
    // Jobs spread round-robin over the tiles; with many jobs per layer
    // the tiles stay balanced, so time is total job cycles / tiles.
    result.base_cycles /= config_.tiles;
    result.td_cycles /= config_.tiles;
    result.activity.cycles = result.td_cycles;
}

OpResult
Accelerator::runConvOp(TrainOp op, const Tensor &acts,
                       const Tensor &weights, const Tensor &out_grads,
                       const ConvSpec &spec, double out_sparsity) const
{
    return finishOp(runArray(op, acts, weights, out_grads, spec,
                             LayerNonzeros::count(acts, weights,
                                                  out_grads)),
                    out_sparsity);
}

LayerNonzeros
LayerNonzeros::count(const Tensor &acts, const Tensor &weights,
                     const Tensor &grads)
{
    return {acts.nonzeros(), weights.nonzeros(), grads.nonzeros()};
}

ArrayRun
Accelerator::runArray(TrainOp op, const Tensor &acts,
                      const Tensor &weights, const Tensor &out_grads,
                      const ConvSpec &spec,
                      const LayerNonzeros &nonzeros) const
{
    TD_ASSERT(nonzeros.acts <= acts.size() &&
                  nonzeros.weights <= weights.size() &&
                  nonzeros.grads <= out_grads.size(),
              "nonzero counts exceed their operands");
    const OperandSparsity sparsity{
        .acts = Tensor::sparsityOf(nonzeros.acts, acts.size()),
        .weights = Tensor::sparsityOf(nonzeros.weights, weights.size()),
        .grads = Tensor::sparsityOf(nonzeros.grads, out_grads.size())};
    Dataflow dataflow(config_.dataflow(false));
    LoweredOp lowered;
    uint64_t transposed = 0;
    GateOperand gate = GateOperand::None;

    switch (op) {
      case TrainOp::Forward:
        lowered = dataflow.lowerForward(
            acts, weights, spec, resolveSide(config_.fwd_side, sparsity));
        gate = lowered.b_is_default_side ? GateOperand::Acts
                                         : GateOperand::Weights;
        break;
      case TrainOp::BackwardData:
        lowered = dataflow.lowerBackwardData(
            out_grads, weights, acts.shape(), spec,
            resolveSide(config_.bwd_data_side, sparsity));
        // The reconstructed filters pass through the transposers.
        transposed = weights.size();
        gate = lowered.b_is_default_side ? GateOperand::Grads
                                         : GateOperand::Weights;
        break;
      case TrainOp::BackwardWeights:
        lowered = dataflow.lowerBackwardWeights(
            out_grads, acts, weights.shape().h, weights.shape().w, spec,
            resolveSide(config_.wg_side, sparsity));
        // Gradients are re-bundled per filter (transposed layout).
        transposed = out_grads.size();
        gate = lowered.wg_b_is_gradients ? GateOperand::Grads
                                         : GateOperand::Acts;
        break;
    }

    // Operands streamed in: A or GO, then W or A.
    const bool fwd = op == TrainOp::Forward;
    const bool wg = op == TrainOp::BackwardWeights;
    OpTraffic traffic{
        .in0_nz = fwd ? nonzeros.acts : nonzeros.grads,
        .in0_total = fwd ? acts.size() : out_grads.size(),
        .in1_nz = wg ? nonzeros.acts : nonzeros.weights,
        .in1_total = wg ? acts.size() : weights.size(),
        .out_total = lowered.out_shape.size(),
        .transposed = transposed};
    return {runJobs(lowered, gate), traffic};
}

OpResult
Accelerator::finishOp(const ArrayRun &run, double out_sparsity) const
{
    OpResult result = run.result;
    divideByTiles(result);
    chargeOffChip(config_, run.traffic, out_sparsity, result);
    return result;
}

void
chargeOffChip(const AcceleratorConfig &config, const OpTraffic &traffic,
              double out_sparsity, OpResult &result)
{
    int vb = dataTypeBytes(config.dtype);
    // Inputs stream in once per op, outputs stream out once; both are
    // CompressingDMA zero-compressed (baseline and TensorDash alike).
    auto out_nz = (uint64_t)((double)traffic.out_total *
                             std::clamp(1.0 - out_sparsity, 0.0, 1.0));
    RunActivity &activity = result.activity;
    activity.dram_read_bytes =
        CompressingDma::demandBytes(traffic.in0_nz, traffic.in0_total,
                                    vb) +
        CompressingDma::demandBytes(traffic.in1_nz, traffic.in1_total,
                                    vb);
    activity.dram_write_bytes =
        CompressingDma::demandBytes(out_nz, traffic.out_total, vb);
    activity.transposer_groups =
        (double)traffic.transposed / (kGroupDim * kGroupDim);
    if (config.memory_model == MemoryModel::Analytic) {
        // Published-evaluation assumption: the streaming dataflow hides
        // off-chip latency, so traffic costs energy but never cycles.
        return;
    }

    MemoryPipeline pipeline(config.mem_pipeline, config.dram,
                            config.freq_ghz);
    StageDemands stages;
    stages.dma_in_bytes = activity.dram_read_bytes;
    stages.transpose_groups = activity.transposer_groups;
    stages.dma_out_bytes = activity.dram_write_bytes;

    // The baseline and TensorDash move identical traffic; only the
    // TileCompute stage differs, so a memory-bound interval caps both
    // at the same DRAM time and the speedup collapses towards 1.
    stages.compute_cycles = result.base_cycles;
    PipelineTiming base = pipeline.resolve(stages);
    stages.compute_cycles = result.td_cycles;
    PipelineTiming td = pipeline.resolve(stages);

    result.base_mem_stall_cycles = base.mem_stall_cycles;
    result.td_mem_stall_cycles = td.mem_stall_cycles;
    result.memory_bound = td.memory_bound;
    result.base_cycles = base.cycles;
    result.td_cycles = td.cycles;
    activity.cycles = result.td_cycles;
    activity.dram_busy_cycles = td.dram_busy_cycles;
}

EnergyBreakdown
opEnergy(const EnergyModel &model, const OpResult &result,
         bool tensordash)
{
    RunActivity activity = result.activity;
    activity.cycles = tensordash ? result.td_cycles : result.base_cycles;
    return model.compute(activity, tensordash && !result.gated);
}

Tensor
Accelerator::runFunctional(const LoweredOp &lowered) const
{
    TD_ASSERT(lowered.exhaustive(),
              "functional runs need exhaustive lowering");
    Tensor out(lowered.out_shape);
    Tile tile(config_.tile);
    std::vector<std::vector<double>> outputs;
    TileStats stats;
    for (size_t j = 0; j < lowered.jobs.size(); ++j) {
        tile.run(lowered.jobs[j], stats, &outputs);
        Dataflow::scatter(lowered, j, outputs, out);
    }
    return out;
}

EnergyBreakdown
Accelerator::energy(const OpResult &result, bool tensordash) const
{
    return opEnergy(energy_model_, result, tensordash);
}

} // namespace tensordash
