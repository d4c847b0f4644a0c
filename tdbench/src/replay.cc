#include "replay.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

namespace tdbench {

using namespace tensordash;

namespace {

/** One layer task of the grid, in serial slot order. */
struct Slot
{
    size_t variant = 0;
    const ModelProfile *model = nullptr;
    size_t rng_set = 0; ///< index of the (variant, model) Rng streams
    double progress = 0.0;
    size_t layer = 0;
    size_t first_cell = 0;
    size_t nops = 0;
    uint64_t synth_key = 0;
    double cost = 0.0; ///< claim-order key (estimated sim + synthesis)
};

/** Synthesized tensors plus their measured sparsities (what the
 * engine's SynthCache holds per key). */
struct Synth
{
    LayerTensors tensors;
    double act = 0.0;
    double weight = 0.0;
    double grad = 0.0;
};

/** Dense MAC slots of the sampled jobs of one lowering. */
uint64_t
sampledMacs(const LoweredOp &lowered, int lanes)
{
    uint64_t macs = 0;
    for (const TileJob &job : lowered.jobs)
        macs += (uint64_t)job.steps() * job.b.size() * job.a.size() *
                (uint64_t)lanes;
    return macs;
}

} // namespace

SweepResult
Replayer::replay(const Grid &grid, const std::string &cache_dir,
                 service::ShardPlan *shard_plan)
{
    RunConfig base = grid.config;
    base.threads = 1;
    base.cache = true;
    base.cache_dir = cache_dir;
    ModelRunner runner(base);
    const SweepSpec &spec = grid.spec;

    std::vector<GridCellInfo> plan;
    {
        TDB_SPAN(tracer_, "core.runner.plan");
        plan = runner.planSweep(spec);
    }
    work_.plan_cells += plan.size();
    if (shard_plan) {
        TDB_SPAN(tracer_, "service.planner.plan_job");
        *shard_plan = service::planJob(plan, cache_dir, 2);
    }

    // Everything runSweepCells does for the owned cells: the shell,
    // the claim loop and the reduce.
    std::optional<Tracer::Span> run_cells;
    run_cells.emplace(tracer_, "core.runner.run_cells", 0);
    SweepResult sweep;
    {
        TDB_SPAN(tracer_, "core.runner.shell");
        sweep = runner.runSweepCells(spec, {});
    }

    // Materialise the grid exactly as the engine lays it out: variant
    // configs, effective (batch-overridden) models, one serially
    // forked Rng stream set per (variant, model), slots in serial
    // (variant, model, point, layer) order.
    const size_t nv = spec.variantCount();
    const size_t nm = spec.models.size();
    const std::vector<double> points = spec.progress_points.empty()
        ? std::vector<double>{base.progress}
        : spec.progress_points;
    std::vector<RunConfig> configs;
    std::vector<ModelProfile> models;
    std::vector<std::vector<Rng>> rngs;
    configs.reserve(nv);
    models.reserve(nv * nm);
    for (size_t v = 0; v < nv; ++v) {
        configs.push_back(spec.variantConfig(base, v));
        for (size_t m = 0; m < nm; ++m) {
            models.push_back(spec.models[m]);
            if (configs[v].batch_override > 0)
                models.back().batch = configs[v].batch_override;
            Rng rng(configs[v].seed * 0x2545f4914f6cdd1dull + 1);
            std::vector<Rng> layer_rngs;
            for (size_t l = 0; l < spec.models[m].layers.size(); ++l)
                layer_rngs.push_back(rng.fork());
            rngs.push_back(std::move(layer_rngs));
        }
    }
    std::vector<Slot> slots;
    size_t cell = 0;
    for (size_t v = 0; v < nv; ++v) {
        const size_t nops = phaseOps(configs[v].phase).size();
        for (size_t m = 0; m < nm; ++m)
            for (double p : points)
                for (size_t l = 0; l < spec.models[m].layers.size();
                     ++l) {
                    Slot s;
                    s.variant = v;
                    s.model = &models[v * nm + m];
                    s.rng_set = v * nm + m;
                    s.progress = p;
                    s.layer = l;
                    s.first_cell = cell;
                    s.nops = nops;
                    s.synth_key = plan[cell].synth_key;
                    for (size_t j = 0; j < nops; ++j)
                        s.cost += plan[cell + j].est_cost +
                                  plan[cell + j].synth_cost;
                    slots.push_back(s);
                    cell += nops;
                }
    }

    // Claim order: costliest first by the plan's cost key, ties in
    // serial order (costPass() times how the key is computed).
    std::vector<size_t> order(slots.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return slots[a].cost > slots[b].cost;
                     });

    std::unordered_map<uint64_t, int> uses;
    for (const Slot &s : slots)
        ++uses[s.synth_key];
    std::unordered_map<uint64_t, Synth> synth;
    ResultStore &store = ResultStore::shared();

    for (size_t idx : order) {
        const Slot &s = slots[idx];
        const RunConfig &config = configs[s.variant];
        const std::span<const TrainOp> ops = phaseOps(config.phase);
        const LayerSpec &layer = s.model->layers[s.layer];
        LayerResult &out = sweep.layer_results[idx];
        out.cells.resize(s.nops);
        uint32_t missing = 0;
        for (size_t j = 0; j < s.nops; ++j) {
            TDB_SPAN(tracer_, "core.result_store.lookup");
            if (!store.lookup(plan[s.first_cell + j].key, &out.cells[j],
                              cache_dir))
                missing |= 1u << j;
        }
        AcceleratorConfig acfg = config.accel;
        acfg.wg_side = s.model->wg_side;
        if (missing && config.fidelity == Fidelity::Estimate) {
            OpEstimator est(acfg);
            CellSparsity sp =
                effectiveCellSparsity(*s.model, s.layer, s.progress);
            double out_sp[3] = {0.0, 0.0, 0.0};
            if (spec.estimate_out_sparsity) {
                out_sp[(int)TrainOp::Forward] = sp.act;
                out_sp[(int)TrainOp::BackwardData] = sp.grad;
            }
            for (size_t j = 0; j < s.nops; ++j) {
                if (!(missing & (1u << j)))
                    continue;
                OpEstimate e;
                {
                    TDB_SPAN(tracer_, "sim.estimator.estimate_op");
                    e = est.estimateOp(layer, s.model->batch, ops[j], sp,
                                       out_sp[(int)ops[j]]);
                }
                out.cells[j] =
                    OpCellResult{e.op, e.energy_base, e.energy_td};
                TDB_SPAN(tracer_, "core.result_store.insert");
                store.insert(plan[s.first_cell + j].key, out.cells[j],
                             cache_dir);
            }
        } else if (missing) {
            auto it = synth.find(s.synth_key);
            if (it == synth.end()) {
                Synth st;
                Rng rng = rngs[s.rng_set][s.layer];
                {
                    TDB_SPAN(tracer_, "models.synthesize");
                    st.tensors = ModelZoo::synthesize(*s.model, layer,
                                                      s.progress, rng);
                }
                {
                    TDB_SPAN(tracer_, "tensor.sparsity");
                    st.act = st.tensors.acts.sparsity();
                    st.weight = st.tensors.weights.sparsity();
                    st.grad = st.tensors.grads.sparsity();
                }
                work_.synth_elements += st.tensors.acts.size() +
                                        st.tensors.weights.size() +
                                        st.tensors.grads.size();
                it = synth.emplace(s.synth_key, std::move(st)).first;
            }
            const Synth &st = it->second;
            const LayerTensors &t = st.tensors;
            Accelerator accel(acfg);
            if (acfg.power_gating) {
                GateObservations obs;
                obs.sparsity["acts"] = st.act;
                obs.sparsity["grads"] = st.grad;
                obs.sparsity["weights"] = st.weight;
                accel.powerGate().freezeFrom(obs);
            }
            const Dataflow df(acfg.dataflow(false));
            double out_sp[3] = {0.0, 0.0, 0.0};
            if (spec.estimate_out_sparsity) {
                out_sp[(int)TrainOp::Forward] = st.act;
                out_sp[(int)TrainOp::BackwardData] = st.grad;
            }
            for (size_t j = 0; j < s.nops; ++j) {
                if (!(missing & (1u << j)))
                    continue;
                const Clock::time_point t0 = Clock::now();
                OpCellResult &c = out.cells[j];
                c = simulateOp(accel, df, layer, ops[j], t,
                               out_sp[(int)ops[j]]);
                work_.est_cost.push_back(plan[s.first_cell + j].est_cost);
                work_.measured_ns.push_back(
                    std::chrono::duration<double, std::nano>(Clock::now() -
                                                             t0)
                        .count());
                TDB_SPAN(tracer_, "core.result_store.insert");
                store.insert(plan[s.first_cell + j].key, c, cache_dir);
            }
        }
        sweep.present[idx] = (uint8_t)((1u << s.nops) - 1);
        if (--uses[s.synth_key] == 0)
            synth.erase(s.synth_key);
    }
    {
        TDB_SPAN(tracer_, "core.runner.reduce");
        sweep.reduce();
    }
    run_cells.reset();
    {
        TDB_SPAN(tracer_, "core.runner.serialize");
        work_.serialize_bytes += sweep.serialize().size();
    }
    return sweep;
}

OpCellResult
Replayer::simulateOp(const Accelerator &accel, const Dataflow &df,
                     const LayerSpec &layer, TrainOp op,
                     const LayerTensors &t, double out_sparsity)
{
    // What Accelerator::runConvOp/runFcOp do, call by call.
    const AcceleratorConfig &acfg = accel.config();
    LoweredOp lowered;
    {
        TDB_SPAN(tracer_, "sim.dataflow.lower");
        switch (op) {
          case TrainOp::Forward:
            lowered = layer.fc
                ? df.lowerFcForward(t.acts, t.weights, acfg.fwd_side)
                : df.lowerForward(t.acts, t.weights, t.spec, acfg.fwd_side);
            break;
          case TrainOp::BackwardData:
            lowered = layer.fc
                ? df.lowerFcBackwardData(t.grads, t.weights, t.acts.shape(),
                                         acfg.bwd_data_side)
                : df.lowerBackwardData(t.grads, t.weights, t.acts.shape(),
                                       t.spec, acfg.bwd_data_side);
            break;
          case TrainOp::BackwardWeights:
            lowered = layer.fc
                ? df.lowerFcBackwardWeights(t.grads, t.acts, acfg.wg_side)
                : df.lowerBackwardWeights(t.grads, t.acts,
                                          t.weights.shape().h,
                                          t.weights.shape().w, t.spec,
                                          acfg.wg_side);
            break;
        }
    }
    // Operands streamed in (A or GO, then W or A), the values the
    // transposers re-lay-out, and the scheduled operand's gate.
    const Tensor &in0 = op == TrainOp::Forward ? t.acts : t.grads;
    const Tensor &in1 = op == TrainOp::BackwardWeights ? t.acts : t.weights;
    uint64_t in0_nz = 0, in1_nz = 0, transposed = 0;
    {
        TDB_SPAN(tracer_, "tensor.sparsity");
        in0_nz = in0.nonzeros();
        in1_nz = in1.nonzeros();
    }
    GateOperand gate = GateOperand::None;
    switch (op) {
      case TrainOp::Forward:
        gate = lowered.b_is_default_side ? GateOperand::Acts
                                         : GateOperand::Weights;
        break;
      case TrainOp::BackwardData:
        transposed = t.weights.size();
        gate = lowered.b_is_default_side ? GateOperand::Grads
                                         : GateOperand::Weights;
        break;
      case TrainOp::BackwardWeights:
        transposed = t.grads.size();
        gate = lowered.wg_b_is_gradients ? GateOperand::Grads
                                         : GateOperand::Acts;
        break;
    }
    OpResult r;
    {
        TDB_SPAN(tracer_, "sim.tile.run");
        r = accel.runOp(lowered, gate);
    }
    work_.lowered_jobs += lowered.jobs.size();
    work_.sampled_macs += sampledMacs(lowered, acfg.tile.lanes);

    // The memory charge: compressed off-chip traffic, and under the
    // Pipelined model its resolution into cycles.
    const int vb = dataTypeBytes(acfg.dtype);
    const uint64_t out_total = lowered.out_shape.size();
    const auto out_nz = (uint64_t)((double)out_total *
                                   std::clamp(1.0 - out_sparsity, 0.0, 1.0));
    r.activity.dram_read_bytes =
        CompressingDma::demandBytes(in0_nz, in0.size(), vb) +
        CompressingDma::demandBytes(in1_nz, in1.size(), vb);
    r.activity.dram_write_bytes =
        CompressingDma::demandBytes(out_nz, out_total, vb);
    r.activity.transposer_groups =
        (double)transposed / (kGroupDim * kGroupDim);
    if (acfg.memory_model == MemoryModel::Pipelined) {
        TDB_SPAN(tracer_, "sim.memory.resolve");
        MemoryPipeline pipeline(acfg.mem_pipeline, acfg.dram,
                                acfg.freq_ghz);
        StageDemands stages;
        stages.dma_in_bytes = r.activity.dram_read_bytes;
        stages.transpose_groups = r.activity.transposer_groups;
        stages.dma_out_bytes = r.activity.dram_write_bytes;
        stages.compute_cycles = r.base_cycles;
        const PipelineTiming bt = pipeline.resolve(stages);
        stages.compute_cycles = r.td_cycles;
        const PipelineTiming tt = pipeline.resolve(stages);
        work_.resolve_calls += 2;
        r.base_mem_stall_cycles = bt.mem_stall_cycles;
        r.td_mem_stall_cycles = tt.mem_stall_cycles;
        r.memory_bound = tt.memory_bound;
        r.base_cycles = bt.cycles;
        r.td_cycles = tt.cycles;
        r.activity.cycles = r.td_cycles;
        r.activity.dram_busy_cycles = tt.dram_busy_cycles;
    }
    work_.td_cycles += r.td_cycles;
    work_.td_stall_cycles += r.td_mem_stall_cycles;
    OpCellResult c;
    c.op = r;
    TDB_SPAN(tracer_, "sim.energy");
    c.energy_base = accel.energy(r, false);
    c.energy_td = accel.energy(r, true);
    return c;
}

void
Replayer::costPass(const Grid &grid)
{
    const SweepSpec &spec = grid.spec;
    const std::vector<GridCellInfo> plan =
        ModelRunner(grid.config).planSweep(spec);
    const std::vector<double> points = spec.progress_points.empty()
        ? std::vector<double>{grid.config.progress}
        : spec.progress_points;
    TDB_SPAN(tracer_, "sim.estimator.sim_cost");
    size_t cell = 0;
    for (size_t v = 0; v < spec.variantCount(); ++v) {
        const RunConfig config = spec.variantConfig(grid.config, v);
        for (ModelProfile model : spec.models) {
            if (config.batch_override > 0)
                model.batch = config.batch_override;
            AcceleratorConfig acfg = config.accel;
            acfg.wg_side = model.wg_side;
            for (double p : points)
                for (size_t l = 0; l < model.layers.size(); ++l) {
                    CellSparsity sp = effectiveCellSparsity(model, l, p);
                    for (TrainOp op : phaseOps(config.phase)) {
                        double c = OpEstimator::estimateSimCost(
                            acfg, model.layers[l], model.batch, op, sp);
                        ++work_.sim_cost_calls;
                        work_.sim_cost_mismatches +=
                            cell >= plan.size() ||
                            c != plan[cell].est_cost;
                        ++cell;
                    }
                }
        }
    }
    work_.sim_cost_mismatches += cell != plan.size();
}

std::vector<double>
estimatorErrors(const SweepResult &exact, const SweepResult &estimate)
{
    std::vector<double> err;
    const size_t n =
        std::min(exact.layer_results.size(), estimate.layer_results.size());
    for (size_t i = 0; i < n; ++i) {
        const auto &x = exact.layer_results[i].cells;
        const auto &e = estimate.layer_results[i].cells;
        for (size_t j = 0; j < std::min(x.size(), e.size()); ++j)
            if (x[j].op.td_cycles > 0.0)
                err.push_back(std::fabs(e[j].op.td_cycles -
                                        x[j].op.td_cycles) /
                              x[j].op.td_cycles);
    }
    return err;
}

} // namespace tdbench
