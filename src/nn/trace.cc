#include "nn/trace.hh"

#include "common/logging.hh"

namespace tensordash {

TraceStepResult
TraceEvaluator::evaluate(const std::vector<LayerTrace> &traces)
{
    TD_ASSERT(!traces.empty(), "no traces to evaluate");
    Accelerator accel(config_);

    TraceStepResult result;
    OpResult per_op[3];
    OpResult total;
    double act_nz = 0, act_n = 0, grad_nz = 0, grad_n = 0, w_nz = 0,
           w_n = 0;
    for (const LayerTrace &t : traces) {
        // One count per layer serves the sparsity summary and all
        // three ops' array runs.
        const LayerNonzeros nz =
            LayerNonzeros::count(t.acts, t.weights, t.grads);
        act_nz += (double)nz.acts;
        act_n += (double)t.acts.size();
        grad_nz += (double)nz.grads;
        grad_n += (double)t.grads.size();
        w_nz += (double)nz.weights;
        w_n += (double)t.weights.size();
        for (int i = 0; i < 3; ++i) {
            OpResult r = accel.finishOp(
                accel.runArray((TrainOp)i, t.acts, t.weights, t.grads,
                               t.spec, nz),
                0.0);
            per_op[i].merge(r);
            total.merge(r);
        }
    }
    result.speedup = total.speedup();
    for (int i = 0; i < 3; ++i)
        result.op_speedup[i] = per_op[i].speedup();
    result.act_sparsity = 1.0 - act_nz / act_n;
    result.grad_sparsity = 1.0 - grad_nz / grad_n;
    result.weight_sparsity = 1.0 - w_nz / w_n;
    return result;
}

} // namespace tensordash
