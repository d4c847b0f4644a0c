#include "service/job_spec.hh"

#include <algorithm>

#include "models/model_zoo.hh"
#include "sim/memory/pipeline.hh"
#include "sim/mux_pattern.hh"

namespace tensordash {
namespace service {

namespace {

/** Sanity bounds, sized far above any real design point: a corrupt or
 * hostile JobSpec must be rejected with a reason, not expanded. */
constexpr size_t kMaxModels = 256;
constexpr size_t kMaxPoints = 256;
constexpr size_t kMaxAxes = 8;
constexpr size_t kMaxAxisValues = 64;

/** Accepted value range per axis kind. */
bool
axisValueInRange(AxisKind kind, int64_t v)
{
    switch (kind) {
      case AxisKind::Rows:
      case AxisKind::Cols:
          return v >= 1 && v <= 256;
      case AxisKind::Depth:
          return v >= 1 && v <= MuxPattern::kMaxDepth;
      case AxisKind::Tiles:
          return v >= 1 && v <= 4096;
      case AxisKind::Gating:
      case AxisKind::Phase:
          return v == 0 || v == 1;
      case AxisKind::Batch:
          return v >= 1 && v <= (1 << 20);
    }
    return false;
}

/** Names the zoo resolves (ModelZoo::byName TD_FATALs on an unknown
 * name, so the service checks membership first). */
bool
knownModel(const std::string &name)
{
    for (const ModelProfile &m : ModelZoo::paperModels())
        if (m.name == name)
            return true;
    for (const ModelProfile &m : ModelZoo::recommenderModels())
        if (m.name == name)
            return true;
    return name == "GCN" || name == "ResNet50";
}

} // namespace

const char *
axisKindName(AxisKind kind)
{
    switch (kind) {
      case AxisKind::Rows: return "rows";
      case AxisKind::Cols: return "cols";
      case AxisKind::Depth: return "depth";
      case AxisKind::Tiles: return "tiles";
      case AxisKind::Gating: return "gating";
      case AxisKind::Phase: return "phase";
      case AxisKind::Batch: return "batch";
    }
    return "?";
}

void
JobSpec::serialize(ByteWriter &w) const
{
    w.u32(kJobSpecVersion);
    w.u32((uint32_t)models.size());
    for (const std::string &m : models)
        w.str(m);
    w.u32((uint32_t)progress_points.size());
    for (double p : progress_points)
        w.f64(p);
    w.f64(progress);
    w.u64(seed);
    w.u8(phase);
    w.u8(fidelity);
    w.u8(memory_model);
    w.u32((uint32_t)batch_override);
    w.u64(max_sampled_macs);
    w.u32((uint32_t)axes.size());
    for (const JobAxis &a : axes) {
        w.u8((uint8_t)a.kind);
        w.u32((uint32_t)a.values.size());
        for (int64_t v : a.values)
            w.u64((uint64_t)v);
    }
}

bool
JobSpec::deserialize(ByteReader &r)
{
    if (r.u32() != kJobSpecVersion)
        return false;
    uint32_t nmodels = r.u32();
    if (!r.ok() || nmodels > kMaxModels)
        return false;
    models.clear();
    for (uint32_t i = 0; r.ok() && i < nmodels; ++i)
        models.push_back(r.str());
    uint32_t npoints = r.u32();
    if (!r.ok() || npoints > kMaxPoints)
        return false;
    progress_points.clear();
    for (uint32_t i = 0; r.ok() && i < npoints; ++i)
        progress_points.push_back(r.f64());
    progress = r.f64();
    seed = r.u64();
    phase = r.u8();
    fidelity = r.u8();
    memory_model = r.u8();
    batch_override = (int32_t)r.u32();
    max_sampled_macs = r.u64();
    uint32_t naxes = r.u32();
    if (!r.ok() || naxes > kMaxAxes)
        return false;
    axes.clear();
    for (uint32_t i = 0; r.ok() && i < naxes; ++i) {
        JobAxis a;
        a.kind = (AxisKind)r.u8();
        uint32_t nvalues = r.u32();
        if (!r.ok() || nvalues > kMaxAxisValues)
            return false;
        for (uint32_t j = 0; r.ok() && j < nvalues; ++j)
            a.values.push_back((int64_t)r.u64());
        axes.push_back(std::move(a));
    }
    return r.ok() && r.atEnd();
}

std::string
JobSpec::validate() const
{
    if (models.empty())
        return "job names no models";
    for (const std::string &m : models)
        if (!knownModel(m))
            return "unknown model '" + m + "'";
    for (double p : progress_points)
        if (!(p >= 0.0 && p <= 1.0))
            return "progress point outside [0, 1]";
    if (!(progress >= 0.0 && progress <= 1.0))
        return "base progress outside [0, 1]";
    if (phase > (uint8_t)WorkloadPhase::Inference)
        return "unknown workload phase";
    if (fidelity > (uint8_t)Fidelity::Estimate)
        return "unknown fidelity tier";
    if (memory_model > (uint8_t)MemoryModel::Pipelined)
        return "unknown memory model";
    if (batch_override < 0)
        return "negative batch override";
    for (const JobAxis &a : axes) {
        if (a.kind < AxisKind::Rows || a.kind > AxisKind::Batch)
            return "unknown axis kind";
        if (a.values.empty())
            return std::string("axis '") + axisKindName(a.kind) +
                   "' has no values";
        for (int64_t v : a.values)
            if (!axisValueInRange(a.kind, v))
                return std::string("axis '") + axisKindName(a.kind) +
                       "' value " + std::to_string(v) +
                       " out of range";
    }
    return "";
}

RunConfig
JobSpec::baseConfig() const
{
    RunConfig cfg;
    cfg.phase = (WorkloadPhase)phase;
    cfg.fidelity = (Fidelity)fidelity;
    cfg.progress = progress;
    cfg.seed = seed;
    cfg.batch_override = (int)batch_override;
    cfg.accel.memory_model = (MemoryModel)memory_model;
    cfg.accel.max_sampled_macs = max_sampled_macs;
    return cfg;
}

SweepSpec
JobSpec::toSweepSpec() const
{
    SweepSpec spec;
    spec.models.reserve(models.size());
    for (const std::string &name : models)
        spec.models.push_back(ModelZoo::byName(name));
    spec.progress_points = progress_points;
    for (const JobAxis &a : axes) {
        std::vector<int> values(a.values.begin(), a.values.end());
        switch (a.kind) {
          case AxisKind::Rows:
              spec.axes.push_back(axis(
                  "rows", values,
                  [](RunConfig &c, int v) { c.accel.tile.rows = v; }));
              break;
          case AxisKind::Cols:
              spec.axes.push_back(axis(
                  "cols", values,
                  [](RunConfig &c, int v) { c.accel.tile.cols = v; }));
              break;
          case AxisKind::Depth:
              spec.axes.push_back(axis(
                  "depth", values, [](RunConfig &c, int v) {
                      c.accel.tile.depth = v;
                  }));
              break;
          case AxisKind::Tiles:
              spec.axes.push_back(
                  axis("tiles", values,
                       [](RunConfig &c, int v) { c.accel.tiles = v; }));
              break;
          case AxisKind::Gating: {
              std::vector<AxisOption> options;
              for (int v : values)
                  options.push_back(
                      {v ? "on" : "off", [v](RunConfig &c) {
                           c.accel.power_gating = v != 0;
                       }});
              spec.axes.push_back(
                  axis("gating", std::move(options)));
              break;
          }
          case AxisKind::Phase: {
              std::vector<AxisOption> options;
              for (int v : values)
                  options.push_back(
                      {v ? "inference" : "training", [v](RunConfig &c) {
                           c.phase = v ? WorkloadPhase::Inference
                                       : WorkloadPhase::Training;
                       }});
              spec.axes.push_back(axis("phase", std::move(options)));
              break;
          }
          case AxisKind::Batch:
              spec.axes.push_back(batchAxis(values));
              break;
        }
    }
    return spec;
}

} // namespace service
} // namespace tensordash
