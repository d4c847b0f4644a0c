#include "sim/prescheduler.hh"

#include "common/logging.hh"
#include "sim/scheduler.hh"
#include "sim/staging_buffer.hh"

namespace tensordash {

uint64_t
ScheduledStream::packedBytes(int value_bytes) const
{
    uint64_t bytes = 0;
    for (const Row &row : rows) {
        bytes += 3; // occupancy mask (2B) + advance (byte-aligned)
        bytes += (uint64_t)row.picks * value_bytes;
        bytes += ((uint64_t)row.picks + 1) / 2; // packed 3-bit idx
    }
    return bytes;
}

uint64_t
ScheduledStream::denseBytes(int value_bytes) const
{
    return (uint64_t)dense_rows * lanes * value_bytes;
}

PreScheduler::PreScheduler(const MuxPattern &pattern) : pattern_(&pattern)
{
}

ScheduledStream
PreScheduler::schedule(const BlockStream &dense) const
{
    TD_ASSERT(dense.hasValues(),
              "pre-scheduling requires a value-mode stream");
    TD_ASSERT(dense.lanes() == pattern_->lanes(),
              "stream lane width does not match the interconnect");

    ScheduledStream out;
    out.lanes = dense.lanes();
    out.dense_rows = dense.rows();

    std::vector<uint32_t> masks(dense.rows());
    for (int r = 0; r < dense.rows(); ++r)
        masks[r] = dense.nzMask(r);
    if (dense.rows() == 0)
        return out;

    HierarchicalScheduler scheduler(*pattern_);
    StagingWindow window(pattern_->depth());
    window.reset(masks);
    Schedule sched;
    while (!window.done()) {
        int base = window.base();
        int valid = window.validRows();
        sched = scheduler.schedule(window.pendingMasks(), valid);
        ScheduledStream::Row row;
        row.picks = sched.picks;
        for (int lane = 0; lane < out.lanes; ++lane) {
            int idx = sched.select[lane];
            if (idx < 0)
                continue;
            const MoveOption &opt = pattern_->options(lane)[idx];
            row.values[lane] = dense.value(base + opt.step, opt.lane);
            row.idx[lane] = sched.select[lane];
            window.consume(opt.step, opt.lane);
        }
        row.advance = (int8_t)window.advance();
        out.rows.push_back(row);
    }
    return out;
}

BlockStream
PreScheduler::decompress(const ScheduledStream &stream) const
{
    std::vector<std::vector<float>> dense(
        stream.dense_rows, std::vector<float>(stream.lanes, 0.0f));
    int base = 0;
    for (const auto &row : stream.rows) {
        for (int lane = 0; lane < stream.lanes; ++lane) {
            if (row.idx[lane] < 0)
                continue;
            const MoveOption &opt =
                pattern_->options(lane)[row.idx[lane]];
            int target = base + opt.step;
            TD_ASSERT(target < stream.dense_rows,
                      "scheduled row points past the stream");
            dense[target][opt.lane] = row.values[lane];
        }
        base += row.advance;
    }
    TD_ASSERT(base == stream.dense_rows,
              "advance fields do not cover the stream: %d vs %d", base,
              stream.dense_rows);

    BlockStream out(stream.lanes, true);
    for (const auto &row : dense)
        out.appendValueRow(row.data());
    return out;
}

} // namespace tensordash
