#ifndef TENSORDASH_SIM_PRESCHEDULER_HH_
#define TENSORDASH_SIM_PRESCHEDULER_HH_

/**
 * @file
 * Keeping tensors in scheduled form in memory (paper section 3.6).
 *
 * TensorDash's scheduler doubles as a compression engine: a tensor
 * stream can be one-side scheduled ahead of time and stored as packed
 * rows of (value, idx) pairs, where idx is the movement (MS signal) the
 * front-end scheduler would have produced.  Provided there is
 * sufficient sparsity this reduces footprint and the number of
 * accesses needed to read the tensor, amplifying on-chip capacity.
 * Before (re)scheduling for execution the tensor is expanded back to
 * dense form by the mirror multiplexer stage of Fig. 12.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "sim/mux_pattern.hh"
#include "sim/stream.hh"

namespace tensordash {

/** A stream stored in scheduled (value, idx) form. */
struct ScheduledStream
{
    /** One packed storage row (one schedule step). */
    struct Row
    {
        std::array<float, 32> values{};
        /** Movement per lane (option index), -1 = lane empty.  As
         * wide as Schedule::select: a deep 32-lane crossbar indexes
         * past 127.  packedBytes() prices the stored field, not this
         * in-memory one. */
        std::array<int16_t, 32> idx;
        /** Rows of the dense stream retired by this step (AS). */
        int8_t advance = 0;
        int picks = 0;

        Row() { idx.fill(-1); }
    };

    int lanes = 16;
    int dense_rows = 0;
    std::vector<Row> rows;

    /**
     * Storage footprint: per packed row a 16-bit occupancy mask plus a
     * 2-bit advance field (byte-aligned together as 3 bytes), then one
     * value plus a packed 3-bit idx (two per byte) per occupied lane.
     */
    uint64_t packedBytes(int value_bytes = 4) const;

    /** Dense footprint of the original stream. */
    uint64_t denseBytes(int value_bytes = 4) const;

    double
    compressionRatio(int value_bytes = 4) const
    {
        uint64_t packed = packedBytes(value_bytes);
        return packed ? (double)denseBytes(value_bytes) / packed : 1.0;
    }
};

/** Front-side pre-scheduler / decompressor pair. */
class PreScheduler
{
  public:
    explicit PreScheduler(const MuxPattern &pattern);

    const MuxPattern &pattern() const { return *pattern_; }

    /**
     * One-side schedule a dense stream into packed form.  Zero values
     * are dropped; nonzeros move only along the interconnect's
     * movement options, so decompression is a fixed mux stage.
     */
    ScheduledStream schedule(const BlockStream &dense) const;

    /** Mirror mux stage (Fig. 12): expand back to the dense stream. */
    BlockStream decompress(const ScheduledStream &stream) const;

  private:
    const MuxPattern *pattern_;
};

} // namespace tensordash

#endif // TENSORDASH_SIM_PRESCHEDULER_HH_
