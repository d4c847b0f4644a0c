#ifndef TENSORDASH_SIM_STREAM_HH_
#define TENSORDASH_SIM_STREAM_HH_

/**
 * @file
 * Operand streams fed to processing elements.
 *
 * A BlockStream is one dot-product operand laid out the way the PE
 * consumes it: a sequence of rows, each `lanes` values wide, one row per
 * dense processing step.  For performance-only simulation a stream keeps
 * just the per-row nonzero masks; the functional path additionally stores
 * the values so MAC results can be checked against the reference
 * convolutions.
 */

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace tensordash {

/** One operand of one dot product, chopped into lane-wide rows. */
class BlockStream
{
  public:
    BlockStream() = default;

    /** @param lanes row width; @param with_values keep values too. */
    explicit BlockStream(int lanes, bool with_values = false)
        : lanes_(lanes), with_values_(with_values)
    {
        TD_ASSERT(lanes >= 1 && lanes <= 32, "bad lane count %d", lanes);
    }

    int lanes() const { return lanes_; }
    int rows() const { return (int)nz_.size(); }
    bool hasValues() const { return with_values_; }

    /** Reserve room for @p rows rows (and their values in value mode). */
    void
    reserve(int rows)
    {
        nz_.reserve(rows);
        if (with_values_)
            values_.reserve((size_t)rows * lanes_);
    }

    /** Append a row given its nonzero mask (performance-only mode). */
    void
    appendMaskRow(uint32_t nzmask)
    {
        TD_ASSERT(!with_values_, "value-mode stream needs appendValueRow");
        nz_.push_back(nzmask & laneMask());
    }

    /** Append a row of values; the nonzero mask is derived. */
    void
    appendValueRow(const float *row)
    {
        TD_ASSERT(with_values_, "mask-mode stream cannot hold values");
        uint32_t mask = 0;
        for (int l = 0; l < lanes_; ++l) {
            values_.push_back(row[l]);
            if (row[l] != 0.0f)
                mask |= 1u << l;
        }
        nz_.push_back(mask);
    }

    /** Nonzero mask of row @p row. */
    uint32_t nzMask(int row) const { return nz_[row]; }

    /** Value at (row, lane); requires value mode. */
    float
    value(int row, int lane) const
    {
        return values_[(size_t)row * lanes_ + lane];
    }

    /** Number of nonzero operand slots across the stream. */
    uint64_t
    nonzeros() const
    {
        uint64_t count = 0;
        for (uint32_t m : nz_)
            count += (uint64_t)__builtin_popcount(m);
        return count;
    }

    /** Total operand slots (rows x lanes). */
    uint64_t slots() const { return (uint64_t)rows() * lanes_; }

    /** All-ones mask over the lane width. */
    uint32_t
    laneMask() const
    {
        return lanes_ == 32 ? 0xffffffffu : ((1u << lanes_) - 1u);
    }

  private:
    int lanes_ = 16;
    bool with_values_ = false;
    std::vector<uint32_t> nz_;
    std::vector<float> values_;
};

} // namespace tensordash

#endif // TENSORDASH_SIM_STREAM_HH_
