#ifndef TENSORDASH_SIM_STAGING_BUFFER_HH_
#define TENSORDASH_SIM_STAGING_BUFFER_HH_

/**
 * @file
 * Staging window: the cycle-level model of the PE's staging buffer.
 *
 * The buffer exposes a `depth`-row window over a stream of effectual-pair
 * masks.  Each bit that enters the window is *pending* until the scheduler
 * consumes it; rows whose pending bits are all cleared retire from the
 * front of the window (the paper's AS signal, at most `depth` rows per
 * cycle thanks to the banked scratchpads) and fresh rows stream in.
 */

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "sim/mux_pattern.hh"

namespace tensordash {

/** Sliding pending-bit window over a stream of pair masks. */
class StagingWindow
{
  public:
    /** @param depth window depth in rows (paper: 3). */
    explicit StagingWindow(int depth) : depth_(depth)
    {
        TD_ASSERT(depth >= 1 && depth <= MuxPattern::kMaxDepth,
                  "bad staging depth %d", depth);
    }

    /**
     * Begin streaming a new dot product.
     *
     * @param pair_masks effectual-pair mask per dense row (bit set =>
     *        the pair at that (row, lane) must be multiplied)
     */
    void
    reset(const std::vector<uint32_t> &pair_masks)
    {
        masks_ = &pair_masks;
        base_ = 0;
        pending_.assign(depth_, 0);
        int valid = validRows();
        for (int s = 0; s < valid; ++s)
            pending_[s] = (*masks_)[s];
    }

    int depth() const { return depth_; }

    /** Index of the oldest row currently in the window. */
    int base() const { return base_; }

    /** Rows currently visible (depth, clipped at stream end). */
    int
    validRows() const
    {
        int remaining = (int)masks_->size() - base_;
        return remaining < depth_ ? remaining : depth_;
    }

    /** Pending mask for window step @p step (0 = oldest). */
    uint32_t pending(int step) const { return pending_[step]; }

    /** Pointer to the pending masks (scheduler input). */
    const uint32_t *pendingMasks() const { return pending_.data(); }

    /** Clear one pending bit that the scheduler consumed. */
    void
    consume(int step, int lane)
    {
        TD_ASSERT(step >= 0 && step < validRows(),
                  "consume outside window: step %d", step);
        uint32_t bit = 1u << lane;
        TD_ASSERT(pending_[step] & bit,
                  "double consume at step %d lane %d", step, lane);
        pending_[step] &= ~bit;
    }

    /**
     * Retire leading fully-consumed rows and refill from the stream.
     *
     * @return number of rows retired this cycle (the AS signal, 0..depth)
     */
    int
    advance()
    {
        int valid = validRows();
        int retired = 0;
        while (retired < valid && pending_[retired] == 0)
            ++retired;
        if (retired == 0)
            return 0;
        for (int s = retired; s < depth_; ++s)
            pending_[s - retired] = pending_[s];
        base_ += retired;
        int new_valid = validRows();
        // Steps freshly exposed by the shift pull the next stream rows;
        // past the end of the stream they stay empty.
        for (int s = depth_ - retired; s < depth_; ++s)
            pending_[s] = s < new_valid ? (*masks_)[base_ + s] : 0;
        return retired;
    }

    /** @return true once every row of the stream has retired. */
    bool done() const { return base_ >= (int)masks_->size(); }

  private:
    int depth_;
    int base_ = 0;
    std::vector<uint32_t> pending_;
    const std::vector<uint32_t> *masks_ = nullptr;
};

} // namespace tensordash

#endif // TENSORDASH_SIM_STAGING_BUFFER_HH_
