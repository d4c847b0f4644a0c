#ifndef TENSORDASH_COMMON_PARALLEL_HH_
#define TENSORDASH_COMMON_PARALLEL_HH_

/**
 * @file
 * Indexed parallel-for for the task-based simulation engine.
 *
 * Model-level work is embarrassingly parallel: every (layer, op) cell
 * simulates independently and results merge in a deterministic order
 * afterwards.  parallelFor() starts helper threads for the one call;
 * they and the caller claim indices from one shared atomic cursor, so
 * a thread that finishes a cheap item takes the next unclaimed one,
 * and every helper is joined before the call returns.  Determinism is
 * the caller's contract: bodies write only to their own index's slot,
 * and order-sensitive reductions happen after parallelFor() returns.
 *
 * Starting and joining the helpers costs about 0.1 ms per call.
 * Nested and concurrent calls are correct, since each starts its own
 * helpers, but their threads add up.
 */

#include <cstddef>
#include <functional>

namespace tensordash {

/**
 * Parallelism when none is given explicitly: TD_THREADS when set to a
 * positive integer, otherwise std::thread::hardware_concurrency()
 * (at least 1).  Reads the environment on every call.
 */
int defaultThreadCount();

/**
 * Run body(0) .. body(count - 1) on up to @p parallelism executors,
 * the calling thread included, and return once no body is running.
 * The first exception thrown by a body is rethrown here: indices not
 * yet claimed are skipped, and bodies already running finish first.
 *
 * At parallelism 1, or with a single index, the caller runs every
 * body inline in index order and no thread starts.  If the system
 * refuses to start a helper, the call runs on the threads it got and
 * warns (once per process).
 *
 * @param count       number of indices
 * @param body        task body; must only touch state owned by its
 *                    index for the run to stay deterministic
 * @param parallelism executors including the caller, capped at 4096
 *                    and at @p count; <= 0 means defaultThreadCount()
 *                    as this process first read it
 */
void parallelFor(size_t count, const std::function<void(size_t)> &body,
                 int parallelism = 0);

} // namespace tensordash

#endif // TENSORDASH_COMMON_PARALLEL_HH_
