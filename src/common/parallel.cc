#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"

namespace tensordash {

namespace {

/** Bound on one call's executors (matches the TD_THREADS validity
 * range). */
constexpr int kMaxThreads = 4096;

} // namespace

int
defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return (int)env::intKnob("TD_THREADS", 1, kMaxThreads,
                             hw > 0 ? (long)hw : 1);
}

void
parallelFor(size_t count, const std::function<void(size_t)> &body,
            int parallelism)
{
    if (parallelism <= 0) {
        // Resolved once, so a malformed TD_THREADS warns once per
        // process rather than once per call.
        static const int process_default = defaultThreadCount();
        parallelism = process_default;
    }
    const size_t executors =
        std::min({count, (size_t)parallelism, (size_t)kMaxThreads});
    if (executors <= 1) {
        for (size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false}; ///< stops claims after a throw
    std::mutex error_mu;
    std::exception_ptr error; ///< guarded by error_mu
    auto claimLoop = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> g(error_mu);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> helpers;
    helpers.reserve(executors - 1);
    try {
        while (helpers.size() + 1 < executors)
            helpers.emplace_back(claimLoop);
    } catch (...) {
        // Thread exhaustion (container limits etc): run on what we got.
        static std::once_flag warned;
        std::call_once(warned, [&] {
            TD_WARN("parallelFor limited to %zu of %zu requested "
                    "threads", helpers.size() + 1, executors);
        });
    }
    // The caller claims too, so the range completes even when no
    // helper started.
    claimLoop();
    for (std::thread &t : helpers)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace tensordash
