/**
 * @file
 * Worker-thread loop implementation.
 */

#include "util/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace gippr
{

unsigned
resolveThreads(unsigned requested)
{
    if (requested > 0)
        return requested;
#ifdef __linux__
    // The CPUs this process may run on: under taskset or a cpuset,
    // hardware_concurrency would count the whole machine.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
#endif
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 4;
}

void
parallelFor(size_t n, unsigned threads,
            const std::function<void(size_t)> &body)
{
    if (threads <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::atomic<size_t> cursor{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mu;
    auto worker = [&]() {
        for (;;) {
            if (failed.load(std::memory_order_relaxed))
                return;
            size_t i = cursor.fetch_add(1);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };
    std::vector<std::thread> pool;
    unsigned count = static_cast<unsigned>(std::min<size_t>(threads, n));
    pool.reserve(count);
    for (unsigned t = 0; t < count; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace gippr
