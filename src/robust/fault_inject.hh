/**
 * @file
 * Deterministic I/O fault injection for crash-safety tests.
 *
 * Production systems must survive failed opens, short writes, ENOSPC
 * and failed renames; proving that requires making those failures
 * happen on demand.  Every durable-I/O primitive in src/robust (and
 * the trace reader/writer built on it) consults the process-wide
 * FaultInjector before touching the real syscall, so a test — or the
 * CI fault-injection sweep — can fail exactly the Nth open/write/
 * rename/fsync/close and assert that the caller either retries or
 * degrades to a clean error with no torn files left behind.
 *
 * Configuration comes from the GIPPR_FAULT_INJECT environment
 * variable (read once, at first use of instance(), which
 * examples/evolve_ipv and every bench make at start-up) or
 * programmatically via configure().  The spec is a comma-separated
 * list of <fault>=<N> terms, each arming one fault at the Nth
 * occurrence (1-based) of its operation class:
 *
 *   open=N         Nth open() fails (EIO)
 *   write=N        Nth write() fails (EIO)
 *   short_write=N  Nth write() persists only half the buffer, then
 *                  fails (a torn write unless the caller is atomic)
 *   enospc=N       Nth write() fails with ENOSPC
 *   rename=N       Nth rename() fails
 *   fsync=N        Nth fsync() fails
 *   close=N        Nth close() fails (buffered-data flush failure)
 *   read=N         Nth read()/fread() fails (EIO)
 *
 * Counters are global and thread-safe; each armed fault fires once.
 */

#ifndef GIPPR_ROBUST_FAULT_INJECT_HH_
#define GIPPR_ROBUST_FAULT_INJECT_HH_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gippr::robust
{

/** Operation classes the injector can interpose on. */
enum class FaultOp : unsigned
{
    Open = 0,
    Write,
    Rename,
    Fsync,
    Close,
    Read,
};

/** Number of FaultOp classes (array sizing). */
constexpr unsigned kFaultOpCount = 6;

/** What an armed fault does when it fires. */
enum class FaultKind : uint8_t
{
    None = 0,   ///< no fault: perform the real operation
    Fail,       ///< fail outright (EIO)
    ShortWrite, ///< persist half the buffer, then fail (Write only)
    Enospc,     ///< fail with ENOSPC (Write only)
};

/** Process-wide injection point registry. */
class FaultInjector
{
  public:
    /**
     * The singleton, configured from GIPPR_FAULT_INJECT on first
     * access (empty/unset env means "no faults").
     */
    static FaultInjector &instance();

    /**
     * Replace the armed fault set from @p spec (see file comment for
     * the grammar) and zero all counters.  An empty spec disarms
     * everything.  Throws std::runtime_error on a malformed spec.
     */
    void configure(const std::string &spec);

    /** Disarm all faults and zero the counters. */
    void reset();

    /**
     * Account one occurrence of @p op and return the fault to inject
     * for it (FaultKind::None almost always).  Each armed fault fires
     * exactly once.
     */
    FaultKind check(FaultOp op);

    /** Occurrences of @p op seen so far (diagnostics). */
    uint64_t count(FaultOp op) const;

    /** True when any fault is armed (cheap fast-path guard). */
    bool armed() const { return armed_; }

  private:
    FaultInjector();

    struct Rule
    {
        FaultOp op;
        FaultKind kind;
        uint64_t nth;   ///< 1-based occurrence that trips the fault
        bool fired = false;
    };

    mutable std::mutex mu_;
    std::vector<Rule> rules_;
    std::array<uint64_t, kFaultOpCount> counts_{};
    std::atomic<bool> armed_{false};
};

} // namespace gippr::robust

#endif // GIPPR_ROBUST_FAULT_INJECT_HH_
