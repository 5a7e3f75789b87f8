/**
 * @file
 * Fault-injector implementation.
 */

#include "robust/fault_inject.hh"

#include <cstdlib>
#include <string_view>

#include "util/env.hh"
#include "util/log.hh"

namespace gippr::robust
{

namespace
{

/** Map a spec token to its operation class and fault kind. */
bool
parseFaultName(const std::string &name, FaultOp &op, FaultKind &kind)
{
    if (name == "open") {
        op = FaultOp::Open;
        kind = FaultKind::Fail;
    } else if (name == "write") {
        op = FaultOp::Write;
        kind = FaultKind::Fail;
    } else if (name == "short_write") {
        op = FaultOp::Write;
        kind = FaultKind::ShortWrite;
    } else if (name == "enospc") {
        op = FaultOp::Write;
        kind = FaultKind::Enospc;
    } else if (name == "rename") {
        op = FaultOp::Rename;
        kind = FaultKind::Fail;
    } else if (name == "fsync") {
        op = FaultOp::Fsync;
        kind = FaultKind::Fail;
    } else if (name == "close") {
        op = FaultOp::Close;
        kind = FaultKind::Fail;
    } else if (name == "read") {
        op = FaultOp::Read;
        kind = FaultKind::Fail;
    } else {
        return false;
    }
    return true;
}

} // namespace

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

FaultInjector::FaultInjector()
{
    const char *env = std::getenv("GIPPR_FAULT_INJECT");
    if (env && *env)
        configure(env);
}

void
FaultInjector::configure(const std::string &spec)
{
    std::vector<Rule> rules;
    std::string token;
    auto flush = [&]() {
        if (token.empty())
            return;
        const size_t eq = token.find('=');
        FaultOp op{};
        FaultKind kind{};
        if (eq == std::string::npos ||
            !parseFaultName(token.substr(0, eq), op, kind)) {
            fatal("GIPPR_FAULT_INJECT: malformed term \"" + token +
                  "\" (want <open|write|short_write|enospc|rename|"
                  "fsync|close|read>=<N>)");
        }
        const uint64_t nth = parseUnsigned(
            "GIPPR_FAULT_INJECT occurrence count of " + token.substr(0, eq),
            std::string_view(token).substr(eq + 1));
        if (nth == 0) {
            fatal("GIPPR_FAULT_INJECT: occurrence count in \"" + token +
                  "\" must be >= 1");
        }
        rules.push_back({op, kind, nth, false});
        token.clear();
    };
    for (char c : spec) {
        if (c == ',')
            flush();
        else if (c != ' ')
            token.push_back(c);
    }
    flush();

    std::lock_guard<std::mutex> lock(mu_);
    rules_ = std::move(rules);
    counts_.fill(0);
    armed_ = !rules_.empty();
}

void
FaultInjector::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    rules_.clear();
    counts_.fill(0);
    armed_ = false;
}

FaultKind
FaultInjector::check(FaultOp op)
{
    if (!armed_)
        return FaultKind::None;
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t seen = ++counts_[static_cast<unsigned>(op)];
    for (Rule &rule : rules_) {
        if (rule.op == op && !rule.fired && rule.nth == seen) {
            rule.fired = true;
            return rule.kind;
        }
    }
    return FaultKind::None;
}

uint64_t
FaultInjector::count(FaultOp op) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counts_[static_cast<unsigned>(op)];
}

} // namespace gippr::robust
