/**
 * @file
 * Selector configuration plumbing.
 */

#include "sim/select/select.hh"

#include "util/log.hh"

namespace gippr::select
{

BanditKind
parseBanditKind(const std::string &text)
{
    if (text == "ducb")
        return BanditKind::DUcb;
    if (text == "egreedy" || text == "epsilon-greedy")
        return BanditKind::EpsilonGreedy;
    fatal("unknown bandit kind: " + text + " (want ducb | egreedy)");
}

const char *
banditKindName(BanditKind kind)
{
    return kind == BanditKind::DUcb ? "ducb" : "egreedy";
}

double
SelectResult::measuredDemandMissRate() const
{
    if (measured.demandAccesses == 0)
        return 0.0;
    return static_cast<double>(measured.demandMisses) /
           static_cast<double>(measured.demandAccesses);
}

std::vector<PolicyDef>
parseLibrary(const std::string &text)
{
    std::vector<PolicyDef> defs;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string entry = text.substr(pos, comma - pos);
        if (entry.empty())
            fatal("empty entry in policy library: " + text);
        defs.push_back(policyByName(entry));
        pos = comma + 1;
    }
    if (defs.empty())
        fatal("empty policy library");
    return defs;
}

const char *
defaultLibrarySpec()
{
    return "LRU,LIP,PLRU,GIPPR";
}

std::string
libraryName(const std::vector<PolicyDef> &library)
{
    std::string out;
    for (const PolicyDef &def : library) {
        if (!out.empty())
            out += "+";
        out += def.name;
    }
    return out;
}

} // namespace gippr::select
