// gippr-analyze: as=src/sim/select/fixture_hot_template.cc
// expect: hot-path-purity
//
// A GIPPR_HOT function template (the shape of a chunk loop templated
// over its cache model) whose body allocates: the template's own body
// is checked, whatever it is instantiated with.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hot.hh"

namespace gippr::select {

template <class Model>
GIPPR_HOT uint64_t
replayChunk(Model &model, const uint64_t *addrs, size_t count) {
  std::vector<uint64_t> hits;  // allocating local
  for (size_t i = 0; i < count; ++i)
    if (model.Model::access(addrs[i]))
      hits.push_back(addrs[i]);  // grows on the hot path
  return hits.size();
}

}  // namespace gippr::select
