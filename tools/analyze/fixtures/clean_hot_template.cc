// gippr-analyze: as=src/sim/select/fixture_hot_template_clean.cc
//
// Clean twin of bad_hot_template.cc: the GIPPR_HOT function template
// counts into a scalar, no allocation anywhere in its body.
#include <cstddef>
#include <cstdint>

#include "util/hot.hh"

namespace gippr::select {

template <class Model>
GIPPR_HOT uint64_t
replayChunk(Model &model, const uint64_t *addrs, size_t count) {
  uint64_t hits = 0;
  for (size_t i = 0; i < count; ++i)
    hits += model.Model::access(addrs[i]) ? 1 : 0;
  return hits;
}

}  // namespace gippr::select
