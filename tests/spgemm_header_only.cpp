// Compiles spgemm/sparse.hpp on its own. This file must include nothing
// else, so a header that relies on its includer's includes fails to build.
#include "spgemm/sparse.hpp"

namespace limsynth::spgemm {

SparseMatrix header_only_triplets() {
  return SparseMatrix::from_triplets(2, 3, {{1, 2, 2.0}, {0, 0, 1.0}});
}

}  // namespace limsynth::spgemm
