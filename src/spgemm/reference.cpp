#include "spgemm/reference.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace limsynth::spgemm {

SparseMatrix multiply_reference(const SparseMatrix& a, const SparseMatrix& b) {
  LIMS_CHECK(a.cols() == b.rows());
  std::vector<double> acc(static_cast<std::size_t>(a.rows()), 0.0);
  std::vector<int> marker(static_cast<std::size_t>(a.rows()), -1);
  std::vector<int> col_ptr(static_cast<std::size_t>(b.cols()) + 1, 0);
  std::vector<int> row_idx;
  std::vector<double> values;
  std::vector<int> touched;

  for (int j = 0; j < b.cols(); ++j) {
    touched.clear();
    for (int kb = b.col_begin(j); kb < b.col_end(j); ++kb) {
      const int k = b.row_index(kb);
      const double bv = b.value(kb);
      for (int ka = a.col_begin(k); ka < a.col_end(k); ++ka) {
        const int i = a.row_index(ka);
        if (marker[static_cast<std::size_t>(i)] != j) {
          marker[static_cast<std::size_t>(i)] = j;
          acc[static_cast<std::size_t>(i)] = 0.0;
          touched.push_back(i);
        }
        acc[static_cast<std::size_t>(i)] += a.value(ka) * bv;
      }
    }
    std::sort(touched.begin(), touched.end());
    for (int i : touched) {
      row_idx.push_back(i);
      values.push_back(acc[static_cast<std::size_t>(i)]);
    }
    col_ptr[static_cast<std::size_t>(j) + 1] = static_cast<int>(row_idx.size());
  }
  return SparseMatrix::from_csc(a.rows(), b.cols(), std::move(col_ptr),
                                std::move(row_idx), std::move(values));
}

}  // namespace limsynth::spgemm
