#include "spgemm/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "util/error.hpp"

namespace limsynth::spgemm {

SparseMatrix::SparseMatrix(int rows, int cols) : rows_(rows), cols_(cols) {
  LIMS_CHECK(rows >= 0 && cols >= 0);
  col_ptr_.assign(static_cast<std::size_t>(cols) + 1, 0);
}

SparseMatrix SparseMatrix::from_triplets(
    int rows, int cols, std::vector<std::tuple<int, int, double>> triplets) {
  for (const auto& [r, c, v] : triplets) {
    LIMS_CHECK_MSG(r >= 0 && r < rows && c >= 0 && c < cols,
                   "triplet (" << r << "," << c << ") out of bounds");
    (void)v;
  }
  // Sort by (col, row) and sum duplicates.
  std::sort(triplets.begin(), triplets.end(), [](const auto& a, const auto& b) {
    return std::tie(std::get<1>(a), std::get<0>(a)) <
           std::tie(std::get<1>(b), std::get<0>(b));
  });
  SparseMatrix m(rows, cols);
  m.row_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  std::size_t i = 0;
  for (int col = 0; col < cols; ++col) {
    m.col_ptr_[static_cast<std::size_t>(col)] =
        static_cast<int>(m.row_idx_.size());
    while (i < triplets.size() && std::get<1>(triplets[i]) == col) {
      const int row = std::get<0>(triplets[i]);
      double v = 0.0;
      while (i < triplets.size() && std::get<1>(triplets[i]) == col &&
             std::get<0>(triplets[i]) == row) {
        v += std::get<2>(triplets[i]);
        ++i;
      }
      m.row_idx_.push_back(row);
      m.values_.push_back(v);
    }
  }
  m.col_ptr_[static_cast<std::size_t>(cols)] =
      static_cast<int>(m.row_idx_.size());
  return m;
}

SparseMatrix SparseMatrix::from_csc(int rows, int cols,
                                    std::vector<int> col_ptr,
                                    std::vector<int> row_idx,
                                    std::vector<double> values) {
  LIMS_CHECK(rows >= 0 && cols >= 0);
  LIMS_CHECK_MSG(col_ptr.size() == static_cast<std::size_t>(cols) + 1,
                 "col_ptr has " << col_ptr.size() << " offsets for " << cols
                                << " columns");
  LIMS_CHECK_MSG(row_idx.size() == values.size(),
                 row_idx.size() << " row indices for " << values.size()
                                << " values");
  LIMS_CHECK_MSG(col_ptr.front() == 0 &&
                     static_cast<std::size_t>(col_ptr.back()) == row_idx.size(),
                 "col_ptr spans [" << col_ptr.front() << ", " << col_ptr.back()
                                   << "] for " << row_idx.size() << " entries");
  for (int c = 0; c < cols; ++c)
    LIMS_CHECK_MSG(col_ptr[static_cast<std::size_t>(c)] <=
                       col_ptr[static_cast<std::size_t>(c) + 1],
                   "col_ptr decreases at column " << c);
  for (int c = 0; c < cols; ++c) {
    int prev = -1;
    for (int k = col_ptr[static_cast<std::size_t>(c)];
         k < col_ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const int r = row_idx[static_cast<std::size_t>(k)];
      LIMS_CHECK_MSG(r >= 0 && r < rows, "row " << r << " in column " << c
                                                  << " out of bounds");
      LIMS_CHECK_MSG(r > prev, "rows in column " << c
                                                 << " not strictly increasing");
      prev = r;
    }
  }
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.col_ptr_ = std::move(col_ptr);
  m.row_idx_ = std::move(row_idx);
  m.values_ = std::move(values);
  return m;
}

bool SparseMatrix::approx_equal(const SparseMatrix& other,
                                double rel_tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_ || nnz() != other.nnz())
    return false;
  if (col_ptr_ != other.col_ptr_ || row_idx_ != other.row_idx_) return false;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const double a = values_[i], b = other.values_[i];
    const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
    if (std::fabs(a - b) > rel_tol * scale) return false;
  }
  return true;
}

std::int64_t SparseMatrix::flops_with(const SparseMatrix& other) const {
  LIMS_CHECK(cols_ == other.rows_);
  // For C = this * other: each nonzero other(k, j) multiplies column k of
  // this, so flops = sum over nonzeros of |this(:, k)|.
  std::vector<std::int64_t> col_sizes(static_cast<std::size_t>(cols_));
  for (int c = 0; c < cols_; ++c)
    col_sizes[static_cast<std::size_t>(c)] = col_nnz(c);
  std::int64_t total = 0;
  for (int j = 0; j < other.cols_; ++j)
    for (int k = other.col_begin(j); k < other.col_end(j); ++k)
      total += col_sizes[static_cast<std::size_t>(other.row_index(k))];
  return total;
}

}  // namespace limsynth::spgemm
