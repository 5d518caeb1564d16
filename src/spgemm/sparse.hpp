// Sparse matrices in compressed sparse column (CSC) form — the layout the
// column-by-column SpGEMM algorithm [1] and both accelerator models
// consume. Row indices within a column are kept sorted.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

namespace limsynth::spgemm {

struct Entry {
  int row = 0;
  double value = 0.0;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;
  SparseMatrix(int rows, int cols);

  /// Builds from (row, col, value) triplets; duplicates are summed.
  static SparseMatrix from_triplets(
      int rows, int cols, std::vector<std::tuple<int, int, double>> triplets);

  /// Adopts CSC arrays as they are: `col_ptr` has cols+1 non-decreasing
  /// offsets from 0 to nnz, and the rows of each column are strictly
  /// increasing and within [0, rows). Anything else throws Error.
  static SparseMatrix from_csc(int rows, int cols, std::vector<int> col_ptr,
                               std::vector<int> row_idx,
                               std::vector<double> values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(row_idx_.size()); }

  /// Column slice accessors (CSC).
  int col_begin(int col) const { return col_ptr_[static_cast<std::size_t>(col)]; }
  int col_end(int col) const { return col_ptr_[static_cast<std::size_t>(col) + 1]; }
  int col_nnz(int col) const { return col_end(col) - col_begin(col); }
  int row_index(int k) const { return row_idx_[static_cast<std::size_t>(k)]; }
  double value(int k) const { return values_[static_cast<std::size_t>(k)]; }

  /// Approximate equality (same pattern, values within rel_tol).
  bool approx_equal(const SparseMatrix& other, double rel_tol = 1e-9) const;

  /// Number of multiply-add operations in computing this * other.
  std::int64_t flops_with(const SparseMatrix& other) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> col_ptr_;   // size cols+1
  std::vector<int> row_idx_;   // size nnz, sorted within each column
  std::vector<double> values_;
};

}  // namespace limsynth::spgemm
