// Sparse matrices in compressed sparse column (CSC) form — the layout the
// column-by-column SpGEMM algorithm [1] and both accelerator models
// consume. Row indices within a column are kept sorted.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace limsynth::spgemm {

/// std::allocator whose value-less construct default-initializes: a
/// vector of ints or doubles sized with it is left unwritten, so each
/// element is first touched by whoever fills it (a pool worker, not one
/// serial zero fill).
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0)
      ::new (static_cast<void*>(p)) U;
    else
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// The entry arrays of a matrix (row indices, values): one slot per
/// nonzero, uninitialized until written.
template <class T>
using EntryArray = std::vector<T, DefaultInitAllocator<T>>;

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
                               EntryArray<int> row_idx,
                               EntryArray<double> values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(row_idx_.size()); }

  /// Column slice accessors (CSC).
  int col_begin(int col) const { return col_ptr_[static_cast<std::size_t>(col)]; }
  int col_end(int col) const { return col_ptr_[static_cast<std::size_t>(col) + 1]; }
  int col_nnz(int col) const { return col_end(col) - col_begin(col); }
  int row_index(int k) const { return row_idx_[static_cast<std::size_t>(k)]; }
  double value(int k) const { return values_[static_cast<std::size_t>(k)]; }

  /// Approximate equality: same shape and pattern; finite values within
  /// rel_tol of each other (relative to the larger magnitude, at least 1),
  /// an infinity only with the same infinity, NaN with nothing. Values are
  /// compared in chunks on one worker per hardware thread.
  bool approx_equal(const SparseMatrix& other, double rel_tol = 1e-9) const;

  /// Number of multiply-add operations in computing this * other.
  std::int64_t flops_with(const SparseMatrix& other) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> col_ptr_;   // size cols+1
  EntryArray<int> row_idx_;  // size nnz, sorted within each column
  EntryArray<double> values_;
};

}  // namespace limsynth::spgemm
