// Sub-block decomposition (Zhu et al. [12], used by the paper's chips):
// row indices are 10 bits, so A is split into 1024-row blocks, and B is
// processed in stripes of N=32 columns; each (row block, column stripe)
// task produces a 1024 x 32 tile of C. Access patterns become predictable,
// which is what lets the 3D-stacked DRAM stream blocks at full row-buffer
// bandwidth.
#pragma once

#include <span>
#include <vector>

#include "spgemm/sparse.hpp"

namespace limsynth::spgemm {

struct BlockingConfig {
  int row_block = 1024;  // rows of A per block (10-bit CAM index)
  int col_stripe = 32;   // columns of B per stripe (horizontal CAM count)
};

struct BlockTask {
  int row_block_index = 0;  // which 1024-row slice of A / C
  int col_stripe_index = 0; // which 32-column slice of B / C
  int row_begin = 0, row_end = 0;
  int col_begin = 0, col_end = 0;
};

/// Enumerates all (row block x column stripe) tasks for C = A * B, row
/// block by row block: task rb * stripes + cs.
std::vector<BlockTask> make_block_tasks(const SparseMatrix& a,
                                        const SparseMatrix& b,
                                        const BlockingConfig& config);

/// Nonzeros of A restricted to a row block, in CSC order (row indices
/// rebased to the block: 0..row_block).
struct BlockedColumns {
  int row_begin = 0;
  std::vector<int> col_ptr;    // size cols+1
  std::vector<Entry> entries;  // size col_ptr.back()

  /// Entries of A(:, k) with row in [row_begin, row_end), rebased and
  /// sorted by row; empty when the column has none there.
  std::span<const Entry> column(int k) const {
    const auto c = static_cast<std::size_t>(k);
    return {entries.data() + col_ptr[c],
            static_cast<std::size_t>(col_ptr[c + 1] - col_ptr[c])};
  }
};
BlockedColumns slice_rows(const SparseMatrix& a, int row_begin, int row_end);

}  // namespace limsynth::spgemm
