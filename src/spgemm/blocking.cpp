#include "spgemm/blocking.hpp"

#include "util/error.hpp"

namespace limsynth::spgemm {

std::vector<BlockTask> make_block_tasks(const SparseMatrix& a,
                                        const SparseMatrix& b,
                                        const BlockingConfig& config) {
  LIMS_CHECK(a.cols() == b.rows());
  LIMS_CHECK(config.row_block >= 1 && config.col_stripe >= 1);
  std::vector<BlockTask> tasks;
  int rb = 0;
  for (int r0 = 0; r0 < a.rows(); r0 += config.row_block, ++rb) {
    int cs = 0;
    for (int c0 = 0; c0 < b.cols(); c0 += config.col_stripe, ++cs) {
      BlockTask t;
      t.row_block_index = rb;
      t.col_stripe_index = cs;
      t.row_begin = r0;
      t.row_end = std::min(a.rows(), r0 + config.row_block);
      t.col_begin = c0;
      t.col_end = std::min(b.cols(), c0 + config.col_stripe);
      tasks.push_back(t);
    }
  }
  return tasks;
}

BlockedColumns slice_rows(const SparseMatrix& a, int row_begin, int row_end) {
  LIMS_CHECK(row_begin >= 0 && row_end <= a.rows() && row_begin < row_end);
  BlockedColumns out;
  out.row_begin = row_begin;
  out.col_ptr.reserve(static_cast<std::size_t>(a.cols()) + 1);
  out.col_ptr.push_back(0);
  for (int c = 0; c < a.cols(); ++c) {
    for (int k = a.col_begin(c); k < a.col_end(c); ++k) {
      const int r = a.row_index(k);
      if (r >= row_begin && r < row_end)
        out.entries.push_back({r - row_begin, a.value(k)});
    }
    out.col_ptr.push_back(static_cast<int>(out.entries.size()));
  }
  return out;
}

}  // namespace limsynth::spgemm
