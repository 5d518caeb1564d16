#include "spgemm/reference.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <thread>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace limsynth::spgemm {

namespace {

// Column chunks per worker. The chunks carry equal flops, but one heavy
// column cannot be split, so spare chunks let the pool even out the rest.
constexpr std::size_t kChunksPerWorker = 4;

// One worker's dense sparse-accumulator over the rows of C. Between
// columns every `seen` flag is clear.
struct Accumulator {
  std::vector<char> seen;
  std::vector<double> sum;
  std::vector<int> touched;  // the current column's rows, first touch first
};

// The calling worker's accumulator, covering at least `rows` rows.
Accumulator& accumulator(std::size_t rows) {
  thread_local Accumulator w;
  if (w.seen.size() < rows) {
    w.seen.resize(rows, 0);
    w.sum.resize(rows);
  }
  return w;
}

// Gathers column j of A * B into `w`: its distinct rows into `touched`
// and, when kSum, each row's products added to 0.0 in B's then A's entry
// order, the order of the serial column loop.
template <bool kSum>
void gather(const SparseMatrix& a, const SparseMatrix& b, int j,
            Accumulator& w) {
  w.touched.clear();
  for (int kb = b.col_begin(j); kb < b.col_end(j); ++kb) {
    const int k = b.row_index(kb);
    const double bv = b.value(kb);
    for (int ka = a.col_begin(k); ka < a.col_end(k); ++ka) {
      const int i = a.row_index(ka);
      const auto r = static_cast<std::size_t>(i);
      if (w.seen[r] == 0) {
        w.seen[r] = 1;
        if constexpr (kSum) w.sum[r] = 0.0;
        w.touched.push_back(i);
      }
      if constexpr (kSum) w.sum[r] += a.value(ka) * bv;
    }
  }
}

}  // namespace

SparseMatrix multiply_reference(const SparseMatrix& a, const SparseMatrix& b) {
  LIMS_CHECK(a.cols() == b.rows());
  const int cols = b.cols();
  const auto rows = static_cast<std::size_t>(a.rows());
  const int workers =
      static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));

  // Chunk c holds columns [bound[c], bound[c + 1]), cut where the running
  // flop count crosses c / chunks of the total.
  std::vector<std::int64_t> flops(static_cast<std::size_t>(cols) + 1, 0);
  for (int j = 0; j < cols; ++j) {
    std::int64_t f = 0;
    for (int kb = b.col_begin(j); kb < b.col_end(j); ++kb)
      f += a.col_nnz(b.row_index(kb));
    flops[static_cast<std::size_t>(j) + 1] =
        flops[static_cast<std::size_t>(j)] + f;
  }
  const std::size_t chunks =
      std::min(static_cast<std::size_t>(cols),
               kChunksPerWorker * static_cast<std::size_t>(workers));
  std::vector<int> bound(chunks + 1, cols);
  const auto total = static_cast<std::uint64_t>(flops.back());
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto target = static_cast<std::int64_t>(
        total / chunks * c + total % chunks * c / chunks);
    bound[c] = static_cast<int>(
        std::lower_bound(flops.begin(), flops.end(), target) - flops.begin());
  }
  const auto each_chunk = [&](const auto& column) {
    parallel_for(chunks, workers, [&](std::size_t c) {
      Accumulator& w = accumulator(rows);
      for (int j = bound[c]; j < bound[c + 1]; ++j) column(j, w);
      return true;
    });
  };

  // Pass 1 counts each column's rows; their prefix sum sizes C exactly.
  std::vector<int> col_ptr(static_cast<std::size_t>(cols) + 1, 0);
  each_chunk([&](int j, Accumulator& w) {
    gather<false>(a, b, j, w);
    for (int i : w.touched) w.seen[static_cast<std::size_t>(i)] = 0;
    col_ptr[static_cast<std::size_t>(j) + 1] =
        static_cast<int>(w.touched.size());
  });
  std::int64_t nnz = 0;
  for (std::size_t j = 1; j < col_ptr.size(); ++j) {
    nnz += col_ptr[j];
    LIMS_CHECK_MSG(nnz <= INT_MAX, "product has more than " << INT_MAX
                                                           << " entries");
    col_ptr[j] = static_cast<int>(nnz);
  }

  // Pass 2 sums each column and writes its sorted rows in place.
  EntryArray<int> row_idx(static_cast<std::size_t>(nnz));
  EntryArray<double> values(static_cast<std::size_t>(nnz));
  each_chunk([&](int j, Accumulator& w) {
    gather<true>(a, b, j, w);
    std::sort(w.touched.begin(), w.touched.end());
    auto at = static_cast<std::size_t>(col_ptr[static_cast<std::size_t>(j)]);
    for (int i : w.touched) {
      const auto r = static_cast<std::size_t>(i);
      w.seen[r] = 0;
      row_idx[at] = i;
      values[at] = w.sum[r];
      ++at;
    }
  });
  return SparseMatrix::from_csc(a.rows(), cols, std::move(col_ptr),
                                std::move(row_idx), std::move(values));
}

}  // namespace limsynth::spgemm
