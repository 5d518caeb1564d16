#include "arch/cores.hpp"

#include <algorithm>
#include <bit>
#include <thread>
#include <tuple>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace limsynth::arch {

namespace {

using spgemm::BlockedColumns;
using spgemm::BlockTask;
using spgemm::Entry;
using spgemm::SparseMatrix;

// Fraction of a LiM task's drain cycles hidden behind the next stripe's
// compute (double-buffered CAM/scratchpad pair).
constexpr double kDrainOverlap = 0.5;

// Grows `v` to at least `n` elements; new ones are value-initialized.
template <class T>
void grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

// Where one task writes its tile of C: the entries of its stripe's column
// cj, in increasing row order, fill [first[cj], first[cj] + size[cj]) of
// C's arrays.
struct Tile {
  const int* first;
  const int* size;
  int* row_idx;
  double* values;

  /// The offset of column cj's first entry; the task found `entries` rows
  /// there, which must be the number the tiling counted.
  std::size_t column(std::size_t cj, std::int64_t entries) const {
    LIMS_CHECK(entries == size[cj]);
    return static_cast<std::size_t>(first[cj]);
  }
};

// The block tasks of C = A * B, run on one worker per hardware thread.
// C is sized before the tasks run, so each task writes its counters and
// its tile straight into its own slots: C and the summed counters are the
// same whichever worker ran which task.
class Tiling {
 public:
  Tiling(const SparseMatrix& a, const SparseMatrix& b, const CoreConfig& cfg)
      : tasks_(spgemm::make_block_tasks(a, b, cfg.blocking)),
        block_rows_(static_cast<std::size_t>(
            std::min(cfg.blocking.row_block, a.rows()))),
        workers_(static_cast<int>(
            std::max(1U, std::thread::hardware_concurrency()))) {
    while (stripes_ < tasks_.size() && tasks_[stripes_].row_block_index == 0)
      ++stripes_;
    if (stripes_ == 0) return;
    width_ = static_cast<std::size_t>(tasks_[0].col_end - tasks_[0].col_begin);
    blocks_.resize(tasks_.size() / stripes_);
    parallel_for(blocks_.size(), workers_, [&](std::size_t rb) {
      const BlockTask& first = tasks_[rb * stripes_];
      blocks_[rb] = spgemm::slice_rows(a, first.row_begin, first.row_end);
      return true;
    });

    // A tile's column holds the distinct rows of the A-block columns that
    // the B column selects.
    size_.resize(tasks_.size() * width_);
    parallel_for(tasks_.size(), workers_, [&](std::size_t i) {
      const std::size_t words = (block_rows_ + 63) / 64;
      thread_local std::vector<std::uint64_t> bits;
      grow(bits, words);
      const BlockTask& task = tasks_[i];
      const BlockedColumns& block = block_of(task);
      for (int j = task.col_begin; j < task.col_end; ++j) {
        for (int kb = b.col_begin(j); kb < b.col_end(j); ++kb) {
          for (const Entry& e : block.column(b.row_index(kb))) {
            const auto r = static_cast<std::size_t>(e.row);
            bits[r / 64] |= std::uint64_t{1} << (r % 64);
          }
        }
        int rows = 0;
        for (std::size_t w = 0; w < words; ++w) {
          rows += std::popcount(bits[w]);
          bits[w] = 0;
        }
        size_[i * width_ + static_cast<std::size_t>(j - task.col_begin)] = rows;
      }
      return true;
    });
  }

  std::size_t stripes() const { return stripes_; }
  const BlockTask& task(std::size_t i) const { return tasks_[i]; }
  std::size_t block_rows() const { return block_rows_; }
  int workers() const { return workers_; }

  /// Runs run_task(task, its A block, its tile, its counters) for every
  /// task on the pool; sums the counters into `*stats` and returns C.
  template <class RunTask>
  SparseMatrix run(int rows, int cols, CoreStats* stats,
                   const RunTask& run_task) const {
    // Columns in increasing order, each column's row blocks in row order.
    std::vector<int> col_ptr(static_cast<std::size_t>(cols) + 1, 0);
    std::vector<int> first(size_.size());
    int nnz = 0;
    for (std::size_t s = 0; s < stripes_; ++s) {
      for (int j = tasks_[s].col_begin; j < tasks_[s].col_end; ++j) {
        col_ptr[static_cast<std::size_t>(j)] = nnz;
        const auto cj = static_cast<std::size_t>(j - tasks_[s].col_begin);
        for (std::size_t i = s; i < tasks_.size(); i += stripes_) {
          first[i * width_ + cj] = nnz;
          nnz += size_[i * width_ + cj];
        }
      }
    }
    col_ptr.back() = nnz;

    std::vector<int> row_idx(static_cast<std::size_t>(nnz));
    std::vector<double> values(static_cast<std::size_t>(nnz));
    std::vector<CoreStats> task_stats(tasks_.size());
    parallel_for(tasks_.size(), workers_, [&](std::size_t i) {
      const Tile tile{first.data() + i * width_, size_.data() + i * width_,
                      row_idx.data(), values.data()};
      run_task(tasks_[i], block_of(tasks_[i]), tile, task_stats[i]);
      return true;
    });

    if (stats != nullptr) {
      CoreStats st;
      for (const CoreStats& s : task_stats) {
        st.cycles += s.cycles;
        st.broadcasts += s.broadcasts;
        st.searches += s.searches;
        st.inserts += s.inserts;
        st.spills += s.spills;
        st.spilled_entries += s.spilled_entries;
        st.pops += s.pops;
        st.shift_cycles += s.shift_cycles;
        st.fifo_loads += s.fifo_loads;
        st.multiplies += s.multiplies;
        st.output_entries += s.output_entries;
        st.block_tasks += s.block_tasks;
        st.load_cycles += s.load_cycles;
      }
      *stats = st;
    }
    return SparseMatrix::from_csc(rows, cols, std::move(col_ptr),
                                  std::move(row_idx), std::move(values));
  }

 private:
  const BlockedColumns& block_of(const BlockTask& task) const {
    return blocks_[static_cast<std::size_t>(task.row_block_index)];
  }

  std::vector<BlockTask> tasks_;  // task rb * stripes + s: row-block-major
  std::size_t stripes_ = 0;
  std::size_t width_ = 0;  // columns per stripe
  std::size_t block_rows_ = 0;
  int workers_ = 1;
  // A's row blocks, each sliced once; element rb is row block rb.
  std::vector<BlockedColumns> blocks_;
  std::vector<int> size_;  // task i's column cj: entry i * width_ + cj
};

// On-chip buffer fill from the 3D DRAM stack, double-buffered against
// compute. The chip runs tasks row block by row block, so the A block is
// loaded by its first column stripe and reused across the others.
std::int64_t task_load_cycles(std::int64_t nnz_b_stripe, const BlockTask& task,
                              const BlockedColumns& a_block) {
  const auto nnz_a_block = static_cast<std::int64_t>(a_block.entries.size());
  return dram_stream_cycles(nnz_b_stripe) +
         (task.col_stripe_index == 0 ? dram_stream_cycles(nnz_a_block) : 0);
}

// Sorts `v` ascending and returns its number of inversions: insertion sort
// on runs of 16, then bottom-up merges (`scratch` is reused storage).
std::int64_t sort_counting_inversions(std::vector<std::int64_t>& v,
                                      std::vector<std::int64_t>& scratch) {
  constexpr std::size_t kRun = 16;
  const std::size_t n = v.size();
  std::int64_t inversions = 0;
  for (std::size_t lo = 0; lo < n; lo += kRun) {
    const std::size_t hi = std::min(lo + kRun, n);
    for (std::size_t i = lo + 1; i < hi; ++i) {
      const std::int64_t x = v[i];
      std::size_t j = i;
      for (; j > lo && v[j - 1] > x; --j) v[j] = v[j - 1];
      v[j] = x;
      inversions += static_cast<std::int64_t>(i - j);
    }
  }
  if (n <= kRun) return inversions;
  scratch.resize(n);
  for (std::size_t width = kRun; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::size_t i = lo, j = mid, o = lo;
      while (i < mid && j < hi) {
        if (v[j] < v[i]) {
          inversions += static_cast<std::int64_t>(mid - i);
          scratch[o++] = v[j++];
        } else {
          scratch[o++] = v[i++];
        }
      }
      while (i < mid) scratch[o++] = v[i++];
      while (j < hi) scratch[o++] = v[j++];
    }
    v.swap(scratch);
  }
  return inversions;
}

// B entries of one column stripe are ordered by (k, column): the order in
// which the stripe's B rows are loaded into the column multipliers.
struct BEntry {
  int k = 0;
  int col = 0;  // offset within the stripe
  double value = 0.0;
};

// One worker's LiM state over a dense (stripe column, block row) grid,
// reused by every task the worker runs. A CAM holds the rows stamped with
// its current epoch. Every fresh or drained CAM takes a new epoch, unique
// within these arrays, so stale stamps never match and are never cleared. A
// bitmap per column marks the rows accumulated in the current task; the
// drain reads it in row order and clears it.
struct LimScratch {
  struct Column {
    std::uint64_t epoch = 0;
    int occupancy = 0;
    std::int64_t spilled = 0;
    std::int64_t accumulated = 0;  // rows accumulated in this task
  };
  std::vector<std::uint64_t> cam_stamp;
  std::vector<double> acc;
  std::vector<std::uint64_t> acc_bits;
  std::vector<Column> cols;
  std::uint64_t epoch = 0;
};

void lim_task(const CoreConfig& cfg, const BlockTask& task,
              const BlockedColumns& a_block, const BEntry* it,
              const BEntry* end, std::size_t block_rows, const Tile& tile,
              CoreStats& st) {
  // Dies with the pool's worker thread at the end of the product.
  thread_local LimScratch w;
  const std::size_t words = (block_rows + 63) / 64;
  const auto n_cols = static_cast<std::size_t>(task.col_end - task.col_begin);
  grow(w.cam_stamp, block_rows * n_cols);
  grow(w.acc, block_rows * n_cols);
  grow(w.acc_bits, words * n_cols);
  grow(w.cols, n_cols);
  for (std::size_t cj = 0; cj < n_cols; ++cj) w.cols[cj] = {++w.epoch, 0, 0, 0};

  const std::int64_t nnz_b_stripe = end - it;
  std::int64_t compute = 0;

  while (it != end) {
    const BEntry* group_end = it;
    while (group_end != end && group_end->k == it->k) ++group_end;
    const auto a_col = a_block.column(it->k);
    if (!a_col.empty()) {
      // Load the B-row values into the column multipliers, then one
      // broadcast cycle per A element: every active column matches and
      // updates in parallel.
      const auto n_a = static_cast<std::int64_t>(a_col.size());
      compute += 1 + n_a;
      st.broadcasts += n_a;
      st.searches += n_a * (group_end - it);
      st.multiplies += n_a * (group_end - it);
      // Columns are independent, so each column's match sequence runs
      // to completion in turn.
      for (const BEntry* t = it; t != group_end; ++t) {
        const auto cj = static_cast<std::size_t>(t->col);
        LimScratch::Column& col = w.cols[cj];
        std::uint64_t* stamp = w.cam_stamp.data() + cj * block_rows;
        double* sum = w.acc.data() + cj * block_rows;
        std::uint64_t* bits = w.acc_bits.data() + cj * words;
        for (const Entry& ae : a_col) {
          const auto r = static_cast<std::size_t>(ae.row);
          if (stamp[r] != col.epoch) {
            const std::uint64_t bit = std::uint64_t{1} << (r % 64);
            if ((bits[r / 64] & bit) == 0) {
              bits[r / 64] |= bit;
              sum[r] = 0.0;
              ++col.accumulated;
            }
            if (col.occupancy == cfg.cam_entries) {
              // Overflow: the CAM contents drain into the spill FIFO in
              // the background (double-buffered), costing a merge pass at
              // drain rather than a stall here.
              ++st.spills;
              st.spilled_entries += col.occupancy;
              col.spilled += col.occupancy;
              col.occupancy = 0;
              col.epoch = ++w.epoch;
            }
            ++st.inserts;
            stamp[r] = col.epoch;
            ++col.occupancy;
          }
          sum[r] += ae.value * t->value;
        }
      }
    }
    it = group_end;
  }

  // Drain: assemble columns into C through the vertical CAM; spilled
  // segments take an extra merge pass. Partially hidden behind the next
  // stripe (double-buffered).
  std::int64_t drain = 0;
  for (std::size_t cj = 0; cj < n_cols; ++cj) {
    const LimScratch::Column& col = w.cols[cj];
    std::size_t at = tile.column(cj, col.accumulated);
    if (col.accumulated == 0) continue;
    drain += 2;  // vertical CAM column-index match + setup
    drain += col.accumulated;  // read out
    drain += 2 * col.spilled;  // re-stream spilled segments through CAM
    st.output_entries += col.accumulated;
    const double* sum = w.acc.data() + cj * block_rows;
    std::uint64_t* bits = w.acc_bits.data() + cj * words;
    for (std::size_t wi = 0; wi < words; ++wi) {
      for (std::uint64_t word = bits[wi]; word != 0; word &= word - 1) {
        const std::size_t r =
            wi * 64 + static_cast<std::size_t>(std::countr_zero(word));
        tile.row_idx[at] = task.row_begin + static_cast<int>(r);
        tile.values[at++] = sum[r];
      }
      bits[wi] = 0;
    }
  }
  drain = static_cast<std::int64_t>(static_cast<double>(drain) *
                                    (1.0 - kDrainOverlap));

  const std::int64_t load = task_load_cycles(nnz_b_stripe, task, a_block);
  st.load_cycles += load;
  st.cycles += std::max(compute, load) + drain;
  ++st.block_tasks;
}

// One worker's heap-model state, reused by every task the worker runs.
struct HeapScratch {
  // The lists to merge for one column: one per nonzero B(k, j).
  struct List {
    const Entry* begin;
    const Entry* end;
    double scale;
  };
  std::vector<List> lists;
  std::vector<double> sum;          // per block row
  std::vector<int> slot;            // per block row: successors, then slots
  std::vector<std::uint64_t> bits;  // rows accumulated in this column
  std::vector<std::int64_t> keys, sort_scratch;
};

// The heap core's sorted head FIFO is reduced to what the model counts: an
// insert costs one read+write pair per entry it displaces. Keys are (row,
// list); pops come out in increasing key order, and every inserted key is
// larger than the last one popped, so an entry inserted earlier with a
// larger key is still present. The displaced count of a column is thus the
// number of inversions of its keys listed in push order. Push order sorts
// elements by predecessor row (the previous row of the same list, -1 for a
// list's head), then by list index.
void heap_task(const SparseMatrix& b, const BlockTask& task,
               const BlockedColumns& a_block, std::size_t block_rows,
               const Tile& tile, CoreStats& st) {
  // Dies with the pool's worker thread at the end of the product.
  thread_local HeapScratch w;
  const std::size_t words = (block_rows + 63) / 64;
  grow(w.sum, block_rows);
  grow(w.slot, block_rows);
  grow(w.bits, words);
  std::int64_t nnz_b_stripe = 0;
  std::int64_t compute = 0;

  for (int j = task.col_begin; j < task.col_end; ++j) {
    w.lists.clear();
    std::int64_t elements = 0;
    for (int kb = b.col_begin(j); kb < b.col_end(j); ++kb) {
      ++nnz_b_stripe;
      const auto a_col = a_block.column(b.row_index(kb));
      if (a_col.empty()) continue;
      w.lists.push_back(
          {a_col.data(), a_col.data() + a_col.size(), b.value(kb)});
      elements += static_cast<std::int64_t>(a_col.size());
    }
    if (w.lists.empty()) continue;

    // Accumulate each row in list order, as the heap pops it, and count
    // the row's elements that have a successor in their list.
    std::int64_t rows_out = 0;
    for (const HeapScratch::List& list : w.lists) {
      for (const Entry* e = list.begin; e != list.end; ++e) {
        const auto r = static_cast<std::size_t>(e->row);
        const std::uint64_t bit = std::uint64_t{1} << (r % 64);
        if ((w.bits[r / 64] & bit) == 0) {
          w.bits[r / 64] |= bit;
          w.sum[r] = 0.0;
          w.slot[r] = 0;
          ++rows_out;
        }
        w.sum[r] += e->value * list.scale;
        if (e + 1 != list.end) ++w.slot[r];
      }
    }

    // Write the rows out in row order, turning each row's successor count
    // into the first push slot of those successors: the heads come first,
    // then the successors of each row in row order.
    const auto n_lists = static_cast<int>(w.lists.size());
    std::size_t at = tile.column(
        static_cast<std::size_t>(j - task.col_begin), rows_out);
    int next_slot = n_lists;
    for (std::size_t wi = 0; wi < words; ++wi) {
      for (std::uint64_t word = w.bits[wi]; word != 0; word &= word - 1) {
        const std::size_t r =
            wi * 64 + static_cast<std::size_t>(std::countr_zero(word));
        tile.row_idx[at] = task.row_begin + static_cast<int>(r);
        tile.values[at++] = w.sum[r];
        const int successors = w.slot[r];
        w.slot[r] = next_slot;
        next_slot += successors;
      }
      w.bits[wi] = 0;
    }

    // Lay the keys out in push order (stable in list order within a
    // predecessor row) and count the displaced entries.
    w.keys.resize(static_cast<std::size_t>(elements));
    int head_slot = 0;
    for (int l = 0; l < n_lists; ++l) {
      const HeapScratch::List& list = w.lists[static_cast<std::size_t>(l)];
      for (const Entry* e = list.begin; e != list.end; ++e) {
        const int s = e == list.begin
                          ? head_slot++
                          : w.slot[static_cast<std::size_t>((e - 1)->row)]++;
        w.keys[static_cast<std::size_t>(s)] =
            static_cast<std::int64_t>(e->row) * n_lists + l;
      }
    }
    const std::int64_t shifts =
        sort_counting_inversions(w.keys, w.sort_scratch);

    st.fifo_loads += elements;
    st.pops += elements;
    st.multiplies += elements;
    st.shift_cycles += 2 * shifts;  // a read+write pair per displaced entry
    st.output_entries += rows_out;
    compute += elements;               // fill the FIFOs
    compute += elements + 2 * shifts;  // one insert per element, plus shifts
    compute += 2 * elements;  // FIFO read + pointer update, fused MAC
    compute += rows_out - 1;  // result writes to the output SRAM
    compute += n_lists;       // FIFO reset
  }

  const std::int64_t load = task_load_cycles(nnz_b_stripe, task, a_block);
  st.load_cycles += load;
  st.cycles += std::max(compute, load);
  ++st.block_tasks;
}

}  // namespace

SparseMatrix lim_spgemm(const SparseMatrix& a, const SparseMatrix& b,
                        const CoreConfig& cfg, CoreStats* stats) {
  LIMS_CHECK(a.cols() == b.rows());
  const Tiling tiling(a, b, cfg);

  // The tasks of column stripe s are tasks s, s + stripes, ...; the
  // stripe's B entries sit where its columns start in B's CSC order.
  std::vector<BEntry> b_entries(static_cast<std::size_t>(b.nnz()));
  parallel_for(tiling.stripes(), tiling.workers(), [&](std::size_t s) {
    const BlockTask& task = tiling.task(s);
    BEntry* const first = b_entries.data() + b.col_begin(task.col_begin);
    BEntry* out = first;
    for (int j = task.col_begin; j < task.col_end; ++j)
      for (int kb = b.col_begin(j); kb < b.col_end(j); ++kb)
        *out++ = {b.row_index(kb), j - task.col_begin, b.value(kb)};
    std::sort(first, out, [](const BEntry& x, const BEntry& y) {
      return std::tie(x.k, x.col) < std::tie(y.k, y.col);
    });
    return true;
  });

  return tiling.run(a.rows(), b.cols(), stats,
                    [&](const BlockTask& task, const BlockedColumns& a_block,
                        const Tile& tile, CoreStats& st) {
                      lim_task(cfg, task, a_block,
                               b_entries.data() + b.col_begin(task.col_begin),
                               b_entries.data() + b.col_begin(task.col_end),
                               tiling.block_rows(), tile, st);
                    });
}

SparseMatrix heap_spgemm(const SparseMatrix& a, const SparseMatrix& b,
                         const CoreConfig& cfg, CoreStats* stats) {
  LIMS_CHECK(a.cols() == b.rows());
  const Tiling tiling(a, b, cfg);
  return tiling.run(a.rows(), b.cols(), stats,
                    [&](const BlockTask& task, const BlockedColumns& a_block,
                        const Tile& tile, CoreStats& st) {
                      heap_task(b, task, a_block, tiling.block_rows(), tile,
                                st);
                    });
}

}  // namespace limsynth::arch
