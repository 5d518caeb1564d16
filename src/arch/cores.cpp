#include "arch/cores.hpp"

#include <algorithm>
#include <bit>
#include <tuple>

#include "util/error.hpp"

namespace limsynth::arch {

namespace {

using spgemm::BlockTask;
using spgemm::Entry;
using spgemm::SparseMatrix;

// One entry of C as a core writes it out. Tasks run row block by row block,
// so each column's entries arrive in increasing row order, interleaved with
// the other columns' entries.
struct OutEntry {
  int col = 0;
  int row = 0;
  double value = 0.0;
};

// Builds C from the cores' output with a stable counting pass over columns.
SparseMatrix assemble_csc(int rows, int cols,
                          const std::vector<OutEntry>& out) {
  std::vector<int> col_ptr(static_cast<std::size_t>(cols) + 1, 0);
  for (const OutEntry& e : out) ++col_ptr[static_cast<std::size_t>(e.col) + 1];
  for (std::size_t c = 0; c < static_cast<std::size_t>(cols); ++c)
    col_ptr[c + 1] += col_ptr[c];
  std::vector<int> next(col_ptr.begin(), col_ptr.end() - 1);
  std::vector<int> row_idx(out.size());
  std::vector<double> values(out.size());
  for (const OutEntry& e : out) {
    const auto k =
        static_cast<std::size_t>(next[static_cast<std::size_t>(e.col)]++);
    row_idx[k] = e.row;
    values[k] = e.value;
  }
  return SparseMatrix::from_csc(rows, cols, std::move(col_ptr),
                                std::move(row_idx), std::move(values));
}

// The A row block of the current task. It is sliced when a task enters a
// new row block and reused across all of that block's column stripes.
struct ABlock {
  int index = -1;
  spgemm::BlockedColumns columns;
  std::int64_t nnz = 0;

  /// Moves to the task's row block; true when the block had to be loaded.
  bool enter(const SparseMatrix& a, const BlockTask& task) {
    if (task.row_block_index == index) return false;
    columns = spgemm::slice_rows(a, task.row_begin, task.row_end);
    index = task.row_block_index;
    nnz = 0;
    for (const auto& col_entries : columns.entries)
      nnz += static_cast<std::int64_t>(col_entries.size());
    return true;
  }

  const std::vector<Entry>& column(int k) const {
    return columns.entries[static_cast<std::size_t>(k)];
  }
};

// On-chip buffer fill from the 3D DRAM stack, double-buffered against
// compute. The A block is loaded once per row block and reused across all
// of its column stripes.
std::int64_t task_load_cycles(const CoreConfig& cfg, std::int64_t nnz_b_stripe,
                              bool new_block, const ABlock& a_block) {
  return dram_stream_cycles(cfg.dram, nnz_b_stripe) +
         (new_block ? dram_stream_cycles(cfg.dram, a_block.nnz) : 0);
}

// Sorts `v` ascending and returns its number of inversions: insertion sort
// on runs of 16, then bottom-up merges (`scratch` is reused storage).
std::int64_t sort_counting_inversions(std::vector<int>& v,
                                      std::vector<int>& scratch) {
  constexpr std::size_t kRun = 16;
  const std::size_t n = v.size();
  std::int64_t inversions = 0;
  for (std::size_t lo = 0; lo < n; lo += kRun) {
    const std::size_t hi = std::min(lo + kRun, n);
    for (std::size_t i = lo + 1; i < hi; ++i) {
      const int x = v[i];
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

// The heap core's sorted head FIFO, reduced to what the model counts.
//
// Inserting key (row, list) shifts every present entry with a larger key.
// Pops are monotone in key and every inserted key is larger than the last
// one popped, so any earlier key larger than the new one is still present:
// the shift count is the number of present heads above the key. Heads in
// higher rows are counted by a Fenwick tree over the block's rows. Heads in
// the same row with a higher list index are the inversions of that row's
// insertion order, counted when the row is popped. A bitmap of non-empty
// rows finds the minimum. Popping a row empties its bucket, its bit and its
// Fenwick count, so the queue is clean again when a column's merge ends.
class HeadQueue {
 public:
  /// Rows [0, rows) and list indices [0, lists).
  HeadQueue(int rows, int lists)
      : first_(static_cast<std::size_t>(rows), -1),
        last_(static_cast<std::size_t>(rows), -1),
        next_(static_cast<std::size_t>(lists), -1),
        fenwick_(static_cast<std::size_t>(rows) + 1, 0),
        bits_((static_cast<std::size_t>(rows) + 63) / 64, 0) {}

  bool empty() const { return size_ == 0; }

  /// Inserts list `list`'s head at `row`; returns the heads in higher rows.
  std::int64_t push(int row, int list) {
    const std::int64_t above = size_ - count_through(row);
    for (auto i = static_cast<std::size_t>(row) + 1; i < fenwick_.size();
         i += i & (~i + 1))
      ++fenwick_[i];
    ++size_;
    const auto r = static_cast<std::size_t>(row);
    if (first_[r] < 0) {
      first_[r] = list;
      bits_[r / 64] |= std::uint64_t{1} << (r % 64);
    } else {
      next_[static_cast<std::size_t>(last_[r])] = list;
    }
    last_[r] = list;
    next_[static_cast<std::size_t>(list)] = -1;
    return above;
  }

  /// Removes the lowest non-empty row (at least `from`) and returns it, with
  /// its lists in ascending order in `lists`; adds the row's same-row shifts
  /// to `*shifts`.
  int pop_row(int from, std::vector<int>& lists, std::int64_t* shifts) {
    auto w = static_cast<std::size_t>(from) / 64;
    std::uint64_t word = bits_[w] & (~std::uint64_t{0} << (from % 64));
    while (word == 0) word = bits_[++w];
    const std::size_t r =
        w * 64 + static_cast<std::size_t>(std::countr_zero(word));
    bits_[w] &= ~(std::uint64_t{1} << (r % 64));

    lists.clear();
    for (int l = first_[r]; l >= 0; l = next_[static_cast<std::size_t>(l)])
      lists.push_back(l);
    first_[r] = -1;
    if (lists.size() > 1) *shifts += sort_counting_inversions(lists, scratch_);
    const auto n = static_cast<int>(lists.size());
    for (std::size_t i = r + 1; i < fenwick_.size(); i += i & (~i + 1))
      fenwick_[i] -= n;
    size_ -= n;
    return static_cast<int>(r);
  }

 private:
  // Present heads in rows [0, row].
  std::int64_t count_through(int row) const {
    std::int64_t n = 0;
    for (auto i = static_cast<std::size_t>(row) + 1; i > 0; i &= i - 1)
      n += fenwick_[i];
    return n;
  }

  std::vector<int> first_, last_;  // per row: bucket's first/last list
  std::vector<int> next_;          // per list: next list in its row's bucket
  std::vector<int> fenwick_;       // present heads per row (1-based tree)
  std::vector<std::uint64_t> bits_;  // non-empty rows
  std::vector<int> scratch_;
  std::int64_t size_ = 0;
};

}  // namespace

SparseMatrix lim_spgemm(const SparseMatrix& a, const SparseMatrix& b,
                        const CoreConfig& cfg, CoreStats* stats) {
  LIMS_CHECK(a.cols() == b.rows());
  CoreStats st;
  std::vector<OutEntry> out;

  const auto tasks = spgemm::make_block_tasks(a, b, cfg.blocking);
  ABlock a_block;

  // B entries of each column stripe ordered by (k, column): the order in
  // which the stripe's B rows are loaded into the column multipliers.
  struct BEntry {
    int k = 0;
    int col = 0;  // offset within the stripe
    double value = 0.0;
  };
  const int stripe = cfg.blocking.col_stripe;
  std::vector<BEntry> b_entries;
  b_entries.reserve(static_cast<std::size_t>(b.nnz()));
  std::vector<std::size_t> stripe_begin{0};
  for (int c0 = 0; c0 < b.cols(); c0 += stripe) {
    const int c1 = c0 + std::min(stripe, b.cols() - c0);
    for (int j = c0; j < c1; ++j)
      for (int kb = b.col_begin(j); kb < b.col_end(j); ++kb)
        b_entries.push_back({b.row_index(kb), j - c0, b.value(kb)});
    const auto first =
        b_entries.begin() + static_cast<std::ptrdiff_t>(stripe_begin.back());
    std::sort(first, b_entries.end(), [](const BEntry& x, const BEntry& y) {
      return std::tie(x.k, x.col) < std::tie(y.k, y.col);
    });
    stripe_begin.push_back(b_entries.size());
  }

  // Per-column state over a dense (column, block row) grid. A CAM holds
  // the rows stamped with its current epoch. Every fresh or drained CAM
  // takes a new, globally unique epoch, so stale stamps never match and
  // are never cleared. A bitmap per column marks the rows accumulated in
  // the current task; the drain reads it in row order and clears it.
  const auto block_rows =
      static_cast<std::size_t>(std::min(cfg.blocking.row_block, a.rows()));
  const std::size_t words = (block_rows + 63) / 64;
  const auto max_cols = static_cast<std::size_t>(std::min(stripe, b.cols()));
  std::vector<std::uint64_t> cam_stamp(block_rows * max_cols, 0);
  std::vector<double> acc(block_rows * max_cols, 0.0);
  std::vector<std::uint64_t> acc_bits(words * max_cols, 0);
  struct Column {
    std::uint64_t epoch = 0;
    int occupancy = 0;
    std::int64_t spilled = 0;
    std::int64_t accumulated = 0;  // rows accumulated in this task
  };
  std::vector<Column> cols(max_cols);
  std::uint64_t epoch = 0;

  for (const BlockTask& task : tasks) {
    const bool new_block = a_block.enter(a, task);
    const auto n_cols = static_cast<std::size_t>(task.col_end - task.col_begin);
    for (std::size_t cj = 0; cj < n_cols; ++cj) {
      cols[cj] = {++epoch, 0, 0, 0};
    }

    const auto s = static_cast<std::size_t>(task.col_stripe_index);
    const BEntry* it = b_entries.data() + stripe_begin[s];
    const BEntry* const end = b_entries.data() + stripe_begin[s + 1];
    const std::int64_t nnz_b_stripe = end - it;
    std::int64_t compute = 0;

    while (it != end) {
      const BEntry* group_end = it;
      while (group_end != end && group_end->k == it->k) ++group_end;
      const auto& a_col = a_block.column(it->k);
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
          Column& col = cols[cj];
          std::uint64_t* stamp = cam_stamp.data() + cj * block_rows;
          double* sum = acc.data() + cj * block_rows;
          std::uint64_t* bits = acc_bits.data() + cj * words;
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
                col.epoch = ++epoch;
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
      const Column& col = cols[cj];
      if (col.accumulated == 0) continue;
      drain += 2;  // vertical CAM column-index match + setup
      drain += col.accumulated;  // read out
      drain += 2 * col.spilled;  // re-stream spilled segments through CAM
      st.output_entries += col.accumulated;
      const double* sum = acc.data() + cj * block_rows;
      std::uint64_t* bits = acc_bits.data() + cj * words;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
          const std::size_t r =
              w * 64 + static_cast<std::size_t>(std::countr_zero(word));
          out.push_back({task.col_begin + static_cast<int>(cj),
                         task.row_begin + static_cast<int>(r), sum[r]});
        }
        bits[w] = 0;
      }
    }
    drain = static_cast<std::int64_t>(
        static_cast<double>(drain) * (1.0 - cfg.drain_overlap));

    const std::int64_t load =
        task_load_cycles(cfg, nnz_b_stripe, new_block, a_block);
    st.load_cycles += load;
    st.cycles += std::max(compute, load) + drain;
    ++st.block_tasks;
  }

  if (stats != nullptr) *stats = st;
  return assemble_csc(a.rows(), b.cols(), out);
}

SparseMatrix heap_spgemm(const SparseMatrix& a, const SparseMatrix& b,
                         const CoreConfig& cfg, CoreStats* stats) {
  LIMS_CHECK(a.cols() == b.rows());
  CoreStats st;
  std::vector<OutEntry> out;

  const auto tasks = spgemm::make_block_tasks(a, b, cfg.blocking);
  ABlock a_block;
  HeadQueue heads(std::min(cfg.blocking.row_block, a.rows()),
                  b.max_col_nnz());

  // The lists to merge for one column: one per nonzero B(k, j).
  struct List {
    const Entry* pos;
    const Entry* end;
    double scale;
  };
  std::vector<List> lists;
  std::vector<int> popped;

  for (const BlockTask& task : tasks) {
    const bool new_block = a_block.enter(a, task);
    std::int64_t nnz_b_stripe = 0;
    std::int64_t compute = 0;

    for (int j = task.col_begin; j < task.col_end; ++j) {
      lists.clear();
      std::int64_t elements = 0;
      for (int kb = b.col_begin(j); kb < b.col_end(j); ++kb) {
        ++nnz_b_stripe;
        const auto& a_col = a_block.column(b.row_index(kb));
        if (a_col.empty()) continue;
        lists.push_back(
            {a_col.data(), a_col.data() + a_col.size(), b.value(kb)});
        elements += static_cast<std::int64_t>(a_col.size());
      }
      if (lists.empty()) continue;

      // Build the sorted head FIFO, then merge: each pop (with its fused
      // multiply-accumulate) re-inserts the list's next head.
      std::int64_t shifts = 0;  // displaced FIFO entries
      for (std::size_t l = 0; l < lists.size(); ++l)
        shifts += heads.push(lists[l].pos->row, static_cast<int>(l));
      std::int64_t rows_out = 0;
      for (int row = -1; !heads.empty(); ++rows_out) {
        row = heads.pop_row(row + 1, popped, &shifts);
        double sum = 0.0;
        for (int l : popped) {
          List& list = lists[static_cast<std::size_t>(l)];
          sum += list.pos->value * list.scale;
          if (++list.pos != list.end) shifts += heads.push(list.pos->row, l);
        }
        out.push_back({j, row + task.row_begin, sum});
      }

      st.fifo_loads += elements;
      st.pops += elements;
      st.multiplies += elements;
      st.shift_cycles += 2 * shifts;  // a read+write pair per displaced entry
      st.output_entries += rows_out;
      compute += elements;               // fill the FIFOs
      compute += elements + 2 * shifts;  // one insert per element, plus shifts
      compute += 2 * elements;  // FIFO read + pointer update, fused MAC
      compute += rows_out - 1;  // result writes to the output SRAM
      compute += static_cast<std::int64_t>(lists.size());  // FIFO reset
    }

    const std::int64_t load =
        task_load_cycles(cfg, nnz_b_stripe, new_block, a_block);
    st.load_cycles += load;
    st.cycles += std::max(compute, load);
    ++st.block_tasks;
  }

  if (stats != nullptr) *stats = st;
  return assemble_csc(a.rows(), b.cols(), out);
}

}  // namespace limsynth::arch
