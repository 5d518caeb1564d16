#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <tuple>

#include "spgemm/blocking.hpp"
#include "spgemm/generate.hpp"
#include "spgemm/reference.hpp"
#include "spgemm/sparse.hpp"
#include "util/rng.hpp"

namespace limsynth::spgemm {

SparseMatrix header_only_triplets();  // spgemm_header_only.cpp

namespace {

SparseMatrix small_fixed() {
  // [1 0 2]   col-major triplets.
  // [0 3 0]
  // [4 0 5]
  return SparseMatrix::from_triplets(3, 3,
                                     {{0, 0, 1.0},
                                      {2, 0, 4.0},
                                      {1, 1, 3.0},
                                      {0, 2, 2.0},
                                      {2, 2, 5.0}});
}

TEST(Sparse, TripletsSortedAndSummed) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      4, 2, {{3, 0, 1.0}, {1, 0, 2.0}, {1, 0, 0.5}, {0, 1, 1.0}});
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.col_nnz(0), 2);
  const int k = m.col_begin(0);
  EXPECT_EQ(m.row_index(k), 1);
  EXPECT_DOUBLE_EQ(m.value(k), 2.5);  // duplicates summed
  EXPECT_EQ(m.row_index(k + 1), 3);
}

TEST(Sparse, BoundsChecked) {
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), Error);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, -1, 1.0}}), Error);
}

TEST(Sparse, HeaderStandsAlone) {
  const SparseMatrix m = header_only_triplets();
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_EQ(m.col_nnz(2), 1);
}

// Random duplicate-free triplets in random order.
std::vector<std::tuple<int, int, double>> unique_triplets(int rows, int cols,
                                                          int count, Rng& rng) {
  std::set<std::pair<int, int>> seen;
  std::vector<std::tuple<int, int, double>> trips;
  while (static_cast<int>(trips.size()) < count) {
    const int r = static_cast<int>(rng.range(0, rows - 1));
    const int c = static_cast<int>(rng.range(0, cols - 1));
    if (seen.insert({r, c}).second)
      trips.emplace_back(r, c, rng.uniform(-1.0, 1.0));
  }
  return trips;
}

// The same triplets as CSC arrays, built without from_triplets.
SparseMatrix csc_of(int rows, int cols,
                    std::vector<std::tuple<int, int, double>> trips) {
  std::sort(trips.begin(), trips.end(), [](const auto& x, const auto& y) {
    return std::tie(std::get<1>(x), std::get<0>(x)) <
           std::tie(std::get<1>(y), std::get<0>(y));
  });
  std::vector<int> col_ptr(static_cast<std::size_t>(cols) + 1, 0);
  EntryArray<int> row_idx;
  EntryArray<double> values;
  for (const auto& [r, c, v] : trips) {
    ++col_ptr[static_cast<std::size_t>(c) + 1];
    row_idx.push_back(r);
    values.push_back(v);
  }
  for (std::size_t c = 0; c < static_cast<std::size_t>(cols); ++c)
    col_ptr[c + 1] += col_ptr[c];
  return SparseMatrix::from_csc(rows, cols, std::move(col_ptr),
                                std::move(row_idx), std::move(values));
}

TEST(Sparse, FromCscEqualsFromTriplets) {
  Rng rng(14);
  for (const auto& [rows, cols, count] :
       {std::tuple{1, 1, 1}, std::tuple{5, 9, 0}, std::tuple{40, 30, 300},
        std::tuple{200, 7, 900}, std::tuple{3, 150, 200}}) {
    const auto trips = unique_triplets(rows, cols, count, rng);
    const SparseMatrix want = SparseMatrix::from_triplets(rows, cols, trips);
    const SparseMatrix got = csc_of(rows, cols, trips);
    EXPECT_EQ(got.rows(), rows);
    EXPECT_EQ(got.cols(), cols);
    EXPECT_TRUE(got.approx_equal(want, 0.0));
  }
}

// from_csc must reject the arrays with a typed invalid-config error.
void expect_rejected(int rows, int cols, std::vector<int> col_ptr,
                     EntryArray<int> row_idx, EntryArray<double> values) {
  try {
    (void)SparseMatrix::from_csc(rows, cols, std::move(col_ptr),
                                 std::move(row_idx), std::move(values));
    ADD_FAILURE() << "from_csc accepted malformed arrays";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidConfig) << e.what();
  }
}

TEST(Sparse, FromCscRejectsMalformedArrays) {
  // Valid: [1 0; 0 2; 3 0] as 3x2.
  EXPECT_EQ(SparseMatrix::from_csc(3, 2, {0, 2, 3}, {0, 2, 1}, {1, 3, 2}).nnz(),
            3);
  // Unsorted and duplicate rows within a column.
  expect_rejected(3, 2, {0, 2, 3}, {2, 0, 1}, {3, 1, 2});
  expect_rejected(3, 2, {0, 2, 3}, {1, 1, 1}, {3, 1, 2});
  // Rows out of range.
  expect_rejected(3, 2, {0, 2, 3}, {0, 3, 1}, {1, 3, 2});
  expect_rejected(3, 2, {0, 2, 3}, {-1, 2, 1}, {1, 3, 2});
  // Malformed col_ptr: wrong length, nonzero start, decreasing, wrong end.
  expect_rejected(3, 2, {0, 3}, {0, 2, 1}, {1, 3, 2});
  expect_rejected(3, 2, {1, 2, 3}, {0, 2, 1}, {1, 3, 2});
  expect_rejected(3, 2, {0, 4, 3}, {0, 2, 1}, {1, 3, 2});
  expect_rejected(3, 2, {0, 2, 2}, {0, 2, 1}, {1, 3, 2});
  // Row and value arrays of different lengths; negative shape.
  expect_rejected(3, 2, {0, 2, 3}, {0, 2, 1}, {1, 3});
  expect_rejected(-1, 2, {0, 0, 0}, {}, {});
}

TEST(Sparse, StatsAndEquality) {
  const SparseMatrix m = small_fixed();
  EXPECT_EQ(m.nnz(), 5);
  EXPECT_EQ(m.col_nnz(0), 2);
  EXPECT_EQ(m.col_nnz(1), 1);
  EXPECT_TRUE(m.approx_equal(small_fixed()));
  SparseMatrix other = SparseMatrix::from_triplets(
      3, 3, {{0, 0, 1.0}, {2, 0, 4.0}, {1, 1, 3.0}, {0, 2, 2.0}, {2, 2, 5.0001}});
  EXPECT_FALSE(m.approx_equal(other, 1e-9));
  EXPECT_TRUE(m.approx_equal(other, 1e-3));
}

TEST(Sparse, ApproxEqualRejectsNonFiniteMismatch) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto one = [](double v) {
    return SparseMatrix::from_triplets(1, 1, {{0, 0, v}});
  };
  EXPECT_FALSE(one(1.0).approx_equal(one(nan)));
  EXPECT_FALSE(one(nan).approx_equal(one(1.0)));
  EXPECT_FALSE(one(nan).approx_equal(one(nan)));
  EXPECT_FALSE(one(1.0).approx_equal(one(inf)));
  EXPECT_FALSE(one(inf).approx_equal(one(1.0)));
  EXPECT_FALSE(one(inf).approx_equal(one(-inf)));
  EXPECT_TRUE(one(inf).approx_equal(one(inf)));
  EXPECT_TRUE(one(-inf).approx_equal(one(-inf)));
  // No tolerance admits a non-finite mismatch.
  EXPECT_FALSE(one(1.0).approx_equal(one(nan), inf));
  EXPECT_FALSE(one(1.0).approx_equal(one(inf), inf));

  // The same verdicts from the last of several compare chunks: an
  // (n + 1) x 1 column holding rows 0..n-1.
  const int n = 300'000;
  const std::vector<int> col_ptr{0, n};
  EntryArray<int> rows(static_cast<std::size_t>(n));
  EntryArray<double> ones(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    rows[static_cast<std::size_t>(r)] = r;
    ones[static_cast<std::size_t>(r)] = 1.0;
  }
  const SparseMatrix base =
      SparseMatrix::from_csc(n + 1, 1, col_ptr, rows, ones);
  const auto with_last = [&](int row, double v) {
    EntryArray<int> r = rows;
    EntryArray<double> values = ones;
    r.back() = row;
    values.back() = v;
    return SparseMatrix::from_csc(n + 1, 1, col_ptr, std::move(r),
                                  std::move(values));
  };
  EXPECT_TRUE(base.approx_equal(with_last(n - 1, 1.0)));
  EXPECT_FALSE(base.approx_equal(with_last(n - 1, nan)));
  EXPECT_FALSE(base.approx_equal(with_last(n - 1, inf)));
  EXPECT_FALSE(base.approx_equal(with_last(n - 1, 1.5)));
  EXPECT_FALSE(base.approx_equal(with_last(n, 1.0)));
}

TEST(Reference, HandComputedProduct) {
  const SparseMatrix a = small_fixed();
  const SparseMatrix c = multiply_reference(a, a);
  // a^2 computed by hand:
  // [1 0 2][1 0 2]   [1+8  0  2+10 ]   [9  0 12]
  // [0 3 0][0 3 0] = [0    9  0    ] = [0  9  0]
  // [4 0 5][4 0 5]   [4+20 0  8+25 ]   [24 0 33]
  const SparseMatrix want = SparseMatrix::from_triplets(
      3, 3,
      {{0, 0, 9.0}, {2, 0, 24.0}, {1, 1, 9.0}, {0, 2, 12.0}, {2, 2, 33.0}});
  EXPECT_TRUE(c.approx_equal(want));
}

TEST(Reference, IdentityIsNeutral) {
  Rng rng(1);
  const SparseMatrix a = gen_erdos_renyi(64, 300, rng);
  std::vector<std::tuple<int, int, double>> eye;
  for (int i = 0; i < 64; ++i) eye.emplace_back(i, i, 1.0);
  const SparseMatrix id = SparseMatrix::from_triplets(64, 64, std::move(eye));
  EXPECT_TRUE(multiply_reference(a, id).approx_equal(a));
  EXPECT_TRUE(multiply_reference(id, a).approx_equal(a));
}

// The one-thread column loop multiply_reference ran before it moved onto
// the pool, kept as the specification of its two-pass version.
struct Csc {
  std::vector<int> col_ptr;
  std::vector<int> row_idx;
  std::vector<double> values;
};

Csc serial_gustavson(const SparseMatrix& a, const SparseMatrix& b) {
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
  return {std::move(col_ptr), std::move(row_idx), std::move(values)};
}

Csc arrays_of(const SparseMatrix& m) {
  Csc out;
  for (int j = 0; j <= m.cols(); ++j) out.col_ptr.push_back(m.col_begin(j));
  for (int k = 0; k < m.nnz(); ++k) {
    out.row_idx.push_back(m.row_index(k));
    out.values.push_back(m.value(k));
  }
  return out;
}

template <class T>
bool same_bytes(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

// A random rows x cols matrix. Its values come from a small set, so sums
// cancel to 0.0 and tiny products underflow to -0.0. Column `full` (if in
// range) holds every row, column `empty` none.
SparseMatrix random_operand(int rows, int cols, double density, int full,
                            int empty, Rng& rng) {
  static constexpr double kValues[] = {1.0,  -1.0, 2.0,    -0.5,
                                       -0.0, 0.75, 1e-200, -1e-200};
  std::vector<std::tuple<int, int, double>> trips;
  for (int c = 0; c < cols; ++c)
    for (int r = 0; r < rows; ++r)
      if (c != empty && (c == full || rng.chance(density)))
        trips.emplace_back(r, c, kValues[rng.below(std::size(kValues))]);
  return SparseMatrix::from_triplets(rows, cols, std::move(trips));
}

TEST(Reference, MatchesSerialGustavsonBitForBit) {
  Rng rng(30);
  int zeros = 0, full_columns = 0, empty_columns = 0;
  for (int t = 0; t < 240; ++t) {
    const auto m = static_cast<int>(rng.range(t % 10 == 0 ? 0 : 1, 60));
    const auto inner = static_cast<int>(rng.range(t % 15 == 0 ? 0 : 1, 60));
    // Every fourth product has 0..15 columns: none, one, and fewer than
    // the chunks of a pool of four or more workers.
    const auto n =
        static_cast<int>(t % 4 == 0 ? t / 4 % 16 : rng.range(16, 400));
    const double density = rng.uniform(0.0, 0.3);
    // Every third product's last column touches every row (a full B
    // column selects A's full column 0); every other one's column 0 is
    // empty.
    const bool full = t % 3 == 0;
    const SparseMatrix a =
        random_operand(m, inner, density, full ? 0 : -1, -1, rng);
    const SparseMatrix b = random_operand(inner, n, density / 4,
                                          full ? n - 1 : -1,
                                          t % 2 == 0 ? 0 : -1, rng);

    const Csc want = serial_gustavson(a, b);
    const SparseMatrix c = multiply_reference(a, b);
    ASSERT_EQ(c.rows(), m);
    ASSERT_EQ(c.cols(), n);
    const Csc got = arrays_of(c);
    ASSERT_TRUE(same_bytes(got.col_ptr, want.col_ptr)) << "product " << t;
    ASSERT_TRUE(same_bytes(got.row_idx, want.row_idx)) << "product " << t;
    ASSERT_TRUE(same_bytes(got.values, want.values)) << "product " << t;

    for (const double v : got.values) zeros += v == 0.0;
    for (int j = 0; j < n; ++j) {
      full_columns += m > 0 && c.col_nnz(j) == m;
      empty_columns += c.col_nnz(j) == 0;
    }
  }
  // The shapes above reach the cases they were built for.
  EXPECT_GT(zeros, 0);
  EXPECT_GT(full_columns, 0);
  EXPECT_GT(empty_columns, 0);
}

TEST(Reference, FlopsCountMatchesDefinition) {
  const SparseMatrix a = small_fixed();
  // For each nonzero a(k,j): |a(:,k)| -> cols 0,1,2 sizes 2,1,2.
  // Nonzeros: (0,0)->|col0|=2, (2,0)->|col2|=2, (1,1)->|col1|=1,
  // (0,2)->2, (2,2)->2 => total 9.
  EXPECT_EQ(a.flops_with(a), 9);
}

TEST(Generators, ShapesAndDeterminism) {
  Rng r1(5), r2(5);
  const SparseMatrix a = gen_erdos_renyi(256, 1000, r1);
  const SparseMatrix b = gen_erdos_renyi(256, 1000, r2);
  EXPECT_TRUE(a.approx_equal(b));  // same seed, same matrix
  EXPECT_EQ(a.rows(), 256);
  EXPECT_LE(a.nnz(), 1000);  // duplicates merge
  EXPECT_GT(a.nnz(), 900);
}

TEST(Generators, RmatIsSkewed) {
  Rng rng(6);
  const SparseMatrix m = gen_rmat(10, 8192, 0.6, 0.15, 0.15, rng);
  EXPECT_EQ(m.rows(), 1024);
  // Power-law: the max column far exceeds the average.
  int max_col_nnz = 0;
  for (int c = 0; c < m.cols(); ++c)
    max_col_nnz = std::max(max_col_nnz, m.col_nnz(c));
  EXPECT_GT(max_col_nnz, 4.0 * m.nnz() / m.cols());
}

TEST(Generators, BandedStaysInBand) {
  Rng rng(7);
  const int band = 5;
  const SparseMatrix m = gen_banded(128, band, 4, rng);
  for (int c = 0; c < m.cols(); ++c)
    for (int k = m.col_begin(c); k < m.col_end(c); ++k)
      EXPECT_LE(std::abs(m.row_index(k) - c), band);
}

TEST(Generators, ContractionConfinesRows) {
  Rng rng(8);
  const int group = 64, supers = 8;
  const SparseMatrix m = gen_contraction(256, group, supers, 12, rng);
  for (int c = 0; c < m.cols(); ++c) {
    const int base = (c / group) * group;
    std::set<int> rows;
    for (int k = m.col_begin(c); k < m.col_end(c); ++k) {
      EXPECT_GE(m.row_index(k), base);
      EXPECT_LT(m.row_index(k), base + group);
      rows.insert(m.row_index(k));
    }
    EXPECT_LE(static_cast<int>(rows.size()), supers);
  }
}

TEST(Generators, SuiteIsWellFormed) {
  const auto suite = uf_analog_suite();
  EXPECT_GE(suite.size(), 8u);
  for (const auto& b : suite) {
    EXPECT_FALSE(b.name.empty());
    EXPECT_GT(b.matrix.nnz(), 0);
    EXPECT_EQ(b.matrix.rows(), b.matrix.cols());
  }
}

TEST(Blocking, TasksTileTheProduct) {
  Rng rng(9);
  const SparseMatrix a = gen_erdos_renyi(300, 900, rng);
  BlockingConfig cfg;
  cfg.row_block = 128;
  cfg.col_stripe = 32;
  const auto tasks = make_block_tasks(a, a, cfg);
  // ceil(300/128)=3 row blocks, ceil(300/32)=10 stripes.
  EXPECT_EQ(tasks.size(), 30u);
  EXPECT_EQ(tasks.front().row_begin, 0);
  EXPECT_EQ(tasks.back().row_end, 300);
  EXPECT_EQ(tasks.back().col_end, 300);
}

TEST(Blocking, SliceRowsRebasesAndPartitions) {
  Rng rng(10);
  const SparseMatrix a = gen_erdos_renyi(200, 800, rng);
  const BlockedColumns lo = slice_rows(a, 0, 100);
  const BlockedColumns hi = slice_rows(a, 100, 200);
  std::int64_t total = 0;
  for (int c = 0; c < a.cols(); ++c) {
    total += static_cast<std::int64_t>(lo.column(c).size() +
                                       hi.column(c).size());
    for (const Entry& e : hi.column(c)) {
      EXPECT_GE(e.row, 0);
      EXPECT_LT(e.row, 100);  // rebased
    }
  }
  EXPECT_EQ(total, a.nnz());
}

}  // namespace
}  // namespace limsynth::spgemm
