// Columnar storage coverage: ColumnVec encoding decisions, the
// row->columnar->row property round-trip, ragged-table preservation,
// multiset SameContents, the columnar snapshot codec (both directions plus
// row-store-era compatibility), and the vectorized-vs-row executor
// differential — bit-identical tables, pixels, lineage and error statuses
// at 1 and 4 threads, including full corpus and Figure 2 replays through
// both paths — and a check that Figure 1 and 2 drags build no row view.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dvms.h"
#include "durability/codec.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "parser/planner.h"
#include "query/binder.h"
#include "query/executor.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/dict.h"
#include "storage/table.h"
#include "figure_programs.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace dvms {
namespace {

namespace fs = std::filesystem;

// ---- Bit-identical comparison (stronger than Value::Equals) --------------

bool BitIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return a.bool_value() == b.bool_value();
    case ValueType::kInt64:
      return a.int_value() == b.int_value();
    case ValueType::kDouble: {
      uint64_t ba, bb;
      double da = a.double_value(), db = b.double_value();
      std::memcpy(&ba, &da, sizeof(ba));
      std::memcpy(&bb, &db, sizeof(bb));
      return ba == bb;
    }
    case ValueType::kString:
      return a.string_value() == b.string_value();
  }
  return false;
}

::testing::AssertionResult RowsBitIdentical(const std::vector<Row>& a,
                                            const std::vector<Row>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) {
      return ::testing::AssertionFailure() << "row " << i << " arity differs: "
                                           << a[i].size() << " vs "
                                           << b[i].size();
    }
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (!BitIdentical(a[i][c], b[i][c])) {
        return ::testing::AssertionFailure()
               << "row " << i << " col " << c << " differs: "
               << a[i][c].ToString() << " vs " << b[i][c].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult TablesBitIdentical(const Table& a, const Table& b) {
  return RowsBitIdentical(a.rows(), b.rows());
}

::testing::AssertionResult PixelsBitIdentical(const PixelBuffer& a,
                                              const PixelBuffer& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    return ::testing::AssertionFailure() << "dimensions differ";
  }
  if (!a.Equals(b)) return ::testing::AssertionFailure() << "pixels differ";
  return ::testing::AssertionSuccess();
}

// Flips the process-wide vectorize default and restores it on scope exit,
// so a failing assertion can't leak the row-path default into later tests.
class ScopedVectorizeDefault {
 public:
  explicit ScopedVectorizeDefault(bool on) { exec::SetVectorizeDefault(on); }
  ~ScopedVectorizeDefault() { exec::SetVectorizeDefault(true); }
};

// ---- ColumnVec unit coverage ---------------------------------------------

TEST(ColumnVecTest, EncodingDecidedByFirstNonNullValue) {
  ColumnVec c;
  EXPECT_EQ(c.enc(), ColumnVec::Enc::kEmpty);
  c.AppendNull();
  EXPECT_EQ(c.enc(), ColumnVec::Enc::kEmpty);  // still undecided
  c.Append(Value::Int(7));
  EXPECT_EQ(c.enc(), ColumnVec::Enc::kInt64);
  c.Append(Value::Int(-3));
  c.AppendNull();
  ASSERT_EQ(c.size(), 4u);
  EXPECT_TRUE(c.IsNull(0));
  EXPECT_TRUE(BitIdentical(c.Get(1), Value::Int(7)));
  EXPECT_TRUE(BitIdentical(c.Get(2), Value::Int(-3)));
  EXPECT_TRUE(c.IsNull(3));
  EXPECT_EQ(c.null_count(), 2u);
}

TEST(ColumnVecTest, MixedTypesDemoteToVariantWithoutLosingBits) {
  ColumnVec c;
  c.Append(Value::Int(1));
  c.Append(Value::Double(2.5));  // second type demotes
  EXPECT_EQ(c.enc(), ColumnVec::Enc::kVariant);
  c.Append(Value::String("x"));
  c.AppendNull();
  EXPECT_TRUE(BitIdentical(c.Get(0), Value::Int(1)));
  EXPECT_TRUE(BitIdentical(c.Get(1), Value::Double(2.5)));
  EXPECT_TRUE(BitIdentical(c.Get(2), Value::String("x")));
  EXPECT_TRUE(c.IsNull(3));
}

TEST(ColumnVecTest, StringsInternToSharedDictionaryIds) {
  ColumnVec c;
  c.Append(Value::String("east"));
  c.Append(Value::String("west"));
  c.Append(Value::String("east"));
  ASSERT_EQ(c.enc(), ColumnVec::Enc::kDict);
  EXPECT_EQ(c.dict_ids()[0], c.dict_ids()[2]);  // dedup by id
  EXPECT_NE(c.dict_ids()[0], c.dict_ids()[1]);
  EXPECT_TRUE(c.CellEquals(0, c, 2));
  EXPECT_EQ(c.HashCell(0), c.HashCell(2));
  EXPECT_LT(c.CompareCells(0, c, 1), 0);  // "east" < "west" by bytes
}

TEST(ColumnVecTest, CompareCellsMirrorsValueCompareOnNaNAndBigInts) {
  ColumnVec ints, doubles;
  ints.Append(Value::Int((int64_t{1} << 53) + 1));
  doubles.Append(Value::Double(9007199254740992.0));  // 2^53
  doubles.Append(Value::Double(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_GT(ints.CompareCells(0, doubles, 0), 0);  // exact beyond 2^53
  EXPECT_LT(ints.CompareCells(0, doubles, 1), 0);  // NaN sorts last
  EXPECT_EQ(doubles.CompareCells(1, doubles, 1), 0);
}

// ---- Property test: random tables round-trip row->columnar->row ----------

Value RandomValue(Rng& rng, int type_roll) {
  if (rng.Bernoulli(0.12)) return Value::Null();
  switch (type_roll) {
    case 0: {  // int64, with boundary magnitudes
      int roll = rng.UniformInt(0, 9);
      if (roll == 0)
        return Value::Int(std::numeric_limits<int64_t>::max() -
                          rng.UniformInt(0, 2));
      if (roll == 1)
        return Value::Int(std::numeric_limits<int64_t>::min() +
                          rng.UniformInt(0, 2));
      if (roll == 2) return Value::Int((int64_t{1} << 53) + rng.UniformInt(-2, 2));
      return Value::Int(rng.UniformInt(-1000, 1000));
    }
    case 1: {  // double, with NaN / -0.0 / huge magnitudes
      int roll = rng.UniformInt(0, 9);
      if (roll == 0)
        return Value::Double(std::numeric_limits<double>::quiet_NaN());
      if (roll == 1) return Value::Double(-0.0);
      if (roll == 2) return Value::Double(rng.Uniform(-1, 1) * 1e300);
      return Value::Double(rng.Uniform(-1000, 1000));
    }
    case 2:
      return Value::Bool(rng.Bernoulli(0.5));
    default: {  // string, low cardinality plus empties
      static const char* kPool[] = {"", "east", "west", "north", "south",
                                    "a much longer string payload"};
      return Value::String(kPool[rng.UniformInt(0, 5)]);
    }
  }
}

TEST(TableColumnarTest, RandomTablesRoundTripThroughColumns) {
  Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int ncols = rng.UniformInt(1, 5);
    std::vector<Column> defs;
    std::vector<int> type_rolls;
    for (int c = 0; c < ncols; ++c) {
      // type_roll 4 = per-cell random type: exercises variant demotion.
      int roll = rng.UniformInt(0, 4);
      type_rolls.push_back(roll);
      ValueType declared =
          roll == 0 ? ValueType::kInt64
                    : (roll == 1 ? ValueType::kDouble
                                 : (roll == 2 ? ValueType::kBool
                                              : ValueType::kString));
      defs.push_back({"c" + std::to_string(c), declared});
    }
    const int nrows = rng.UniformInt(0, 200);
    std::vector<Row> source;
    for (int r = 0; r < nrows; ++r) {
      Row row;
      for (int c = 0; c < ncols; ++c) {
        int roll = type_rolls[c] == 4 ? rng.UniformInt(0, 3) : type_rolls[c];
        row.push_back(RandomValue(rng, roll));
      }
      source.push_back(row);
    }

    // Row-by-row append.
    Table t{Schema(defs)};
    for (const Row& r : source) t.AppendUnchecked(r);
    ASSERT_EQ(t.num_rows(), source.size());
    EXPECT_TRUE(RowsBitIdentical(t.rows(), source));
    for (size_t r = 0; r < source.size(); ++r) {
      for (int c = 0; c < ncols; ++c) {
        ASSERT_TRUE(BitIdentical(t.ValueAt(r, c), source[r][c]))
            << "ValueAt(" << r << ", " << c << ")";
      }
    }

    // Bulk-constructed copy matches too.
    Table t2(Schema(defs), source);
    EXPECT_TRUE(RowsBitIdentical(t2.rows(), source));

    // Typed gather of a random subset preserves bits in subset order.
    std::vector<size_t> pick;
    for (size_t r = 0; r < source.size(); ++r) {
      if (rng.Bernoulli(0.4)) pick.push_back(r);
    }
    Table gathered{Schema(defs)};
    gathered.AppendGather(t, pick);
    std::vector<Row> expected;
    for (size_t r : pick) expected.push_back(source[r]);
    EXPECT_TRUE(RowsBitIdentical(gathered.rows(), expected));

    // Codec round-trip: encode (columnar or legacy-forced) and decode.
    BinaryWriter w;
    EncodeTable(t, &w);
    BinaryReader r(w.data());
    auto decoded = DecodeTable(&r);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_TRUE(RowsBitIdentical(decoded.value().rows(), source));
    EXPECT_TRUE(t.SameContents(decoded.value()));
  }
}

TEST(TableColumnarTest, RaggedRowsPreserveOriginalArity) {
  Table t(Schema({{"a", ValueType::kInt64}, {"b", ValueType::kString}}));
  t.AppendUnchecked({Value::Int(1)});                                // short
  t.AppendUnchecked({Value::Int(2), Value::String("x")});            // exact
  t.AppendUnchecked({Value::Int(3), Value::String("y"), Value::Bool(true)});
  EXPECT_TRUE(t.IsRagged());
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.row(0).size(), 1u);
  EXPECT_EQ(t.row(1).size(), 2u);
  EXPECT_EQ(t.row(2).size(), 3u);
  EXPECT_TRUE(BitIdentical(t.row(2)[2], Value::Bool(true)));
  // Ragged tables take the legacy snapshot format; the round-trip still
  // reproduces every row at its original arity.
  BinaryWriter w;
  EncodeTable(t, &w);
  BinaryReader r(w.data());
  auto decoded = DecodeTable(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_TRUE(RowsBitIdentical(decoded.value().rows(), t.rows()));
}

TEST(TableColumnarTest, SameContentsIsMultisetEquality) {
  Schema schema({{"k", ValueType::kInt64}, {"s", ValueType::kString}});
  std::vector<Row> rows = {{Value::Int(1), Value::String("a")},
                           {Value::Int(2), Value::String("b")},
                           {Value::Int(2), Value::String("b")},
                           {Value::Int(3), Value::String("c")}};
  Table a(schema, rows);
  std::reverse(rows.begin(), rows.end());
  Table b(schema, rows);
  EXPECT_TRUE(a.SameContents(b));  // order-insensitive
  EXPECT_TRUE(b.SameContents(a));

  // Multiplicity matters: swap one duplicate for an extra distinct row.
  Table c(schema, {{Value::Int(1), Value::String("a")},
                   {Value::Int(2), Value::String("b")},
                   {Value::Int(3), Value::String("c")},
                   {Value::Int(3), Value::String("c")}});
  EXPECT_FALSE(a.SameContents(c));
  EXPECT_FALSE(c.SameContents(a));

  // Cross-type numeric cells compare equal, as with row-based compare.
  Table d(Schema({{"v", ValueType::kDouble}}), {{Value::Int(3)}});
  Table e(Schema({{"v", ValueType::kDouble}}), {{Value::Double(3.0)}});
  EXPECT_TRUE(d.SameContents(e));

  // ...but not beyond 2^53, where the comparison is exact.
  Table f(Schema({{"v", ValueType::kDouble}}),
          {{Value::Int((int64_t{1} << 53) + 1)}});
  Table g(Schema({{"v", ValueType::kDouble}}),
          {{Value::Double(9007199254740992.0)}});
  EXPECT_FALSE(f.SameContents(g));
}

// ---- Snapshot codec ------------------------------------------------------

Table MakeTypedTable(size_t n) {
  Table t(Schema({{"id", ValueType::kInt64},
                  {"price", ValueType::kDouble},
                  {"region", ValueType::kString},
                  {"flag", ValueType::kBool}}));
  const char* regions[] = {"east", "west", "north", "south"};
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    row.push_back(rng.Bernoulli(0.05) ? Value::Null()
                                      : Value::Double(rng.Uniform(0, 100)));
    row.push_back(Value::String(regions[rng.UniformInt(0, 3)]));
    row.push_back(Value::Bool(rng.Bernoulli(0.5)));
    t.AppendUnchecked(row);
  }
  return t;
}

TEST(ColumnarCodecTest, ColumnarAndLegacyFormatsBothDecode) {
  Table t = MakeTypedTable(500);
  BinaryWriter cw;
  EncodeTable(t, &cw);
  BinaryWriter lw;
  EncodeTableLegacy(t, &lw);
  EXPECT_NE(cw.data(), lw.data());
  for (const std::string& bytes : {cw.data(), lw.data()}) {
    BinaryReader r(bytes);
    auto decoded = DecodeTable(&r);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_TRUE(TablesBitIdentical(decoded.value(), t));
  }
}

TEST(ColumnarCodecTest, ColumnarSnapshotIsSmallerThanRowStore) {
  Table t = MakeTypedTable(10000);
  BinaryWriter cw;
  EncodeTable(t, &cw);
  BinaryWriter lw;
  EncodeTableLegacy(t, &lw);
  // The legacy format tags every cell and re-spells every string; the
  // columnar format writes typed payloads and a local dictionary. Require
  // a real reduction, not a rounding artifact.
  EXPECT_LT(cw.size(), lw.size() * 3 / 4)
      << "columnar " << cw.size() << " bytes vs legacy " << lw.size();
}

TEST(ColumnarCodecTest, BytesIndependentOfProcessDictionaryHistory) {
  Table t1 = MakeTypedTable(200);
  BinaryWriter w1;
  EncodeTable(t1, &w1);
  // Pollute the global dictionary so a rebuilt table interns to different
  // global ids; the local-remap encoding must produce identical bytes.
  for (int i = 0; i < 100; ++i) {
    strdict::Intern("codec_noise_" + std::to_string(i));
  }
  Table t2 = MakeTypedTable(200);
  BinaryWriter w2;
  EncodeTable(t2, &w2);
  EXPECT_EQ(w1.data(), w2.data());
}

TEST(ColumnarCodecTest, LegacyEnvKnobForcesRowFormat) {
  Table t = MakeTypedTable(64);
  BinaryWriter legacy;
  EncodeTableLegacy(t, &legacy);
  ::setenv("DVMS_SNAPSHOT_LEGACY", "1", 1);
  BinaryWriter forced;
  EncodeTable(t, &forced);
  ::unsetenv("DVMS_SNAPSHOT_LEGACY");
  EXPECT_EQ(forced.data(), legacy.data());
  BinaryWriter columnar;
  EncodeTable(t, &columnar);
  EXPECT_NE(columnar.data(), legacy.data());
}

TEST(ColumnarCodecTest, TruncatedColumnarPayloadFailsCleanly) {
  Table t = MakeTypedTable(64);
  BinaryWriter w;
  EncodeTable(t, &w);
  const std::string& bytes = w.data();
  for (size_t cut : {size_t{4}, size_t{9}, bytes.size() / 2, bytes.size() - 1}) {
    BinaryReader r(bytes.data(), cut);
    auto decoded = DecodeTable(&r);
    EXPECT_FALSE(decoded.ok()) << "decode of " << cut << " bytes succeeded";
  }
}

// ---- Vectorized-vs-row executor differential -----------------------------

class VectorizedExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    udfs_ = UdfRegistry::WithBuiltins();
    auto sales = catalog_
                     .CreateTable("Sales",
                                  Schema({{"productId", ValueType::kInt64},
                                          {"region", ValueType::kString},
                                          {"year", ValueType::kInt64},
                                          {"price", ValueType::kDouble},
                                          {"revenue", ValueType::kDouble}}),
                                  RelationKind::kBase)
                     .value();
    const char* regions[] = {"east", "west", "north", "south"};
    Rng rng(19);
    for (int i = 0; i < 3000; ++i) {
      // NULLs and NaNs probe the aggregate-skip and sort-order paths where
      // the vectorized kernels could plausibly diverge from the row loop.
      Value revenue =
          rng.Bernoulli(0.05)
              ? Value::Null()
              : (rng.Bernoulli(0.03)
                     ? Value::Double(std::numeric_limits<double>::quiet_NaN())
                     : Value::Double(rng.Uniform(-100, 100)));
      ASSERT_TRUE(sales
                      ->Append({Value::Int(i),
                                Value::String(regions[rng.UniformInt(0, 3)]),
                                Value::Int(1992 + rng.UniformInt(0, 6)),
                                Value::Double(rng.Uniform(0, 50)), revenue})
                      .ok());
    }
    // Relations for IN probes, joins and set operations: NULLs in an IN
    // set, an empty relation, doubles probed by int needles, -0.0/0.0 and
    // NaN beside ints, duplicate and NULL join keys.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    AddTable("picked", {{"id", ValueType::kInt64}},
             {{Value::Int(3)}, {Value::Null()}, {Value::Int(1500)},
              {Value::Int(2999)}, {Value::Int(3)}, {Value::Int(77)}});
    AddTable("nothing", {{"id", ValueType::kInt64}}, {});
    AddTable("years_d", {{"v", ValueType::kDouble}},
             {{Value::Double(1993.0)}, {Value::Double(1995.0)},
              {Value::Double(1996.5)}, {Value::Double(nan)}});
    AddTable("regions_sel", {{"region", ValueType::kString}},
             {{Value::String("east")}, {Value::Null()},
              {Value::String("nowhere")}});
    AddTable("one", {{"k", ValueType::kInt64}}, {{Value::Int(1)}});
    AddTable("region_dim",
             {{"region", ValueType::kString}, {"idx", ValueType::kInt64}},
             {{Value::String("west"), Value::Int(0)},
              {Value::String("east"), Value::Int(1)},
              {Value::String("east"), Value::Int(2)},
              {Value::Null(), Value::Int(3)},
              {Value::String("south"), Value::Int(4)}});
    AddTable("tags", {{"id", ValueType::kInt64}, {"tag", ValueType::kString}},
             {{Value::Int(10), Value::String("a")},
              {Value::Int(2000), Value::String("b")},
              {Value::Null(), Value::String("c")},
              {Value::Int(10), Value::String("d")}});
    AddTable("ints", {{"v", ValueType::kInt64}},
             {{Value::Int(0)}, {Value::Int(1)}, {Value::Int(2)},
              {Value::Int(1)}, {Value::Null()}, {Value::Int(7)}});
    AddTable("dbls", {{"v", ValueType::kDouble}},
             {{Value::Double(-0.0)}, {Value::Double(0.0)},
              {Value::Double(1.0)}, {Value::Double(nan)},
              {Value::Double(nan)}, {Value::Double(2.5)}, {Value::Null()}});
    // One column holding ints and doubles: a per-cell Value column.
    AddTable("mixed", {{"v", ValueType::kDouble}},
             {{Value::Int(2)}, {Value::Double(2.0)}, {Value::Double(nan)},
              {Value::Int(7)}, {Value::Double(-0.0)}, {Value::Int(0)}});
  }

  void AddTable(const std::string& name, std::vector<Column> cols,
                const std::vector<Row>& rows) {
    VersionedTable* t =
        catalog_.CreateTable(name, Schema(std::move(cols)), RelationKind::kBase)
            .value();
    for (const Row& row : rows) ASSERT_TRUE(t->Append(row).ok());
  }

  Result<std::unique_ptr<NodeResult>> RunSql(const std::string& sql,
                                             bool vectorize, size_t threads,
                                             ThreadPool* pool,
                                             bool capture_lineage = false) {
    DVMS_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql));
    CatalogSchemaResolver resolver(&catalog_);
    Planner planner(&resolver);
    DVMS_ASSIGN_OR_RETURN(PlanPtr plan, planner.PlanSelect(stmt));
    Binder binder(&resolver, &udfs_);
    DVMS_RETURN_IF_ERROR(binder.Bind(plan.get()));
    Executor exec(&catalog_, &udfs_);
    ExecOptions opts;
    opts.vectorize = vectorize;
    opts.capture_lineage = capture_lineage;
    opts.num_threads = threads;
    opts.pool = pool;
    opts.morsel_rows = 256;
    return exec.Execute(*plan, opts);
  }

  // Every operator's table and lineage, down to the scans, must match the
  // serial row path bit for bit, vectorized or not, at 1 and 4 threads.
  void ExpectDifferentialMatch(const std::string& sql) {
    SCOPED_TRACE(sql);
    auto reference = RunSql(sql, /*vectorize=*/false, 1, nullptr,
                            /*capture_lineage=*/true);
    ASSERT_TRUE(reference.ok()) << reference.status().message();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      for (bool vec : {false, true}) {
        if (threads == 1 && !vec) continue;  // that is the reference itself
        SCOPED_TRACE("vectorize=" + std::to_string(vec) +
                     " threads=" + std::to_string(threads));
        auto got = RunSql(sql, vec, threads, pool.get(),
                          /*capture_lineage=*/true);
        ASSERT_TRUE(got.ok()) << got.status().message();
        ExpectResultTreesIdentical(*reference.value(), *got.value());
      }
    }
  }

  // The query fails, and every path fails with the serial row path's
  // status: the same code and message, so the same first failing row.
  void ExpectSameFailure(const std::string& sql) {
    SCOPED_TRACE(sql);
    auto reference = RunSql(sql, /*vectorize=*/false, 1, nullptr);
    ASSERT_FALSE(reference.ok());
    for (size_t threads : {size_t{1}, size_t{4}}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      for (bool vec : {false, true}) {
        auto got = RunSql(sql, vec, threads, pool.get());
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), reference.status().code());
        EXPECT_EQ(got.status().message(), reference.status().message())
            << "vectorize=" << vec << " threads=" << threads;
      }
    }
  }

  static void ExpectResultTreesIdentical(const NodeResult& a,
                                         const NodeResult& b) {
    EXPECT_TRUE(TablesBitIdentical(a.table, b.table))
        << PlanKindToString(a.node->kind);
    ASSERT_EQ(a.lineage.size(), b.lineage.size());
    for (size_t i = 0; i < a.lineage.size(); ++i) {
      ASSERT_EQ(a.lineage[i].size(), b.lineage[i].size()) << "row " << i;
      for (size_t j = 0; j < a.lineage[i].size(); ++j) {
        EXPECT_EQ(a.lineage[i][j].child, b.lineage[i][j].child);
        EXPECT_EQ(a.lineage[i][j].row, b.lineage[i][j].row);
      }
    }
    ASSERT_EQ(a.children.size(), b.children.size());
    for (size_t i = 0; i < a.children.size(); ++i) {
      ExpectResultTreesIdentical(*a.children[i], *b.children[i]);
    }
  }

  Catalog catalog_;
  UdfRegistry udfs_;
};

TEST_F(VectorizedExecutorTest, FilterConjunctionsOverTypedColumns) {
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE price < 25 AND year >= 1994");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE region = 'east' AND revenue > 0");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE region <> 'west'");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE region >= 'north' AND price <= 40");
  // Literal-on-the-left and column-to-column comparisons.
  ExpectDifferentialMatch("SELECT productId FROM Sales WHERE 30 > price");
  ExpectDifferentialMatch("SELECT productId FROM Sales WHERE revenue < price");
}

TEST_F(VectorizedExecutorTest, ProjectionAndScanPassThrough) {
  ExpectDifferentialMatch("SELECT * FROM Sales");
  ExpectDifferentialMatch("SELECT region, price FROM Sales");
  ExpectDifferentialMatch(
      "SELECT productId, price * 2 + revenue AS v FROM Sales");
}

TEST_F(VectorizedExecutorTest, AggregatesMatchRowPathBitForBit) {
  ExpectDifferentialMatch(
      "SELECT region, SUM(revenue) AS s, COUNT(*) AS n, AVG(price) AS a, "
      "MIN(revenue) AS lo, MAX(revenue) AS hi FROM Sales GROUP BY region");
  ExpectDifferentialMatch(
      "SELECT SUM(revenue) AS s, COUNT(revenue) AS n, MIN(price) AS lo "
      "FROM Sales");
  ExpectDifferentialMatch(
      "SELECT year, region, SUM(price) AS s FROM Sales "
      "GROUP BY year, region ORDER BY year, region");
  ExpectDifferentialMatch(
      "SELECT year, SUM(revenue) AS s FROM Sales WHERE region = 'east' "
      "GROUP BY year");
}

TEST_F(VectorizedExecutorTest, OrderByWithNaNsNullsAndTies) {
  ExpectDifferentialMatch(
      "SELECT productId, revenue FROM Sales ORDER BY revenue DESC, productId");
  ExpectDifferentialMatch("SELECT productId, region FROM Sales ORDER BY region");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales ORDER BY price LIMIT 17");
}

TEST_F(VectorizedExecutorTest, SetOperationsAndDistinct) {
  ExpectDifferentialMatch("SELECT DISTINCT region, year FROM Sales");
  ExpectDifferentialMatch(
      "SELECT region FROM Sales WHERE year = 1993 "
      "UNION SELECT region FROM Sales WHERE year = 1994");
  ExpectDifferentialMatch(
      "SELECT region FROM Sales MINUS SELECT region FROM Sales "
      "WHERE region = 'east'");
}

TEST_F(VectorizedExecutorTest, LineageIdenticalAcrossPaths) {
  ExpectDifferentialMatch(
      "SELECT region, SUM(revenue) AS s FROM Sales WHERE price < 25 "
      "GROUP BY region");
}

TEST_F(VectorizedExecutorTest, InAndNotInProbesTypedCells) {
  // Int needles, NULLs inside the IN relation.
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE productId IN picked");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE productId NOT IN picked");
  // An empty IN relation.
  ExpectDifferentialMatch("SELECT productId FROM Sales WHERE year IN nothing");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE year NOT IN nothing");
  // Int needles against a double set (1993 IN {1993.0, ...}).
  ExpectDifferentialMatch(
      "SELECT productId, year FROM Sales WHERE year IN years_d");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE year NOT IN years_d");
  // NULL and NaN needles: NULL is false for IN and NOT IN alike.
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE revenue NOT IN years_d");
  ExpectDifferentialMatch("SELECT productId FROM Sales WHERE revenue IN dbls");
  // Dictionary needles, and IN beside comparisons on either side.
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE region IN regions_sel");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE region NOT IN regions_sel "
      "AND price < 20");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE price < 20 AND year IN years_d");
}

TEST_F(VectorizedExecutorTest, ExpressionsAndUdfsWithNulls) {
  ExpectDifferentialMatch(
      "SELECT 3 AS radius, 'gray' AS fill, "
      "linear_scale(revenue, 0, 100, 0, 400) AS cx, "
      "linear_scale(price, 0, 50, 0, 400) AS cy, productId FROM Sales");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales "
      "WHERE in_rectangle(revenue, price, -20, 5, 60, 30)");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales "
      "WHERE price > 10 AND in_rectangle(revenue, price, 60, 30, -20, 5)");
  ExpectDifferentialMatch(
      "SELECT productId, -revenue AS neg, revenue + 1 AS inc FROM Sales "
      "WHERE NOT (price < 10) OR region = 'east'");
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE productId IN picked OR price < 1");
  // Expression aggregate inputs and sort keys.
  ExpectDifferentialMatch(
      "SELECT region, SUM(price * 2) AS s, "
      "MAX(linear_scale(revenue, 0, 100, 0, 1)) AS m FROM Sales "
      "GROUP BY region");
  ExpectDifferentialMatch(
      "SELECT productId, revenue FROM Sales ORDER BY 0 - revenue, productId");
}

TEST_F(VectorizedExecutorTest, UdfErrorMidTableKeepsTheRowPathStatus) {
  // log_scale fails once its argument reaches 0, at productId 2000 — past
  // the first morsels, so a later morsel's error must not win.
  ExpectSameFailure(
      "SELECT log_scale(2000 - productId, 1, 100, 0, 1) AS v FROM Sales");
  ExpectSameFailure(
      "SELECT productId FROM Sales "
      "WHERE log_scale(2000 - productId, 1, 100, 0, 1) > 0 "
      "AND productId < 1500");
  // Short-circuit: rows the earlier conjunct rejects never reach the UDF.
  ExpectDifferentialMatch(
      "SELECT productId FROM Sales WHERE productId < 1500 "
      "AND log_scale(2000 - productId, 1, 100, 0, 1) > 0");
}

TEST_F(VectorizedExecutorTest, CrossAndHashJoins) {
  // 1xN and 0xN cross joins.
  ExpectDifferentialMatch(
      "SELECT o.k, s.productId, s.region FROM one AS o, Sales AS s");
  ExpectDifferentialMatch(
      "SELECT n.id, s.productId FROM nothing AS n, Sales AS s");
  // Hash joins on string keys (duplicate and NULL keys on the build side)
  // and int keys, plus int keys probing a double column.
  ExpectDifferentialMatch(
      "SELECT s.productId, d.idx FROM Sales AS s, region_dim AS d "
      "WHERE s.region = d.region");
  ExpectDifferentialMatch(
      "SELECT s.productId, t.tag FROM Sales AS s, tags AS t "
      "WHERE s.productId = t.id");
  ExpectDifferentialMatch(
      "SELECT s.productId, y.v FROM Sales AS s, years_d AS y "
      "WHERE s.year = y.v");
  // A key expression rather than a plain column.
  ExpectDifferentialMatch(
      "SELECT s.productId, t.tag FROM Sales AS s, tags AS t "
      "WHERE s.productId + 0 = t.id");
}

TEST_F(VectorizedExecutorTest, SetOperationsAcrossEncodings) {
  // Cross-child duplicates, NaN, -0.0 vs 0.0 and int vs double columns.
  ExpectDifferentialMatch("SELECT v FROM ints UNION SELECT v FROM dbls");
  ExpectDifferentialMatch("SELECT v FROM dbls UNION SELECT v FROM ints");
  ExpectDifferentialMatch("SELECT v FROM mixed UNION SELECT v FROM dbls");
  ExpectDifferentialMatch("SELECT DISTINCT v FROM dbls");
  ExpectDifferentialMatch("SELECT DISTINCT v FROM mixed");
  ExpectDifferentialMatch("SELECT v FROM ints MINUS SELECT v FROM dbls");
  ExpectDifferentialMatch("SELECT v FROM dbls MINUS SELECT v FROM mixed");
  ExpectDifferentialMatch("SELECT v FROM mixed MINUS SELECT v FROM ints");
  ExpectDifferentialMatch(
      "SELECT region, year FROM Sales WHERE price < 10 "
      "UNION SELECT region, year FROM Sales WHERE price > 40");
  ExpectDifferentialMatch("SELECT DISTINCT revenue FROM Sales");
}

// ---- Engine-level differential: corpus replay through both paths ---------

std::string Fingerprint(const Dvms& engine) {
  std::ostringstream out;
  for (const std::string& name : engine.catalog().Names()) {
    auto table = engine.GetTable(name);
    if (!table.ok()) continue;
    out << "== " << name << " ==\n";
    const Table* t = table.value();
    for (size_t c = 0; c < t->schema().num_columns(); ++c) {
      out << t->schema().column(c).name << "|";
    }
    out << "\n";
    for (size_t r = 0; r < t->num_rows(); ++r) {
      for (const Value& v : t->row(r)) out << v.ToString() << "|";
      out << "\n";
    }
  }
  return out.str();
}

struct ReplayResult {
  bool loaded = false;
  std::string fingerprint;
  PixelBuffer pixels{1, 1};
};

ReplayResult ReplayCorpusProgram(const std::string& source, size_t threads,
                                 bool vectorize) {
  ScopedVectorizeDefault guard(vectorize);
  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 150;
  options.num_threads = threads;
  Dvms engine(options);
  ReplayResult out;
  Schema schema({{"id", ValueType::kInt64}, {"v", ValueType::kDouble}});
  EXPECT_TRUE(engine.CreateBaseTable("Pts", schema).ok());
  EXPECT_TRUE(engine
                  .Insert("Pts", {{Value::Int(1), Value::Double(25)},
                                  {Value::Int(2), Value::Double(55)},
                                  {Value::Int(3), Value::Double(85)}})
                  .ok());
  if (!engine.LoadProgram(source).ok()) return out;
  out.loaded = true;
  std::vector<InputEvent> stream = {
      InputEvent::MouseDown(1, 30, 30), InputEvent::MouseMove(2, 60, 60),
      InputEvent::MouseUp(3, 60, 60),   InputEvent::KeyPress(4, "p"),
      InputEvent::KeyPress(5, "f"),     InputEvent::Wheel(6, 50, 50, 3),
      InputEvent::MouseDown(7, 40, 40), InputEvent::MouseUp(8, 42, 40),
      InputEvent::MouseDown(9, 44, 40), InputEvent::MouseMove(10, 50, 50),
  };
  for (const InputEvent& e : stream) {
    EXPECT_TRUE(engine.PushEvent(e).ok());
  }
  out.fingerprint = Fingerprint(engine);
  out.pixels = engine.pixels();
  return out;
}

TEST(ColumnarEngineDifferentialTest, CorpusReplayMatchesRowPath) {
  // Every loadable corpus program replays through the vectorized and the
  // row executor at 1 and 4 threads; fingerprints (every catalog relation,
  // matcher state included) and pixels must be bit-identical.
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(DVMS_TEST_CORPUS_DIR)) {
    if (entry.path().extension() == ".devil") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  size_t loaded = 0;
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    std::ifstream in(file);
    std::ostringstream source;
    source << in.rdbuf();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ReplayResult row_path =
          ReplayCorpusProgram(source.str(), threads, /*vectorize=*/false);
      ReplayResult vec_path =
          ReplayCorpusProgram(source.str(), threads, /*vectorize=*/true);
      ASSERT_EQ(row_path.loaded, vec_path.loaded);
      if (!row_path.loaded) continue;
      if (threads == 1) ++loaded;
      EXPECT_EQ(vec_path.fingerprint, row_path.fingerprint);
      EXPECT_TRUE(PixelsBitIdentical(vec_path.pixels, row_path.pixels));
    }
  }
  EXPECT_GE(loaded, 5u);
}

ReplayResult ReplayFig2(size_t threads, bool vectorize) {
  ScopedVectorizeDefault guard(vectorize);
  Dvms::Options options;
  options.num_threads = threads;
  std::unique_ptr<Dvms> engine = MakeFig2Engine(2000, options);
  ReplayResult out;
  if (engine == nullptr) return out;
  out.loaded = true;
  Rng rng(5);
  int64_t t = 1;
  for (int d = 0; d < 2; ++d) {
    for (const InputEvent& e : SeededFig2Drag(&rng, &t)) {
      EXPECT_TRUE(engine->PushEvent(e).ok());
    }
  }
  out.fingerprint = Fingerprint(*engine);
  out.pixels = engine->pixels();
  return out;
}

TEST(ColumnarEngineDifferentialTest, Fig2ReplayAt2000PointsMatchesRowPath) {
  // The corpus replay loads three points; this drives the Figure 2
  // program over 2,000 with two seeded drags, so every morsel-parallel
  // operator, the UNION dedup and the rasterizer see real volume.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ReplayResult row_path = ReplayFig2(threads, /*vectorize=*/false);
    ReplayResult vec_path = ReplayFig2(threads, /*vectorize=*/true);
    ASSERT_TRUE(row_path.loaded && vec_path.loaded);
    EXPECT_EQ(vec_path.fingerprint, row_path.fingerprint);
    EXPECT_TRUE(PixelsBitIdentical(vec_path.pixels, row_path.pixels));
  }
}

// ---- No row view on the event-to-pixels path ------------------------------

uint64_t RowViewsBuilt() {
  for (const obs::MetricRow& m : obs::SnapshotMetrics()) {
    if (m.name == "table.row_views") return m.count;
  }
  return 0;
}

TEST(RowViewTest, FigureDragsBuildNoRowView) {
  struct TracingOff {
    ~TracingOff() { obs::SetEnabled(false); }
  } tracing_off;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (int figure : {2, 1}) {
      SCOPED_TRACE("figure " + std::to_string(figure) +
                   " threads=" + std::to_string(threads));
      Dvms::Options options;
      options.num_threads = threads;
      options.trace = true;
      std::unique_ptr<Dvms> engine = figure == 2
                                         ? MakeFig2Engine(2000, options)
                                         : MakeFig1Engine(5000, options);
      ASSERT_NE(engine, nullptr);
      // The counter is live: building a row view moves it.
      uint64_t before = RowViewsBuilt();
      Table probe(Schema({{"v", ValueType::kInt64}}), {{Value::Int(1)}});
      ASSERT_EQ(probe.rows().size(), 1u);
      ASSERT_EQ(RowViewsBuilt(), before + 1);

      Rng rng(11);
      int64_t t = 1;
      std::vector<InputEvent> drag = figure == 2 ? SeededFig2Drag(&rng, &t)
                                                 : SeededFig1Drag(&rng, &t);
      before = RowViewsBuilt();
      for (const InputEvent& e : drag) {
        ASSERT_TRUE(engine->PushEvent(e).ok());
      }
      EXPECT_EQ(RowViewsBuilt(), before);
    }
  }
}

// ---- Recovery from a row-store-era snapshot + WAL ------------------------

const char* kRecoveryProgram = R"(
  C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
      RETURN (D.t, D.x AS x, D.x AS x2),
             (M.t, D.x AS x, M.x AS x2);
  C_RANGE = SELECT min2(x, x2) AS lo, max2(x, x2) AS hi
    FROM C ORDER BY t DESC LIMIT 1;
  picked = SELECT p.id AS id, p.v AS v
    FROM C_RANGE, Pts AS p
    WHERE p.px >= C_RANGE.lo AND p.px <= C_RANGE.hi;
  MARKS = SELECT 4 AS radius, 'red' AS fill,
      linear_scale(k.v, 0, 100, 0, 180) AS center_x,
      linear_scale(k.id, 0, 24, 0, 120) AS center_y
    FROM picked AS k;
  P = render(SELECT * FROM MARKS);
)";

std::unique_ptr<Dvms> MakeRecoveryEngine(const std::string& data_dir) {
  Dvms::Options options;
  options.canvas_width = 200;
  options.canvas_height = 150;
  options.num_threads = 1;
  options.data_dir = data_dir;
  options.wal_fsync = "always";
  options.snapshot_interval = 0;  // explicit Checkpoint() only
  return std::make_unique<Dvms>(options);
}

TEST(ColumnarRecoveryTest, RowStoreEraSnapshotAndWalRecover) {
  // A snapshot written in the pre-columnar row-wise format (forced via
  // DVMS_SNAPSHOT_LEGACY) plus a WAL suffix recovers bit-identically into
  // the columnar engine, and the next checkpoint upgrades the snapshot to
  // the columnar format without changing the recovered state.
  TempDir dir("rowstore_era");
  std::string want;
  PixelBuffer want_pixels(1, 1);
  ::setenv("DVMS_SNAPSHOT_LEGACY", "1", 1);
  {
    auto engine = MakeRecoveryEngine(dir.str());
    ASSERT_TRUE(engine->recovery_status().ok());
    Schema schema({{"id", ValueType::kInt64},
                   {"v", ValueType::kDouble},
                   {"px", ValueType::kDouble}});
    ASSERT_TRUE(engine->CreateBaseTable("Pts", schema).ok());
    std::vector<Row> rows;
    for (int i = 0; i < 24; ++i) {
      rows.push_back({Value::Int(i), Value::Double((i * 37) % 100),
                      Value::Double(5.0 + i * 8.0)});
    }
    ASSERT_TRUE(engine->Insert("Pts", rows).ok());
    ASSERT_TRUE(engine->LoadProgram(kRecoveryProgram).ok());
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseDown(0, 40, 50)).ok());
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseMove(1, 90, 50)).ok());
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseUp(2, 90, 50)).ok());
    // Row-format snapshot, then more committed work into the WAL suffix.
    ASSERT_TRUE(engine->Checkpoint().ok());
    ASSERT_TRUE(engine
                    ->Insert("Pts", {{Value::Int(100), Value::Double(55),
                                      Value::Double(60.0)}})
                    .ok());
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseDown(3, 20, 40)).ok());
    ASSERT_TRUE(engine->PushEvent(InputEvent::MouseUp(4, 160, 40)).ok());
    want = Fingerprint(*engine);
    want_pixels = engine->pixels();
  }
  ::unsetenv("DVMS_SNAPSHOT_LEGACY");

  auto recovered = MakeRecoveryEngine(dir.str());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status().message();
  EXPECT_EQ(Fingerprint(*recovered), want);
  EXPECT_TRUE(PixelsBitIdentical(recovered->pixels(), want_pixels));
  // Columnar checkpoint over the recovered state...
  ASSERT_TRUE(recovered->Checkpoint().ok());
  recovered.reset();
  // ...recovers again, still bit-identical.
  auto again = MakeRecoveryEngine(dir.str());
  ASSERT_TRUE(again->recovery_status().ok())
      << again->recovery_status().message();
  EXPECT_EQ(Fingerprint(*again), want);
  EXPECT_TRUE(PixelsBitIdentical(again->pixels(), want_pixels));
}

}  // namespace
}  // namespace dvms
