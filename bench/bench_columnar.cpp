// Columnar storage and vectorized execution: the Figure 1 crossfilter
// chart queries over TPC-H-shaped data and the Figure 2 brushing plans,
// each executed twice through the same morsel-driven executor — once via
// the row-at-a-time interpreter (ExecOptions::vectorize = false, the
// pre-columnar baseline) and once via the typed column kernels. Results
// must be bit-identical; the vectorized path must clear a 2x speedup gate
// on both. The same binary compares snapshot
// encoding sizes: the columnar format (typed payloads + local dictionary)
// against the legacy row-wise format.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "durability/codec.h"
#include "parser/parser.h"
#include "parser/planner.h"
#include "query/binder.h"
#include "query/executor.h"
#include "storage/catalog.h"
#include "workload/tpch.h"

namespace {

using namespace dvms;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Appends one JSON object line to the file named by DVMS_BENCH_JSON (if
/// set); ci.sh collects these lines into BENCH_columnar.json.
void AppendBenchJson(const char* bench, double row_ms, double vec_ms,
                     bool identical, bool pass) {
  const char* path = std::getenv("DVMS_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"bench\": \"%s\", \"row_ms\": %.4f, \"vec_ms\": %.4f, "
               "\"speedup\": %.2f, \"identical\": %s, \"pass\": %s}\n",
               bench, row_ms, vec_ms, row_ms / vec_ms,
               identical ? "true" : "false", pass ? "true" : "false");
  std::fclose(f);
}

void AppendSnapshotJson(size_t columnar_bytes, size_t legacy_bytes,
                        bool pass) {
  const char* path = std::getenv("DVMS_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\"bench\": \"snapshot_size\", \"columnar_bytes\": %zu, "
               "\"legacy_bytes\": %zu, \"reduction\": %.2f, \"pass\": %s}\n",
               columnar_bytes, legacy_bytes,
               1.0 - static_cast<double>(columnar_bytes) /
                         static_cast<double>(legacy_bytes),
               pass ? "true" : "false");
  std::fclose(f);
}

bool TablesEqual(const std::vector<Table>& a, const std::vector<Table>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].num_rows() != b[q].num_rows()) return false;
    for (size_t i = 0; i < a[q].num_rows(); ++i) {
      const Row& ra = a[q].row(i);
      const Row& rb = b[q].row(i);
      if (ra.size() != rb.size()) return false;
      for (size_t c = 0; c < ra.size(); ++c) {
        if (ra[c].type() != rb[c].type()) return false;
        if (ra[c].Compare(rb[c]) != 0) return false;
      }
    }
  }
  return true;
}

/// The Figure 1 crossfilter charts as SQL: three filtered group-by-sum
/// views plus the ranked-detail sort, row path vs vectorized kernels.
void RunCrossfilterComparison() {
  std::printf("=== Columnar kernels vs row interpreter (Figure 1 charts) ===\n\n");
  TpchConfig config;
  config.num_rows = 50000;
  Table fact = GenerateTpchSales(config);
  Catalog catalog;
  UdfRegistry udfs = UdfRegistry::WithBuiltins();
  VersionedTable* table =
      catalog.CreateTable("Sales", fact.schema(), RelationKind::kBase).value();
  (void)table->SetCurrent(Table(fact));

  const char* queries[] = {
      "SELECT region, SUM(revenue) AS revenue FROM Sales "
      "WHERE year >= 1997 AND year <= 1998 GROUP BY region",
      "SELECT month, SUM(revenue) AS revenue FROM Sales "
      "WHERE year >= 1997 AND year <= 1998 GROUP BY month",
      "SELECT dow, SUM(revenue) AS revenue FROM Sales "
      "WHERE year >= 1997 AND year <= 1998 GROUP BY dow",
      "SELECT region, revenue FROM Sales ORDER BY revenue DESC",
  };
  std::vector<PlanPtr> plans;
  for (const char* sql : queries) {
    SelectStmt stmt = ParseSelect(sql).value();
    CatalogSchemaResolver resolver(&catalog);
    Planner planner(&resolver);
    PlanPtr plan = planner.PlanSelect(stmt).value();
    Binder binder(&resolver, &udfs);
    (void)binder.Bind(plan.get());
    plans.push_back(std::move(plan));
  }

  Executor exec(&catalog, &udfs);
  auto run_all = [&](bool vectorize) {
    std::vector<Table> out;
    for (const PlanPtr& plan : plans) {
      ExecOptions opts;
      opts.vectorize = vectorize;
      opts.num_threads = 1;
      out.push_back(std::move(exec.Execute(*plan, opts).value()->table));
    }
    return out;
  };

  // Warm both paths (row-view cache, dictionary) before timing.
  std::vector<Table> row_out = run_all(false);
  std::vector<Table> vec_out = run_all(true);
  bool identical = TablesEqual(row_out, vec_out);

  constexpr int kReps = 20;
  Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kReps; ++r) benchmark::DoNotOptimize(run_all(false));
  double row_ms = MsSince(t0) / kReps;
  t0 = Clock::now();
  for (int r = 0; r < kReps; ++r) benchmark::DoNotOptimize(run_all(true));
  double vec_ms = MsSince(t0) / kReps;

  double speedup = row_ms / vec_ms;
  bool pass = identical && speedup >= 2.0;
  std::printf("4 chart queries over %zu rows: row path %.2f ms, "
              "vectorized %.2f ms (%.2fx), results %s\n\n",
              fact.num_rows(), row_ms, vec_ms, speedup,
              identical ? "identical" : "MISMATCH");
  AppendBenchJson("fig1_crossfilter_columnar", row_ms, vec_ms, identical,
                  pass);
}

/// Median of `v` (sorts it).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Plans `sql` against `catalog`, bound; aborts the bench on failure.
PlanPtr PlanOrDie(const char* sql, Catalog* catalog, const UdfRegistry* udfs) {
  SelectStmt stmt = ParseSelect(sql).value();
  CatalogSchemaResolver resolver(catalog);
  Planner planner(&resolver);
  PlanPtr plan = planner.PlanSelect(stmt).value();
  Binder binder(&resolver, udfs);
  if (!binder.Bind(plan.get()).ok()) std::abort();
  return plan;
}

/// The Figure 2 maintenance plans over 10,000 points: `selected` (a 1xN
/// cross join under an in_rectangle filter) and the re-colored
/// SPLOT_POINTS (IN / NOT IN filters, linear_scale projections, UNION).
/// The arms alternate inside each round so host drift hits both alike.
void RunBrushingComparison() {
  std::printf("=== Columnar kernels vs row interpreter (Figure 2 plans) ===\n\n");
  constexpr size_t kPoints = 10000;
  Catalog catalog;
  UdfRegistry udfs = UdfRegistry::WithBuiltins();
  VersionedTable* sales =
      catalog
          .CreateTable("Sales",
                       Schema({{"productId", ValueType::kInt64},
                               {"profit", ValueType::kDouble},
                               {"revenue", ValueType::kDouble}}),
                       RelationKind::kBase)
          .value();
  Rng rng(2);
  for (size_t i = 0; i < kPoints; ++i) {
    (void)sales->Append({Value::Int(static_cast<int64_t>(i)),
                         Value::Double(rng.Uniform(0, 100)),
                         Value::Double(rng.Uniform(0, 100))});
  }
  VersionedTable* bbox =
      catalog
          .CreateTable("BBOX",
                       Schema({{"x0", ValueType::kDouble},
                               {"y0", ValueType::kDouble},
                               {"x1", ValueType::kDouble},
                               {"y1", ValueType::kDouble}}),
                       RelationKind::kBase)
          .value();
  (void)bbox->Append({Value::Double(80), Value::Double(60), Value::Double(260),
                      Value::Double(300)});
  // SPLOT_POINTS as the first definition leaves it, and the selection the
  // brush makes of it, materialized as the inputs of the timed plans.
  Executor exec(&catalog, &udfs);
  auto materialize = [&](const char* name, const char* sql) {
    PlanPtr plan = PlanOrDie(sql, &catalog, &udfs);
    Table t = exec.ExecuteToTable(*plan).value();
    VersionedTable* v =
        catalog.CreateTable(name, t.schema(), RelationKind::kBase).value();
    (void)v->SetCurrent(std::move(t));
  };
  materialize("SPLOT_POINTS",
              "SELECT 3 AS radius, 'gray' AS fill, "
              "linear_scale(Sales.revenue, 0, 100, 0, 400) AS center_x, "
              "linear_scale(Sales.profit, 0, 100, 0, 400) AS center_y, "
              "productId FROM Sales");
  const char* selected_sql =
      "SELECT SP.productId AS productId FROM BBOX, SPLOT_POINTS AS SP "
      "WHERE in_rectangle(SP.center_x, SP.center_y, "
      "BBOX.x0, BBOX.y0, BBOX.x1, BBOX.y1)";
  materialize("selected", selected_sql);
  std::vector<PlanPtr> plans;
  plans.push_back(PlanOrDie(selected_sql, &catalog, &udfs));
  plans.push_back(PlanOrDie(
      "SELECT 3 AS radius, 'gray' AS fill, "
      "linear_scale(Sales.revenue, 0, 100, 0, 400) AS center_x, "
      "linear_scale(Sales.profit, 0, 100, 0, 400) AS center_y, "
      "productId FROM Sales WHERE productId NOT IN selected "
      "UNION SELECT 3 AS radius, 'red' AS fill, "
      "linear_scale(Sales.revenue, 0, 100, 0, 400) AS center_x, "
      "linear_scale(Sales.profit, 0, 100, 0, 400) AS center_y, "
      "productId FROM Sales WHERE productId IN selected",
      &catalog, &udfs));

  auto run_all = [&](bool vectorize) {
    std::vector<Table> out;
    for (const PlanPtr& plan : plans) {
      ExecOptions opts;
      opts.vectorize = vectorize;
      opts.num_threads = 1;
      out.push_back(std::move(exec.Execute(*plan, opts).value()->table));
    }
    return out;
  };
  auto timed = [&](bool vectorize) {
    Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(run_all(vectorize));
    return MsSince(t0);
  };

  bool identical = TablesEqual(run_all(false), run_all(true));
  constexpr int kRounds = 20;
  std::vector<double> row_ms, vec_ms;
  for (int r = 0; r < kRounds; ++r) {
    const bool vec_first = r % 2 == 1;
    if (vec_first) vec_ms.push_back(timed(true));
    row_ms.push_back(timed(false));
    if (!vec_first) vec_ms.push_back(timed(true));
  }
  double row = Median(row_ms), vec = Median(vec_ms);
  double speedup = row / vec;
  bool pass = identical && speedup >= 2.0;
  std::printf("selected + SPLOT_POINTS over %zu points, median of %d "
              "interleaved rounds: row path %.2f ms, vectorized %.2f ms "
              "(%.2fx), results %s\n\n",
              kPoints, kRounds, row, vec, speedup,
              identical ? "identical" : "MISMATCH");
  AppendBenchJson("fig2_brushing_columnar", row, vec, identical, pass);
}

/// Snapshot bytes for the same fact table, columnar vs legacy row format.
void RunSnapshotSizeComparison() {
  std::printf("=== Snapshot encoding: columnar vs legacy row format ===\n\n");
  TpchConfig config;
  config.num_rows = 50000;
  Table fact = GenerateTpchSales(config);

  BinaryWriter columnar;
  EncodeTable(fact, &columnar);
  BinaryWriter legacy;
  EncodeTableLegacy(fact, &legacy);

  // Decode sanity: the columnar bytes reproduce every row.
  BinaryReader r(columnar.data());
  auto decoded = DecodeTable(&r);
  bool roundtrip = decoded.ok() && decoded.value().SameContents(fact);

  bool pass = roundtrip && columnar.size() < legacy.size();
  std::printf("%zu rows: columnar %zu bytes, legacy %zu bytes "
              "(%.1f%% smaller), round-trip %s\n\n",
              fact.num_rows(), columnar.size(), legacy.size(),
              100.0 * (1.0 - static_cast<double>(columnar.size()) /
                                 static_cast<double>(legacy.size())),
              roundtrip ? "OK" : "MISMATCH");
  AppendSnapshotJson(columnar.size(), legacy.size(), pass);
}

void BM_VectorizedCrossfilterQuery(benchmark::State& state) {
  TpchConfig config;
  config.num_rows = static_cast<size_t>(state.range(0));
  Table fact = GenerateTpchSales(config);
  Catalog catalog;
  UdfRegistry udfs = UdfRegistry::WithBuiltins();
  VersionedTable* table =
      catalog.CreateTable("Sales", fact.schema(), RelationKind::kBase).value();
  (void)table->SetCurrent(Table(fact));
  SelectStmt stmt =
      ParseSelect(
          "SELECT region, SUM(revenue) AS revenue FROM Sales "
          "WHERE year >= 1997 AND year <= 1998 GROUP BY region")
          .value();
  CatalogSchemaResolver resolver(&catalog);
  Planner planner(&resolver);
  PlanPtr plan = planner.PlanSelect(stmt).value();
  Binder binder(&resolver, &udfs);
  (void)binder.Bind(plan.get());
  Executor exec(&catalog, &udfs);
  const bool vectorize = state.range(1) != 0;
  for (auto _ : state) {
    ExecOptions opts;
    opts.vectorize = vectorize;
    opts.num_threads = 1;
    benchmark::DoNotOptimize(exec.Execute(*plan, opts).value());
  }
}
BENCHMARK(BM_VectorizedCrossfilterQuery)
    ->Args({50000, 0})
    ->Args({50000, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  RunCrossfilterComparison();
  RunBrushingComparison();
  RunSnapshotSizeComparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
