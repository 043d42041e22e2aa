#ifndef DVMS_TESTS_FIGURE_PROGRAMS_H_
#define DVMS_TESTS_FIGURE_PROGRAMS_H_

// The paper's two interactive figures as engines the tests can drive:
// Figure 2 (brushing a scatter plot) and Figure 1 (a crossfilter over
// TPC-H-shaped sales), plus seeded drags for each.

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dvms.h"
#include "workload/tpch.h"

namespace dvms {

// Figure 2 on a 400x400 canvas: brushed points of Sales(productId, profit,
// revenue) turn red.
inline constexpr const char* kFig2Program = R"(
  C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
      RETURN (D.t, D.x, D.y, 0 AS dx, 0 AS dy),
             (M.t, D.x, D.y, (M.x - D.x) AS dx, (M.y - D.y) AS dy);
  BBOX = SELECT x AS x0, y AS y0, x + dx AS x1, y + dy AS y1
    FROM C ORDER BY t DESC LIMIT 1;
  SPLOT_POINTS = SELECT 3 AS radius, 'gray' AS fill,
      linear_scale(Sales.revenue, 0, 100, 0, 400) AS center_x,
      linear_scale(Sales.profit, 0, 100, 0, 400) AS center_y,
      productId
    FROM Sales;
  selected = SELECT SP.productId AS productId
    FROM BBOX, SPLOT_POINTS@vnow-1 AS SP
    WHERE in_rectangle(SP.center_x, SP.center_y,
                       BBOX.x0, BBOX.y0, BBOX.x1, BBOX.y1);
  SPLOT_POINTS = SELECT 3 AS radius, 'gray' AS fill,
      linear_scale(Sales.revenue, 0, 100, 0, 400) AS center_x,
      linear_scale(Sales.profit, 0, 100, 0, 400) AS center_y,
      productId
    FROM Sales WHERE productId NOT IN selected
    UNION SELECT 3 AS radius, 'red' AS fill,
      linear_scale(Sales.revenue, 0, 100, 0, 400) AS center_x,
      linear_scale(Sales.profit, 0, 100, 0, 400) AS center_y,
      productId
    FROM Sales WHERE productId IN selected;
  P = render(SELECT * FROM SPLOT_POINTS);
)";

// Figure 1 on an 800x600 canvas: a year-range brush on the year chart
// filters the region, month and day-of-week charts.
inline constexpr double kFig1YearX0 = 420, kFig1YearX1 = 780;
inline constexpr const char* kFig1Program = R"(
  C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
      WHERE D.x > 420 AND D.y < 280
      RETURN (D.t, D.x AS x, D.x AS x2),
             (M.t, D.x AS x, M.x AS x2);
  C_RANGE = SELECT min2(x, x2) AS lo, max2(x, x2) AS hi
    FROM C ORDER BY t DESC LIMIT 1;
  selected_years = SELECT yb.year AS year
    FROM C_RANGE, year_bands AS yb
    WHERE yb.x1 >= C_RANGE.lo AND yb.x0 <= C_RANGE.hi;

  rev_region   = SELECT region, SUM(revenue) AS revenue FROM Sales GROUP BY region;
  rev_region_f = SELECT region, SUM(revenue) AS revenue FROM Sales
                 WHERE year IN selected_years GROUP BY region;
  rev_year     = SELECT year, SUM(revenue) AS revenue FROM Sales GROUP BY year;
  rev_year_f   = SELECT year, SUM(revenue) AS revenue FROM Sales
                 WHERE year IN selected_years GROUP BY year;
  rev_month    = SELECT month, SUM(revenue) AS revenue FROM Sales GROUP BY month;
  rev_month_f  = SELECT month, SUM(revenue) AS revenue FROM Sales
                 WHERE year IN selected_years GROUP BY month;
  rev_dow      = SELECT dow, SUM(revenue) AS revenue FROM Sales GROUP BY dow;
  rev_dow_f    = SELECT dow, SUM(revenue) AS revenue FROM Sales
                 WHERE year IN selected_years GROUP BY dow;

  REGION_BARS = SELECT
      band_scale(d.idx, 5, 20.0, 380.0, 0.2) AS x,
      280.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(5, 20.0, 380.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'lightgray' AS fill
    FROM rev_region AS r, region_dim AS d, chart_scale AS s
    WHERE r.region = d.region;
  REGION_BARS_F = SELECT
      band_scale(d.idx, 5, 20.0, 380.0, 0.2) AS x,
      280.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(5, 20.0, 380.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'green' AS fill
    FROM rev_region_f AS r, region_dim AS d, chart_scale AS s
    WHERE r.region = d.region;
  YEAR_BARS = SELECT
      band_scale(r.year - 1992, 7, 420.0, 780.0, 0.2) AS x,
      280.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(7, 420.0, 780.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'lightgray' AS fill
    FROM rev_year AS r, chart_scale AS s;
  YEAR_BARS_F = SELECT
      band_scale(r.year - 1992, 7, 420.0, 780.0, 0.2) AS x,
      280.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(7, 420.0, 780.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'green' AS fill
    FROM rev_year_f AS r, chart_scale AS s;
  MONTH_BARS = SELECT
      band_scale(r.month - 1, 12, 20.0, 380.0, 0.2) AS x,
      580.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(12, 20.0, 380.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'lightgray' AS fill
    FROM rev_month AS r, chart_scale AS s;
  MONTH_BARS_F = SELECT
      band_scale(r.month - 1, 12, 20.0, 380.0, 0.2) AS x,
      580.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(12, 20.0, 380.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'green' AS fill
    FROM rev_month_f AS r, chart_scale AS s;
  DOW_BARS = SELECT
      band_scale(r.dow, 7, 420.0, 780.0, 0.2) AS x,
      580.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(7, 420.0, 780.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'lightgray' AS fill
    FROM rev_dow AS r, chart_scale AS s;
  DOW_BARS_F = SELECT
      band_scale(r.dow, 7, 420.0, 780.0, 0.2) AS x,
      580.0 - linear_scale(r.revenue, s.domain_min, s.domain_max,
                           s.range_min, s.range_max) AS y,
      band_width(7, 420.0, 780.0, 0.2) AS width,
      linear_scale(r.revenue, s.domain_min, s.domain_max,
                   s.range_min, s.range_max) AS height,
      'green' AS fill
    FROM rev_dow_f AS r, chart_scale AS s;

  P1 = render(SELECT * FROM REGION_BARS);
  P2 = render(SELECT * FROM REGION_BARS_F);
  P3 = render(SELECT * FROM YEAR_BARS);
  P4 = render(SELECT * FROM YEAR_BARS_F);
  P5 = render(SELECT * FROM MONTH_BARS);
  P6 = render(SELECT * FROM MONTH_BARS_F);
  P7 = render(SELECT * FROM DOW_BARS);
  P8 = render(SELECT * FROM DOW_BARS_F);
)";

/// A Figure 2 engine over `points` seeded points in [0, 100)^2. Returns
/// nullptr if set-up fails.
inline std::unique_ptr<Dvms> MakeFig2Engine(size_t points,
                                            Dvms::Options options,
                                            uint64_t seed = 7) {
  options.canvas_width = 400;
  options.canvas_height = 400;
  auto engine = std::make_unique<Dvms>(options);
  Rng rng(seed);
  std::vector<Row> rows;
  for (size_t i = 0; i < points; ++i) {
    double profit = rng.Uniform(0, 100);
    double revenue = rng.Uniform(0, 100);
    rows.push_back({Value::Int(static_cast<int64_t>(i)), Value::Double(profit),
                    Value::Double(revenue)});
  }
  Schema sales({{"productId", ValueType::kInt64},
                {"profit", ValueType::kDouble},
                {"revenue", ValueType::kDouble}});
  if (!engine->CreateBaseTable("Sales", sales).ok() ||
      !engine->Insert("Sales", rows).ok() ||
      !engine->LoadProgram(kFig2Program).ok()) {
    return nullptr;
  }
  return engine;
}

/// A Figure 1 engine (online optimizer on) over `rows` TPC-H-shaped facts.
/// Returns nullptr if set-up fails.
inline std::unique_ptr<Dvms> MakeFig1Engine(size_t rows,
                                            Dvms::Options options) {
  options.canvas_width = 800;
  options.canvas_height = 600;
  options.enable_online_optimizer = true;
  auto engine = std::make_unique<Dvms>(options);
  TpchConfig config;
  config.num_rows = rows;
  Table sales = GenerateTpchSales(config);
  std::map<std::string, double> region_totals;
  for (size_t i = 0; i < sales.num_rows(); ++i) {
    region_totals[sales.ValueAt(i, 1).string_value()] +=
        sales.ValueAt(i, 6).double_value();
  }
  std::vector<Row> regions, bands;
  double max_total = 1;
  for (const auto& [region, total] : region_totals) {
    regions.push_back({Value::String(region),
                       Value::Int(static_cast<int64_t>(regions.size()))});
    max_total = std::max(max_total, total);
  }
  const double band = (kFig1YearX1 - kFig1YearX0) / 7;
  for (int y = 0; y < 7; ++y) {
    bands.push_back({Value::Int(1992 + y),
                     Value::Double(kFig1YearX0 + y * band),
                     Value::Double(kFig1YearX0 + (y + 1) * band)});
  }
  bool ok =
      engine->CreateBaseTable("Sales", sales.schema()).ok() &&
      engine->Insert("Sales", sales.rows()).ok() &&
      engine
          ->CreateBaseTable("region_dim",
                            Schema({{"region", ValueType::kString},
                                    {"idx", ValueType::kInt64}}))
          .ok() &&
      engine->Insert("region_dim", regions).ok() &&
      engine
          ->CreateBaseTable("year_bands",
                            Schema({{"year", ValueType::kInt64},
                                    {"x0", ValueType::kDouble},
                                    {"x1", ValueType::kDouble}}))
          .ok() &&
      engine->Insert("year_bands", bands).ok() &&
      engine->CreateScale("chart_scale", 0, max_total * 1.05, 0, 240).ok() &&
      engine->LoadProgram(kFig1Program).ok();
  return ok ? std::move(engine) : nullptr;
}

/// One drag of 20 moves from (x0, y0) to (x1, y1) in whole pixels,
/// starting at time *t: MOUSE_DOWN, the moves, MOUSE_UP.
inline std::vector<InputEvent> LinearDrag(int64_t* t, double x0, double y0,
                                          double x1, double y1) {
  constexpr int kMoves = 20;
  std::vector<InputEvent> drag = {InputEvent::MouseDown((*t)++, x0, y0)};
  for (int m = 1; m <= kMoves; ++m) {
    double x = std::round(x0 + (x1 - x0) * m / kMoves);
    double y = std::round(y0 + (y1 - y0) * m / kMoves);
    drag.push_back(InputEvent::MouseMove((*t)++, x, y));
  }
  drag.push_back(InputEvent::MouseUp((*t)++, x1, y1));
  return drag;
}

/// A seeded drag anywhere on the Figure 2 canvas.
inline std::vector<InputEvent> SeededFig2Drag(Rng* rng, int64_t* t) {
  double x0 = static_cast<double>(rng->UniformInt(0, 399));
  double y0 = static_cast<double>(rng->UniformInt(0, 399));
  double x1 = static_cast<double>(rng->UniformInt(0, 399));
  double y1 = static_cast<double>(rng->UniformInt(0, 399));
  return LinearDrag(t, x0, y0, x1, y1);
}

/// A seeded horizontal drag inside the Figure 1 year chart.
inline std::vector<InputEvent> SeededFig1Drag(Rng* rng, int64_t* t) {
  double x0 = static_cast<double>(rng->UniformInt(422, 778));
  double x1 = static_cast<double>(rng->UniformInt(422, 778));
  double y = static_cast<double>(rng->UniformInt(20, 260));
  return LinearDrag(t, x0, y, x1, y);
}

}  // namespace dvms

#endif  // DVMS_TESTS_FIGURE_PROGRAMS_H_
