#ifndef PERFBENCH_PROGRAMS_H_
#define PERFBENCH_PROGRAMS_H_

// The DeVIL programs the workloads load. Kept here, not read from the
// examples, so that editing an example never changes the benchmark.

#include "common/schema.h"

namespace perfbench {

/// The base relation kBrushProgram reads: Sales(productId, profit, revenue).
inline dvms::Schema BrushSalesSchema() {
  return dvms::Schema({{"productId", dvms::ValueType::kInt64},
                       {"profit", dvms::ValueType::kDouble},
                       {"revenue", dvms::ValueType::kDouble}});
}

// Figure 2: brushing a scatter plot of Sales(productId, profit, revenue)
// on a 400x400 canvas; brushed points turn red.
inline constexpr const char* kBrushProgram = R"(
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

// Figure 1: crossfilter over TPC-H-shaped Sales on an 800x600 canvas;
// a year-range brush on the year chart filters the other charts.
inline constexpr double kYearX0 = 420, kYearX1 = 780;
inline constexpr const char* kCrossfilterProgram = R"(
  -- Brush on the year chart: a horizontal range selection.
  C = EVENT MOUSE_DOWN AS D, MOUSE_MOVE* AS M, MOUSE_UP AS U
      WHERE D.x > 420 AND D.y < 280
      RETURN (D.t, D.x AS x, D.x AS x2),
             (M.t, D.x AS x, M.x AS x2);

  C_RANGE = SELECT min2(x, x2) AS lo, max2(x, x2) AS hi
    FROM C ORDER BY t DESC LIMIT 1;

  selected_years = SELECT yb.year AS year
    FROM C_RANGE, year_bands AS yb
    WHERE yb.x1 >= C_RANGE.lo AND yb.x0 <= C_RANGE.hi;

  -- Group-by-sum views: unfiltered totals and crossfiltered partitions.
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

  -- Marks: gray total bars with green filtered overlays.
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

}  // namespace perfbench

#endif  // PERFBENCH_PROGRAMS_H_
