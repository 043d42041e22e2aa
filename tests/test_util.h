#ifndef DVMS_TESTS_TEST_UTIL_H_
#define DVMS_TESTS_TEST_UTIL_H_

// Helpers shared by the test suites.

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

#include "core/dvms.h"
#include "parser/parser.h"
#include "parser/planner.h"
#include "query/binder.h"
#include "query/executor.h"
#include "gtest/gtest.h"

namespace dvms {

/// A fresh, empty directory under the gtest temp dir, removed with its
/// contents on destruction. The name carries the tag, the pid and a
/// process-wide counter, so concurrent test processes and repeated tags
/// never share a directory.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = std::filesystem::path(::testing::TempDir()) /
            ("dvms_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string str() const { return path_.string(); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Runs `sql` with Planner/Binder/Executor straight over the engine's live
/// catalog (the CatalogRelationSource path), bypassing both the optimizer
/// and the published snapshots that Dvms::Query reads. For references
/// that must not share code with the read path under test, and for state
/// set up by writing to the catalog directly (which publishes nothing).
inline Result<Table> ReadLiveCatalog(Dvms& engine, const std::string& sql) {
  DVMS_ASSIGN_OR_RETURN(QueryRequest req, ParseQuery(sql));
  CatalogSchemaResolver resolver(engine.catalog());
  Planner planner(&resolver);
  DVMS_ASSIGN_OR_RETURN(PlanPtr plan, planner.PlanSelect(req.select));
  Binder binder(&resolver, engine.udfs());
  DVMS_RETURN_IF_ERROR(binder.Bind(plan.get()));
  return Executor(engine.catalog(), engine.udfs()).ExecuteToTable(*plan);
}

}  // namespace dvms

#endif  // DVMS_TESTS_TEST_UTIL_H_
