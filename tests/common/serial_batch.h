#ifndef COTE_TESTS_COMMON_SERIAL_BATCH_H_
#define COTE_TESTS_COMMON_SERIAL_BATCH_H_

/// \file
/// The serial batch reference: one CompilationSession compiling (or
/// estimating) a batch in input order. A SessionPool batch must be
/// bit-identical to it, which the pool and governance tests pin.

#include <vector>

#include "common/resource_budget.h"
#include "common/status.h"
#include "core/time_model.h"
#include "session/session.h"

namespace cote {

/// Compiles each query in input order through `session`; a null pointer
/// yields a Status at its index. `limits` applies per query, so one
/// runaway query degrades (or fails) alone.
inline std::vector<StatusOr<OptimizeResult>> SerialCompileBatch(
    CompilationSession& session, const std::vector<const QueryGraph*>& queries,
    const ResourceLimits& limits = {}) {
  std::vector<StatusOr<OptimizeResult>> results;
  results.reserve(queries.size());
  for (const QueryGraph* q : queries) {
    if (q == nullptr) {
      results.push_back(Status::InvalidArgument("null query in batch"));
    } else {
      results.push_back(session.Optimize(*q, limits));
    }
  }
  return results;
}

/// Estimate-mode twin of SerialCompileBatch; a null pointer yields the
/// all-zero estimate.
inline std::vector<CompileTimeEstimate> SerialEstimateBatch(
    CompilationSession& session, const std::vector<const QueryGraph*>& queries,
    const TimeModel& time_model, const ResourceLimits& limits = {}) {
  std::vector<CompileTimeEstimate> results;
  results.reserve(queries.size());
  for (const QueryGraph* q : queries) {
    results.push_back(q == nullptr ? CompileTimeEstimate{}
                                   : session.Estimate(*q, time_model, limits));
  }
  return results;
}

}  // namespace cote

#endif  // COTE_TESTS_COMMON_SERIAL_BATCH_H_
