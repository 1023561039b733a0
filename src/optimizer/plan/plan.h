#ifndef COTE_OPTIMIZER_PLAN_PLAN_H_
#define COTE_OPTIMIZER_PLAN_PLAN_H_

#include <string>

#include "common/table_set.h"
#include "optimizer/join_method.h"
#include "optimizer/properties/order_property.h"
#include "optimizer/properties/partition_property.h"

namespace cote {

/// Physical operators appearing in plans.
enum class OpType {
  kTableScan,
  kIndexScan,
  kSort,         ///< order enforcer (eager order policy)
  kRepartition,  ///< partition enforcer: hash-redistribute (parallel TQ)
  kReplicate,    ///< partition enforcer: broadcast to all nodes
  kNljn,
  kMgjn,
  kHsjn,
  kGroupBySort,
  kGroupByHash,
};

const char* OpTypeName(OpType op);

inline bool IsJoinOp(OpType op) {
  return op == OpType::kNljn || op == OpType::kMgjn || op == OpType::kHsjn;
}

inline JoinMethod JoinMethodOf(OpType op) {
  switch (op) {
    case OpType::kNljn:
      return JoinMethod::kNljn;
    case OpType::kMgjn:
      return JoinMethod::kMgjn;
    default:
      return JoinMethod::kHsjn;
  }
}

inline OpType OpOfJoinMethod(JoinMethod m) {
  switch (m) {
    case JoinMethod::kNljn:
      return OpType::kNljn;
    case JoinMethod::kMgjn:
      return OpType::kMgjn;
    case JoinMethod::kHsjn:
      return OpType::kHsjn;
  }
  return OpType::kHsjn;
}

/// \brief A physical plan node.
///
/// Plans are immutable once inserted into the MEMO and owned by the Memo's
/// arena; children are plain pointers into the same arena. `order` and
/// `partition` are canonicalized with respect to the owning MEMO entry's
/// column equivalence, and hold their columns inline (ColumnList), so a
/// plan owns no heap memory unless a property value spills.
struct Plan {
  OpType op = OpType::kTableScan;
  /// Index ordinal within the base table, for kIndexScan.
  int index_id = -1;
  TableSet tables;
  double rows = 0;
  double cost = 0;
  OrderProperty order;
  PartitionProperty partition;
  /// Pipelinable property (paper Table 1): true when no operator below
  /// requires full materialization (no SORT, no hash-join build, no
  /// hash aggregation). Interesting for first-n-rows queries, which can
  /// stop a pipelinable plan early. Tracked as a Pareto dimension only
  /// when the query asks for first rows.
  bool pipelinable = true;
  /// Single input of unary operators; outer (left) input of joins.
  const Plan* child = nullptr;
  /// Inner (right) input of joins; null for unary operators.
  const Plan* inner = nullptr;

  bool IsJoin() const { return IsJoinOp(op); }

  /// One-line description of this node (not the subtree).
  std::string Describe() const;
};

/// Renders the plan subtree, one operator per line, children indented.
std::string PrintPlan(const Plan* plan, int indent = 0);

}  // namespace cote

#endif  // COTE_OPTIMIZER_PLAN_PLAN_H_
