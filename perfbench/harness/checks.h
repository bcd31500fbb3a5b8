#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Answer checks made apart from the program under test. Each check
// returns "" when the answer holds and a reason when it does not; the
// self-test (selftest.cc) feeds each one a tampered answer to show that it
// rejects it.

#include <string>
#include <vector>

#include "hedge/hedge.h"
#include "queries.h"
#include "query/selection.h"
#include "schema/schema.h"
#include "schema/transform.h"
#include "util/rng.h"

namespace perfbench {

/// Answer lines in the serving engine's format ("/0/1/3\tfigure": 0-based
/// sibling positions from the top level down, then the label), in
/// document order, for the nodes with located[n] set. Computed by a walk
/// of the tree, not through hedgeq's Dewey helpers.
std::vector<std::string> AnswerLines(const hedgeq::hedge::Hedge& doc,
                                     const std::vector<bool>& located,
                                     const hedgeq::hedge::Vocabulary& vocab);

/// The three independent evaluators of a query on a document.
enum class Method {
  kXPath,  // baseline::EvaluateXPath on QuerySpec::XPath()
  kWalk,   // the direct tree walk below
  kNaive,  // query::NaiveSelectionEvaluator (Definition 22, literally)
};
const char* MethodName(Method m);

/// The evaluator a spec is checked with: the naive evaluator on documents
/// small enough for it, else XPath where it can state the spec, else the
/// tree walk.
Method MethodFor(const QuerySpec& spec, bool small_document);

/// located[n] per node, by `method`.
std::vector<bool> ExpectedLocated(const QuerySpec& spec, Method method,
                                  const hedgeq::hedge::Hedge& doc,
                                  hedgeq::hedge::Vocabulary& vocab);

/// "" when `got` equals `expected` line for line, else a short diff.
std::string CompareAnswers(const std::vector<std::string>& expected,
                           const std::vector<std::string>& got);

/// Seeded document valid for bench::ArticleGrammar(extra_paras), using
/// every paragraph flavor of that grammar. About `target_nodes` nodes.
hedgeq::hedge::Hedge ConformingArticle(hedgeq::Rng& rng,
                                       hedgeq::hedge::Vocabulary& vocab,
                                       size_t extra_paras,
                                       size_t target_nodes);

/// Select output schema: every subtree the query selects on `docs` (per
/// `located`) validates on `output`. Fails when no subtree was selected,
/// since the check would then prove nothing.
std::string CheckSelectOutput(const hedgeq::schema::Schema& output,
                              const std::vector<hedgeq::hedge::Hedge>& docs,
                              const std::vector<std::vector<bool>>& located);

/// Delete output schema: each document with its located subtrees removed
/// validates on `output`.
std::string CheckDeleteOutput(const hedgeq::schema::Schema& output,
                              const std::vector<hedgeq::hedge::Hedge>& docs,
                              const std::vector<std::vector<bool>>& located);

/// A "separated" containment verdict: the counterexample document is valid
/// for `input`, and the naive evaluator locates the distinguishing node
/// with q1 but not with q2.
std::string CheckSeparated(const hedgeq::schema::Schema& input,
                           const hedgeq::query::SelectionQuery& q1,
                           const hedgeq::query::SelectionQuery& q2,
                           const hedgeq::schema::ContainmentResult& result);

/// A "contained" containment verdict on sampled documents: every node the
/// naive evaluator locates with q1 it also locates with q2. Fails when q1
/// locates nothing on the samples.
std::string CheckContained(const hedgeq::query::SelectionQuery& q1,
                           const hedgeq::query::SelectionQuery& q2,
                           const std::vector<hedgeq::hedge::Hedge>& docs);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
