// Self-test of the answer checks: each check must accept the program's
// true answer and reject a tampered copy of it. Nothing in the program is
// changed; the tampering happens to the answer on its way to the checker.

#include <iostream>

#include "bench/bench_util.h"
#include "checks.h"
#include "query/selection.h"
#include "schema/schema.h"
#include "schema/transform.h"
#include "workloads.h"

namespace perfbench {

namespace {

using hedgeq::hedge::Hedge;
using hedgeq::hedge::NodeId;
using hedgeq::hedge::Vocabulary;

/// Reports one check: `honest` is its verdict on the true answer and
/// `tampered` on the altered one ("" = accepted).
int Report(const std::string& name, const std::string& honest,
           const std::string& tampered) {
  const bool ok = honest.empty() && !tampered.empty();
  std::cout << "self-test " << name << ": " << (ok ? "ok" : "FAILED")
            << " (true answer: " << (honest.empty() ? "accepted" : honest)
            << "; tampered: "
            << (tampered.empty() ? "accepted" : "rejected, " + tampered)
            << ")\n";
  return ok ? 0 : 1;
}

/// The program's answer lines for `spec` on `doc`.
std::vector<std::string> ProgramAnswer(const QuerySpec& spec, const Hedge& doc,
                                       Vocabulary& vocab) {
  auto q = hedgeq::query::ParseSelectionQuery(spec.Text(), vocab);
  auto eval = hedgeq::query::SelectionEvaluator::Create(*q);
  std::vector<bool> located(doc.num_nodes(), false);
  for (NodeId n : eval->LocatedNodes(doc)) located[n] = true;
  return AnswerLines(doc, located, vocab);
}

/// An answer check by `method`, with two tamperings: a dropped line and a
/// line naming a node the query does not locate.
int AnswerCheck(const QuerySpec& spec, Method method, const Hedge& doc,
                Vocabulary& vocab) {
  const std::vector<std::string> truth = ProgramAnswer(spec, doc, vocab);
  const std::vector<std::string> expected =
      AnswerLines(doc, ExpectedLocated(spec, method, doc, vocab), vocab);
  std::vector<std::string> dropped = truth;
  if (!dropped.empty()) dropped.pop_back();
  std::vector<std::string> added = truth;
  added.push_back("/0\tarticle");
  const std::string name = std::string(MethodName(method)) + " " + spec.Text();
  return Report(name + " [dropped line]", CompareAnswers(expected, truth),
                CompareAnswers(expected, dropped)) +
         Report(name + " [added line]", CompareAnswers(expected, truth),
                CompareAnswers(expected, added));
}

}  // namespace

int RunSelfTest() {
  int failures = 0;
  Vocabulary vocab;

  // Query answers: XPath and tree-walk checks on a 20k-node article, the
  // naive evaluator on a 1k-node one.
  hedgeq::Rng rng(7);
  hedgeq::workload::ArticleOptions options;
  options.target_nodes = 20000;
  const Hedge large = hedgeq::workload::RandomArticle(rng, vocab, options);
  options.target_nodes = 1000;
  const Hedge small = hedgeq::workload::RandomArticle(rng, vocab, options);
  const std::vector<QuerySpec> specs = SmallDocQueries();
  failures += AnswerCheck(specs[0], Method::kXPath, large, vocab);
  failures += AnswerCheck(specs[4], Method::kWalk, large, vocab);
  failures += AnswerCheck(specs[6], Method::kWalk, large, vocab);
  failures += AnswerCheck(specs[12], Method::kWalk, large, vocab);
  failures += AnswerCheck(specs[4], Method::kNaive, small, vocab);
  failures += AnswerCheck(specs[12], Method::kNaive, small, vocab);

  // Output schemas: the true one against another query's output.
  auto grammar = hedgeq::schema::ParseSchema(hedgeq::bench::ArticleGrammar(8),
                                             vocab);
  auto figures = hedgeq::query::ParseSelectionQuery(
      "select(*; figure (section|article)*)", vocab);
  auto paras = hedgeq::query::ParseSelectionQuery(
      "select(*; para (section|article)*)", vocab);
  std::vector<Hedge> samples;
  std::vector<std::vector<bool>> located;
  const hedgeq::query::NaiveSelectionEvaluator naive(*figures);
  for (uint64_t i = 0; i < 4; ++i) {
    hedgeq::Rng sample_rng(100 + i);
    samples.push_back(ConformingArticle(sample_rng, vocab, 8, 400));
    located.push_back(naive.Locate(samples.back()));
  }
  auto select_true = hedgeq::schema::SelectOutputSchema(*grammar, *figures);
  auto select_other = hedgeq::schema::SelectOutputSchema(*grammar, *paras);
  failures += Report("select output schema",
                     CheckSelectOutput(*select_true, samples, located),
                     CheckSelectOutput(*select_other, samples, located));
  auto delete_true = hedgeq::schema::DeleteOutputSchema(*grammar, *figures);
  auto delete_other = hedgeq::schema::DeleteOutputSchema(*grammar, *paras);
  failures += Report("delete output schema",
                     CheckDeleteOutput(*delete_true, samples, located),
                     CheckDeleteOutput(*delete_other, samples, located));

  // Containment: a separated verdict whose counterexample points at the
  // wrong node, and a separated pair claimed contained.
  auto base = hedgeq::schema::ParseSchema(hedgeq::bench::ArticleGrammar(0),
                                          vocab);
  auto depth1 = hedgeq::query::ParseSelectionQuery(
      "select(*; figure section article)", vocab);
  auto separated = hedgeq::schema::QueryContainment(*base, *figures, *depth1);
  hedgeq::schema::ContainmentResult moved = *separated;
  if (moved.counterexample.has_value()) moved.counterexample->located = 0;
  failures += Report("separated verdict",
                     CheckSeparated(*base, *figures, *depth1, *separated),
                     CheckSeparated(*base, *figures, *depth1, moved));
  std::vector<Hedge> base_samples;
  for (uint64_t i = 0; i < 4; ++i) {
    hedgeq::Rng sample_rng(200 + i);
    base_samples.push_back(ConformingArticle(sample_rng, vocab, 0, 400));
  }
  auto contained = hedgeq::schema::QueryContainment(*base, *depth1, *figures);
  failures += Report(
      "contained verdict",
      contained->contained ? CheckContained(*depth1, *figures, base_samples)
                           : "program said separated",
      // The separated pair, claimed contained.
      CheckContained(*figures, *depth1, base_samples));
  std::cout << "self-test: " << failures << " check(s) failed\n";
  return failures;
}

}  // namespace perfbench
