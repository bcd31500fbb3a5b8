// schema_static: rounds of Theorem 5 schema operations over
// bench::ArticleGrammar(k) on three threads, one of which first runs a
// select of the figure-followed-by-caption sibling query. serve, xml and
// Locate take no part.

#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>

#include "bench/bench_util.h"
#include "checks.h"
#include "schema/schema.h"
#include "schema/transform.h"
#include "workloads.h"

namespace perfbench {

namespace {

using hedgeq::hedge::Hedge;
using hedgeq::hedge::Vocabulary;
using hedgeq::query::SelectionQuery;
using hedgeq::schema::ContainmentResult;
using hedgeq::schema::Schema;

// Schema sizes: the article grammar widened with k paragraph flavors.
constexpr size_t kExtraParas[] = {0, 8, 16, 32};
constexpr size_t kGrammars = std::size(kExtraParas);

// Path queries whose output schemas are built at every k. (A subhedge
// condition such as title<$#text> makes SelectOutputSchema exponential in
// k: 0.15 s at k=0, 25 s at k=16.)
constexpr const char* kPathQueries[] = {
    "select(*; figure (section|article)*)",
    "select(*; para section section (section|article)*)",
};
constexpr size_t kPaths = std::size(kPathQueries);

// Containment pairs decided under ArticleGrammar(0), with the verdict
// known from the grammar: every caption holds text, every figure an image.
struct Pair {
  const char* q1;
  const char* q2;
  bool contained;
};
constexpr Pair kPairs[] = {
    {"select(*; figure section article)", "select(*; figure (section|article)*)",
     true},
    {"select(*; figure (section|article)*)", "select(*; figure section article)",
     false},
    {"select(image; figure (section|article)*)",
     "select(*; figure (section|article)*)", true},
    {"select(*; caption (section|article)*)",
     "select($#text; caption (section|article)*)", true},
    {"select(*; para section section article)",
     "select(*; para section article)", false},
    {"select(*; table section+ article)", "select(*; table (section|article)*)",
     true},
};
constexpr size_t kNumPairs = std::size(kPairs);

constexpr size_t kSamplesPerGrammar = 4;
constexpr size_t kSampleNodes = 400;
// Set-up ends with one untimed round, so that work a later version moves
// from the operations into a first call or a precomputation shows in
// setup_s. It takes about 55 ms on three threads; the median of several is
// steadier.
constexpr int kSchemaSetupReps = 25;
// Threads that run rounds at once in the timed phase. On a shared host one
// thread alone ran at one speed for tens of seconds and 1.5 times as fast
// for the next; three threads running the same rounds kept an even pace
// (perfbench/README.md, "Steadiness").
constexpr size_t kSchemaThreads = 3;

/// Grammars, queries and seeded sample documents.
struct SchemaInputs {
  Vocabulary vocab;
  std::vector<Schema> grammars;
  std::vector<SelectionQuery> paths;
  std::vector<std::pair<SelectionQuery, SelectionQuery>> pairs;
  std::optional<SelectionQuery> sibling;
  std::vector<std::vector<Hedge>> samples;  // per grammar
};

std::unique_ptr<SchemaInputs> SetUp(const RunOptions& o, Outcome* out) {
  auto in = std::make_unique<SchemaInputs>();
  bool parsed_all = true;
  auto parse = [&](const char* text) {
    auto q = hedgeq::query::ParseSelectionQuery(text, in->vocab);
    if (q.ok()) return std::move(*q);
    out->Fail(std::string("bad query ") + text);
    parsed_all = false;
    return *hedgeq::query::ParseSelectionQuery("select(*; article)", in->vocab);
  };
  for (size_t k : kExtraParas) {
    auto g = hedgeq::schema::ParseSchema(hedgeq::bench::ArticleGrammar(k),
                                         in->vocab);
    if (!g.ok()) {
      out->Fail("grammar " + std::to_string(k) + ": " + g.status().ToString());
      return nullptr;
    }
    in->grammars.push_back(std::move(*g));
  }
  for (const char* text : kPathQueries) in->paths.push_back(parse(text));
  for (const Pair& p : kPairs) {
    in->pairs.push_back({parse(p.q1), parse(p.q2)});
  }
  if (!parsed_all) return nullptr;
  in->sibling = hedgeq::bench::FigureCaptionQuery(in->vocab);
  for (size_t g = 0; g < kGrammars; ++g) {
    in->samples.emplace_back();
    for (size_t i = 0; i < kSamplesPerGrammar; ++i) {
      hedgeq::Rng rng(o.seed * 1000003 + g * 101 + i);
      Hedge doc =
          ConformingArticle(rng, in->vocab, kExtraParas[g], kSampleNodes);
      if (!in->grammars[g].Validates(doc)) {
        out->Fail("sample document " + std::to_string(i) + " for k=" +
                  std::to_string(kExtraParas[g]) +
                  " is not valid for its grammar");
        return nullptr;
      }
      in->samples[g].push_back(std::move(doc));
    }
  }
  return in;
}

/// One schema operation and what it produced. After the first round only
/// a fingerprint of an output schema (and the bare verdict) is kept, so
/// that peak_rss_mb measures the program rather than stored outputs.
struct Op {
  enum Kind { kSelect, kDelete, kContainment, kSibling } kind;
  size_t grammar = 0;  // index into kExtraParas
  size_t index = 0;    // path query or pair
  double ms = 0;
  bool ok = false;
  std::optional<Schema> schema;
  std::optional<ContainmentResult> verdict;
  std::pair<size_t, size_t> fingerprint{};  // output states, rules

  void Slim() {
    schema.reset();
    if (verdict) verdict->counterexample.reset();
  }
};

/// `layer_calls` adds the public calls a replay times on their own (the
/// match-identifying product); the timed workload makes only the operation.
Op RunOp(const SchemaInputs& in, Op::Kind kind, size_t grammar, size_t index,
         Trace& trace, bool layer_calls) {
  Op op{kind, grammar, index};
  const Clock::time_point start = Clock::now();
  switch (kind) {
    case Op::kSelect:
    case Op::kDelete: {
      const Schema& g = in.grammars[grammar];
      const SelectionQuery& q = in.paths[index];
      if (layer_calls) {
        trace.Time("schema.match_identify", 1, [&] {
          return hedgeq::schema::BuildMatchIdentifyingProduct(g, q).ok();
        });
      }
      const Clock::time_point op_start = Clock::now();
      auto schema = trace.Time(
          kind == Op::kSelect ? "schema.select_output" : "schema.delete_output",
          1, [&] {
            return kind == Op::kSelect
                       ? hedgeq::schema::SelectOutputSchema(g, q)
                       : hedgeq::schema::DeleteOutputSchema(g, q);
          });
      op.ms = SecondsBetween(op_start, Clock::now()) * 1e3;
      op.ok = schema.ok();
      if (op.ok) {
        op.fingerprint = {schema->nha().num_states(),
                          schema->nha().rules().size()};
        op.schema = std::move(*schema);
      }
      return op;
    }
    case Op::kContainment: {
      auto verdict = trace.Time("schema.containment", 1, [&] {
        return hedgeq::schema::QueryContainment(
            in.grammars[0], in.pairs[index].first, in.pairs[index].second);
      });
      op.ok = verdict.ok();
      if (op.ok) op.verdict = std::move(*verdict);
      break;
    }
    case Op::kSibling: {
      auto schema = trace.Time("schema.sibling_select_output", 1, [&] {
        return hedgeq::schema::SelectOutputSchema(in.grammars[0], *in.sibling);
      });
      op.ok = schema.ok();
      if (op.ok) {
        trace.Count("schema.output_states",
                    static_cast<double>(schema->nha().num_states()));
        op.schema = std::move(*schema);
      }
      break;
    }
  }
  op.ms = SecondsBetween(start, Clock::now()) * 1e3;
  return op;
}

/// One round: select and delete output schemas of every path query at
/// every k, then every containment pair.
void RunRound(const SchemaInputs& in, Trace& trace, bool layer_calls,
              std::vector<Op>* ops) {
  for (size_t g = 0; g < kGrammars; ++g) {
    for (size_t q = 0; q < kPaths; ++q) {
      ops->push_back(RunOp(in, Op::kSelect, g, q, trace, layer_calls));
      ops->push_back(RunOp(in, Op::kDelete, g, q, trace, layer_calls));
    }
  }
  for (size_t p = 0; p < kNumPairs; ++p) {
    ops->push_back(RunOp(in, Op::kContainment, 0, p, trace, layer_calls));
  }
}

/// Checks every operation's output against the samples.
void CheckOps(const SchemaInputs& in, const std::vector<Op>& ops,
              Outcome* out) {
  // Located nodes per (grammar, path query, sample), by the naive
  // evaluator; the sibling query on the k = 0 samples.
  std::vector<std::vector<std::vector<std::vector<bool>>>> located(kGrammars);
  for (size_t g = 0; g < kGrammars; ++g) {
    for (size_t q = 0; q < kPaths; ++q) {
      const hedgeq::query::NaiveSelectionEvaluator naive(in.paths[q]);
      located[g].emplace_back();
      for (const Hedge& doc : in.samples[g]) {
        located[g][q].push_back(naive.Locate(doc));
      }
    }
  }
  std::vector<std::vector<bool>> sibling_located;
  std::vector<std::string> contained(kNumPairs);
  std::vector<bool> contained_done(kNumPairs, false);
  // Fingerprints of the fully checked outputs, per (kind, grammar, query).
  std::map<std::tuple<int, size_t, size_t>, std::pair<size_t, size_t>> checked;
  for (const Op& op : ops) {
    if (!op.ok) continue;  // counted as failed
    std::string why;
    const auto key = std::tuple{static_cast<int>(op.kind), op.grammar, op.index};
    if ((op.kind == Op::kSelect || op.kind == Op::kDelete) && !op.schema) {
      auto it = checked.find(key);
      if (it == checked.end() || it->second != op.fingerprint) {
        out->Fail("output schema differs from the one checked in round 1");
      }
      continue;
    }
    if (op.schema) checked[key] = op.fingerprint;
    switch (op.kind) {
      case Op::kSelect:
        why = CheckSelectOutput(*op.schema, in.samples[op.grammar],
                                located[op.grammar][op.index]);
        break;
      case Op::kDelete:
        why = CheckDeleteOutput(*op.schema, in.samples[op.grammar],
                                located[op.grammar][op.index]);
        break;
      case Op::kContainment: {
        const Pair& pair = kPairs[op.index];
        const auto& [q1, q2] = in.pairs[op.index];
        if (op.verdict->contained != pair.contained) {
          why = "verdict differs from the one the grammar implies";
        } else if (!op.verdict->contained) {
          if (op.verdict->counterexample) {  // kept from the first round
            why = CheckSeparated(in.grammars[0], q1, q2, *op.verdict);
          }
        } else {
          if (!contained_done[op.index]) {
            contained[op.index] = CheckContained(q1, q2, in.samples[0]);
            contained_done[op.index] = true;
          }
          why = contained[op.index];
        }
        if (!why.empty()) why = std::string(pair.q1) + " vs " + pair.q2 + ": " + why;
        break;
      }
      case Op::kSibling:
        if (sibling_located.empty()) {
          const hedgeq::query::NaiveSelectionEvaluator naive(*in.sibling);
          for (const Hedge& doc : in.samples[0]) {
            sibling_located.push_back(naive.Locate(doc));
          }
        }
        why = CheckSelectOutput(*op.schema, in.samples[0], sibling_located);
        break;
    }
    if (!why.empty()) out->Fail(why);
  }
}

/// Runs fn(t) for t = 0 .. kSchemaThreads - 1, each on its own thread,
/// waits for all of them, and then rethrows the first exception one threw.
template <typename Fn>
void OnThreads(Fn fn) {
  std::vector<std::exception_ptr> errors(kSchemaThreads);
  std::vector<std::thread> threads;
  try {
    for (size_t t = 0; t < kSchemaThreads; ++t) {
      threads.emplace_back([&fn, &errors, t] {
        try {
          fn(t);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
  } catch (...) {  // a thread could not start: join those that did
    for (std::thread& thread : threads) thread.join();
    throw;
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

Outcome RunTimed(const RunOptions& o) {
  Outcome out;
  // Each thread has inputs of its own (the same ones), so that the threads
  // share no object, not even a reference count.
  std::vector<std::unique_ptr<SchemaInputs>> in(kSchemaThreads);
  std::vector<Outcome> set_up(kSchemaThreads);
  std::vector<double> setups;
  Trace off(false);
  for (int rep = 0; rep < kSchemaSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    OnThreads([&](size_t t) {
      in[t] = SetUp(o, &set_up[t]);
      std::vector<Op> warm;
      if (in[t]) RunRound(*in[t], off, false, &warm);
    });
    setups.push_back(SecondsBetween(start, Clock::now()));
    for (size_t t = 0; t < kSchemaThreads; ++t) {
      if (!in[t]) return set_up[t];
    }
  }

  // Every thread runs whole rounds until the time is up; thread 0 first
  // runs the sibling select, which lasts seconds, while the others start
  // their rounds. The figures are those of the whole phase.
  std::vector<std::vector<Op>> ops(kSchemaThreads);
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  OnThreads([&](size_t t) {
    if (t == 0) ops[t].push_back(RunOp(*in[t], Op::kSibling, 0, 0, off, false));
    size_t rounds = 0;
    do {
      const size_t first = ops[t].size();
      RunRound(*in[t], off, false, &ops[t]);
      if (rounds++ > 0) {
        for (size_t i = first; i < ops[t].size(); ++i) ops[t][i].Slim();
      }
    } while (SecondsBetween(t0, Clock::now()) < o.seconds);
  });
  const double phase_s = SecondsBetween(t0, Clock::now());
  const double cpu_ms = (ProcessCpuSeconds() - cpu0) * 1e3;
  const double rss = PeakRssMb();

  std::vector<double> latencies;
  for (const std::vector<Op>& thread_ops : ops) {
    for (const Op& op : thread_ops) {
      latencies.push_back(op.ms);
      ++out.attempted;
      if (!op.ok) ++out.failed;
    }
  }
  const double n = static_cast<double>(out.attempted);
  LogSetups(setups);
  out.Add("setup_s", Median(setups), "s");
  out.Add("throughput_ops", n / phase_s, "1/s");
  out.Add("latency_p50_ms", Quantile(latencies, 0.5), "ms");
  out.Add("latency_p90_ms", Quantile(latencies, 0.9), "ms");
  out.Add("cpu_ms_per_op", cpu_ms / n, "ms");
  out.Add("peak_rss_mb", rss, "MiB");
  std::cerr << "operations " << out.attempted << " on " << kSchemaThreads
            << " threads in " << phase_s << " s; latency p99 "
            << Quantile(latencies, 0.99) << " ms; sibling select "
            << ops[0][0].ms << " ms\n";
  for (size_t t = 0; t < kSchemaThreads; ++t) CheckOps(*in[t], ops[t], &out);
  return out;
}

Outcome RunTraced(const RunOptions& o) {
  Outcome out;
  std::unique_ptr<SchemaInputs> in = SetUp(o, &out);
  if (!in) return out;
  // Untraced rounds for half the run fix the count; the traced replay
  // repeats exactly that many. The sibling select runs once, traced.
  Trace off(false);
  std::vector<Op> untraced_ops;
  const Clock::time_point t0 = Clock::now();
  size_t rounds = 0;
  do {
    RunRound(*in, off, true, &untraced_ops);
    ++rounds;
  } while (SecondsBetween(t0, Clock::now()) < o.seconds / 2);
  const double untraced = SecondsBetween(t0, Clock::now());
  Trace trace(true);
  std::vector<Op> ops;
  const Clock::time_point t1 = Clock::now();
  for (size_t r = 0; r < rounds; ++r) RunRound(*in, trace, true, &ops);
  const double traced = SecondsBetween(t1, Clock::now());
  ops.push_back(RunOp(*in, Op::kSibling, 0, 0, trace, true));
  std::cerr << "replay rounds " << rounds << ": untraced " << untraced
            << " s, traced " << traced << " s\n";

  AddPerLayerMetrics(trace, {}, (traced - untraced) / untraced * 100, &out);
  if (!o.trace_file.empty()) trace.WriteJsonl(o.trace_file);
  for (const Op& op : ops) {
    ++out.attempted;
    if (!op.ok) ++out.failed;
  }
  CheckOps(*in, ops, &out);
  return out;
}

}  // namespace

Outcome RunSchemaStatic(const RunOptions& options) {
  return options.trace ? RunTraced(options) : RunTimed(options);
}

}  // namespace perfbench
