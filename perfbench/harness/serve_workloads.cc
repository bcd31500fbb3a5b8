// The three serving workloads: large_doc, small_doc and cold_churn. Each
// drives serve::Engine from one submitting thread in a closed loop that
// keeps a fixed number of requests outstanding and collects responses in
// submission order; latency runs from Submit to the moment the client
// holds the resolved future.

#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "automata/determinize.h"
#include "cache/cache.h"
#include "checks.h"
#include "hre/compile.h"
#include "query/evaluator.h"
#include "query/phr_compile.h"
#include "query/selection.h"
#include "queries.h"
#include "serve/serve.h"
#include "workload/generators.h"
#include "workloads.h"
#include "xml/xml.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using hedgeq::hedge::Hedge;
using hedgeq::hedge::NodeId;
using hedgeq::hedge::Vocabulary;
namespace serve = hedgeq::serve;
namespace query = hedgeq::query;

// Set-up is repeated and its median reported, so that one slow set-up
// (page faults, a neighbour's burst) does not become the figure. Short
// set-ups are repeated more often.
constexpr int kChurnSetupReps = 7;

double MsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now()) * 1e3;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

std::vector<size_t> Shuffled(size_t n, hedgeq::Rng& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
  return order;
}

/// A generated article: the checker's own tree, and the XML file the
/// program is given.
struct Article {
  Hedge tree;
  std::string path;
  std::string xml;
};

Article MakeArticle(Vocabulary& vocab, size_t nodes, size_t max_depth,
                    uint64_t seed, const std::string& path) {
  hedgeq::Rng rng(seed);
  hedgeq::workload::ArticleOptions options;
  options.target_nodes = nodes;
  options.max_section_depth = max_depth;
  Article article;
  article.tree = hedgeq::workload::RandomArticle(rng, vocab, options);
  article.xml = hedgeq::xml::SerializeXml(
      hedgeq::xml::WrapHedge(article.tree, vocab), vocab);
  article.path = path;
  WriteFile(path, article.xml);
  return article;
}

/// The program under test: a serving engine over its own vocabulary.
struct Server {
  explicit Server(size_t workers) : vocab(std::make_unique<Vocabulary>()) {
    serve::EngineOptions options;
    options.workers = workers;
    engine = std::make_unique<serve::Engine>(*vocab, options);
  }
  std::unique_ptr<Vocabulary> vocab;  // outlives the engine
  std::unique_ptr<serve::Engine> engine;
};

struct Sample {
  size_t query = 0;
  size_t doc = 0;
  double latency_ms = 0;
  uint64_t hash = 0;
  size_t lines = 0;
  serve::Outcome outcome = serve::Outcome::kError;
  uint64_t queue_wait_us = 0;
};

/// One client with a fixed window of outstanding requests.
class ClosedLoop {
 public:
  ClosedLoop(serve::Engine& engine, size_t window, bool keep_answers)
      : engine_(engine), window_(window), keep_answers_(keep_answers) {}

  void Submit(const std::string& text, size_t query, size_t doc) {
    while (pending_.size() >= window_) CollectOldest();
    pending_.push_back({engine_.Submit(text), Clock::now(), query, doc});
  }
  void Drain() {
    while (!pending_.empty()) CollectOldest();
  }
  const std::vector<Sample>& samples() const { return samples_; }
  /// The first answer seen per (query, doc), for failure reports.
  const std::vector<std::string>* answer(size_t query, size_t doc) const {
    auto it = answers_.find({query, doc});
    return it == answers_.end() ? nullptr : &it->second;
  }

 private:
  struct Pending {
    std::future<serve::Response> future;
    Clock::time_point submitted;
    size_t query;
    size_t doc;
  };
  void CollectOldest() {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    serve::Response r = p.future.get();
    Sample s;
    s.query = p.query;
    s.doc = p.doc;
    s.latency_ms = MsSince(p.submitted);
    s.hash = HashLines(r.answer);
    s.lines = r.answer.size();
    s.outcome = r.outcome;
    s.queue_wait_us = r.queue_wait_us;
    samples_.push_back(s);
    if (keep_answers_) {
      answers_.try_emplace(std::pair{p.query, p.doc}, std::move(r.answer));
    }
  }

  serve::Engine& engine_;
  size_t window_;
  bool keep_answers_;
  std::deque<Pending> pending_;
  std::vector<Sample> samples_;
  std::map<std::pair<size_t, size_t>, std::vector<std::string>> answers_;
};

/// The end-to-end metrics of a serving run, in BENCHMARK.json order.
void AddServeMetrics(const std::vector<double>& setups,
                     const std::vector<Sample>& samples, double wall_s,
                     const Slices& slices, double rss_mb, Outcome* out) {
  std::vector<double> latencies;
  for (const Sample& s : samples) {
    latencies.push_back(s.latency_ms);
    ++out->attempted;
    if (s.outcome != serve::Outcome::kOk) ++out->failed;
  }
  LogSetups(setups);
  slices.LogRates();
  out->Add("setup_s", Median(setups), "s");
  out->Add("throughput_ops", slices.MedianOpsPerSecond(), "1/s");
  out->Add("latency_p50_ms", slices.MedianQuantile(latencies, 0.5), "ms");
  out->Add("latency_p90_ms", slices.MedianQuantile(latencies, 0.9), "ms");
  out->Add("cpu_ms_per_op", slices.MedianCpuMsPerOp(), "ms");
  out->Add("peak_rss_mb", rss_mb, "MiB");
  std::cerr << "requests " << samples.size() << " in " << wall_s << " s ("
            << samples.size() / wall_s << "/s over the whole phase, "
            << slices.count() << " slices); latency p99 "
            << Quantile(latencies, 0.99) << " ms\n";
}

/// Compares every sample with the independently computed answer of its
/// (query, doc) pair.
void CheckSamples(const ClosedLoop& loop,
                  const std::map<std::pair<size_t, size_t>,
                                 std::vector<std::string>>& expected,
                  const std::vector<std::string>& texts, Outcome* out) {
  std::map<std::pair<size_t, size_t>, uint64_t> hashes;
  for (const auto& [key, lines] : expected) hashes[key] = HashLines(lines);
  for (const Sample& s : loop.samples()) {
    if (s.outcome != serve::Outcome::kOk) {
      out->Fail("request for " + texts[s.query] + " ended " +
                serve::OutcomeName(s.outcome));
      continue;
    }
    const auto key = std::pair{s.query, s.doc};
    if (hashes.at(key) == s.hash) continue;
    const std::vector<std::string>* got = loop.answer(s.query, s.doc);
    out->Fail("wrong answer for " + texts[s.query] + ": " +
              (got != nullptr ? CompareAnswers(expected.at(key), *got)
                              : std::to_string(expected.at(key).size()) +
                                    " lines expected, " +
                                    std::to_string(s.lines) + " got"));
  }
}

// ---------------------------------------------------------------------
// large_doc and small_doc: a fixed set of memoized queries on one document.

struct FixedShape {
  size_t doc_nodes;
  size_t max_depth;     // section nesting of the generated article
  size_t workers;
  size_t window;
  int setup_reps;
  bool small_document;  // checked with the naive evaluator
  std::vector<QuerySpec> specs;
};

std::vector<std::string> Texts(const std::vector<QuerySpec>& specs) {
  std::vector<std::string> texts;
  for (const QuerySpec& s : specs) texts.push_back(s.Text());
  return texts;
}

std::map<std::pair<size_t, size_t>, std::vector<std::string>> ExpectedFixed(
    const FixedShape& shape, const Hedge& tree, Vocabulary& vocab) {
  std::map<std::pair<size_t, size_t>, std::vector<std::string>> expected;
  for (size_t q = 0; q < shape.specs.size(); ++q) {
    const QuerySpec& spec = shape.specs[q];
    expected[{q, 0}] = AnswerLines(
        tree,
        ExpectedLocated(spec, MethodFor(spec, shape.small_document), tree,
                        vocab),
        vocab);
  }
  return expected;
}

/// The program's answer lines for located node ids, formatted by the
/// checker's own walk.
std::vector<std::string> LinesOf(const Hedge& doc,
                                 const std::vector<NodeId>& nodes,
                                 const Vocabulary& vocab) {
  std::vector<bool> located(doc.num_nodes(), false);
  for (NodeId n : nodes) located[n] = true;
  return AnswerLines(doc, located, vocab);
}

Outcome RunFixedTimed(const RunOptions& o, const FixedShape& shape) {
  Outcome out;
  const std::vector<std::string> texts = Texts(shape.specs);
  Vocabulary check_vocab;
  Article article;
  std::unique_ptr<Server> server;
  std::vector<double> setups;
  for (int rep = 0; rep < shape.setup_reps; ++rep) {
    server.reset();
    const Clock::time_point start = Clock::now();
    article = MakeArticle(check_vocab, shape.doc_nodes, shape.max_depth, o.seed,
                          o.work_dir + "/doc.xml");
    server = std::make_unique<Server>(o.workers ? o.workers : shape.workers);
    server->engine->Start();
    auto loaded = server->engine->LoadDocumentFile(article.path);
    if (!loaded.ok()) {
      out.Fail("load failed: " + loaded.status().ToString());
      return out;
    }
    for (const std::string& text : texts) {  // fills the engine's memo
      serve::Response r = server->engine->Submit(text).get();
      if (r.outcome != serve::Outcome::kOk) {
        out.Fail("memoizing " + text + " ended " +
                 serve::OutcomeName(r.outcome) + ": " + r.status.ToString());
      }
    }
    setups.push_back(SecondsBetween(start, Clock::now()));
  }

  ClosedLoop loop(*server->engine, shape.window, /*keep_answers=*/true);
  hedgeq::Rng order_rng(o.seed * 0x9E3779B97F4A7C15ULL + 1);
  Slices slices;
  slices.Start(0);
  const Clock::time_point t0 = Clock::now();
  do {  // whole rounds: every query once, in a seeded order
    for (size_t q : Shuffled(texts.size(), order_rng)) {
      loop.Submit(texts[q], q, 0);
    }
    slices.RoundEnd(loop.samples().size());
  } while (SecondsBetween(t0, Clock::now()) < o.seconds);
  loop.Drain();
  slices.Finish(loop.samples().size());
  const double wall = SecondsBetween(t0, Clock::now());
  const double rss = PeakRssMb();
  server.reset();

  AddServeMetrics(setups, loop.samples(), wall, slices, rss, &out);
  const auto expected = ExpectedFixed(shape, article.tree, check_vocab);
  for (size_t q = 0; q < texts.size(); ++q) {
    std::cerr << "query " << q << " locates " << expected.at({q, 0}).size()
              << " of " << article.tree.num_nodes() << " nodes\n";
  }
  CheckSamples(loop, expected, texts, &out);
  return out;
}

/// The program-side state of a traced replay: the parsed document and one
/// evaluator per query, all over the replay's own vocabulary.
struct FixedReplay {
  Vocabulary vocab;
  hedgeq::xml::XmlDocument doc;
  std::vector<query::SelectionEvaluator> evals;
  std::vector<std::vector<std::string>> answers;  // per query, first round
};

/// Parses the document and compiles every query, then runs rounds of
/// every query through each layer's public call: `*rounds` of them, or
/// until `budget_s` has passed when *rounds is 0 (then *rounds is set to
/// the count run). Returns the wall time.
double ReplayFixed(Trace& trace, const std::string& xml_text,
                   const std::vector<std::string>& texts, double budget_s,
                   size_t* rounds, FixedReplay* state, Outcome* out) {
  const Clock::time_point start = Clock::now();
  auto parsed = hedgeq::xml::ParseXml(xml_text, state->vocab);
  if (!parsed.ok()) {
    out->Fail("parse failed: " + parsed.status().ToString());
    return 0;
  }
  trace.Record("xml.parse", start, Clock::now(),
               static_cast<double>(parsed->hedge.num_nodes()));
  state->doc = std::move(*parsed);
  const Hedge& doc = state->doc.hedge;
  const double nodes = static_cast<double>(doc.num_nodes());
  for (const std::string& text : texts) {
    auto q = trace.Time("query.parse", 1, [&] {
      return query::ParseSelectionQuery(text, state->vocab);
    });
    auto eval = trace.Time("query.create", 1, [&] {
      return query::SelectionEvaluator::Create(*q);
    });
    if (!eval.ok() || eval->fallback_used() ||
        eval->phr_evaluator().compiled() == nullptr) {
      out->Fail("no eager evaluator for " + text);
      return 0;
    }
    trace.Count("query.phr_classes",
                eval->phr_evaluator().compiled()->num_classes());
    state->evals.push_back(std::move(*eval));
  }
  const bool timed = *rounds == 0;
  for (size_t round = 0; timed ? SecondsBetween(start, Clock::now()) < budget_s
                               : round < *rounds;
       ++round) {
    if (timed) *rounds = round + 1;
    for (size_t i = 0; i < texts.size(); ++i) {
      trace.set_request(round * texts.size() + i + 1);
      trace.Time("query.parse", 1, [&] {
        return query::ParseSelectionQuery(texts[i], state->vocab);
      });
      const query::SelectionEvaluator& eval = state->evals[i];
      const query::CompiledPhr& compiled = *eval.phr_evaluator().compiled();
      auto states = trace.Time("automata.dha_run", nodes,
                               [&] { return compiled.dha().Run(doc); });
      trace.Time("query.sibling_classes", nodes, [&] {
        return query::ComputeSiblingClasses(doc, states, compiled.equiv());
      });
      trace.Time("query.locate", nodes,
                 [&] { return eval.phr_evaluator().Locate(doc); });
      auto located = trace.Time("query.located_nodes", nodes,
                                [&] { return eval.LocatedNodes(doc); });
      trace.Time("hedge.dewey", static_cast<double>(located.size()), [&] {
        size_t steps = 0;
        for (NodeId n : located) steps += doc.DeweyOf(n).size();
        return steps;
      });
      if (round == 0) state->answers.push_back(LinesOf(doc, located, state->vocab));
    }
  }
  trace.set_request(0);
  return SecondsBetween(start, Clock::now());
}

/// serve.queue_wait_us_p50 under the workload's window, and
/// serve.request_overhead_us: latency with one request outstanding minus
/// LocatedNodes on the same query and document.
void MeasureServeLayer(const FixedShape& shape, const Article& article,
                       const std::vector<std::string>& texts,
                       const FixedReplay& replay, size_t rounds,
                       std::map<std::string, double>* extra, Outcome* out) {
  Server server(shape.workers);
  server.engine->Start();
  if (!server.engine->LoadDocumentFile(article.path).ok()) {
    out->Fail("load failed");
    return;
  }
  for (const std::string& text : texts) server.engine->Submit(text).get();

  ClosedLoop loaded(*server.engine, shape.window, false);
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t q = 0; q < texts.size(); ++q) loaded.Submit(texts[q], q, 0);
  }
  loaded.Drain();
  std::vector<double> waits;
  for (const Sample& s : loaded.samples()) {
    waits.push_back(static_cast<double>(s.queue_wait_us));
  }
  (*extra)["serve.queue_wait_us_p50"] = Median(waits);

  double overhead_us = 0;
  size_t sink = 0;
  for (size_t q = 0; q < texts.size(); ++q) {
    std::vector<double> served, direct;
    for (size_t r = 0; r < rounds; ++r) {
      const Clock::time_point start = Clock::now();
      server.engine->Submit(texts[q]).get();
      served.push_back(MsSince(start) * 1e3);
      const Clock::time_point direct_start = Clock::now();
      sink += replay.evals[q].LocatedNodes(replay.doc.hedge).size();
      direct.push_back(MsSince(direct_start) * 1e3);
    }
    overhead_us += Median(served) - Median(direct);
  }
  (*extra)["serve.request_overhead_us"] =
      overhead_us / static_cast<double>(texts.size());
  if (sink == 0) std::cerr << "no node located by any query\n";
}

Outcome RunFixedTraced(const RunOptions& o, const FixedShape& shape) {
  Outcome out;
  const std::vector<std::string> texts = Texts(shape.specs);
  Vocabulary check_vocab;
  const Article article = MakeArticle(check_vocab, shape.doc_nodes,
                                      shape.max_depth, o.seed,
                                      o.work_dir + "/doc.xml");
  // Untraced first, for half the run: it fixes the number of rounds, and
  // the traced replay repeats exactly that work.
  Trace off(false);
  size_t rounds = 0;
  FixedReplay untraced_state;
  const double untraced = ReplayFixed(off, article.xml, texts, o.seconds / 2,
                                      &rounds, &untraced_state, &out);
  Trace trace(true);
  FixedReplay traced_state;
  const double traced = ReplayFixed(trace, article.xml, texts, 0, &rounds,
                                    &traced_state, &out);
  std::cerr << "replay rounds " << rounds << ": untraced " << untraced
            << " s, traced " << traced << " s\n";

  std::map<std::string, double> extra;
  MeasureServeLayer(shape, article, texts, traced_state, 3, &extra, &out);
  AddPerLayerMetrics(trace, extra, (traced - untraced) / untraced * 100, &out);
  if (!o.trace_file.empty()) trace.WriteJsonl(o.trace_file);

  // The replay's answers, checked like the served ones.
  const auto expected = ExpectedFixed(shape, article.tree, check_vocab);
  out.attempted = rounds * texts.size();
  for (size_t q = 0; q < texts.size(); ++q) {
    const std::string diff =
        q < traced_state.answers.size()
            ? CompareAnswers(expected.at({q, 0}), traced_state.answers[q])
            : "no answer";
    if (!diff.empty()) out.Fail("wrong answer for " + texts[q] + ": " + diff);
  }
  return out;
}

FixedShape LargeDocShape() {
  return {200000, 8, 2, 4, 7, false, LargeDocQueries()};
}

// Two workers, not three: with the submitting thread that makes four busy
// threads on a 4-CPU machine, and under hypervisor steal a preempted lock
// holder then stalls the rest (10 runs at three workers spread 70% in
// throughput). Four outstanding keep two requests queued; eight only
// doubled the latency, and its tail with it.
FixedShape SmallDocShape() {
  return {2000, 4, 2, 4, 15, true, SmallDocQueries()};
}

// ---------------------------------------------------------------------
// cold_churn: every query text distinct, compiled through the on-disk
// certificate cache, with document swaps between rounds.

constexpr size_t kChurnDocs = 3;
constexpr size_t kChurnDocNodes = 20000;
constexpr size_t kChurnSwapPeriod = ChurnQueries::kRound;  // then a swap
constexpr size_t kChurnWorkers = 2;
constexpr size_t kChurnWindow = 4;
// peak_rss_mb is read after this many rounds (or at the end of a shorter
// run): the memo grows with every query, so a reading at the end of the
// phase would measure speed as much as memory.
constexpr size_t kChurnRssRounds = 8;

std::vector<Article> MakeChurnDocs(Vocabulary& vocab, const RunOptions& o) {
  std::vector<Article> docs;
  for (size_t i = 0; i < kChurnDocs; ++i) {
    docs.push_back(MakeArticle(vocab, kChurnDocNodes, 4, o.seed * 31 + i,
                               o.work_dir + "/churn" + std::to_string(i) +
                                   ".xml"));
  }
  return docs;
}

std::unique_ptr<hedgeq::cache::AutomatonCache> OpenCache(
    const std::string& dir, Vocabulary* vocab, Outcome* out) {
  fs::remove_all(dir);
  auto cache = hedgeq::cache::AutomatonCache::Open(dir);
  if (!cache.ok()) {
    out->Fail("cache open failed: " + cache.status().ToString());
    return nullptr;
  }
  (*cache)->BindVocabulary(vocab);
  return std::move(*cache);
}

/// Compiles a seeded half of the stream's first two rounds through the
/// installed cache, one of the two texts of each round slot, so those
/// entries (and every later text that shares one of their automata) start
/// warm.
void Prefill(Vocabulary& vocab, uint64_t seed, Outcome* out) {
  ChurnQueries stream(seed);
  std::vector<std::vector<std::string>> by_slot(ChurnQueries::kRound);
  for (size_t i = 0; i < 2 * ChurnQueries::kRound; ++i) {
    const std::string text = stream.Next().Text();
    by_slot[stream.last_slot()].push_back(text);
  }
  hedgeq::Rng pick(seed ^ 0xC0FFEEULL);
  for (const std::vector<std::string>& texts : by_slot) {
    const std::string& text = texts[pick.Below(texts.size())];
    auto q = query::ParseSelectionQuery(text, vocab);
    if (!q.ok() || !query::SelectionEvaluator::Create(*q).ok()) {
      out->Fail("prefill failed for " + text);
    }
  }
}

/// Checks each churn answer against the walk (or XPath) on its document.
void CheckChurn(const std::vector<Sample>& samples,
                const std::vector<QuerySpec>& asked,
                const std::vector<Article>& docs, Vocabulary& vocab,
                Outcome* out) {
  for (const Sample& s : samples) {
    const QuerySpec& spec = asked[s.query];
    if (s.outcome != serve::Outcome::kOk) {
      out->Fail("request for " + spec.Text() + " ended " +
                serve::OutcomeName(s.outcome));
      continue;
    }
    const Hedge& tree = docs[s.doc].tree;
    const std::vector<std::string> expected = AnswerLines(
        tree, ExpectedLocated(spec, MethodFor(spec, false), tree, vocab),
        vocab);
    if (HashLines(expected) != s.hash) {
      out->Fail("wrong answer (" + std::string(MethodName(MethodFor(spec, false))) +
                " check) for " + spec.Text() + " on document " +
                std::to_string(s.doc) + ": " +
                std::to_string(expected.size()) + " lines expected, " +
                std::to_string(s.lines) + " got");
    }
  }
}

Outcome RunColdChurnTimed(const RunOptions& o) {
  Outcome out;
  Vocabulary check_vocab;
  std::vector<Article> docs;
  std::unique_ptr<Server> server;
  std::unique_ptr<hedgeq::cache::AutomatonCache> cache;
  std::vector<double> setups;
  for (int rep = 0; rep < kChurnSetupReps; ++rep) {
    if (server) server->engine->Stop();
    hedgeq::automata::SetDeterminizeCache(nullptr);
    server.reset();
    cache.reset();
    const Clock::time_point start = Clock::now();
    docs = MakeChurnDocs(check_vocab, o);
    server = std::make_unique<Server>(o.workers ? o.workers : kChurnWorkers);
    cache = OpenCache(o.work_dir + "/cache" + std::to_string(rep),
                      server->vocab.get(), &out);
    if (!cache) return out;
    hedgeq::automata::SetDeterminizeCache(cache.get());
    Prefill(*server->vocab, o.seed, &out);
    server->engine->Start();
    if (!server->engine->LoadDocumentFile(docs[0].path).ok()) {
      out.Fail("load failed");
      return out;
    }
    setups.push_back(SecondsBetween(start, Clock::now()));
  }

  ClosedLoop loop(*server->engine, kChurnWindow, /*keep_answers=*/false);
  ChurnQueries stream(o.seed);
  std::vector<QuerySpec> asked;
  size_t doc = 0;
  size_t rounds = 0;
  double rss = 0;
  Slices slices;
  slices.Start(0);
  const Clock::time_point t0 = Clock::now();
  do {  // whole rounds: kChurnSwapPeriod fresh queries, then a swap
    for (size_t i = 0; i < kChurnSwapPeriod; ++i) {
      asked.push_back(stream.Next());
      loop.Submit(asked.back().Text(), asked.size() - 1, doc);
    }
    loop.Drain();
    doc = (doc + 1) % docs.size();
    auto loaded = server->engine->LoadDocumentFile(docs[doc].path);
    if (!loaded.ok()) out.Fail("swap failed: " + loaded.status().ToString());
    slices.RoundEnd(loop.samples().size());
    if (++rounds == kChurnRssRounds) rss = PeakRssMb();
  } while (SecondsBetween(t0, Clock::now()) < o.seconds);
  slices.Finish(loop.samples().size());
  const double wall = SecondsBetween(t0, Clock::now());
  if (rss == 0) rss = PeakRssMb();
  server->engine->Stop();
  hedgeq::automata::SetDeterminizeCache(nullptr);
  std::cerr << "cache hits " << cache->stats().hits << ", misses "
            << cache->stats().misses << ", stores " << cache->stats().stores
            << "\n";
  server.reset();
  cache.reset();

  AddServeMetrics(setups, loop.samples(), wall, slices, rss, &out);
  CheckChurn(loop.samples(), asked, docs, check_vocab, &out);
  return out;
}

/// Times the cache hook's calls from outside. A determinize span runs from
/// an unscoped lookup that missed to the Store of its result: that is
/// Determinize's own construction. Scoped lookups and stores wrap a whole
/// CompilePhr, whose inner Determinize calls make their own unscoped
/// lookup/store pairs, so they are timed as cache calls only.
class TimedCache final : public hedgeq::automata::DeterminizeCache {
 public:
  TimedCache(hedgeq::automata::DeterminizeCache* inner, Trace* trace)
      : inner_(inner), trace_(trace) {}

  bool Lookup(const hedgeq::automata::Nha& input,
              hedgeq::automata::Determinized* out,
              hedgeq::automata::DeterminizeWitness* witness) override {
    const bool hit =
        TimedLookup([&] { return inner_->Lookup(input, out, witness); });
    constructing_ = trace_->enabled() && !hit;
    return hit;
  }
  void Store(const hedgeq::automata::Nha& input,
             const hedgeq::automata::Determinized& out,
             const hedgeq::automata::DeterminizeWitness& witness) override {
    if (constructing_) {
      trace_->Record("automata.determinize", miss_at_, Clock::now(), 1);
      trace_->Count("automata.dha_states", out.dha.num_states());
      constructing_ = false;
    }
    TimedStore([&] { inner_->Store(input, out, witness); });
  }
  bool LookupScoped(std::string_view key, const hedgeq::automata::Nha& input,
                    hedgeq::automata::Determinized* out,
                    hedgeq::automata::DeterminizeWitness* witness) override {
    return TimedLookup(
        [&] { return inner_->LookupScoped(key, input, out, witness); });
  }
  void StoreScoped(std::string_view key, const hedgeq::automata::Nha& input,
                   const hedgeq::automata::Determinized& out,
                   const hedgeq::automata::DeterminizeWitness& witness)
      override {
    TimedStore([&] { inner_->StoreScoped(key, input, out, witness); });
  }

 private:
  template <typename Fn>
  bool TimedLookup(Fn&& lookup) {
    if (!trace_->enabled()) return lookup();
    const Clock::time_point start = Clock::now();
    const bool hit = lookup();
    miss_at_ = Clock::now();
    trace_->Record("cache.lookup", start, miss_at_, 1);
    return hit;
  }
  template <typename Fn>
  void TimedStore(Fn&& store) {
    if (!trace_->enabled()) return store();
    const Clock::time_point start = Clock::now();
    store();
    trace_->Record("cache.store", start, Clock::now(), 1);
  }

  hedgeq::automata::DeterminizeCache* inner_;
  Trace* trace_;
  Clock::time_point miss_at_{};  // end of the last lookup
  bool constructing_ = false;    // the last unscoped lookup missed
};

struct ChurnReplayResult {
  double wall_s = 0;
  size_t rounds = 0;
  double hit_ratio = 0;
};

/// One traced (or untraced) replay of the churn stream on one thread:
/// every request's layers called one by one, a swap per round. Runs
/// `rounds` rounds, or until `budget_s` when rounds == 0.
ChurnReplayResult ReplayChurn(Trace& trace, const RunOptions& o,
                              const std::vector<Article>& docs,
                              Vocabulary& check_vocab,
                              const std::string& cache_dir, size_t rounds,
                              double budget_s, Outcome* out) {
  ChurnReplayResult result;
  Vocabulary vocab;
  auto cache = OpenCache(cache_dir, &vocab, out);
  if (!cache) return result;
  // Set-up, as in the timed run: the pre-fill is neither timed nor
  // counted in the hit ratio.
  hedgeq::automata::SetDeterminizeCache(cache.get());
  Prefill(vocab, o.seed, out);
  const hedgeq::cache::CacheStats prefill = cache->stats();
  TimedCache timed(cache.get(), &trace);
  hedgeq::automata::SetDeterminizeCache(&timed);
  // Never started: it only loads documents, the replay evaluates them.
  serve::Engine loader(vocab, serve::EngineOptions{});
  loader.LoadDocumentFile(docs[0].path);

  ChurnQueries stream(o.seed);
  std::vector<QuerySpec> asked;
  std::vector<Sample> samples;
  size_t doc = 0;
  const Clock::time_point start = Clock::now();
  while (rounds == 0 ? SecondsBetween(start, Clock::now()) < budget_s
                     : result.rounds < rounds) {
    const auto served = loader.document();
    const Hedge& hedge = served->hedge;
    const double nodes = static_cast<double>(hedge.num_nodes());
    for (size_t i = 0; i < kChurnSwapPeriod; ++i) {
      asked.push_back(stream.Next());
      const std::string text = asked.back().Text();
      trace.set_request(asked.size());
      Sample sample;
      sample.query = asked.size() - 1;
      sample.doc = doc;
      auto q = trace.Time("query.parse", 1, [&] {
        return query::ParseSelectionQuery(text, vocab);
      });
      if (!q.ok()) {
        ++out->failed;
        continue;
      }
      trace.Time("hre.compile", 1, [&] {
        size_t states = 0;
        if (q->subhedge) states += hedgeq::hre::CompileHre(q->subhedge).num_states();
        for (const auto& t : q->envelope.triplets()) {
          if (t.elder) states += hedgeq::hre::CompileHre(t.elder).num_states();
          if (t.younger) {
            states += hedgeq::hre::CompileHre(t.younger).num_states();
          }
        }
        return states;
      });
      auto eval = trace.Time("query.create", 1, [&] {
        return query::SelectionEvaluator::Create(*q);
      });
      if (!eval.ok() || eval->fallback_used()) {
        sample.outcome = serve::Outcome::kDegraded;
        samples.push_back(sample);
        continue;
      }
      trace.Count("query.phr_classes",
                  eval->phr_evaluator().compiled()->num_classes());
      {  // the Theorem 4 compile alone, cold: the cache hook is lifted
        hedgeq::automata::SetDeterminizeCache(nullptr);
        trace.Time("query.compile_phr", 1,
                   [&] { return query::CompilePhr(q->envelope); });
        hedgeq::automata::SetDeterminizeCache(&timed);
      }
      auto located = trace.Time("query.located_nodes", nodes,
                                [&] { return eval->LocatedNodes(hedge); });
      trace.Time("hedge.dewey", static_cast<double>(located.size()), [&] {
        size_t steps = 0;
        for (NodeId n : located) steps += hedge.DeweyOf(n).size();
        return steps;
      });
      const std::vector<std::string> lines = LinesOf(hedge, located, vocab);
      sample.hash = HashLines(lines);
      sample.lines = lines.size();
      sample.outcome = serve::Outcome::kOk;
      samples.push_back(sample);
    }
    trace.set_request(0);
    doc = (doc + 1) % docs.size();
    trace.Time("serve.load", 1,
               [&] { return loader.LoadDocumentFile(docs[doc].path); });
    trace.Time("xml.parse", static_cast<double>(kChurnDocNodes), [&] {
      return hedgeq::xml::ParseXml(docs[doc].xml, vocab);
    });
    ++result.rounds;
  }
  result.wall_s = SecondsBetween(start, Clock::now());
  hedgeq::automata::SetDeterminizeCache(nullptr);
  const auto& stats = cache->stats();
  const double hits = static_cast<double>(stats.hits - prefill.hits);
  const double lookups = hits + static_cast<double>(stats.misses - prefill.misses);
  result.hit_ratio = lookups > 0 ? hits / lookups : 0;

  out->attempted += samples.size();
  for (const Sample& s : samples) {
    if (s.outcome != serve::Outcome::kOk) ++out->failed;
  }
  CheckChurn(samples, asked, docs, check_vocab, out);
  return result;
}

Outcome RunColdChurnTraced(const RunOptions& o) {
  Outcome out;
  Vocabulary check_vocab;
  const std::vector<Article> docs = MakeChurnDocs(check_vocab, o);
  Trace off(false);
  Outcome untraced_out;
  const ChurnReplayResult untraced =
      ReplayChurn(off, o, docs, check_vocab, o.work_dir + "/cache-untraced", 0,
                  o.seconds / 2, &untraced_out);
  Trace trace(true);
  const ChurnReplayResult traced =
      ReplayChurn(trace, o, docs, check_vocab, o.work_dir + "/cache-traced",
                  untraced.rounds, 0, &out);
  std::cerr << "replay rounds " << traced.rounds << ": untraced "
            << untraced.wall_s << " s, traced " << traced.wall_s << " s\n";
  if (!untraced_out.correct) {
    for (const std::string& p : untraced_out.problems) out.Fail(p);
  }
  std::map<std::string, double> extra;
  extra["cache.hit_ratio"] = traced.hit_ratio;
  AddPerLayerMetrics(trace, extra,
                     (traced.wall_s - untraced.wall_s) / untraced.wall_s * 100,
                     &out);
  if (!o.trace_file.empty()) trace.WriteJsonl(o.trace_file);
  return out;
}

}  // namespace

Outcome RunLargeDoc(const RunOptions& options) {
  return options.trace ? RunFixedTraced(options, LargeDocShape())
                       : RunFixedTimed(options, LargeDocShape());
}

Outcome RunSmallDoc(const RunOptions& options) {
  return options.trace ? RunFixedTraced(options, SmallDocShape())
                       : RunFixedTimed(options, SmallDocShape());
}

Outcome RunColdChurn(const RunOptions& options) {
  return options.trace ? RunColdChurnTraced(options)
                       : RunColdChurnTimed(options);
}

}  // namespace perfbench
