#include "checks.h"

#include <algorithm>

#include "baseline/xpath.h"

namespace perfbench {

using hedgeq::hedge::Hedge;
using hedgeq::hedge::kNullNode;
using hedgeq::hedge::Label;
using hedgeq::hedge::LabelKind;
using hedgeq::hedge::NodeId;
using hedgeq::hedge::Vocabulary;

namespace {

/// Nodes in document order, by an explicit preorder walk.
std::vector<NodeId> PreorderWalk(const Hedge& doc) {
  std::vector<NodeId> order;
  order.reserve(doc.num_nodes());
  std::vector<NodeId> stack;
  for (auto it = doc.roots().rbegin(); it != doc.roots().rend(); ++it) {
    stack.push_back(*it);
  }
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    order.push_back(n);
    for (NodeId c = doc.last_child(n); c != kNullNode;
         c = doc.prev_sibling(c)) {
      stack.push_back(c);
    }
  }
  return order;
}

/// The article alphabet interned in the checker's vocabulary.
class Names {
 public:
  explicit Names(Vocabulary& vocab) {
    for (int s = 0; s <= static_cast<int>(Sym::kImage); ++s) {
      ids_[s] = vocab.symbols.Intern(SymName(static_cast<Sym>(s)));
    }
  }
  bool Is(const Hedge& doc, NodeId n, Sym s) const {
    const Label label = doc.label(n);
    return label.kind == LabelKind::kSymbol &&
           label.id == ids_[static_cast<int>(s)];
  }

 private:
  hedgeq::hedge::SymbolId ids_[static_cast<int>(Sym::kImage) + 1] = {};
};

bool IsText(const Hedge& doc, NodeId n) {
  return doc.label(n).kind == LabelKind::kVariable;
}

size_t ChildCount(const Hedge& doc, NodeId n) {
  size_t count = 0;
  for (NodeId c = doc.first_child(n); c != kNullNode; c = doc.next_sibling(c)) {
    ++count;
  }
  return count;
}

/// `label<$#text>`: the element holds exactly one text node.
bool HoldsOneText(const Hedge& doc, NodeId n) {
  return ChildCount(doc, n) == 1 && IsText(doc, doc.first_child(n));
}

bool MatchesShape(const Names& names, const Hedge& doc, NodeId n,
                  Shape shape) {
  switch (shape) {
    case Shape::kFigure: {
      if (!names.Is(doc, n, Sym::kFigure) || ChildCount(doc, n) != 1) {
        return false;
      }
      const NodeId image = doc.first_child(n);
      return names.Is(doc, image, Sym::kImage) && ChildCount(doc, image) == 0;
    }
    case Shape::kPara:
      return names.Is(doc, n, Sym::kPara) && HoldsOneText(doc, n);
    case Shape::kCaption:
      return names.Is(doc, n, Sym::kCaption) && HoldsOneText(doc, n);
    case Shape::kTable:
      return names.Is(doc, n, Sym::kTable) && ChildCount(doc, n) == 0;
  }
  return false;
}

/// One item tree of a section, any content (the ONE of queries.cc).
bool IsItem(const Names& names, const Hedge& doc, NodeId n) {
  for (Sym s : {Sym::kTitle, Sym::kPara, Sym::kFigure, Sym::kCaption,
                Sym::kTable, Sym::kSection}) {
    if (names.Is(doc, n, s)) return true;
  }
  return false;
}

bool SubHolds(const Names& names, const Hedge& doc, NodeId n, Sub sub) {
  const NodeId first = doc.first_child(n);
  switch (sub) {
    case Sub::kNone:
      return true;
    case Sub::kText:
      return HoldsOneText(doc, n);
    case Sub::kImage:
      return ChildCount(doc, n) == 1 && names.Is(doc, first, Sym::kImage) &&
             ChildCount(doc, first) == 0;
    case Sub::kEmpty:
      return first == kNullNode;
    case Sub::kTitleParas: {
      if (first == kNullNode || !names.Is(doc, first, Sym::kTitle) ||
          !HoldsOneText(doc, first)) {
        return false;
      }
      for (NodeId c = doc.next_sibling(first); c != kNullNode;
           c = doc.next_sibling(c)) {
        if (!MatchesShape(names, doc, c, Shape::kPara)) return false;
      }
      return true;
    }
    case Sub::kTitleFirst:
      return first != kNullNode && names.Is(doc, first, Sym::kTitle) &&
             HoldsOneText(doc, first);
  }
  return false;
}

bool SibHolds(const Names& names, const Hedge& doc, NodeId n, const Sib& sib,
              bool elder) {
  auto step = [&](NodeId m) {
    return elder ? doc.prev_sibling(m) : doc.next_sibling(m);
  };
  switch (sib.kind) {
    case Sib::kNone:
      return true;
    case Sib::kEmpty:
      return step(n) == kNullNode;
    case Sib::kSome:
      for (NodeId m = step(n); m != kNullNode; m = step(m)) {
        if (MatchesShape(names, doc, m, sib.shape)) return true;
      }
      return false;
    case Sib::kNear: {
      NodeId m = step(n);
      for (int i = 0; i < sib.gap; ++i) {
        if (m == kNullNode || !IsItem(names, doc, m)) return false;
        m = step(m);
      }
      return m != kNullNode && MatchesShape(names, doc, m, sib.shape);
    }
  }
  return false;
}

bool PathHolds(const Names& names, const Hedge& doc, NodeId n, Path path,
               int depth) {
  std::vector<NodeId> chain;  // parent first, root last
  for (NodeId p = doc.parent(n); p != kNullNode; p = doc.parent(p)) {
    chain.push_back(p);
  }
  if (path == Path::kAnyDepth) {
    return std::all_of(chain.begin(), chain.end(), [&](NodeId p) {
      return names.Is(doc, p, Sym::kSection) || names.Is(doc, p, Sym::kArticle);
    });
  }
  const size_t want = static_cast<size_t>(depth) + 1;
  if (path == Path::kExact ? chain.size() != want : chain.size() < want) {
    return false;
  }
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    if (!names.Is(doc, chain[i], Sym::kSection)) return false;
  }
  return names.Is(doc, chain.back(), Sym::kArticle);
}

std::vector<bool> NaiveLocated(const std::string& text, const Hedge& doc,
                               Vocabulary& vocab) {
  auto query = hedgeq::query::ParseSelectionQuery(text, vocab);
  if (!query.ok()) return {};
  return hedgeq::query::NaiveSelectionEvaluator(*query).Locate(doc);
}

std::vector<bool> XPathLocated(const std::string& xpath, const Hedge& doc,
                               Vocabulary& vocab) {
  auto path = hedgeq::baseline::ParseXPath(xpath, vocab);
  if (!path.ok()) return {};
  std::vector<bool> located(doc.num_nodes(), false);
  for (NodeId n : hedgeq::baseline::EvaluateXPath(doc, *path)) {
    located[n] = true;
  }
  return located;
}

Hedge SubtreeOf(const Hedge& doc, NodeId n) {
  Hedge out;
  out.AppendCopy(kNullNode, doc, n);
  return out;
}

void CopyKept(const Hedge& doc, NodeId n, NodeId parent,
              const std::vector<bool>& removed, Hedge* out) {
  if (removed[n]) return;
  const NodeId copy = out->Append(parent, doc.label(n));
  for (NodeId c = doc.first_child(n); c != kNullNode; c = doc.next_sibling(c)) {
    CopyKept(doc, c, copy, removed, out);
  }
}

/// Direct tree walk of the spec's semantics.
std::vector<bool> WalkLocated(const QuerySpec& spec, const Hedge& doc,
                              Vocabulary& vocab) {
  const Names names(vocab);
  std::vector<bool> located(doc.num_nodes(), false);
  for (NodeId n = 0; n < doc.num_nodes(); ++n) {
    located[n] = names.Is(doc, n, spec.target) &&
                 SubHolds(names, doc, n, spec.sub) &&
                 SibHolds(names, doc, n, spec.elder, true) &&
                 SibHolds(names, doc, n, spec.younger, false) &&
                 PathHolds(names, doc, n, spec.path, spec.depth);
  }
  return located;
}

}  // namespace

std::vector<std::string> AnswerLines(const Hedge& doc,
                                     const std::vector<bool>& located,
                                     const Vocabulary& vocab) {
  std::vector<std::string> lines;
  for (NodeId n : PreorderWalk(doc)) {
    if (n >= located.size() || !located[n]) continue;
    std::vector<uint32_t> steps;
    for (NodeId m = n; m != kNullNode; m = doc.parent(m)) {
      uint32_t pos = 0;
      for (NodeId s = doc.prev_sibling(m); s != kNullNode;
           s = doc.prev_sibling(s)) {
        ++pos;
      }
      steps.push_back(pos);
    }
    std::string line;
    for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
      line += "/" + std::to_string(*it);
    }
    line += "\t" + vocab.symbols.NameOf(doc.label(n).id);
    lines.push_back(std::move(line));
  }
  return lines;
}

const char* MethodName(Method m) {
  switch (m) {
    case Method::kXPath:
      return "xpath";
    case Method::kWalk:
      return "walk";
    case Method::kNaive:
      return "naive";
  }
  return "";
}

Method MethodFor(const QuerySpec& spec, bool small_document) {
  if (small_document) return Method::kNaive;
  return spec.XPath().empty() ? Method::kWalk : Method::kXPath;
}

std::vector<bool> ExpectedLocated(const QuerySpec& spec, Method method,
                                  const Hedge& doc, Vocabulary& vocab) {
  switch (method) {
    case Method::kXPath:
      return XPathLocated(spec.XPath(), doc, vocab);
    case Method::kWalk:
      return WalkLocated(spec, doc, vocab);
    case Method::kNaive:
      return NaiveLocated(spec.Text(), doc, vocab);
  }
  return {};
}

std::string CompareAnswers(const std::vector<std::string>& expected,
                           const std::vector<std::string>& got) {
  if (expected == got) return "";
  size_t i = 0;
  while (i < expected.size() && i < got.size() && expected[i] == got[i]) ++i;
  std::string where =
      i < expected.size() ? "expected '" + expected[i] + "'" : "expected end";
  where += i < got.size() ? ", got '" + got[i] + "'" : ", got end";
  return "answer differs at line " + std::to_string(i) + " (" + where +
         "; " + std::to_string(expected.size()) + " expected lines, " +
         std::to_string(got.size()) + " got)";
}

Hedge ConformingArticle(hedgeq::Rng& rng, Vocabulary& vocab,
                        size_t extra_paras, size_t target_nodes) {
  auto sym = [&](Sym s) {
    return Label::Symbol(vocab.symbols.Intern(SymName(s)));
  };
  const Label text = Label::Variable(vocab.variables.Intern("#text"));
  Hedge doc;
  auto titled = [&](NodeId parent, Sym s) {
    const NodeId node = doc.Append(parent, sym(s));
    doc.Append(node, text);
    return node;
  };
  const NodeId article = doc.Append(kNullNode, sym(Sym::kArticle));
  titled(article, Sym::kTitle);
  // Sections with 1..6 items each, nested at most three deep.
  auto section = [&](auto&& self, NodeId parent, int depth) -> void {
    const NodeId s = doc.Append(parent, sym(Sym::kSection));
    titled(s, Sym::kTitle);
    const uint64_t items = 1 + rng.Below(6);
    for (uint64_t i = 0; i < items; ++i) {
      switch (rng.Below(6)) {
        case 0:
          titled(s, Sym::kPara);
          break;
        case 1: {
          if (extra_paras == 0) {
            titled(s, Sym::kPara);
            break;
          }
          const std::string flavor = "para" + std::to_string(
                                                  rng.Below(extra_paras));
          const NodeId p =
              doc.Append(s, Label::Symbol(vocab.symbols.Intern(flavor)));
          doc.Append(p, text);
          break;
        }
        case 2: {
          const NodeId f = doc.Append(s, sym(Sym::kFigure));
          doc.Append(f, sym(Sym::kImage));
          if (rng.Chance(0.6)) titled(s, Sym::kCaption);
          break;
        }
        case 3:
          titled(s, Sym::kCaption);
          break;
        case 4:
          doc.Append(s, sym(Sym::kTable));
          break;
        default:
          if (depth < 3) self(self, s, depth + 1);
          break;
      }
    }
  };
  while (doc.num_nodes() < target_nodes) section(section, article, 1);
  return doc;
}

std::string CheckSelectOutput(const hedgeq::schema::Schema& output,
                              const std::vector<Hedge>& docs,
                              const std::vector<std::vector<bool>>& located) {
  size_t tested = 0;
  for (size_t d = 0; d < docs.size(); ++d) {
    for (NodeId n = 0; n < docs[d].num_nodes(); ++n) {
      if (!located[d][n]) continue;
      ++tested;
      if (!output.Validates(SubtreeOf(docs[d], n))) {
        return "selected subtree at node " + std::to_string(n) +
               " of sample " + std::to_string(d) +
               " does not validate on the output schema";
      }
    }
  }
  return tested > 0 ? "" : "no subtree selected on any sample document";
}

std::string CheckDeleteOutput(const hedgeq::schema::Schema& output,
                              const std::vector<Hedge>& docs,
                              const std::vector<std::vector<bool>>& located) {
  for (size_t d = 0; d < docs.size(); ++d) {
    Hedge kept;
    for (NodeId root : docs[d].roots()) {
      CopyKept(docs[d], root, kNullNode, located[d], &kept);
    }
    if (!output.Validates(kept)) {
      return "sample " + std::to_string(d) +
             " with located subtrees deleted does not validate on the "
             "output schema";
    }
  }
  return "";
}

std::string CheckSeparated(const hedgeq::schema::Schema& input,
                           const hedgeq::query::SelectionQuery& q1,
                           const hedgeq::query::SelectionQuery& q2,
                           const hedgeq::schema::ContainmentResult& result) {
  if (result.contained || !result.counterexample.has_value()) {
    return "verdict is not 'separated' with a counterexample";
  }
  const Hedge& doc = result.counterexample->document;
  const NodeId node = result.counterexample->located;
  if (!input.Validates(doc)) return "counterexample is not schema-valid";
  if (node >= doc.num_nodes()) return "counterexample node out of range";
  const std::vector<bool> by_q1 =
      hedgeq::query::NaiveSelectionEvaluator(q1).Locate(doc);
  const std::vector<bool> by_q2 =
      hedgeq::query::NaiveSelectionEvaluator(q2).Locate(doc);
  if (!by_q1[node]) return "q1 does not locate the counterexample node";
  if (by_q2[node]) return "q2 also locates the counterexample node";
  return "";
}

std::string CheckContained(const hedgeq::query::SelectionQuery& q1,
                           const hedgeq::query::SelectionQuery& q2,
                           const std::vector<Hedge>& docs) {
  const hedgeq::query::NaiveSelectionEvaluator e1(q1);
  const hedgeq::query::NaiveSelectionEvaluator e2(q2);
  size_t seen = 0;
  for (size_t d = 0; d < docs.size(); ++d) {
    const std::vector<bool> by_q1 = e1.Locate(docs[d]);
    const std::vector<bool> by_q2 = e2.Locate(docs[d]);
    for (NodeId n = 0; n < docs[d].num_nodes(); ++n) {
      if (!by_q1[n]) continue;
      ++seen;
      if (!by_q2[n]) {
        return "sample " + std::to_string(d) + " node " + std::to_string(n) +
               " is located by q1 but not by q2";
      }
    }
  }
  return seen > 0 ? "" : "q1 locates nothing on the sample documents";
}

}  // namespace perfbench
