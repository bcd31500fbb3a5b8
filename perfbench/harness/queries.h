#ifndef PERFBENCH_QUERIES_H_
#define PERFBENCH_QUERIES_H_

// The query family every serving workload draws from. A query is kept as a
// structured spec, rendered to hedgeq's textual syntax for the program and
// evaluated directly on the tree by the checker (checks.h), so the two
// never share code.
//
// select(SUB; [ELDER; TARGET; YOUNGER] PATH) over the article alphabet:
//   SUB      condition on the located node's children
//   ELDER    condition on its elder siblings, YOUNGER on its younger ones
//   PATH     the labels of its ancestors, parent first, up to the root

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace perfbench {

/// Element names of the article documents (workload::RandomArticle).
enum class Sym { kArticle, kTitle, kSection, kPara, kFigure, kTable,
                 kCaption, kImage };
const char* SymName(Sym s);

/// Condition on the located node's children.
enum class Sub {
  kNone,        // *
  kText,        // $#text                     exactly one text node
  kImage,       // image                      exactly one empty image
  kEmpty,       // ()                         no children
  kTitleParas,  // title<$#text> para<$#text>*
  kTitleFirst,  // title<$#text> ANY          first child a titled text
};

/// A sibling tree of a fixed shape.
enum class Shape {
  kFigure,   // figure<image>
  kPara,     // para<$#text>
  kCaption,  // caption<$#text>
  kTable,    // table
};

/// Condition on the elder (or younger) siblings.
struct Sib {
  enum Kind {
    kNone,   // *                   no condition
    kEmpty,  // ()                  no siblings on that side
    kNear,   // ANY X ONE{gap}      the (gap+1)-th nearest sibling is X and
             //                     the gap siblings between are item trees
    kSome,   // ANY X ANY           some sibling on that side is X
  };
  Kind kind = kNone;
  Shape shape = Shape::kFigure;
  int gap = 0;
};

/// Ancestor chain of the located node.
enum class Path {
  kAnyDepth,  // (section|article)*
  kExact,     // section{depth} article
  kAtLeast,   // section{depth} section* article
};

struct QuerySpec {
  Sub sub = Sub::kNone;
  Sym target = Sym::kFigure;
  Sib elder;
  Sib younger;
  Path path = Path::kAnyDepth;
  int depth = 0;

  /// No sibling conditions: a classic path expression (plus SUB).
  bool PathOnly() const {
    return elder.kind == Sib::kNone && younger.kind == Sib::kNone;
  }
  /// The query in hedgeq's select(e1; e2) syntax.
  std::string Text() const;
  /// An equivalent XPath location path on article documents, or "" when
  /// the spec has sibling conditions or a SUB XPath cannot state.
  std::string XPath() const;
};

/// The 8 fixed queries of large_doc: 4 path envelopes, 4 sibling ones.
std::vector<QuerySpec> LargeDocQueries();
/// The 16 fixed queries of small_doc.
std::vector<QuerySpec> SmallDocQueries();

/// Seeded stream of pairwise distinct queries for cold_churn, in rounds.
/// Each round holds every (elder kind, younger kind) pair of sibling
/// conditions once, in a seeded order, each slot with a fixed SUB; the seed
/// picks the sibling shapes, the target and the path. So every seed and
/// every round asks for the same mix of automaton sizes, and runs differ
/// only in which queries of each kind they ask.
class ChurnQueries {
 public:
  /// Sibling-condition kinds: none, empty, near at gap 0..2, some.
  static constexpr size_t kKinds = 6;
  static constexpr size_t kRound = kKinds * kKinds;

  explicit ChurnQueries(uint64_t seed) : rng_(seed) {}
  QuerySpec Next();
  /// The round slot (0..kRound-1) of the query Next returned last.
  size_t last_slot() const { return slot_; }

 private:
  QuerySpec Draw(size_t slot, bool any_sub);
  Sib DrawSib(size_t kind);

  hedgeq::Rng rng_;
  std::vector<size_t> left_;  // slots not yet asked in this round
  size_t slot_ = 0;
  std::unordered_set<std::string> seen_;
};

}  // namespace perfbench

#endif  // PERFBENCH_QUERIES_H_
