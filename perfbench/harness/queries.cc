#include "queries.h"

namespace perfbench {

namespace {

// Any hedge over the article alphabet (vertical closure over z), and any
// one item tree of a section: ANY embedded into each item label
// (e1 @y e2 substitutes L(e1) for the y leaves of e2).
constexpr const char* kAny =
    "(article<%z>|title<%z>|section<%z>|para<%z>|figure<%z>|table<%z>|"
    "caption<%z>|image<%z>|$#text)*^z";

std::string Any() { return kAny; }

std::string One() {
  return std::string("(") + kAny +
         " @y (title<%y>|para<%y>|figure<%y>|caption<%y>|table<%y>|"
         "section<%y>))";
}

std::string ShapeText(Shape shape) {
  switch (shape) {
    case Shape::kFigure:
      return "figure<image>";
    case Shape::kPara:
      return "para<$#text>";
    case Shape::kCaption:
      return "caption<$#text>";
    case Shape::kTable:
      return "table";
  }
  return "";
}

std::string SubText(Sub sub) {
  switch (sub) {
    case Sub::kNone:
      return "*";
    case Sub::kText:
      return "$#text";
    case Sub::kImage:
      return "image";
    case Sub::kEmpty:
      return "()";
    case Sub::kTitleParas:
      return "title<$#text> para<$#text>*";
    case Sub::kTitleFirst:
      return "title<$#text> " + Any();
  }
  return "";
}

std::string SibText(const Sib& sib, bool elder) {
  switch (sib.kind) {
    case Sib::kNone:
      return "*";
    case Sib::kEmpty:
      return "()";
    case Sib::kSome:
      return Any() + " " + ShapeText(sib.shape) + " " + Any();
    case Sib::kNear: {
      std::string gap;
      for (int i = 0; i < sib.gap; ++i) gap += elder ? " " + One() : One() + " ";
      return elder ? Any() + " " + ShapeText(sib.shape) + gap
                   : gap + ShapeText(sib.shape) + " " + Any();
    }
  }
  return "";
}

std::string PathText(Path path, int depth) {
  std::string sections;
  for (int i = 0; i < depth; ++i) sections += "section ";
  switch (path) {
    case Path::kAnyDepth:
      return "(section|article)*";
    case Path::kExact:
      return sections + "article";
    case Path::kAtLeast:
      return sections + "section* article";
  }
  return "";
}

QuerySpec PathQuery(Sub sub, Sym target, Path path, int depth) {
  QuerySpec q;
  q.sub = sub;
  q.target = target;
  q.path = path;
  q.depth = depth;
  return q;
}

QuerySpec SiblingQuery(Sub sub, Sym target, Sib elder, Sib younger,
                       Path path, int depth) {
  QuerySpec q = PathQuery(sub, target, path, depth);
  q.elder = elder;
  q.younger = younger;
  return q;
}

constexpr Sib kNoSib{};
constexpr Sib kEmptySib{Sib::kEmpty, Shape::kFigure, 0};
constexpr Sib Near(Shape shape, int gap) { return {Sib::kNear, shape, gap}; }
constexpr Sib Some(Shape shape) { return {Sib::kSome, shape, 0}; }

}  // namespace

const char* SymName(Sym s) {
  switch (s) {
    case Sym::kArticle:
      return "article";
    case Sym::kTitle:
      return "title";
    case Sym::kSection:
      return "section";
    case Sym::kPara:
      return "para";
    case Sym::kFigure:
      return "figure";
    case Sym::kTable:
      return "table";
    case Sym::kCaption:
      return "caption";
    case Sym::kImage:
      return "image";
  }
  return "";
}

std::string QuerySpec::Text() const {
  std::string triplet =
      PathOnly() ? std::string(SymName(target))
                 : "[" + SibText(elder, true) + "; " + SymName(target) +
                       "; " + SibText(younger, false) + "]";
  return "select(" + SubText(sub) + "; " + triplet + " " +
         PathText(path, depth) + ")";
}

std::string QuerySpec::XPath() const {
  if (!PathOnly()) return "";
  // Article documents nest elements only under article and sections, every
  // text-bearing element holds exactly one text node, figures hold exactly
  // one empty image and titles come first; so these predicates state SUB
  // exactly on them.
  std::string predicate;
  switch (sub) {
    case Sub::kNone:
      break;
    case Sub::kText:
      predicate = "[text()]";
      break;
    case Sub::kImage:
      predicate = "[image]";
      break;
    case Sub::kTitleFirst:
      predicate = "[title]";
      break;
    case Sub::kEmpty:
    case Sub::kTitleParas:
      return "";
  }
  std::string sections;
  for (int i = 0; i < depth; ++i) sections += "/section";
  std::string prefix;
  switch (path) {
    case Path::kAnyDepth:
      prefix = "//";
      break;
    case Path::kExact:
      prefix = "/article" + sections + "/";
      break;
    case Path::kAtLeast:
      prefix = "/article" + sections + "//";
      break;
  }
  return prefix + SymName(target) + predicate;
}

std::vector<QuerySpec> LargeDocQueries() {
  // Seven deep queries answer a few hundred nodes at most; the one over
  // every figure answers thousands, so the cost of turning located nodes
  // into answer lines shows in the end-to-end figures too.
  return {
      PathQuery(Sub::kNone, Sym::kFigure, Path::kExact, 6),
      PathQuery(Sub::kImage, Sym::kFigure, Path::kAtLeast, 3),
      PathQuery(Sub::kText, Sym::kCaption, Path::kAtLeast, 7),
      PathQuery(Sub::kText, Sym::kTitle, Path::kExact, 0),
      SiblingQuery(Sub::kNone, Sym::kFigure, kNoSib,
                   Near(Shape::kCaption, 0), Path::kAtLeast, 6),
      SiblingQuery(Sub::kNone, Sym::kPara, Near(Shape::kFigure, 0), kNoSib,
                   Path::kAtLeast, 6),
      SiblingQuery(Sub::kTitleParas, Sym::kSection, Some(Shape::kTable),
                   kNoSib, Path::kAtLeast, 5),
      SiblingQuery(Sub::kNone, Sym::kTitle, kEmptySib, Some(Shape::kFigure),
                   Path::kExact, 6),
  };
}

std::vector<QuerySpec> SmallDocQueries() {
  return {
      PathQuery(Sub::kNone, Sym::kFigure, Path::kExact, 2),
      PathQuery(Sub::kImage, Sym::kFigure, Path::kExact, 3),
      PathQuery(Sub::kNone, Sym::kTable, Path::kAtLeast, 3),
      PathQuery(Sub::kText, Sym::kPara, Path::kExact, 1),
      SiblingQuery(Sub::kNone, Sym::kFigure, kNoSib,
                   Near(Shape::kCaption, 0), Path::kAtLeast, 2),
      SiblingQuery(Sub::kNone, Sym::kPara, Near(Shape::kFigure, 0), kNoSib,
                   Path::kAnyDepth, 0),
      SiblingQuery(Sub::kTitleParas, Sym::kSection, Some(Shape::kTable),
                   kNoSib, Path::kAnyDepth, 0),
      SiblingQuery(Sub::kNone, Sym::kTitle, kEmptySib, Some(Shape::kFigure),
                   Path::kExact, 1),
      PathQuery(Sub::kTitleFirst, Sym::kSection, Path::kAtLeast, 1),
      PathQuery(Sub::kNone, Sym::kCaption, Path::kAnyDepth, 0),
      PathQuery(Sub::kText, Sym::kTitle, Path::kExact, 0),
      PathQuery(Sub::kEmpty, Sym::kTable, Path::kAnyDepth, 0),
      SiblingQuery(Sub::kEmpty, Sym::kTable, Near(Shape::kPara, 1), kNoSib,
                   Path::kAnyDepth, 0),
      SiblingQuery(Sub::kNone, Sym::kCaption, Near(Shape::kFigure, 0),
                   kEmptySib, Path::kAnyDepth, 0),
      SiblingQuery(Sub::kNone, Sym::kFigure, Some(Shape::kPara),
                   Near(Shape::kTable, 1), Path::kAtLeast, 1),
      SiblingQuery(Sub::kImage, Sym::kFigure, kNoSib, Near(Shape::kPara, 2),
                   Path::kAnyDepth, 0),
  };
}

Sib ChurnQueries::DrawSib(size_t kind) {
  const Shape shape = static_cast<Shape>(rng_.Below(4));
  switch (kind) {
    case 0:
      return kNoSib;
    case 1:
      return kEmptySib;
    case 2:
    case 3:
    case 4:
      return Near(shape, static_cast<int>(kind - 2));
    default:
      return Some(shape);
  }
}

QuerySpec ChurnQueries::Draw(size_t slot, bool any_sub) {
  static constexpr Sym kTargets[] = {Sym::kTitle, Sym::kSection, Sym::kPara,
                                     Sym::kFigure, Sym::kTable,
                                     Sym::kCaption};
  const size_t elder = slot / kKinds;
  const size_t younger = slot % kKinds;
  QuerySpec q;
  q.elder = DrawSib(elder);
  q.younger = DrawSib(younger);
  q.sub = static_cast<Sub>(any_sub ? rng_.Below(6) : (elder + 2 * younger) % 6);
  q.target = kTargets[rng_.Below(6)];
  q.path = static_cast<Path>(rng_.Below(3));
  q.depth = q.path == Path::kAnyDepth  ? 0
            : q.path == Path::kExact ? static_cast<int>(rng_.Below(10))
                                     : 1 + static_cast<int>(rng_.Below(9));
  return q;
}

QuerySpec ChurnQueries::Next() {
  if (left_.empty()) {
    for (size_t i = 0; i < kRound; ++i) left_.push_back(i);
    for (size_t i = kRound; i > 1; --i) {
      std::swap(left_[i - 1], left_[rng_.Below(i)]);
    }
  }
  slot_ = left_.back();
  left_.pop_back();
  // A slot has hundreds of distinct texts; only a very long run could use
  // them up, and then the slot's SUB is freed too.
  for (int attempt = 0;; ++attempt) {
    QuerySpec q = Draw(slot_, attempt >= 100);
    if (seen_.insert(q.Text()).second) return q;
  }
}

}  // namespace perfbench
