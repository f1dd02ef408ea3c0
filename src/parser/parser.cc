#include "parser/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>

#include "base/str_util.h"

namespace rbda {

namespace {

// Line-oriented tokenizer: identifiers, numbers, quoted strings, and the
// punctuation the grammar needs ( ) , : & plus the arrows "->" and ":-".
struct Token {
  enum Kind { kIdent, kNumber, kString, kPunct, kEnd } kind = kEnd;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string_view line) : line_(line) {}

  StatusOr<Token> Next() {
    SkipSpace();
    Token t;
    if (pos_ >= line_.size()) {
      t.kind = Token::kEnd;
      return t;
    }
    char c = line_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < line_.size() &&
             (std::isalnum(static_cast<unsigned char>(line_[pos_])) ||
              line_[pos_] == '_')) {
        ++pos_;
      }
      t.kind = Token::kIdent;
      t.text = std::string(line_.substr(start, pos_ - start));
      return t;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (pos_ < line_.size() &&
             std::isdigit(static_cast<unsigned char>(line_[pos_]))) {
        ++pos_;
      }
      t.kind = Token::kNumber;
      t.text = std::string(line_.substr(start, pos_ - start));
      return t;
    }
    if (c == '"') {
      size_t start = ++pos_;
      while (pos_ < line_.size() && line_[pos_] != '"') ++pos_;
      if (pos_ >= line_.size()) {
        return Status::InvalidArgument("unterminated string literal");
      }
      t.kind = Token::kString;
      t.text = std::string(line_.substr(start, pos_ - start));
      ++pos_;
      return t;
    }
    if (c == '-' && pos_ + 1 < line_.size() && line_[pos_ + 1] == '>') {
      pos_ += 2;
      t.kind = Token::kPunct;
      t.text = "->";
      return t;
    }
    if (c == ':' && pos_ + 1 < line_.size() && line_[pos_ + 1] == '-') {
      pos_ += 2;
      t.kind = Token::kPunct;
      t.text = ":-";
      return t;
    }
    if (c == '(' || c == ')' || c == ',' || c == ':' || c == '&') {
      ++pos_;
      t.kind = Token::kPunct;
      t.text = std::string(1, c);
      return t;
    }
    return Status::InvalidArgument(std::string("unexpected character '") + c +
                                   "'");
  }

  StatusOr<Token> Peek() {
    size_t saved = pos_;
    StatusOr<Token> t = Next();
    pos_ = saved;
    return t;
  }

 private:
  void SkipSpace() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view line_;
  size_t pos_ = 0;
};

Status Expect(Lexer* lex, std::string_view text) {
  StatusOr<Token> t = lex->Next();
  RBDA_RETURN_IF_ERROR(t.status());
  if (t->text != text) {
    return Status::InvalidArgument("expected '" + std::string(text) +
                                   "', got '" + t->text + "'");
  }
  return Status::Ok();
}

StatusOr<std::string> ExpectIdent(Lexer* lex) {
  StatusOr<Token> t = lex->Next();
  RBDA_RETURN_IF_ERROR(t.status());
  if (t->kind != Token::kIdent) {
    return Status::InvalidArgument("expected identifier, got '" + t->text +
                                   "'");
  }
  return t->text;
}

// A number token (all digits) as a uint32_t. A value past 2^32 - 1 is an
// error, never a wrapped value or an exception.
StatusOr<uint32_t> ToNumber(const Token& t) {
  if (t.kind != Token::kNumber) {
    return Status::InvalidArgument("expected number, got '" + t.text + "'");
  }
  uint32_t value = 0;
  if (std::from_chars(t.text.data(), t.text.data() + t.text.size(), value)
          .ec != std::errc()) {
    return Status::InvalidArgument("number '" + t.text + "' is out of range");
  }
  return value;
}

StatusOr<uint32_t> ExpectNumber(Lexer* lex) {
  StatusOr<Token> t = lex->Next();
  RBDA_RETURN_IF_ERROR(t.status());
  return ToNumber(*t);
}

// Parses "R(arg, arg, ...)" where bare identifiers become variables and
// quoted strings / numbers become constants.
StatusOr<Atom> ParseAtom(Lexer* lex, Universe* universe) {
  StatusOr<std::string> name = ExpectIdent(lex);
  RBDA_RETURN_IF_ERROR(name.status());
  RelationId rel;
  if (!universe->LookupRelation(*name, &rel)) {
    return Status::NotFound("unknown relation '" + *name + "'");
  }
  RBDA_RETURN_IF_ERROR(Expect(lex, "("));
  std::vector<Term> args;
  StatusOr<Token> peek = lex->Peek();
  RBDA_RETURN_IF_ERROR(peek.status());
  if (peek->text != ")") {
    for (;;) {
      StatusOr<Token> t = lex->Next();
      RBDA_RETURN_IF_ERROR(t.status());
      if (t->kind == Token::kIdent) {
        args.push_back(universe->Variable(t->text));
      } else if (t->kind == Token::kString || t->kind == Token::kNumber) {
        args.push_back(universe->Constant(t->text));
      } else {
        return Status::InvalidArgument("expected term, got '" + t->text +
                                       "'");
      }
      StatusOr<Token> sep = lex->Next();
      RBDA_RETURN_IF_ERROR(sep.status());
      if (sep->text == ")") break;
      if (sep->text != ",") {
        return Status::InvalidArgument("expected ',' or ')' in atom");
      }
    }
  } else {
    RBDA_RETURN_IF_ERROR(Expect(lex, ")"));
  }
  if (args.size() != universe->Arity(rel)) {
    return Status::InvalidArgument("atom for '" + *name +
                                   "' has wrong arity");
  }
  return Atom(rel, std::move(args));
}

StatusOr<std::vector<Atom>> ParseAtomList(Lexer* lex, Universe* universe) {
  std::vector<Atom> atoms;
  for (;;) {
    StatusOr<Atom> atom = ParseAtom(lex, universe);
    RBDA_RETURN_IF_ERROR(atom.status());
    atoms.push_back(std::move(*atom));
    StatusOr<Token> peek = lex->Peek();
    RBDA_RETURN_IF_ERROR(peek.status());
    if (peek->text != "&") break;
    RBDA_RETURN_IF_ERROR(Expect(lex, "&"));
  }
  return atoms;
}

Status ParseRelationLine(Lexer* lex, ServiceSchema* schema) {
  StatusOr<std::string> name = ExpectIdent(lex);
  RBDA_RETURN_IF_ERROR(name.status());
  RBDA_RETURN_IF_ERROR(Expect(lex, "("));
  uint32_t arity = 0;
  StatusOr<Token> peek = lex->Peek();
  RBDA_RETURN_IF_ERROR(peek.status());
  if (peek->text == ")") {
    RBDA_RETURN_IF_ERROR(Expect(lex, ")"));
  } else {
    for (;;) {
      StatusOr<std::string> col = ExpectIdent(lex);
      RBDA_RETURN_IF_ERROR(col.status());
      ++arity;
      StatusOr<Token> sep = lex->Next();
      RBDA_RETURN_IF_ERROR(sep.status());
      if (sep->text == ")") break;
      if (sep->text != ",") {
        return Status::InvalidArgument("expected ',' or ')' in column list");
      }
    }
  }
  return schema->AddRelation(*name, arity).status();
}

Status ParseMethodLine(Lexer* lex, ServiceSchema* schema) {
  AccessMethod method;
  StatusOr<std::string> name = ExpectIdent(lex);
  RBDA_RETURN_IF_ERROR(name.status());
  method.name = *name;
  RBDA_RETURN_IF_ERROR(Expect(lex, "on"));
  StatusOr<std::string> rel_name = ExpectIdent(lex);
  RBDA_RETURN_IF_ERROR(rel_name.status());
  if (!schema->universe().LookupRelation(*rel_name, &method.relation)) {
    return Status::NotFound("unknown relation '" + *rel_name + "'");
  }
  RBDA_RETURN_IF_ERROR(Expect(lex, "inputs"));
  RBDA_RETURN_IF_ERROR(Expect(lex, "("));
  StatusOr<Token> peek = lex->Peek();
  RBDA_RETURN_IF_ERROR(peek.status());
  if (peek->text == ")") {
    RBDA_RETURN_IF_ERROR(Expect(lex, ")"));
  } else {
    for (;;) {
      StatusOr<uint32_t> pos = ExpectNumber(lex);
      RBDA_RETURN_IF_ERROR(pos.status());
      method.input_positions.push_back(*pos);
      StatusOr<Token> sep = lex->Next();
      RBDA_RETURN_IF_ERROR(sep.status());
      if (sep->text == ")") break;
      if (sep->text != ",") {
        return Status::InvalidArgument("expected ',' or ')' in inputs");
      }
    }
  }
  StatusOr<Token> tail = lex->Next();
  RBDA_RETURN_IF_ERROR(tail.status());
  if (tail->kind != Token::kEnd) {
    if (tail->text == "limit") {
      method.bound_kind = BoundKind::kResultBound;
    } else if (tail->text == "lower") {
      // "lower-limit" lexes as ident "lower", punct "-"... accept the
      // hyphenated keyword written as `lower-limit`.
      return Status::InvalidArgument(
          "write the lower bound as 'lowerlimit <k>'");
    } else if (tail->text == "lowerlimit") {
      method.bound_kind = BoundKind::kResultLowerBound;
    } else {
      return Status::InvalidArgument("unexpected token '" + tail->text +
                                     "' after inputs");
    }
    StatusOr<uint32_t> k = ExpectNumber(lex);
    RBDA_RETURN_IF_ERROR(k.status());
    method.bound = *k;
  }
  return schema->AddMethod(std::move(method));
}

Status ParseTgdLine(Lexer* lex, ServiceSchema* schema) {
  StatusOr<std::vector<Atom>> body =
      ParseAtomList(lex, schema->mutable_universe());
  RBDA_RETURN_IF_ERROR(body.status());
  RBDA_RETURN_IF_ERROR(Expect(lex, "->"));
  StatusOr<std::vector<Atom>> head =
      ParseAtomList(lex, schema->mutable_universe());
  RBDA_RETURN_IF_ERROR(head.status());
  schema->constraints().tgds.emplace_back(std::move(*body), std::move(*head));
  return Status::Ok();
}

Status ParseFdLine(Lexer* lex, ServiceSchema* schema) {
  StatusOr<std::string> rel_name = ExpectIdent(lex);
  RBDA_RETURN_IF_ERROR(rel_name.status());
  RelationId rel;
  if (!schema->universe().LookupRelation(*rel_name, &rel)) {
    return Status::NotFound("unknown relation '" + *rel_name + "'");
  }
  RBDA_RETURN_IF_ERROR(Expect(lex, ":"));
  std::vector<uint32_t> lhs;
  for (;;) {
    StatusOr<Token> t = lex->Next();
    RBDA_RETURN_IF_ERROR(t.status());
    if (t->text == "->") break;
    if (t->text == ",") continue;
    if (t->kind != Token::kNumber) {
      return Status::InvalidArgument("expected position number in FD");
    }
    StatusOr<uint32_t> pos = ToNumber(*t);
    RBDA_RETURN_IF_ERROR(pos.status());
    lhs.push_back(*pos);
  }
  StatusOr<uint32_t> rhs = ExpectNumber(lex);
  RBDA_RETURN_IF_ERROR(rhs.status());
  // The chase reads these positions of every row, so they must exist, as
  // a method's input positions must (ServiceSchema::AddMethod).
  const uint32_t arity = schema->universe().Arity(rel);
  if (*rhs >= arity || std::any_of(lhs.begin(), lhs.end(),
                                   [&](uint32_t p) { return p >= arity; })) {
    return Status::InvalidArgument("FD on '" + *rel_name +
                                   "' has a position out of range");
  }
  schema->constraints().fds.emplace_back(rel, std::move(lhs), *rhs);
  return Status::Ok();
}

StatusOr<ConjunctiveQuery> ParseQueryBody(Lexer* lex, Universe* universe,
                                          std::string* name_out) {
  StatusOr<std::string> name = ExpectIdent(lex);
  RBDA_RETURN_IF_ERROR(name.status());
  if (name_out) *name_out = *name;
  RBDA_RETURN_IF_ERROR(Expect(lex, "("));
  std::vector<Term> frees;
  StatusOr<Token> peek = lex->Peek();
  RBDA_RETURN_IF_ERROR(peek.status());
  if (peek->text == ")") {
    RBDA_RETURN_IF_ERROR(Expect(lex, ")"));
  } else {
    for (;;) {
      StatusOr<Token> t = lex->Next();
      RBDA_RETURN_IF_ERROR(t.status());
      if (t->kind == Token::kIdent) {
        frees.push_back(universe->Variable(t->text));
      } else {
        return Status::InvalidArgument("free variables must be identifiers");
      }
      StatusOr<Token> sep = lex->Next();
      RBDA_RETURN_IF_ERROR(sep.status());
      if (sep->text == ")") break;
      if (sep->text != ",") {
        return Status::InvalidArgument("expected ',' or ')' in head");
      }
    }
  }
  RBDA_RETURN_IF_ERROR(Expect(lex, ":-"));
  StatusOr<std::vector<Atom>> atoms = ParseAtomList(lex, universe);
  RBDA_RETURN_IF_ERROR(atoms.status());
  return ConjunctiveQuery(std::move(*atoms), std::move(frees));
}

Status ParseFactLine(Lexer* lex, ParsedDocument* doc) {
  StatusOr<Atom> atom = ParseAtom(lex, doc->schema.mutable_universe());
  RBDA_RETURN_IF_ERROR(atom.status());
  for (const Term& t : atom->args) {
    if (!t.IsConstant()) {
      return Status::InvalidArgument("facts must use constants only");
    }
  }
  // Documents can arrive over the network (rbda_serve load-schema), so a
  // row-id-cap overflow must surface as a parse error, not an abort.
  bool inserted = false;
  return doc->data.TryAddFact(*atom, &inserted);
}

}  // namespace

StatusOr<ParsedDocument> ParseDocument(std::string_view text,
                                       Universe* universe) {
  ParsedDocument doc(universe);
  std::istringstream stream{std::string(text)};
  std::string raw_line;
  int line_no = 0;
  while (std::getline(stream, raw_line)) {
    ++line_no;
    std::string_view line(raw_line);
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = StripAsciiWhitespace(line);
    if (line.empty()) continue;

    Lexer lex(line);
    StatusOr<Token> keyword = lex.Next();
    RBDA_RETURN_IF_ERROR(keyword.status());

    Status status = Status::Ok();
    if (keyword->text == "relation") {
      status = ParseRelationLine(&lex, &doc.schema);
    } else if (keyword->text == "method") {
      status = ParseMethodLine(&lex, &doc.schema);
    } else if (keyword->text == "tgd") {
      status = ParseTgdLine(&lex, &doc.schema);
    } else if (keyword->text == "fd") {
      status = ParseFdLine(&lex, &doc.schema);
    } else if (keyword->text == "query") {
      std::string name;
      StatusOr<ConjunctiveQuery> q = ParseQueryBody(&lex, universe, &name);
      if (!q.ok()) {
        status = q.status();
      } else {
        doc.queries.emplace(name, std::move(*q));
      }
    } else if (keyword->text == "fact") {
      status = ParseFactLine(&lex, &doc);
    } else {
      status =
          Status::InvalidArgument("unknown statement '" + keyword->text + "'");
    }
    if (!status.ok()) {
      return Status(status.code(), "line " + std::to_string(line_no) + ": " +
                                       status.message());
    }
  }
  return doc;
}

StatusOr<ConjunctiveQuery> ParseQuery(std::string_view text,
                                      Universe* universe) {
  Lexer lex(text);
  return ParseQueryBody(&lex, universe, nullptr);
}

}  // namespace rbda
