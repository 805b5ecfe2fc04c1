#include "engine/sql_parser.h"

#include <cctype>
#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"

namespace biglake {

namespace {

// ---- Tokenizer ---------------------------------------------------------------

enum class TokKind {
  kIdent,
  kInt,
  kDouble,
  kString,
  kSymbol,  // punctuation / operators
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;  // uppercased for idents/keywords; raw for strings
  int64_t int_value = 0;
  double double_value = 0;
  size_t offset = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& sql) : sql_(sql) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    while (i < sql_.size()) {
      char c = sql_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      Token tok;
      tok.offset = i;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i;
        while (i < sql_.size() &&
               (std::isalnum(static_cast<unsigned char>(sql_[i])) ||
                sql_[i] == '_')) {
          ++i;
        }
        tok.kind = TokKind::kIdent;
        tok.text = sql_.substr(start, i - start);
        for (auto& ch : tok.text) {
          ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
        }
        // Preserve the original spelling for identifier resolution.
        tok.int_value = static_cast<int64_t>(start);  // original offset
        out.push_back(std::move(tok));
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t start = i;
        bool is_double = false;
        while (i < sql_.size() &&
               (std::isdigit(static_cast<unsigned char>(sql_[i])) ||
                sql_[i] == '.')) {
          if (sql_[i] == '.') is_double = true;
          ++i;
        }
        std::string num = sql_.substr(start, i - start);
        if (is_double) {
          tok.kind = TokKind::kDouble;
          tok.double_value = std::strtod(num.c_str(), nullptr);
        } else {
          tok.kind = TokKind::kInt;
          uint64_t v = 0;
          if (!ParseUint64(num, &v)) {
            return Error(start, "malformed number `" + num + "`");
          }
          tok.int_value = static_cast<int64_t>(v);
        }
        tok.text = num;
        out.push_back(std::move(tok));
        continue;
      }
      if (c == '\'') {
        size_t start = ++i;
        std::string value;
        while (i < sql_.size() && sql_[i] != '\'') {
          value.push_back(sql_[i++]);
        }
        if (i >= sql_.size()) {
          return Error(start - 1, "unterminated string literal");
        }
        ++i;  // closing quote
        tok.kind = TokKind::kString;
        tok.text = std::move(value);
        out.push_back(std::move(tok));
        continue;
      }
      // Multi-char operators first.
      static const char* kTwoChar[] = {"<=", ">=", "!=", "<>"};
      bool matched = false;
      for (const char* op : kTwoChar) {
        if (sql_.compare(i, 2, op) == 0) {
          tok.kind = TokKind::kSymbol;
          tok.text = op;
          i += 2;
          out.push_back(std::move(tok));
          matched = true;
          break;
        }
      }
      if (matched) continue;
      static const std::string kSingle = "()*,=<>+-/%.";
      if (kSingle.find(c) != std::string::npos) {
        tok.kind = TokKind::kSymbol;
        tok.text = std::string(1, c);
        ++i;
        out.push_back(std::move(tok));
        continue;
      }
      return Error(i, std::string("unexpected character `") + c + "`");
    }
    Token end;
    end.kind = TokKind::kEnd;
    end.offset = sql_.size();
    out.push_back(end);
    return out;
  }

  /// Original (case-preserved) spelling of an identifier token.
  std::string OriginalIdent(const Token& tok) const {
    return sql_.substr(static_cast<size_t>(tok.int_value), tok.text.size());
  }

 private:
  Result<std::vector<Token>> Error(size_t offset, const std::string& msg) {
    return Status::InvalidArgument(
        StrCat("SQL error at offset ", offset, ": ", msg));
  }
  const std::string& sql_;
};

// ---- Parser ------------------------------------------------------------------

struct SelectItem {
  bool is_star = false;
  bool is_aggregate = false;
  AggSpec agg;      // when is_aggregate
  ExprPtr expr;     // otherwise
  std::string name; // output name (alias or derived)
};

class Parser {
 public:
  Parser(const std::string& sql, Lexer* lexer, std::vector<Token> tokens)
      : sql_(sql), lexer_(lexer), tokens_(std::move(tokens)) {}

  Result<PlanPtr> ParseQuery() {
    BL_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    std::vector<SelectItem> items;
    BL_RETURN_NOT_OK(ParseSelectList(&items));
    BL_RETURN_NOT_OK(ExpectKeyword("FROM"));

    // FROM + JOIN chain.
    BL_ASSIGN_OR_RETURN(PlanPtr plan, ParseTableRef());
    while (MatchKeyword("JOIN") || MatchKeyword("INNER")) {
      if (Prev().text == "INNER") {
        BL_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      }
      BL_ASSIGN_OR_RETURN(PlanPtr right, ParseTableRef());
      BL_RETURN_NOT_OK(ExpectKeyword("ON"));
      std::vector<std::string> left_keys, right_keys;
      do {
        BL_ASSIGN_OR_RETURN(std::string a, ParseColumnRef());
        BL_RETURN_NOT_OK(ExpectSymbol("="));
        BL_ASSIGN_OR_RETURN(std::string b, ParseColumnRef());
        left_keys.push_back(std::move(a));
        right_keys.push_back(std::move(b));
      } while (MatchKeyword("AND"));
      plan = Plan::HashJoin(std::move(plan), std::move(right),
                            std::move(left_keys), std::move(right_keys));
    }

    // WHERE stays a Filter: the optimizer (engine/optimizer.h) is the one
    // place conjuncts are pushed into scans, for SQL and plans alike.
    if (MatchKeyword("WHERE")) {
      BL_ASSIGN_OR_RETURN(ExprPtr predicate, ParseExpr());
      plan = Plan::Filter(std::move(plan), std::move(predicate));
    }

    // GROUP BY / aggregates.
    std::vector<std::string> group_by;
    if (MatchKeyword("GROUP")) {
      BL_RETURN_NOT_OK(ExpectKeyword("BY"));
      do {
        BL_ASSIGN_OR_RETURN(std::string col, ParseColumnRef());
        group_by.push_back(std::move(col));
      } while (MatchSymbol(","));
    }
    bool any_aggregate = false;
    for (const auto& item : items) {
      if (item.is_aggregate) any_aggregate = true;
    }
    if (any_aggregate || !group_by.empty()) {
      std::vector<AggSpec> aggs;
      for (const auto& item : items) {
        if (item.is_star) {
          return Err("SELECT * cannot be combined with aggregation");
        }
        if (item.is_aggregate) {
          aggs.push_back(item.agg);
          continue;
        }
        // Non-aggregate select items must be group-by columns.
        if (item.expr->kind() != Expr::Kind::kColumn ||
            std::find(group_by.begin(), group_by.end(),
                      item.expr->column_name()) == group_by.end()) {
          return Err("non-aggregated select item `" + item.name +
                     "` must appear in GROUP BY");
        }
      }
      plan = Plan::Aggregate(std::move(plan), group_by, std::move(aggs));
    } else if (!items.empty() && !items[0].is_star) {
      std::vector<std::string> names;
      std::vector<ExprPtr> exprs;
      for (const auto& item : items) {
        names.push_back(item.name);
        exprs.push_back(item.expr);
      }
      plan = Plan::Project(std::move(plan), std::move(names),
                           std::move(exprs));
    }

    if (MatchKeyword("ORDER")) {
      BL_RETURN_NOT_OK(ExpectKeyword("BY"));
      std::vector<SortKey> keys;
      do {
        SortKey key;
        BL_ASSIGN_OR_RETURN(key.column, ParseColumnRef());
        if (MatchKeyword("DESC")) {
          key.descending = true;
        } else {
          (void)MatchKeyword("ASC");
        }
        keys.push_back(std::move(key));
      } while (MatchSymbol(","));
      plan = Plan::OrderBy(std::move(plan), std::move(keys));
    }
    if (MatchKeyword("LIMIT")) {
      if (Peek().kind != TokKind::kInt) return Err("LIMIT expects an integer");
      plan = Plan::Limit(std::move(plan),
                         static_cast<uint64_t>(Peek().int_value));
      Advance();
    }
    if (Peek().kind != TokKind::kEnd) {
      return Err("unexpected trailing input `" + Peek().text + "`");
    }
    return plan;
  }

 private:
  // -- token helpers ---------------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Prev() const { return tokens_[pos_ - 1]; }
  void Advance() { ++pos_; }

  bool MatchKeyword(const std::string& kw) {
    if (Peek().kind == TokKind::kIdent && Peek().text == kw) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchSymbol(const std::string& sym) {
    if (Peek().kind == TokKind::kSymbol && Peek().text == sym) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!MatchKeyword(kw)) {
      return Status::InvalidArgument(
          StrCat("SQL error at offset ", Peek().offset, ": expected ", kw,
                 ", found `", Peek().text, "`"));
    }
    return Status::OK();
  }
  Status ExpectSymbol(const std::string& sym) {
    if (!MatchSymbol(sym)) {
      return Status::InvalidArgument(
          StrCat("SQL error at offset ", Peek().offset, ": expected `", sym,
                 "`, found `", Peek().text, "`"));
    }
    return Status::OK();
  }
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument(
        StrCat("SQL error at offset ", Peek().offset, ": ", msg));
  }

  static bool IsKeyword(const Token& tok, const std::string& kw) {
    return tok.kind == TokKind::kIdent && tok.text == kw;
  }

  static const std::set<std::string>& ReservedWords() {
    static const std::set<std::string> kReserved = {
        "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY",   "LIMIT",
        "JOIN",   "INNER", "ON",   "AND",   "OR",    "NOT",  "AS",
        "IN",     "IS",    "NULL", "TRUE",  "FALSE", "ASC",  "DESC",
        "COUNT",  "SUM",   "MIN",  "MAX",   "AVG"};
    return kReserved;
  }

  // -- clause parsers ----------------------------------------------------------
  Result<PlanPtr> ParseTableRef() {
    if (Peek().kind != TokKind::kIdent) return Err("expected table name");
    std::string table = lexer_->OriginalIdent(Peek());
    Advance();
    while (MatchSymbol(".")) {
      if (Peek().kind != TokKind::kIdent) {
        return Err("expected identifier after `.`");
      }
      table += "." + lexer_->OriginalIdent(Peek());
      Advance();
    }
    // Optional alias ([AS] name) — accepted and discarded.
    if (MatchKeyword("AS")) {
      if (Peek().kind != TokKind::kIdent) return Err("expected alias");
      Advance();
    } else if (Peek().kind == TokKind::kIdent &&
               ReservedWords().count(Peek().text) == 0) {
      Advance();  // bare alias
    }
    return Plan::Scan(std::move(table));
  }

  /// A column reference, possibly alias-qualified; qualifiers are stripped.
  Result<std::string> ParseColumnRef() {
    if (Peek().kind != TokKind::kIdent) return Err("expected column name");
    std::string name = lexer_->OriginalIdent(Peek());
    Advance();
    while (MatchSymbol(".")) {
      if (Peek().kind != TokKind::kIdent) {
        return Err("expected identifier after `.`");
      }
      name = lexer_->OriginalIdent(Peek());  // keep the last segment
      Advance();
    }
    return name;
  }

  Status ParseSelectList(std::vector<SelectItem>* items) {
    if (MatchSymbol("*")) {
      SelectItem star;
      star.is_star = true;
      items->push_back(std::move(star));
      return Status::OK();
    }
    do {
      SelectItem item;
      // Aggregate function?
      static const std::map<std::string, AggOp> kAggs = {
          {"COUNT", AggOp::kCount}, {"SUM", AggOp::kSum},
          {"MIN", AggOp::kMin},     {"MAX", AggOp::kMax},
          {"AVG", AggOp::kAvg}};
      auto agg_it = Peek().kind == TokKind::kIdent
                        ? kAggs.find(Peek().text)
                        : kAggs.end();
      if (agg_it != kAggs.end() && IsKeyword(Peek(), agg_it->first) &&
          Peek(1).kind == TokKind::kSymbol && Peek(1).text == "(") {
        item.is_aggregate = true;
        item.agg.op = agg_it->second;
        std::string fn = Peek().text;
        Advance();  // fn name
        Advance();  // (
        if (MatchSymbol("*")) {
          if (item.agg.op != AggOp::kCount) {
            return Err("only COUNT accepts *");
          }
          item.agg.input.clear();
        } else {
          BL_ASSIGN_OR_RETURN(item.agg.input, ParseColumnRef());
        }
        BL_RETURN_NOT_OK(ExpectSymbol(")"));
        item.name = ToLower(fn) + "_" +
                    (item.agg.input.empty() ? "all" : item.agg.input);
      } else {
        BL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        item.name = item.expr->kind() == Expr::Kind::kColumn
                        ? item.expr->column_name()
                        : StrCat("expr_", items->size());
      }
      if (MatchKeyword("AS")) {
        if (Peek().kind != TokKind::kIdent) return Err("expected alias");
        item.name = lexer_->OriginalIdent(Peek());
        Advance();
      }
      if (item.is_aggregate) item.agg.output = item.name;
      items->push_back(std::move(item));
    } while (MatchSymbol(","));
    return Status::OK();
  }

  // -- expression grammar (precedence climbing) --------------------------------
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    BL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (MatchKeyword("OR")) {
      BL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Expr::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    BL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (MatchKeyword("AND")) {
      BL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Expr::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (MatchKeyword("NOT")) {
      BL_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
      return Expr::Not(std::move(inner));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    BL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    // IS [NOT] NULL
    if (MatchKeyword("IS")) {
      bool negated = MatchKeyword("NOT");
      BL_RETURN_NOT_OK(ExpectKeyword("NULL"));
      ExprPtr e = Expr::IsNull(std::move(lhs));
      return negated ? Expr::Not(std::move(e)) : e;
    }
    // [NOT] IN (...)
    bool negated_in = false;
    if (IsKeyword(Peek(), "NOT") && IsKeyword(Peek(1), "IN")) {
      Advance();
      negated_in = true;
    }
    if (MatchKeyword("IN")) {
      BL_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<Value> values;
      do {
        BL_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        values.push_back(std::move(v));
      } while (MatchSymbol(","));
      BL_RETURN_NOT_OK(ExpectSymbol(")"));
      ExprPtr e = Expr::InList(std::move(lhs), std::move(values));
      return negated_in ? Expr::Not(std::move(e)) : e;
    }
    static const std::map<std::string, CmpOp> kCmps = {
        {"=", CmpOp::kEq},  {"!=", CmpOp::kNe}, {"<>", CmpOp::kNe},
        {"<", CmpOp::kLt},  {"<=", CmpOp::kLe}, {">", CmpOp::kGt},
        {">=", CmpOp::kGe}};
    if (Peek().kind == TokKind::kSymbol) {
      auto it = kCmps.find(Peek().text);
      if (it != kCmps.end()) {
        Advance();
        BL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return Expr::Cmp(it->second, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    BL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Peek().kind == TokKind::kSymbol &&
           (Peek().text == "+" || Peek().text == "-")) {
      ArithOp op = Peek().text == "+" ? ArithOp::kAdd : ArithOp::kSub;
      Advance();
      BL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Expr::Arith(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    BL_ASSIGN_OR_RETURN(ExprPtr lhs, ParsePrimary());
    while (Peek().kind == TokKind::kSymbol &&
           (Peek().text == "*" || Peek().text == "/" || Peek().text == "%")) {
      ArithOp op = Peek().text == "*"
                       ? ArithOp::kMul
                       : (Peek().text == "/" ? ArithOp::kDiv : ArithOp::kMod);
      Advance();
      BL_ASSIGN_OR_RETURN(ExprPtr rhs, ParsePrimary());
      lhs = Expr::Arith(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Value> ParseLiteralValue() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokKind::kInt:
        Advance();
        return Value::Int64(tok.int_value);
      case TokKind::kDouble:
        Advance();
        return Value::Double(tok.double_value);
      case TokKind::kString:
        Advance();
        return Value::String(tok.text);
      case TokKind::kIdent:
        if (tok.text == "TRUE") {
          Advance();
          return Value::Bool(true);
        }
        if (tok.text == "FALSE") {
          Advance();
          return Value::Bool(false);
        }
        if (tok.text == "NULL") {
          Advance();
          return Value::Null();
        }
        return Err("expected literal, found `" + tok.text + "`");
      default:
        return Err("expected literal");
    }
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokKind::kInt:
      case TokKind::kDouble:
      case TokKind::kString: {
        BL_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
        return Expr::Lit(std::move(v));
      }
      case TokKind::kSymbol:
        if (tok.text == "(") {
          Advance();
          BL_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          BL_RETURN_NOT_OK(ExpectSymbol(")"));
          return inner;
        }
        if (tok.text == "-") {  // unary minus on literals
          Advance();
          BL_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
          if (v.is_int64()) return Expr::Lit(Value::Int64(-v.int64_value()));
          if (v.is_double()) {
            return Expr::Lit(Value::Double(-v.double_value()));
          }
          return Err("unary minus requires a numeric literal");
        }
        return Err("unexpected symbol `" + tok.text + "`");
      case TokKind::kIdent: {
        if (tok.text == "TRUE" || tok.text == "FALSE" || tok.text == "NULL") {
          BL_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
          return Expr::Lit(std::move(v));
        }
        BL_ASSIGN_OR_RETURN(std::string col, ParseColumnRef());
        return Expr::Col(std::move(col));
      }
      case TokKind::kEnd:
        return Err("unexpected end of input");
    }
    return Err("unexpected token");
  }

  const std::string& sql_;
  Lexer* lexer_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<PlanPtr> ParseSql(const std::string& sql) {
  Lexer lexer(sql);
  BL_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(sql, &lexer, std::move(tokens));
  return parser.ParseQuery();
}

}  // namespace biglake
