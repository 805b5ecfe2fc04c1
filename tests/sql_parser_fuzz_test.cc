// Robustness of the SQL front-end: ParseSql must return a Result — a plan or
// an error — for any input, never crash, hang or read out of bounds. The
// inputs are every prefix of every SQL text in sql_parser_test.cc, seeded
// random token streams and seeded byte mutations of those texts. Run under
// ASan/UBSan (BL_SANITIZE=address) this pins memory safety too.

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/sql_parser.h"

namespace biglake {
namespace {

/// The C++ string literals of `source`, with adjacent literals (split over
/// lines) joined and simple escapes decoded.
std::vector<std::string> StringLiterals(const std::string& source) {
  std::vector<std::string> out;
  bool joinable = false;  // only whitespace since the last literal closed
  for (size_t i = 0; i < source.size(); ++i) {
    const char c = source[i];
    if (c == '/' && i + 1 < source.size() && source[i + 1] == '/') {
      i = source.find('\n', i);
      if (i == std::string::npos) break;
      continue;
    }
    if (c == '\'') {  // a char literal such as '"' must not open a string
      i = source.find('\'', i + (source[i + 1] == '\\' ? 3 : 2));
      if (i == std::string::npos) break;
      joinable = false;
      continue;
    }
    if (c != '"') {
      if (!std::isspace(static_cast<unsigned char>(c))) joinable = false;
      continue;
    }
    std::string lit;
    for (++i; i < source.size() && source[i] != '"'; ++i) {
      if (source[i] == '\\' && i + 1 < source.size()) {
        ++i;
        lit += source[i] == 'n' ? '\n' : source[i] == 't' ? '\t' : source[i];
      } else {
        lit += source[i];
      }
    }
    if (joinable && !out.empty()) {
      out.back() += lit;
    } else {
      out.push_back(std::move(lit));
    }
    joinable = true;
  }
  return out;
}

/// The SQL texts of sql_parser_test.cc: its literals that mention SELECT.
std::vector<std::string> Corpus() {
  std::ifstream in(BL_SQL_PARSER_TEST_SOURCE);
  std::stringstream buf;
  buf << in.rdbuf();
  std::vector<std::string> sql;
  for (std::string& lit : StringLiterals(buf.str())) {
    std::string upper = lit;
    for (char& ch : upper) {
      ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
    }
    if (upper.find("SELECT") != std::string::npos) sql.push_back(lit);
  }
  return sql;
}

/// Parses `sql`; a successful parse must yield a printable plan.
void ParseOne(const std::string& sql) {
  Result<PlanPtr> plan = ParseSql(sql);
  if (!plan.ok()) return;
  ASSERT_NE(*plan, nullptr) << sql;
  (void)(*plan)->ToString();
}

TEST(SqlParserFuzzTest, CorpusIsTheParserTestSql) {
  std::vector<std::string> corpus = Corpus();
  EXPECT_GE(corpus.size(), 30u);
  size_t parsed = 0;
  for (const std::string& sql : corpus) parsed += ParseSql(sql).ok();
  // Most of the corpus is valid SQL (the rest are the error-path tests).
  EXPECT_GE(parsed * 2, corpus.size());
}

TEST(SqlParserFuzzTest, EveryPrefixOfTheCorpus) {
  for (const std::string& sql : Corpus()) {
    for (size_t n = 0; n <= sql.size(); ++n) ParseOne(sql.substr(0, n));
  }
}

TEST(SqlParserFuzzTest, RandomTokenStreams) {
  static const char* kTokens[] = {
      "SELECT", "FROM", "WHERE", "JOIN", "ON", "AS", "AND", "OR", "NOT",
      "GROUP", "BY", "ORDER", "ASC", "DESC", "LIMIT", "IS", "NULL", "IN",
      "TRUE", "FALSE", "COUNT", "SUM", "MIN", "MAX", "AVG", "*", ",", ".",
      "(", ")", "=", "!=", "<>", "<", "<=", ">", ">=", "+", "-", "/", "%",
      "ds.sales", "ds", "sales", "s", "id", "qty", "region", "s.id", "0",
      "1", "-7", "42", "3.5", "1e309", "9223372036854775807",
      "99999999999999999999", "'east'", "''", "'", "\"", ";", "`", "\t",
      "\n", "é", "\x01"};
  constexpr size_t kNumTokens = sizeof(kTokens) / sizeof(kTokens[0]);
  Random rng(20241019);
  for (int i = 0; i < 20000; ++i) {
    std::string sql = rng.Uniform(4) == 0 ? "" : "SELECT ";
    const uint64_t len = 1 + rng.Uniform(24);
    for (uint64_t t = 0; t < len; ++t) {
      sql += kTokens[rng.Uniform(kNumTokens)];
      if (rng.Uniform(5) != 0) sql += ' ';
    }
    ParseOne(sql);
  }
}

TEST(SqlParserFuzzTest, ByteMutationsOfTheCorpus) {
  const std::vector<std::string> corpus = Corpus();
  ASSERT_FALSE(corpus.empty());
  Random rng(7);
  for (int i = 0; i < 20000; ++i) {
    std::string sql = corpus[rng.Uniform(corpus.size())];
    const uint64_t edits = 1 + rng.Uniform(4);
    for (uint64_t e = 0; e < edits; ++e) {
      const size_t at = sql.empty() ? 0 : rng.Uniform(sql.size() + 1);
      const char byte = static_cast<char>(rng.Uniform(256));
      switch (rng.Uniform(4)) {
        case 0:  // overwrite
          if (at < sql.size()) sql[at] = byte;
          break;
        case 1:  // insert
          sql.insert(sql.begin() + static_cast<std::ptrdiff_t>(at), byte);
          break;
        case 2:  // delete a short run
          if (at < sql.size()) sql.erase(at, 1 + rng.Uniform(4));
          break;
        default:  // duplicate a short run
          if (at < sql.size()) sql.insert(at, sql.substr(at, 1 + rng.Uniform(8)));
          break;
      }
    }
    ParseOne(sql);
  }
}

}  // namespace
}  // namespace biglake
