#include "columnar/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string_view>

#include "columnar/flat_id_map.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace biglake {
namespace kernels {

namespace {

// ---------------------------------------------------------------------------
// Metric handles (resolved once; stable for the registry's lifetime).
// Updates are commutative relaxed adds, so incrementing from inside a
// parallel read-stream task leaves deterministic totals.
// ---------------------------------------------------------------------------

obs::Counter* RowsEvaluatedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter(METRIC_EXPR_ROWS_EVALUATED);
  return c;
}

obs::Counter* DictComparesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter(METRIC_EXPR_DICT_COMPARES);
  return c;
}

// ---------------------------------------------------------------------------
// Accessor views. A kernel loop is written once against `a[i]`/`b[i]`; a
// literal operand becomes a Broadcast view (no constant column), an int64
// span compared against a double becomes an on-the-fly promotion.
// All views are trivially copyable so the loops stay flat and vectorizable.
// ---------------------------------------------------------------------------

template <typename T>
struct Span {
  const T* p;
  T operator[](size_t i) const { return p[i]; }
};

template <typename T>
struct Broadcast {
  T v;
  T operator[](size_t) const { return v; }
};

struct I64AsDouble {
  const int64_t* p;
  double operator[](size_t i) const { return static_cast<double>(p[i]); }
};

/// Maps a three-way comparison result through a CmpOp.
inline bool CmpResult(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

template <typename T>
inline int Sign3(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// The comparison kernel: one branch-free flat loop per operator, operand
/// shapes abstracted by the views. The op dispatch is hoisted out of the
/// loop — inside it there is nothing but loads, a compare, and a byte store.
template <typename A, typename B>
void CmpLoop(CmpOp op, const A a, const B b, size_t n, uint8_t* out) {
  switch (op) {
    case CmpOp::kEq:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] == b[i];
      break;
    case CmpOp::kNe:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] != b[i];
      break;
    case CmpOp::kLt:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] < b[i];
      break;
    case CmpOp::kLe:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] <= b[i];
      break;
    case CmpOp::kGt:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] > b[i];
      break;
    case CmpOp::kGe:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] >= b[i];
      break;
  }
}

// ---------------------------------------------------------------------------
// Validity plumbing. A validity span is a `const uint8_t*` that is nullptr
// when every lane is valid. Combining is a byte AND; canonicalization zeroes
// the data under null lanes so the Kleene byte kernels below never have to
// branch on validity.
// ---------------------------------------------------------------------------

/// Installs the AND of two validity spans into `out` and zeroes `out->data`
/// under null lanes. Leaves `out->validity` empty when both inputs are
/// all-valid.
void ApplyValidity(BoolVec* out, const uint8_t* va, const uint8_t* vb) {
  if (va == nullptr && vb == nullptr) return;
  size_t n = out->data.size();
  out->validity.resize(n);
  uint8_t* v = out->validity.data();
  if (va != nullptr && vb != nullptr) {
    for (size_t i = 0; i < n; ++i) v[i] = va[i] & vb[i];
  } else {
    const uint8_t* src = va != nullptr ? va : vb;
    std::copy(src, src + n, v);
  }
  uint8_t* d = out->data.data();
  for (size_t i = 0; i < n; ++i) d[i] &= v[i];
}

BoolVec AllNull(size_t n) {
  BoolVec out;
  out.data.assign(n, 0);
  out.validity.assign(n, 0);
  return out;
}

BoolVec Filled(size_t n, bool bit) {
  BoolVec out;
  out.data.assign(n, bit ? 1 : 0);
  return out;
}

// ---------------------------------------------------------------------------
// Numeric operand evaluation (columns, literals, arithmetic subtrees).
// ---------------------------------------------------------------------------

/// A numeric operand: an int64/double span (borrowed from a column or owned
/// by an arith result or a NULL literal), or a scalar (a literal — never
/// broadcast). Validity is borrowed from the column or owned by the result;
/// nullptr from valid_data() means all-valid.
struct NumVec {
  bool is_double = false;
  bool is_scalar = false;
  int64_t s_i64 = 0;
  double s_f64 = 0;
  size_t n = 0;
  const Buffer<int64_t>* ref_i64 = nullptr;
  const Buffer<double>* ref_f64 = nullptr;
  const Buffer<uint8_t>* ref_valid = nullptr;
  std::vector<int64_t> own_i64;
  std::vector<double> own_f64;
  std::vector<uint8_t> own_valid;

  const int64_t* i64_data() const {
    return !own_i64.empty() ? own_i64.data()
                            : (ref_i64 != nullptr ? ref_i64->data() : nullptr);
  }
  const double* f64_data() const {
    return !own_f64.empty() ? own_f64.data()
                            : (ref_f64 != nullptr ? ref_f64->data() : nullptr);
  }
  const uint8_t* valid_data() const {
    if (!own_valid.empty()) return own_valid.data();
    if (ref_valid != nullptr && !ref_valid->empty()) return ref_valid->data();
    return nullptr;
  }
  double scalar_as_double() const {
    return is_double ? s_f64 : static_cast<double>(s_i64);
  }
};

/// Borrowed view of a numeric column (int64/timestamp/double, plain or RLE;
/// RLE runs are expanded once into a flat span — RLE columns carry no
/// nulls). nullopt for a string/bool/dictionary column.
std::optional<NumVec> NumView(const Column& col) {
  NumVec v;
  v.n = col.length();
  if (col.encoding() == Encoding::kRunLength) {
    v.own_i64.reserve(col.length());
    const auto& values = col.run_values();
    const auto& lengths = col.run_lengths();
    for (size_t r = 0; r < values.size(); ++r) {
      v.own_i64.insert(v.own_i64.end(), lengths[r], values[r]);
    }
    return v;
  }
  if (col.encoding() != Encoding::kPlain) return std::nullopt;
  if (IsIntegerPhysical(col.type())) {
    v.ref_i64 = &col.int64_data();
  } else if (col.type() == DataType::kDouble) {
    v.is_double = true;
    v.ref_f64 = &col.double_data();
  } else {
    return std::nullopt;
  }
  v.ref_valid = &col.validity();
  return v;
}

/// View of a NumVec as a double span, converting int64 spans into `scratch`
/// once (a flat, vectorizable promotion pass). Scalars are not handled here.
const double* AsDoubleSpan(const NumVec& v, size_t n,
                           std::vector<double>* scratch) {
  if (v.is_double) return v.f64_data();
  scratch->resize(n);
  const int64_t* src = v.i64_data();
  double* dst = scratch->data();
  for (size_t i = 0; i < n; ++i) dst[i] = static_cast<double>(src[i]);
  return dst;
}

/// Merged validity of two operands into `out_valid` (left empty when both
/// are all-valid). Returns the merged span or nullptr.
const uint8_t* MergeValidity(const NumVec& l, const NumVec& r, size_t n,
                             std::vector<uint8_t>* out_valid) {
  const uint8_t* va = l.valid_data();
  const uint8_t* vb = r.valid_data();
  if (va == nullptr && vb == nullptr) return nullptr;
  out_valid->resize(n);
  uint8_t* v = out_valid->data();
  if (va != nullptr && vb != nullptr) {
    for (size_t i = 0; i < n; ++i) v[i] = va[i] & vb[i];
  } else {
    const uint8_t* src = va != nullptr ? va : vb;
    std::copy(src, src + n, v);
  }
  return v;
}

// int64 +, - and * wrap in two's complement (unsigned arithmetic, as the
// IPC varint code does) instead of overflowing as signed UB.
inline int64_t Add(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t Sub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t Mul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
inline double Add(double a, double b) { return a + b; }
inline double Sub(double a, double b) { return a - b; }
inline double Mul(double a, double b) { return a * b; }

/// x % d with x % 0 = 0 (the caller nulls that lane) and x % -1 = 0, which
/// is exact and never evaluates the trapping INT64_MIN % -1.
inline int64_t Mod(int64_t a, int64_t d) {
  return a % (d == 0 || d == -1 ? 1 : d);
}

template <typename T, typename A, typename B>
void ArithLoop(ArithOp op, const A a, const B b, size_t n, T* out) {
  switch (op) {
    case ArithOp::kAdd:
      for (size_t i = 0; i < n; ++i) out[i] = Add(a[i], b[i]);
      break;
    case ArithOp::kSub:
      for (size_t i = 0; i < n; ++i) out[i] = Sub(a[i], b[i]);
      break;
    case ArithOp::kMul:
      for (size_t i = 0; i < n; ++i) out[i] = Mul(a[i], b[i]);
      break;
    default:
      break;  // kDiv / kMod have their own null-producing loops
  }
}

/// Division: a zero divisor nulls the lane (branch-free select) instead of
/// trapping or producing inf.
template <typename A, typename B>
void DivLoop(const A a, const B b, size_t n, double* out, uint8_t* valid) {
  for (size_t i = 0; i < n; ++i) {
    double d = b[i];
    uint8_t nz = d != 0.0;
    out[i] = nz ? a[i] / d : 0.0;
    valid[i] &= nz;
  }
}

template <typename A, typename B>
void ModLoop(const A a, const B b, size_t n, int64_t* out, uint8_t* valid) {
  for (size_t i = 0; i < n; ++i) {
    int64_t d = b[i];
    out[i] = Mod(a[i], d);
    valid[i] &= d != 0;
  }
}

/// Evaluates a numeric subtree (numeric column ref / int64, double or NULL
/// literal / arithmetic) into a NumVec. nullopt = not a numeric operand
/// (the caller takes the generic path); a Status is an evaluation error —
/// arithmetic over a non-numeric operand, or MOD over a double.
Result<std::optional<NumVec>> EvalNum(const Expr& e, const RecordBatch& batch) {
  const size_t n = batch.num_rows();
  switch (e.kind()) {
    case Expr::Kind::kColumn: {
      BL_ASSIGN_OR_RETURN(const Column* col,
                          batch.ColumnByName(e.column_name()));
      return NumView(*col);
    }
    case Expr::Kind::kLiteral: {
      const Value& lit = e.literal();
      NumVec v;
      v.n = n;
      if (lit.is_null()) {
        // NULL is a numeric operand whose every lane is NULL.
        v.own_i64.assign(n, 0);
        v.own_valid.assign(n, 0);
        return std::optional<NumVec>(std::move(v));
      }
      v.is_scalar = true;
      if (lit.is_int64()) {
        v.s_i64 = lit.int64_value();
        return std::optional<NumVec>(std::move(v));
      }
      if (lit.is_double()) {
        v.is_double = true;
        v.s_f64 = lit.double_value();
        return std::optional<NumVec>(std::move(v));
      }
      return std::optional<NumVec>();  // string/bool literal
    }
    case Expr::Kind::kArith: {
      BL_ASSIGN_OR_RETURN(std::optional<NumVec> lo,
                          EvalNum(*e.children()[0], batch));
      BL_ASSIGN_OR_RETURN(std::optional<NumVec> ro,
                          EvalNum(*e.children()[1], batch));
      if (!lo.has_value() || !ro.has_value()) {
        return Status::InvalidArgument(
            "arithmetic requires numeric operands: " + e.ToString());
      }
      const NumVec& l = *lo;
      const NumVec& r = *ro;
      ArithOp op = e.arith_op();
      if (op == ArithOp::kMod && (l.is_double || r.is_double)) {
        return Status::InvalidArgument("MOD requires integer operands");
      }
      const bool dbl = l.is_double || r.is_double || op == ArithOp::kDiv;
      NumVec out;
      out.n = n;
      out.is_double = dbl;
      if (l.is_scalar && r.is_scalar) {
        // Constant folding; a constant zero divisor nulls every lane.
        if (dbl) {
          double a = l.scalar_as_double(), b = r.scalar_as_double();
          if (op == ArithOp::kDiv && b == 0) {
            out.own_f64.assign(n, 0.0);
            out.own_valid.assign(n, 0);
            return std::optional<NumVec>(std::move(out));
          }
          out.is_scalar = true;
          out.s_f64 = op == ArithOp::kAdd   ? Add(a, b)
                      : op == ArithOp::kSub ? Sub(a, b)
                      : op == ArithOp::kMul ? Mul(a, b)
                                            : a / b;
        } else {
          int64_t a = l.s_i64, b = r.s_i64;
          if (op == ArithOp::kMod && b == 0) {
            out.own_i64.assign(n, 0);
            out.own_valid.assign(n, 0);
            return std::optional<NumVec>(std::move(out));
          }
          out.is_scalar = true;
          out.s_i64 = op == ArithOp::kAdd   ? Add(a, b)
                      : op == ArithOp::kSub ? Sub(a, b)
                      : op == ArithOp::kMul ? Mul(a, b)
                                            : Mod(a, b);
        }
        return std::optional<NumVec>(std::move(out));
      }
      const uint8_t* merged = MergeValidity(l, r, n, &out.own_valid);
      if (dbl) {
        out.own_f64.resize(n);
        double* o = out.own_f64.data();
        std::vector<double> sl, sr;
        if (op == ArithOp::kDiv) {
          if (merged == nullptr) {
            out.own_valid.assign(n, 1);  // lanes may null out below
          }
          uint8_t* v = out.own_valid.data();
          if (l.is_scalar) {
            DivLoop(Broadcast<double>{l.scalar_as_double()},
                    Span<double>{AsDoubleSpan(r, n, &sr)}, n, o, v);
          } else if (r.is_scalar) {
            DivLoop(Span<double>{AsDoubleSpan(l, n, &sl)},
                    Broadcast<double>{r.scalar_as_double()}, n, o, v);
          } else {
            DivLoop(Span<double>{AsDoubleSpan(l, n, &sl)},
                    Span<double>{AsDoubleSpan(r, n, &sr)}, n, o, v);
          }
        } else if (l.is_scalar) {
          ArithLoop(op, Broadcast<double>{l.scalar_as_double()},
                    Span<double>{AsDoubleSpan(r, n, &sr)}, n, o);
        } else if (r.is_scalar) {
          ArithLoop(op, Span<double>{AsDoubleSpan(l, n, &sl)},
                    Broadcast<double>{r.scalar_as_double()}, n, o);
        } else {
          ArithLoop(op, Span<double>{AsDoubleSpan(l, n, &sl)},
                    Span<double>{AsDoubleSpan(r, n, &sr)}, n, o);
        }
        return std::optional<NumVec>(std::move(out));
      }
      out.own_i64.resize(n);
      int64_t* o = out.own_i64.data();
      if (op == ArithOp::kMod) {
        if (merged == nullptr) out.own_valid.assign(n, 1);
        uint8_t* v = out.own_valid.data();
        if (l.is_scalar) {
          ModLoop(Broadcast<int64_t>{l.s_i64}, Span<int64_t>{r.i64_data()}, n,
                  o, v);
        } else if (r.is_scalar) {
          ModLoop(Span<int64_t>{l.i64_data()}, Broadcast<int64_t>{r.s_i64}, n,
                  o, v);
        } else {
          ModLoop(Span<int64_t>{l.i64_data()}, Span<int64_t>{r.i64_data()}, n,
                  o, v);
        }
      } else if (l.is_scalar) {
        ArithLoop(op, Broadcast<int64_t>{l.s_i64}, Span<int64_t>{r.i64_data()},
                  n, o);
      } else if (r.is_scalar) {
        ArithLoop(op, Span<int64_t>{l.i64_data()}, Broadcast<int64_t>{r.s_i64},
                  n, o);
      } else {
        ArithLoop(op, Span<int64_t>{l.i64_data()}, Span<int64_t>{r.i64_data()},
                  n, o);
      }
      return std::optional<NumVec>(std::move(out));
    }
    default:
      return std::optional<NumVec>();
  }
}

// ---------------------------------------------------------------------------
// Comparison kernels.
// ---------------------------------------------------------------------------

/// Cross-type-class comparisons have a constant outcome per Value::Compare's
/// type-tag ordering: bool < numeric < string. Returns the class rank of a
/// column type / non-null literal.
int TypeClassRank(DataType t) {
  if (t == DataType::kBool) return 0;
  if (IsStringPhysical(t)) return 2;
  return 1;  // int64 / timestamp / double
}

int TypeClassRank(const Value& v) {
  if (v.is_bool()) return 0;
  if (v.is_string()) return 2;
  return 1;
}

/// Column vs non-null literal of a *different* type class: every valid lane
/// gets the same constant result.
BoolVec CompareConstClass(CmpOp op, const Column& col, const Value& lit) {
  int c = Sign3(TypeClassRank(col.type()), TypeClassRank(lit));
  BoolVec out = Filled(col.length(), CmpResult(op, c));
  ApplyValidity(&out, col.has_validity() ? col.validity().data() : nullptr,
                nullptr);
  return out;
}

/// Encoded-data kernel: dictionary strings vs string literal — compares the
/// dictionary once (counted in METRIC_EXPR_DICT_COMPARES) and maps indices.
BoolVec CompareDictLit(CmpOp op, const Column& col, const std::string& lit) {
  const auto& dict = col.dictionary();
  std::vector<uint8_t> match(dict.size());
  for (size_t d = 0; d < dict.size(); ++d) {
    match[d] = CmpResult(op, dict[d].compare(lit)) ? 1 : 0;
  }
  DictComparesCounter()->Add(dict.size());
  const auto& idx = col.dict_indices();
  BoolVec out;
  out.data.resize(idx.size());
  uint8_t* o = out.data.data();
  const uint32_t* ix = idx.data();
  const uint8_t* m = match.data();
  for (size_t i = 0; i < idx.size(); ++i) o[i] = m[ix[i]];
  ApplyValidity(&out, col.has_validity() ? col.validity().data() : nullptr,
                nullptr);
  return out;
}

/// Encoded-data kernel: RLE int64 vs numeric literal — one comparison per
/// run. RLE columns carry no nulls.
template <typename T>
BoolVec CompareRleLit(CmpOp op, const Column& col, T lit) {
  const auto& values = col.run_values();
  const auto& lengths = col.run_lengths();
  BoolVec out;
  out.data.resize(col.length());
  size_t pos = 0;
  for (size_t r = 0; r < values.size(); ++r) {
    uint8_t m = CmpResult(op, Sign3(static_cast<T>(values[r]), lit)) ? 1 : 0;
    std::fill_n(out.data.begin() + static_cast<ptrdiff_t>(pos), lengths[r], m);
    pos += lengths[r];
  }
  return out;
}

/// Column vs non-null literal (operator already mirrored so the column is on
/// the left). Covers every type/encoding combination without boxing.
BoolVec CompareColumnLit(CmpOp op, const Column& col, const Value& lit) {
  const size_t n = col.length();
  if (col.encoding() == Encoding::kDictionary) {
    if (lit.is_string()) return CompareDictLit(op, col, lit.string_value());
    return CompareConstClass(op, col, lit);
  }
  if (col.encoding() == Encoding::kRunLength) {
    if (lit.is_int64()) return CompareRleLit<int64_t>(op, col,
                                                      lit.int64_value());
    if (lit.is_double()) return CompareRleLit<double>(op, col,
                                                      lit.double_value());
    return CompareConstClass(op, col, lit);
  }
  const uint8_t* valid =
      col.has_validity() ? col.validity().data() : nullptr;
  BoolVec out;
  if (IsIntegerPhysical(col.type()) && (lit.is_int64() || lit.is_double())) {
    out.data.resize(n);
    if (lit.is_int64()) {
      CmpLoop(op, Span<int64_t>{col.int64_data().data()},
              Broadcast<int64_t>{lit.int64_value()}, n, out.data.data());
    } else {
      CmpLoop(op, I64AsDouble{col.int64_data().data()},
              Broadcast<double>{lit.double_value()}, n, out.data.data());
    }
    ApplyValidity(&out, valid, nullptr);
    return out;
  }
  if (col.type() == DataType::kDouble && (lit.is_int64() || lit.is_double())) {
    out.data.resize(n);
    CmpLoop(op, Span<double>{col.double_data().data()},
            Broadcast<double>{lit.AsDouble()}, n, out.data.data());
    ApplyValidity(&out, valid, nullptr);
    return out;
  }
  if (IsStringPhysical(col.type()) && lit.is_string()) {
    out.data.resize(n);
    const auto& data = col.string_data();
    const std::string& s = lit.string_value();
    for (size_t i = 0; i < n; ++i) {
      out.data[i] = CmpResult(op, data[i].compare(s)) ? 1 : 0;
    }
    ApplyValidity(&out, valid, nullptr);
    return out;
  }
  if (col.type() == DataType::kBool && lit.is_bool()) {
    out.data.resize(n);
    const uint8_t* d = col.bool_data().data();
    const int bl = lit.bool_value() ? 1 : 0;
    uint8_t* o = out.data.data();
    switch (op) {
      case CmpOp::kEq:
        for (size_t i = 0; i < n; ++i) o[i] = (d[i] != 0) == (bl != 0);
        break;
      case CmpOp::kNe:
        for (size_t i = 0; i < n; ++i) o[i] = (d[i] != 0) != (bl != 0);
        break;
      default:
        for (size_t i = 0; i < n; ++i) {
          o[i] = CmpResult(op, Sign3<int>(d[i] != 0, bl)) ? 1 : 0;
        }
        break;
    }
    ApplyValidity(&out, valid, nullptr);
    return out;
  }
  return CompareConstClass(op, col, lit);
}

/// Numeric span/scalar comparison with double promotion matching
/// Value::Compare: int64-vs-int64 compares exactly, anything involving a
/// double compares as doubles.
BoolVec CompareNum(CmpOp op, const NumVec& l, const NumVec& r, size_t n) {
  BoolVec out;
  const bool dbl = l.is_double || r.is_double;
  if (l.is_scalar && r.is_scalar) {
    bool bit = dbl ? CmpResult(op, Sign3(l.scalar_as_double(),
                                         r.scalar_as_double()))
                   : CmpResult(op, Sign3(l.s_i64, r.s_i64));
    return Filled(n, bit);
  }
  out.data.resize(n);
  uint8_t* o = out.data.data();
  if (!dbl) {
    if (l.is_scalar) {
      CmpLoop(op, Broadcast<int64_t>{l.s_i64}, Span<int64_t>{r.i64_data()}, n,
              o);
    } else if (r.is_scalar) {
      CmpLoop(op, Span<int64_t>{l.i64_data()}, Broadcast<int64_t>{r.s_i64}, n,
              o);
    } else {
      CmpLoop(op, Span<int64_t>{l.i64_data()}, Span<int64_t>{r.i64_data()}, n,
              o);
    }
  } else {
    std::vector<double> sl, sr;
    if (l.is_scalar) {
      CmpLoop(op, Broadcast<double>{l.scalar_as_double()},
              Span<double>{AsDoubleSpan(r, n, &sr)}, n, o);
    } else if (r.is_scalar) {
      CmpLoop(op, Span<double>{AsDoubleSpan(l, n, &sl)},
              Broadcast<double>{r.scalar_as_double()}, n, o);
    } else {
      CmpLoop(op, Span<double>{AsDoubleSpan(l, n, &sl)},
              Span<double>{AsDoubleSpan(r, n, &sr)}, n, o);
    }
  }
  ApplyValidity(&out, l.valid_data(), r.valid_data());
  return out;
}

/// The generic comparison: two decoded (plain) columns of any types,
/// compared lane by lane by type class. Different classes give a constant
/// per Value::Compare's type-tag ordering; numbers compare through the
/// numeric kernel; strings and bools compare directly.
BoolVec CompareColumns(CmpOp op, const Column& l, const Column& r) {
  const size_t n = l.length();
  const uint8_t* lv = l.has_validity() ? l.validity().data() : nullptr;
  const uint8_t* rv = r.has_validity() ? r.validity().data() : nullptr;
  const int lc = TypeClassRank(l.type()), rc = TypeClassRank(r.type());
  if (lc != rc) {
    BoolVec out = Filled(n, CmpResult(op, Sign3(lc, rc)));
    ApplyValidity(&out, lv, rv);
    return out;
  }
  if (lc == 1) return CompareNum(op, *NumView(l), *NumView(r), n);
  BoolVec out;
  out.data.resize(n);
  if (lc == 2) {
    const auto& a = l.string_data();
    const auto& b = r.string_data();
    for (size_t i = 0; i < n; ++i) {
      out.data[i] = CmpResult(op, a[i].compare(b[i])) ? 1 : 0;
    }
  } else {
    const uint8_t* a = l.bool_data().data();
    const uint8_t* b = r.bool_data().data();
    for (size_t i = 0; i < n; ++i) {
      out.data[i] = CmpResult(op, Sign3<int>(a[i] != 0, b[i] != 0)) ? 1 : 0;
    }
  }
  ApplyValidity(&out, lv, rv);
  return out;
}

// ---------------------------------------------------------------------------
// Predicate tree evaluation.
// ---------------------------------------------------------------------------

Result<BoolVec> EvalPredNode(const Expr& e, const RecordBatch& batch);

Status NotBool() {
  return Status::InvalidArgument("predicate does not evaluate to BOOL");
}

/// True when some lane of a validity span is NULL (an empty span: none).
bool AnyNull(const std::vector<uint8_t>& validity) {
  return std::find(validity.begin(), validity.end(), 0) != validity.end();
}

/// An arith result as a column: NULL lanes carry 0, validity only when some
/// lane is NULL.
Column NumVecToColumn(NumVec v) {
  const size_t n = v.n;
  if (v.is_scalar) {
    return *(v.is_double ? ConstantColumn(DataType::kDouble,
                                          Value::Double(v.s_f64), n)
                         : ConstantColumn(DataType::kInt64,
                                          Value::Int64(v.s_i64), n));
  }
  if (!AnyNull(v.own_valid)) {
    v.own_valid.clear();
  } else {
    const uint8_t* valid = v.own_valid.data();
    if (v.is_double) {
      double* d = v.own_f64.data();
      for (size_t i = 0; i < n; ++i) d[i] = valid[i] ? d[i] : 0.0;
    } else {
      int64_t* d = v.own_i64.data();
      for (size_t i = 0; i < n; ++i) d[i] = valid[i] ? d[i] : 0;
    }
  }
  return v.is_double ? Column::MakeDouble(std::move(v.own_f64),
                                          std::move(v.own_valid))
                     : Column::MakeInt64(std::move(v.own_i64),
                                         std::move(v.own_valid));
}

Result<BoolVec> EvalCompare(const Expr& e, const RecordBatch& batch) {
  const Expr& lhs = *e.children()[0];
  const Expr& rhs = *e.children()[1];
  const size_t n = batch.num_rows();
  // Both literal: one boxed comparison, broadcast as a fill.
  if (lhs.kind() == Expr::Kind::kLiteral &&
      rhs.kind() == Expr::Kind::kLiteral) {
    if (lhs.literal().is_null() || rhs.literal().is_null()) return AllNull(n);
    return Filled(n,
                  CmpResult(e.cmp_op(), lhs.literal().Compare(rhs.literal())));
  }
  // Column vs literal, either order (mirror the operator for lit-vs-col).
  const Expr* cexpr = nullptr;
  const Expr* lexpr = nullptr;
  CmpOp op = e.cmp_op();
  if (lhs.kind() == Expr::Kind::kColumn &&
      rhs.kind() == Expr::Kind::kLiteral) {
    cexpr = &lhs;
    lexpr = &rhs;
  } else if (lhs.kind() == Expr::Kind::kLiteral &&
             rhs.kind() == Expr::Kind::kColumn) {
    cexpr = &rhs;
    lexpr = &lhs;
    op = MirrorCmpOp(op);
  }
  if (cexpr != nullptr) {
    BL_ASSIGN_OR_RETURN(const Column* col,
                        batch.ColumnByName(cexpr->column_name()));
    if (lexpr->literal().is_null()) return AllNull(n);
    return CompareColumnLit(op, *col, lexpr->literal());
  }
  // Numeric span kernels for column/arith operands.
  BL_ASSIGN_OR_RETURN(std::optional<NumVec> lo, EvalNum(lhs, batch));
  if (lo.has_value()) {
    BL_ASSIGN_OR_RETURN(std::optional<NumVec> ro, EvalNum(rhs, batch));
    if (ro.has_value()) return CompareNum(e.cmp_op(), *lo, *ro, n);
  }
  // Everything else (strings, bools, encoded or mixed-class operands).
  BL_ASSIGN_OR_RETURN(Column l, EvaluateColumn(lhs, batch));
  BL_ASSIGN_OR_RETURN(Column r, EvaluateColumn(rhs, batch));
  return CompareColumns(e.cmp_op(), l.Decode(), r.Decode());
}

Result<BoolVec> EvalLogical(const Expr& e, const RecordBatch& batch) {
  if (e.logical_op() == LogicalOp::kNot) {
    BL_ASSIGN_OR_RETURN(BoolVec c, EvalPredNode(*e.children()[0], batch));
    const size_t n = c.size();
    BoolVec out;
    out.data.resize(n);
    out.validity = c.validity;
    uint8_t* o = out.data.data();
    const uint8_t* d = c.data.data();
    if (out.validity.empty()) {
      for (size_t i = 0; i < n; ++i) o[i] = d[i] ^ 1;
    } else {
      const uint8_t* v = out.validity.data();
      for (size_t i = 0; i < n; ++i) o[i] = (d[i] ^ 1) & v[i];
    }
    return out;
  }
  BL_ASSIGN_OR_RETURN(BoolVec l, EvalPredNode(*e.children()[0], batch));
  BL_ASSIGN_OR_RETURN(BoolVec r, EvalPredNode(*e.children()[1], batch));
  const size_t n = l.size();
  const bool is_and = e.logical_op() == LogicalOp::kAnd;
  BoolVec out;
  out.data.resize(n);
  uint8_t* o = out.data.data();
  const uint8_t* ld = l.data.data();
  const uint8_t* rd = r.data.data();
  if (l.validity.empty() && r.validity.empty()) {
    if (is_and) {
      for (size_t i = 0; i < n; ++i) o[i] = ld[i] & rd[i];
    } else {
      for (size_t i = 0; i < n; ++i) o[i] = ld[i] | rd[i];
    }
    return out;
  }
  // Kleene byte kernels. Null lanes carry data 0 by construction, so
  // `lv & ld` is "definitely true" and `lv & (ld ^ 1)` is "definitely
  // false" — no branches, just byte arithmetic.
  out.validity.resize(n);
  uint8_t* ov = out.validity.data();
  const uint8_t* lv = l.validity.empty() ? nullptr : l.validity.data();
  const uint8_t* rv = r.validity.empty() ? nullptr : r.validity.data();
  if (is_and) {
    for (size_t i = 0; i < n; ++i) {
      uint8_t lva = lv != nullptr ? lv[i] : 1;
      uint8_t rva = rv != nullptr ? rv[i] : 1;
      uint8_t f = (lva & (ld[i] ^ 1)) | (rva & (rd[i] ^ 1));  // FALSE wins
      o[i] = ld[i] & rd[i];  // true only when both valid-true
      ov[i] = f | (lva & rva);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint8_t lva = lv != nullptr ? lv[i] : 1;
      uint8_t rva = rv != nullptr ? rv[i] : 1;
      uint8_t t = ld[i] | rd[i];  // TRUE wins (null lanes carry 0)
      o[i] = t;
      ov[i] = t | (lva & rva);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Long IN-lists: the list resolves once into a typed set probed per lane.
// ---------------------------------------------------------------------------

/// Lists longer than this probe a typed set per lane; shorter ones keep one
/// accumulating flat loop per item, which is cheaper for a handful of items.
constexpr size_t kInListSetMinItems = 16;

/// Membership over int64 keys: a dense bitmap when the key span is small,
/// else a flat hash set.
class Int64Set {
 public:
  explicit Int64Set(const std::vector<int64_t>& keys) {
    if (keys.empty()) return;
    auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
    base_ = static_cast<uint64_t>(*lo);
    // Unsigned arithmetic: a span from INT64_MIN to INT64_MAX cannot
    // overflow.
    span_ = static_cast<uint64_t>(*hi) - base_;
    if (span_ < std::max<uint64_t>(keys.size() * 64, uint64_t{1} << 16)) {
      bits_.assign(span_ / 64 + 1, 0);
      for (int64_t k : keys) {
        const uint64_t off = static_cast<uint64_t>(k) - base_;
        bits_[off >> 6] |= uint64_t{1} << (off & 63);
      }
    } else {
      hash_ = FlatIdMap<int64_t>(keys.size());
      for (int64_t k : keys) hash_.Insert(k);
    }
  }

  /// o[i] |= (a[i] is in the set).
  void Probe(const int64_t* a, size_t n, uint8_t* o) const {
    if (!bits_.empty()) {
      const uint64_t* bits = bits_.data();
      for (size_t i = 0; i < n; ++i) {
        const uint64_t off = static_cast<uint64_t>(a[i]) - base_;
        o[i] |= off <= span_ && ((bits[off >> 6] >> (off & 63)) & 1) != 0;
      }
    } else if (hash_.size() > 0) {
      for (size_t i = 0; i < n; ++i) o[i] |= hash_.Contains(a[i]) ? 1 : 0;
    }
  }

 private:
  uint64_t base_ = 0;
  uint64_t span_ = 0;
  std::vector<uint64_t> bits_;
  FlatIdMap<int64_t> hash_;
};

int64_t DoubleKey(double d) {
  if (d == 0.0) d = 0.0;  // -0.0 equals 0.0
  int64_t key;
  std::memcpy(&key, &d, sizeof(key));
  return key;
}

/// Long numeric IN-list over a numeric lane span, with exactly the flat
/// loops' semantics: NULL and non-numeric items never match, NaN never
/// matches, -0.0 == 0.0, and an int64 lane equals a double item d iff
/// double(lane) == d (so above 2^53 one item can match several lanes).
void InListNumericSet(const NumVec& nv, const std::vector<Value>& items,
                      size_t n, uint8_t* o) {
  if (nv.is_double) {
    // Double lanes compare as doubles: key every item by its normalized
    // bit pattern. NaN items are dropped, so NaN lanes find nothing.
    FlatIdMap<int64_t> set(items.size());
    for (const Value& item : items) {
      if (item.is_int64()) {
        set.Insert(DoubleKey(static_cast<double>(item.int64_value())));
      } else if (item.is_double() && !std::isnan(item.double_value())) {
        set.Insert(DoubleKey(item.double_value()));
      }
    }
    const double* a = nv.f64_data();
    for (size_t i = 0; i < n; ++i) o[i] |= set.Contains(DoubleKey(a[i]));
    return;
  }
  // int64 lanes. double(lane) is always integral, and exact below 2^53: an
  // integral double item under 2^53 matches exactly that int64, a
  // fractional one nothing. Wider items (and infinities) can match lanes
  // that round onto them, so they are checked in double space.
  constexpr double kExact = 9007199254740992.0;  // 2^53
  std::vector<int64_t> keys;
  std::vector<double> wide;
  keys.reserve(items.size());
  for (const Value& item : items) {
    if (item.is_int64()) {
      keys.push_back(item.int64_value());
    } else if (item.is_double()) {
      const double d = item.double_value();
      if (std::isnan(d)) continue;
      if (std::fabs(d) >= kExact) {
        wide.push_back(d);
      } else if (d == std::trunc(d)) {
        keys.push_back(static_cast<int64_t>(d));
      }
    }
  }
  const int64_t* a = nv.i64_data();
  Int64Set(keys).Probe(a, n, o);
  if (!wide.empty()) {
    std::sort(wide.begin(), wide.end());
    for (size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(a[i]);
      if (std::fabs(x) >= kExact) {
        o[i] |= std::binary_search(wide.begin(), wide.end(), x) ? 1 : 0;
      }
    }
  }
}

/// IN-list over a plain string column: a typed set for long lists, else
/// one accumulating flat loop per item. Non-string items never match.
BoolVec InListStrings(const Column& col, const std::vector<Value>& items) {
  const size_t n = col.length();
  BoolVec out;
  out.data.assign(n, 0);
  const auto& data = col.string_data();
  uint8_t* o = out.data.data();
  if (items.size() > kInListSetMinItems) {
    FlatIdMap<std::string_view> set(items.size());
    for (const Value& item : items) {
      if (item.is_string()) set.Insert(item.string_value());
    }
    for (size_t i = 0; i < n; ++i) o[i] = set.Contains(data[i]) ? 1 : 0;
  } else {
    for (const Value& item : items) {
      if (!item.is_string()) continue;
      const std::string& s = item.string_value();
      for (size_t i = 0; i < n; ++i) o[i] |= data[i] == s;
    }
  }
  ApplyValidity(&out, col.has_validity() ? col.validity().data() : nullptr,
                nullptr);
  return out;
}

/// IN-list over a numeric span: a typed set for long lists, else one
/// accumulating flat loop per item. An empty list yields all-false (nulls
/// stay null).
BoolVec InListNumeric(const NumVec& nv, const std::vector<Value>& items,
                      size_t n) {
  BoolVec out;
  out.data.assign(n, 0);
  uint8_t* o = out.data.data();
  if (items.size() > kInListSetMinItems) {
    InListNumericSet(nv, items, n, o);
    ApplyValidity(&out, nv.valid_data(), nullptr);
    return out;
  }
  for (const Value& item : items) {
    if (item.is_null()) continue;  // NULL never equals anything
    if (item.is_int64()) {
      if (nv.is_double) {
        const double d = static_cast<double>(item.int64_value());
        const double* a = nv.f64_data();
        for (size_t i = 0; i < n; ++i) o[i] |= a[i] == d;
      } else {
        const int64_t v = item.int64_value();
        const int64_t* a = nv.i64_data();
        for (size_t i = 0; i < n; ++i) o[i] |= a[i] == v;
      }
    } else if (item.is_double()) {
      const double d = item.double_value();
      if (nv.is_double) {
        const double* a = nv.f64_data();
        for (size_t i = 0; i < n; ++i) o[i] |= a[i] == d;
      } else {
        const int64_t* a = nv.i64_data();
        for (size_t i = 0; i < n; ++i) {
          o[i] |= static_cast<double>(a[i]) == d;
        }
      }
    }
    // string/bool items never equal a numeric value (type-class ordering)
  }
  ApplyValidity(&out, nv.valid_data(), nullptr);
  return out;
}

Result<BoolVec> EvalInList(const Expr& e, const RecordBatch& batch) {
  const Expr& child = *e.children()[0];
  const size_t n = batch.num_rows();
  const std::vector<Value>& items = e.in_list();
  if (child.kind() == Expr::Kind::kColumn) {
    BL_ASSIGN_OR_RETURN(const Column* col,
                        batch.ColumnByName(child.column_name()));
    if (col->encoding() == Encoding::kDictionary) {
      // Encoded-data kernel: resolve the whole IN-list against the
      // dictionary, then map indices once.
      const auto& dict = col->dictionary();
      std::vector<uint8_t> dict_in(dict.size(), 0);
      for (const Value& item : items) {
        if (!item.is_string()) continue;  // non-string never equals a string
        const std::string& s = item.string_value();
        for (size_t d = 0; d < dict.size(); ++d) {
          dict_in[d] |= dict[d] == s;
        }
        DictComparesCounter()->Add(dict.size());
      }
      BoolVec out;
      out.data.resize(n);
      const uint32_t* ix = col->dict_indices().data();
      const uint8_t* m = dict_in.data();
      uint8_t* o = out.data.data();
      for (size_t i = 0; i < n; ++i) o[i] = m[ix[i]];
      ApplyValidity(&out,
                    col->has_validity() ? col->validity().data() : nullptr,
                    nullptr);
      return out;
    }
  }
  // Numeric child (plain/RLE column or arithmetic) probes its span directly.
  BL_ASSIGN_OR_RETURN(std::optional<NumVec> nv, EvalNum(child, batch));
  if (nv.has_value() && !nv->is_scalar) return InListNumeric(*nv, items, n);
  // Everything else is evaluated into a column and matched by type class.
  BL_ASSIGN_OR_RETURN(Column c, EvaluateColumn(child, batch));
  c = c.Decode();
  if (IsStringPhysical(c.type())) return InListStrings(c, items);
  if (c.type() != DataType::kBool) return InListNumeric(*NumView(c), items, n);
  BoolVec out;
  out.data.assign(n, 0);
  const uint8_t* d = c.bool_data().data();
  for (const Value& item : items) {
    if (!item.is_bool()) continue;  // only a bool equals a bool
    const uint8_t bit = item.bool_value() ? 1 : 0;
    for (size_t i = 0; i < n; ++i) out.data[i] |= (d[i] != 0) == bit;
  }
  ApplyValidity(&out, c.has_validity() ? c.validity().data() : nullptr,
                nullptr);
  return out;
}

Result<BoolVec> EvalPredNode(const Expr& e, const RecordBatch& batch) {
  switch (e.kind()) {
    case Expr::Kind::kLiteral: {
      const Value& lit = e.literal();
      if (lit.is_null()) return AllNull(batch.num_rows());
      if (lit.is_bool()) return Filled(batch.num_rows(), lit.bool_value());
      return NotBool();
    }
    case Expr::Kind::kColumn: {
      BL_ASSIGN_OR_RETURN(const Column* col,
                          batch.ColumnByName(e.column_name()));
      if (col->type() != DataType::kBool) return NotBool();
      BoolVec out;
      out.data = col->bool_data().ToVector();
      out.validity = col->validity().ToVector();
      if (!out.validity.empty()) {
        uint8_t* d = out.data.data();
        const uint8_t* v = out.validity.data();
        for (size_t i = 0; i < out.data.size(); ++i) d[i] &= v[i];
      }
      return out;
    }
    case Expr::Kind::kCompare:
      return EvalCompare(e, batch);
    case Expr::Kind::kLogical:
      return EvalLogical(e, batch);
    case Expr::Kind::kIsNull: {
      BL_ASSIGN_OR_RETURN(Column c, EvaluateColumn(*e.children()[0], batch));
      BoolVec out;
      out.data.assign(c.length(), 0);
      if (c.has_validity()) {
        const uint8_t* v = c.validity().data();
        for (size_t i = 0; i < out.data.size(); ++i) out.data[i] = v[i] ^ 1;
      }
      return out;
    }
    case Expr::Kind::kInList:
      return EvalInList(e, batch);
    case Expr::Kind::kArith:
      // Evaluated first so an arithmetic error surfaces as itself.
      BL_RETURN_NOT_OK(EvalNum(e, batch).status());
      return NotBool();
  }
  return Status::Internal("unreachable expr kind");
}

}  // namespace

std::vector<uint8_t> BoolVecToMask(const BoolVec& v) {
  // Null lanes already carry data 0, so the data *is* the mask.
  return v.data;
}

void AndMaskInPlace(std::vector<uint8_t>* mask,
                    const std::vector<uint8_t>& other) {
  uint8_t* m = mask->data();
  const uint8_t* o = other.data();
  const size_t n = mask->size();
  for (size_t i = 0; i < n; ++i) m[i] &= o[i];
}

Result<BoolVec> EvaluatePredicate(const Expr& expr, const RecordBatch& batch) {
  RowsEvaluatedCounter()->Add(batch.num_rows());
  return EvalPredNode(expr, batch);
}

Result<Column> EvaluateColumn(const Expr& e, const RecordBatch& batch) {
  const size_t n = batch.num_rows();
  switch (e.kind()) {
    case Expr::Kind::kColumn: {
      BL_ASSIGN_OR_RETURN(const Column* col,
                          batch.ColumnByName(e.column_name()));
      return *col;
    }
    case Expr::Kind::kLiteral: {
      BL_ASSIGN_OR_RETURN(DataType t, e.ResultType(*batch.schema()));
      return ConstantColumn(t, e.literal(), n);
    }
    case Expr::Kind::kArith: {
      BL_ASSIGN_OR_RETURN(std::optional<NumVec> v, EvalNum(e, batch));
      return NumVecToColumn(std::move(*v));
    }
    default: {
      BL_ASSIGN_OR_RETURN(BoolVec b, EvalPredNode(e, batch));
      if (!AnyNull(b.validity)) b.validity.clear();
      return Column::MakeBool(std::move(b.data), std::move(b.validity));
    }
  }
}

void ObserveSelectivity(uint64_t selected, uint64_t total) {
  if (total == 0) return;
  static obs::Histogram* h = obs::MetricsRegistry::Default().GetHistogram(
      METRIC_EXPR_SELECTIVITY, {}, &obs::DefaultSelectivityBounds());
  h->Observe(selected * 100 / total);
}

void CountSelectionMaterialization() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      METRIC_SELVEC_MATERIALIZATIONS);
  c->Increment();
}

}  // namespace kernels
}  // namespace biglake
