#include "blas3/source_ir.hpp"

#include <cassert>

namespace oa::blas3 {

using ir::AffineExpr;
using ir::ArrayRef;
using ir::AssignOp;
using ir::Bound;
using ir::ExprPtr;
using ir::Kernel;
using ir::MemSpace;
using ir::NodePtr;
using ir::Program;

namespace {

AffineExpr S(const char* name) { return AffineExpr::sym(name); }

NodePtr assign(ArrayRef lhs, AssignOp op, ExprPtr rhs) {
  return ir::make_assign(std::move(lhs), op, std::move(rhs));
}

ExprPtr mul_refs(ArrayRef x, ArrayRef y) {
  return ir::make_mul(ir::make_ref(std::move(x)), ir::make_ref(std::move(y)));
}

/// Wrap `inner` in Li (i over [0, M)) and Lj (j over [0, N)).
std::vector<NodePtr> ij_nest(std::vector<NodePtr> inner) {
  auto lj = ir::make_loop("Lj", "j", Bound(0), Bound(S("N")));
  lj->body = std::move(inner);
  auto li = ir::make_loop("Li", "i", Bound(0), Bound(S("M")));
  li->body.push_back(std::move(lj));
  std::vector<NodePtr> out;
  out.push_back(std::move(li));
  return out;
}

/// A k-loop with the given bounds around one or more statements.
NodePtr k_loop(Bound lb, Bound ub, std::vector<NodePtr> body) {
  auto lk = ir::make_loop("Lk", "k", std::move(lb), std::move(ub));
  lk->body = std::move(body);
  return lk;
}

std::vector<NodePtr> single(NodePtr n) {
  std::vector<NodePtr> v;
  v.push_back(std::move(n));
  return v;
}

// ----------------------------------------------------------------- GEMM

void build_gemm(const Variant& v, Program& p) {
  p.int_params = {"M", "N", "K"};
  p.globals = {
      {"A", MemSpace::kGlobal,
       v.trans_a == Trans::kN ? S("M") : S("K"),
       v.trans_a == Trans::kN ? S("K") : S("M"), 0},
      {"B", MemSpace::kGlobal,
       v.trans_b == Trans::kN ? S("K") : S("N"),
       v.trans_b == Trans::kN ? S("N") : S("K"), 0},
      {"C", MemSpace::kGlobal, S("M"), S("N"), 0},
  };
  ArrayRef a = v.trans_a == Trans::kN ? ArrayRef{"A", {S("i"), S("k")}}
                                      : ArrayRef{"A", {S("k"), S("i")}};
  ArrayRef b = v.trans_b == Trans::kN ? ArrayRef{"B", {S("k"), S("j")}}
                                      : ArrayRef{"B", {S("j"), S("k")}};
  auto stmt = assign(ArrayRef{"C", {S("i"), S("j")}}, AssignOp::kAddAssign,
                     mul_refs(std::move(a), std::move(b)));
  p.kernels.emplace_back();
  p.main_kernel().name = v.name();
  p.main_kernel().body =
      ij_nest(single(k_loop(Bound(0), Bound(S("K")), single(std::move(stmt)))));
}

// ----------------------------------------------------------------- SYMM

void build_symm(const Variant& v, Program& p) {
  p.int_params = {"M", "N"};
  const char* dim = v.side == Side::kLeft ? "M" : "N";
  p.globals = {
      {"A", MemSpace::kGlobal, S(dim), S(dim), 0},
      {"B", MemSpace::kGlobal, S("M"), S("N"), 0},
      {"C", MemSpace::kGlobal, S("M"), S("N"), 0},
  };
  std::vector<NodePtr> inner;
  if (v.side == Side::kLeft) {
    // Triangle iterated over (i, k), k < i; stored triangle selects the
    // subscript order of A.
    ArrayRef a = v.uplo == Uplo::kLower ? ArrayRef{"A", {S("i"), S("k")}}
                                        : ArrayRef{"A", {S("k"), S("i")}};
    std::vector<NodePtr> kbody;
    // Real area: contributes to C[i][j].
    kbody.push_back(assign(ArrayRef{"C", {S("i"), S("j")}},
                           AssignOp::kAddAssign,
                           mul_refs(a, ArrayRef{"B", {S("k"), S("j")}})));
    // Shadow area: contributes to C[k][j].
    kbody.push_back(assign(ArrayRef{"C", {S("k"), S("j")}},
                           AssignOp::kAddAssign,
                           mul_refs(a, ArrayRef{"B", {S("i"), S("j")}})));
    inner.push_back(k_loop(Bound(0), Bound(S("i")), std::move(kbody)));
    // Diagonal elements.
    inner.push_back(assign(
        ArrayRef{"C", {S("i"), S("j")}}, AssignOp::kAddAssign,
        mul_refs(ArrayRef{"A", {S("i"), S("i")}},
                 ArrayRef{"B", {S("i"), S("j")}})));
  } else {
    // C += B * A_sym, triangle iterated over (j, k), k < j.
    ArrayRef a = v.uplo == Uplo::kLower ? ArrayRef{"A", {S("j"), S("k")}}
                                        : ArrayRef{"A", {S("k"), S("j")}};
    std::vector<NodePtr> kbody;
    kbody.push_back(assign(ArrayRef{"C", {S("i"), S("j")}},
                           AssignOp::kAddAssign,
                           mul_refs(ArrayRef{"B", {S("i"), S("k")}}, a)));
    kbody.push_back(assign(ArrayRef{"C", {S("i"), S("k")}},
                           AssignOp::kAddAssign,
                           mul_refs(ArrayRef{"B", {S("i"), S("j")}}, a)));
    inner.push_back(k_loop(Bound(0), Bound(S("j")), std::move(kbody)));
    inner.push_back(assign(
        ArrayRef{"C", {S("i"), S("j")}}, AssignOp::kAddAssign,
        mul_refs(ArrayRef{"B", {S("i"), S("j")}},
                 ArrayRef{"A", {S("j"), S("j")}})));
  }
  p.kernels.emplace_back();
  p.main_kernel().name = v.name();
  p.main_kernel().body = ij_nest(std::move(inner));
}

// ----------------------------------------------------------------- TRMM

void build_trmm(const Variant& v, Program& p) {
  p.int_params = {"M", "N"};
  const char* dim = v.side == Side::kLeft ? "M" : "N";
  p.globals = {
      {"A", MemSpace::kGlobal, S(dim), S(dim), 0},
      {"B", MemSpace::kGlobal, S("M"), S("N"), 0},
      {"C", MemSpace::kGlobal, S("M"), S("N"), 0},
  };
  // k bounds: which k have a non-zero op(A) element (diagonal included).
  Bound lb(0), ub(0);
  ArrayRef a{"A", {}};
  ExprPtr rhs;
  if (v.side == Side::kLeft) {
    // C[i][j] += op(A)[i][k] * B[k][j].
    a.index = v.trans == Trans::kN
                  ? std::vector<AffineExpr>{S("i"), S("k")}
                  : std::vector<AffineExpr>{S("k"), S("i")};
    const bool lower_effective =
        (v.uplo == Uplo::kLower) == (v.trans == Trans::kN);
    if (lower_effective) {
      lb = Bound(0);
      ub = Bound(S("i") + 1);  // k <= i
    } else {
      lb = Bound(S("i"));
      ub = Bound(S("M"));
    }
    rhs = mul_refs(std::move(a), ArrayRef{"B", {S("k"), S("j")}});
  } else {
    // C[i][j] += B[i][k] * op(A)[k][j].
    a.index = v.trans == Trans::kN
                  ? std::vector<AffineExpr>{S("k"), S("j")}
                  : std::vector<AffineExpr>{S("j"), S("k")};
    // op(A)[k][j] non-zero: lower effective triangle -> k >= j.
    const bool lower_effective =
        (v.uplo == Uplo::kLower) == (v.trans == Trans::kN);
    if (lower_effective) {
      lb = Bound(S("j"));
      ub = Bound(S("N"));
    } else {
      lb = Bound(0);
      ub = Bound(S("j") + 1);  // k <= j
    }
    rhs = mul_refs(ArrayRef{"B", {S("i"), S("k")}}, std::move(a));
  }
  auto stmt = assign(ArrayRef{"C", {S("i"), S("j")}}, AssignOp::kAddAssign,
                     std::move(rhs));
  p.kernels.emplace_back();
  p.main_kernel().name = v.name();
  p.main_kernel().body = ij_nest(
      single(k_loop(std::move(lb), std::move(ub), single(std::move(stmt)))));
}

// ----------------------------------------------------------------- TRSM

void build_trsm(const Variant& v, Program& p) {
  p.int_params = {"M", "N"};
  const char* dim = v.side == Side::kLeft ? "M" : "N";
  p.globals = {
      {"A", MemSpace::kGlobal, S(dim), S(dim), 0},
      {"B", MemSpace::kGlobal, S("M"), S("N"), 0},
  };
  // Effective triangle of op(A): transposition flips it.
  const bool lower_effective =
      (v.uplo == Uplo::kLower) == (v.trans == Trans::kN);
  // Forward substitution when the effective triangle is lower (solve
  // dimension ascending); otherwise backward. Backward solves reverse
  // *both* the solve variable and the reduction variable in the
  // subscripts (row = M-1-i, dependency row = M-1-k), which keeps the
  // triangular bound in the canonical ascending form k < i that
  // peel/padding_triangular align tiles against.
  if (v.side == Side::kLeft) {
    // Solve rows: B[row][j] -= op(A)[row][krow] * B[krow][j] over the
    // already-solved rows.
    AffineExpr row = lower_effective ? S("i") : S("M") - S("i") - 1;
    AffineExpr krow = lower_effective ? S("k") : S("M") - S("k") - 1;
    Bound lb(0);
    Bound ub(S("i"));  // k < i: strictly earlier solve steps
    ArrayRef a = v.trans == Trans::kN ? ArrayRef{"A", {row, krow}}
                                      : ArrayRef{"A", {krow, row}};
    auto stmt =
        assign(ArrayRef{"B", {row, S("j")}}, AssignOp::kSubAssign,
               mul_refs(std::move(a), ArrayRef{"B", {krow, S("j")}}));
    p.kernels.emplace_back();
    p.main_kernel().name = v.name();
    p.main_kernel().body = ij_nest(
        single(k_loop(std::move(lb), std::move(ub), single(std::move(stmt)))));
  } else {
    // Solve columns: B[i][col] -= B[i][kcol] * op(A)[kcol][col] over the
    // already-solved columns. Lower effective triangle -> backward.
    const bool forward = !lower_effective;
    AffineExpr col = forward ? S("j") : S("N") - S("j") - 1;
    AffineExpr kcol = forward ? S("k") : S("N") - S("k") - 1;
    Bound lb(0);
    Bound ub(S("j"));  // k < j
    ArrayRef a = v.trans == Trans::kN ? ArrayRef{"A", {kcol, col}}
                                      : ArrayRef{"A", {col, kcol}};
    auto stmt =
        assign(ArrayRef{"B", {S("i"), col}}, AssignOp::kSubAssign,
               mul_refs(ArrayRef{"B", {S("i"), kcol}}, std::move(a)));
    // For right-side solves the dependence runs along j: put Lj
    // outermost so thread_grouping can serialize it.
    auto lk = k_loop(std::move(lb), std::move(ub), single(std::move(stmt)));
    auto li = ir::make_loop("Li", "i", Bound(0), Bound(S("M")));
    li->body.push_back(std::move(lk));
    auto lj = ir::make_loop("Lj", "j", Bound(0), Bound(S("N")));
    lj->body.push_back(std::move(li));
    p.kernels.emplace_back();
    p.main_kernel().name = v.name();
    p.main_kernel().body = single(std::move(lj));
  }
}

// ----------------------------------------------------------------- SYRK

void build_syrk(const Variant& v, Program& p) {
  // Extension routine (the paper's future work): the triangular index
  // space is on the *output* — for uplo = Lower only C[i][j], j <= i,
  // is computed. A is M x K (N) or K x M (T); the second operand is A
  // itself read in the transposed role.
  p.int_params = {"M", "N", "K"};  // N unused; kept for a uniform API
  p.globals = {
      {"A", MemSpace::kGlobal,
       v.trans == Trans::kN ? S("M") : S("K"),
       v.trans == Trans::kN ? S("K") : S("M"), 0},
      {"C", MemSpace::kGlobal, S("M"), S("M"), 0},
  };
  ArrayRef a1 = v.trans == Trans::kN ? ArrayRef{"A", {S("i"), S("k")}}
                                     : ArrayRef{"A", {S("k"), S("i")}};
  ArrayRef a2 = v.trans == Trans::kN ? ArrayRef{"A", {S("j"), S("k")}}
                                     : ArrayRef{"A", {S("k"), S("j")}};
  auto stmt = assign(ArrayRef{"C", {S("i"), S("j")}}, AssignOp::kAddAssign,
                     mul_refs(std::move(a1), std::move(a2)));
  auto lk = k_loop(Bound(0), Bound(S("K")), single(std::move(stmt)));
  // Triangular j range: j <= i (lower) or j >= i (upper).
  auto lj = ir::make_loop("Lj", "j",
                          v.uplo == Uplo::kLower ? Bound(0) : Bound(S("i")),
                          v.uplo == Uplo::kLower ? Bound(S("i") + 1)
                                                 : Bound(S("M")));
  lj->body.push_back(std::move(lk));
  auto li = ir::make_loop("Li", "i", Bound(0), Bound(S("M")));
  li->body.push_back(std::move(lj));
  p.kernels.emplace_back();
  p.main_kernel().name = v.name();
  p.main_kernel().body = single(std::move(li));
}

}  // namespace

Program make_source_program(const Variant& v) {
  Program p;
  p.name = v.name();
  p.precision = v.precision;
  switch (v.family) {
    case Family::kGemm: build_gemm(v, p); break;
    case Family::kSymm: build_symm(v, p); break;
    case Family::kTrmm: build_trmm(v, p); break;
    case Family::kTrsm: build_trsm(v, p); break;
    case Family::kSyrk: build_syrk(v, p); break;
  }
  // Batched families reuse the member loop nest unchanged: the arrays
  // and kernels describe one batch member, and the batch dimension is
  // an execution/pricing attribute (per_member until a batch_grouping
  // component picks the layout).
  if (v.batch != Batch::kSingle) {
    p.batched = true;
    p.batch_grouping = ir::BatchGrouping::kPerMember;
  }
  return p;
}

const char* output_array(const Variant& v) {
  return v.family == Family::kTrsm ? "B" : "C";
}

Status check_output(const Variant& v, const Matrix* c) {
  if (v.family != Family::kTrsm && c == nullptr) {
    return invalid_argument(v.name() + " needs an output matrix c");
  }
  return Status::ok();
}

StatusOr<ir::Env> call_size_env(const Variant& v, const Matrix& a,
                                const Matrix& b, const Matrix* c) {
  OA_RETURN_IF_ERROR(check_output(v, c));
  if (v.family == Family::kGemm) {
    // B's rows are the reduction length for trans_b=N, not M.
    return ir::Env{{"M", v.trans_a == Trans::kN ? a.rows() : a.cols()},
                   {"N", v.trans_b == Trans::kN ? b.cols() : b.rows()},
                   {"K", v.trans_a == Trans::kN ? a.cols() : a.rows()}};
  }
  if (v.family == Family::kSyrk) {
    return ir::Env{{"M", c->rows()},
                   {"N", b.cols()},
                   {"K", v.trans == Trans::kN ? a.cols() : a.rows()}};
  }
  return ir::Env{{"M", b.rows()}, {"N", b.cols()}};
}

const char* structured_array(const Variant&) { return "A"; }

}  // namespace oa::blas3
