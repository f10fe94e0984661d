// Labeled source loop nests for every BLAS3 variant — the "Labeled
// Source Code" inputs of the paper's Fig 3 / Fig 14, expressed in the
// affine IR. These are what EPOD scripts transform.
//
// Loop labels follow the paper: Li over rows, Lj over columns, Lk over
// the reduction. Descending solves (e.g. TRSM-LU-N's backward
// substitution) are expressed with an ascending loop variable and
// reversed affine subscripts (i_logical = M - 1 - i), keeping every
// bound and subscript affine.
#pragma once

#include "blas3/matrix.hpp"
#include "blas3/routine.hpp"
#include "ir/kernel.hpp"
#include "support/status.hpp"

namespace oa::blas3 {

/// Build the source Program for `v`: one unoptimized kernel whose loop
/// nest matches the paper's labeled source listing, plus the global
/// array declarations (A, B, and C when the routine has a separate
/// output).
ir::Program make_source_program(const Variant& v);

/// Which global array is the routine's output ("C", or "B" for TRSM).
const char* output_array(const Variant& v);

/// OK when a call hands in the matrix the routine writes: every routine
/// but TRSM (which solves in place in B) needs a non-null `c`.
Status check_output(const Variant& v, const Matrix* c);

/// Size bindings (M, N, K) of one call, derived from its operand shapes
/// and trans-aware for GEMM (A is MxK or KxM, B is KxN or NxK). Every
/// executor binds sizes through this, so their results stay comparable
/// bit-for-bit. Refuses what check_output refuses, so no executor
/// dereferences a missing output.
StatusOr<ir::Env> call_size_env(const Variant& v, const Matrix& a,
                                const Matrix& b, const Matrix* c);

/// The "structured" input matrix the adaptors act on (always "A").
const char* structured_array(const Variant& v);

}  // namespace oa::blas3
