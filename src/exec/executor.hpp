// Native execution of compiled kernels: lowering (tape.hpp) plus a
// process-wide cache of executable kernels, each backed either by
// JIT-emitted x86-64 (jit_x86.hpp) or by the portable tape executor —
// two implementations of the same segment ABI
//     void seg(double* const* arrays, const int64_t* slots)
// selected at runtime. execute() is the one program runner: a single
// call is a batch of one, sizes come from blas3::call_size_env and every
// kernel passes gpusim::compile_launchable, so results compare
// bit-for-bit with the interpreter (engine::execute_program).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "blas3/matrix.hpp"
#include "blas3/routine.hpp"
#include "exec/code_buffer.hpp"
#include "exec/tape.hpp"
#include "gpusim/block_sim.hpp"
#include "gpusim/device.hpp"
#include "ir/kernel.hpp"

namespace oa::exec {

struct ExecOptions {
  /// Skip the JIT even when the host supports it; run every segment
  /// through the portable tape executor. Also forced by the
  /// OABLAS_NO_JIT environment variable (checked once per process).
  bool force_portable = false;
};

struct ExecStats {
  int64_t compiles = 0;          // lowerings performed (cache misses)
  int64_t cache_hits = 0;
  int64_t jit_kernels = 0;       // compiles that produced machine code
  int64_t portable_kernels = 0;  // compiles that fell back to the tape
  int64_t failed_lowerings = 0;  // kernels the backend cannot lower
  int64_t native_blocks = 0;     // thread blocks executed natively
};

/// Per-segment entry point (SysV; the portable executor matches the
/// calling convention at the C++ level).
using SegmentFn = void (*)(double* const* arrays, const int64_t* slots);

/// A lowered kernel ready to run: the driver tree plus, when the JIT
/// succeeded, one native entry point per segment.
struct ExecutedKernel {
  LoweredKernel lowered;
  uint64_t key = 0;
  bool jit = false;
  std::unique_ptr<CodeBuffer> code;   // owns the machine code (jit only)
  std::vector<const void*> entries;   // per-segment, jit only
};

/// Keyed, thread-safe cache of executable kernels. Lowering failures
/// are negatively cached (a kernel that cannot be lowered today cannot
/// be lowered on retry either — the input is content-addressed).
class ExecCache {
 public:
  /// Lower + (maybe) JIT `ck`, or return the cached result. A JIT
  /// emission failure (W^X refusal, unsupported host) degrades to the
  /// portable executor and is cached as such.
  StatusOr<std::shared_ptr<const ExecutedKernel>> get_or_compile(
      const gpusim::CompiledKernel& ck, const ExecOptions& options = {});

  ExecStats stats() const;
  void count_native_blocks(int64_t n);

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const ExecutedKernel>> kernels_;
  std::map<uint64_t, Status> failures_;
  ExecStats stats_;
};

/// One call's operands as member spans, one matrix per batch member: a
/// single call is a batch of one. `c` is empty for a routine without a
/// C operand (TRSM).
struct Members {
  std::span<const blas3::Matrix> a;
  std::span<blas3::Matrix> b;
  std::span<blas3::Matrix> c;

  static Members one(const blas3::Matrix& a, blas3::Matrix& b,
                     blas3::Matrix* c) {
    return {{&a, 1}, {&b, 1}, {c, c != nullptr ? 1u : 0u}};
  }
  static Members of(const std::vector<blas3::Matrix>& a,
                    std::vector<blas3::Matrix>& b,
                    std::vector<blas3::Matrix>* c) {
    return {a, b, c != nullptr ? std::span<blas3::Matrix>(*c)
                               : std::span<blas3::Matrix>()};
  }
  size_t count() const { return a.size(); }
  blas3::Matrix* c_at(size_t i) const {
    return c.empty() ? nullptr : &c[i];
  }
};

/// The operand agreement every execution path requires: at least one
/// member, as many B (and, when given, C) members as A members, and C
/// members wherever the routine writes C. invalid_argument otherwise.
Status check_members(const blas3::Variant& v, const Members& m);

/// Gate (gpusim::compile_launchable), lower and, where the host allows,
/// JIT every kernel of `program` at `int_params` through `cache`. The
/// runner's compile step; LibraryRuntime's pre-warm calls it too, so
/// the kernels it warms are the ones serving looks up.
StatusOr<std::vector<std::shared_ptr<const ExecutedKernel>>>
compile_program(const gpusim::DeviceModel& device,
                const ir::Program& program, const ir::Env& int_params,
                const std::map<std::string, bool>& bool_params,
                ExecCache& cache, const ExecOptions& options = {});

/// Execute every block of `ek` for `count` batch members against bound
/// global buffers, each holding the members back to back — the native
/// analogue of Simulator::run_functional for one kernel: one wave loop
/// over count x blocks-per-wave independent blocks, serialized grid-Y
/// respected. Reports out-of-bounds accesses with the interpreter's
/// diagnostic format.
Status run_lowered(const ExecutedKernel& ek, gpusim::GlobalBuffers& buffers,
                   int64_t count, ExecCache* stats);

/// The program runner: compile every kernel once, stage each global with
/// member m at offset m * member elements (a batch of one is a plain
/// make_buffers), run every member's blocks through one wave loop per
/// kernel — the fused launch the batch_tiled grouping prices — and read
/// each member's output back into `b` (TRSM) or `c`. Outputs are only
/// written on success. Members must share one member shape.
Status execute(const gpusim::DeviceModel& device, const ir::Program& program,
               const blas3::Variant& variant, const Members& m,
               const std::map<std::string, bool>& bool_params,
               ExecCache& cache, const ExecOptions& options = {});

/// execute() on a single call.
Status execute_program(const gpusim::DeviceModel& device,
                       const ir::Program& program,
                       const blas3::Variant& variant,
                       const blas3::Matrix& a, blas3::Matrix& b,
                       blas3::Matrix* c,
                       const std::map<std::string, bool>& bool_params,
                       ExecCache& cache, const ExecOptions& options = {});

/// execute() on a batched call: one matrix per member in each operand
/// vector; engine::execute_batched is its loop-of-members oracle.
Status execute_batched(const gpusim::DeviceModel& device,
                       const ir::Program& program,
                       const blas3::Variant& variant,
                       const std::vector<blas3::Matrix>& a,
                       std::vector<blas3::Matrix>& b,
                       std::vector<blas3::Matrix>* c,
                       const std::map<std::string, bool>& bool_params,
                       ExecCache& cache, const ExecOptions& options = {});

}  // namespace oa::exec
