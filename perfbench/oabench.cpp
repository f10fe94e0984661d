// OABLAS benchmark program (README.md in this directory).
//
//   $ oabench --workload serve_large|serve_small --seed N --seconds S
//             --trace 0|1 [--workdir DIR]
//
// Measures the two user-facing jobs of the library from outside, by
// timing its own calls into the public API:
//
//   generation — a cold OaFramework (no artifact, no warm start) tunes
//                the workload's variant set; the kernels are then
//                priced at n=4096 next to the CUBLAS-like baseline and
//                exported as a library artifact;
//   serving    — the artifact goes through libgen save -> load into a
//                native LibraryRuntime that answers seeded requests,
//                every output checked against blas3::run_reference.
//
// With --trace 0 the last stdout line is the end-to-end result; with
// --trace 1 spans are recorded around every call into a layer, the
// per-layer probes run (exec vs the naive loop, host roofline,
// dispatch cost, runtime overhead), a self-time table and an
// additivity check are printed, the spans are written as Chrome trace
// JSON into --workdir, and the last line carries the per-layer
// metrics. Inputs and request order are a pure function of
// (workload, seed).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/baseline.hpp"
#include "blas3/matrix.hpp"
#include "blas3/reference.hpp"
#include "blas3/routine.hpp"
#include "exec/executor.hpp"
#include "exec/jit_x86.hpp"
#include "gpusim/device.hpp"
#include "libgen/artifact.hpp"
#include "oa/oa.hpp"
#include "runtime/library_runtime.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace {

using oa::Rng;
using oa::blas3::Matrix;
using oa::blas3::Variant;
using oa::runtime::DispatchOutcome;
using oa::runtime::LibraryRuntime;

// ---------------------------------------------------------------------
// Time and statistics.

using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

uint64_t mix_seed(uint64_t seed, const std::string& salt) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the salt
  for (unsigned char ch : salt) h = (h ^ ch) * 0x100000001b3ull;
  return h ^ (seed * 0x9E3779B97F4A7C15ull);
}

// ---------------------------------------------------------------------
// Tracing: spans around the benchmark's own calls into each layer.
// Kept in memory, written once at exit. A span's parent is the
// innermost open span on its thread; spans of one request share its
// request id.

struct SpanRecord {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  uint32_t tid;
  double start_us;
  double end_us;
};

class Tracer {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  uint64_t next_id() {
    return next_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const SpanRecord& r) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(r);
  }
  std::vector<SpanRecord> spans(size_t from = 0) const {
    std::lock_guard<std::mutex> lock(mu_);
    return {spans_.begin() + std::min(from, spans_.size()), spans_.end()};
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> next_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;
const double g_epoch_s = now_s();
thread_local uint64_t t_span = 0;
thread_local uint64_t t_request = 0;
std::atomic<uint32_t> g_next_tid{1};
thread_local const uint32_t t_tid = g_next_tid.fetch_add(1);

double trace_us() { return (now_s() - g_epoch_s) * 1e6; }

class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0) {
    if (!g_tracer.on()) return;
    on_ = true;
    rec_.name = name;
    rec_.id = g_tracer.next_id();
    rec_.parent = t_span;
    saved_request_ = t_request;
    rec_.request = request != 0 ? request : t_request;
    rec_.tid = t_tid;
    t_span = rec_.id;
    t_request = rec_.request;
    rec_.start_us = trace_us();
  }
  ~Span() {
    if (!on_) return;
    rec_.end_us = trace_us();
    t_span = rec_.parent;
    t_request = saved_request_;
    g_tracer.record(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_ = false;
  uint64_t saved_request_ = 0;
  SpanRecord rec_{};
};

struct SelfRow {
  int64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Self time of a span: its duration minus the part its children
/// cover (children never outlive their parent here).
std::unordered_map<uint64_t, double> child_time(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, double> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent] += s.end_us - s.start_us;
  }
  return children;
}

std::map<std::string, SelfRow> self_table(
    const std::vector<SpanRecord>& spans) {
  const auto children = child_time(spans);
  std::map<std::string, SelfRow> table;
  for (const SpanRecord& s : spans) {
    const double dur = s.end_us - s.start_us;
    auto it = children.find(s.id);
    SelfRow& row = table[s.name];
    ++row.count;
    row.total_us += dur;
    row.self_us += dur - (it == children.end() ? 0.0 : it->second);
  }
  return table;
}

bool write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{"
                  "\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                  i == 0 ? "" : ",\n", s.name, s.start_us,
                  s.end_us - s.start_us, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// Metrics, printed in declaration order.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class MetricList {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) non_finite_.push_back(name);
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }
  /// Metrics that came out NaN or infinite (printed as null).
  const std::vector<std::string>& non_finite() const { return non_finite_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> non_finite_;
};

// ---------------------------------------------------------------------
// Requests: a shape, seeded operands and the reference output.

constexpr int64_t kTuningSize = 256;
constexpr int64_t kMeasureSize = 4096;
constexpr size_t kGenJobs = 4;
// Hot reloads of the same artifact during the serving loop, and
// start-ups (load + construct) of a second runtime beside it, spread
// over the loop so that setup_s is a median over the whole run.
constexpr double kSwapPeriodS = 0.05;
constexpr double kSetupPeriodS = 0.2;
// Additivity tolerances (traced runs): the set-up spans must cover
// the set-up stopwatch, and a traced serve must match an untraced one.
constexpr double kSetupCoverTol = 0.02;
constexpr double kServeRatioTol = 0.05;
constexpr size_t kAdditivityMinPairs = 51;

struct Shape {
  std::string label;
  const Variant* v = nullptr;
  int64_t m = 0, n = 0, k = 0;
  int64_t count = 0;  // batch members; 0 = single call
  int weight = 1;  // copies per request-order block
};

const Variant& variant(const std::string& name) {
  const Variant* v = oa::blas3::find_variant(name);
  if (v == nullptr) {
    std::fprintf(stderr, "oabench: unknown variant %s\n", name.c_str());
    std::exit(1);
  }
  return *v;
}

Shape square(const std::string& label, const std::string& name, int64_t n,
             int weight = 1) {
  return {label, &variant(name), n, n, n, 0, weight};
}

struct Request {
  const Shape* shape = nullptr;
  size_t shape_index = 0;  // position of `shape` in the workload's list
  std::vector<Matrix> a, b, c;  // operands; single calls use [0]
  std::vector<Matrix> expect;   // reference output per member
  double flops = 0.0;
  double tol = 0.0;
};

bool is_trsm(const Variant& v) {
  return v.family == oa::blas3::Family::kTrsm;
}

void make_member(const Shape& s, Rng& rng, Matrix* a, Matrix* b,
                 Matrix* c) {
  const Variant& v = *s.v;
  const oa::Precision p = v.precision;
  if (v.family == oa::blas3::Family::kGemm) {
    const bool ta = v.trans_a == oa::blas3::Trans::kT;
    const bool tb = v.trans_b == oa::blas3::Trans::kT;
    *a = Matrix(ta ? s.k : s.m, ta ? s.m : s.k, p);
    *b = Matrix(tb ? s.n : s.k, tb ? s.k : s.n, p);
  } else {
    const int64_t side = v.side == oa::blas3::Side::kLeft ? s.m : s.n;
    *a = Matrix(side, side, p);
    *b = Matrix(s.m, s.n, p);
  }
  *c = Matrix(s.m, s.n, p);
  a->fill_random(rng);
  b->fill_random(rng);
  if (v.family != oa::blas3::Family::kGemm) a->make_triangular(v.uplo);
  if (is_trsm(v)) {
    a->set_unit_diagonal();
    a->scale_off_diagonal(1.0f / 16.0f);  // well-conditioned solve
  }
}

Request make_request(const Shape& s, Rng& rng) {
  Request r;
  r.shape = &s;
  const int64_t members = std::max<int64_t>(s.count, 1);
  r.a.resize(members);
  r.b.resize(members);
  r.c.resize(members);
  for (int64_t i = 0; i < members; ++i) {
    make_member(s, rng, &r.a[i], &r.b[i], &r.c[i]);
    Matrix b = r.b[i], c = r.c[i];
    oa::blas3::run_reference(*s.v, r.a[i], b, &c);
    r.expect.push_back(is_trsm(*s.v) ? std::move(b) : std::move(c));
  }
  r.flops = oa::blas3::nominal_flops(*s.v, s.m, s.n, s.k) *
            static_cast<double>(members);
  const int64_t inner =
      s.v->family == oa::blas3::Family::kGemm
          ? s.k
          : (s.v->side == oa::blas3::Side::kLeft ? s.m : s.n);
  r.tol = oa::blas3::accumulation_tolerance(inner, s.v->precision);
  return r;
}

/// True when every member's output matches the reference.
bool output_matches(const Request& r, const std::vector<Matrix>& b,
                    const std::vector<Matrix>& c) {
  const std::vector<Matrix>& out = is_trsm(*r.shape->v) ? b : c;
  for (size_t i = 0; i < r.expect.size(); ++i) {
    if (out[i].rows() != r.expect[i].rows() ||
        out[i].cols() != r.expect[i].cols() ||
        oa::blas3::max_abs_diff(out[i], r.expect[i]) > r.tol) {
      return false;
    }
  }
  return true;
}

/// `per_shape` seeded inputs for every shape (reference computed here,
/// in set-up, untimed). The requests point into `shapes`.
std::vector<Request> make_pool(const std::vector<Shape>& shapes,
                               int per_shape, uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> pool;
  for (size_t si = 0; si < shapes.size(); ++si) {
    for (int i = 0; i < per_shape; ++i) {
      pool.push_back(make_request(shapes[si], rng));
      pool.back().shape_index = si;
    }
  }
  return pool;
}

/// Seeded request order: consecutive blocks in which every pool entry
/// appears `weight` times, each block shuffled, so every stretch of the
/// stream carries the workload's mix.
std::vector<size_t> make_order(const std::vector<Request>& pool,
                               size_t length, uint64_t seed) {
  std::vector<size_t> block;
  for (size_t i = 0; i < pool.size(); ++i) {
    block.insert(block.end(), pool[i].shape->weight, i);
  }
  Rng rng(seed);
  std::vector<size_t> order;
  while (order.size() < length) {
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.next_u64() % i]);
    }
    order.insert(order.end(), block.begin(), block.end());
  }
  order.resize(length);
  return order;
}

// ---------------------------------------------------------------------
// Serving loops.

struct CallResult {
  bool error = false;
  bool shed = false;
};

CallResult serve_call(const LibraryRuntime& rt, const Request& r,
                      std::vector<Matrix>& b, std::vector<Matrix>& c) {
  CallResult res;
  oa::StatusOr<DispatchOutcome> outcome = DispatchOutcome::kHit;
  {
    Span span("runtime.serve");
    outcome = r.shape->count > 0
                  ? rt.serve_batched(*r.shape->v, r.a, b, &c)
                  : rt.serve(*r.shape->v, r.a[0], b[0], &c[0]);
  }
  if (!outcome.is_ok()) {
    res.error = true;
  } else if (*outcome == DispatchOutcome::kShed) {
    res.shed = true;
  }
  return res;
}

struct LoopStats {
  std::vector<std::vector<double>> shape_ms;  // correct requests' latency
                                              // by shape index
  std::vector<double> shape_flops;            // flops of one request
  int64_t served = 0;                         // correct requests
  std::vector<double> swap_ms;
  int64_t attempted = 0;
  int64_t errors = 0;
  int64_t mismatches = 0;
  int64_t shed = 0;
  int64_t swap_errors = 0;
  int64_t setups = 0;
  int64_t setup_errors = 0;
  double elapsed_s = 0.0;
};

/// Serve request `index` of the stream into the caller's fresh copies
/// of its outputs; latency counts from `start_s`.
void serve_one(const LibraryRuntime& rt, const Request& r, uint64_t index,
               std::vector<Matrix>& b, std::vector<Matrix>& c, double start_s,
               LoopStats* st) {
  Span request("request", index + 1);
  const CallResult res = serve_call(rt, r, b, c);
  const double done = now_s();
  ++st->attempted;
  if (res.error) {
    ++st->errors;
    return;
  }
  if (res.shed) {
    ++st->shed;
    return;
  }
  Span check("bench.check");
  if (!output_matches(r, b, c)) {
    ++st->mismatches;
    return;
  }
  st->shape_ms[r.shape_index].push_back((done - start_s) * 1e3);
  ++st->served;
}

/// Hot reload of the same artifact, timed as its caller sees it.
void timed_swap(LibraryRuntime& rt, const oa::libgen::Artifact& artifact,
                LoopStats* st) {
  oa::libgen::Artifact copy = artifact;
  const double t0 = now_s();
  oa::Status status = oa::Status::ok();
  {
    Span span("runtime.swap_artifact");
    status = rt.swap_artifact(std::move(copy));
  }
  st->swap_ms.push_back((now_s() - t0) * 1e3);
  ++st->attempted;
  if (!status.is_ok()) ++st->swap_errors;
}

/// Start-up times of a deployed consumer: libgen load of the saved
/// artifact plus LibraryRuntime construction with prewarm.
struct SetupTimes {
  std::vector<double> load_ms, construct_ms, setup_s;
};

/// One start-up from `path`, timed into `t`; null on a load error.
std::unique_ptr<LibraryRuntime> timed_setup(
    const oa::gpusim::DeviceModel& device, const std::string& path,
    const oa::runtime::RuntimeOptions& ropt, SetupTimes* t,
    oa::libgen::Artifact* artifact = nullptr) {
  const double t0 = now_s();
  Span setup("runtime.setup");
  oa::StatusOr<oa::libgen::Artifact> loaded = [&] {
    Span span("libgen.load");
    return oa::libgen::load(path);
  }();
  const double t1 = now_s();
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "oabench: load: %s\n",
                 loaded.status().to_string().c_str());
    return nullptr;
  }
  if (artifact != nullptr) *artifact = *loaded;
  std::unique_ptr<LibraryRuntime> rt;
  {
    Span span("runtime.construct");
    rt = std::make_unique<LibraryRuntime>(device, std::move(*loaded), ropt);
  }
  const double t2 = now_s();
  t->load_ms.push_back((t1 - t0) * 1e3);
  t->construct_ms.push_back((t2 - t1) * 1e3);
  t->setup_s.push_back(t2 - t0);
  return rt;
}

/// Closed loop of one client: it sends its next request as soon as
/// the previous one completes, until `seconds` have passed. Between two
/// requests it reloads the artifact once kSwapPeriodS has passed since
/// its last reload, and calls `setup` (a start-up of a second runtime)
/// once kSetupPeriodS has passed since its last one. (More clients, or
/// a reload thread of their own, contend with the runtime's 4 pool
/// workers for the 4 vCPUs, which made every figure swing from run to
/// run.)
template <typename SetupFn>
LoopStats closed_loop(LibraryRuntime& rt, const std::vector<Request>& pool,
                      const std::vector<size_t>& order, double seconds,
                      const oa::libgen::Artifact& artifact, SetupFn&& setup) {
  LoopStats st;
  for (const Request& r : pool) {
    if (r.shape_index >= st.shape_flops.size()) {
      st.shape_flops.resize(r.shape_index + 1);
    }
    st.shape_flops[r.shape_index] = r.flops;
  }
  st.shape_ms.resize(st.shape_flops.size());
  const double start = now_s();
  const double deadline = start + seconds;
  double next_swap = start + kSwapPeriodS;
  double next_setup = start + kSetupPeriodS;
  for (uint64_t i = 0; now_s() < deadline; ++i) {
    if (now_s() >= next_swap) {
      timed_swap(rt, artifact, &st);
      next_swap = now_s() + kSwapPeriodS;
    }
    if (now_s() >= next_setup) {
      ++st.attempted;
      ++st.setups;
      if (!setup()) ++st.setup_errors;
      next_setup = now_s() + kSetupPeriodS;
    }
    const Request& r = pool[order[i % order.size()]];
    std::vector<Matrix> b = r.b, c = r.c;
    serve_one(rt, r, i, b, c, now_s(), &st);
  }
  st.elapsed_s = now_s() - start;
  return st;
}

/// Geometric mean over the shapes of each shape's q-quantile latency.
/// (A quantile over all requests of a mix whose shapes differ in cost
/// falls between the shapes' clusters and jumps from one cluster to the
/// next from run to run.)
double shape_quantile_ms(const LoopStats& st, double q) {
  std::vector<double> v;
  for (const std::vector<double>& ms : st.shape_ms) {
    if (!ms.empty()) v.push_back(quantile(ms, q));
  }
  return geomean(v);
}

/// Useful GFLOP/s of the loop with each correct request counted at its
/// shape's median latency: the flops of all of them over the time they
/// take at those medians. With one client this is the loop's throughput
/// less the stalls of a shared host, which the printed tail shows.
double median_throughput_gflops(const LoopStats& st) {
  double flops = 0.0, seconds = 0.0;
  for (size_t i = 0; i < st.shape_ms.size(); ++i) {
    const double n = static_cast<double>(st.shape_ms[i].size());
    if (n == 0) continue;
    flops += n * st.shape_flops[i];
    seconds += n * median(st.shape_ms[i]) * 1e-3;
  }
  return seconds > 0 ? flops / seconds / 1e9 : 0.0;
}

// ---------------------------------------------------------------------
// Generation.

struct VariantGen {
  const Variant* v = nullptr;
  bool ok = false;
  double generate_s = 0.0;
  double gflops = 0.0;       // simulated, at kMeasureSize
  double base_gflops = 0.0;  // CUBLAS-like baseline, same size
};

struct GenPass {
  double gen_s = 0.0;
  double measure_ms = 0.0;
  double compose_ms = 0.0;
  int64_t candidates = 0;
  int64_t attempted = 0;  // generate, pricing and composer calls
  int64_t errors = 0;     // those of them that returned an error
  std::vector<VariantGen> variants;
  oa::engine::EngineStats engine;
  oa::libgen::Artifact artifact;

  /// Counts one call; false (and a failure) when `status` is an error.
  bool count(const oa::Status& status, const char* what,
             const Variant& v) {
    ++attempted;
    if (status.is_ok()) return true;
    ++errors;
    std::fprintf(stderr, "oabench: %s %s: %s\n", what, v.name().c_str(),
                 status.to_string().c_str());
    return false;
  }
};

oa::OaOptions gen_options() {
  oa::OaOptions o;
  o.tuning_size = kTuningSize;
  o.jobs = kGenJobs;
  o.warm_start = false;
  return o;
}

/// One cold generation of `names`; `measure` adds the n=4096 pricing
/// of every kernel and its baseline, the composer probe and the
/// export.
GenPass gen_pass(const oa::gpusim::DeviceModel& device,
                 const std::vector<std::string>& names, bool measure) {
  GenPass pass;
  std::unique_ptr<oa::OaFramework> fw;
  {
    Span span("oa.construct");
    fw = std::make_unique<oa::OaFramework>(device, gen_options());
  }

  std::vector<oa::tuner::TunedVariant> tuned(names.size());
  const double t0 = now_s();
  {
    Span all("gen.generate_all");
    for (size_t i = 0; i < names.size(); ++i) {
      VariantGen g;
      g.v = &variant(names[i]);
      const double v0 = now_s();
      {
        Span span("tuner.generate");
        auto result = fw->generate(*g.v);
        g.ok = pass.count(result.status(), "generate", *g.v);
        if (g.ok) tuned[i] = *result;
      }
      g.generate_s = now_s() - v0;
      pass.variants.push_back(g);
    }
  }
  pass.gen_s = now_s() - t0;
  pass.engine = fw->engine_stats();

  if (measure) {
    for (size_t i = 0; i < names.size(); ++i) {
      VariantGen& g = pass.variants[i];
      if (!g.ok) continue;
      const double m0 = now_s();
      {
        Span span("gpusim.measure");
        auto gf = fw->measure_gflops(tuned[i], *g.v, kMeasureSize);
        if (pass.count(gf.status(), "measure_gflops", *g.v)) g.gflops = *gf;
      }
      pass.measure_ms += (now_s() - m0) * 1e3;
      Span span("baseline.measure");
      auto prog = oa::baseline::cublas_like(*g.v, device);
      if (!pass.count(prog.status(), "cublas_like", *g.v)) continue;
      auto bg = fw->measure_baseline_gflops(*prog, *g.v, kMeasureSize);
      if (pass.count(bg.status(), "measure_baseline_gflops", *g.v)) {
        g.base_gflops = *bg;
      }
    }
    for (const VariantGen& g : pass.variants) {
      const double c0 = now_s();
      Span span("composer.candidates_for");
      auto cands = fw->candidates_for(*g.v);
      pass.compose_ms += (now_s() - c0) * 1e3;
      if (pass.count(cands.status(), "candidates_for", *g.v)) {
        pass.candidates += cands->size();
      }
    }
    Span span("oa.export_library");
    pass.artifact = fw->export_library();
  }
  Span span("oa.destroy");
  fw.reset();
  return pass;
}

// ---------------------------------------------------------------------
// Workloads.

const std::vector<std::string> kDenseVariants = {
    "GEMM-NN",  "GEMM-TN",  "SYMM-LL",  "TRMM-LL-N",
    "DGEMM-NN", "DGEMM-TN", "DSYMM-LL", "DTRMM-LL-N",
    "GEMM_BATCHED-NN", "DGEMM_STRIDED_BATCHED-NN"};

/// The dense library plus TRSM-LL-N, whose tuning runs mostly on the
/// gpusim interpreter (its kernels defeat the fast path).
std::vector<std::string> dense_and_trsm() {
  std::vector<std::string> all = kDenseVariants;
  all.push_back("TRSM-LL-N");
  return all;
}

struct Workload {
  std::string name;
  std::vector<std::string> variants;  // the library generated in set-up
  size_t gen_passes = 1;        // cold generations; gen_s is their median
  bool small = false;           // serve_small's mix (else serve_large's)
};

bool find_workload(const std::string& name, Workload* w) {
  if (name == "serve_large") {
    *w = {name, kDenseVariants, 3, false};
  } else if (name == "serve_small") {
    *w = {name, dense_and_trsm(), 1, true};
  } else {
    return false;
  }
  return true;
}

std::vector<Shape> serve_large_shapes() {
  std::vector<Shape> s;
  for (const char* name :
       {"GEMM-NN", "DGEMM-NN", "GEMM-TN", "SYMM-LL", "DTRMM-LL-N"}) {
    for (int64_t n : {128, 192, 256}) {
      s.push_back(square(std::string(name) + "_" + std::to_string(n), name,
                         n, 7));
    }
  }
  s.push_back({"GEMM-NN_256x128x192", &variant("GEMM-NN"), 256, 128, 192,
               0, 7});
  // One in eight requests (16 of 128 per block): TRSM, which the dense
  // library lacks, so the runtime serves it through the native baseline
  // fallback.
  s.push_back(square("TRSM-LL-N_192", "TRSM-LL-N", 192, 16));
  return s;
}

/// TRSM-LL-N is tuned in serve_small's library; DTRSM-LL-N is not, so
/// it exercises the native baseline fallback.
std::vector<Shape> serve_small_shapes() {
  std::vector<Shape> s;
  for (const char* name :
       {"GEMM-NN", "DGEMM-NN", "SYMM-LL", "DSYMM-LL", "TRMM-LL-N",
        "DTRMM-LL-N", "TRSM-LL-N", "DTRSM-LL-N"}) {
    for (int64_t n : {16, 32, 48, 64}) {
      s.push_back(square(std::string(name) + "_" + std::to_string(n), name,
                         n));
    }
  }
  // One in five requests (8 of 40 shapes) is a batched call of 8-32
  // members of 32x32.
  for (const char* name : {"GEMM_BATCHED-NN", "DGEMM_STRIDED_BATCHED-NN"}) {
    for (int64_t count : {8, 16, 24, 32}) {
      Shape b = square(std::string(name) + "_32x" + std::to_string(count),
                       name, 32);
      b.count = count;
      s.push_back(b);
    }
  }
  return s;
}

// ---------------------------------------------------------------------
// Per-layer probes (traced runs only).

/// Achievable double-precision multiply-add rate of one thread with
/// this build's flags: 16 independent chains, 2 flops per update.
double peak_gflops_thread(double seconds) {
  double acc[16];
  for (int j = 0; j < 16; ++j) acc[j] = 1.0 + j * 1e-3;
  volatile double vm = 0.999999, va = 1e-7;
  const double m = vm, a = va;
  int64_t updates = 0;
  const double t0 = now_s();
  double elapsed = 0.0;
  do {
    for (int r = 0; r < 4096; ++r) {
      for (int j = 0; j < 16; ++j) acc[j] = acc[j] * m + a;
    }
    updates += 4096 * 16;
    elapsed = now_s() - t0;
  } while (elapsed < seconds);
  double sum = 0.0;
  for (double x : acc) sum += x;
  volatile double sink = sum;
  (void)sink;
  return 2.0 * static_cast<double>(updates) / elapsed / 1e9;
}

double peak_gflops_threads(int threads, double seconds) {
  std::vector<double> rates(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { rates[t] = peak_gflops_thread(seconds); });
  }
  for (std::thread& th : pool) th.join();
  double total = 0.0;
  for (double r : rates) total += r;
  return total;
}

struct Triad {
  double gbps = 0.0;
  double llc_mb = 0.0;
  double arrays_mb = 0.0;  // all three arrays together
};

/// STREAM-style triad a = b + s*c over arrays four times the last-level
/// cache the host reports; best of three sweeps, 24 bytes per element.
Triad stream_triad(int threads) {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  Triad t;
  t.llc_mb = static_cast<double>(llc) / (1 << 20);
  const size_t elems = (4 * static_cast<size_t>(llc)) / (3 * 8) + 1;
  t.arrays_mb = 3.0 * 8.0 * static_cast<double>(elems) / (1 << 20);
  std::vector<double> a(elems), b(elems), c(elems);
  auto sweep = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (int th = 0; th < threads; ++th) {
      pool.emplace_back([&, th] {
        const size_t lo = elems * th / threads;
        const size_t hi = elems * (th + 1) / threads;
        body(lo, hi);
      });
    }
    for (std::thread& x : pool) x.join();
  };
  sweep([&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    sweep([&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    best = std::min(best, now_s() - t0);
  }
  volatile double sink = a[elems / 2];
  (void)sink;
  t.gbps = 24.0 * static_cast<double>(elems) / best / 1e9;
  return t;
}

/// The program the runtime would run for `r` (tuned on a hit, the
/// baseline on a miss), pinned by the Dispatch it came from.
struct Resolved {
  LibraryRuntime::Dispatch d;
  const oa::ir::Program* program = nullptr;
  std::map<std::string, bool> bool_params;
};

Resolved resolve(const LibraryRuntime& rt, const Request& r) {
  Resolved res;
  res.d = rt.dispatch(*r.shape->v,
                      LibraryRuntime::dispatch_size(*r.shape->v, r.a[0],
                                                    r.b[0], &r.c[0]));
  if (res.d.program != nullptr) {
    res.program = res.d.program;
    res.bool_params = *res.d.bool_params;
  } else {
    res.program =
        res.d.snapshot->baseline(oa::runtime::variant_code(*r.shape->v));
  }
  return res;
}

/// exec::execute_program / execute_batched straight on the dispatched
/// program with a warm private cache.
oa::Status exec_direct(const oa::gpusim::DeviceModel& device,
                       const Resolved& res, const Request& r,
                       std::vector<Matrix>& b, std::vector<Matrix>& c,
                       oa::exec::ExecCache& cache) {
  Span span("exec.execute_program");
  if (r.shape->count > 0) {
    return oa::exec::execute_batched(device, *res.program, *r.shape->v,
                                     r.a, b, &c, res.bool_params, cache);
  }
  return oa::exec::execute_program(device, *res.program, *r.shape->v,
                                    r.a[0], b[0], &c[0], res.bool_params,
                                    cache);
}

/// Wall time of one `fn(b, c)` on fresh copies of `r`'s outputs.
template <typename Fn>
double call_ms(const Request& r, Fn&& fn) {
  std::vector<Matrix> b = r.b, c = r.c;
  const double t0 = now_s();
  fn(b, c);
  return (now_s() - t0) * 1e3;
}

/// Median of call_ms over at least `min_reps` calls and `min_s` seconds
/// (at most `max_reps`).
template <typename Fn>
double median_ms(const Request& r, int min_reps, int max_reps, double min_s,
                 Fn&& fn) {
  std::vector<double> ms;
  const double start = now_s();
  while (static_cast<int>(ms.size()) < max_reps &&
         (static_cast<int>(ms.size()) < min_reps || now_s() - start < min_s)) {
    ms.push_back(call_ms(r, fn));
  }
  return median(ms);
}

struct ExecProbe {
  std::string label;
  double run_ms = 0.0;
  double gflops = 0.0;
  double reference_ms = 0.0;
  double flop_per_byte = 0.0;
  bool ok = false;
};

ExecProbe probe_exec(const oa::gpusim::DeviceModel& device,
                     const LibraryRuntime& rt, const Request& r) {
  ExecProbe p;
  p.label = r.shape->label;
  const Resolved res = resolve(rt, r);
  oa::exec::ExecCache cache;
  std::vector<Matrix> b = r.b, c = r.c;
  p.ok = res.program != nullptr &&
         exec_direct(device, res, r, b, c, cache).is_ok() &&
         output_matches(r, b, c);
  if (!p.ok) return p;
  p.run_ms = median_ms(r, 5, 40, 0.3, [&](auto& tb, auto& tc) {
    (void)exec_direct(device, res, r, tb, tc, cache);
  });
  p.reference_ms = median_ms(r, 3, 3, 0.0, [&](auto& tb, auto& tc) {
    Span span("blas3.run_reference");
    oa::blas3::run_reference(*r.shape->v, r.a[0], tb[0], &tc[0]);
  });
  p.gflops = r.flops / (p.run_ms * 1e6);
  // Computed traffic: every operand read once, the output written once,
  // at the 8-byte element the host stores for both precisions.
  const double elems =
      static_cast<double>(r.a[0].rows() * r.a[0].cols() +
                          r.b[0].rows() * r.b[0].cols() +
                          2 * r.c[0].rows() * r.c[0].cols());
  p.flop_per_byte = r.flops / (8.0 * elems);
  return p;
}

// ---------------------------------------------------------------------
// The run.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

int usage() {
  std::fprintf(stderr,
               "usage: oabench --workload serve_large|serve_small "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] "
               "\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
      if (!have_seed) return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (flag == "--workdir") {
      a->workdir = value;
    } else {
      return false;
    }
  }
  return have_seed && !a->workload.empty();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Metric-name form of a shape label: "GEMM-NN_256" -> "gemm_nn_256".
std::string shape_key(const std::string& label) {
  std::string key;
  for (char ch : label) {
    key += ch == '-' ? '_' : static_cast<char>(std::tolower(ch));
  }
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  oa::set_log_level(oa::LogLevel::kError);
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  Workload w;
  if (!find_workload(args.workload, &w)) return usage();
  g_tracer.set_on(args.trace);

  const oa::gpusim::DeviceModel& device = oa::gpusim::gtx285();
  const uint64_t seed = mix_seed(args.seed, w.name);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  const std::string stem = args.workdir + "/" + w.name + "-" +
                           std::to_string(args.seed) + "-" +
                           std::to_string(getpid());

  int64_t attempted = 0, failed = 0;
  bool correct = true;

  // --- generation ----------------------------------------------------
  // The library is generated cold `gen_passes` times; the first pass is
  // priced and exported.
  // With tracing on, the spans recorded from here to the end of the
  // runtime set-up must account for this stopwatch (additivity check).
  const double setup_t0 = now_s();
  std::vector<GenPass> passes;
  for (size_t pass = 0; pass < w.gen_passes; ++pass) {
    GenPass p = gen_pass(device, w.variants, pass == 0);
    std::fprintf(stderr,
                 "gen pass %zu: gen_s %.4f s (%llu simulations, %llu "
                 "verifies, simulate %.3f s, verify %.3f s)\n",
                 pass, p.gen_s,
                 static_cast<unsigned long long>(p.engine.evaluations),
                 static_cast<unsigned long long>(p.engine.verify_runs),
                 p.engine.simulate_seconds, p.engine.verify_seconds);
    attempted += p.attempted;
    failed += p.errors;
    if (p.errors > 0) correct = false;
    passes.push_back(std::move(p));
  }
  const GenPass& first = passes.front();
  std::vector<double> gen_s;
  for (const GenPass& p : passes) gen_s.push_back(p.gen_s);
  std::vector<double> gflops, speedups;
  for (const VariantGen& g : first.variants) {
    if (!g.ok) continue;
    gflops.push_back(g.gflops);
    if (g.v->batch == oa::blas3::Batch::kSingle && g.base_gflops > 0) {
      speedups.push_back(g.gflops / g.base_gflops);
    }
  }

  // --- artifact -> runtime --------------------------------------------
  const std::string lib_path = stem + ".oalib";
  double save_ms = 0.0;
  {
    const double t0 = now_s();
    Span span("libgen.save");
    if (!oa::libgen::save(first.artifact, lib_path).is_ok()) {
      std::fprintf(stderr, "oabench: cannot save %s\n", lib_path.c_str());
      return 1;
    }
    save_ms = (now_s() - t0) * 1e3;
  }
  const double artifact_bytes =
      static_cast<double>(std::filesystem::file_size(lib_path, ec));
  oa::runtime::RuntimeOptions ropt;
  ropt.execution = oa::runtime::ExecutionMode::kNative;
  SetupTimes setup_times;
  oa::libgen::Artifact artifact;
  std::unique_ptr<LibraryRuntime> rt =
      timed_setup(device, lib_path, ropt, &setup_times, &artifact);
  if (rt == nullptr) return 1;
  const double setup_wall_s = now_s() - setup_t0;
  const std::vector<SpanRecord> setup_spans = g_tracer.spans();
  const oa::exec::ExecStats prewarm = rt->exec_stats();
  if (oa::exec::jit_supported() && prewarm.portable_kernels > 0) {
    std::fprintf(stderr,
                 "oabench: the host supports the JIT but %lld kernels "
                 "run on the portable executor (OABLAS_NO_JIT set?); "
                 "refusing to measure a different program\n",
                 static_cast<long long>(prewarm.portable_kernels));
    return 3;
  }
  // Every generated variant must be servable from the reloaded table.
  for (const VariantGen& g : first.variants) {
    if (!g.ok) continue;
    ++attempted;
    const auto d = rt->dispatch(*g.v, kTuningSize);
    if (d.outcome != DispatchOutcome::kHit &&
        d.outcome != DispatchOutcome::kNearHit) {
      ++failed;
      correct = false;
      std::fprintf(stderr, "oabench: %s missing from the runtime table\n",
                   g.v->name().c_str());
    }
  }

  // --- serving ---------------------------------------------------------
  const std::vector<Shape> shapes =
      w.small ? serve_small_shapes() : serve_large_shapes();
  const std::vector<Request> pool =
      make_pool(shapes, 2, mix_seed(seed, "inputs"));
  const std::vector<size_t> order =
      make_order(pool, 1 << 16, mix_seed(seed, "order"));
  rt->reset_stats();
  auto setup_rep = [&] {
    std::unique_ptr<LibraryRuntime> fresh =
        timed_setup(device, lib_path, ropt, &setup_times);
    Span span("runtime.destroy");
    const bool ok = fresh != nullptr;
    fresh.reset();
    return ok;
  };
  LoopStats loop =
      closed_loop(*rt, pool, order, args.seconds, artifact, setup_rep);
  std::filesystem::remove(lib_path, ec);
  attempted += loop.attempted;
  failed += loop.errors + loop.mismatches + loop.shed + loop.swap_errors +
            loop.setup_errors;
  if (loop.errors + loop.mismatches + loop.setup_errors > 0) correct = false;
  const oa::runtime::DispatchStats ds = rt->stats();
  const oa::exec::ExecStats es = rt->exec_stats();

  std::printf("workload %s seed %llu: %zu gen pass(es), %lld requests "
              "(%lld errors, %lld mismatches, %lld shed), %zu reloads, "
              "%lld start-ups (%lld errors)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              passes.size(),
              static_cast<long long>(loop.attempted - loop.setups -
                                     static_cast<int64_t>(
                                         loop.swap_ms.size())),
              static_cast<long long>(loop.errors),
              static_cast<long long>(loop.mismatches),
              static_cast<long long>(loop.shed), loop.swap_ms.size(),
              static_cast<long long>(loop.setups),
              static_cast<long long>(loop.setup_errors));

  MetricList out;
  if (!args.trace) {
    out.add("setup_s", median(setup_times.setup_s), "s");
    out.add("gen_s", median(gen_s), "s");
    out.add("gen_gflops_geomean", geomean(gflops), "GFLOP/s");
    out.add("gen_speedup_vs_cublas_geomean", geomean(speedups), "ratio");
    out.add("lat_p50_ms", shape_quantile_ms(loop, 0.50), "ms");
    out.add("throughput_gflops", median_throughput_gflops(loop), "GFLOP/s");
    out.add("reload_p50_ms", median(loop.swap_ms), "ms");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("ok_frac",
            1.0 - static_cast<double>(failed) /
                      static_cast<double>(std::max<int64_t>(attempted, 1)),
            "ratio");
    // The tail follows the shared host's stalls more than the program
    // (README.md, "End-to-end metrics"), so it is printed, not gated.
    std::printf("latency p90 %.4f ms, p99 %.4f ms (per shape, geometric "
                "mean over shapes)\n", shape_quantile_ms(loop, 0.90),
                shape_quantile_ms(loop, 0.99));
    std::printf("latency samples %zu over %zu shapes, reload samples %zu, "
                "loop %.2f s\n", static_cast<size_t>(loop.served),
                loop.shape_ms.size(),
                loop.swap_ms.size(), loop.elapsed_s);
  } else {
    // Per-layer view of the same run plus the probes.
    auto med = [&](auto field) {
      std::vector<double> v;
      for (const GenPass& p : passes) v.push_back(field(p));
      return median(v);
    };
    const oa::engine::EngineStats& e = first.engine;
    out.add("composer.candidates", static_cast<double>(first.candidates),
            "count");
    out.add("composer.compose_ms", first.compose_ms, "ms");
    const std::vector<std::string> names = dense_and_trsm();
    for (const std::string& name : names) {
      double s = 0.0;
      for (size_t i = 0; i < w.variants.size(); ++i) {
        if (w.variants[i] != name) continue;
        s = med([&](const GenPass& p) { return p.variants[i].generate_s; });
      }
      out.add("tuner.generate_s." + name, s, "s");
    }
    out.add("engine.verify_s",
            med([](const GenPass& p) { return p.engine.verify_seconds; }),
            "s");
    out.add("engine.verify_runs", static_cast<double>(e.verify_runs),
            "count");
    out.add("engine.verify_reused", static_cast<double>(e.verify_reused),
            "count");
    out.add("engine.simulate_s",
            med([](const GenPass& p) { return p.engine.simulate_seconds; }),
            "s");
    out.add("engine.evaluations", static_cast<double>(e.evaluations),
            "count");
    out.add("engine.cache_hit_rate", e.hit_rate(), "ratio");
    out.add("engine.rejected", static_cast<double>(e.rejected), "count");
    out.add("engine.apply_s",
            med([](const GenPass& p) { return p.engine.apply_seconds; }),
            "s");
    out.add("gpusim.fastpath_coverage", e.fastpath.coverage(), "ratio");
    out.add("gpusim.collapsed_loops",
            static_cast<double>(e.fastpath.collapsed_loops), "count");
    out.add("gpusim.measure_ms", first.measure_ms, "ms");
    for (const std::string& name : names) {
      double gf = 0.0, bg = 0.0;
      for (const VariantGen& g : first.variants) {
        if (g.v->name() != name) continue;
        gf = g.gflops;
        bg = g.base_gflops;
      }
      out.add("gpusim.kernel_gflops." + name, gf, "GFLOP/s");
      out.add("baseline.gflops." + name, bg, "GFLOP/s");
    }
    out.add("libgen.save_ms", save_ms, "ms");
    out.add("libgen.load_ms", median(setup_times.load_ms), "ms");
    out.add("libgen.artifact_bytes", artifact_bytes, "bytes");
    out.add("runtime.construct_ms", median(setup_times.construct_ms),
            "ms");
    out.add("exec.compiles", static_cast<double>(prewarm.compiles),
            "count");
    out.add("runtime.swap_ms", median(loop.swap_ms), "ms");
    out.add("runtime.hits", static_cast<double>(ds.hits), "count");
    out.add("runtime.near_hits", static_cast<double>(ds.near_hits), "count");
    out.add("runtime.baseline_fallbacks",
            static_cast<double>(ds.baseline_fallbacks), "count");
    out.add("runtime.reference_fallbacks",
            static_cast<double>(ds.reference_fallbacks), "count");
    out.add("runtime.native_serves", static_cast<double>(ds.native_serves),
            "count");
    out.add("runtime.native_fallbacks",
            static_cast<double>(ds.native_fallbacks), "count");
    out.add("runtime.batches", static_cast<double>(ds.batches), "count");
    out.add("runtime.coalesced", static_cast<double>(ds.coalesced), "count");
    out.add("runtime.shed", static_cast<double>(ds.shed), "count");
    out.add("exec.cache_hits", static_cast<double>(es.cache_hits), "count");
    out.add("exec.jit_kernels", static_cast<double>(es.jit_kernels),
            "count");
    out.add("exec.portable_kernels",
            static_cast<double>(es.portable_kernels), "count");
    out.add("exec.warm_recompiles",
            static_cast<double>(es.compiles - prewarm.compiles), "count");

    // Host roofline, measured in this run.
    const int host_threads = static_cast<int>(std::min<unsigned>(
        4, std::max<unsigned>(1, std::thread::hardware_concurrency())));
    const double peak_1t = peak_gflops_thread(0.3);
    const double peak_nt = peak_gflops_threads(host_threads, 0.3);
    const Triad triad = stream_triad(host_threads);
    out.add("host.peak_gflops_1t", peak_1t, "GFLOP/s");
    out.add("host.peak_gflops_nt", peak_nt, "GFLOP/s");
    out.add("host.stream_gbps", triad.gbps, "GB/s");
    out.add("host.llc_mb", triad.llc_mb, "MB");
    out.add("host.triad_arrays_mb", triad.arrays_mb, "MB");

    // exec straight on the dispatched programs of serve_large's shapes,
    // against the single-threaded naive loop and the roofline.
    const std::vector<std::string> exec_labels = {
        "GEMM-NN_256",    "DGEMM-NN_256",        "GEMM-TN_256",
        "SYMM-LL_256",    "DTRMM-LL-N_256",      "GEMM-NN_256x128x192",
        "TRSM-LL-N_192"};
    std::vector<Shape> exec_shapes;
    for (const Shape& s : serve_large_shapes()) {
      if (std::count(exec_labels.begin(), exec_labels.end(), s.label) != 0) {
        exec_shapes.push_back(s);
      }
    }
    const std::vector<Request> exec_pool =
        make_pool(exec_shapes, 1, mix_seed(seed, "exec"));
    std::printf("\n%-22s %10s %9s %12s %9s %9s %9s\n", "exec shape",
                "native_ms", "GFLOP/s", "reference_ms", "vs_ref",
                "flop/B*", "roofline");
    for (const Request& r : exec_pool) {
      const ExecProbe p = probe_exec(device, *rt, r);
      if (!p.ok) correct = false;
      const double attainable =
          std::min(peak_nt, p.flop_per_byte * triad.gbps);
      const double vs_ref = p.run_ms > 0 ? p.reference_ms / p.run_ms : 0.0;
      const double roof = attainable > 0 ? p.gflops / attainable : 0.0;
      const std::string key = shape_key(p.label);
      out.add("exec.run_ms." + key, p.run_ms, "ms");
      out.add("exec.gflops." + key, p.gflops, "GFLOP/s");
      out.add("blas3.reference_ms." + key, p.reference_ms, "ms");
      out.add("exec.vs_reference." + key, vs_ref, "ratio");
      out.add("exec.roofline_frac." + key, roof, "ratio");
      out.add("exec.flop_per_byte_computed." + key, p.flop_per_byte,
              "flop/B");
      std::printf("%-22s %10.3f %9.3f %12.3f %9.3f %9.2f %9.4f\n",
                  p.label.c_str(), p.run_ms, p.gflops, p.reference_ms,
                  vs_ref, p.flop_per_byte, roof);
    }
    std::printf("(* computed, not measured: operands read once, output "
                "written once, 8 B/element; roofline = min(%.2f GFLOP/s "
                "%d-thread peak, flop/B x %.2f GB/s triad over %.0f MB "
                "arrays, LLC %.0f MB))\n",
                peak_nt, host_threads, triad.gbps, triad.arrays_mb,
                triad.llc_mb);

    // Dispatch cost over serve_small's mix.
    const std::vector<Shape> small = serve_small_shapes();
    const int kDispatches = 200000;
    double sink = 0.0;
    double t0 = now_s();
    for (int i = 0; i < kDispatches; ++i) {
      const Shape& s = small[static_cast<size_t>(i) % small.size()];
      sink += rt->dispatch(*s.v, s.n).tuned_gflops;
    }
    const double dispatch_ns = (now_s() - t0) * 1e9 / kDispatches;
    volatile double keep = sink;
    (void)keep;
    out.add("runtime.dispatch_ns", dispatch_ns, "ns");

    // Runtime overhead per shape: idle single-threaded serve() latency
    // minus exec's own time for the same call (serve_small's shapes and
    // serve_large's GEMM-NN n=256).
    std::vector<Shape> over_shapes;
    for (const Shape& s : small) {
      if (s.label == "GEMM-NN_16" || s.label == "GEMM-NN_64" ||
          s.label == "DTRSM-LL-N_32" || s.label == "GEMM_BATCHED-NN_32x16") {
        over_shapes.push_back(s);
      }
    }
    over_shapes.push_back(square("GEMM-NN_256", "GEMM-NN", 256));
    const std::vector<Request> over_pool =
        make_pool(over_shapes, 1, mix_seed(seed, "overhead"));
    for (const Request& r : over_pool) {
      const Resolved res = resolve(*rt, r);
      oa::exec::ExecCache cache;
      auto serve = [&](auto& b, auto& c) { (void)serve_call(*rt, r, b, c); };
      auto exec = [&](auto& b, auto& c) {
        (void)exec_direct(device, res, r, b, c, cache);
      };
      call_ms(r, exec);  // compile into the private cache
      std::vector<double> serve_ms, exec_ms;  // interleaved
      const double start = now_s();
      while (serve_ms.size() < 30 ||
             (now_s() - start < 0.6 && serve_ms.size() < 2000)) {
        serve_ms.push_back(call_ms(r, serve));
        exec_ms.push_back(call_ms(r, exec));
      }
      out.add("runtime.overhead_us." + shape_key(r.shape->label),
              (median(serve_ms) - median(exec_ms)) * 1e3, "us");
    }

    // Additivity, serve side: a traced GEMM-NN n=64 request (input copy
    // + serve) against an untraced one, in alternating pairs; the check
    // takes the median of the per-pair ratios of the traced request's
    // span self times to the untraced stopwatch.
    const std::vector<Shape> add_shapes = {
        square("GEMM-NN_64", "GEMM-NN", 64)};
    const std::vector<Request> add_pool =
        make_pool(add_shapes, 1, mix_seed(seed, "additivity"));
    const Request& ar = add_pool.front();
    auto untraced_ms = [&] {
      g_tracer.set_on(false);
      const double t0 = now_s();
      {
        std::vector<Matrix> b = ar.b, c = ar.c;
        (void)serve_call(*rt, ar, b, c);
      }
      const double ms = (now_s() - t0) * 1e3;
      g_tracer.set_on(true);
      return ms;
    };
    auto traced_self_ms = [&](uint64_t request_id) {
      const size_t before = g_tracer.size();
      {
        Span request("additivity.request", request_id);
        std::vector<Matrix> b, c;
        {
          Span copy("bench.copy");
          b = ar.b;
          c = ar.c;
        }
        (void)serve_call(*rt, ar, b, c);
      }
      double self_us = 0.0;
      for (const auto& [name, row] : self_table(g_tracer.spans(before))) {
        self_us += row.self_us;
      }
      return self_us / 1e3;
    };
    std::vector<double> pair_ratio;
    const double add_start = now_s();
    while (pair_ratio.size() < kAdditivityMinPairs ||
           (now_s() - add_start < 1.5 && pair_ratio.size() < 20000)) {
      const uint64_t id = 1000000 + pair_ratio.size();
      double traced = 0.0, untraced = 0.0;
      if (pair_ratio.size() % 2 == 0) {  // alternate which goes first
        untraced = untraced_ms();
        traced = traced_self_ms(id);
      } else {
        traced = traced_self_ms(id);
        untraced = untraced_ms();
      }
      pair_ratio.push_back(traced / untraced);
    }
    const double serve_ratio = median(pair_ratio);

    // Additivity, set-up side: the self times of the spans recorded
    // during the set-up (generation passes, pricing, export, save and
    // the load + construct repetitions) against the stopwatch around all
    // of it, which no span defines.
    double setup_self_us = 0.0;
    for (const auto& [name, row] : self_table(setup_spans)) {
      setup_self_us += row.self_us;
    }
    const double setup_cover = setup_self_us / 1e6 / setup_wall_s;

    // Cost of one span open + close on this host (probe spans are not
    // part of the trace).
    const std::vector<SpanRecord> spans = g_tracer.spans();
    constexpr int kSpanProbe = 20000;
    double t0_span = now_s();
    for (int i = 0; i < kSpanProbe; ++i) {
      Span probe("trace.probe");
    }
    const double span_cost_ns = (now_s() - t0_span) * 1e9 / kSpanProbe;
    out.add("trace.setup_span_coverage", setup_cover, "ratio");
    out.add("trace.serve_traced_vs_untraced", serve_ratio, "ratio");
    out.add("trace.span_cost_ns", span_cost_ns, "ns");
    out.add("trace.spans", static_cast<double>(spans.size()), "count");

    std::printf("\n%-28s %8s %14s %14s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto& [name, row] : self_table(spans)) {
      std::printf("%-28s %8lld %14.3f %14.3f\n", name.c_str(),
                  static_cast<long long>(row.count), row.total_us / 1e3,
                  row.self_us / 1e3);
    }
    const bool setup_ok = std::abs(setup_cover - 1.0) <= kSetupCoverTol;
    const bool serve_ok = std::abs(serve_ratio - 1.0) <= kServeRatioTol;
    std::printf(
        "additivity set-up: span self times %.4f s vs stopwatch %.4f s "
        "(ratio %.5f, tolerance %.0f%%) %s\n",
        setup_self_us / 1e6, setup_wall_s, setup_cover,
        kSetupCoverTol * 100, setup_ok ? "PASS" : "FAIL");
    std::printf(
        "additivity serve GEMM-NN n=64: traced span self times vs "
        "untraced stopwatch, median of %zu pair ratios %.4f (tolerance "
        "%.0f%%) %s\n",
        pair_ratio.size(), serve_ratio, kServeRatioTol * 100,
        serve_ok ? "PASS" : "FAIL");
    if (!setup_ok || !serve_ok) correct = false;
    std::printf("tracing overhead: %.1f ns per span x %zu spans; traced vs "
                "untraced serve %+.2f%%\n",
                span_cost_ns, spans.size(), (serve_ratio - 1.0) * 100);
    const std::string trace_path = stem + ".trace.json";
    if (!write_chrome_trace(spans, trace_path)) {
      std::fprintf(stderr, "oabench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", spans.size(),
                trace_path.c_str());
  }

  for (const std::string& name : out.non_finite()) {
    std::fprintf(stderr, "oabench: metric %s is not finite\n", name.c_str());
    correct = false;
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.all().size(); ++i) {
    const Metric& m = out.all()[i];
    char value[32] = "null";
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof value, "%.17g", m.value);
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %s, "
                  "\"unit\": \"%s\"}", i == 0 ? "" : ", ", m.name.c_str(),
                  value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  // A result that is not correct is printed, then reported by the exit
  // code as well.
  return correct ? 0 : 4;
}
