// portal_perfbench -- one workload of the Portal benchmark per process.
//
//   portal_perfbench --workload offline|serve-mixed|serve-ingest|serve-ann
//                    --seed N --seconds S [--trace 0|1] [--setup-only]
//                    [--scale F] [--inject-slowdown F] [--spans FILE]
//
// The benchmark only calls the library's public API (PortalExpr, PortalService,
// serve::run_query*, TreeSnapshot) and reads the statistics those calls
// return; with --trace 1 it also turns the obs layer on and reads its
// counters and timers. It prints one JSON record on its last stdout line;
// perfbench/run.py turns that record into the benchmark's result line.
//
// Every input is generated here from --seed; the library receives points
// only. Answers are checked on a seeded sample: offline solves against a
// brute-force oracle written in this file, serve answers against
// serve::run_query_bruteforce on the pinned snapshot or view.
//
// With --trace 1 the measured budget is split in two halves: the first runs
// with tracing off and gives the baseline for the tracing overhead, the
// second runs traced and feeds every per-layer row.
#include <cpuid.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <omp.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/portal.h"
#include "data/generators.h"
#include "index/knn_graph.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/service.h"
#include "tree/snapshot.h"

using namespace portal;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workload constants. Sizes and rates were set from probes on a 4-core
// Xeon (AVX-512, FMA) with 2 service workers; perfbench/README.md has the
// probe numbers. --scale shrinks the datasets, for the self-test only.

constexpr index_t kOfflineKnnN = 70000;    // d=10 clustered, kNN k=5
constexpr index_t kOfflineKnnDim = 10;
constexpr index_t kOfflineKnnK = 5;
constexpr index_t kOfflineEllN = 160000;   // d=3 elliptical: KDE, RS, custom
constexpr real_t kKdeSigma = 0.02;
constexpr real_t kRangeH = 0.03;
constexpr real_t kCauchyH = 0.005;
constexpr real_t kOfflineTau = 1e-3;
constexpr int kOfflineCheckQueries = 32;
// The approximate all-kNN program: an nn-descent graph over a d=32 mixture
// and a k=10, beam-64 search for each query point.
constexpr index_t kGraphN = 4000;
constexpr index_t kGraphDim = 32;
constexpr index_t kGraphK = 10;
constexpr index_t kGraphBeam = 64;
constexpr index_t kGraphQueries = 1000;

constexpr index_t kServeN = 100000;        // d=3 clustered, serve-mixed/ingest
// Many overlapping clusters keep per-query cost from hinging on where a
// seed happens to put a few dense ones.
constexpr index_t kServeClusters = 512;
constexpr real_t kServeKdeSigma = 0.5;
constexpr real_t kServeRangeH = 2.0;
// serve-mixed: the nominal rate and the fixed ladder (requests/s). The mix
// costs ~0.7 ms of engine time per read, so 2 workers saturate near 2.9k/s;
// at 2.4k/s (83% busy) the p99 already reached tens of ms, and 3.2k/s
// overflowed the queue into rejections.
constexpr double kMixedLadder[] = {800, 1200, 1600, 2000};  // [0] = nominal
constexpr double kMixedSloS = 0.010;       // p99 limit for read_qps_at_slo
// serve-ingest: kNN reads and inserts at fixed rates; one remove per four
// inserts.
constexpr double kIngestReadQps = 1000;
constexpr double kIngestInsertRate = 2000;
// serve-ann: d=32 clustered, kNN k=10 through the graph at beam 64.
constexpr index_t kAnnN = 20000;
constexpr index_t kAnnDim = 32;
constexpr index_t kAnnK = 10;
constexpr double kAnnQps = 1000;

// latency_tail_s is the upper quartile on offline, serve-mixed and
// serve-ann. On offline a run has 3-5 solves per program, so a p90 is the
// slowest solve, which one host stall decides. On the serve workloads a
// fresh service's worker threads sometimes share a vCPU with host-side
// load, which adds ms to a tenth or a fifth of that service's reads and
// moves its p90 several-fold from one service to the next. On serve-ingest
// about a tenth of the reads overlap a background merge, and the p99 sits
// inside those merge-stalled reads. The p90, the p99 and the highest
// percentile with ten samples beyond it are printed on every serve
// workload as named metrics.
constexpr double kTailQ = 0.75;
constexpr double kIngestTailQ = 0.99;

constexpr int kServeCheckEvery = 16;       // check every 16th read ...
constexpr int kServeCheckMax = 400;        // ... up to this many per phase
constexpr int kReplayQueries = 512;        // engine replays (traced run)
constexpr index_t kQueryPool = 4096;       // distinct query points per run
constexpr double kWarmUpS = 1.0;           // unmeasured serve traffic first

// ---------------------------------------------------------------------------
// Small utilities.

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(Clock::time_point(
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t))));
}

/// Load-side threads wake on a schedule; the default 50 us timer slack
/// would show up as generator lateness in every latency.
void tight_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// The open-loop generator sleeps until shortly before each due time and
/// spins the rest, so its own wake-up latency stays out of read latency.
void wait_until_s(double t) {
  constexpr double kSpinS = 200e-6;
  if (t - now_s() > kSpinS) sleep_until_s(t - kSpinS);
  while (now_s() < t) {
  }
}

struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  index_t below(index_t n) {
    return static_cast<index_t>(next() % static_cast<std::uint64_t>(n));
  }
  double exponential(double mean) { return -mean * std::log1p(-uniform()); }
};

/// Seed of one named input stream, so adding a stream never shifts another.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 1000003ull + stream).next();
}

/// Linear-interpolated quantile (numpy's default); NaN for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The highest of the usual percentiles with at least ten samples beyond
/// it; 1.0 (the maximum) when the sample is too small for any of them.
double tail_q(std::size_t n) {
  const double limit = 1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(n, 1));
  for (const double cand : {0.999, 0.99, 0.95, 0.9, 0.75})
    if (cand <= limit) return cand;
  return 1.0;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool rel_close(double a, double b, double rel, double abs_tol = 1e-12) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::fabs(a - b) <= abs_tol + rel * std::max(std::fabs(a), std::fabs(b));
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

/// Minimal JSON object writer (numbers, strings, nested raw values).
class JsonObj {
 public:
  JsonObj& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof(buf), "%.10g", v);
    else
      std::snprintf(buf, sizeof(buf), "null");
    return raw(key, buf);
  }
  JsonObj& str(const std::string& key, const std::string& v) {
    std::string esc = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      esc += c;
    }
    return raw(key, esc + "\"");
  }
  JsonObj& raw(const std::string& key, const std::string& v) {
    if (!out_.empty()) out_ += ',';
    out_ += '"';
    out_ += key;
    out_ += "\":";
    out_ += v;
    return *this;
  }
  std::string done() const { return "{" + out_ + "}"; }

 private:
  std::string out_;
};

// ---------------------------------------------------------------------------
// Benchmark-side spans (traced half only): name, start, end, parent and
// request id, kept in memory and written out at the end. Self time is the
// span's duration minus the part of it that child spans cover.

struct Span {
  std::string name;
  double t0 = 0, t1 = 0;
  long parent = -1;
  long request = -1;
};

class SpanLog {
 public:
  std::atomic<bool> on{false};

  long open(std::string name, double t0, long parent = -1, long request = -1) {
    if (!on.load(std::memory_order_relaxed)) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), t0, t0, parent, request});
    return static_cast<long>(spans_.size()) - 1;
  }
  void close(long id, double t1) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t1;
  }
  long add(std::string name, double t0, double t1, long parent = -1,
           long request = -1) {
    const long id = open(std::move(name), t0, parent, request);
    close(id, t1);
    return id;
  }

  /// Per-name {count, total seconds, self seconds}.
  std::map<std::string, std::array<double, 3>> summary() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0)
        kids[static_cast<std::size_t>(s.parent)].push_back({s.t0, s.t1});
    std::map<std::string, std::array<double, 3>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<double, double>>& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0, cur_lo = 0, cur_hi = -1e300;
      for (const auto& [a0, a1] : iv) {
        const double lo = std::max(a0, s.t0), hi = std::min(a1, s.t1);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      std::array<double, 3>& row = out[s.name];
      row[0] += 1;
      row[1] += s.t1 - s.t0;
      row[2] += (s.t1 - s.t0) - covered;
    }
    return out;
  }

  /// Chrome trace-event JSON (complete events, microseconds).
  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    if (!os) return false;
    const double base = spans_.empty() ? 0 : spans_.front().t0;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n");
      JsonObj args;
      args.num("id", static_cast<double>(i))
          .num("parent", static_cast<double>(s.parent))
          .num("request", static_cast<double>(s.request));
      JsonObj ev;
      ev.str("name", s.name).str("ph", "X").num("pid", 1).num("tid", 1)
          .num("ts", (s.t0 - base) * 1e6).num("dur", (s.t1 - s.t0) * 1e6)
          .raw("args", args.done());
      os << ev.done();
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Options and the per-run record.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  double scale = 1;
  double inject_slowdown = 0;
  std::string spans_path;
};

struct Phase {
  std::string name;
  std::uint64_t sent = 0, ok = 0, failed = 0;
};

struct Metric {
  double value;
  std::string unit;
};

struct Record {
  std::vector<double> setups;  // one per set-up; setup_s is their median
  // Named metrics: one sample per trial, reported as the median.
  std::vector<std::string> order;
  std::map<std::string, std::pair<std::vector<double>, std::string>> named;
  std::vector<std::pair<std::string, Metric>> layers;  // traced runs only
  std::vector<Phase> phases;
  std::string trial;  // prefix of the current trial's phase names
  std::uint64_t checked = 0, mismatches = 0;
  std::vector<std::string> mismatch_notes;
  // The uniform latency pair every workload reports, one sample per trial
  // (run.py's latency_p50_s / latency_tail_s are their medians).
  std::vector<double> p50s, tails;
  double tail_q = 0;
  std::uint64_t samples = 0;

  void metric(const std::string& name, double v, const std::string& unit) {
    auto& [values, u] = named[name];
    if (values.empty()) order.push_back(name);
    values.push_back(v);
    u = unit;
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    layers.push_back({name, {v, unit}});
  }
  void phase(Phase p) {
    p.name = trial + p.name;
    phases.push_back(std::move(p));
  }
  void mismatch(const std::string& note) {
    ++mismatches;
    if (mismatch_notes.size() < 8) mismatch_notes.push_back(note);
  }
  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const Phase& p : phases) n += p.sent;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const Phase& p : phases) n += p.failed;
    return n;
  }
};

/// Timing harness: the wall time of `fn`. The self-test's synthetic
/// slowdown (--inject-slowdown F) spins for F times the measured duration
/// inside the timed region, so it shows in every number built on it.
double g_inject = 0;
double timed(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  const double t1 = now_s();
  if (g_inject > 0) {
    const double until = t1 + g_inject * (t1 - t0);
    while (now_s() < until) {
    }
  }
  return now_s() - t0;
}

/// Tracing switch for the two halves of a traced run.
void set_tracing(SpanLog& spans, bool on) {
  obs::set_enabled(on);
  spans.on = on;
}

// ---------------------------------------------------------------------------
// Per-layer rows. Every traced run prints every row of kLayerRows; a layer
// the workload bypasses reads 0.

const std::vector<std::pair<std::string, std::string>> kLayerRows = {
    {"core.compile_s", "s"}, {"core.ir_nodes_out", "count"},
    {"core.jit_compile_s", "s"}, {"core.jit_artifact_hits", "count"},
    {"core.jit_artifact_misses", "count"},
    {"tree.kd_build_s", "s"}, {"tree.soa_mirror_s", "s"},
    {"tree.build_points", "count"}, {"tree.kd_builds", "count"},
    {"tree.solve_build_s", "s"}, {"tree.snapshot_build_s", "s"},
    {"traversal.dual_s", "s"}, {"traversal.pairs_visited", "count"},
    {"traversal.prunes", "count"}, {"traversal.base_cases", "count"},
    {"traversal.prune_ratio", "ratio"}, {"traversal.steps_per_query", "count"},
    {"traversal.suspend_ratio", "ratio"},
    {"kernels.batch_pairs", "count"}, {"kernels.scalar_pairs", "count"},
    {"kernels.batched_ratio", "ratio"}, {"kernels.pair_rate", "1/s"},
    {"kernels.bytes_computed", "B"},
    {"index.build_s", "s"}, {"index.build_dist_evals", "count"},
    {"index.build_rounds", "count"}, {"index.query_dist_evals", "count"},
    {"index.hops", "count"},
    {"serve.publish_s", "s"}, {"serve.prepare_cold_s", "s"},
    {"serve.engine_query_s", "s"}, {"serve.engine_batch_query_s", "s"},
    {"serve.overhead_s", "s"}, {"serve.queue_depth_p99", "count"},
    {"serve.mean_batch", "count"}, {"serve.plan_cache_hit_ratio", "ratio"},
    {"serve.rejected", "count"}, {"serve.expired", "count"},
    {"serve.errors", "count"}, {"serve.gen_lag_p99_s", "s"},
    {"live.insert_p99_s", "s"}, {"live.remove_p99_s", "s"},
    {"live.overflow_waits", "count"}, {"live.merges", "count"},
    {"live.merged_points", "count"}, {"live.compactions", "count"},
    {"live.merge_s", "s"},
    {"trace.overhead_s", "s"}, {"trace.overhead_ratio", "ratio"},
};

double ctr(const obs::TraceReport& r, const char* name) {
  return static_cast<double>(r.counter(name));
}

/// What the obs layer and the public calls gave during one run.
struct LayerInputs {
  obs::TraceReport setup, measure;
  double ops = 0;          // measured units of work (solves or reads)
  double dim = 0;
  double compile_s = 0;    // offline: compile() wall; serve: cold prepare()
  double traversal_s = 0;  // offline: summed CompileArtifacts::traversal_seconds
  double tree_s = 0;       // offline: summed CompileArtifacts::tree_build_seconds
  TraversalStats trav;     // offline: summed PortalExpr::stats()
  double solves = 0;
};

void common_layers(Record& rec, const LayerInputs& in) {
  const obs::TraceReport& m = in.measure;
  const obs::TraceReport& s = in.setup;
  // core
  const double compiles =
      s.timer_count("compile/total") + m.timer_count("compile/total");
  rec.layer("core.compile_s", in.compile_s, "s");
  rec.layer("core.ir_nodes_out",
            per(ctr(s, "pass/constant-folding/ir_nodes_out") +
                    ctr(m, "pass/constant-folding/ir_nodes_out"),
                compiles),
            "count");
  rec.layer("core.jit_compile_s", s.timer_seconds("jit/compile"), "s");
  rec.layer("core.jit_artifact_hits", ctr(m, "jit/artifact/hits"), "count");
  rec.layer("core.jit_artifact_misses", ctr(m, "jit/artifact/misses"), "count");
  // tree, measured phase only (offline solves, serve-ingest merges)
  const double kd_builds = static_cast<double>(m.timer_count("tree/kd/build"));
  rec.layer("tree.kd_build_s", per(m.timer_seconds("tree/kd/build"), kd_builds), "s");
  rec.layer("tree.soa_mirror_s",
            per(m.timer_seconds("tree/soa_mirror"),
                static_cast<double>(m.timer_count("tree/soa_mirror"))),
            "s");
  rec.layer("tree.build_points", per(ctr(m, "tree/kd/points"), kd_builds), "count");
  rec.layer("tree.kd_builds", kd_builds, "count");
  rec.layer("tree.solve_build_s", per(in.tree_s, in.solves), "s");
  // traversal: offline dual-tree (per solve), serve cursor (per read)
  rec.layer("traversal.dual_s", per(in.traversal_s, in.solves), "s");
  rec.layer("traversal.pairs_visited",
            per(static_cast<double>(in.trav.pairs_visited), in.solves), "count");
  rec.layer("traversal.prunes", per(static_cast<double>(in.trav.prunes), in.solves),
            "count");
  rec.layer("traversal.base_cases",
            per(static_cast<double>(in.trav.base_cases), in.solves), "count");
  rec.layer("traversal.prune_ratio",
            per(static_cast<double>(in.trav.prunes),
                static_cast<double>(in.trav.pairs_visited)),
            "ratio");
  rec.layer("traversal.steps_per_query",
            in.solves > 0 ? 0 : per(ctr(m, "traversal/cursor/steps"), in.ops), "count");
  rec.layer("traversal.suspend_ratio",
            per(ctr(m, "traversal/cursor/suspends"), ctr(m, "traversal/cursor/resumes")),
            "ratio");
  // kernels (leaf tiles), per unit of work. bytes_computed is the operand
  // volume the pairs read (pairs x dim x sizeof(real_t)), not memory traffic.
  const double batch = ctr(m, "base/batch_pairs");
  const double scalar = ctr(m, "base/scalar_pairs");
  rec.layer("kernels.batch_pairs", per(batch, in.ops), "count");
  rec.layer("kernels.scalar_pairs", per(scalar, in.ops), "count");
  rec.layer("kernels.batched_ratio", per(batch, batch + scalar), "ratio");
  rec.layer("kernels.pair_rate", per(batch + scalar, in.traversal_s), "1/s");
  rec.layer("kernels.bytes_computed",
            per((batch + scalar) * in.dim * static_cast<double>(sizeof(real_t)), in.ops),
            "B");
  // index (graph path), per graph query
  const double gq = ctr(m, "index/graph/queries");
  rec.layer("index.query_dist_evals", per(ctr(m, "index/graph/dist_evals"), gq), "count");
  rec.layer("index.hops", per(ctr(m, "index/graph/hops"), gq), "count");
}

/// Tracing overhead: the traced half's latency_p50 against the untraced
/// half's, same process, same inputs.
void overhead_layers(Record& rec, double traced_p50, double untraced_p50) {
  rec.layer("trace.overhead_s", traced_p50 - untraced_p50, "s");
  rec.layer("trace.overhead_ratio", per(traced_p50 - untraced_p50, untraced_p50), "ratio");
}

// ---------------------------------------------------------------------------
// Brute-force oracles (independent of the compiler under test).

double sq_dist(const Dataset& a, index_t i, const Dataset& b, index_t j) {
  double s = 0;
  for (index_t d = 0; d < a.dim(); ++d) {
    const double t = static_cast<double>(a.coord(i, d)) - b.coord(j, d);
    s += t * t;
  }
  return s;
}

double sq_dist_pt(const Dataset& a, index_t i, const real_t* p) {
  double s = 0;
  for (index_t d = 0; d < a.dim(); ++d) {
    const double t = static_cast<double>(a.coord(i, d)) - p[d];
    s += t * t;
  }
  return s;
}

std::vector<index_t> sample_indices(index_t n, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<index_t> out;
  for (int i = 0; i < count; ++i) out.push_back(rng.below(n));
  return out;
}

/// The oracle's sum of a distance kernel over every reference point.
double oracle_sum(const Dataset& data, index_t q,
                  const std::function<double(double)>& kernel_of_sq) {
  double s = 0;
  for (index_t j = 0; j < data.size(); ++j) s += kernel_of_sq(sq_dist(data, q, data, j));
  return s;
}

// ---------------------------------------------------------------------------
// offline: fresh PortalExpr all-pairs solves (the paper's Table IV use).

struct Program {
  std::string name;
  Storage data;
  std::function<void(PortalExpr&)> define;
  std::function<void(const Storage& out, Record& rec)> check;
};

std::vector<Program> offline_programs(const Options& opt) {
  const index_t knn_n =
      std::max<index_t>(2000, static_cast<index_t>(kOfflineKnnN * opt.scale));
  const index_t ell_n =
      std::max<index_t>(2000, static_cast<index_t>(kOfflineEllN * opt.scale));
  Storage clustered(make_gaussian_mixture(knn_n, kOfflineKnnDim, 32,
                                          stream_seed(opt.seed, 1)));
  Storage ellip(make_elliptical(ell_n, stream_seed(opt.seed, 2)).positions);
  const std::uint64_t check_seed = stream_seed(opt.seed, 3);
  std::vector<Program> progs;

  {  // kNN k=5, Euclidean, d=10 clustered. Ids must be distinct and carry
     // the oracle's k smallest distances in order (ties may swap ids).
    const std::vector<index_t> qs = sample_indices(knn_n, kOfflineCheckQueries, check_seed);
    const Dataset& ds = clustered.dataset();
    auto oracle = std::make_shared<std::vector<std::vector<double>>>();
    for (const index_t q : qs) {
      std::vector<double> d2(static_cast<std::size_t>(ds.size()));
      for (index_t j = 0; j < ds.size(); ++j) d2[static_cast<std::size_t>(j)] = sq_dist(ds, q, ds, j);
      std::partial_sort(d2.begin(), d2.begin() + kOfflineKnnK, d2.end());
      oracle->push_back({d2.begin(), d2.begin() + kOfflineKnnK});
    }
    progs.push_back({"knn", clustered,
                     [clustered](PortalExpr& e) {
                       e.addLayer(PortalOp::FORALL, clustered);
                       e.addLayer({PortalOp::KARGMIN, kOfflineKnnK}, clustered,
                                  PortalFunc::EUCLIDEAN);
                     },
                     [qs, oracle, clustered](const Storage& out, Record& rec) {
                       const Dataset& ds = clustered.dataset();
                       for (std::size_t s = 0; s < qs.size(); ++s) {
                         ++rec.checked;
                         std::set<index_t> seen;
                         for (index_t p = 0; p < kOfflineKnnK; ++p) {
                           const index_t id = out.index_at(qs[s], p);
                           const bool ok =
                               id >= 0 && id < ds.size() && seen.insert(id).second &&
                               rel_close(std::sqrt(sq_dist(ds, qs[s], ds, id)),
                                         std::sqrt((*oracle)[s][static_cast<std::size_t>(p)]),
                                         1e-9);
                           if (!ok) {
                             rec.mismatch("knn q=" + std::to_string(qs[s]) +
                                          " slot " + std::to_string(p));
                             break;
                           }
                         }
                       }
                     }});
  }

  // KDE and the custom SUM: within tau * N of the exact sum, the bound
  // tests/test_problems_kde.cpp asserts (per-pair error <= tau).
  const Dataset& ed = ellip.dataset();
  const std::vector<index_t> eqs = sample_indices(ed.size(), kOfflineCheckQueries, check_seed + 1);
  const double sum_bound = kOfflineTau * static_cast<double>(ed.size()) + 1e-9;
  auto sum_check = [eqs, sum_bound, ellip](const std::string& name,
                                           std::function<double(double)> k) {
    auto oracle = std::make_shared<std::vector<double>>();
    for (const index_t q : eqs) oracle->push_back(oracle_sum(ellip.dataset(), q, k));
    return [eqs, sum_bound, oracle, name](const Storage& out, Record& rec) {
      for (std::size_t s = 0; s < eqs.size(); ++s) {
        ++rec.checked;
        const double got = out.value(eqs[s]);
        if (!(std::fabs(got - (*oracle)[s]) <= sum_bound))
          rec.mismatch(name + " q=" + std::to_string(eqs[s]) + " got " +
                       std::to_string(got) + " want " + std::to_string((*oracle)[s]));
      }
    };
  };

  {  // Gaussian KDE, tau = 1e-3, d=3 elliptical
    const double c = 1.0 / (2 * kKdeSigma * kKdeSigma);
    progs.push_back({"kde", ellip,
                     [ellip](PortalExpr& e) {
                       e.addLayer(PortalOp::FORALL, ellip);
                       e.addLayer(PortalOp::SUM, ellip, PortalFunc::gaussian(kKdeSigma));
                     },
                     sum_check("kde", [c](double d2) { return std::exp(-c * d2); })});
  }

  {  // range search: UNIONARG over I(0 < d < h), d=3 elliptical. The id set
     // must match the oracle's except for points within 1e-9 of the radius.
    const double h2 = kRangeH * kRangeH;
    progs.push_back(
        {"rs", ellip,
         [ellip](PortalExpr& e) {
           e.addLayer(PortalOp::FORALL, ellip);
           e.addLayer(PortalOp::UNIONARG, ellip, PortalFunc::indicator(0, kRangeH));
         },
         [eqs, ellip, h2](const Storage& out, Record& rec) {
           const Dataset& ds = ellip.dataset();
           for (const index_t q : eqs) {
             ++rec.checked;
             std::set<index_t> got;
             for (index_t i = 0; i < out.list_size(q); ++i) got.insert(out.list_at(q, i));
             bool ok = true;
             for (index_t j = 0; j < ds.size() && ok; ++j) {
               const double d2 = sq_dist(ds, q, ds, j);
               const bool inside = d2 > 0 && d2 < h2;
               const bool boundary = std::fabs(d2 - h2) <= 1e-9 * h2 || d2 <= 1e-300;
               if (!boundary && inside != (got.count(j) == 1)) ok = false;
               got.erase(j);
             }
             if (!ok || !got.empty())
               rec.mismatch("rs q=" + std::to_string(q));
           }
         }});
  }

  {  // A custom Expr kernel no pattern recognizes (Cauchy), so Engine::Auto
     // sends it through the JIT and the generic executor.
    const double inv_h2 = 1.0 / (kCauchyH * kCauchyH);
    progs.push_back({"custom", ellip,
                     [ellip, inv_h2](PortalExpr& e) {
                       Var q, r;
                       const Expr d2 = dimsum(pow(Expr(q) - Expr(r), 2));
                       const Expr cauchy =
                           Expr(real_t(1)) / (Expr(real_t(1)) + d2 * Expr(real_t(inv_h2)));
                       e.addLayer(PortalOp::FORALL, q, ellip);
                       e.addLayer(PortalOp::SUM, r, ellip, cauchy);
                     },
                     sum_check("custom", [inv_h2](double d2) { return 1.0 / (1.0 + d2 * inv_h2); })});
  }
  return progs;
}

struct SolveOut {
  double wall = 0, compile_wall = 0;
  Storage out;
  CompileArtifacts art;
  TraversalStats stats;
};

/// One fresh solve: compile() then execute() on a new PortalExpr. The wall
/// covers both calls (compile, tree build, traversal).
SolveOut solve(const Program& p, SpanLog& spans, long parent) {
  SolveOut s;
  PortalExpr expr;
  p.define(expr);
  PortalConfig config;
  config.tau = kOfflineTau;
  expr.setConfig(config);
  const long span = spans.open("solve:" + p.name, now_s(), parent);
  s.wall = timed([&] {
    double t0 = now_s();
    s.compile_wall = timed([&] { expr.compile(); });
    spans.add("compile", t0, now_s(), span);
    t0 = now_s();
    expr.execute();
    spans.add("execute", t0, now_s(), span);
  });
  spans.close(span, now_s());
  s.out = expr.getOutput();
  s.art = expr.artifacts();
  s.stats = expr.stats();
  return s;
}

/// The approximate all-kNN program (the index layer's offline use): a fresh
/// KnnGraph over its points, then a beam search for every query point.
struct GraphProgram {
  Dataset data;
  std::vector<std::vector<real_t>> queries;
  std::vector<std::set<index_t>> truth;  // exact k nearest of the checked queries
};

struct GraphSolve {
  double wall = 0;
  KnnGraphStats stats;
  std::vector<index_t> ids;  // kGraphK per query
  std::vector<real_t> sq;
};

GraphProgram graph_program(const Options& opt) {
  GraphProgram g{make_gaussian_mixture(
                     std::max<index_t>(500, static_cast<index_t>(kGraphN * opt.scale)),
                     kGraphDim, 8, stream_seed(opt.seed, 4)),
                 {},
                 {}};
  Rng rng(stream_seed(opt.seed, 5));
  for (index_t i = 0; i < kGraphQueries; ++i) {
    const index_t base = rng.below(g.data.size());
    std::vector<real_t> p(static_cast<std::size_t>(kGraphDim));
    for (index_t d = 0; d < kGraphDim; ++d)
      p[static_cast<std::size_t>(d)] =
          g.data.coord(base, d) + static_cast<real_t>((rng.uniform() - 0.5) * 0.1);
    g.queries.push_back(std::move(p));
  }
  for (int q = 0; q < kOfflineCheckQueries; ++q) {
    std::vector<std::pair<double, index_t>> d2;
    for (index_t j = 0; j < g.data.size(); ++j)
      d2.push_back({sq_dist_pt(g.data, j, g.queries[static_cast<std::size_t>(q)].data()), j});
    std::partial_sort(d2.begin(), d2.begin() + kGraphK, d2.end());
    std::set<index_t> ids;
    for (index_t i = 0; i < kGraphK; ++i) ids.insert(d2[static_cast<std::size_t>(i)].second);
    g.truth.push_back(std::move(ids));
  }
  return g;
}

GraphSolve solve_graph(const GraphProgram& g, SpanLog& spans, long parent) {
  GraphSolve s;
  s.ids.resize(static_cast<std::size_t>(kGraphQueries * kGraphK));
  s.sq.resize(s.ids.size());
  const long span = spans.open("solve:ann", now_s(), parent);
  s.wall = timed([&] {
    double t0 = now_s();
    const KnnGraph graph(g.data);
    spans.add("graph_build", t0, now_s(), span);
    t0 = now_s();
    KnnGraph::SearchScratch scratch;
    for (index_t q = 0; q < kGraphQueries; ++q)
      graph.search(g.queries[static_cast<std::size_t>(q)].data(), kGraphK, kGraphBeam, scratch,
                   s.sq.data() + q * kGraphK, s.ids.data() + q * kGraphK);
    spans.add("graph_search", t0, now_s(), span);
    s.stats = graph.stats();
  });
  spans.close(span, now_s());
  return s;
}

/// Every returned id is distinct and carries its exact squared distance;
/// recall@k against the brute-force truth is counted into hits/slots.
void check_graph(const GraphProgram& g, const GraphSolve& s, Record& rec, double& hits,
                 double& slots) {
  for (index_t q = 0; q < kGraphQueries; ++q) {
    const real_t* pt = g.queries[static_cast<std::size_t>(q)].data();
    std::set<index_t> seen;
    bool ok = true;
    for (index_t i = 0; ok && i < kGraphK; ++i) {
      const std::size_t slot = static_cast<std::size_t>(q * kGraphK + i);
      const index_t id = s.ids[slot];
      ok = id >= 0 && id < g.data.size() && seen.insert(id).second &&
           rel_close(s.sq[slot], sq_dist_pt(g.data, id, pt), 1e-9);
    }
    if (!ok) rec.mismatch("ann q=" + std::to_string(q) + " returned an id without its distance");
    if (q < kOfflineCheckQueries) {
      ++rec.checked;
      for (const index_t id : seen) hits += static_cast<double>(g.truth[static_cast<std::size_t>(q)].count(id));
      slots += kGraphK;
    }
  }
}

struct OfflineRounds {
  std::map<std::string, std::vector<double>> walls;
  Phase phase;
  double compile_s = 0, traversal_s = 0, tree_s = 0, dim_sum = 0, solves = 0;
  TraversalStats trav;
  double graph_solves = 0, graph_build_s = 0, graph_dist_evals = 0, graph_rounds = 0;
  double recall_hits = 0, recall_slots = 0;
};

/// Rounds of fresh solves of every program until `seconds` are spent (at
/// least `min_rounds` rounds).
OfflineRounds offline_rounds(const std::vector<Program>& progs, const GraphProgram& graph,
                             double seconds, int min_rounds, const std::string& name,
                             Record& rec, SpanLog& spans) {
  OfflineRounds r;
  r.phase.name = name;
  const double t_end = now_s() + seconds;
  for (int round = 0; round < min_rounds || now_s() < t_end; ++round) {
    const long round_span = spans.open("round", now_s());
    for (const Program& p : progs) {
      const SolveOut s = solve(p, spans, round_span);
      r.walls[p.name].push_back(s.wall);
      ++r.phase.sent;
      ++r.phase.ok;
      p.check(s.out, rec);
      r.compile_s += s.compile_wall;
      r.traversal_s += s.art.traversal_seconds;
      r.tree_s += s.art.tree_build_seconds;
      r.trav += s.stats;
      r.solves += 1;
      r.dim_sum += static_cast<double>(p.data.dim());
    }
    const GraphSolve g = solve_graph(graph, spans, round_span);
    r.walls["ann"].push_back(g.wall);
    ++r.phase.sent;
    ++r.phase.ok;
    check_graph(graph, g, rec, r.recall_hits, r.recall_slots);
    r.graph_solves += 1;
    r.graph_build_s += g.stats.build_seconds;
    r.graph_dist_evals += static_cast<double>(g.stats.dist_evals);
    r.graph_rounds += static_cast<double>(g.stats.rounds);
    spans.close(round_span, now_s());
  }
  return r;
}

/// latency_p50_s on offline: the sum over the programs of each one's median
/// solve wall (one fresh solve of each program).
double offline_p50(const OfflineRounds& r) {
  double sum = 0;
  for (const auto& [name, walls] : r.walls) sum += quantile(walls, 0.5);
  return sum;
}

void run_offline(const Options& opt, Record& rec, SpanLog& spans) {
  const std::vector<Program> progs = offline_programs(opt);
  const GraphProgram graph = graph_program(opt);
  Phase setup_phase{"setup"};
  std::map<std::string, std::string> engines;

  // Set-up: the first solve of each program, cold JIT compile included (the
  // artifact cache directory is fresh and empty in every process).
  const long setup_span = spans.open("setup", now_s());
  rec.setups.push_back(timed([&] {
    for (const Program& p : progs) {
      const SolveOut s = solve(p, spans, setup_span);
      ++setup_phase.sent;
      ++setup_phase.ok;
      p.check(s.out, rec);
      engines[p.name] = s.art.chosen_engine;
    }
    const GraphSolve g = solve_graph(graph, spans, setup_span);
    ++setup_phase.sent;
    ++setup_phase.ok;
    double hits = 0, slots = 0;
    check_graph(graph, g, rec, hits, slots);
  }));
  spans.close(setup_span, now_s());
  rec.phase(setup_phase);
  for (const auto& [name, engine] : engines)
    std::fprintf(stderr, "portal_perfbench: offline %s -> engine %s\n", name.c_str(),
                 engine.c_str());
  if (opt.setup_only) return;

  LayerInputs li;
  double untraced_p50 = 0;
  if (opt.trace) {
    li.setup = obs::collect();
    set_tracing(spans, false);
    const OfflineRounds base =
        offline_rounds(progs, graph, opt.seconds / 2, 2, "untraced", rec, spans);
    rec.phase(base.phase);
    untraced_p50 = offline_p50(base);
    obs::reset();
    set_tracing(spans, true);
  }
  const OfflineRounds r = offline_rounds(progs, graph,
                                         opt.trace ? opt.seconds / 2 : opt.seconds,
                                         opt.trace ? 2 : 3, "measure", rec, spans);
  rec.phase(r.phase);

  // Each program's median and tail. A run has too few solves for a
  // percentile with ten samples beyond it, so _solve_tail_s is the slowest;
  // latency_tail_s sums the upper quartiles.
  double tail_sum = 0;
  for (const auto& [name, w] : r.walls) {
    const double tq = tail_q(w.size());
    tail_sum += quantile(w, kTailQ);
    rec.metric(name + "_solve_s", quantile(w, 0.5), "s");
    rec.metric(name + "_solve_samples", static_cast<double>(w.size()), "count");
    rec.metric(name + "_solve_tail_q", tq, "quantile");
    rec.metric(name + "_solve_tail_s", quantile(w, tq), "s");
  }
  rec.metric("ann_recall_at_10", per(r.recall_hits, r.recall_slots), "ratio");
  rec.p50s.push_back(offline_p50(r));
  rec.tails.push_back(tail_sum);
  rec.tail_q = kTailQ;
  rec.samples = r.walls.at("knn").size();

  if (opt.trace) {
    li.measure = obs::collect();
    li.ops = li.solves = r.solves;
    li.dim = per(r.dim_sum, r.solves);
    li.compile_s = per(r.compile_s, r.solves);
    li.traversal_s = r.traversal_s;
    li.tree_s = r.tree_s;
    li.trav = r.trav;
    common_layers(rec, li);
    rec.layer("index.build_s", per(r.graph_build_s, r.graph_solves), "s");
    rec.layer("index.build_dist_evals", per(r.graph_dist_evals, r.graph_solves), "count");
    rec.layer("index.build_rounds", per(r.graph_rounds, r.graph_solves), "count");
    overhead_layers(rec, rec.p50s.back(), untraced_p50);
  }
}

// ---------------------------------------------------------------------------
// serve-*: open-loop traffic against PortalService.

struct ReadOp {
  std::string name;
  LayerSpec inner;
  double weight = 1;  // share of the workload's reads
};

LayerSpec inner_layer(OpSpec op, PortalFunc func) {
  LayerSpec l;
  l.op = op;
  l.func = std::move(func);
  return l;
}

struct Arrival {
  double due;  // seconds after the phase start
  int op;
  index_t query;
};

/// Poisson arrivals at `rate` over `seconds`, each op drawn by its weight.
std::vector<Arrival> poisson_schedule(Rng& rng, double rate, double seconds,
                                      const std::vector<ReadOp>& ops, index_t queries) {
  double total = 0;
  for (const ReadOp& op : ops) total += op.weight;
  std::vector<Arrival> out;
  double t = rng.exponential(1.0 / rate);
  while (t < seconds) {
    double pick = rng.uniform() * total;
    int op = 0;
    while (op + 1 < static_cast<int>(ops.size()) &&
           (pick -= ops[static_cast<std::size_t>(op)].weight) >= 0)
      ++op;
    out.push_back({t, op, rng.below(queries)});
    t += rng.exponential(1.0 / rate);
  }
  return out;
}

/// Query points: a dataset point plus a small seeded jitter.
std::vector<std::vector<real_t>> make_queries(const Dataset& data, index_t count,
                                              std::uint64_t seed, double jitter) {
  Rng rng(seed);
  std::vector<std::vector<real_t>> out;
  for (index_t i = 0; i < count; ++i) {
    const index_t base = rng.below(data.size());
    std::vector<real_t> p(static_cast<std::size_t>(data.dim()));
    for (index_t d = 0; d < data.dim(); ++d)
      p[static_cast<std::size_t>(d)] =
          data.coord(base, d) + static_cast<real_t>((rng.uniform() - 0.5) * jitter);
    out.push_back(std::move(p));
  }
  return out;
}

struct Kept {  // a sampled response kept for the answer check
  int op;
  index_t query;
  serve::Response resp;
};

struct LoadResult {
  std::vector<double> latency;  // per read, from the due time; +inf = failed
  std::vector<double> lag;      // generator lateness per read
  std::vector<Kept> kept;
  Phase phase;
  double first_quarter_p50 = 0, last_quarter_p50 = 0;
};

/// One open-loop phase: a generator thread sends `arrivals` on schedule
/// (resolving the plan through prepare() per request, as a serving frontend
/// does) and a collector thread awaits the futures. Latency runs from the
/// due time to fulfilment: (submit time - due) + Response::latency_ms.
LoadResult open_loop(serve::PortalService& svc, const std::vector<ReadOp>& ops,
                     const std::vector<std::vector<real_t>>& queries,
                     const std::vector<Arrival>& arrivals, const std::string& name,
                     SpanLog& spans, int check_every) {
  struct InFlight {
    std::size_t idx;
    double due_abs, submit_abs;
    long span;
    std::future<serve::Response> fut;
  };
  LoadResult res;
  res.phase.name = name;
  res.latency.assign(arrivals.size(), 0);
  res.lag.assign(arrivals.size(), 0);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> q;
  bool done = false;

  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !q.empty(); });
        if (q.empty()) return;
        f = std::move(q.front());
        q.pop_front();
      }
      serve::Response r = f.fut.get();
      const bool ok = r.status == serve::Status::Ok;
      const double end_abs = f.submit_abs + r.latency_ms * 1e-3;
      res.latency[f.idx] = ok ? end_abs - f.due_abs : INFINITY;
      spans.close(f.span, end_abs);
      (ok ? res.phase.ok : res.phase.failed) += 1;
      if (ok && check_every > 0 && f.idx % static_cast<std::size_t>(check_every) == 0 &&
          res.kept.size() < static_cast<std::size_t>(kServeCheckMax))
        res.kept.push_back({arrivals[f.idx].op, arrivals[f.idx].query, std::move(r)});
    }
  });

  std::thread generator([&] {
    tight_timer_slack();
    const double t0 = now_s() + 0.002;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      const double due_abs = t0 + a.due;
      wait_until_s(due_abs);
      const double sent = now_s();
      res.lag[i] = std::max(0.0, sent - due_abs);
      const long span = spans.open("request:" + ops[static_cast<std::size_t>(a.op)].name,
                                   due_abs, -1, static_cast<long>(i));
      const serve::PlanHandle plan = svc.prepare(ops[static_cast<std::size_t>(a.op)].inner);
      const double submit_abs = now_s();
      spans.add("prepare", sent, submit_abs, span, static_cast<long>(i));
      std::future<serve::Response> fut =
          svc.submit(plan, queries[static_cast<std::size_t>(a.query)]);
      spans.add("submit", submit_abs, now_s(), span, static_cast<long>(i));
      ++res.phase.sent;
      std::lock_guard<std::mutex> lock(mu);
      q.push_back({i, due_abs, submit_abs, span, std::move(fut)});
      cv.notify_one();
    }
  });
  generator.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();

  const std::size_t n = res.latency.size();
  if (n >= 8) {
    std::vector<double> first(res.latency.begin(), res.latency.begin() + n / 4);
    std::vector<double> last(res.latency.end() - n / 4, res.latency.end());
    res.first_quarter_p50 = quantile(first, 0.5);
    res.last_quarter_p50 = quantile(last, 0.5);
  }
  return res;
}

/// Unmeasured traffic at `rate` between set-up and the measured phase, so
/// first-touch page faults and lazily sized worker scratch settle first.
void warm_up(serve::PortalService& svc, const std::vector<ReadOp>& ops,
             const std::vector<std::vector<real_t>>& queries, Rng& rng, double rate) {
  SpanLog none;
  open_loop(svc, ops, queries,
            poisson_schedule(rng, rate, kWarmUpS, ops, static_cast<index_t>(queries.size())),
            "warm-up", none, 0);
}

struct ServeSetup {
  std::unique_ptr<serve::PortalService> svc;
  std::vector<serve::PlanHandle> plans;
  double publish_s = 0;
  std::vector<double> prepare_s;
};

/// Set-up: service construction, publish() (tree, SoA mirror and, in
/// approximate mode, the k-NN graph) and the cold prepare() of every plan.
ServeSetup serve_setup(const serve::ServiceOptions& so, const Dataset& data,
                       const std::vector<ReadOp>& ops, Record& rec, SpanLog& spans) {
  ServeSetup s;
  const long root = spans.open("setup", now_s());
  rec.setups.push_back(timed([&] {
    double t0 = now_s();
    s.svc = std::make_unique<serve::PortalService>(so);
    spans.add("service_ctor", t0, now_s(), root);
    t0 = now_s();
    s.publish_s = timed([&] { s.svc->publish(data); });
    spans.add("publish", t0, now_s(), root);
    for (const ReadOp& op : ops) {
      t0 = now_s();
      serve::PlanHandle plan;
      s.prepare_s.push_back(timed([&] { plan = s.svc->prepare(op.inner); }));
      spans.add("prepare_cold:" + op.name, t0, now_s(), root);
      s.plans.push_back(plan);
    }
  }));
  spans.close(root, now_s());
  rec.phase({"setup", 1 + ops.size(), 1 + ops.size(), 0});
  return s;
}

/// Check one kept read against its oracle answer (run_query_bruteforce on
/// the snapshot or pinned view). kNN: values within 1e-9 relative, ids equal
/// up to exact ties at the cut-off; range: equal id sets; sums: 1e-9 relative.
bool answers_agree(PortalOp op, const serve::QueryResult& got,
                   const serve::QueryResult& want) {
  if (got.values.size() != want.values.size() || got.ids.size() != want.ids.size())
    return false;
  for (std::size_t i = 0; i < got.values.size(); ++i)
    if (!rel_close(got.values[i], want.values[i], 1e-9)) return false;
  if (op == PortalOp::UNIONARG || op == PortalOp::UNION)
    return std::multiset<index_t>(got.ids.begin(), got.ids.end()) ==
           std::multiset<index_t>(want.ids.begin(), want.ids.end());
  if (got.ids.empty()) return true;
  const double cut = want.values.back();
  const auto below_cut = [&](const serve::QueryResult& r) {
    std::set<index_t> s;
    for (std::size_t i = 0; i < r.ids.size(); ++i)
      if (!rel_close(r.values[i], cut, 1e-9)) s.insert(r.ids[i]);
    return s;
  };
  const std::set<index_t> uniq(got.ids.begin(), got.ids.end());
  return uniq.size() == got.ids.size() && below_cut(got) == below_cut(want);
}

void check_kept(Record& rec, const std::vector<ReadOp>& ops,
                const std::vector<serve::PlanHandle>& plans,
                const std::vector<std::vector<real_t>>& queries,
                const std::vector<Kept>& kept,
                const std::shared_ptr<const TreeSnapshot>& snap) {
  for (const Kept& k : kept) {
    ++rec.checked;
    const real_t* pt = queries[static_cast<std::size_t>(k.query)].data();
    const serve::CompiledPlan& plan = *plans[static_cast<std::size_t>(k.op)];
    const serve::QueryResult want = k.resp.view
                                        ? serve::run_query_bruteforce(plan, *k.resp.view, pt)
                                        : serve::run_query_bruteforce(plan, *snap, pt);
    if (!answers_agree(ops[static_cast<std::size_t>(k.op)].inner.op.op, k.resp.result,
                       want))
      rec.mismatch(ops[static_cast<std::size_t>(k.op)].name + " query " +
                   std::to_string(k.query) + " disagrees with brute force");
  }
}

/// The uniform latency pair from one phase: p50 and the gated tail of read
/// latency in each of kLatencyWindows consecutive windows, so the reported
/// medians rest on several samples per trial.
constexpr std::size_t kLatencyWindows = 3;

void set_read_latency(Record& rec, const LoadResult& lr, double tail_q) {
  rec.tail_q = tail_q;
  const std::size_t n = lr.latency.size();
  for (std::size_t w = 0; w < kLatencyWindows; ++w) {
    const std::vector<double> win(lr.latency.begin() + static_cast<std::ptrdiff_t>(n * w / kLatencyWindows),
                                  lr.latency.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / kLatencyWindows));
    rec.p50s.push_back(quantile(win, 0.5));
    rec.tails.push_back(quantile(win, rec.tail_q));
  }
  rec.samples += n;
}

/// Latency rows shared by the serve workloads.
void latency_metrics(Record& rec, const LoadResult& lr) {
  rec.metric("read_p50_s", quantile(lr.latency, 0.5), "s");
  rec.metric("read_p90_s", quantile(lr.latency, 0.90), "s");
  rec.metric("read_p99_s", quantile(lr.latency, 0.99), "s");
  rec.metric("read_tail_q", tail_q(lr.latency.size()), "quantile");
  rec.metric("read_tail_s", quantile(lr.latency, tail_q(lr.latency.size())), "s");
  rec.metric("read_samples", static_cast<double>(lr.latency.size()), "count");
  rec.metric("gen_lag_p50_s", quantile(lr.lag, 0.5), "s");
  rec.metric("gen_lag_p99_s", quantile(lr.lag, 0.99), "s");
  rec.metric("gen_lag_max_s",
             lr.lag.empty() ? 0 : *std::max_element(lr.lag.begin(), lr.lag.end()), "s");
}

/// Engine replays (traced runs): the per-request engine cost without the
/// service, single-query and micro-batched at the observed mean batch size,
/// over the measured phase's own request points.
struct EngineFns {
  std::function<void(const serve::CompiledPlan&, const real_t*, serve::Workspace&)> one;
  std::function<void(const serve::CompiledPlan&, const real_t* const*, index_t,
                     serve::BatchWorkspace&, serve::QueryResult*)>
      batch;
};

EngineFns engine_fns(const std::shared_ptr<const TreeSnapshot>& snap,
                     const std::shared_ptr<const LiveView>& view,
                     const serve::EngineOptions& eopt) {
  EngineFns f;
  f.one = [snap, view, eopt](const serve::CompiledPlan& plan, const real_t* pt,
                             serve::Workspace& ws) {
    if (view)
      serve::run_query(plan, *view, pt, eopt, ws);
    else
      serve::run_query(plan, *snap, pt, eopt, ws);
  };
  f.batch = [snap, view, eopt](const serve::CompiledPlan& plan, const real_t* const* pts,
                               index_t count, serve::BatchWorkspace& bws,
                               serve::QueryResult* out) {
    if (view)
      serve::run_query_batch(plan, *view, pts, count, eopt, bws, out);
    else
      serve::run_query_batch(plan, *snap, pts, count, eopt, bws, out);
  };
  return f;
}

serve::EngineOptions engine_options(const serve::ServiceOptions& so) {
  serve::EngineOptions e;
  e.batch_base_cases = so.batch_base_cases;
  e.tau = so.tau;
  e.interleave_width = so.interleave_width;
  e.resume_steps = so.resume_steps;
  e.approx = so.approx;
  e.beam_width = so.beam_width;
  return e;
}

void engine_replays(Record& rec, const std::vector<serve::PlanHandle>& plans,
                    const EngineFns& fns, const std::vector<std::vector<real_t>>& queries,
                    const std::vector<Arrival>& arrivals, double mean_batch,
                    const std::vector<ReadOp>& ops, double read_p50) {
  const bool was = obs::enabled();
  obs::set_enabled(false);
  serve::Workspace ws;
  std::vector<double> single;
  std::vector<std::vector<double>> per_op(plans.size());
  const std::size_t n = std::min<std::size_t>(arrivals.size(), kReplayQueries);
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = arrivals[i];
    const double t0 = now_s();
    fns.one(*plans[static_cast<std::size_t>(a.op)],
            queries[static_cast<std::size_t>(a.query)].data(), ws);
    single.push_back(now_s() - t0);
    per_op[static_cast<std::size_t>(a.op)].push_back(single.back());
  }
  if (plans.size() > 1)
    for (std::size_t op = 0; op < plans.size(); ++op)
      rec.metric("engine_query_s." + ops[op].name, quantile(per_op[op], 0.5), "s");
  const index_t b = std::max<index_t>(1, static_cast<index_t>(std::lround(mean_batch)));
  serve::BatchWorkspace bws;
  std::vector<serve::QueryResult> out(static_cast<std::size_t>(b));
  std::vector<double> batched;
  for (int op = 0; op < static_cast<int>(plans.size()); ++op) {
    std::vector<const real_t*> pts;
    for (std::size_t i = 0; i < n; ++i)
      if (arrivals[i].op == op)
        pts.push_back(queries[static_cast<std::size_t>(arrivals[i].query)].data());
    for (std::size_t i = 0; i + static_cast<std::size_t>(b) <= pts.size();
         i += static_cast<std::size_t>(b)) {
      const double t0 = now_s();
      fns.batch(*plans[static_cast<std::size_t>(op)], pts.data() + i, b, bws, out.data());
      batched.push_back((now_s() - t0) / static_cast<double>(b));
    }
  }
  obs::set_enabled(was);
  rec.layer("serve.engine_query_s", quantile(single, 0.5), "s");
  rec.layer("serve.engine_batch_query_s", quantile(batched, 0.5), "s");
  rec.layer("serve.overhead_s", read_p50 - quantile(single, 0.5), "s");
  rec.metric("replay_batch_size", static_cast<double>(b), "count");
}

/// TreeSnapshot::build wall on the workload's dataset (median of three),
/// with the service's snapshot options; obs is off so it does not count in
/// the measured phase's tree rows.
void snapshot_build_layer(Record& rec, const Dataset& data, const SnapshotOptions& so) {
  const bool was = obs::enabled();
  obs::set_enabled(false);
  const auto shared = std::make_shared<const Dataset>(data);
  SnapshotOptions tree_only = so;
  tree_only.build_graph = false;
  std::vector<double> walls;
  for (int rep = 0; rep < 3; ++rep)
    walls.push_back(timed([&] { TreeSnapshot::build(shared, 1, tree_only); }));
  obs::set_enabled(was);
  rec.layer("tree.snapshot_build_s", quantile(walls, 0.5), "s");
}

void serve_layers(Record& rec, const ServeSetup& s, const serve::ServiceStats& st,
                  const LoadResult& lr, LayerInputs& li) {
  rec.layer("serve.publish_s", s.publish_s, "s");
  rec.layer("serve.prepare_cold_s", quantile(s.prepare_s, 0.5), "s");
  rec.layer("serve.queue_depth_p99", s.svc->queue_depth().quantile(0.99) * 1e9, "count");
  rec.layer("serve.mean_batch", st.mean_batch(), "count");
  rec.layer("serve.plan_cache_hit_ratio", st.plan_cache.hit_rate(), "ratio");
  rec.layer("serve.rejected", static_cast<double>(st.rejected), "count");
  rec.layer("serve.expired", static_cast<double>(st.expired), "count");
  rec.layer("serve.errors", static_cast<double>(st.errors), "count");
  rec.layer("serve.gen_lag_p99_s", quantile(lr.lag, 0.99), "s");
  li.compile_s = quantile(s.prepare_s, 0.5);
  common_layers(rec, li);
}

std::vector<ReadOp> mixed_ops() {
  // Engine costs on the 100k d=3 set: kNN ~5 us, RS ~0.35 ms, exact KDE
  // (the service's default tau = 0) ~2-3 ms. The median read is an RS and
  // the p90 read a KDE, so both quantiles sit inside one request kind's
  // cost distribution, set by engine work and head-of-line blocking rather
  // than by thread wake-ups.
  return {{"knn", inner_layer({PortalOp::KARGMIN, 5}, PortalFunc::EUCLIDEAN), 0.25},
          {"kde", inner_layer(PortalOp::SUM, PortalFunc::gaussian(kServeKdeSigma)), 0.20},
          {"rs", inner_layer(PortalOp::UNIONARG, PortalFunc::indicator(0, kServeRangeH)),
           0.55}};
}

/// An untraced serve run measures kServeTrials fresh services (set-up
/// included) one after another and reports medians across them; a traced
/// run uses one. Wake-up stalls on a small shared host are ms-scale and
/// settle per service, so one service per run would make its tail a lottery.
constexpr int kServeTrials = 3;

int serve_trials(const Options& opt) { return opt.trace ? 1 : kServeTrials; }

void begin_trial(Record& rec, int t) {
  rec.trial = std::to_string(t + 1);
  rec.trial.insert(0, 1, 't');
  rec.trial += '-';
}

/// Split of one traced serve trial: an untraced phase of half the budget
/// first (its p50 is the overhead baseline), then tracing is switched on.
struct TraceSplit {
  double budget = 0;
  double untraced_p50 = 0;
};

template <class RunPhase>
TraceSplit split_for_trace(const Options& opt, double budget, LayerInputs& li,
                           SpanLog& spans, Record& rec, RunPhase&& run_phase) {
  TraceSplit t;
  t.budget = budget;
  if (!opt.trace) return t;
  li.setup = obs::collect();
  set_tracing(spans, false);
  t.budget = budget / 2;
  const LoadResult base = run_phase(t.budget, "untraced");
  rec.phase(base.phase);
  t.untraced_p50 = quantile(base.latency, 0.5);
  obs::reset();
  set_tracing(spans, true);
  return t;
}

void run_serve_mixed(const Options& opt, Record& rec, SpanLog& spans) {
  const index_t n = std::max<index_t>(4000, static_cast<index_t>(kServeN * opt.scale));
  const Dataset data = make_gaussian_mixture(n, 3, kServeClusters, stream_seed(opt.seed, 11));
  const std::vector<ReadOp> ops = mixed_ops();
  const serve::ServiceOptions so;  // defaults: 2 workers, interleave on
  const std::vector<std::vector<real_t>> queries =
      make_queries(data, kQueryPool, stream_seed(opt.seed, 12), 0.1);
  Rng rng(stream_seed(opt.seed, 13));
  // Untraced runs: the trials at the nominal rate get half the budget and
  // the rest of the ladder shares the other half, on the last trial's
  // service. A traced run measures the nominal rate only.
  const int trials = serve_trials(opt);
  const double nominal_s = opt.trace ? opt.seconds : opt.seconds / 2 / trials;
  for (int t = 0; t < trials; ++t) {
    begin_trial(rec, t);
    ServeSetup s = serve_setup(so, data, ops, rec, spans);
    if (opt.setup_only) continue;
    warm_up(*s.svc, ops, queries, rng, kMixedLadder[0]);

    std::vector<Arrival> nominal;
    const auto phase = [&](double secs, double rate, const std::string& name) {
      const std::vector<Arrival> sched = poisson_schedule(rng, rate, secs, ops, kQueryPool);
      LoadResult lr = open_loop(*s.svc, ops, queries, sched, name, spans, kServeCheckEvery);
      check_kept(rec, ops, s.plans, queries, lr.kept, s.svc->snapshot());
      if (name == "nominal") nominal = sched;
      return lr;
    };
    LayerInputs li;
    const TraceSplit ts = split_for_trace(opt, nominal_s, li, spans, rec,
                                          [&](double secs, const char* nm) {
                                            return phase(secs, kMixedLadder[0], nm);
                                          });
    const LoadResult lr = phase(ts.budget, kMixedLadder[0], "nominal");
    rec.phase(lr.phase);
    set_read_latency(rec, lr, kTailQ);
    latency_metrics(rec, lr);

    if (!opt.trace && t + 1 == trials) {
      // Ladder: the highest rate, going up, whose p99 stays under the limit
      // with no failures and no growing backlog (the last quarter's median
      // within twice the first quarter's plus 1 ms).
      double qps_at_slo = 0;
      bool below_slo = true;
      const std::size_t steps = std::size(kMixedLadder);
      for (std::size_t i = 0; i < steps; ++i) {
        const std::string name = "qps" + std::to_string(static_cast<int>(kMixedLadder[i]));
        LoadResult step_lr = lr;
        if (i > 0) {
          step_lr = phase(opt.seconds / 2 / static_cast<double>(steps - 1), kMixedLadder[i],
                          name);
          rec.phase(step_lr.phase);
        }
        const double p99 = quantile(step_lr.latency, 0.99);
        const bool steady =
            step_lr.last_quarter_p50 <= 2 * step_lr.first_quarter_p50 + 1e-3;
        rec.metric("read_p99_s." + name, p99, "s");
        below_slo = below_slo && p99 <= kMixedSloS && steady && step_lr.phase.failed == 0;
        if (below_slo) qps_at_slo = kMixedLadder[i];
      }
      rec.metric("read_qps_at_slo", qps_at_slo, "1/s");
      rec.metric("read_slo_s", kMixedSloS, "s");
    }
    if (!opt.trace) continue;

    const serve::ServiceStats st = s.svc->stats();
    li.measure = obs::collect();
    li.ops = static_cast<double>(lr.latency.size());
    li.dim = 3;
    engine_replays(rec, s.plans, engine_fns(s.svc->snapshot(), nullptr, engine_options(so)),
                   queries, nominal, st.mean_batch(), ops, quantile(lr.latency, 0.5));
    snapshot_build_layer(rec, data, so.snapshot);
    serve_layers(rec, s, st, lr, li);
    overhead_layers(rec, quantile(lr.latency, 0.5), ts.untraced_p50);
  }
}

struct WriteResult {
  Phase phase{"write"};
  std::vector<double> latency, insert_wall, remove_wall;
};

/// The writer: inserts on a fixed schedule; after every fourth insert it
/// removes the point inserted two ticks earlier. Latency runs from the
/// scheduled time.
WriteResult write_load(serve::PortalService& svc, const Dataset& data, double seconds,
                       std::uint64_t seed, SpanLog& spans) {
  WriteResult w;
  Rng wr(seed);
  tight_timer_slack();
  const double period = 1.0 / kIngestInsertRate;
  const std::size_t ticks = static_cast<std::size_t>(seconds * kIngestInsertRate);
  std::vector<std::vector<real_t>> inserted;
  const double t0 = now_s() + 0.002;
  for (std::size_t t = 0; t < ticks; ++t) {
    const double due = t0 + static_cast<double>(t) * period;
    sleep_until_s(due);
    std::vector<real_t> p(static_cast<std::size_t>(data.dim()));
    const index_t base = wr.below(data.size());
    for (index_t d = 0; d < data.dim(); ++d)
      p[static_cast<std::size_t>(d)] =
          data.coord(base, d) + static_cast<real_t>((wr.uniform() - 0.5) * 2e-3);
    double c0 = now_s();
    serve::IngestResult ir = svc.insert(p);
    double c1 = now_s();
    spans.add("insert", c0, c1);
    w.insert_wall.push_back(c1 - c0);
    w.latency.push_back(c1 - due);
    ++w.phase.sent;
    (ir.status == serve::IngestStatus::Ok ? w.phase.ok : w.phase.failed) += 1;
    inserted.push_back(p);
    if (t % 4 == 3) {
      c0 = now_s();
      ir = svc.remove(inserted[inserted.size() - 3]);
      c1 = now_s();
      spans.add("remove", c0, c1);
      w.remove_wall.push_back(c1 - c0);
      w.latency.push_back(c1 - due);
      ++w.phase.sent;
      (ir.status == serve::IngestStatus::Ok ? w.phase.ok : w.phase.failed) += 1;
    }
  }
  return w;
}

void run_serve_ingest(const Options& opt, Record& rec, SpanLog& spans) {
  const index_t n = std::max<index_t>(4000, static_cast<index_t>(kServeN * opt.scale));
  const Dataset data = make_gaussian_mixture(n, 3, kServeClusters, stream_seed(opt.seed, 21));
  const std::vector<ReadOp> ops = {mixed_ops()[0]};
  serve::ServiceOptions so;  // default delta sizing and merge policy
  so.capture_view = true;    // the answer check replays each pinned view
  const std::vector<std::vector<real_t>> queries =
      make_queries(data, kQueryPool, stream_seed(opt.seed, 22), 0.1);
  Rng rng(stream_seed(opt.seed, 23));
  int writer_stream = 24;
  const int trials = serve_trials(opt);
  for (int t = 0; t < trials; ++t) {
    begin_trial(rec, t);
    ServeSetup s = serve_setup(so, data, ops, rec, spans);
    if (opt.setup_only) continue;
    warm_up(*s.svc, ops, queries, rng, kIngestReadQps);

    std::vector<Arrival> sched;
    WriteResult writes;
    // Reads and writes side by side for `secs`.
    const auto phase = [&](double secs, const std::string& name) {
      sched = poisson_schedule(rng, kIngestReadQps, secs, ops, kQueryPool);
      std::thread writer([&, secs, stream = writer_stream++] {
        writes = write_load(*s.svc, data, secs, stream_seed(opt.seed, stream), spans);
      });
      LoadResult lr = open_loop(*s.svc, ops, queries, sched, name, spans, kServeCheckEvery);
      writer.join();
      writes.phase.name = name + "-write";
      rec.phase(writes.phase);
      check_kept(rec, ops, s.plans, queries, lr.kept, nullptr);
      return lr;
    };

    LayerInputs li;
    const TraceSplit ts = split_for_trace(opt, opt.seconds / trials, li, spans, rec,
                                          [&](double secs, const char* nm) { return phase(secs, nm); });
    const serve::ServiceStats before = s.svc->stats();
    const LoadResult lr = phase(ts.budget, "read");
    const serve::ServiceStats after = s.svc->stats();
    rec.phase(lr.phase);
    set_read_latency(rec, lr, kIngestTailQ);
    latency_metrics(rec, lr);
    rec.metric("write_p50_s", quantile(writes.latency, 0.5), "s");
    rec.metric("write_p99_s", quantile(writes.latency, 0.99), "s");
    rec.metric("writes_per_s", static_cast<double>(writes.phase.ok) / ts.budget, "1/s");
    rec.metric("merges", static_cast<double>(after.ingest.merges - before.ingest.merges),
               "count");
    if (!opt.trace) continue;

    li.measure = obs::collect();
    li.ops = static_cast<double>(lr.latency.size());
    li.dim = 3;
    rec.layer("live.insert_p99_s", quantile(writes.insert_wall, 0.99), "s");
    rec.layer("live.remove_p99_s", quantile(writes.remove_wall, 0.99), "s");
    rec.layer("live.overflow_waits", ctr(li.measure, "serve/ingest/overflow_waits"), "count");
    rec.layer("live.merges", static_cast<double>(after.ingest.merges - before.ingest.merges),
              "count");
    rec.layer("live.merged_points",
              static_cast<double>(after.ingest.merged_points - before.ingest.merged_points),
              "count");
    rec.layer("live.compactions",
              static_cast<double>(after.ingest.compactions - before.ingest.compactions),
              "count");
    engine_replays(rec, s.plans, engine_fns(nullptr, s.svc->view(), engine_options(so)),
                   queries, sched, after.mean_batch(), ops, quantile(lr.latency, 0.5));
    snapshot_build_layer(rec, data, so.snapshot);
    // merge_now() on a delta filled to just under merge_threshold (so the
    // background merger stays asleep), three times; the median.
    const bool was = obs::enabled();
    obs::set_enabled(false);
    s.svc->merge_now();
    std::vector<double> merge_walls;
    Rng mr(stream_seed(opt.seed, 25));
    for (int rep = 0; rep < 3; ++rep) {
      for (index_t i = 0; i + 1 < so.merge_threshold; ++i) {
        std::vector<real_t> p(3);
        const index_t base = mr.below(data.size());
        for (index_t d = 0; d < 3; ++d)
          p[static_cast<std::size_t>(d)] =
              data.coord(base, d) + static_cast<real_t>((mr.uniform() - 0.5) * 2e-3);
        s.svc->insert(p);
      }
      merge_walls.push_back(timed([&] { s.svc->merge_now(); }));
    }
    obs::set_enabled(was);
    rec.layer("live.merge_s", quantile(merge_walls, 0.5), "s");
    serve_layers(rec, s, after, lr, li);
    overhead_layers(rec, quantile(lr.latency, 0.5), ts.untraced_p50);
  }
}

void run_serve_ann(const Options& opt, Record& rec, SpanLog& spans) {
  const index_t n = std::max<index_t>(2000, static_cast<index_t>(kAnnN * opt.scale));
  const Dataset data = make_gaussian_mixture(n, kAnnDim, 8, stream_seed(opt.seed, 31));
  const std::vector<ReadOp> ops = {
      {"knn", inner_layer({PortalOp::KARGMIN, kAnnK}, PortalFunc::EUCLIDEAN)}};
  serve::ServiceOptions so;
  so.approx = true;  // default beam width 64
  const std::vector<std::vector<real_t>> queries =
      make_queries(data, kQueryPool, stream_seed(opt.seed, 32), 0.1);
  Rng rng(stream_seed(opt.seed, 33));
  const int trials = serve_trials(opt);
  for (int t = 0; t < trials; ++t) {
    begin_trial(rec, t);
    ServeSetup s = serve_setup(so, data, ops, rec, spans);
    if (opt.setup_only) continue;
    warm_up(*s.svc, ops, queries, rng, kAnnQps);
    const std::shared_ptr<const TreeSnapshot> snap = s.svc->snapshot();

    // Answer check: every returned id carries its exact distance (computed
    // here) and the answer came from the graph path; recall@10 is measured
    // against the exact brute force on the same snapshot.
    double hits = 0, slots = 0;
    std::vector<Arrival> sched;
    const auto phase = [&](double secs, const std::string& name) {
      sched = poisson_schedule(rng, kAnnQps, secs, ops, kQueryPool);
      LoadResult lr = open_loop(*s.svc, ops, queries, sched, name, spans, kServeCheckEvery);
      for (const Kept& k : lr.kept) {
        ++rec.checked;
        const real_t* pt = queries[static_cast<std::size_t>(k.query)].data();
        const serve::QueryResult& got = k.resp.result;
        bool ok = k.resp.approximate && got.ids.size() == static_cast<std::size_t>(kAnnK) &&
                  got.values.size() == got.ids.size();
        for (std::size_t i = 0; ok && i < got.ids.size(); ++i)
          ok = got.ids[i] >= 0 && got.ids[i] < data.size() &&
               rel_close(got.values[i], std::sqrt(sq_dist_pt(data, got.ids[i], pt)), 1e-9);
        if (!ok) {
          rec.mismatch("ann query " + std::to_string(k.query) +
                       " returned an id without its exact distance");
          continue;
        }
        const serve::QueryResult exact = serve::run_query_bruteforce(*s.plans[0], *snap, pt);
        const std::set<index_t> truth(exact.ids.begin(), exact.ids.end());
        for (const index_t id : got.ids) hits += static_cast<double>(truth.count(id));
        slots += static_cast<double>(exact.ids.size());
      }
      return lr;
    };

    LayerInputs li;
    const TraceSplit ts = split_for_trace(opt, opt.seconds / trials, li, spans, rec,
                                          [&](double secs, const char* nm) { return phase(secs, nm); });
    const LoadResult lr = phase(ts.budget, "read");
    const serve::ServiceStats st = s.svc->stats();
    rec.phase(lr.phase);
    set_read_latency(rec, lr, kTailQ);
    latency_metrics(rec, lr);
    rec.metric("recall_at_10", per(hits, slots), "ratio");
    if (!opt.trace) continue;

    li.measure = obs::collect();
    li.ops = static_cast<double>(lr.latency.size());
    li.dim = kAnnDim;
    const KnnGraphStats& gs = snap->graph()->stats();
    rec.layer("index.build_s", gs.build_seconds, "s");
    rec.layer("index.build_dist_evals", static_cast<double>(gs.dist_evals), "count");
    rec.layer("index.build_rounds", static_cast<double>(gs.rounds), "count");
    engine_replays(rec, s.plans, engine_fns(snap, nullptr, engine_options(so)), queries,
                   sched, st.mean_batch(), ops, quantile(lr.latency, 0.5));
    snapshot_build_layer(rec, data, so.snapshot);
    serve_layers(rec, s, st, lr, li);
    overhead_layers(rec, quantile(lr.latency, 0.5), ts.untraced_p50);
  }
}

// ---------------------------------------------------------------------------

std::string cpu_brand() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                     &regs[4 * i + 3]))
      return "unknown";
  char buf[sizeof(regs) + 1] = {};
  std::memcpy(buf, regs, sizeof(regs));
  std::string s(buf);
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  return s;
}

std::string machine_json() {
  JsonObj m;
  m.str("cpu", cpu_brand())
      .num("hardware_threads", std::thread::hardware_concurrency())
      .num("omp_max_threads", omp_get_max_threads());
  const char* omp = std::getenv("OMP_NUM_THREADS");
  m.str("OMP_NUM_THREADS", omp ? omp : "");
  __builtin_cpu_init();
  m.num("cpu_avx2", __builtin_cpu_supports("avx2") ? 1 : 0)
      .num("cpu_avx512f", __builtin_cpu_supports("avx512f") ? 1 : 0)
      .num("cpu_fma", __builtin_cpu_supports("fma") ? 1 : 0);
  std::string isa;
#ifdef __AVX2__
  isa += "avx2 ";
#endif
#ifdef __AVX512F__
  isa += "avx512f ";
#endif
#ifdef __FMA__
  isa += "fma ";
#endif
  m.str("build_isa", isa)
      .num("native_arch", PERFBENCH_NATIVE_ARCH)
      .str("compiler", PERFBENCH_COMPILER)
      .num("real_t_bytes", sizeof(real_t));
  return m.done();
}

std::string samples_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.10g", i ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string metrics_json(const std::vector<std::pair<std::string, Metric>>& ms) {
  JsonObj o;
  for (const auto& [name, m] : ms) {
    JsonObj v;
    v.num("value", m.value).str("unit", m.unit);
    o.raw(name, v.done());
  }
  return o.done();
}

int usage() {
  std::fprintf(stderr,
               "usage: portal_perfbench --workload offline|serve-mixed|serve-ingest|"
               "serve-ann --seed N --seconds S [--trace 0|1] [--setup-only] "
               "[--scale F] [--inject-slowdown F] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = val();
      else if (a == "--seed") opt.seed = std::stoull(val());
      else if (a == "--seconds") opt.seconds = std::stod(val());
      else if (a == "--trace") opt.trace = val() == "1";
      else if (a == "--setup-only") opt.setup_only = true;
      else if (a == "--scale") opt.scale = std::stod(val());
      else if (a == "--inject-slowdown") opt.inject_slowdown = std::stod(val());
      else if (a == "--spans") opt.spans_path = val();
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "portal_perfbench: %s\n", e.what());
      return usage();
    }
  }
  if (!(opt.seconds > 0) || !(opt.scale > 0) || opt.inject_slowdown < 0) return usage();
  g_inject = opt.inject_slowdown;
  SpanLog spans;
  set_tracing(spans, opt.trace);
  Record rec;
  try {
    if (opt.workload == "offline") run_offline(opt, rec, spans);
    else if (opt.workload == "serve-mixed") run_serve_mixed(opt, rec, spans);
    else if (opt.workload == "serve-ingest") run_serve_ingest(opt, rec, spans);
    else if (opt.workload == "serve-ann") run_serve_ann(opt, rec, spans);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "portal_perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace && !opt.setup_only) {
    for (const auto& [name, unit] : kLayerRows) {
      bool present = false;
      for (const auto& [k, v] : rec.layers) present = present || k == name;
      if (!present) rec.layer(name, 0, unit);
    }
    if (!opt.spans_path.empty() && !spans.write(opt.spans_path))
      std::fprintf(stderr, "portal_perfbench: cannot write %s\n", opt.spans_path.c_str());
  }

  JsonObj phases;
  for (const Phase& p : rec.phases) {
    JsonObj o;
    o.num("sent", static_cast<double>(p.sent))
        .num("ok", static_cast<double>(p.ok))
        .num("failed", static_cast<double>(p.failed));
    phases.raw(p.name, o.done());
  }
  JsonObj span_rows;
  for (const auto& [name, row] : spans.summary()) {
    JsonObj o;
    o.num("count", row[0]).num("total_s", row[1]).num("self_s", row[2]);
    span_rows.raw(name, o.done());
  }
  std::string notes = "[";
  for (std::size_t i = 0; i < rec.mismatch_notes.size(); ++i) {
    JsonObj o;
    o.str("note", rec.mismatch_notes[i]);
    if (i > 0) notes += ',';
    notes += o.done();
  }
  notes += "]";

  std::vector<std::pair<std::string, Metric>> named;
  for (const std::string& name : rec.order) {
    const auto& [values, unit] = rec.named.at(name);
    named.push_back({name, {quantile(values, 0.5), unit}});
  }
  JsonObj out;
  out.str("workload", opt.workload)
      .num("seed", static_cast<double>(opt.seed))
      .num("trace", opt.trace)
      .num("setup_only", opt.setup_only)
      .raw("setup_s", samples_json(rec.setups))
      .raw("latency_p50_s", samples_json(rec.p50s))
      .raw("latency_tail_s", samples_json(rec.tails))
      .num("latency_tail_q", rec.tail_q)
      .num("latency_samples", static_cast<double>(rec.samples))
      .num("peak_rss_mb", peak_rss_mb())
      .num("attempted", static_cast<double>(rec.attempted()))
      .num("failed", static_cast<double>(rec.failed()))
      .num("checked", static_cast<double>(rec.checked))
      .num("mismatches", static_cast<double>(rec.mismatches))
      .raw("mismatch_notes", notes)
      .raw("phases", phases.done())
      .raw("named", metrics_json(named))
      .raw("layers", metrics_json(rec.layers))
      .raw("spans", span_rows.done())
      .raw("machine", machine_json());
  std::printf("%s\n", out.done().c_str());
  return 0;
}
