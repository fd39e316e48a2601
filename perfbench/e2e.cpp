// End-to-end benchmark: raw SPICE text -> IR-drop map through the session
// server, and the golden MNA solve that labels it, on two seeded
// closed-loop workloads.  Both report the same metrics.  See README.md in
// this directory.
//
//   perfbench_e2e --workload <contest_tat|eco_sweep> --seed <n>
//                 --seconds <s> --trace <0|1> [--tiny] [--perturb]
//                 [--git-sha <sha>]
//   perfbench_e2e --check-spans
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1.  Every other line is information.  Exit code 0 only when every
// output check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "data/sample.hpp"
#include "features/feature_context.hpp"
#include "gen/began.hpp"
#include "gen/suite.hpp"
#include "models/registry.hpp"
#include "obs/metrics.hpp"
#include "pdn/circuit.hpp"
#include "pdn/solver.hpp"
#include "pdn/solver_context.hpp"
#include "pointcloud/cloud.hpp"
#include "pointcloud/pool.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/session.hpp"
#include "sparse/cg.hpp"
#include "sparse/preconditioner.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"
#include "spans.hpp"
#include "tensor/tensor.hpp"

extern char** environ;

namespace {

using namespace lmmir;
using perfbench::Clock;
using perfbench::SpanLog;
using Scope = perfbench::SpanLog::Scope;

// Pinned configuration: the session server's featurization is stated here
// because PipelineOptions{} (side 64) and from_environment() (side 48)
// disagree.
constexpr std::size_t kInputSide = 48;
constexpr int kTokenGrid = 8;
constexpr double kGoldenTolerance = 1e-10;
constexpr const char* kModelName = "LMM-IR";
constexpr int kClients = 2;
// setup_s is the median of this many complete set-ups per run.
constexpr int kSetups = 11;
// A warm re-solve's worst drop must match a cold solve of the same
// revision to this relative tolerance (both are solved to 1e-10).
constexpr double kWorstDropRelTol = 1e-6;

// ------------------------------------------------------------ arguments
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;
  bool check_spans = false;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload "
               "<contest_tat|eco_sweep> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--perturb] [--git-sha <sha>]\n"
               "       perfbench_e2e --check-spans\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = value();
      else if (k == "--seed") a.seed = std::stoull(value());
      else if (k == "--seconds") a.seconds = std::stod(value());
      else if (k == "--trace") a.trace = std::stoi(value()) != 0;
      else if (k == "--git-sha") a.git_sha = value();
      else if (k == "--tiny") a.tiny = true;
      else if (k == "--perturb") a.perturb = true;
      else if (k == "--check-spans") a.check_spans = true;
      else usage("unknown argument " + k);
    } catch (const std::logic_error&) {
      usage("malformed value for " + k);
    }
  }
  if (a.check_spans) return a;
  if (a.workload != "contest_tat" && a.workload != "eco_sweep")
    usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// ------------------------------------------------------------- helpers
/// splitmix64 over (seed, stream, index): every generator seed of a run
/// derives from the workload seed through this.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull +
                    stream * 0xD1B54A32D192ED03ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

enum Stream : std::uint64_t { kTable2 = 2, kEco = 3, kEdits = 4, kWarmup = 5 };

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Machine-wide CPU ticks from /proc/stat: {steal, total}.  The stamp
/// reports the share stolen by other guests over the run, which tells
/// steal apart from other host noise when a result reads noisy.
std::pair<double, double> cpu_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0, total = 0.0;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(in >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double now_s(Clock::time_point t0) { return perfbench::seconds_between(t0, Clock::now()); }

std::string fmt(const char* f, double v) {
  char buf[128];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// ------------------------------------------------------------- inputs
/// SPICE text of a ~48 µm BeGAN-style die (~1.2k nodes, ~100 KB).
std::string small_die_text(std::uint64_t seed) {
  gen::GeneratorConfig cfg;
  cfg.name = "die";
  cfg.width_um = cfg.height_um = 48.0;
  cfg.seed = seed;
  cfg.use_default_stack();
  cfg.bump_pitch_um = 6.0;
  cfg.total_current = 0.06 * (48.0 * 48.0) / (64.0 * 64.0);
  return spice::write_netlist_string(gen::generate_pdn(cfg), "die");
}

/// The ten Table II configs, each re-seeded from the workload seed
/// (table2_suite hard-codes its seeds).
std::vector<gen::GeneratorConfig> table2_configs(std::uint64_t seed, double scale) {
  gen::SuiteOptions so;
  so.scale = scale;
  std::vector<gen::GeneratorConfig> cfgs = gen::table2_suite(so);
  for (std::size_t i = 0; i < cfgs.size(); ++i)
    cfgs[i].seed = derive_seed(seed, kTable2, i);
  return cfgs;
}

/// One design as the clients see it: SPICE text plus the netlist parsed
/// from that text (the same parse the server does, so element indices and
/// node order agree).
struct Design {
  std::string name;
  std::string text;
  spice::Netlist netlist;
};

Design make_design(const gen::GeneratorConfig& cfg) {
  Design d;
  d.name = cfg.name;
  d.text = spice::write_netlist_string(gen::generate_pdn(cfg), cfg.name);
  d.netlist = spice::parse_netlist_string(d.text);
  return d;
}

// ------------------------------------------------------ reference checks
/// The cold single-request eager path: fresh FeatureContext, batch-1
/// IrModel::forward, restore at full resolution.
struct Reference {
  std::vector<float> map;      // model-side [1,S,S]
  std::vector<float> percent;  // restored, original resolution
};

tensor::Tensor batch1(const tensor::Tensor& t) {
  tensor::Shape s = t.shape();
  s.insert(s.begin(), 1);
  return tensor::Tensor::from_data(s, t.data());
}

Reference cold_reference(models::IrModel& model, const spice::Netlist& nl,
                         const data::SampleOptions& sopts) {
  data::SampleOptions cold = sopts;
  cold.feature_context = nullptr;
  const data::FeaturizedNetlist f = data::featurize_netlist(nl, cold);
  tensor::NoGradGuard no_grad;
  const tensor::Tensor out =
      model.forward(data::slice_channels(batch1(f.circuit), model.in_channels()),
                    batch1(f.tokens));
  serve::PredictResult r;
  r.map = tensor::Tensor::from_data({1, static_cast<int>(kInputSide),
                                     static_cast<int>(kInputSide)},
                                    out.data());
  Reference ref;
  ref.map = out.data();
  ref.percent = serve::restore_percent_map(r, f.adjust).data();
  return ref;
}

bool matches(const serve::SessionResult& res, const Reference& ref) {
  return res.map.data() == ref.map && res.percent_map.data() == ref.percent;
}

/// True relative residual ||b - G x|| / ||b|| of a solution, recomputed
/// from the assembled reduced system.
double true_residual(const pdn::AssembledSystem& sys, const pdn::Solution& sol) {
  std::vector<double> x(sys.rhs.size(), 0.0);
  for (std::size_t n = 0; n < sys.unknown_of.size(); ++n)
    if (sys.unknown_of[n] >= 0)
      x[static_cast<std::size_t>(sys.unknown_of[n])] = sol.node_voltage[n];
  std::vector<double> gx;
  sys.matrix.multiply(x, gx);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = sys.rhs[i] - gx[i];
    rr += r * r;
    bb += sys.rhs[i] * sys.rhs[i];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

pdn::SolveOptions golden_options() {
  pdn::SolveOptions o;  // program defaults, tolerance stated explicitly
  o.cg.tolerance = kGoldenTolerance;
  return o;
}

// ------------------------------------------------------------- results
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One timed prediction or golden solve.
struct Op {
  double seconds;
  std::size_t input;  // the workload input: a die, a design, or session x edit kind
  Clock::time_point end;
};

/// What one client thread saw.  Merged after the threads join.
struct ClientLog {
  explicit ClientLog(bool traced) : spans(traced) {}
  SpanLog spans;
  std::vector<Op> predicts;
  std::vector<Op> goldens;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  // Per-layer figures read from the program's own records (trace phase).
  double extract_s = 0.0, queue_s = 0.0, compute_s = 0.0;
  std::size_t served = 0;
  double channels_reused = 0.0, channels_computed = 0.0;
  double context_system_s = 0.0, context_precond_s = 0.0;
  double pcg_iterations = 0.0, spmv_bytes = 0.0;
  double featurize_extract_s = 0.0;  // feature extraction inside data.featurize
  std::vector<double> warm_ratio;
  std::size_t golden_solves = 0;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

/// Runs `op`, counting it attempted and (on exception) failed.
template <class F>
void guarded(ClientLog& log, const char* what, F&& op) {
  ++log.attempted;
  try {
    op();
  } catch (const std::exception& e) {
    log.fail(std::string(what) + ": " + e.what());
  }
}

// ---------------------------------------------------------- the server
struct Stack {
  std::shared_ptr<models::IrModel> model;
  std::unique_ptr<serve::SessionServer> server;
  data::SampleOptions sample;
};

/// Model build + session server start + warm-up: two rounds of session
/// requests, then pairs of tensor requests submitted back to back until
/// the inner server has run a batch of two.  With two closed-loop clients
/// both batch shapes occur, so both must be in the arena caches before
/// timing (otherwise the first batch of two lands in a timed op and peak
/// RSS depends on whether one happened).
Stack start_stack(const std::string& warmup_text) {
  core::PipelineOptions popts;  // program defaults, except:
  popts.sample.input_side = kInputSide;
  popts.sample.pc_grid = kTokenGrid;
  core::Pipeline pipe(popts);
  Stack s;
  s.model = std::shared_ptr<models::IrModel>(models::make_model(kModelName));
  s.server = pipe.make_session_server(s.model);
  s.sample = s.server->options().sample;
  for (int round = 0; round < 2; ++round) {
    std::vector<serve::SessionTicket> tickets;
    for (int i = 0; i < kClients; ++i) {
      serve::SessionRequest rq;
      rq.session_id = "warmup" + std::to_string(i);
      rq.netlist_text = warmup_text;
      tickets.push_back(s.server->submit(std::move(rq)));
    }
    for (auto& t : tickets) t.get();
    for (int i = 0; i < kClients; ++i)
      s.server->drop_session("warmup" + std::to_string(i));
  }
  const data::FeaturizedNetlist f =
      data::featurize_netlist(spice::parse_netlist_string(warmup_text), s.sample);
  serve::InferenceServer& inner = s.server->server();
  for (int attempt = 0; attempt < 100 && inner.stats().max_batch_seen < kClients; ++attempt) {
    std::vector<std::future<serve::PredictResult>> futures;
    for (int i = 0; i < kClients; ++i) futures.push_back(inner.submit({"warmup", f.circuit, f.tokens, 0}));
    for (auto& fu : futures) fu.get();
  }
  if (inner.stats().max_batch_seen < kClients)
    throw std::runtime_error("warm-up never formed a batch of two");
  return s;
}

/// Submit + get through the session server, timed; spans serve.submit /
/// serve.get under an op.predict root when traced.
serve::SessionResult served_predict(serve::SessionServer& server,
                                    serve::SessionRequest rq, std::size_t input,
                                    ClientLog& log) {
  Scope op(log.spans, "op.predict");
  const Clock::time_point t0 = Clock::now();
  serve::SessionTicket ticket;
  {
    Scope s(log.spans, "serve.submit");
    ticket = server.submit(std::move(rq));
  }
  serve::SessionResult res;
  {
    Scope s(log.spans, "serve.get");
    res = ticket.get();
  }
  const Clock::time_point t1 = Clock::now();
  log.predicts.push_back({perfbench::seconds_between(t0, t1), input, t1});
  log.extract_s += res.extract_us * 1e-6;
  log.queue_s += res.queue_us * 1e-6;
  log.compute_s += res.compute_us * 1e-6;
  log.channels_reused += static_cast<double>(res.channels_reused);
  log.channels_computed += static_cast<double>(res.channels_computed);
  ++log.served;
  return res;
}

/// Traced breakdown of one prediction, outside the op's time: the layers
/// the server runs inline, called directly on the same input.  `edit`
/// (when set) replaces the parse and runs under spice.edit; `ctx` is the
/// FeatureContext the featurize call uses (nullptr: a fresh one).  The
/// context's own classify/rasterize seconds give the extraction time
/// inside that featurize call.
void breakdown_predict(Stack& st, const std::string* text,
                       const std::function<void()>& edit, spice::Netlist& nl,
                       feat::FeatureContext* ctx, ClientLog& log) {
  {
    Scope root(log.spans, "breakdown.predict");
    if (text) {
      Scope s(log.spans, "spice.parse");
      nl = spice::parse_netlist_string(*text);
    } else {
      Scope s(log.spans, "spice.edit");
      edit();
    }
    feat::FeatureContext fresh;
    feat::FeatureContext& used = ctx ? *ctx : fresh;
    data::SampleOptions so = st.sample;
    so.feature_context = &used;
    const feat::FeatureContextStats before = used.stats();
    data::FeaturizedNetlist f;
    {
      Scope s(log.spans, "data.featurize");
      f = data::featurize_netlist(nl, so);
    }
    const feat::FeatureContextStats& after = used.stats();
    log.featurize_extract_s += after.classify_seconds - before.classify_seconds +
                               after.rasterize_seconds - before.rasterize_seconds;
    const tensor::Tensor c =
        data::slice_channels(batch1(f.circuit), st.model->in_channels());
    const tensor::Tensor t = batch1(f.tokens);
    serve::PredictResult r;
    {
      Scope s(log.spans, "models.forward");
      r.map = st.model->predict(c, t);
    }
    {
      Scope s(log.spans, "serve.restore");
      r.map = tensor::Tensor::from_data({1, static_cast<int>(kInputSide),
                                         static_cast<int>(kInputSide)},
                                        r.map.data());
      serve::restore_percent_map(r, f.adjust);
    }
  }
  // featurize_netlist wraps these: time them on the same netlist as a
  // breakdown of the data.featurize span.
  Scope root(log.spans, "breakdown.data");
  feat::ClassifiedNetlist cls;
  {
    Scope s(log.spans, "features.classify");
    cls = feat::classify_netlist(nl);
  }
  for (int c = 0; c < feat::kChannelCount; ++c) {
    Scope s(log.spans, "features.rasterize");
    feat::rasterize_channel(cls, c);
  }
  Scope s(log.spans, "pointcloud.encode");
  pc::grid_pool(pc::cloud_from_netlist(nl), st.sample.pc_grid);
}

/// Cold golden solve of a circuit through the public pdn/sparse calls
/// that make up pdn::solve_ir_drop, each under its own span.
pdn::Solution traced_cold_solve(const pdn::Circuit& circuit,
                                const pdn::SolveOptions& opts, ClientLog& log) {
  pdn::AssembledSystem sys;
  {
    Scope s(log.spans, "pdn.assemble");
    sys = pdn::assemble_ir_system(circuit);
  }
  std::unique_ptr<sparse::Preconditioner> pre;
  {
    Scope s(log.spans, "sparse.precond_setup");
    pre = sparse::make_preconditioner(opts.cg.preconditioner, sys.matrix);
  }
  sparse::CgResult cg;
  {
    Scope s(log.spans, "sparse.pcg");
    cg = sparse::conjugate_gradient(sys.matrix, sys.rhs, opts.cg, pre.get());
  }
  log.pcg_iterations += static_cast<double>(cg.iterations);
  log.spmv_bytes += static_cast<double>(cg.spmv_bytes);
  Scope s(log.spans, "pdn.finish");
  return pdn::detail::finish_solution(circuit, sys, std::move(cg));
}

/// One cold golden solve of `nl`, timed as an op: pdn::Circuit, then
/// pdn::solve_ir_drop (or its public steps under spans when traced).  The
/// solution's true residual against `sys` must be <= the tolerance.
/// Returns the PCG iterations (0 when the op failed).
std::size_t cold_golden(const spice::Netlist& nl, const pdn::AssembledSystem& sys,
                        const pdn::SolveOptions& opts, std::size_t input,
                        const std::string& name, ClientLog& log) {
  std::size_t iterations = 0;
  guarded(log, "golden", [&] {
    pdn::Solution sol;
    {
      Scope op(log.spans, "op.golden");
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<pdn::Circuit> circuit;
      {
        Scope s(log.spans, "pdn.circuit");
        circuit = std::make_unique<pdn::Circuit>(nl);
      }
      sol = log.spans.enabled() ? traced_cold_solve(*circuit, opts, log)
                                : pdn::solve_ir_drop(*circuit, opts);
      const Clock::time_point t1 = Clock::now();
      log.goldens.push_back({perfbench::seconds_between(t0, t1), input, t1});
    }
    iterations = sol.cg_iterations;
    ++log.golden_solves;
    const double res = true_residual(sys, sol);
    if (!(res <= kGoldenTolerance))
      log.fail(name + ": true relative residual " + fmt("%.3g", res));
  });
  return iterations;
}

// -------------------------------------------------------- measurement
struct Phase {
  std::vector<ClientLog> logs;
  Clock::time_point start;
  double wall_s = 0.0;
  double pool_busy_ratio = 0.0;
  serve::SessionCacheStats cache0, cache1;
};

/// Run `client(index, log, deadline)` on kClients threads (or one) and
/// collect their logs.  In a traced phase, obs metrics are switched on so
/// the runtime pool's busy counter runs.
Phase run_phase(int clients, bool traced, double seconds,
                serve::SessionServer& server,
                const std::function<void(int, ClientLog&, Clock::time_point)>& client) {
  Phase ph;
  for (int i = 0; i < clients; ++i) ph.logs.emplace_back(traced);
  obs::set_metrics_enabled(traced);
  obs::Counter& busy = obs::counter("lmmir_pool_busy_ns_total");
  const std::uint64_t busy0 = busy.value();
  ph.cache0 = server.cache_stats();
  const Clock::time_point t0 = ph.start = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i)
    threads.emplace_back([&, i] {
      try {
        client(i, ph.logs[static_cast<std::size_t>(i)], deadline);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  ph.wall_s = now_s(t0);
  ph.cache1 = server.cache_stats();
  const double workers = static_cast<double>(runtime::global_pool()->size());
  ph.pool_busy_ratio = static_cast<double>(busy.value() - busy0) * 1e-9 /
                       (workers * ph.wall_s);
  obs::set_metrics_enabled(false);
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  for (const ClientLog& log : ph.logs) perfbench::check_nesting(log.spans);
  return ph;
}

template <class F>
double sum_logs(const Phase& ph, F f) {
  double s = 0.0;
  for (const ClientLog& log : ph.logs) s += f(log);
  return s;
}

/// The phase's predictions (or golden solves) over all clients, in
/// completion order.
std::vector<Op> ops_of(const Phase& ph, bool golden) {
  std::vector<Op> out;
  for (const ClientLog& log : ph.logs) {
    const std::vector<Op>& v = golden ? log.goldens : log.predicts;
    out.insert(out.end(), v.begin(), v.end());
  }
  std::sort(out.begin(), out.end(), [](const Op& a, const Op& b) { return a.end < b.end; });
  return out;
}

std::vector<double> op_seconds(const std::vector<Op>& ops) {
  std::vector<double> t;
  for (const Op& op : ops) t.push_back(op.seconds);
  return t;
}

std::map<std::string, double> span_totals(const Phase& ph) {
  std::map<std::string, double> t;
  for (const ClientLog& log : ph.logs) perfbench::add_totals(log.spans, t);
  return t;
}

/// Sum over the workload's inputs of each input's median op time: the
/// time one client spends running the input set once.  The medians keep a
/// stall that hits one op from moving it.
double summed_medians(const Phase& ph, bool golden) {
  std::map<std::size_t, std::vector<double>> by_input;
  for (const Op& op : ops_of(ph, golden)) by_input[op.input].push_back(op.seconds);
  double total = 0.0;
  for (const auto& [input, times] : by_input) total += median(times);
  return total;
}

/// Latency quantiles and op rate of a phase, each the median over groups
/// of consecutive ops in completion order: `group` ops per group (one pass
/// on contest_tat), or eight equal groups when it is 0.  The host's speed
/// drifts in bursts of a few seconds; a burst moves one or two groups, not
/// the median over them.
struct GroupedFigures {
  double p50_s, p90_s, per_s;
};

GroupedFigures grouped(const Phase& ph, bool golden, std::size_t group) {
  const std::vector<Op> ops = ops_of(ph, golden);
  const std::size_t g = group ? group : std::max<std::size_t>(1, ops.size() / 8);
  std::vector<double> p50, p90, rate;
  Clock::time_point prev = ph.start;
  for (std::size_t b = 0; b + g <= ops.size(); b += g) {
    const std::vector<double> t =
        op_seconds(std::vector<Op>(ops.begin() + std::ptrdiff_t(b), ops.begin() + std::ptrdiff_t(b + g)));
    p50.push_back(median(t));
    p90.push_back(quantile(t, 0.9));
    rate.push_back(double(g) / perfbench::seconds_between(prev, ops[b + g - 1].end));
    prev = ops[b + g - 1].end;
  }
  return {median(p50), median(p90), median(rate)};
}

/// The end-to-end metrics, the same on every workload: each op of the
/// measured phase is a prediction followed by its golden solve.
std::vector<Metric> end_to_end(double setup_s, const Phase& ph, std::size_t group) {
  const GroupedFigures p = grouped(ph, false, group);
  const GroupedFigures g = grouped(ph, true, group);
  return {{"setup_s", setup_s, "s"},
          {"predict_p50_ms", 1e3 * p.p50_s, "ms"},
          {"predict_p90_ms", 1e3 * p.p90_s, "ms"},
          {"predict_per_s", p.per_s, "1/s"},
          {"predict_total_s", summed_medians(ph, false), "s"},
          {"golden_p50_ms", 1e3 * g.p50_s, "ms"},
          {"golden_p90_ms", 1e3 * g.p90_s, "ms"},
          {"golden_total_s", summed_medians(ph, true), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

/// The smallest, over the kinds of root span (op.predict, op.golden,
/// breakdown.*), of the share of their summed wall time that their direct
/// children cover.  Summing per kind keeps one preempted op from setting
/// the figure.
double min_coverage(const Phase& ph) {
  perfbench::Coverage acc;
  for (const ClientLog& log : ph.logs) perfbench::add_root_coverage(log.spans, acc);
  double m = 1.0;
  for (const auto& [name, c] : acc)
    if (c.second > 0.0) m = std::min(m, c.first / c.second);
  return m;
}

/// Prediction-side layer metrics, from the traced phase: `per` is the
/// number of work units (ops or passes) the time totals divide by.
void predict_layer_metrics(const Phase& traced, double per, std::vector<Metric>& out) {
  auto t = span_totals(traced);
  const double served = sum_logs(traced, [](const ClientLog& l) { return double(l.served); });
  // The spice layer turns a request into a netlist: a parse of the upload,
  // or the delta's set_element_value calls (eco_sweep).
  out.push_back({"spice.input_s", (t["spice.parse"] + t["spice.edit"]) / per, "s"});
  out.push_back({"features.classify_s", t["features.classify"] / per, "s"});
  out.push_back({"features.rasterize_s", t["features.rasterize"] / per, "s"});
  out.push_back({"features.channels_reused",
                 sum_logs(traced, [](const ClientLog& l) { return l.channels_reused; }) / served,
                 "count"});
  out.push_back({"features.channels_computed",
                 sum_logs(traced, [](const ClientLog& l) { return l.channels_computed; }) / served,
                 "count"});
  out.push_back({"pointcloud.encode_s", t["pointcloud.encode"] / per, "s"});
  out.push_back({"data.featurize_s", t["data.featurize"] / per, "s"});
  out.push_back({"data.self_s",
                 (t["data.featurize"] -
                  sum_logs(traced, [](const ClientLog& l) { return l.featurize_extract_s; }) -
                  t["pointcloud.encode"]) / per,
                 "s"});
  out.push_back({"models.forward_ms", 1e3 * t["models.forward"] / served, "ms"});
  out.push_back({"serve.extract_ms",
                 1e3 * sum_logs(traced, [](const ClientLog& l) { return l.extract_s; }) / served,
                 "ms"});
  out.push_back({"serve.queue_ms",
                 1e3 * sum_logs(traced, [](const ClientLog& l) { return l.queue_s; }) / served,
                 "ms"});
  out.push_back({"serve.compute_ms",
                 1e3 * sum_logs(traced, [](const ClientLog& l) { return l.compute_s; }) / served,
                 "ms"});
  const double requests = double(traced.cache1.requests - traced.cache0.requests);
  out.push_back({"serve.session_hit_ratio",
                 double(traced.cache1.hits - traced.cache0.hits) / std::max(1.0, requests),
                 "ratio"});
  out.push_back({"serve.resident_mb_peak",
                 double(traced.cache1.peak_resident_bytes) / (1024.0 * 1024.0), "MB"});
  out.push_back({"runtime.pool_busy_ratio", traced.pool_busy_ratio, "ratio"});
}

struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> info;  // extra "# " lines
};

void tally(const Phase& ph, Outcome& out) {
  for (const ClientLog& log : ph.logs) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    for (const auto& e : log.errors) out.info.push_back("error: " + e);
  }
}

/// Median time of `repeats` set-ups.  setup(keep) is told whether to keep
/// what it built: only the last one is kept for the run.
template <class F>
double timed_setups(int repeats, F setup, Outcome& out) {
  std::vector<double> times;
  std::string line = "set-ups (s):";
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup(i == repeats - 1);
    times.push_back(now_s(t0));
    line += fmt(" %.4f", times.back());
  }
  out.info.push_back(line);
  return median(times);
}

// ---------------------------------------------------------- contest_tat
Outcome run_contest_tat(const Args& a, std::uint64_t& input_hash) {
  // Scale 0.35 rather than 0.5: at 0.5 (~535k nodes, ~50 MB of SPICE) the
  // working set lives in the host's shared L3/DRAM and run-to-run spread
  // on a shared machine doubled; 0.35 keeps the same ten designs and the
  // same parse/PCG-dominated mix.
  std::vector<Design> designs;
  for (const auto& cfg : table2_configs(a.seed, a.tiny ? 0.05 : 0.35)) {
    designs.push_back(make_design(cfg));
    input_hash = fnv1a(designs.back().text, input_hash);
  }
  const std::string warmup = small_die_text(derive_seed(a.seed, kWarmup, 0));

  Stack st;
  Outcome out;
  const double setup_s = timed_setups(a.tiny ? 1 : kSetups, [&](bool keep) {
    Stack s = start_stack(warmup);
    if (keep) st = std::move(s);
  }, out);

  // Untimed references and assembled systems for the residual check.
  std::vector<Reference> refs;
  std::vector<pdn::AssembledSystem> systems;
  std::size_t nodes = 0, bytes = 0;
  for (const Design& d : designs) {
    refs.push_back(cold_reference(*st.model, d.netlist, st.sample));
    systems.push_back(pdn::assemble_ir_system(pdn::Circuit(d.netlist)));
    nodes += d.netlist.node_count();
    bytes += d.text.size();
  }
  if (a.perturb) refs[0].percent[0] += 1.0f;
  out.info.push_back("designs 10, nodes " + std::to_string(nodes) + ", spice " +
                     fmt("%.1f MB", double(bytes) / 1e6));

  const pdn::SolveOptions sopts = golden_options();
  // One pass maps and golden-solves all ten designs; design i is input i.
  std::size_t pass = 0;
  auto client = [&](int, ClientLog& log, Clock::time_point deadline) {
    while (Clock::now() < deadline) {
      const std::size_t predicted = log.predicts.size(), solved = log.goldens.size();
      std::size_t iterations = 0;
      for (std::size_t i = 0; i < designs.size(); ++i) {
        const std::string sid = "tat" + std::to_string(pass) + "-" + designs[i].name;
        guarded(log, "predict", [&] {
          serve::SessionRequest rq;
          rq.session_id = sid;
          rq.id = sid;
          rq.netlist_text = designs[i].text;
          const serve::SessionResult res = served_predict(*st.server, std::move(rq), i, log);
          st.server->drop_session(sid);
          if (!matches(res, refs[i]))
            log.fail(designs[i].name + ": served map differs from the cold eager path");
        });
        iterations += cold_golden(designs[i].netlist, systems[i], sopts, i, designs[i].name, log);
        if (log.spans.enabled()) {
          spice::Netlist nl;
          breakdown_predict(st, &designs[i].text, {}, nl, nullptr, log);
        }
      }
      auto pass_sum = [](const std::vector<Op>& v, std::size_t from) {
        double t = 0.0;
        for (std::size_t k = from; k < v.size(); ++k) t += v[k].seconds;
        return t;
      };
      out.info.push_back("pass " + std::to_string(pass) +
                         fmt(": predict %.4f s", pass_sum(log.predicts, predicted)) +
                         fmt(", golden %.4f s", pass_sum(log.goldens, solved)) +
                         fmt(", %.0f PCG iterations", double(iterations)));
      ++pass;
    }
  };

  const double measure_s = a.trace ? a.seconds / 2.0 : a.seconds;
  const Phase plain = run_phase(1, false, measure_s, *st.server, client);
  tally(plain, out);
  const double predict_total = summed_medians(plain, false);
  out.info.push_back(fmt("golden/predict speedup %.2fx (information only)",
                         summed_medians(plain, true) / predict_total));
  if (!a.trace) {
    out.metrics = end_to_end(setup_s, plain, designs.size());
    return out;
  }
  const std::size_t plain_passes = pass;
  const Phase traced = run_phase(1, true, measure_s, *st.server, client);
  tally(traced, out);
  const double passes = double(pass - plain_passes);
  predict_layer_metrics(traced, passes, out.metrics);
  auto t = span_totals(traced);
  const ClientLog& log = traced.logs[0];
  out.metrics.push_back({"serve.batch_mean", st.server->server_stats().mean_batch, "count"});
  out.metrics.push_back({"pdn.circuit_ms", 1e3 * t["pdn.circuit"] / double(log.golden_solves), "ms"});
  out.metrics.push_back({"pdn.system_s", t["pdn.assemble"] / passes, "s"});
  out.metrics.push_back({"sparse.precond_setup_s", t["sparse.precond_setup"] / passes, "s"});
  out.metrics.push_back({"sparse.pcg_s", t["sparse.pcg"] / passes, "s"});
  out.metrics.push_back({"sparse.pcg_iterations", log.pcg_iterations / passes, "count"});
  out.metrics.push_back({"sparse.spmv_bytes", log.spmv_bytes / passes, "bytes"});
  out.metrics.push_back({"trace.coverage", min_coverage(traced), "ratio"});
  out.metrics.push_back({"trace.overhead", summed_medians(traced, false) / predict_total, "ratio"});
  return out;
}

// ------------------------------------------------------------ eco_sweep
/// Revision r's delta: odd r rescales every current source of the base
/// (rhs-only refresh); even r upsizes ~2% of resistors by 0.8 (matrix
/// refresh).  Deterministic in (seed, client, r).
std::vector<serve::ValueEdit> eco_edits(const spice::Netlist& base,
                                        const spice::Netlist& current,
                                        std::uint64_t seed, int client, std::size_t r) {
  std::vector<serve::ValueEdit> edits;
  const auto& els = current.elements();
  std::mt19937_64 rng(derive_seed(seed, kEdits, std::uint64_t(client) * 1000003ull + r));
  if (r % 2 == 1) {
    const double factor = std::uniform_real_distribution<double>(0.85, 1.15)(rng);
    for (std::size_t i = 0; i < els.size(); ++i)
      if (els[i].type == spice::ElementType::CurrentSource)
        edits.push_back({i, base.elements()[i].value * factor});
  } else {
    std::bernoulli_distribution pick(0.02);
    for (std::size_t i = 0; i < els.size(); ++i)
      if (els[i].type == spice::ElementType::Resistor && pick(rng))
        edits.push_back({i, els[i].value * 0.8});
  }
  return edits;
}

Outcome run_eco_sweep(const Args& a, std::uint64_t& input_hash) {
  // testcase15 / testcase16 at 0.35 scale (~15k nodes): one mid-size design
  // per client, small enough for >=100 revisions per run.
  const auto cfgs = table2_configs(derive_seed(a.seed, kEco, 0), a.tiny ? 0.1 : 0.35);
  std::vector<Design> designs;
  for (int c = 0; c < kClients; ++c) {
    designs.push_back(make_design(cfgs[6 + static_cast<std::size_t>(c)]));
    input_hash = fnv1a(designs.back().text, input_hash);
  }
  const std::string warmup = small_die_text(derive_seed(a.seed, kWarmup, 0));
  const pdn::SolveOptions sopts = golden_options();

  struct Session {
    spice::Netlist mirror;  // the client's copy of the session's netlist
    std::unique_ptr<pdn::SolverContext> ctx;
    feat::FeatureContext features;  // breakdown-only warm context
    std::size_t revision = 0;
  };
  std::vector<Session> sessions(kClients);
  Stack st;
  Outcome out;
  // Set-up includes opening each session: full upload + first cold solve.
  const double setup_s = timed_setups(a.tiny ? 1 : kSetups, [&](bool keep) {
    Stack s = start_stack(warmup);
    std::vector<Session> opened(kClients);
    for (int c = 0; c < kClients; ++c) {
      Session& se = opened[static_cast<std::size_t>(c)];
      serve::SessionRequest rq;
      rq.session_id = "eco" + std::to_string(c);
      rq.netlist_text = designs[static_cast<std::size_t>(c)].text;
      s.server->predict(std::move(rq));
      se.mirror = designs[static_cast<std::size_t>(c)].netlist;
      se.ctx = std::make_unique<pdn::SolverContext>(sopts);
      se.ctx->solve(pdn::Circuit(se.mirror));
      data::SampleOptions so = s.sample;
      so.feature_context = &se.features;
      data::featurize_netlist(se.mirror, so);
    }
    if (keep) {
      st = std::move(s);
      sessions = std::move(opened);
    }
  }, out);
  std::size_t nodes = 0;
  for (const Design& d : designs) nodes += d.netlist.node_count();
  out.info.push_back("sessions 2, nodes " + std::to_string(nodes));

  // Input c * 2 + (r % 2): client c's session under one kind of edit.
  auto client = [&](int c, ClientLog& log, Clock::time_point deadline) {
    Session& se = sessions[static_cast<std::size_t>(c)];
    const spice::Netlist& base = designs[static_cast<std::size_t>(c)].netlist;
    const bool traced = log.spans.enabled();
    while (Clock::now() < deadline) {
      const std::size_t r = ++se.revision;
      const std::size_t input = std::size_t(c) * 2 + r % 2;
      const std::vector<serve::ValueEdit> edits = eco_edits(base, se.mirror, a.seed, c, r);
      auto apply = [&] {
        for (const auto& e : edits) se.mirror.set_element_value(e.element_index, e.value);
      };
      serve::SessionResult res;
      bool served = false;
      guarded(log, "predict", [&] {
        serve::SessionRequest rq;
        rq.session_id = "eco" + std::to_string(c);
        rq.id = rq.session_id + "-" + std::to_string(r);
        rq.edits = edits;
        res = served_predict(*st.server, std::move(rq), input, log);
        served = true;
      });
      if (traced)
        breakdown_predict(st, nullptr, apply, se.mirror, &se.features, log);
      else
        apply();
      if (served) {
        Reference ref = cold_reference(*st.model, se.mirror, st.sample);
        if (a.perturb && c == 0 && r == 1) ref.map[0] += 1.0f;
        if (!matches(res, ref)) log.fail("revision " + std::to_string(r) + ": served map differs");
      }
      guarded(log, "golden", [&] {
        const pdn::SolverContextStats before = se.ctx->stats();
        pdn::Solution warm;
        std::unique_ptr<pdn::Circuit> circuit;
        {
          Scope op(log.spans, "op.golden");
          const Clock::time_point t0 = Clock::now();
          {
            Scope s(log.spans, "pdn.circuit");
            circuit = std::make_unique<pdn::Circuit>(se.mirror);
          }
          {
            Scope s(log.spans, "pdn.context_solve");
            warm = se.ctx->solve(*circuit);
          }
          const Clock::time_point t1 = Clock::now();
          log.goldens.push_back({perfbench::seconds_between(t0, t1), input, t1});
        }
        const pdn::SolverContextStats& after = se.ctx->stats();
        ++log.golden_solves;
        log.context_system_s += after.assemble_seconds - before.assemble_seconds +
                                after.refresh_seconds - before.refresh_seconds;
        log.context_precond_s += after.precond_setup_seconds - before.precond_setup_seconds;
        const pdn::AssembledSystem sys = pdn::assemble_ir_system(*circuit);
        log.pcg_iterations += double(warm.cg_iterations);
        log.spmv_bytes += double(warm.cg_iterations + 1) * double(sys.matrix.bytes_per_spmv());
        const double resid = true_residual(sys, warm);
        if (!(resid <= kGoldenTolerance))
          log.fail("revision " + std::to_string(r) + ": true relative residual " + fmt("%.3g", resid));
        // Warm vs cold on the same revision: on every traced revision (it
        // gives the warm/cold iteration ratio), else on the first of each
        // edit kind and every tenth.
        if (traced || r <= 2 || r % 10 == 0) {
          const pdn::Solution cold = pdn::solve_ir_drop(*circuit, sopts);
          if (std::abs(warm.worst_drop - cold.worst_drop) >
              kWorstDropRelTol * std::abs(cold.worst_drop))
            log.fail("revision " + std::to_string(r) + ": warm worst drop " +
                     fmt("%.9g", warm.worst_drop) + " vs cold " + fmt("%.9g", cold.worst_drop));
          if (traced && cold.cg_iterations > 0)
            log.warm_ratio.push_back(double(warm.cg_iterations) / double(cold.cg_iterations));
        }
      });
    }
  };

  const double measure_s = a.trace ? a.seconds / 2.0 : a.seconds;
  const Phase plain = run_phase(kClients, false, measure_s, *st.server, client);
  tally(plain, out);
  const std::vector<double> plat = op_seconds(ops_of(plain, false));
  out.info.push_back("revisions " + std::to_string(plat.size()));
  if (!a.trace) {
    out.metrics = end_to_end(setup_s, plain, 0);
    return out;
  }
  const Phase traced = run_phase(kClients, true, measure_s, *st.server, client);
  tally(traced, out);
  const std::vector<double> tlat = op_seconds(ops_of(traced, false));
  const double solves = sum_logs(traced, [](const ClientLog& l) { return double(l.golden_solves); });
  auto t = span_totals(traced);
  predict_layer_metrics(traced, double(tlat.size()), out.metrics);
  const double system = sum_logs(traced, [](const ClientLog& l) { return l.context_system_s; });
  const double precond = sum_logs(traced, [](const ClientLog& l) { return l.context_precond_s; });
  out.metrics.push_back({"serve.batch_mean", st.server->server_stats().mean_batch, "count"});
  out.metrics.push_back({"pdn.circuit_ms", 1e3 * t["pdn.circuit"] / solves, "ms"});
  out.metrics.push_back({"pdn.system_s", system / solves, "s"});
  out.metrics.push_back({"sparse.precond_setup_s", precond / solves, "s"});
  out.metrics.push_back({"sparse.pcg_s", (t["pdn.context_solve"] - system - precond) / solves, "s"});
  out.metrics.push_back({"sparse.pcg_iterations",
                         sum_logs(traced, [](const ClientLog& l) { return l.pcg_iterations; }) / solves,
                         "count"});
  out.metrics.push_back({"sparse.spmv_bytes",
                         sum_logs(traced, [](const ClientLog& l) { return l.spmv_bytes; }) / solves,
                         "bytes"});
  out.metrics.push_back({"trace.coverage", min_coverage(traced), "ratio"});
  out.metrics.push_back({"trace.overhead", median(tlat) / median(plat), "ratio"});
  std::vector<double> warm_ratios;
  for (const ClientLog& l : traced.logs)
    warm_ratios.insert(warm_ratios.end(), l.warm_ratio.begin(), l.warm_ratio.end());
  out.info.push_back(fmt("warm/cold PCG iteration ratio %.4f (median over traced revisions)",
                         median(warm_ratios)));
  return out;
}

// -------------------------------------------------------------- checks
/// Refuse configurations that would not measure the pinned program.
void refuse_unpinned() {
  const std::string build = PERFBENCH_BUILD_TYPE;
  if (build != "Release" && build != "RelWithDebInfo") {
    std::fprintf(stderr, "perfbench_e2e: refusing to run a '%s' build\n", build.c_str());
    std::exit(2);
  }
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "LMMIR_", 6) == 0) {
      std::fprintf(stderr,
                   "perfbench_e2e: refusing to run with %s set: the program "
                   "must see only the generated inputs\n",
                   *e);
      std::exit(2);
    }
}

/// Span-nesting self-check: coverage of a well-nested log, and rejection
/// of a child escaping its parent and of overlapping siblings.
int check_spans() {
  using std::chrono::milliseconds;
  const Clock::time_point t = Clock::now();
  SpanLog good(true);
  const auto root = good.add("op", -1, t, t + milliseconds(100));
  good.add("a", root, t, t + milliseconds(40));
  const auto b = good.add("b", root, t + milliseconds(40), t + milliseconds(96));
  good.add("b.inner", b, t + milliseconds(50), t + milliseconds(60));
  good.add("op", -1, t + milliseconds(100), t + milliseconds(200));  // no children
  perfbench::check_nesting(good);
  perfbench::Coverage cov;
  perfbench::add_root_coverage(good, cov);
  bool ok = cov.size() == 1 && std::abs(cov["op"].first - 0.096) < 1e-9 &&
            std::abs(cov["op"].second - 0.2) < 1e-9;

  auto rejected = [](const SpanLog& log) {
    try {
      perfbench::check_nesting(log);
    } catch (const std::runtime_error&) {
      return true;
    }
    return false;
  };
  SpanLog escapes(true);
  const auto r1 = escapes.add("op", -1, t, t + milliseconds(10));
  escapes.add("late", r1, t + milliseconds(5), t + milliseconds(11));
  SpanLog overlap(true);
  const auto r2 = overlap.add("op", -1, t, t + milliseconds(10));
  overlap.add("x", r2, t, t + milliseconds(6));
  overlap.add("y", r2, t + milliseconds(5), t + milliseconds(9));
  ok = ok && rejected(escapes) && rejected(overlap);

  SpanLog scoped(true);
  {
    Scope op(scoped, "op");
    { Scope s(scoped, "child"); }
    { Scope s(scoped, "child"); }
  }
  perfbench::check_nesting(scoped);
  ok = ok && scoped.spans().size() == 3 && scoped.spans()[1].parent == 0 &&
       scoped.spans()[2].parent == 0;
  std::printf("check_spans: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.check_spans) return check_spans();
  refuse_unpinned();

  const auto steal0 = cpu_steal_ticks();
  std::uint64_t input_hash = 0xcbf29ce484222325ull;
  Outcome out;
  try {
    if (a.workload == "contest_tat") out = run_contest_tat(a, input_hash);
    else out = run_eco_sweep(a, input_hash);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s failed: %s\n", a.workload.c_str(), e.what());
    return 1;
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  const auto steal1 = cpu_steal_ticks();
  const double steal_share = steal1.second > steal0.second
                                 ? (steal1.first - steal0.first) / (steal1.second - steal0.second)
                                 : 0.0;
  std::printf(
      "# stamp {\"build_type\": \"%s\", \"git_sha\": \"%s\", \"nproc\": %ld, "
      "\"workload\": \"%s\", \"seed\": %llu, \"input_side\": %zu, "
      "\"token_grid\": %d, \"golden_tolerance\": %g, \"model\": \"%s\", "
      "\"tiny\": %s, \"trace\": %s, \"input_hash\": \"%016llx\", "
      "\"cpu_steal_share\": %.4f}\n",
      PERFBENCH_BUILD_TYPE, a.git_sha.c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), kInputSide,
      kTokenGrid, kGoldenTolerance, kModelName, a.tiny ? "true" : "false",
      a.trace ? "true" : "false", static_cast<unsigned long long>(input_hash), steal_share);
  for (const std::string& line : out.info) std::printf("# %s\n", line.c_str());
  std::printf("# error_rate %.6g ratio (%zu failed of %zu attempted)\n",
              double(out.failed) / double(std::max<std::size_t>(1, out.attempted)),
              out.failed, out.attempted);
  for (const Metric& m : out.metrics)
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    // A metric over zero samples (every op failed) prints as null.
    const std::string value = std::isfinite(m.value) ? fmt("%.17g", m.value) : "null";
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
