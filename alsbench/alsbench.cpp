// alsbench: the measured process of the end-to-end CP-ALS benchmark.
//
// It drives decompose_file's real path from outside the library, through
// public calls only, on the host-parallel backend (4 lanes, tol 0, fixed
// iteration count):
//
//   input file -> read_tns_file / io::MappedCooTensor -> AmpedTensor::build
//              -> cp_als / cpd_batch -> write_model_file
//
// Subcommands (run.py sequences them; every path is an argument):
//
//   gen   --workload W --seed S --out DIR [--shrink F]
//         Generates the workload's input files, a `<file>.normsq` beside
//         each (its coalesced |X|^2, for the explicit fit), and
//         DIR/inputs.json (provenance: generator parameters, dims, nnz,
//         unique coordinates, |X|^2, file bytes).
//   run   --workload W --inputs DIR --out DIR [--verify] [--perturb]
//         One untraced end-to-end pass. Prints one JSON line with
//         setup_s, als_s, total_s, peak_rss_mb; with --verify, the
//         correctness gate runs afterwards, outside the timed region.
//         --perturb scales one factor column before the model is
//         written, so the gate must fail (the self-test uses it).
//   trace --workload W --inputs DIR --out DIR
//         The per-layer split: the same ALS loop cp_als runs
//         (AlsState::prepare_mode -> mttkrp_one_mode -> update_mode ->
//         finish_iteration, save_checkpoint) with spans around each call,
//         checked memcmp-equal against an untraced cp_als. Writes the
//         spans as Chrome JSON to DIR/spans.json and prints one JSON line
//         of per-layer metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/batch.hpp"
#include "core/cpd.hpp"
#include "core/mttkrp.hpp"
#include "exec/backend.hpp"
#include "io/mapped_tensor.hpp"
#include "io/memory_budget.hpp"
#include "io/snapshot.hpp"
#include "sim/platform.hpp"
#include "tensor/factor_io.hpp"
#include "tensor/generator.hpp"
#include "tensor/profiles.hpp"
#include "tensor/reference_mttkrp.hpp"
#include "tensor/tns_io.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fs = std::filesystem;
using namespace amped;

namespace {

// ---------------------------------------------------------------------------
// Workloads

struct InputSpec {
  const char* profile;  // Table-3 profile name (tensor/profiles.hpp)
  double scale;         // nnz reduction factor passed to generate_scaled
  bool snapshot;        // v2 .amptns (mmap) instead of .tns text
};

struct Workload {
  const char* name;
  std::vector<InputSpec> inputs;
  std::size_t rank;
  std::size_t iterations;
  bool batch;                // one cpd_batch over all inputs
  std::size_t graph_window;  // cpd_batch graph window (0 = off)
  bool checkpoint;           // checkpoint every iteration
  bool spill_last;           // budget sized so the last input spills
};

constexpr int kLanes = 4;
// MTTKRP vs the sequential double-precision reference, relative to the
// largest reference entry: float accumulation over the heavy-hitter rows
// (~80K nonzeros per Patents year row) stays well inside this.
constexpr double kMttkrpTol = 1e-3;
// |A_N diag(lambda) V - G_N| / max|G_N| for the last-mode ALS update.
constexpr double kAlsRelationTol = 1e-2;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"patents-tns", {{"patents", 1000.0, false}}, 32, 15, false, 0, false,
       false},
      {"twitch-snapshot", {{"twitch", 400.0, true}}, 64, 3, false, 0, false,
       false},
      {"batch-spill",
       {{"amazon", 1000.0, false}, {"reddit", 2000.0, false}},
       32, 12, true, 2, true, true},
  };
  return all;
}

const Workload& workload_by_name(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

std::string input_file(const Workload& w, std::size_t i) {
  // Appended piecewise: GCC 12 warns (-Wrestrict, a false positive) on
  // `"t" + std::to_string(i)`.
  std::string name = "t";
  name += std::to_string(i);
  name += w.inputs[i].snapshot ? ".amptns" : ".tns";
  return name;
}

// ---------------------------------------------------------------------------
// Small utilities

// A flag every call of the subcommand must pass.
std::string required(const CliArgs& a, const std::string& key) {
  if (!a.has(key)) throw std::runtime_error("missing --" + key);
  return a.get(key, "");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of `v` (p in [0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, k == 0 ? 0 : k - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool same_bits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.bytes()) == 0;
}

CpdModel to_model(const CpdResult& r) {
  CpdModel m;
  m.lambda = r.lambda;
  m.fit = r.fit;
  for (std::size_t d = 0; d < r.factors.num_modes(); ++d) {
    m.factors.push_back(r.factors.factor(d));
  }
  return m;
}

bool same_model(const CpdModel& a, const CpdModel& b) {
  if (a.factors.size() != b.factors.size() || a.lambda != b.lambda ||
      std::memcmp(&a.fit, &b.fit, sizeof(double)) != 0) {
    return false;
  }
  for (std::size_t d = 0; d < a.factors.size(); ++d) {
    if (!same_bits(a.factors[d], b.factors[d])) return false;
  }
  return true;
}

// Factors, lambda and fit bit-equal (iterations are fixed by the workload).
bool same_result(const CpdResult& a, const CpdResult& b) {
  return same_model(to_model(a), to_model(b));
}

std::string model_path(const std::string& out, std::size_t i) {
  return (fs::path(out) / ("model-" + std::to_string(i) + ".ampfac")).string();
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as Chrome JSON when the run ends.

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  // Opens a span under the innermost open one; returns its id.
  std::size_t open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? kNone : stack_.back();
    s.start = now();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  // Closes the innermost span; returns its duration in seconds.
  double close() {
    Span& s = spans_[stack_.back()];
    stack_.pop_back();
    s.end = now();
    return s.end - s.start;
  }

  // Self time per span name: duration minus the part covered by children.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent != kNone) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    json::Writer w(out);
    w.begin_object();
    w.key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string cat = s.name.substr(0, s.name.find('.'));
      w.begin_object();
      w.member("name", s.name);
      w.member("cat", cat);
      w.member("ph", "X");
      w.member("ts", s.start * 1e6);
      w.member("dur", (s.end - s.start) * 1e6);
      w.member("pid", 1);
      w.member("tid", 1);
      w.key("args").begin_object();
      w.member("id", i);
      if (s.parent != kNone) w.member("parent", s.parent);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.member("displayTimeUnit", "ms");
    w.end_object();
    out << '\n';
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Span {
    std::string name;
    std::size_t parent = kNone;
    double start = 0.0, end = 0.0;
  };
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// ---------------------------------------------------------------------------
// Generation

struct CoalescedStats {
  nnz_t unique = 0;
  double norm_sq = 0.0;  // |X|^2 after summing duplicate coordinates
};

CoalescedStats coalesced_stats(const CooTensor& t) {
  CooTensor sorted = t;
  sorted.sort_by_mode(0);
  CoalescedStats s;
  const nnz_t n = sorted.nnz();
  const auto vals = sorted.values();
  auto same = [&](nnz_t a, nnz_t b) {
    for (std::size_t m = 0; m < sorted.num_modes(); ++m) {
      if (sorted.indices(m)[a] != sorted.indices(m)[b]) return false;
    }
    return true;
  };
  nnz_t i = 0;
  while (i < n) {
    double sum = vals[i];
    nnz_t j = i + 1;
    while (j < n && same(i, j)) sum += vals[j++];
    s.norm_sq += sum * sum;
    ++s.unique;
    i = j;
  }
  return s;
}

int cmd_gen(const CliArgs& a) {
  const Workload& w = workload_by_name(required(a, "workload"));
  const std::uint64_t seed = std::stoull(required(a, "seed"));
  const double shrink = a.get_double("shrink", 1.0);
  const std::string out = required(a, "out");
  fs::create_directories(out);

  // Written under a temporary name and renamed last, so a complete
  // inputs.json means complete inputs.
  const std::string prov_path = (fs::path(out) / "inputs.json").string();
  std::ofstream prov(prov_path + ".tmp");
  json::Writer pw(prov);
  pw.begin_object();
  pw.member("workload", w.name);
  pw.member("seed", seed);
  pw.member("shrink", shrink);
  pw.key("inputs").begin_array();
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    const InputSpec& spec = w.inputs[i];
    DatasetProfile profile = profile_by_name(spec.profile);
    const std::uint64_t gen_seed = mix_seed(profile.seed, seed);
    profile.seed = gen_seed;
    const ScaledDataset ds = generate_scaled(profile, spec.scale * shrink);
    const std::string path = (fs::path(out) / input_file(w, i)).string();
    if (spec.snapshot) {
      io::write_snapshot_file(ds.tensor, path);
    } else {
      write_tns_file(ds.tensor, path);
    }
    const CoalescedStats cs = coalesced_stats(ds.tensor);
    {
      std::ofstream norm(path + ".normsq");
      norm.precision(17);
      norm << cs.norm_sq << '\n';
      if (!norm) throw std::runtime_error("cannot write " + path + ".normsq");
    }
    pw.begin_object();
    pw.member("file", input_file(w, i));
    pw.member("profile", spec.profile);
    pw.member("scale", ds.scale);
    pw.member("generator_seed", gen_seed);
    pw.key("zipf_exponents").begin_array();
    for (double z : profile.zipf_exponents) pw.value(z);
    pw.end_array();
    pw.key("dims").begin_array();
    for (index_t d : ds.tensor.dims()) pw.value(d);
    pw.end_array();
    pw.member("nnz", ds.tensor.nnz());
    pw.member("unique_coords", cs.unique);
    pw.member("norm_sq_coalesced", cs.norm_sq);
    pw.member("norm_sq_raw", tensor_norm_sq(ds.tensor));
    pw.member("file_bytes", static_cast<std::uint64_t>(fs::file_size(path)));
    pw.member("coo_bytes",
              static_cast<std::uint64_t>(ds.tensor.storage_bytes()));
    pw.end_object();
  }
  pw.end_array();
  pw.member("rank", w.rank);
  pw.member("iterations", w.iterations);
  pw.end_object();
  prov << '\n';
  prov.close();
  if (!prov) throw std::runtime_error("cannot write " + prov_path);
  fs::rename(prov_path + ".tmp", prov_path);
  return 0;
}

// ---------------------------------------------------------------------------
// The end-to-end path

// One input as decompose_file holds it: owned (text) or mapped (v2).
struct Input {
  CooTensor owned;
  io::MappedCooTensor mapped;
  bool use_mapped = false;
  std::uint64_t file_bytes = 0;

  AmpedTensor build(const AmpedBuildOptions& o, PreprocessStats* s) const {
    return use_mapped ? AmpedTensor::build(mapped, o, s)
                      : AmpedTensor::build(owned, o, s);
  }
  CooTensor materialize() const {
    return use_mapped ? mapped.materialize() : owned;
  }
  std::uint64_t storage_bytes() const {
    return use_mapped ? mapped.storage_bytes() : owned.storage_bytes();
  }
  std::size_t num_modes() const {
    return use_mapped ? mapped.num_modes() : owned.num_modes();
  }
};

Input load_input(const Workload& w, std::size_t i, const std::string& dir) {
  const std::string path = (fs::path(dir) / input_file(w, i)).string();
  Input in;
  in.file_bytes = fs::file_size(path);
  if (w.inputs[i].snapshot) {
    in.mapped = io::MappedCooTensor(path);
    in.use_mapped = true;
  } else {
    in.owned = read_tns_file(path);
  }
  return in;
}

CpdOptions cpd_options(const Workload& w) {
  CpdOptions opt;
  opt.rank = w.rank;
  opt.max_iterations = w.iterations;
  opt.tolerance = 0.0;
  opt.mttkrp.backend = exec::ExecBackend::kHostParallel;
  opt.graph_window = w.graph_window;
  return opt;
}

AmpedBuildOptions build_options(const std::string& out, int lanes) {
  AmpedBuildOptions b;
  b.num_gpus = lanes;
  b.spill_dir = (fs::path(out) / "spill").string();
  fs::create_directories(b.spill_dir);
  return b;
}

// Budget for spill_last workloads: every input but the last fits resident
// with room for two of the last input's copies, so the last one's
// N-copy footprint does not fit and it spills.
void apply_budget(const Workload& w, const std::vector<Input>& inputs) {
  if (!w.spill_last) return;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i + 1 < inputs.size(); ++i) {
    bytes += inputs[i].storage_bytes() * inputs[i].num_modes();
  }
  bytes += inputs.back().storage_bytes() * 2;
  io::HostMemoryBudget::global().set_limit(bytes);
}

// Outcome of the correctness gate over all of a run's tensors.
struct Gate {
  bool ok = true;
  double mttkrp_rel_diff = 0.0;    // max over tensors and modes
  double als_relation = 0.0;       // max over tensors
  bool model_roundtrip = true;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    ok = false;
    errors.push_back(why);
  }
};

// F^T F accumulated in double (R x R, row-major).
std::vector<double> gram_double(const DenseMatrix& f) {
  const std::size_t r = f.cols();
  std::vector<double> g(r * r, 0.0);
  for (std::size_t i = 0; i < f.rows(); ++i) {
    const auto row = f.row(i);
    for (std::size_t p = 0; p < r; ++p) {
      for (std::size_t q = 0; q < r; ++q) {
        g[p * r + q] += static_cast<double>(row[p]) * row[q];
      }
    }
  }
  return g;
}

FactorSet factor_set(const CpdModel& m) {
  std::vector<index_t> dims;
  for (const auto& f : m.factors) {
    dims.push_back(static_cast<index_t>(f.rows()));
  }
  Rng rng(1);
  FactorSet fs_out(dims, m.lambda.size(), rng);
  for (std::size_t d = 0; d < m.factors.size(); ++d) {
    fs_out.factor(d) = m.factors[d];
  }
  return fs_out;
}

// The gate for one tensor, on the model as read back from its file:
// (1) one mttkrp_all_modes sweep on the host backend against
//     reference_mttkrp_all_modes, (2) the last ALS update's normal
//     equations A_N diag(lambda) V = G_N, which any perturbed factor
//     breaks. Returns the reference last-mode MTTKRP (for the explicit fit).
DenseMatrix check_tensor(const AmpedTensor& tensor, const CooTensor& source,
                         const CpdModel& model, const CpdOptions& opt,
                         Gate& gate, const std::string& label) {
  const FactorSet factors = factor_set(model);
  auto platform = sim::make_default_platform(kLanes);
  std::vector<DenseMatrix> outs;
  mttkrp_all_modes(platform, tensor, factors, outs, opt.mttkrp);
  auto refs = reference_mttkrp_all_modes(source, factors);
  for (std::size_t d = 0; d < refs.size(); ++d) {
    const double diff = relative_max_diff(refs[d], outs[d]);
    gate.mttkrp_rel_diff = std::max(gate.mttkrp_rel_diff, diff);
    if (!(diff < kMttkrpTol)) {
      gate.fail(label + ": mode-" + std::to_string(d) +
                " MTTKRP differs from the reference by " +
                std::to_string(diff));
    }
  }
  // V = hadamard of the other modes' grams.
  const std::size_t n = model.factors.size();
  const std::size_t r = model.lambda.size();
  std::vector<double> v(r * r, 1.0);
  for (std::size_t w = 0; w + 1 < n; ++w) {
    const auto g = gram_double(model.factors[w]);
    for (std::size_t i = 0; i < r * r; ++i) v[i] *= g[i];
  }
  const DenseMatrix& a = model.factors[n - 1];
  const DenseMatrix& g = refs[n - 1];
  double max_g = 0.0, max_err = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t c = 0; c < r; ++c) {
      double acc = 0.0;
      for (std::size_t s = 0; s < r; ++s) {
        acc += static_cast<double>(a(i, s)) * model.lambda[s] * v[s * r + c];
      }
      max_err = std::max(max_err, std::abs(acc - g(i, c)));
      max_g = std::max(max_g, std::abs(static_cast<double>(g(i, c))));
    }
  }
  const double rel = max_g > 0.0 ? max_err / max_g : max_err;
  gate.als_relation = std::max(gate.als_relation, rel);
  if (!(rel < kAlsRelationTol)) {
    gate.fail(label + ": final factors violate the last ALS update (" +
              std::to_string(rel) + ")");
  }
  return std::move(refs[n - 1]);
}

// Explicit fit from the coalesced |X|^2 (taken at generation), <X, X_hat>
// from the reference last-mode MTTKRP, and lambda^T (hadamard grams) lambda.
double explicit_fit(const CpdModel& m, const DenseMatrix& g_last,
                    double norm_sq_coalesced) {
  const std::size_t n = m.factors.size();
  const std::size_t r = m.lambda.size();
  std::vector<double> h(r * r, 1.0);
  for (const auto& f : m.factors) {
    const auto g = gram_double(f);
    for (std::size_t i = 0; i < r * r; ++i) h[i] *= g[i];
  }
  double model_sq = 0.0;
  for (std::size_t p = 0; p < r; ++p) {
    for (std::size_t q = 0; q < r; ++q) {
      model_sq += m.lambda[p] * m.lambda[q] * h[p * r + q];
    }
  }
  const DenseMatrix& a = m.factors[n - 1];
  double ip = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t c = 0; c < r; ++c) {
      ip += m.lambda[c] * static_cast<double>(g_last(i, c)) * a(i, c);
    }
  }
  const double resid = std::max(0.0, norm_sq_coalesced + model_sq - 2.0 * ip);
  return 1.0 - std::sqrt(resid / norm_sq_coalesced);
}

void write_gate(json::Writer& w, const Gate& gate) {
  w.key("gate").begin_object();
  w.member("ok", gate.ok);
  w.member("mttkrp_rel_diff", gate.mttkrp_rel_diff);
  w.member("mttkrp_tol", kMttkrpTol);
  w.member("als_relation", gate.als_relation);
  w.member("als_relation_tol", kAlsRelationTol);
  w.member("model_roundtrip", gate.model_roundtrip);
  w.key("errors").begin_array();
  for (const auto& e : gate.errors) w.value(e);
  w.end_array();
  w.end_object();
}

// Reads each model back; a mismatch with the in-memory result fails the
// gate. Returns the read-back models.
std::vector<CpdModel> read_back(const std::vector<CpdModel>& written,
                                const std::string& out, Gate& gate) {
  std::vector<CpdModel> models;
  for (std::size_t i = 0; i < written.size(); ++i) {
    models.push_back(read_model_file(model_path(out, i)));
    if (!same_model(models.back(), written[i])) {
      gate.model_roundtrip = false;
      gate.fail("model " + std::to_string(i) +
                " does not round-trip through its file");
    }
  }
  return models;
}

int cmd_run(const CliArgs& a) {
  const Workload& w = workload_by_name(required(a, "workload"));
  const std::string in_dir = required(a, "inputs");
  const std::string out = required(a, "out");
  fs::create_directories(out);
  const CpdOptions opt = [&] {
    CpdOptions o = cpd_options(w);
    if (w.checkpoint) {
      o.checkpoint_path = (fs::path(out) / "ckpt").string();
      o.checkpoint_every = 1;
    }
    return o;
  }();

  // --- timed: file in -> model file(s) written ---
  WallTimer total;
  std::vector<Input> inputs;
  std::vector<AmpedTensor> tensors;
  std::vector<PreprocessStats> stats(w.inputs.size());
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    inputs.push_back(load_input(w, i, in_dir));
  }
  apply_budget(w, inputs);
  const AmpedBuildOptions bopt = build_options(out, kLanes);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    tensors.push_back(inputs[i].build(bopt, &stats[i]));
  }
  const double setup_s = total.seconds();

  WallTimer als_timer;
  std::vector<CpdResult> results;
  BatchReport report;
  if (w.batch) {
    std::vector<const AmpedTensor*> ptrs;
    for (const auto& t : tensors) ptrs.push_back(&t);
    auto platform = sim::make_default_platform(kLanes);
    results = cpd_batch(platform, ptrs, opt, &report);
  } else {
    auto platform = sim::make_default_platform(kLanes);
    results.push_back(cp_als(platform, tensors[0], opt));
  }
  const double als_s = als_timer.seconds();

  if (a.has("perturb")) {
    // Deliberate corruption for the self-test: a column scale the ALS
    // relation cannot absorb.
    DenseMatrix& f = results[0].factors.factor(0);
    for (std::size_t i = 0; i < f.rows(); ++i) f(i, 0) *= 1.25f;
  }
  std::vector<CpdModel> models;
  for (std::size_t i = 0; i < results.size(); ++i) {
    models.push_back(to_model(results[i]));
    write_model_file(models.back(), model_path(out, i));
  }
  const double total_s = total.seconds();
  const double rss = peak_rss_mb();

  // --- untimed: correctness gate ---
  Gate gate;
  bool spilled = false;
  for (const auto& s : stats) spilled = spilled || s.spilled;
  if (w.spill_last && !spilled) gate.fail("no mode copy spilled");
  if (w.graph_window > 0 && report.graph_dispatches == 0) {
    gate.fail("cpd_batch fell back from graph scheduling");
  }
  if (a.has("verify")) {
    const auto back = read_back(models, out, gate);
    for (std::size_t i = 0; i < tensors.size(); ++i) {
      const CooTensor source = inputs[i].materialize();
      check_tensor(tensors[i], source, back[i], opt, gate,
                   "tensor " + std::to_string(i));
    }
  }

  json::Writer jw(std::cout);
  jw.begin_object();
  jw.member("setup_s", setup_s);
  jw.member("als_s", als_s);
  jw.member("total_s", total_s);
  jw.member("peak_rss_mb", rss);
  jw.member("spilled", spilled);
  jw.member("graph_dispatches", report.graph_dispatches);
  jw.member("verified", a.has("verify"));
  write_gate(jw, gate);
  jw.end_object();
  std::cout << std::endl;
  return 0;
}

// ---------------------------------------------------------------------------
// The traced run

struct LayerTotals {
  double mttkrp_s = 0.0, update_s = 0.0, fit_s = 0.0, loop_s = 0.0;
  double h2d = 0.0, kernel = 0.0, sync = 0.0;
  std::vector<double> call_s;
  std::vector<double> lane_kernel = std::vector<double>(kLanes, 0.0);
  std::uint64_t nnz_processed = 0;
};

// cp_als's loop (core/cpd.cpp), call for call, with a span around each.
CpdResult traced_als(const AmpedTensor& tensor, const CpdOptions& opt,
                     SpanLog& log, LayerTotals& lt) {
  auto platform = sim::make_default_platform(kLanes);
  detail::AlsState state(tensor, opt);
  const bool checkpointing = !opt.checkpoint_path.empty();
  log.open("als");
  while (!state.done()) {
    log.open("als.iteration");
    for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
      log.open("core.als_prepare");
      DenseMatrix& out = state.prepare_mode(d);
      log.close();
      log.open("core.mttkrp");
      const ModeBreakdown bd = mttkrp_one_mode(platform, tensor,
                                               state.factors(), d, out,
                                               opt.mttkrp);
      const double call = log.close();
      lt.mttkrp_s += call;
      lt.call_s.push_back(call);
      lt.nnz_processed += tensor.nnz();
      lt.h2d += bd.h2d;
      lt.kernel += bd.compute;
      lt.sync += bd.sync;
      for (std::size_t g = 0; g < bd.per_gpu_compute.size() &&
                              g < lt.lane_kernel.size();
           ++g) {
        lt.lane_kernel[g] += bd.per_gpu_compute[g];
      }
      log.open("core.als_update");
      state.update_mode(d, bd.seconds);
      lt.update_s += log.close();
    }
    log.open("core.als_fit");
    state.finish_iteration();
    lt.fit_s += log.close();
    if (checkpointing && opt.checkpoint_every != 0 &&
        state.iterations() % opt.checkpoint_every == 0) {
      log.open("core.checkpoint");
      state.save_checkpoint(opt.checkpoint_path);
      log.close();
    }
    log.close();
  }
  lt.loop_s += log.close();
  return state.take_result();
}

// Reads the coalesced |X|^2 that `gen` stored beside input i.
double coalesced_norm_sq(const Workload& w, std::size_t i,
                         const std::string& in_dir) {
  const fs::path path = fs::path(in_dir) / (input_file(w, i) + ".normsq");
  std::ifstream in(path.string());
  double v = 0.0;
  if (!(in >> v)) throw std::runtime_error("missing coalesced |X|^2 file");
  return v;
}

int cmd_trace(const CliArgs& a) {
  const Workload& w = workload_by_name(required(a, "workload"));
  const std::string in_dir = required(a, "inputs");
  const std::string out = required(a, "out");
  fs::create_directories(out);
  const CpdOptions base = cpd_options(w);
  const std::size_t n = w.inputs.size();
  SpanLog log;
  Gate gate;

  // Setup with spans around each layer call.
  double load_s = 0.0, build_s = 0.0;
  std::uint64_t file_bytes = 0, built_bytes = 0;
  std::vector<Input> inputs;
  std::vector<AmpedTensor> tensors;
  log.open("setup");
  for (std::size_t i = 0; i < n; ++i) {
    log.open("io.load");
    inputs.push_back(load_input(w, i, in_dir));
    load_s += log.close();
    file_bytes += inputs.back().file_bytes;
  }
  apply_budget(w, inputs);
  const AmpedBuildOptions bopt = build_options(out, kLanes);
  bool spilled = false;
  for (std::size_t i = 0; i < n; ++i) {
    PreprocessStats st;
    log.open("core.build");
    tensors.push_back(inputs[i].build(bopt, &st));
    build_s += log.close();
    built_bytes += st.bytes_built;
    spilled = spilled || st.spilled;
  }
  log.close();
  if (w.spill_last && !spilled) gate.fail("no mode copy spilled");

  auto options_for = [&](std::size_t i, const char* tag) {
    CpdOptions o = base;
    if (w.checkpoint) {
      o.checkpoint_path =
          (fs::path(out) / (std::string(tag) + std::to_string(i))).string();
      o.checkpoint_every = 1;
    }
    return o;
  };

  // Untraced reference: solo cp_als per tensor (and the batch, if any).
  std::vector<CpdResult> solo;
  double solo_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const CpdOptions o = options_for(i, "ckpt-solo.");
    auto platform = sim::make_default_platform(kLanes);
    WallTimer t;
    solo.push_back(cp_als(platform, tensors[i], o));
    solo_s += t.seconds();
  }
  double batch_overlap = 0.0;
  std::size_t graph_dispatches = 0;
  if (w.batch) {
    CpdOptions o = base;
    if (w.checkpoint) {
      o.checkpoint_path = (fs::path(out) / "ckpt-batch").string();
      o.checkpoint_every = 1;
    }
    std::vector<const AmpedTensor*> ptrs;
    for (const auto& t : tensors) ptrs.push_back(&t);
    auto platform = sim::make_default_platform(kLanes);
    BatchReport report;
    WallTimer t;
    const auto batched = cpd_batch(platform, ptrs, o, &report);
    const double batch_s = t.seconds();
    batch_overlap = 1.0 - batch_s / solo_s;
    graph_dispatches = report.graph_dispatches;
    if (graph_dispatches == 0) {
      gate.fail("cpd_batch fell back from graph scheduling");
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!same_result(batched[i], solo[i])) {
        gate.fail("batched factors differ from solo cp_als for tensor " +
                  std::to_string(i));
      }
    }
  }

  // Traced ALS: the same loop with spans; counters diffed around it.
  auto count = [](const char* name) { return metrics::counter(name).value(); };
  const std::uint64_t hits0 = count("stream.readahead_hits");
  const std::uint64_t inline0 = count("stream.inline_loads");
  const std::uint64_t ckpt0 = count("als.checkpoints_written");
  LayerTotals lt;
  std::vector<CpdResult> traced;
  for (std::size_t i = 0; i < n; ++i) {
    const CpdOptions o = options_for(i, "ckpt-trace.");
    traced.push_back(traced_als(tensors[i], o, log, lt));
    if (!same_result(traced[i], solo[i])) {
      gate.fail("traced factors differ from untraced cp_als for tensor " +
                std::to_string(i));
    }
  }
  const std::uint64_t hits = count("stream.readahead_hits") - hits0;
  const std::uint64_t inl = count("stream.inline_loads") - inline0;
  const std::uint64_t ckpts = count("als.checkpoints_written") - ckpt0;

  // Model I/O: write + read-back, timed.
  std::vector<CpdModel> models;
  for (const auto& r : traced) models.push_back(to_model(r));
  log.open("tensor.model_io");
  for (std::size_t i = 0; i < n; ++i) {
    write_model_file(models[i], model_path(out, i));
  }
  const auto back = read_back(models, out, gate);
  const double model_io_s = log.close();

  // Gate on the 4-lane sweep, then the single-lane baseline.
  double sweep4 = 0.0, sweep1 = 0.0, fit_err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const CooTensor source = inputs[i].materialize();
    const std::string label = "tensor " + std::to_string(i);
    const DenseMatrix g_last =
        check_tensor(tensors[i], source, back[i], base, gate, label);
    fit_err = std::max(
        fit_err, std::abs(back[i].fit -
                          explicit_fit(back[i], g_last,
                                       coalesced_norm_sq(w, i, in_dir))));
    // Median of three sweeps per lane count on the final factors.
    const FactorSet factors = factor_set(back[i]);
    auto time_sweeps = [&](const AmpedTensor& t, int lanes) {
      std::vector<double> s;
      for (int k = 0; k < 3; ++k) {
        auto platform = sim::make_default_platform(lanes);
        std::vector<DenseMatrix> outs;
        WallTimer timer;
        mttkrp_all_modes(platform, t, factors, outs, base.mttkrp);
        s.push_back(timer.seconds());
      }
      return median(s);
    };
    sweep4 += time_sweeps(tensors[i], kLanes);
    AmpedBuildOptions one = bopt;
    one.num_gpus = 1;
    const AmpedTensor single = inputs[i].build(one, nullptr);
    sweep1 += time_sweeps(single, 1);
  }

  log.write_chrome_json((fs::path(out) / "spans.json").string());
  const auto self = log.self_seconds();

  const double lanes = static_cast<double>(kLanes);
  const std::uint64_t kc_hits = count("kernel_cache.hits");
  const std::uint64_t kc_miss = count("kernel_cache.misses");

  json::Writer jw(std::cout);
  jw.begin_object();
  jw.key("metrics").begin_object();
  auto m = [&](const char* name, double v) { jw.member(name, v); };
  m("io.load_s", load_s);
  m("io.load_mb_per_s", load_s > 0 ? file_bytes / 1e6 / load_s : 0.0);
  m("io.stream.readahead_hit_frac",
    hits + inl > 0 ? static_cast<double>(hits) / (hits + inl) : 0.0);
  m("io.stream.inline_loads", static_cast<double>(inl));
  m("core.build_s", build_s);
  m("core.build_mb", built_bytes / 1e6);
  m("core.mttkrp_s", lt.mttkrp_s);
  m("core.mttkrp_call_s.p50", percentile(lt.call_s, 0.5));
  m("core.mttkrp_call_s.p90", percentile(lt.call_s, 0.9));
  m("core.mttkrp_calls", static_cast<double>(lt.call_s.size()));
  m("core.mttkrp_nnz_per_s",
    lt.mttkrp_s > 0 ? lt.nnz_processed / lt.mttkrp_s : 0.0);
  m("exec.h2d_s", lt.h2d);
  m("exec.kernel_s", lt.kernel);
  m("exec.sync_s", lt.sync);
  m("exec.lane_busy_frac",
    lt.mttkrp_s > 0 ? (lt.h2d + lt.kernel) / (lanes * lt.mttkrp_s) : 0.0);
  m("exec.lane_imbalance", overhead_fraction(lt.lane_kernel));
  m("exec.lane_scaling", sweep4 > 0 ? sweep1 / sweep4 : 0.0);
  m("exec.batch_overlap", batch_overlap);
  m("exec.graph_dispatches", static_cast<double>(graph_dispatches));
  m("core.als_update_s", lt.update_s);
  m("core.als_update_frac", lt.loop_s > 0 ? lt.update_s / lt.loop_s : 0.0);
  m("core.als_fit_s", lt.fit_s);
  m("core.als_mttkrp_frac", lt.loop_s > 0 ? lt.mttkrp_s / lt.loop_s : 0.0);
  m("core.kernel_cache.hit_frac",
    kc_hits + kc_miss > 0
        ? static_cast<double>(kc_hits) / (kc_hits + kc_miss)
        : 0.0);
  m("core.checkpoints_written", static_cast<double>(ckpts));
  m("tensor.model_io_s", model_io_s);
  m("core.fit_abs_err", fit_err);
  m("trace.overhead_frac", solo_s > 0 ? lt.loop_s / solo_s - 1.0 : 0.0);
  jw.end_object();
  jw.key("self_s").begin_object();
  for (const auto& [name, s] : self) jw.member(name, s);
  jw.end_object();
  jw.member("spilled", spilled);
  jw.member("lane_sweep_s", sweep4);
  jw.member("single_lane_sweep_s", sweep1);
  write_gate(jw, gate);
  jw.end_object();
  std::cout << std::endl;
  return 0;
}

// Host facts for the provenance record.
int cmd_host() {
  json::Writer jw(std::cout);
  jw.begin_object();
  jw.member("nproc", std::thread::hardware_concurrency());
  jw.member("pool_threads", host_parallelism());
  jw.member("lanes", kLanes);
  jw.member("llc_bytes", static_cast<long>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  jw.member("build_type", ALSBENCH_BUILD_TYPE);
  jw.end_object();
  std::cout << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: alsbench gen|run|trace|host [--flags]\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const CliArgs args(argc, argv);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "host") return cmd_host();
    std::fprintf(stderr, "alsbench: unknown subcommand %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alsbench: error: %s\n", e.what());
    return 1;
  }
}
