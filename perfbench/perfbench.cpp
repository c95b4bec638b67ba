// The repo benchmark driver: one workload per process, timed end to end
// and, in a separate traced run, layer by layer.
//
//   perfbench --workload <online-8x8|online-16x16|score-16x16> --seed <n>
//             --seconds <s> --trace <0|1> [--source-id <text>]
//
// Set-up (dataset simulation, training, engine load) runs kSetupRepeats
// times; every repeat must produce the same weights. On score-16x16 the
// held-out set is then built once. The timed part then runs whole rounds
// of the same operations until --seconds have passed:
//
//   online-*     one round = one episode per grid cell, each a fresh
//                Simulation + Scenario + DefenseRuntime run for
//                kEpisodeWindows monitoring windows with the flood arriving
//                mid-episode. Every round replays the same episodes.
//   score-16x16  one round = one PipelineSession::process_batch pass over
//                the held-out set at batch 32.
//
// --trace 1 replays each online episode through the layers' public
// functions with spans around every call (see replay_episode) and checks
// that the replay decides exactly what the untraced runtime decided. The
// program prints human-readable lines and, last, one JSON object with the
// metrics named in BENCHMARK.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/evaluation.hpp"
#include "monitor/dataset.hpp"
#include "noc/stats.hpp"
#include "runtime/campaign.hpp"
#include "temporal/adversarial.hpp"
#include "workload/families.hpp"

using namespace dl2f;

namespace {

// ------------------------------------------------------------ constants

constexpr int kSetupRepeats = 3;
constexpr std::int32_t kTrainThreads = 4;
constexpr std::uint64_t kTrainSeed = 0x5eedULL;
constexpr std::int32_t kEpisodeWindows = 10;
constexpr std::int32_t kAttackWindow = 5;  ///< flood arrives at this window's start
constexpr std::int32_t kScoreBatch = 32;

// Quality floors for score-16x16: the paper's 16x16 figures (detection
// accuracy 95.8 %, localization accuracy 91.7 %, detection precision
// 98.5 %, localization precision 99.3 %) less kFloorMargin. Localization
// accuracy is printed against its floor but not gated: it falls below it
// on some held-out seeds (see README).
constexpr double kFloorMargin = 0.20;
constexpr double kPaperDetAcc = 0.958;
constexpr double kPaperLocAcc = 0.917;
constexpr double kPaperDetPrec = 0.985;
constexpr double kPaperLocPrec = 0.993;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0,1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ------------------------------------------------------------ host speed

/// Host-speed normalization. Host time on a shared VM drifts by tens of
/// percent over seconds to minutes (a fixed single-thread loop varied
/// 0.24-0.48 s between back-to-back runs). A run therefore times a fixed
/// reference kernel before each set-up, each episode and every few scoring
/// passes, and scales each host-time sample by the kernel's reference time
/// over the median of its last kLocalSamples times: the figures read as if
/// the host ran at the reference speed. The kernel matches the character of
/// the timed work, since contention slows integer and vector code by
/// different amounts: a dependent pseudo-random walk over a 256 KiB table
/// for the simulator-bound online workloads, a vectorizable float
/// multiply-add sweep for the CNN-bound scoring workload. Per-layer times
/// are scaled by the median over the whole run. Raw figures are printed as
/// well; counts and simulated cycles are not scaled.
class HostSpeed {
 public:
  enum class Kernel : std::uint8_t { IntegerWalk, FloatSweep };
  static constexpr std::size_t kLocalSamples = 5;

  explicit HostSpeed(Kernel kernel)
      : kernel_(kernel), table_(1U << 16), a_(8192, 1.0F), b_(8192, 0.5F) {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      table_[i] = static_cast<std::uint32_t>(mix64(i));
    }
  }

  /// Median kernel time on the reference host (see README).
  [[nodiscard]] double reference_ms() const noexcept {
    return kernel_ == Kernel::IntegerWalk ? 1.7 : 1.8;
  }

  /// Runs the kernel once untimed, so its data is back in cache whatever
  /// the timed work left there, then times a second pass: the sample
  /// measures the host's speed, not the program's cache footprint.
  void sample() {
    run_kernel();
    const auto t0 = Clock::now();
    run_kernel();
    ms_.push_back(seconds_since(t0) * 1e3);
  }

  /// Multiply host times by this (divide rates by it): the whole run.
  [[nodiscard]] double scale() const { return reference_ms() / median(ms_); }
  /// The same over the last kLocalSamples samples only.
  [[nodiscard]] double local_scale() const {
    const std::size_t n = std::min(ms_.size(), kLocalSamples);
    return reference_ms() /
           median(std::vector<double>(ms_.end() - static_cast<std::ptrdiff_t>(n), ms_.end()));
  }
  [[nodiscard]] std::size_t samples() const noexcept { return ms_.size(); }
  [[nodiscard]] std::uint32_t sink() const noexcept { return sink_; }

 private:
  void run_kernel() {
    if (kernel_ == Kernel::IntegerWalk) {
      std::uint32_t x = 1;
      for (std::uint32_t i = 0; i < 200000; ++i) x = table_[x & 0xffffU] ^ (x * 2654435761U + i);
      sink_ += x;
    } else {
      for (int r = 0; r < 1000; ++r) {
        for (std::size_t i = 0; i < a_.size(); ++i) a_[i] = a_[i] * 0.999F + b_[i];
      }
      sink_ += static_cast<std::uint32_t>(a_[sink_ % a_.size()]);
    }
  }

  Kernel kernel_;
  std::vector<std::uint32_t> table_;
  std::vector<float> a_, b_;
  std::vector<double> ms_;
  std::uint32_t sink_ = 0;
};

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string source_id = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
      have_trace = true;
    } else if (key == "--source-id") {
      a.source_id = val;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 [--source-id ID]");
  }
  if (a.workload != "online-8x8" && a.workload != "online-16x16" &&
      a.workload != "score-16x16") {
    throw std::invalid_argument("unknown workload " + a.workload);
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss would also count the launching interpreter, since Linux keeps
/// it across exec.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ------------------------------------------------------------ set-up

bool is_online8(const Args& a) { return a.workload == "online-8x8"; }
bool is_score(const Args& a) { return a.workload == "score-16x16"; }

MeshShape workload_mesh(const Args& a) {
  return MeshShape::square(is_online8(a) ? 8 : 16);
}

/// The STP patterns of the 16x16 workloads (training, episodes, held-out).
std::vector<monitor::Benchmark> stp16_patterns() {
  return {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
          monitor::Benchmark{traffic::SyntheticPattern::Tornado},
          monitor::Benchmark{traffic::SyntheticPattern::Shuffle}};
}

struct SetupTimes {
  double dataset_s = 0.0;  ///< training (+ sequence, + held-out) dataset simulation
  double train_s = 0.0;    ///< detector + localizer (+ temporal) training and capture
  double load_s = 0.0;     ///< ModelSnapshot::make_engine
  double total_s = 0.0;
  double raw_total_s = 0.0;  ///< total_s before host-speed scaling
};

struct Setup {
  runtime::ModelSnapshot snapshot;
  core::PipelineEngine engine;
  monitor::Dataset heldout;  ///< score-16x16 only
  SetupTimes times;
};

/// Held-out dataset seed: derived from the run seed and never the
/// training seed.
std::uint64_t heldout_seed(std::uint64_t seed) {
  std::uint64_t s = mix64(seed ^ 0x4e1d0e7ULL);
  if (s == kTrainSeed) s ^= 1;
  return s;
}

/// One complete set-up. The model itself does not depend on --seed: it is
/// the system under test, trained from kTrainSeed.
Setup run_setup(const Args& a) {
  const MeshShape mesh = workload_mesh(a);
  SetupTimes t;
  const auto t_begin = Clock::now();

  // Training recipe. online-8x8 mirrors the shipped serving configuration
  // (cross-workload mix incl. one trace family, plus the temporal head
  // over every benign rhythm it will score); the 16x16 workloads train
  // the paper's single-window pipeline on the STP patterns they score.
  monitor::DatasetConfig data_cfg;
  data_cfg.mesh = mesh;
  data_cfg.seed = kTrainSeed;
  std::vector<monitor::Benchmark> mix;
  std::int32_t det_epochs = 0, loc_epochs = 0;
  if (is_online8(a)) {
    mix = {monitor::Benchmark{traffic::SyntheticPattern::UniformRandom},
           monitor::Benchmark{traffic::SyntheticPattern::Tornado},
           monitor::Benchmark{traffic::ParsecWorkload::Blackscholes},
           monitor::Benchmark{workload::TraceWorkloadKind::TraceReplay}};
    data_cfg.scenarios_per_benchmark = 4;
    data_cfg.benign_samples_per_run = 3;
    data_cfg.attack_samples_per_run = 3;
    det_epochs = 20;
    loc_epochs = 10;
  } else {
    mix = stp16_patterns();
    data_cfg.scenarios_per_benchmark = 4;
    data_cfg.benign_samples_per_run = 2;
    data_cfg.attack_samples_per_run = 4;
    det_epochs = 60;
    loc_epochs = 40;
  }

  auto t0 = Clock::now();
  const monitor::Dataset data = monitor::generate_dataset(data_cfg, mix);
  t.dataset_s += seconds_since(t0);

  core::Dl2FenceConfig fence_cfg = core::Dl2FenceConfig::paper_default(mesh);
  fence_cfg.enable_temporal = is_online8(a);
  core::PipelineEngine trained(fence_cfg);
  t0 = Clock::now();
  core::TrainConfig det_cfg;
  det_cfg.epochs = det_epochs;
  det_cfg.seed = kTrainSeed ^ 0x42;
  det_cfg.threads = kTrainThreads;
  core::train_detector(trained.mutable_detector(), data, det_cfg);
  core::LocalizerTrainConfig loc_cfg;
  loc_cfg.epochs = loc_epochs;
  loc_cfg.seed = kTrainSeed ^ 0x43;
  loc_cfg.threads = kTrainThreads;
  core::train_localizer(trained.mutable_localizer(), data, loc_cfg);
  t.train_s += seconds_since(t0);

  if (is_online8(a)) {
    temporal::SequenceDatasetConfig seq_cfg;
    seq_cfg.mesh = mesh;
    seq_cfg.params.mesh = mesh;
    seq_cfg.sequence_length = fence_cfg.temporal.sequence_length;
    seq_cfg.windows_per_run = 12;
    seq_cfg.runs_per_cell = 1;
    seq_cfg.seed = kTrainSeed;
    std::vector<monitor::Benchmark> benigns = mix;
    for (const auto& w : monitor::trace_benchmarks()) benigns.push_back(w);
    t0 = Clock::now();
    const temporal::SequenceDataset seq =
        temporal::generate_sequence_dataset(seq_cfg, runtime::all_scenario_families(), benigns);
    t.dataset_s += seconds_since(t0);
    t0 = Clock::now();
    temporal::TemporalTrainConfig tmp_cfg;
    tmp_cfg.epochs = 15;
    tmp_cfg.seed = kTrainSeed ^ 0x44;
    tmp_cfg.threads = kTrainThreads;
    temporal::train_temporal_detector(trained.mutable_temporal(), seq, tmp_cfg);
    t.train_s += seconds_since(t0);
  }
  t0 = Clock::now();
  runtime::ModelSnapshot snapshot = runtime::ModelSnapshot::capture(trained);
  t.train_s += seconds_since(t0);

  t0 = Clock::now();
  core::PipelineEngine engine = snapshot.make_engine();
  t.load_s = seconds_since(t0);

  t.total_s = seconds_since(t_begin);
  return Setup{std::move(snapshot), std::move(engine), monitor::Dataset{}, t};
}

/// The score-16x16 held-out set: the 16x16 STP patterns at a dataset seed
/// derived from --seed. It depends on the seed alone, so a run builds it
/// once, after the repeated training set-ups.
monitor::Dataset make_heldout(const Args& a) {
  monitor::DatasetConfig held_cfg;
  held_cfg.mesh = workload_mesh(a);
  held_cfg.scenarios_per_benchmark = 8;
  held_cfg.benign_samples_per_run = 2;
  held_cfg.attack_samples_per_run = 2;
  held_cfg.seed = heldout_seed(a.seed);
  return monitor::generate_dataset(held_cfg, stp16_patterns());
}

// ------------------------------------------------------------ checks

struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok && failures.size() < 20) failures.push_back(what);
    if (!ok) ++count;
  }
  std::int64_t count = 0;
  [[nodiscard]] bool ok() const noexcept { return count == 0; }
};

std::string hexf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string ids(const std::vector<NodeId>& v) {
  std::string s = "[";
  for (const NodeId n : v) s += std::to_string(n) + ",";
  return s + "]";
}

/// Every field of a WindowRecord, floats bitwise.
std::string record_key(const runtime::WindowRecord& r) {
  std::ostringstream os;
  os << r.index << ' ' << r.start << ' ' << r.end << ' ' << r.detected << ' '
     << hexf(r.probability) << ' ' << hexf(r.sequence_probability) << ' ' << ids(r.tlm_attackers)
     << ids(r.newly_quarantined) << ids(r.released) << ids(r.quarantined) << ' '
     << hexf(r.benign_latency) << ' ' << hexf(r.benign_p50) << ' ' << hexf(r.benign_p99) << ' '
     << r.benign_packets << ' ' << r.truth_attack << ids(r.truth_attackers) << '\n';
  return os.str();
}

bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

/// Every release must follow probation_windows consecutive windows in
/// which the node stayed fenced and the TLM did not name it.
bool releases_follow_probation(const std::vector<runtime::WindowRecord>& h, std::int32_t p) {
  for (std::size_t w = 0; w < h.size(); ++w) {
    for (const NodeId n : h[w].released) {
      if (w + 1 < static_cast<std::size_t>(p)) return false;
      for (std::size_t j = w + 1 - static_cast<std::size_t>(p); j <= w; ++j) {
        if (h[j].detected && contains(h[j].tlm_attackers, n)) return false;
        if (j == 0 || !contains(h[j - 1].quarantined, n)) return false;
      }
    }
  }
  return true;
}

// ------------------------------------------------------------ episodes

struct EpisodeSpec {
  std::string family;
  monitor::Benchmark benign;
  std::uint64_t seed = 0;
  [[nodiscard]] std::string name() const {
    return family + "/" + benign.name() + "/" + std::to_string(seed);
  }
};

/// The round: one episode per (family x benign) cell, seeded from --seed.
std::vector<EpisodeSpec> make_round(const Args& a) {
  std::vector<std::string> families;
  std::vector<monitor::Benchmark> benigns;
  if (is_online8(a)) {
    families = {"static", "pulse"};
    benigns = monitor::trace_benchmarks();
  } else {
    families = {"static", "multi-victim"};
    benigns = stp16_patterns();
  }
  std::vector<EpisodeSpec> round;
  for (const auto& f : families) {
    for (const auto& b : benigns) {
      round.push_back(EpisodeSpec{f, b, mix64(a.seed ^ fnv1a(f) ^ mix64(fnv1a(b.name())))});
    }
  }
  return round;
}

/// The runtime's shipped defaults: 1 vote to fence, 3 probation windows,
/// 1 temporal cooldown window, 1000-cycle windows.
const runtime::DefenseConfig kDefense{};

/// A live episode: simulation + installed scenario. The mesh uses its
/// automatic shard and stepping-thread counts (1 shard at 8x8, 2 at 16x16).
struct LiveEpisode {
  std::unique_ptr<runtime::Scenario> scenario;
  std::unique_ptr<traffic::Simulation> sim;
  const workload::RequestReplyWorkload* requests = nullptr;  ///< online-8x8 only
};

LiveEpisode start_episode(const EpisodeSpec& spec, const MeshShape& mesh) {
  runtime::ScenarioParams params;
  params.mesh = mesh;
  params.benign = spec.benign;
  params.attack_start = static_cast<noc::Cycle>(kAttackWindow) * kDefense.window_cycles;
  LiveEpisode ep;
  ep.scenario = runtime::ScenarioRegistry::instance().make(spec.family, params, spec.seed);
  if (ep.scenario == nullptr) throw std::runtime_error("no scenario family " + spec.family);
  noc::MeshConfig mesh_cfg;
  mesh_cfg.shape = mesh;
  // The automatic row-band shards (2 on 16x16), stepped on one thread: a
  // stepping pool meets at a barrier every cycle, and on a shared VM with
  // CPU steal that hand-off, not the code, set the window time (run-to-run
  // spread 0.34-0.44 at 2 threads against 0.03 at 1). Results are bitwise
  // identical at any thread count.
  mesh_cfg.step_threads = 1;
  ep.sim = std::make_unique<traffic::Simulation>(mesh_cfg);
  ep.scenario->install(*ep.sim, spec.seed ^ 0x9e3779b97f4a7c15ULL);
  for (const auto& gen : ep.sim->generators()) {
    if (const auto* typed = dynamic_cast<const workload::RequestReplyWorkload*>(gen.get())) {
      ep.requests = typed;
    }
  }
  return ep;
}

/// Victim-latency histogram: request/reply round trips when the episode
/// runs a trace workload, benign packet latency otherwise.
struct VictimProbe {
  std::vector<std::int64_t> at_attack;
  noc::Cycle max_at_end = 0;
  std::vector<std::int64_t> delta;

  [[nodiscard]] static const std::vector<std::int64_t>& hist(const LiveEpisode& ep) {
    return ep.requests != nullptr ? ep.requests->reply_latency_histogram()
                                  : ep.sim->mesh().benign_stats().packet_latency_histogram();
  }
  [[nodiscard]] static noc::Cycle max(const LiveEpisode& ep) {
    return ep.requests != nullptr ? ep.requests->stats().reply_latency_max
                                  : ep.sim->mesh().benign_stats().max_packet_latency();
  }
  void mark_attack(const LiveEpisode& ep) { at_attack = hist(ep); }
  void finish(const LiveEpisode& ep) {
    const auto& end = hist(ep);
    delta.resize(end.size());
    for (std::size_t i = 0; i < end.size(); ++i) delta[i] = end[i] - at_attack[i];
    max_at_end = max(ep);
  }
};

struct EpisodeRun {
  std::vector<runtime::WindowRecord> history;
  std::vector<double> window_ms;
  std::string key;  ///< concatenated record_key of every window
  VictimProbe victim;
  std::vector<NodeId> all_attackers;
};

/// Untraced episode: DefenseRuntime::run_window, one timer per window.
EpisodeRun run_episode(const EpisodeSpec& spec, const MeshShape& mesh,
                       const core::PipelineEngine& engine) {
  LiveEpisode ep = start_episode(spec, mesh);
  runtime::DefenseRuntime rt(*ep.sim, engine, kDefense);
  rt.attach_scenario(ep.scenario.get());
  EpisodeRun out;
  out.window_ms.reserve(kEpisodeWindows);
  for (std::int32_t w = 0; w < kEpisodeWindows; ++w) {
    if (w == kAttackWindow) out.victim.mark_attack(ep);
    const auto t0 = Clock::now();
    rt.run_window();
    out.window_ms.push_back(seconds_since(t0) * 1e3);
  }
  out.victim.finish(ep);
  out.history = rt.history();
  for (const auto& r : out.history) out.key += record_key(r);
  out.all_attackers = ep.scenario->all_attackers();
  return out;
}

// ------------------------------------------------------------ traced replay

/// Layer spans accumulated over traced windows (nanoseconds) and counts.
struct LayerTotals {
  std::int64_t windows = 0;
  std::int64_t cycles = 0;
  std::int64_t window_ns = 0;     ///< traced window spans
  std::int64_t untraced_ns = 0;   ///< the same windows, untraced
  std::int64_t scenario_ns = 0;   ///< Scenario::on_cycle + active_attackers bookkeeping
  std::int64_t traffic_ns = 0;    ///< generator ticks
  std::int64_t noc_ns = 0;        ///< Mesh::step
  std::int64_t sample_ns = 0;     ///< the three FeatureSampler reads
  std::int64_t pipeline_ns = 0;   ///< PipelineSession::process / process_sequence
  std::int64_t mitigate_ns = 0;   ///< fence / release decisions + Mesh::set_quarantined
  std::int64_t detect_ns = 0;     ///< attribution: detector pass
  std::int64_t temporal_ns = 0;   ///< attribution: detect_sequence
  std::int64_t localize_ns = 0;   ///< attribution: localizer
  std::int64_t localize_calls = 0;
  std::int64_t flits_ejected = 0;
  std::int64_t flits_in_network_sum = 0;  ///< summed once per cycle
  std::int64_t fences = 0;
};

/// Decisions of one window, as compared between traced and untraced runs.
std::string decision_key(bool detected, const std::vector<NodeId>& tlm,
                         const std::vector<NodeId>& fenced, const std::vector<NodeId>& released) {
  return std::to_string(static_cast<int>(detected)) + ids(tlm) + ids(fenced) + ids(released) +
         "\n";
}

/// Replays DefenseRuntime::run_window's calls through the layers' public
/// functions, in run_window's order, with a span around each layer:
///   1. Scenario::on_cycle + active_attackers (the runtime's ground-truth
///      union), 2. each generator's tick, then Mesh::step, 3. the three
///   FeatureSampler reads, 4. the PipelineSession round, 5. fence/release
///   under DefenseConfig's vote, probation and cooldown fields. After the
///   window span closes, the detector, temporal head and localizer are
///   called once more on the same window to split the round's span into
///   layers. The per-window benign-latency bookkeeping of run_window feeds
///   no decision and is not replayed. Returns the decision keys.
std::string replay_episode(const EpisodeSpec& spec, const MeshShape& mesh,
                           const core::PipelineEngine& engine, LayerTotals& tot) {
  const runtime::DefenseConfig& cfg = kDefense;
  LiveEpisode ep = start_episode(spec, mesh);
  traffic::Simulation& sim = *ep.sim;
  noc::Mesh& m = sim.mesh();
  runtime::Scenario& scenario = *ep.scenario;

  core::PipelineSession session(engine, /*max_batch=*/1);
  monitor::FeatureSampler sampler(m.shape());
  monitor::WindowHistory windows(engine.has_temporal() ? engine.config().temporal.sequence_length
                                                       : 1);
  const auto n = static_cast<std::size_t>(m.shape().node_count());
  std::vector<std::int32_t> votes(n, 0), clean(n, 0);
  std::int32_t cooldown = 0;
  m.reset_telemetry();

  std::string keys;
  std::vector<NodeId> active_union;
  for (std::int32_t w = 0; w < kEpisodeWindows; ++w) {
    const auto t_window = Clock::now();
    active_union.clear();
    for (std::int64_t c = 0; c < cfg.window_cycles; ++c) {
      const auto t0 = Clock::now();
      scenario.on_cycle(m.now());
      for (const NodeId a : scenario.active_attackers(m.now())) {
        if (!contains(active_union, a)) active_union.push_back(a);
      }
      const auto t1 = Clock::now();
      for (const auto& g : sim.generators()) g->tick(m);
      const auto t2 = Clock::now();
      m.step();
      const auto t3 = Clock::now();
      tot.scenario_ns += ns_between(t0, t1);
      tot.traffic_ns += ns_between(t1, t2);
      tot.noc_ns += ns_between(t2, t3);
      tot.flits_in_network_sum += m.flits_in_network();
    }
    tot.cycles += cfg.window_cycles;

    auto t0 = Clock::now();
    monitor::FrameSample sample;
    sample.vco = sampler.sample_vco(m, /*reset=*/true);
    sample.boc = sampler.sample_boc(m, /*reset=*/true);
    sample.ni_load = sampler.sample_ni_load(m, /*reset=*/true);
    sample.window_cycles = cfg.window_cycles;
    auto t1 = Clock::now();
    tot.sample_ns += ns_between(t0, t1);
    windows.push(std::move(sample));

    t0 = Clock::now();
    const bool temporal_live = engine.has_temporal() && cooldown == 0;
    if (cooldown > 0) --cooldown;
    const core::RoundResult round = temporal_live ? session.process_sequence(windows.view())
                                                  : session.process(windows.latest());
    t1 = Clock::now();
    tot.pipeline_ns += ns_between(t0, t1);

    t0 = Clock::now();
    std::vector<NodeId> fenced, released;
    std::vector<char> named(n, 0);
    if (round.detected) {
      for (const NodeId a : round.tlm.attackers) {
        if (m.shape().valid(a)) named[static_cast<std::size_t>(a)] = 1;
      }
    }
    for (std::size_t node = 0; node < n; ++node) {
      const auto id = static_cast<NodeId>(node);
      if (m.quarantined(id)) {
        if (named[node] != 0) {
          clean[node] = 0;
        } else if (++clean[node] >= cfg.probation_windows) {
          m.set_quarantined(id, false);
          votes[node] = 0;
          clean[node] = 0;
          released.push_back(id);
        }
      } else if (named[node] != 0) {
        ++votes[node];
        if (cfg.mitigation_enabled && votes[node] >= cfg.quarantine_votes) {
          m.set_quarantined(id, true);
          clean[node] = 0;
          fenced.push_back(id);
        }
      } else {
        votes[node] = 0;
      }
    }
    if (!fenced.empty()) cooldown = cfg.temporal_cooldown_windows;
    t1 = Clock::now();
    tot.mitigate_ns += ns_between(t0, t1);
    tot.window_ns += ns_between(t_window, t1);
    tot.fences += static_cast<std::int64_t>(fenced.size());
    ++tot.windows;
    keys += decision_key(round.detected, round.tlm.attackers, fenced, released);

    // Attribution calls on the same window, outside the window span.
    t0 = Clock::now();
    const std::vector<float> p = session.detect_batch(monitor::WindowBatch(&windows.latest(), 1));
    t1 = Clock::now();
    tot.detect_ns += ns_between(t0, t1);
    if (p.empty() || p[0] != round.probability) throw std::runtime_error("detector attribution");
    if (temporal_live) {
      t0 = Clock::now();
      const float sp = session.detect_sequence(windows.view());
      t1 = Clock::now();
      tot.temporal_ns += ns_between(t0, t1);
      if (sp != round.sequence_probability) throw std::runtime_error("temporal attribution");
    }
    if (round.detected) {
      t0 = Clock::now();
      (void)session.localize(windows.latest());
      t1 = Clock::now();
      tot.localize_ns += ns_between(t0, t1);
      ++tot.localize_calls;
    }
  }
  tot.flits_ejected += m.stats().flits_ejected();
  return keys;
}

std::string decisions_of(const std::vector<runtime::WindowRecord>& h) {
  std::string keys;
  for (const auto& r : h) {
    keys += decision_key(r.detected, r.tlm_attackers, r.newly_quarantined, r.released);
  }
  return keys;
}

// ------------------------------------------------------------ output

/// Defense quality of one round (every round repeats it exactly).
struct RoundQuality {
  double victim_p99 = 0.0;  ///< see victim_p99()
  std::int64_t floods_missed = 0;       ///< episodes whose flood was never detected
  std::int64_t attackers_unfenced = 0;  ///< all_attackers() never fenced in their episode
};

/// Whether a metric still needs the run-wide host-speed scale applied
/// (per-layer times) or not (counts, and end-to-end figures, which are
/// scaled sample by sample as they are measured).
enum class Scaled : std::uint8_t { Time, No };

struct Metric {
  std::string name;
  double value;
  std::string unit;
  Scaled scaled;
  double raw = 0.0;  ///< unscaled figure, for the human-readable lines
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i > 0 ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << metrics[i].value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// The per-layer metrics of a traced run. Layer times are means over every
/// traced window; bench.unattributed is the traced window time less the
/// layer self times, so the two add up to bench.traced_window_us by
/// construction. The round span (process / process_sequence /
/// process_batch) is split into detector, temporal head and localizer by
/// the attribution calls; what those calls do not cover of it counts as
/// unattributed. How much of the round span the attribution calls cover is
/// printed, not gated: they are timed apart from the round and one
/// preempted call can move the share. A layer that does not run on the
/// workload reads 0. Counts are per round, which every round repeats
/// exactly.
std::vector<Metric> layer_metrics(const LayerTotals& tot, std::int64_t rounds,
                                  const SetupTimes& setup, const RoundQuality& quality) {
  const auto w = static_cast<double>(tot.windows);
  const auto us_per_window = [&](std::int64_t ns) { return static_cast<double>(ns) / 1e3 / w; };
  const auto ns_per_cycle = [&](std::int64_t ns) {
    return tot.cycles > 0 ? static_cast<double>(ns) / static_cast<double>(tot.cycles) : 0.0;
  };
  const double window_us = us_per_window(tot.window_ns);
  const double self_us = us_per_window(tot.scenario_ns + tot.traffic_ns + tot.noc_ns +
                                       tot.sample_ns + tot.mitigate_ns) +
                         us_per_window(tot.detect_ns) + us_per_window(tot.temporal_ns) +
                         us_per_window(tot.localize_ns);
  const double unattributed_us = window_us - self_us;
  std::cout << "attribution calls cover "
            << static_cast<double>(tot.detect_ns + tot.temporal_ns + tot.localize_ns) /
                   static_cast<double>(std::max<std::int64_t>(tot.pipeline_ns, 1))
            << " of the round span\n";
  const double flits_per_round =
      static_cast<double>(tot.flits_ejected) / static_cast<double>(rounds);
  return {
      {"traffic.tick_ns_per_cycle", ns_per_cycle(tot.traffic_ns), "ns/cycle", Scaled::Time},
      {"runtime.scenario_ns_per_cycle", ns_per_cycle(tot.scenario_ns), "ns/cycle", Scaled::Time},
      {"noc.step_ns_per_cycle", ns_per_cycle(tot.noc_ns), "ns/cycle", Scaled::Time},
      {"noc.step_ns_per_flit",
       tot.flits_ejected > 0
           ? static_cast<double>(tot.noc_ns) / static_cast<double>(tot.flits_ejected)
           : 0.0,
       "ns/flit", Scaled::Time},
      {"noc.flits_ejected", flits_per_round, "count", Scaled::No},
      {"noc.flits_in_network_mean",
       tot.cycles > 0
           ? static_cast<double>(tot.flits_in_network_sum) / static_cast<double>(tot.cycles)
           : 0.0,
       "flits", Scaled::No},
      {"monitor.sample_us_per_window", us_per_window(tot.sample_ns), "us", Scaled::Time},
      {"core.detect_us_per_window", us_per_window(tot.detect_ns), "us", Scaled::Time},
      {"temporal.detect_us_per_window", us_per_window(tot.temporal_ns), "us", Scaled::Time},
      {"core.localize_us_per_call",
       tot.localize_calls > 0
           ? static_cast<double>(tot.localize_ns) / 1e3 / static_cast<double>(tot.localize_calls)
           : 0.0,
       "us", Scaled::Time},
      {"core.localize_calls",
       static_cast<double>(tot.localize_calls) / static_cast<double>(rounds), "count", Scaled::No},
      {"runtime.mitigate_us_per_window", us_per_window(tot.mitigate_ns), "us", Scaled::Time},
      {"runtime.fences", static_cast<double>(tot.fences) / static_cast<double>(rounds),
       "count", Scaled::No},
      {"runtime.victim_p99_cycles", quality.victim_p99, "cycles", Scaled::No},
      {"runtime.floods_missed", static_cast<double>(quality.floods_missed), "count", Scaled::No},
      {"runtime.attackers_unfenced", static_cast<double>(quality.attackers_unfenced), "count", Scaled::No},
      {"monitor.dataset_s", setup.dataset_s, "s", Scaled::No},
      {"nn.train_s", setup.train_s, "s", Scaled::No},
      {"core.engine_load_s", setup.load_s, "s", Scaled::No},
      {"bench.traced_window_us", window_us, "us", Scaled::Time},
      {"bench.unattributed_us_per_window", unattributed_us, "us", Scaled::Time},
      {"bench.trace_overhead_us_per_window", window_us - us_per_window(tot.untraced_ns), "us", Scaled::Time},
  };
}

/// Host-time samples of the timed part, scaled and raw.
struct Samples {
  std::vector<double> window_ms, raw_window_ms;
  std::vector<double> wps, raw_wps;  ///< windows/s per episode (online) or pass (score)

  void add_window(double ms, double scale) {
    window_ms.push_back(ms * scale);
    raw_window_ms.push_back(ms);
  }
  void add_rate(double windows_per_s, double scale) {
    wps.push_back(windows_per_s / scale);
    raw_wps.push_back(windows_per_s);
  }
};

std::vector<Metric> end_to_end_metrics(const SetupTimes& setup, const Samples& s) {
  const double rss = peak_rss_mb();
  return {
      {"setup_s", setup.total_s, "s", Scaled::No, setup.raw_total_s},
      {"windows_per_s", median(s.wps), "windows/s", Scaled::No, median(s.raw_wps)},
      {"window_ms_p50", median(s.window_ms), "ms", Scaled::No, median(s.raw_window_ms)},
      {"window_ms_p95", percentile(s.window_ms, 0.95), "ms", Scaled::No,
       percentile(s.raw_window_ms, 0.95)},
      {"peak_rss_mb", rss, "MB", Scaled::No, rss},
  };
}

// ------------------------------------------------------------ workloads

struct RunOutcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Victim p99 of one round: the p99 of the pooled victim-latency
/// histograms of its episodes, from flood arrival to episode end.
double victim_p99(const std::vector<EpisodeRun>& round) {
  std::vector<std::int64_t> pooled;
  noc::Cycle mx = 0;
  for (const auto& e : round) {
    if (pooled.size() < e.victim.delta.size()) pooled.resize(e.victim.delta.size(), 0);
    for (std::size_t i = 0; i < e.victim.delta.size(); ++i) pooled[i] += e.victim.delta[i];
    mx = std::max(mx, e.victim.max_at_end);
  }
  return noc::histogram_percentile(pooled, 0.99, static_cast<double>(mx));
}

/// Gates an episode on the runtime's probation rule and tallies its
/// defense quality. Detection and full mitigation are tallied, not gated:
/// both fail on some seeds (see README, "Output checks").
void check_episode(const EpisodeSpec& spec, const EpisodeRun& run, RoundQuality& quality,
                   Checks& checks) {
  checks.require(releases_follow_probation(run.history, kDefense.probation_windows),
                 spec.name() + ": release without probation");
  bool detected = false;
  std::vector<NodeId> ever_fenced;
  for (const auto& r : run.history) {
    if (r.truth_attack && r.detected) detected = true;
    for (const NodeId q : r.newly_quarantined) ever_fenced.push_back(q);
  }
  if (!detected) ++quality.floods_missed;
  for (const NodeId atk : run.all_attackers) {
    if (!contains(ever_fenced, atk)) ++quality.attackers_unfenced;
  }
}

RunOutcome run_online(const Args& a, const Setup& setup, const SetupTimes& setup_times,
                      HostSpeed& speed, Checks& checks) {
  const MeshShape mesh = workload_mesh(a);
  const std::vector<EpisodeSpec> round = make_round(a);

  std::vector<std::string> reference_keys(round.size());
  Samples samples;
  RoundQuality quality;
  std::int64_t rounds = 0, episodes = 0, windows = 0, failed_episodes = 0;
  LayerTotals tot;

  const auto t_run = Clock::now();
  while (rounds == 0 || seconds_since(t_run) < a.seconds) {
    std::vector<EpisodeRun> runs;
    for (std::size_t i = 0; i < round.size(); ++i) {
      const auto& spec = round[i];
      ++episodes;
      windows += kEpisodeWindows;
      try {
        speed.sample();
        const double scale = speed.local_scale();
        const auto t0 = Clock::now();
        EpisodeRun run = run_episode(spec, mesh, setup.engine);
        samples.add_rate(kEpisodeWindows / seconds_since(t0), scale);
        for (const double ms : run.window_ms) samples.add_window(ms, scale);
        if (rounds == 0) {
          reference_keys[i] = run.key;
          check_episode(spec, run, quality, checks);
        } else {
          checks.require(run.key == reference_keys[i], spec.name() + ": re-run differs");
        }
        if (a.trace) {
          const std::string traced = replay_episode(spec, mesh, setup.engine, tot);
          checks.require(traced == decisions_of(run.history),
                         spec.name() + ": traced replay decided differently");
          for (const double ms : run.window_ms) {
            tot.untraced_ns += static_cast<std::int64_t>(ms * 1e6);
          }
        }
        runs.push_back(std::move(run));
      } catch (const std::exception& e) {
        ++failed_episodes;
        checks.require(false, spec.name() + ": " + e.what());
      }
    }
    if (rounds == 0) quality.victim_p99 = victim_p99(runs);
    ++rounds;
  }

  std::cout << "rounds " << rounds << " x " << round.size() << " episodes x " << kEpisodeWindows
            << " windows\n"
            << "episodes attempted " << episodes << " failed " << failed_episodes << "\n"
            << "windows attempted " << windows << " failed " << failed_episodes * kEpisodeWindows
            << "\n"
            << "per round: floods missed " << quality.floods_missed << " of " << round.size()
            << ", attackers never fenced " << quality.attackers_unfenced << ", victim p99 "
            << quality.victim_p99 << " cycles\n";

  RunOutcome out;
  out.attempted = windows;
  out.failed = failed_episodes * kEpisodeWindows;
  if (a.trace) {
    out.metrics = layer_metrics(tot, rounds, setup_times, quality);
  } else {
    out.metrics = end_to_end_metrics(setup_times, samples);
  }
  return out;
}

bool same_round(const core::RoundResult& x, const core::RoundResult& y) {
  return x.detected == y.detected &&
         std::memcmp(&x.probability, &y.probability, sizeof(float)) == 0 &&
         x.victims == y.victims && x.tlm.attackers == y.tlm.attackers &&
         x.tlm.target_victims == y.tlm.target_victims && x.fusion.victims == y.fusion.victims;
}

/// Checks the held-out scoring against per-window process() and the
/// quality floors. Returns the localization calls one pass makes.
std::int64_t check_scores(const Setup& setup, const std::vector<core::RoundResult>& results,
                          Checks& checks) {
  const auto& samples = setup.heldout.samples;
  core::PipelineSession single(setup.engine, 1);
  ConfusionMatrix det;
  core::LocalizationScore loc;
  std::int64_t detected = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    checks.require(same_round(results[i], single.process(samples[i])),
                   "window " + std::to_string(i) + ": process_batch != process");
    det.add(results[i].detected, samples[i].under_attack);
    // Localization is scored as the paper's tables score it: on every
    // attack window, independently of the detector's verdict.
    if (samples[i].under_attack) loc.add(single.localize(samples[i]).victims, samples[i].victim_truth);
    if (results[i].detected) ++detected;
  }
  const core::Metrics4 d = core::detection_metrics(det);
  const core::Metrics4 l = loc.metrics();
  std::cout << "held-out windows " << samples.size() << " (" << setup.heldout.attack_count()
            << " attack): detection accuracy " << d.accuracy << " precision " << d.precision
            << ", localization accuracy " << l.accuracy << " (floor "
            << kPaperLocAcc - kFloorMargin << ", not gated) precision " << l.precision << "\n";
  checks.require(d.accuracy >= kPaperDetAcc - kFloorMargin, "detection accuracy below floor");
  checks.require(d.precision >= kPaperDetPrec - kFloorMargin, "detection precision below floor");
  checks.require(l.precision >= kPaperLocPrec - kFloorMargin,
                 "localization precision below floor");
  return detected;
}

RunOutcome run_score(const Args& a, const Setup& setup, const SetupTimes& setup_times,
                     HostSpeed& speed, Checks& checks) {
  const monitor::WindowBatch all = setup.heldout.windows();
  core::PipelineSession session(setup.engine, kScoreBatch);

  // One pass = process_batch over every kScoreBatch chunk; returns the
  // per-chunk host times in seconds.
  std::vector<core::RoundResult> results(all.size());
  const auto pass = [&](std::vector<double>& chunk_s) {
    for (std::size_t b = 0; b < all.size(); b += kScoreBatch) {
      const auto chunk = all.subspan(b, std::min<std::size_t>(kScoreBatch, all.size() - b));
      const auto t0 = Clock::now();
      std::vector<core::RoundResult> r = session.process_batch(chunk);
      chunk_s.push_back(seconds_since(t0));
      std::move(r.begin(), r.end(), results.begin() + static_cast<std::ptrdiff_t>(b));
    }
  };

  std::vector<double> chunk_s;
  pass(chunk_s);
  const std::vector<core::RoundResult> reference = results;
  const std::int64_t localize_calls = check_scores(setup, reference, checks);

  Samples samples;
  LayerTotals tot;
  std::int64_t rounds = 0;
  const auto t_run = Clock::now();
  while (rounds == 0 || seconds_since(t_run) < a.seconds) {
    chunk_s.clear();
    if (rounds % 5 == 0) speed.sample();
    const double scale = speed.local_scale();
    pass(chunk_s);
    double pass_s = 0.0;
    for (std::size_t c = 0; c < chunk_s.size(); ++c) {
      const std::size_t n = std::min<std::size_t>(kScoreBatch, all.size() - c * kScoreBatch);
      samples.add_window(chunk_s[c] * 1e3 / static_cast<double>(n), scale);
      pass_s += chunk_s[c];
    }
    samples.add_rate(static_cast<double>(all.size()) / pass_s, scale);
    bool same = true;
    for (std::size_t i = 0; i < results.size(); ++i) same = same && same_round(results[i], reference[i]);
    checks.require(same, "a scoring pass differs from the first");

    if (a.trace) {
      // Traced pass: the same chunks with the round span around each
      // process_batch call, then the detector and localizer attribution
      // calls on the chunk's windows.
      tot.untraced_ns += static_cast<std::int64_t>(pass_s * 1e9);
      for (std::size_t b = 0; b < all.size(); b += kScoreBatch) {
        const auto chunk = all.subspan(b, std::min<std::size_t>(kScoreBatch, all.size() - b));
        auto t0 = Clock::now();
        const std::vector<core::RoundResult> r = session.process_batch(chunk);
        auto t1 = Clock::now();
        tot.window_ns += ns_between(t0, t1);
        tot.pipeline_ns += ns_between(t0, t1);
        tot.windows += static_cast<std::int64_t>(chunk.size());
        t0 = Clock::now();
        const std::vector<float> p = session.detect_batch(chunk);
        t1 = Clock::now();
        tot.detect_ns += ns_between(t0, t1);
        for (std::size_t i = 0; i < chunk.size(); ++i) {
          if (p[i] != r[i].probability) throw std::runtime_error("detector attribution");
          if (!r[i].detected) continue;
          t0 = Clock::now();
          (void)session.localize(chunk[i]);
          t1 = Clock::now();
          tot.localize_ns += ns_between(t0, t1);
          ++tot.localize_calls;
        }
      }
    }
    ++rounds;
  }
  std::cout << "rounds " << rounds << " x " << all.size() << " windows\n"
            << "windows attempted " << rounds * static_cast<std::int64_t>(all.size())
            << " failed 0\n";
  checks.require(!a.trace || tot.localize_calls == rounds * localize_calls,
                 "localization calls differ between passes");

  RunOutcome out;
  out.attempted = rounds * static_cast<std::int64_t>(all.size());
  if (a.trace) {
    out.metrics = layer_metrics(tot, rounds, setup_times, RoundQuality{});
  } else {
    out.metrics = end_to_end_metrics(setup_times, samples);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  std::cout << "workload " << args.workload << " seed " << args.seed << " seconds "
            << args.seconds << " trace " << args.trace << "\n"
            << "provenance: source " << args.source_id << "; compiler " << PERFBENCH_COMPILER
            << "; flags " << PERFBENCH_FLAGS << "; build " << PERFBENCH_BUILD_TYPE << "; cpu "
            << cpu_model() << "; cores " << std::thread::hardware_concurrency() << "\n";

  Checks checks;
  try {
    // Set up kSetupRepeats times; keep the last, report medians (plus, on
    // score-16x16, the held-out set built once). Set-up is
    // simulation-bound on every workload.
    HostSpeed setup_speed(HostSpeed::Kernel::IntegerWalk);
    std::vector<double> total, dataset, train, load, raw_total;
    std::unique_ptr<Setup> setup;
    for (int r = 0; r < kSetupRepeats; ++r) {
      for (std::size_t k = 0; k < HostSpeed::kLocalSamples; ++k) setup_speed.sample();
      const double scale = setup_speed.local_scale();
      auto s = std::make_unique<Setup>(run_setup(args));
      if (setup != nullptr) {
        checks.require(s->snapshot.detector_weights == setup->snapshot.detector_weights &&
                           s->snapshot.localizer_weights == setup->snapshot.localizer_weights &&
                           s->snapshot.temporal_weights == setup->snapshot.temporal_weights,
                       "set-up repeats trained different weights");
      }
      total.push_back(s->times.total_s * scale);
      dataset.push_back(s->times.dataset_s * scale);
      train.push_back(s->times.train_s * scale);
      load.push_back(s->times.load_s * scale);
      raw_total.push_back(s->times.total_s);
      setup = std::move(s);
    }
    SetupTimes times{median(dataset), median(train), median(load), median(total),
                     median(raw_total)};
    if (is_score(args)) {
      for (std::size_t k = 0; k < HostSpeed::kLocalSamples; ++k) setup_speed.sample();
      const double scale = setup_speed.local_scale();
      const auto t0 = Clock::now();
      setup->heldout = make_heldout(args);
      const double held_s = seconds_since(t0);
      times.dataset_s += held_s * scale;
      times.total_s += held_s * scale;
      times.raw_total_s += held_s;
    }
    std::cout << "setup " << kSetupRepeats << "x: median " << times.total_s << " s (dataset "
              << times.dataset_s << ", train " << times.train_s << ", load " << times.load_s
              << "; raw " << times.raw_total_s << " s)\n";

    HostSpeed speed(is_score(args) ? HostSpeed::Kernel::FloatSweep
                                   : HostSpeed::Kernel::IntegerWalk);
    RunOutcome out = is_score(args) ? run_score(args, *setup, times, speed, checks)
                                    : run_online(args, *setup, times, speed, checks);
    for (const auto& f : checks.failures) std::cout << "CHECK FAILED: " << f << "\n";
    const double scale = speed.scale();
    std::cout << "host speed: reference kernel median " << speed.reference_ms() / scale
              << " ms over " << speed.samples() << " samples, scale " << scale
              << "; set-up kernel median " << setup_speed.reference_ms() / setup_speed.scale()
              << " ms (sink " << speed.sink() + setup_speed.sink() << ")\n";
    for (auto& m : out.metrics) {
      if (m.scaled == Scaled::Time) {
        m.raw = m.value;
        m.value *= scale;
      }
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit;
      if (m.raw != 0.0 && m.raw != m.value) std::cout << " (raw " << m.raw << ")";
      std::cout << "\n";
    }
    print_result(checks.ok(), out.attempted, out.failed, out.metrics);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
