// Golden digests for the traffic-generator layer.
//
// noc_golden_test pins the mesh datapath under synthetic traffic and the
// static flood; this file pins everything that sits ABOVE the mesh and
// draws random numbers: the three trace-driven request/reply families
// (trace source + endpoints), the pulsed flood overlay, and a PARSEC
// profile. Every digest below is a function of the exact Rng stream each
// generator consumes and of the exact order in which endpoints inject, so
// a change to the random-number draws, the engine, or the endpoint sweep
// order shows up here even when the mesh itself is untouched.
//
// Floating-point sums are compared bitwise: they accumulate in delivery
// order. To re-capture (only legitimate when a *scenario* below changes,
// never for a speed-up of the code under test), run with
// DL2F_PRINT_GOLDEN=1 and paste the printed literals.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "traffic/evasive.hpp"
#include "traffic/parsec.hpp"
#include "traffic/simulation.hpp"
#include "workload/families.hpp"

namespace dl2f {
namespace {

struct Digest {
  // workload::WorkloadStats (zero for the PARSEC run).
  std::int64_t requests_issued = 0;
  std::int64_t requests_dropped = 0;
  std::int64_t requests_delivered = 0;
  std::int64_t replies_issued = 0;
  std::int64_t replies_dropped = 0;
  std::int64_t replies_completed = 0;
  std::int64_t issue_stall_cycles = 0;
  std::int64_t reply_stall_cycles = 0;
  std::int64_t reply_latency_max = 0;
  double reply_latency_sum = 0.0;
  std::uint64_t reply_hist_hash = 0;
  // noc::LatencyStats of the whole mesh and of benign traffic.
  std::int64_t flits_ejected = 0;
  std::int64_t packets_ejected = 0;
  std::int64_t benign_packets = 0;
  std::int64_t packets_dropped = 0;
  double packet_latency_sum = 0.0;
  double benign_packet_latency_sum = 0.0;
  double avg_flit_latency = 0.0;
  double avg_packet_queue_latency = 0.0;
  std::uint64_t packet_hist_hash = 0;
};

std::uint64_t hash_hist(const std::vector<std::int64_t>& hist) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(hist.data());
  for (std::size_t i = 0; i < hist.size() * sizeof(hist[0]); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void capture_mesh(const noc::Mesh& mesh, Digest& d) {
  const noc::LatencyStats& s = mesh.stats();
  d.flits_ejected = s.flits_ejected();
  d.packets_ejected = s.packets_ejected();
  d.benign_packets = mesh.benign_stats().packets_ejected();
  d.packets_dropped = mesh.packets_dropped();
  d.packet_latency_sum = s.packet_latency_sum();
  d.benign_packet_latency_sum = mesh.benign_stats().packet_latency_sum();
  d.avg_flit_latency = s.avg_flit_latency();
  d.avg_packet_queue_latency = s.avg_packet_queue_latency();
  d.packet_hist_hash = hash_hist(s.packet_latency_histogram());
}

/// 3000 cycles of one trace family on 8x8 with a pulsed two-attacker flood
/// from cycle 1000; one attacker (itself a client) is fenced at 2200, so
/// the dropped-request path and the quarantine flush are exercised too.
Digest run_trace_family(workload::TraceWorkloadKind kind) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  traffic::Simulation sim(cfg);
  auto owned = workload::make_trace_workload(kind, cfg.shape, /*seed=*/23);
  const workload::RequestReplyWorkload* wl = owned.get();
  sim.add_generator(std::move(owned));
  traffic::AttackScenario s;
  s.attackers = {9, 54};
  s.victim = 27;
  s.fir = 1.0;  // the attackers' whole injection bandwidth while on
  traffic::PulseSchedule pulse;
  pulse.start = 1000;
  pulse.period = 200;
  pulse.duty = 0.4;
  sim.emplace_generator<traffic::PulsedFloodingAttack>(s, pulse, /*seed=*/41);

  sim.run(2200);
  sim.mesh().set_quarantined(9, true);
  sim.run(800);

  Digest d;
  const workload::WorkloadStats& w = wl->stats();
  d.requests_issued = w.requests_issued;
  d.requests_dropped = w.requests_dropped;
  d.requests_delivered = w.requests_delivered;
  d.replies_issued = w.replies_issued;
  d.replies_dropped = w.replies_dropped;
  d.replies_completed = w.replies_completed;
  d.issue_stall_cycles = w.issue_stall_cycles;
  d.reply_stall_cycles = w.reply_stall_cycles;
  d.reply_latency_max = w.reply_latency_max;
  d.reply_latency_sum = w.reply_latency_sum;
  d.reply_hist_hash = hash_hist(wl->reply_latency_histogram());
  capture_mesh(sim.mesh(), d);
  return d;
}

/// 3000 cycles of the x264 PARSEC profile on 8x8 (memory-controller and
/// neighbor-biased destinations, per-node rate draws).
Digest run_parsec() {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  traffic::Simulation sim(cfg);
  sim.emplace_generator<traffic::ParsecTraffic>(traffic::ParsecWorkload::X264, cfg.shape,
                                                /*seed=*/37);
  sim.run(3000);
  Digest d;
  capture_mesh(sim.mesh(), d);
  return d;
}

bool print_mode() { return std::getenv("DL2F_PRINT_GOLDEN") != nullptr; }

void print_digest(const char* name, const Digest& d) {
  std::printf("  // %s\n", name);
  const auto i64 = [](const char* field, std::int64_t v) {
    std::printf("  d.%s = %lld;\n", field, static_cast<long long>(v));
  };
  i64("requests_issued", d.requests_issued);
  i64("requests_dropped", d.requests_dropped);
  i64("requests_delivered", d.requests_delivered);
  i64("replies_issued", d.replies_issued);
  i64("replies_dropped", d.replies_dropped);
  i64("replies_completed", d.replies_completed);
  i64("issue_stall_cycles", d.issue_stall_cycles);
  i64("reply_stall_cycles", d.reply_stall_cycles);
  i64("reply_latency_max", d.reply_latency_max);
  std::printf("  d.reply_latency_sum = %a;\n", d.reply_latency_sum);
  std::printf("  d.reply_hist_hash = %lluULL;\n",
              static_cast<unsigned long long>(d.reply_hist_hash));
  i64("flits_ejected", d.flits_ejected);
  i64("packets_ejected", d.packets_ejected);
  i64("benign_packets", d.benign_packets);
  i64("packets_dropped", d.packets_dropped);
  std::printf("  d.packet_latency_sum = %a;\n", d.packet_latency_sum);
  std::printf("  d.benign_packet_latency_sum = %a;\n", d.benign_packet_latency_sum);
  std::printf("  d.avg_flit_latency = %a;\n", d.avg_flit_latency);
  std::printf("  d.avg_packet_queue_latency = %a;\n", d.avg_packet_queue_latency);
  std::printf("  d.packet_hist_hash = %lluULL;\n",
              static_cast<unsigned long long>(d.packet_hist_hash));
}

void expect_bitwise(double got, double want, const char* field) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << field << ": " << got << " vs " << want;
}

void expect_equal(const Digest& got, const Digest& want) {
  EXPECT_EQ(got.requests_issued, want.requests_issued);
  EXPECT_EQ(got.requests_dropped, want.requests_dropped);
  EXPECT_EQ(got.requests_delivered, want.requests_delivered);
  EXPECT_EQ(got.replies_issued, want.replies_issued);
  EXPECT_EQ(got.replies_dropped, want.replies_dropped);
  EXPECT_EQ(got.replies_completed, want.replies_completed);
  EXPECT_EQ(got.issue_stall_cycles, want.issue_stall_cycles);
  EXPECT_EQ(got.reply_stall_cycles, want.reply_stall_cycles);
  EXPECT_EQ(got.reply_latency_max, want.reply_latency_max);
  expect_bitwise(got.reply_latency_sum, want.reply_latency_sum, "reply_latency_sum");
  EXPECT_EQ(got.reply_hist_hash, want.reply_hist_hash);
  EXPECT_EQ(got.flits_ejected, want.flits_ejected);
  EXPECT_EQ(got.packets_ejected, want.packets_ejected);
  EXPECT_EQ(got.benign_packets, want.benign_packets);
  EXPECT_EQ(got.packets_dropped, want.packets_dropped);
  expect_bitwise(got.packet_latency_sum, want.packet_latency_sum, "packet_latency_sum");
  expect_bitwise(got.benign_packet_latency_sum, want.benign_packet_latency_sum,
                 "benign_packet_latency_sum");
  expect_bitwise(got.avg_flit_latency, want.avg_flit_latency, "avg_flit_latency");
  expect_bitwise(got.avg_packet_queue_latency, want.avg_packet_queue_latency,
                 "avg_packet_queue_latency");
  EXPECT_EQ(got.packet_hist_hash, want.packet_hist_hash);
}

TEST(GeneratorGolden, TraceReplay) {
  const Digest got = run_trace_family(workload::TraceWorkloadKind::TraceReplay);
  if (print_mode()) {
    print_digest("TraceReplay", got);
    return;
  }
  Digest d;
  // Captured before the fast-RNG and activity-bitset rewrite.
  d.requests_issued = 1245;
  d.requests_dropped = 7;
  d.requests_delivered = 1244;
  d.replies_issued = 1242;
  d.replies_dropped = 0;
  d.replies_completed = 1241;
  d.issue_stall_cycles = 0;
  d.reply_stall_cycles = 3142;
  d.reply_latency_max = 296;
  d.reply_latency_sum = 0x1.7222p+16;
  d.reply_hist_hash = 8501653887775970454ULL;
  d.flits_ejected = 8729;
  d.packets_ejected = 3765;
  d.benign_packets = 2485;
  d.packets_dropped = 327;
  d.packet_latency_sum = 0x1.55ffp+16;
  d.benign_packet_latency_sum = 0x1.3256p+15;
  d.avg_flit_latency = 0x1.534d1a217df63p+4;
  d.avg_packet_queue_latency = 0x1.16cb937b009cbp+2;
  d.packet_hist_hash = 702577954165569185ULL;
  expect_equal(got, d);
}

TEST(GeneratorGolden, OpenLoopBurst) {
  const Digest got = run_trace_family(workload::TraceWorkloadKind::OpenLoopBurst);
  if (print_mode()) {
    print_digest("OpenLoopBurst", got);
    return;
  }
  Digest d;
  // Captured before the fast-RNG and activity-bitset rewrite.
  d.requests_issued = 2426;
  d.requests_dropped = 7;
  d.requests_delivered = 2421;
  d.replies_issued = 2396;
  d.replies_dropped = 0;
  d.replies_completed = 2385;
  d.issue_stall_cycles = 0;
  d.reply_stall_cycles = 647;
  d.reply_latency_max = 124;
  d.reply_latency_sum = 0x1.6965p+16;
  d.reply_hist_hash = 16351608764389608920ULL;
  d.flits_ejected = 10858;
  d.packets_ejected = 6086;
  d.benign_packets = 4806;
  d.packets_dropped = 327;
  d.packet_latency_sum = 0x1.9185p+16;
  d.benign_packet_latency_sum = 0x1.9bdap+15;
  d.avg_flit_latency = 0x1.da7ae23ee756ap+3;
  d.avg_packet_queue_latency = 0x1.eeec0fd0e37b1p+0;
  d.packet_hist_hash = 3733468935980207458ULL;
  expect_equal(got, d);
}

TEST(GeneratorGolden, MemHog) {
  const Digest got = run_trace_family(workload::TraceWorkloadKind::MemHog);
  if (print_mode()) {
    print_digest("MemHog", got);
    return;
  }
  Digest d;
  // Captured before the fast-RNG and activity-bitset rewrite.
  d.requests_issued = 2694;
  d.requests_dropped = 13;
  d.requests_delivered = 2690;
  d.replies_issued = 2660;
  d.replies_dropped = 0;
  d.replies_completed = 2643;
  d.issue_stall_cycles = 0;
  d.reply_stall_cycles = 4710;
  d.reply_latency_max = 263;
  d.reply_latency_sum = 0x1.483a8p+17;
  d.reply_hist_hash = 15404344484748991266ULL;
  d.flits_ejected = 14546;
  d.packets_ejected = 6613;
  d.benign_packets = 5333;
  d.packets_dropped = 333;
  d.packet_latency_sum = 0x1.05658p+17;
  d.benign_packet_latency_sum = 0x1.3d8ep+16;
  d.avg_flit_latency = 0x1.36ca4069e0ac5p+4;
  d.avg_packet_queue_latency = 0x1.230b300a87917p+2;
  d.packet_hist_hash = 10609072697085374379ULL;
  expect_equal(got, d);
}

TEST(GeneratorGolden, ParsecX264) {
  const Digest got = run_parsec();
  if (print_mode()) {
    print_digest("ParsecX264", got);
    return;
  }
  Digest d;
  // Captured before the fast-RNG and activity-bitset rewrite.
  d.flits_ejected = 16013;
  d.packets_ejected = 3202;
  d.benign_packets = 3202;
  d.packets_dropped = 0;
  d.packet_latency_sum = 0x1.ed42p+15;
  d.benign_packet_latency_sum = 0x1.ed42p+15;
  d.avg_flit_latency = 0x1.ec03222a0bbcp+3;
  d.avg_packet_queue_latency = 0x1.1c9f42ada6c6ap+2;
  d.packet_hist_hash = 7241879090856557742ULL;
  expect_equal(got, d);
}

}  // namespace
}  // namespace dl2f
