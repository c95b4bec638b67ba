// Golden equivalence for the flat-storage NoC refactor (ISSUE 3).
//
// Runs two seeded mixed benign+attack simulations and compares every
// externally observable aggregate — ejection counts, exact (bit-for-bit)
// latency accumulator sums and means, the full latency histogram, per-port
// buffer-operation telemetry and time-averaged VC occupancy, quarantine
// drop counts and queue high-water marks — against values captured from
// the pre-refactor simulator (unique_ptr routers, deque VCs, per-cycle
// scratch allocations, full router sweeps).
//
// The latency means are sums of doubles accumulated in ejection order, so
// bitwise equality here certifies that the refactor preserved the exact
// per-cycle ejection order, not just the totals. To re-capture (only
// legitimate when the *scenario* changes, never for a datapath change),
// run with DL2F_PRINT_GOLDEN=1 and paste the printed literals.
#include "noc/mesh.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "traffic/fdos.hpp"
#include "traffic/simulation.hpp"

namespace dl2f::noc {
namespace {

struct Golden {
  std::int64_t flits_ejected = 0;
  std::int64_t packets_ejected = 0;
  std::int64_t benign_flits = 0;
  std::int64_t benign_packets = 0;
  std::int64_t packets_dropped = 0;
  std::int64_t max_queue_len = 0;
  std::int64_t flits_in_network_mid = 0;
  std::int64_t writes_total = 0;
  std::int64_t reads_total = 0;
  std::uint64_t hist_hash = 0;
  std::uint64_t telem_hash = 0;
  double avg_flit_queue = 0.0;
  double avg_flit = 0.0;
  double avg_packet_queue = 0.0;
  double avg_packet = 0.0;
  double packet_latency_sum = 0.0;
  double benign_packet_latency_sum = 0.0;
  double occ_sum_mid = 0.0;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Mid-run probe: buffered flits plus the occupancy average of every
/// connected input port, read in fixed (router, port) order.
void probe_mid(const Mesh& mesh, Golden& g) {
  g.flits_in_network_mid = mesh.flits_in_network();
  for (NodeId id = 0; id < mesh.shape().node_count(); ++id) {
    const Router& r = mesh.router(id);
    for (std::size_t p = 0; p < kNumPorts; ++p) {
      const auto d = static_cast<Direction>(p);
      g.occ_sum_mid += r.input(d).avg_vc_occupancy(mesh.now());
    }
  }
}

void capture_final(const Mesh& mesh, Golden& g) {
  const LatencyStats& s = mesh.stats();
  const LatencyStats& b = mesh.benign_stats();
  g.flits_ejected = s.flits_ejected();
  g.packets_ejected = s.packets_ejected();
  g.benign_flits = b.flits_ejected();
  g.benign_packets = b.packets_ejected();
  g.packets_dropped = mesh.packets_dropped();
  g.max_queue_len = static_cast<std::int64_t>(mesh.max_source_queue_length());
  g.avg_flit_queue = s.avg_flit_queue_latency();
  g.avg_flit = s.avg_flit_latency();
  g.avg_packet_queue = s.avg_packet_queue_latency();
  g.avg_packet = s.avg_packet_latency();
  g.packet_latency_sum = s.packet_latency_sum();
  g.benign_packet_latency_sum = b.packet_latency_sum();
  const auto& hist = s.packet_latency_histogram();
  g.hist_hash = fnv1a(1469598103934665603ULL, hist.data(), hist.size() * sizeof(hist[0]));
  std::uint64_t th = 1469598103934665603ULL;
  for (NodeId id = 0; id < mesh.shape().node_count(); ++id) {
    const Router& r = mesh.router(id);
    for (std::size_t p = 0; p < kNumPorts; ++p) {
      const auto& t = r.input(static_cast<Direction>(p)).telemetry;
      g.writes_total += t.buffer_writes;
      g.reads_total += t.buffer_reads;
      th = fnv1a(th, &t.buffer_writes, sizeof(t.buffer_writes));
      th = fnv1a(th, &t.buffer_reads, sizeof(t.buffer_reads));
    }
  }
  g.telem_hash = th;
}

/// Scenario A: 8x8 default router config, 5-flit benign packets, periodic
/// two-attacker flood, mid-attack quarantine flush, full drain.
/// `shards`/`step_threads` select the row-band stepping partition (ISSUE
/// 9); every golden below must hold at ANY value of either.
Golden run_scenario_a(std::int32_t shards = 0, std::int32_t step_threads = 0) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(8);
  cfg.packet_length_flits = 5;
  cfg.shards = shards;
  cfg.step_threads = step_threads;
  traffic::Simulation sim(cfg);
  sim.emplace_generator<traffic::SyntheticTraffic>(traffic::SyntheticPattern::UniformRandom,
                                                   0.02, /*seed=*/11);
  traffic::AttackScenario s;
  s.attackers = {0, 7};
  s.victim = 36;
  s.fir = 0.8;
  auto* attack = sim.emplace_generator<traffic::FloodingAttack>(s, /*seed=*/9);
  attack->set_active(false);

  Golden g;
  sim.run(800);                    // benign-only lead-in
  attack->set_active(true);
  sim.run(1200);                   // flood overlay
  probe_mid(sim.mesh(), g);
  sim.mesh().set_quarantined(0, true);   // fence both attackers: backlog flush
  sim.mesh().set_quarantined(7, true);
  sim.run(400);                    // benign continues around the fences
  attack->set_active(false);
  sim.run_drain(20000);
  EXPECT_TRUE(sim.mesh().drained());
  capture_final(sim.mesh(), g);
  return g;
}

/// Scenario B: small 4x4 mesh with 2 VCs of depth 2 (maximum ring-buffer
/// wraparound pressure), 3-flit packets, saturating single attacker.
Golden run_scenario_b(std::int32_t shards = 0, std::int32_t step_threads = 0) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(4);
  cfg.packet_length_flits = 3;
  cfg.router.vcs_per_port = 2;
  cfg.router.vc_depth = 2;
  cfg.shards = shards;
  cfg.step_threads = step_threads;
  traffic::Simulation sim(cfg);
  sim.emplace_generator<traffic::SyntheticTraffic>(traffic::SyntheticPattern::UniformRandom,
                                                   0.05, /*seed=*/5);
  traffic::AttackScenario s;
  s.attackers = {0};
  s.victim = 10;
  s.fir = 1.0;
  sim.emplace_generator<traffic::FloodingAttack>(s, /*seed=*/3);

  Golden g;
  sim.run(600);
  probe_mid(sim.mesh(), g);
  sim.mesh().set_quarantined(0, true);
  sim.run_drain(20000);
  EXPECT_TRUE(sim.mesh().drained());
  capture_final(sim.mesh(), g);
  return g;
}

/// Scenario C: 32x32 short run — large enough that the auto shard count
/// is 4 (rows/8), so the default configuration exercises the sharded
/// stepping engine with real cross-band traffic. Two corner attackers
/// flood a center victim over uniform-random benign load; no drain (the
/// flood is still in flight at capture, maximizing in-network state).
Golden run_scenario_c(std::int32_t shards = 0, std::int32_t step_threads = 0) {
  noc::MeshConfig cfg;
  cfg.shape = MeshShape::square(32);
  cfg.packet_length_flits = 5;
  cfg.shards = shards;
  cfg.step_threads = step_threads;
  traffic::Simulation sim(cfg);
  sim.emplace_generator<traffic::SyntheticTraffic>(traffic::SyntheticPattern::UniformRandom,
                                                   0.02, /*seed=*/29);
  traffic::AttackScenario s;
  s.attackers = {0, 31};
  s.victim = 528;  // row 16, col 16
  s.fir = 0.9;
  sim.emplace_generator<traffic::FloodingAttack>(s, /*seed=*/31);

  Golden g;
  sim.run(400);
  probe_mid(sim.mesh(), g);
  sim.mesh().set_quarantined(0, true);
  sim.run(200);
  capture_final(sim.mesh(), g);
  return g;
}

void print_golden(const char* name, const Golden& g) {
  std::printf("  // %s\n", name);
  std::printf("  g.flits_ejected = %lld;\n", static_cast<long long>(g.flits_ejected));
  std::printf("  g.packets_ejected = %lld;\n", static_cast<long long>(g.packets_ejected));
  std::printf("  g.benign_flits = %lld;\n", static_cast<long long>(g.benign_flits));
  std::printf("  g.benign_packets = %lld;\n", static_cast<long long>(g.benign_packets));
  std::printf("  g.packets_dropped = %lld;\n", static_cast<long long>(g.packets_dropped));
  std::printf("  g.max_queue_len = %lld;\n", static_cast<long long>(g.max_queue_len));
  std::printf("  g.flits_in_network_mid = %lld;\n",
              static_cast<long long>(g.flits_in_network_mid));
  std::printf("  g.writes_total = %lld;\n", static_cast<long long>(g.writes_total));
  std::printf("  g.reads_total = %lld;\n", static_cast<long long>(g.reads_total));
  std::printf("  g.hist_hash = %lluULL;\n", static_cast<unsigned long long>(g.hist_hash));
  std::printf("  g.telem_hash = %lluULL;\n", static_cast<unsigned long long>(g.telem_hash));
  std::printf("  g.avg_flit_queue = %a;\n", g.avg_flit_queue);
  std::printf("  g.avg_flit = %a;\n", g.avg_flit);
  std::printf("  g.avg_packet_queue = %a;\n", g.avg_packet_queue);
  std::printf("  g.avg_packet = %a;\n", g.avg_packet);
  std::printf("  g.packet_latency_sum = %a;\n", g.packet_latency_sum);
  std::printf("  g.benign_packet_latency_sum = %a;\n", g.benign_packet_latency_sum);
  std::printf("  g.occ_sum_mid = %a;\n", g.occ_sum_mid);
}

bool print_mode() { return std::getenv("DL2F_PRINT_GOLDEN") != nullptr; }

void expect_equal(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.flits_ejected, want.flits_ejected);
  EXPECT_EQ(got.packets_ejected, want.packets_ejected);
  EXPECT_EQ(got.benign_flits, want.benign_flits);
  EXPECT_EQ(got.benign_packets, want.benign_packets);
  EXPECT_EQ(got.packets_dropped, want.packets_dropped);
  EXPECT_EQ(got.max_queue_len, want.max_queue_len);
  EXPECT_EQ(got.flits_in_network_mid, want.flits_in_network_mid);
  EXPECT_EQ(got.writes_total, want.writes_total);
  EXPECT_EQ(got.reads_total, want.reads_total);
  EXPECT_EQ(got.hist_hash, want.hist_hash);
  EXPECT_EQ(got.telem_hash, want.telem_hash);
  // Bitwise double equality: the accumulators are FP sums in ejection
  // order, so these certify the exact event order.
  EXPECT_EQ(std::memcmp(&got.avg_flit_queue, &want.avg_flit_queue, sizeof(double)), 0)
      << got.avg_flit_queue << " vs " << want.avg_flit_queue;
  EXPECT_EQ(std::memcmp(&got.avg_flit, &want.avg_flit, sizeof(double)), 0)
      << got.avg_flit << " vs " << want.avg_flit;
  EXPECT_EQ(std::memcmp(&got.avg_packet_queue, &want.avg_packet_queue, sizeof(double)), 0)
      << got.avg_packet_queue << " vs " << want.avg_packet_queue;
  EXPECT_EQ(std::memcmp(&got.avg_packet, &want.avg_packet, sizeof(double)), 0)
      << got.avg_packet << " vs " << want.avg_packet;
  EXPECT_EQ(std::memcmp(&got.packet_latency_sum, &want.packet_latency_sum, sizeof(double)), 0)
      << got.packet_latency_sum << " vs " << want.packet_latency_sum;
  EXPECT_EQ(std::memcmp(&got.benign_packet_latency_sum, &want.benign_packet_latency_sum,
                        sizeof(double)),
            0)
      << got.benign_packet_latency_sum << " vs " << want.benign_packet_latency_sum;
  EXPECT_EQ(std::memcmp(&got.occ_sum_mid, &want.occ_sum_mid, sizeof(double)), 0)
      << got.occ_sum_mid << " vs " << want.occ_sum_mid;
}

TEST(NocGolden, ScenarioAMatchesPreRefactorSimulator) {
  const Golden got = run_scenario_a();
  if (print_mode()) {
    print_golden("ScenarioA", got);
    return;
  }
  Golden g;
  // Captured from the pre-refactor simulator (see file comment).
  g.flits_ejected = 16293;
  g.packets_ejected = 4085;
  g.benign_flits = 15260;
  g.benign_packets = 3052;
  g.packets_dropped = 1591;
  g.max_queue_len = 515;
  g.flits_in_network_mid = 210;
  g.writes_total = 104064;
  g.reads_total = 104064;
  g.hist_hash = 5751904924619480975ULL;
  g.telem_hash = 6025618466294179687ULL;
  g.avg_flit_queue = 0x1.390e607120dabp+4;
  g.avg_flit = 0x1.34b8d6d171cddp+5;
  g.avg_packet_queue = 0x1.0a6062438e71fp+6;
  g.avg_packet = 0x1.c4db96f7ca5b2p+6;
  g.packet_latency_sum = 0x1.c3a44p+18;
  g.benign_packet_latency_sum = 0x1.a884p+15;
  g.occ_sum_mid = 0x1.2383126e978d7p+4;
  expect_equal(got, g);
}

TEST(NocGolden, ScenarioBMatchesPreRefactorSimulator) {
  const Golden got = run_scenario_b();
  if (print_mode()) {
    print_golden("ScenarioB", got);
    return;
  }
  Golden g;
  // Captured from the pre-refactor simulator (see file comment).
  g.flits_ejected = 1923;
  g.packets_ejected = 939;
  g.benign_flits = 1476;
  g.benign_packets = 492;
  g.packets_dropped = 161;
  g.max_queue_len = 162;
  g.flits_in_network_mid = 21;
  g.writes_total = 7590;
  g.reads_total = 7590;
  g.hist_hash = 14258882474127764240ULL;
  g.telem_hash = 6361473172296235967ULL;
  g.avg_flit_queue = 0x1.4ff55997e56p+4;
  g.avg_flit = 0x1.a95c417f66a3cp+4;
  g.avg_packet_queue = 0x1.39a94db31e431p+5;
  g.avg_packet = 0x1.7695f25e5483fp+5;
  g.packet_latency_sum = 0x1.577ep+15;
  g.benign_packet_latency_sum = 0x1.23ap+12;
  g.occ_sum_mid = 0x1.ac44444444443p+2;
  expect_equal(got, g);
}

TEST(NocGolden, ScenarioC32x32ShortRun) {
  const Golden got = run_scenario_c();
  if (print_mode()) {
    print_golden("ScenarioC", got);
    return;
  }
  Golden g;
  // Captured from this simulator at the sharded engine's introduction; the
  // shard sweep below certifies the literals are shard-count-invariant.
  g.flits_ejected = 54813;
  g.packets_ejected = 10941;
  g.benign_flits = 54657;
  g.benign_packets = 10785;
  g.packets_dropped = 331;
  g.max_queue_len = 323;
  g.flits_in_network_mid = 6594;
  g.writes_total = 1276917;
  g.reads_total = 1270105;
  g.hist_hash = 15059536214648112658ULL;
  g.telem_hash = 6021732447557465192ULL;
  g.avg_flit_queue = 0x1.318aa1d951cd7p+1;
  g.avg_flit = 0x1.a90551d238726p+5;
  g.avg_packet_queue = 0x1.265686d211bc6p+2;
  g.avg_packet = 0x1.f5beb80cea734p+5;
  g.packet_latency_sum = 0x1.4f0eep+19;
  g.benign_packet_latency_sum = 0x1.3a2c8p+19;
  g.occ_sum_mid = 0x1.553c99999998ep+10;
  expect_equal(got, g);
}

// The sharded stepping engine (ISSUE 9) must reproduce the serial sweep
// bit-for-bit at ANY shard/thread combination: same ejection counts, same
// order-sensitive floating-point latency sums, same telemetry hashes. Each
// sweep fixes the scenario and varies only the partition.
// Every sweep steps its k shards on k threads explicitly: the automatic
// thread count stays serial below 4 shards, and these sweeps are what
// keeps the step pool (and TSan's view of it) exercised.

TEST(NocGolden, ScenarioAShardSweepBitwiseIdentical) {
  if (print_mode()) return;
  const Golden reference = run_scenario_a(/*shards=*/1, /*step_threads=*/1);
  for (const std::int32_t k : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    expect_equal(run_scenario_a(k, /*step_threads=*/k), reference);
  }
}

TEST(NocGolden, ScenarioBShardSweepBitwiseIdentical) {
  if (print_mode()) return;
  // 4 rows -> at most 4 row bands; 3 exercises the uneven 2+1+1 split.
  const Golden reference = run_scenario_b(/*shards=*/1, /*step_threads=*/1);
  for (const std::int32_t k : {2, 3, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    expect_equal(run_scenario_b(k, /*step_threads=*/k), reference);
  }
}

TEST(NocGolden, ScenarioCShardSweepBitwiseIdentical) {
  if (print_mode()) return;
  const Golden reference = run_scenario_c(/*shards=*/1, /*step_threads=*/1);
  for (const std::int32_t k : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    expect_equal(run_scenario_c(k, /*step_threads=*/k), reference);
  }
  // Threads pinned above the shard count (clamped back) and a deliberately
  // uneven 32 = 7-band split round out the partition edge cases.
  expect_equal(run_scenario_c(/*shards=*/7, /*step_threads=*/16), reference);
}

}  // namespace
}  // namespace dl2f::noc
