// Tests of the clock-nonideality layer (uwb/clock.hpp) and the multi-node
// ranging network (uwb/network.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include "base/parallel.hpp"
#include "base/units.hpp"
#include "core/block_variant.hpp"
#include "uwb/clock.hpp"
#include "uwb/network.hpp"
#include "uwb/ranging.hpp"

namespace {

using namespace uwbams;

// ---------------------------------------------------------------- ClockModel

TEST(ClockModel, IdentityIsExact) {
  uwb::ClockModel ideal;
  EXPECT_TRUE(ideal.is_identity());
  for (double t : {0.0, 1e-9, 12.345e-6, 1.0, -3.0e-6}) {
    EXPECT_EQ(ideal.local_time(t), t);   // bit-exact, not just NEAR
    EXPECT_EQ(ideal.true_time(t), t);
    EXPECT_EQ(ideal.event_true_time(t), t);
    EXPECT_EQ(ideal.jitter_at(t), 0.0);
  }
}

TEST(ClockModel, PpmOffsetMapsBothWays) {
  uwb::ClockConfig cfg;
  cfg.ppm = 40.0;
  uwb::ClockModel clk(cfg, /*base_seed=*/7);
  EXPECT_FALSE(clk.is_identity());
  const double t = 100e-6;
  // +40 ppm: the local clock runs fast.
  EXPECT_NEAR(clk.local_time(t) - t, 40e-6 * t, 1e-18);
  // Round trip to double precision.
  EXPECT_NEAR(clk.true_time(clk.local_time(t)), t, 1e-18);
}

TEST(ClockModel, DriftAndOffsetRoundTrip) {
  uwb::ClockConfig cfg;
  cfg.ppm = -25.0;
  cfg.drift_ppm_per_s = 3.0;
  cfg.offset = 2e-9;
  uwb::ClockModel clk(cfg, 7);
  for (double t : {1e-6, 50e-6, 0.3}) {
    const double tau = clk.local_time(t);
    EXPECT_NEAR(clk.true_time(tau), t, 1e-15);
  }
}

TEST(ClockModel, JitterIsDeterministicPerNodeAndSeed) {
  uwb::ClockConfig cfg;
  cfg.jitter_rms = 10e-12;
  cfg.node_id = 0;
  uwb::ClockConfig cfg1 = cfg;
  cfg1.node_id = 1;
  uwb::ClockModel a(cfg, 42), a2(cfg, 42), b(cfg1, 42), c(cfg, 43);
  const double t = 12.5e-6;
  // Same (seed, node, edge) -> same draw; different node or seed -> an
  // independent stream.
  EXPECT_EQ(a.jitter_at(t), a2.jitter_at(t));
  EXPECT_NE(a.jitter_at(t), b.jitter_at(t));
  EXPECT_NE(a.jitter_at(t), c.jitter_at(t));
  // Magnitude is jitter-scale, and distinct edges draw independently.
  EXPECT_LT(std::abs(a.jitter_at(t)), 10 * cfg.jitter_rms);
  EXPECT_NE(a.jitter_at(t), a.jitter_at(t + 1e-9));
}

// ------------------------------------------------- clock-threaded TWR engine

uwb::TwrConfig fast_twr() {
  uwb::TwrConfig cfg;
  cfg.sys.dt = 0.2e-9;
  return cfg;
}

TEST(TwrClock, ZeroNonidealityIsBitExactIdentity) {
  // The nominal ClockModel must be invisible: an explicit all-zero
  // ClockConfig reproduces the default-config estimate bit for bit (the
  // pin that guarantees the historical Table-2 path is unchanged).
  auto base = fast_twr();
  uwb::TwoWayRanging twr_default(
      base, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                          base.sys));
  const auto ref = twr_default.run_iteration(3, 5);

  auto cfg = fast_twr();
  cfg.clock_a = uwb::ClockConfig{};
  cfg.clock_b = uwb::ClockConfig{};
  uwb::TwoWayRanging twr_zero(
      cfg, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                         cfg.sys));
  const auto zero = twr_zero.run_iteration(3, 5);
  ASSERT_TRUE(ref.ok);
  ASSERT_TRUE(zero.ok);
  EXPECT_EQ(ref.distance_estimate, zero.distance_estimate);
  EXPECT_EQ(ref.toa_bias_a, zero.toa_bias_a);
  EXPECT_EQ(ref.toa_bias_b, zero.toa_bias_b);
}

TEST(TwrClock, ResponderPpmOffsetBiasesWithPredictedSign) {
  // bias = 0.5 c PT (delta_a - delta_b): a *fast* responder crystal
  // (+ppm on B) shortens the measured RTT -> underestimated distance, and
  // symmetrically for a slow one. A long PT makes the term dominate the
  // (seed-shared) estimator jitter.
  auto cfg = fast_twr();
  cfg.processing_time = 40e-6;
  const auto fact =
      core::make_integrator_factory(core::IntegratorKind::kIdeal, cfg.sys);

  cfg.clock_b.ppm = 150.0;
  uwb::TwoWayRanging fast_b(cfg, fact);
  const auto est_fast = fast_b.run_iteration(3, 5);
  cfg.clock_b.ppm = -150.0;
  uwb::TwoWayRanging slow_b(cfg, fact);
  const auto est_slow = slow_b.run_iteration(3, 5);
  ASSERT_TRUE(est_fast.ok);
  ASSERT_TRUE(est_slow.ok);

  const double predicted_split = 0.5 * units::speed_of_light *
                                 cfg.processing_time * 2.0 * 150e-6;
  const double split = est_slow.distance_raw - est_fast.distance_raw;
  EXPECT_GT(split, 0.0);  // slow B overestimates relative to fast B
  EXPECT_NEAR(split, predicted_split, 0.5 * predicted_split);
}

TEST(TwrClock, PpmCompensationRemovesTheBias) {
  auto cfg = fast_twr();
  cfg.processing_time = 40e-6;
  const auto fact =
      core::make_integrator_factory(core::IntegratorKind::kIdeal, cfg.sys);
  // Zero-ppm baseline with the same seeds: the estimator's own offset is
  // common-mode, so compensation quality is judged against it, not against
  // the true distance.
  uwb::TwoWayRanging ideal_clk(cfg, fact);
  const auto baseline = ideal_clk.run_iteration(3, 5);

  cfg.clock_b.ppm = 150.0;
  cfg.compensate_ppm = true;
  uwb::TwoWayRanging twr(cfg, fact);
  const auto it = twr.run_iteration(3, 5);
  ASSERT_TRUE(baseline.ok);
  ASSERT_TRUE(it.ok);

  const double bias_term =
      0.5 * units::speed_of_light * cfg.processing_time * 150e-6;
  // Raw and compensated straddle the bias term exactly.
  EXPECT_NEAR(it.distance_estimate - it.distance_raw, bias_term,
              1e-9 * bias_term + 1e-12);
  // The raw estimate carries most of the drift bias; the compensated one
  // lands back near the zero-ppm baseline.
  EXPECT_GT(std::abs(it.distance_raw - baseline.distance_estimate),
            0.5 * bias_term);
  // The residual is second-order: at 150 ppm the responder's windows also
  // drift ~ns across its acquisition, which moves the ToA estimate itself.
  EXPECT_LT(std::abs(it.distance_estimate - baseline.distance_estimate),
            0.4 * bias_term);
}

TEST(TwrClock, SurvivesJitterOffsetAndDrift) {
  // Realistic per-edge jitter, a start offset and drift must not crash the
  // exchange (a jitter draw can map an edge before the kernel's current
  // time; the controller clamps it to "fires immediately").
  auto cfg = fast_twr();
  cfg.clock_a.ppm = 12.0;
  cfg.clock_a.jitter_rms = 100e-12;
  cfg.clock_a.offset = 80e-9;
  cfg.clock_b.ppm = -9.0;
  cfg.clock_b.drift_ppm_per_s = 50.0;
  cfg.clock_b.jitter_rms = 100e-12;
  uwb::TwoWayRanging twr(
      cfg, core::make_integrator_factory(core::IntegratorKind::kIdeal,
                                         cfg.sys));
  const auto it = twr.run_iteration(3, 5);
  ASSERT_TRUE(it.ok);
  EXPECT_NEAR(it.distance_estimate, cfg.sys.distance, 3.0);
}

// ------------------------------------------------------------ seed derivation

TEST(TwrSeeds, ChannelAndNoiseStreamsNeverCollide) {
  // The fixed-purpose derive_seed sub-streams keep channel and noise draws
  // independent for any (seed, iteration): across a grid of seeds and
  // iterations, no channel seed may equal any noise seed (the old additive
  // arithmetic aliased them across nearby seeds).
  std::set<std::uint64_t> channel, noise;
  for (std::uint64_t s = 1; s <= 40; ++s) {
    uwb::TwrConfig cfg;
    cfg.sys.seed = s;
    cfg.fresh_channel_per_iteration = true;
    for (int i = 0; i < 25; ++i) {
      channel.insert(cfg.channel_seed(i));
      noise.insert(cfg.noise_seed(i));
    }
  }
  EXPECT_EQ(channel.size(), 40u * 25u);
  EXPECT_EQ(noise.size(), 40u * 25u);
  for (const auto s : channel) EXPECT_EQ(noise.count(s), 0u);
}

TEST(TwrSeeds, FixedChannelModeKeepsOneRealizationPerSeed) {
  uwb::TwrConfig cfg;
  cfg.sys.seed = 9;
  cfg.fresh_channel_per_iteration = false;
  EXPECT_EQ(cfg.channel_seed(0), cfg.channel_seed(7));
  cfg.fresh_channel_per_iteration = true;
  EXPECT_NE(cfg.channel_seed(0), cfg.channel_seed(7));
}

// --------------------------------------------------------------- the network

uwb::IntegratorFactory network_factory(const uwb::NetworkConfig& cfg) {
  return core::make_integrator_factory(core::IntegratorKind::kIdeal, cfg.sys);
}

uwb::NetworkConfig fast_network(int nodes) {
  uwb::NetworkConfig cfg;
  cfg.sys.dt = 0.2e-9;
  cfg.sys.seed = 11;
  cfg.node_count = nodes;
  cfg.exchanges_per_pair = 1;
  return cfg;
}

TEST(RangingNetwork, RejectsUnderAnchoredConfigs) {
  // run() hands anchor_count to the position solver; configurations that
  // could only throw *after* paying for the simulation are rejected at
  // construction instead.
  auto cfg = fast_network(2);  // fewer nodes than the 3 default anchors
  EXPECT_THROW(uwb::RangingNetwork(cfg, network_factory(cfg)),
               std::invalid_argument);
  auto cfg2 = fast_network(4);
  cfg2.anchor_count = 2;  // not enough anchors for the 2-D gauge
  EXPECT_THROW(uwb::RangingNetwork(cfg2, network_factory(cfg2)),
               std::invalid_argument);
}

TEST(RangingNetwork, PairEnumerationCoversTheUpperTriangle) {
  auto cfg = fast_network(5);
  uwb::RangingNetwork net(cfg, network_factory(cfg));
  ASSERT_EQ(net.pair_count(), 10);
  std::set<std::pair<int, int>> seen;
  for (int k = 0; k < net.pair_count(); ++k) {
    const auto [i, j] = net.pair_nodes(k);
    EXPECT_LT(i, j);
    EXPECT_GE(i, 0);
    EXPECT_LT(j, 5);
    seen.insert({i, j});
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RangingNetwork, NodeClocksAreDeterministicPerNodeId) {
  auto cfg = fast_network(6);
  cfg.ppm_spread = 20.0;
  uwb::RangingNetwork net1(cfg, network_factory(cfg));
  uwb::RangingNetwork net2(cfg, network_factory(cfg));
  ASSERT_EQ(net1.node_ppm().size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(net1.node_ppm()[i], net2.node_ppm()[i]);
    EXPECT_LE(std::abs(net1.node_ppm()[i]), 20.0);
  }
  // The draws actually spread (not all equal).
  EXPECT_NE(net1.node_ppm()[0], net1.node_ppm()[1]);
  // And move with the seed.
  auto cfg2 = cfg;
  cfg2.sys.seed = 12;
  uwb::RangingNetwork net3(cfg2, network_factory(cfg2));
  EXPECT_NE(net1.node_ppm()[0], net3.node_ppm()[0]);
}

TEST(RangingNetwork, BitIdenticalAcrossJobCounts) {
  auto cfg = fast_network(4);
  cfg.ppm_spread = 20.0;
  uwb::RangingNetwork net(cfg, network_factory(cfg));
  base::ParallelRunner serial(1), pool(8);
  const auto r1 = net.run(&serial);
  const auto r8 = net.run(&pool);
  ASSERT_EQ(r1.pairs.size(), r8.pairs.size());
  for (std::size_t k = 0; k < r1.pairs.size(); ++k) {
    EXPECT_EQ(r1.pairs[k].est_distance, r8.pairs[k].est_distance);
    EXPECT_EQ(r1.pairs[k].failures, r8.pairs[k].failures);
  }
  EXPECT_EQ(r1.position_rmse, r8.position_rmse);
}

TEST(RangingNetwork, MeasuresAndLocalizesASquareLayout) {
  auto cfg = fast_network(4);
  cfg.exchanges_per_pair = 2;
  // 7-9.9 m pairwise distances: inside the link budget's working range
  // (the 12.7 m diagonal of a 9 m square ranges marginally).
  cfg.positions = {{0.0, 0.0}, {7.0, 0.0}, {0.0, 7.0}, {7.0, 7.0}};
  uwb::RangingNetwork net(cfg, network_factory(cfg));
  const auto res = net.run();
  ASSERT_EQ(res.pairs.size(), 6u);
  EXPECT_EQ(res.failed_pairs, 0);
  for (const auto& m : res.pairs) {
    ASSERT_TRUE(m.ok());
    // The CM1 leading-edge latch is late, never early: per-pair errors sit
    // in [-1, +5] m depending on the realization (see docs/ranging.md).
    EXPECT_GT(m.est_distance, m.true_distance - 1.5);
    EXPECT_LT(m.est_distance, m.true_distance + 5.0);
  }
  // Nodes 0..2 anchor the gauge; node 3 must come back near (7, 7) after
  // the solver's common-bias estimate absorbs the shared latch delay.
  const auto& p3 = res.solved[3];
  EXPECT_NEAR(p3.x, 7.0, 2.0);
  EXPECT_NEAR(p3.y, 7.0, 2.0);
  EXPECT_LT(res.position_rmse, 2.0);
}

TEST(RangingNetwork, AllFailedPairsAreExplicitNotSentinel) {
  // Regression: est_distance used to carry a -1.0 "failed" sentinel that a
  // caller could silently feed to the solver as a negative distance. Links
  // far outside the budget (~100 m) make every exchange fail to acquire;
  // the run must finish, flag every pair via ok()/ok_exchanges, and leave
  // est_distance at its inert default instead of a magic value.
  auto cfg = fast_network(4);
  cfg.positions = {{0.0, 0.0}, {100.0, 0.0}, {0.0, 100.0}, {100.0, 100.0}};
  uwb::RangingNetwork net(cfg, network_factory(cfg));
  const auto res = net.run();
  ASSERT_EQ(res.pairs.size(), 6u);
  EXPECT_EQ(res.failed_pairs, 6);
  for (const auto& m : res.pairs) {
    EXPECT_FALSE(m.ok());
    EXPECT_EQ(m.ok_exchanges, 0);
    EXPECT_EQ(m.failures, m.exchanges);
    EXPECT_EQ(m.est_distance, 0.0);  // untouched default, not -1
  }
  // With zero usable observations the solver still returns a well-formed
  // layout (anchors pinned; the unknown stays at its trilateration-free
  // init) and the aggregate metrics stay finite.
  ASSERT_EQ(res.solved.size(), 4u);
  EXPECT_TRUE(std::isfinite(res.position_rmse));
  EXPECT_EQ(res.distance_rmse, 0.0);
}

// ------------------------------------------------------------ position solver

TEST(PositionSolver, RecoversExactGeometryFromExactDistances) {
  const std::vector<uwb::NodePosition> truth = {
      {0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 3}};
  std::vector<uwb::PairDistance> obs;
  for (int i = 0; i < 5; ++i)
    for (int j = i + 1; j < 5; ++j)
      obs.push_back({i, j,
                     std::hypot(truth[i].x - truth[j].x,
                                truth[i].y - truth[j].y)});
  // Unknowns start from a deliberately wrong init.
  auto init = truth;
  init[3] = {2.0, 2.0};
  init[4] = {8.0, 8.0};
  const auto solved = uwb::solve_positions_2d(init, 3, obs);
  for (int k = 3; k < 5; ++k) {
    EXPECT_NEAR(solved[k].x, truth[k].x, 1e-6);
    EXPECT_NEAR(solved[k].y, truth[k].y, 1e-6);
  }
}

// Solver outputs pinned at %.17g (bit-exact) from before the multistart
// stopped early for fully trilaterated networks. The collinear and
// two-anchor-link cases cannot be trilaterated, so all nine starts run; in
// the collinear one the centroid seed sits on the anchor line and only an
// off-line start reaches the (mirror) fix.
std::string solve_digest(const std::vector<uwb::NodePosition>& init,
                         int anchors,
                         const std::vector<uwb::PairDistance>& obs,
                         int sweeps, bool estimate_bias) {
  double bias = -1.0;
  const auto pos =
      uwb::solve_positions_2d(init, anchors, obs, sweeps, estimate_bias, &bias);
  char buf[64];
  std::snprintf(buf, sizeof buf, "bias %.17g", bias);
  std::string out = buf;
  for (std::size_t k = static_cast<std::size_t>(anchors); k < pos.size(); ++k) {
    std::snprintf(buf, sizeof buf, "; %.17g %.17g", pos[k].x, pos[k].y);
    out += buf;
  }
  return out;
}

TEST(PositionSolver, PinnedSingleTagResults) {
  EXPECT_EQ(solve_digest({{0, 0}, {10, 0}, {0, 8}, {3.3, 3.3}}, 3,
                         {{0, 3, 5.0}, {1, 3, 7.2}, {2, 3, 5.9}}, 24, false),
            "bias 0; 3.6651202088523465 3.3930309393239129");
  EXPECT_EQ(solve_digest({{0, 0}, {12, 0}, {0, 12}, {12, 12}, {6, -2},
                          {6, 4.4}},
                         5,
                         {{0, 5, 8.31}, {1, 5, 9.02}, {2, 5, 10.7},
                          {3, 5, 11.35}, {4, 5, 6.9}},
                         8, false),
            "bias 0; 5.4275965952079179 4.3353011265172574");
  // One wrong-slot outlier (+9.6 m) exercises the trimmed re-solve.
  EXPECT_EQ(solve_digest({{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 0}, {0, 5},
                          {10, 5}, {5, 10}, {4, 6}},
                         8,
                         {{0, 8, 7.24}, {1, 8, 8.43}, {2, 8, 5.68},
                          {3, 8, 7.17 + 9.6}, {4, 8, 6.05}, {5, 8, 4.15},
                          {6, 8, 6.11}, {7, 8, 4.09}},
                         24, false),
            "bias 0; 4.0250015574808042 5.997062645805241");
  // Common range bias from the anchor-anchor links.
  EXPECT_EQ(solve_digest({{0, 0}, {8, 0}, {0, 8}, {8, 8}, {2, 2}}, 4,
                         {{0, 1, 8.6}, {0, 2, 8.55}, {1, 2, 11.9}, {0, 4, 3.4},
                          {1, 4, 6.9}, {2, 4, 6.85}, {3, 4, 9.1}},
                         24, true),
            "bias 0.573552707830015; 1.9735397146573537 2.0132080411901851");
}

TEST(PositionSolver, PinnedMultistartResults) {
  EXPECT_EQ(solve_digest({{0, 0}, {5, 0}, {10, 0}, {5, 0}}, 3,
                         {{0, 3, 5.0}, {1, 3, 3.16}, {2, 3, 6.71}}, 24, false),
            "bias 0; 3.9992764458657959 -2.9989608615317271");
  EXPECT_EQ(solve_digest({{0, 0}, {10, 0}, {5, 8}, {1, 1}, {1, 1}}, 3,
                         {{0, 3, 4.3}, {1, 3, 6.5}, {2, 3, 5.1}, {0, 4, 7.2},
                          {1, 4, 4.4}, {3, 4, 4.1}},
                         24, false),
            "bias 0; 3.4722989941231637 2.7584026277764688; "
            "7.0288281728476534 2.9793773606696927");
}

TEST(PositionSolver, RejectsDegenerateGauge) {
  const std::vector<uwb::NodePosition> pts = {{0, 0}, {1, 0}, {2, 0}};
  EXPECT_THROW(uwb::solve_positions_2d(pts, 2, {}), std::invalid_argument);
  EXPECT_THROW(uwb::solve_positions_2d(pts, 4, {}), std::invalid_argument);
}

}  // namespace
