// Governor: cooldown windows per decision class.
#include "adaptive/governor.hpp"

#include <gtest/gtest.h>

namespace cool::adaptive {
namespace {

TEST(Governor, CooldownFreezesTheClass) {
  Governor g(4);
  EXPECT_TRUE(g.admit("k", 1));
  for (std::uint64_t e = 2; e <= 5; ++e) {
    EXPECT_FALSE(g.admit("k", e)) << "epoch " << e;
  }
  EXPECT_TRUE(g.admit("k", 6));
}

TEST(Governor, NoClassFlipFlopsWithinItsCooldown) {
  // The hysteresis pin: however often a rule fires, two admissions of one
  // decision class are always at least cooldown+1 epochs apart. The rule
  // fires twice per epoch, so with no cooldown this says a class acts at
  // most once per epoch.
  for (const std::uint32_t cooldown : {0u, 3u}) {
    Governor g(cooldown);
    std::vector<std::uint64_t> admitted;
    for (std::uint64_t e = 1; e <= 40; ++e) {
      for (int k = 0; k < 2; ++k) {
        if (g.admit("policy:steal_object_tasks", e)) admitted.push_back(e);
      }
    }
    ASSERT_GE(admitted.size(), 2u);
    for (std::size_t i = 1; i < admitted.size(); ++i) {
      EXPECT_GE(admitted[i] - admitted[i - 1], g.cooldown_epochs() + 1)
          << "cooldown " << cooldown;
    }
  }
}

TEST(Governor, ClassesAreIndependent) {
  Governor g(10);
  EXPECT_TRUE(g.admit("a", 1));
  EXPECT_TRUE(g.admit("b", 1));  // a's cooldown does not freeze b
  EXPECT_FALSE(g.admit("a", 2));
}

TEST(BalancerGovernor, DwellSeparatesSwitchesAcrossClasses) {
  // Unlike the plain governor, the dwell applies across classes: switching
  // to average and straight back to stealing is exactly the thrash it stops.
  BalancerGovernor g(0, /*dwell=*/5);
  EXPECT_TRUE(g.admit("balancer:average", 1));
  EXPECT_FALSE(g.admit("balancer:stealing", 2));  // inside the dwell window
  EXPECT_FALSE(g.admit("balancer:stealing", 4));
  EXPECT_TRUE(g.admit("balancer:stealing", 6));
  EXPECT_EQ(g.switches(), 2u);
}

TEST(BalancerGovernor, LifetimeCapStopsThrash) {
  BalancerGovernor g(0, /*dwell=*/0);
  const char* keys[] = {"balancer:average", "balancer:stealing"};
  for (std::uint32_t i = 0; i < BalancerGovernor::kMaxSwitches; ++i) {
    EXPECT_TRUE(g.admit(keys[i % 2], i + 1)) << "switch " << i;
  }
  EXPECT_FALSE(g.admit("balancer:average", 10));
  EXPECT_FALSE(g.admit("balancer:stealing", 50));
  EXPECT_EQ(g.switches(), BalancerGovernor::kMaxSwitches);
}

TEST(BalancerGovernor, BaseCooldownStillApplies) {
  BalancerGovernor g(3, /*dwell=*/0);
  EXPECT_TRUE(g.admit("balancer:average", 2));
  EXPECT_FALSE(g.admit("balancer:average", 4));  // cooldown
  EXPECT_FALSE(g.admit("balancer:average", 5));
  EXPECT_TRUE(g.admit("balancer:average", 6));
}

}  // namespace
}  // namespace cool::adaptive
