#include "ecc/code_search.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/parallel.hpp"

namespace aropuf {
namespace {

class CodeSearchTest : public ::testing::Test {
 protected:
  TechnologyParams tech_ = TechnologyParams::cmos90();
  CodeSearchConstraints constraints_;
};

TEST_F(CodeSearchTest, FindsSchemeAtLowBer) {
  const auto result = find_min_area_scheme(tech_, 0.02, constraints_);
  ASSERT_TRUE(result.has_value());
  EXPECT_LE(result->key_failure, constraints_.target_key_failure);
  EXPECT_GE(result->scheme.bch_k() * result->scheme.blocks(),
            static_cast<std::size_t>(constraints_.key_bits));
}

TEST_F(CodeSearchTest, ZeroBerPrefersLightestScheme) {
  const auto result = find_min_area_scheme(tech_, 0.0, constraints_);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->scheme.repetition, 1);
  EXPECT_DOUBLE_EQ(result->key_failure, 0.0);
}

TEST_F(CodeSearchTest, AreaGrowsWithBer) {
  double prev_area = 0.0;
  for (const double ber : {0.01, 0.05, 0.10, 0.20, 0.30, 0.40}) {
    const auto result = find_min_area_scheme(tech_, ber, constraints_);
    ASSERT_TRUE(result.has_value()) << "ber " << ber;
    EXPECT_GE(result->area.total_ge(), prev_area) << "ber " << ber;
    prev_area = result->area.total_ge();
  }
}

TEST_F(CodeSearchTest, PaperRegimeRatioIsLarge) {
  // Conventional provisioning BER ~0.40 vs ARO ~0.12: order-of-magnitude+
  // area gap (the paper's ~24x lives here).
  const auto conv = find_min_area_scheme(tech_, 0.40, constraints_);
  const auto aro = find_min_area_scheme(tech_, 0.12, constraints_);
  ASSERT_TRUE(conv.has_value());
  ASSERT_TRUE(aro.has_value());
  const double ratio = conv->area.total_ge() / aro->area.total_ge();
  EXPECT_GT(ratio, 10.0);
  EXPECT_LT(ratio, 60.0);
}

TEST_F(CodeSearchTest, HighBerNeedsHeavyRepetition) {
  const auto result = find_min_area_scheme(tech_, 0.35, constraints_);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->scheme.repetition, 15);
}

TEST_F(CodeSearchTest, ResultMeetsTargetExactlyByConstruction) {
  for (const double ber : {0.05, 0.15, 0.25}) {
    const auto result = find_min_area_scheme(tech_, ber, constraints_);
    ASSERT_TRUE(result.has_value());
    EXPECT_LE(result->key_failure, constraints_.target_key_failure);
    // Consistency: recomputing the failure from the scheme matches.
    EXPECT_NEAR(result->scheme.key_failure_probability(ber), result->key_failure, 1e-15);
  }
}

TEST_F(CodeSearchTest, TighterTargetCostsMoreArea) {
  CodeSearchConstraints loose = constraints_;
  loose.target_key_failure = 1e-3;
  CodeSearchConstraints tight = constraints_;
  tight.target_key_failure = 1e-9;
  const auto loose_result = find_min_area_scheme(tech_, 0.10, loose);
  const auto tight_result = find_min_area_scheme(tech_, 0.10, tight);
  ASSERT_TRUE(loose_result.has_value());
  ASSERT_TRUE(tight_result.has_value());
  EXPECT_LE(loose_result->area.total_ge(), tight_result->area.total_ge());
}

TEST_F(CodeSearchTest, LongerKeyCostsMoreArea) {
  CodeSearchConstraints short_key = constraints_;
  short_key.key_bits = 64;
  CodeSearchConstraints long_key = constraints_;
  long_key.key_bits = 256;
  const auto s = find_min_area_scheme(tech_, 0.08, short_key);
  const auto l = find_min_area_scheme(tech_, 0.08, long_key);
  ASSERT_TRUE(s.has_value());
  ASSERT_TRUE(l.has_value());
  EXPECT_LT(s->area.total_ge(), l->area.total_ge());
}

TEST_F(CodeSearchTest, ReturnsNulloptWhenImpossible) {
  CodeSearchConstraints cramped = constraints_;
  cramped.repetition_options = {1};
  cramped.bch_m_options = {7};
  cramped.max_bch_t = 2;
  EXPECT_FALSE(find_min_area_scheme(tech_, 0.30, cramped).has_value());
}

TEST_F(CodeSearchTest, GoldenSchemesAreBitIdenticalAtAnyThreadCount) {
  // The E7/E10 regime, pinned as hex-float literals: the dimension lookup
  // and the search must reproduce these schemes to the last bit.
  struct Golden {
    double ber;
    int r, m, t;
    std::size_t raw_bits;
    double area_ge, key_failure;
  };
  const Golden golden[] = {
      {0x1.70a3d70a3d70ap-2, 61, 8, 15, 15555, 0x1.52ed4p+19, 0x1.b879830d6ab6cp-23},  // 0.36
      {0x1.999999999999ap-3, 9, 8, 18, 2295, 0x1.b6a3p+16, 0x1.f91ca65ee9c06p-21},     // 0.20
      {0x1.c28f5c28f5c29p-4, 5, 7, 10, 1270, 0x1.e2ffp+15, 0x1.fd3b6e335f771p-22},     // 0.11
      {0x1.47ae147ae147bp-4, 3, 8, 18, 765, 0x1.5f28p+15, 0x1.50c3040f4e9b6p-22},      // 0.08
  };
  for (const int threads : {1, 2, 8}) {
    ParallelExecutor::set_global_thread_count(threads);
    for (const Golden& g : golden) {
      SCOPED_TRACE(::testing::Message() << "ber " << g.ber << " threads " << threads);
      const auto result = find_min_area_scheme(tech_, g.ber, constraints_);
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(result->scheme.repetition, g.r);
      EXPECT_EQ(result->scheme.bch_m, g.m);
      EXPECT_EQ(result->scheme.bch_t, g.t);
      EXPECT_EQ(result->scheme.raw_bits(), g.raw_bits);
      EXPECT_EQ(result->area.total_ge(), g.area_ge);
      EXPECT_EQ(result->key_failure, g.key_failure);
    }
  }
  ParallelExecutor::set_global_thread_count(0);
}

TEST_F(CodeSearchTest, RejectsBadInputs) {
  EXPECT_THROW((void)find_min_area_scheme(tech_, 0.5, constraints_), std::invalid_argument);
  EXPECT_THROW((void)find_min_area_scheme(tech_, -0.1, constraints_), std::invalid_argument);
  CodeSearchConstraints bad = constraints_;
  bad.target_key_failure = 0.0;
  EXPECT_THROW((void)find_min_area_scheme(tech_, 0.1, bad), std::invalid_argument);
  bad = constraints_;
  bad.repetition_options = {2};
  EXPECT_THROW((void)find_min_area_scheme(tech_, 0.1, bad), std::invalid_argument);
}

}  // namespace
}  // namespace aropuf
