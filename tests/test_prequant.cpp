#include "core/prequant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/config.h"
#include "test_util.h"

namespace ceresz::core {
namespace {

TEST(Prequant, PaperExample) {
  // Section 3: eps = 0.1, value 0.83 -> round(0.83/0.2) = 4, error 0.03.
  const std::vector<f32> in = {0.83f};
  std::vector<i32> out(1);
  prequant(in, out, 0.2);
  EXPECT_EQ(out[0], 4);
  std::vector<f32> back(1);
  dequant(out, back, 0.2);
  EXPECT_NEAR(back[0], 0.8, 1e-6);
  EXPECT_LE(std::fabs(back[0] - in[0]), 0.1);
}

TEST(Prequant, RoundsToNearest) {
  const std::vector<f32> in = {0.0f, 0.99f, 1.01f, -0.99f, -1.01f, 2.5f};
  std::vector<i32> out(in.size());
  prequant(in, out, 2.0);  // eps = 1
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 0);   // 0.495 + 0.5 = 0.995 -> floor 0
  EXPECT_EQ(out[2], 1);   // 0.505 + 0.5 = 1.005 -> floor 1
  EXPECT_EQ(out[3], 0);   // -0.495 + 0.5 = 0.005 -> floor 0
  EXPECT_EQ(out[4], -1);  // -0.505 + 0.5 = -0.005 -> floor -1
  EXPECT_EQ(out[5], 1);   // 1.25 + 0.5 = 1.75 -> floor 1
}

TEST(Prequant, SubStagesComposeToFused) {
  const auto in = test::smooth_signal(256);
  const f64 eps = 1e-3;
  std::vector<f64> scratch(in.size());
  std::vector<i32> split(in.size()), fused(in.size());
  prequant_multiply(in, scratch, 1.0 / (2.0 * eps));
  prequant_add_floor(scratch, split);
  prequant(in, fused, 2.0 * eps);
  EXPECT_EQ(split, fused);
}

TEST(Prequant, ThrowsOnOverflow) {
  const std::vector<f32> in = {3.0e9f};
  std::vector<i32> out(1);
  EXPECT_THROW(prequant(in, out, 1e-3), Error);
}

/// The message of the Error `prequant` throws ("" if it does not throw).
template <class Prequant>
std::string prequant_error(Prequant&& quantize, std::vector<f32> in,
                           f64 two_eps) {
  std::vector<i32> out(in.size());
  try {
    quantize(std::span<const f32>(in), std::span<i32>(out), two_eps);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Prequant, NonFiniteInputIsNotBlamedOnTheErrorBound) {
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  const f32 inf = std::numeric_limits<f32>::infinity();
  const auto dispatched = [](auto in, auto out, f64 e) { prequant(in, out, e); };
  const auto reference = [](auto in, auto out, f64 e) {
    scalar::prequant(in, out, e);
  };
  const auto split = [](std::span<const f32> in, std::span<i32> out, f64 e) {
    std::vector<f64> scratch(in.size());
    prequant_multiply(in, scratch, 1.0 / e);
    prequant_add_floor(scratch, out);
  };
  for (f32 bad : {nan, inf, -inf}) {
    std::vector<f32> in(32, 1.0f);
    in[17] = bad;
    for (const std::string& what :
         {prequant_error(dispatched, in, 2e-3),
          prequant_error(reference, in, 2e-3),
          prequant_error(split, in, 2e-3)}) {
      EXPECT_NE(what.find("non-finite input value"), std::string::npos)
          << what;
      EXPECT_EQ(what.find("error bound"), std::string::npos) << what;
    }
  }
  // A finite value too large for ε keeps the error-bound message, even
  // when it is the only bad value of the block.
  std::vector<f32> big(32, 1.0f);
  big[3] = 3.0e9f;
  for (const std::string& what : {prequant_error(dispatched, big, 2e-3),
                                  prequant_error(reference, big, 2e-3),
                                  prequant_error(split, big, 2e-3)}) {
    EXPECT_NE(what.find("the error bound is too small"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("non-finite"), std::string::npos) << what;
  }
}

TEST(Prequant, OutOfRangeInputIsTheCallersError) {
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  for (f32 bad : {nan, 3.0e9f}) {
    std::vector<f32> in(32, 1.0f);
    in[5] = bad;
    std::vector<i32> out(in.size());
    EXPECT_EQ(test::error_kind([&] { prequant(in, out, 2e-3); }),
              ErrorKind::kInvalidArgument);
    EXPECT_EQ(test::error_kind([&] { scalar::prequant(in, out, 2e-3); }),
              ErrorKind::kInvalidArgument);
  }
}

TEST(ErrorBound, ResolveRejectsANonFiniteValueRange) {
  const f64 nan = std::numeric_limits<f64>::quiet_NaN();
  const f64 inf = std::numeric_limits<f64>::infinity();
  const ErrorBound rel = ErrorBound::relative(1e-3);
  // A NaN range (first element NaN) used to resolve silently to ε = λ.
  EXPECT_EQ(test::error_kind([&] { (void)rel.resolve(nan); }),
            ErrorKind::kInvalidArgument);
  EXPECT_EQ(test::error_kind([&] { (void)rel.resolve(inf); }),
            ErrorKind::kInvalidArgument);
  // A constant field still resolves to λ; an ABS bound ignores the range.
  EXPECT_EQ(rel.resolve(0.0), 1e-3);
  EXPECT_EQ(rel.resolve(4.0), 4e-3);
  EXPECT_EQ(ErrorBound::absolute(0.5).resolve(nan), 0.5);
}

TEST(ErrorBound, ResolveRejectsABoundThatIsNotFiniteAndPositive) {
  const f64 nan = std::numeric_limits<f64>::quiet_NaN();
  const f64 inf = std::numeric_limits<f64>::infinity();
  for (f64 value : {nan, inf, 0.0, -1e-3}) {
    for (const ErrorBound bound :
         {ErrorBound::absolute(value), ErrorBound::relative(value)}) {
      EXPECT_EQ(test::error_kind([&] { (void)bound.resolve(1.0); }),
                ErrorKind::kInvalidArgument)
          << value;
    }
  }
}

TEST(Prequant, ThrowsOnNonPositiveBound) {
  const std::vector<f32> in = {1.0f};
  std::vector<i32> out(1);
  EXPECT_THROW(prequant(in, out, 0.0), Error);
  EXPECT_THROW(prequant(in, out, -1.0), Error);
}

TEST(Prequant, SizeMismatchThrows) {
  const std::vector<f32> in = {1.0f, 2.0f};
  std::vector<i32> out(1);
  EXPECT_THROW(prequant(in, out, 0.1), Error);
}

// Property: for every element, |dequant(prequant(x)) - x| <= eps.
class PrequantBoundProperty : public ::testing::TestWithParam<f64> {};

TEST_P(PrequantBoundProperty, ErrorWithinBound) {
  const f64 eps = GetParam();
  for (u64 seed : {1ull, 2ull, 3ull}) {
    const auto in = test::random_signal(1024, seed, -50.0, 50.0);
    std::vector<i32> q(in.size());
    std::vector<f32> back(in.size());
    prequant(in, q, 2.0 * eps);
    dequant(q, back, 2.0 * eps);
    // The bound is exact up to the f32 output representation (half an ulp
    // at the data's magnitude) — the same caveat every f32 codec carries.
    EXPECT_LE(test::max_err(in, back), eps + test::f32_ulp_slack(in))
        << "eps=" << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PrequantBoundProperty,
                         ::testing::Values(1e-1, 1e-2, 1e-3, 1e-4, 0.5, 2.0));

}  // namespace
}  // namespace ceresz::core
