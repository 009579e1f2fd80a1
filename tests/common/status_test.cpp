#include "common/status.h"

#include <gtest/gtest.h>

namespace pe {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  const Status s = Status::NotFound("thing missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "thing missing");
  EXPECT_EQ(s.to_string(), "NOT_FOUND: thing missing");
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::Timeout("a"), Status::Timeout("b"));
  EXPECT_FALSE(Status::Timeout("a") == Status::NotFound("a"));
}

struct CodeNameCase {
  StatusCode code;
  std::string_view name;
};

// Names each case by its expected string; the default printer dumps the
// struct's raw bytes (string_view pointer and padding), which renamed the
// test on every relink.
void PrintTo(const CodeNameCase& c, std::ostream* os) { *os << c.name; }

class StatusCodeNameTest : public ::testing::TestWithParam<CodeNameCase> {};

TEST_P(StatusCodeNameTest, ToStringMatches) {
  EXPECT_EQ(to_string(GetParam().code), GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, StatusCodeNameTest,
    ::testing::Values(
        CodeNameCase{StatusCode::kOk, "OK"},
        CodeNameCase{StatusCode::kInvalidArgument, "INVALID_ARGUMENT"},
        CodeNameCase{StatusCode::kNotFound, "NOT_FOUND"},
        CodeNameCase{StatusCode::kAlreadyExists, "ALREADY_EXISTS"},
        CodeNameCase{StatusCode::kResourceExhausted, "RESOURCE_EXHAUSTED"},
        CodeNameCase{StatusCode::kFailedPrecondition, "FAILED_PRECONDITION"},
        CodeNameCase{StatusCode::kUnavailable, "UNAVAILABLE"},
        CodeNameCase{StatusCode::kTimeout, "TIMEOUT"},
        CodeNameCase{StatusCode::kCancelled, "CANCELLED"},
        CodeNameCase{StatusCode::kOutOfRange, "OUT_OF_RANGE"},
        CodeNameCase{StatusCode::kInternal, "INTERNAL"}));

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Unavailable("down"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r.value_or("fallback"), "hello");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, MutableValueAccess) {
  Result<int> r(1);
  r.value() = 7;
  EXPECT_EQ(r.value(), 7);
}

}  // namespace
}  // namespace pe
