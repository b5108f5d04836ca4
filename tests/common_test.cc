// Coverage for the common runtime layer: Status/Result, Random, hashing,
// logging, and TempDir.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/temp_dir.h"

namespace tcob {
namespace {

TEST(StatusTest, OkIsDefaultAndCheap) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
    const char* name;
  };
  const Case cases[] = {
      {Status::InvalidArgument("a"), StatusCode::kInvalidArgument,
       "InvalidArgument"},
      {Status::NotFound("b"), StatusCode::kNotFound, "NotFound"},
      {Status::AlreadyExists("c"), StatusCode::kAlreadyExists,
       "AlreadyExists"},
      {Status::Corruption("d"), StatusCode::kCorruption, "Corruption"},
      {Status::IOError("e"), StatusCode::kIOError, "IOError"},
      {Status::NotSupported("f"), StatusCode::kNotSupported, "NotSupported"},
      {Status::OutOfRange("g"), StatusCode::kOutOfRange, "OutOfRange"},
      {Status::Internal("h"), StatusCode::kInternal, "Internal"},
      {Status::ResourceExhausted("i"), StatusCode::kResourceExhausted,
       "ResourceExhausted"},
      {Status::ParseError("j"), StatusCode::kParseError, "ParseError"},
      {Status::TypeError("k"), StatusCode::kTypeError, "TypeError"},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(c.status.ToString(),
              std::string(c.name) + ": " + c.status.message());
    EXPECT_STREQ(StatusCodeToString(c.code), c.name);
  }
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::NotFound("inner"); };
  auto outer = [&]() -> Status {
    TCOB_RETURN_NOT_OK(fails());
    return Status::Internal("unreachable");
  };
  EXPECT_TRUE(outer().IsNotFound());
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.ValueOr(-1), 42);

  Result<int> err(Status::NotFound("missing"));
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsNotFound());
  EXPECT_EQ(err.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool fail) -> Result<std::string> {
    if (fail) return Status::IOError("nope");
    return std::string("data");
  };
  auto consume = [&](bool fail) -> Result<size_t> {
    TCOB_ASSIGN_OR_RETURN(std::string s, produce(fail));
    return s.size();
  };
  EXPECT_EQ(consume(false).value(), 4u);
  EXPECT_TRUE(consume(true).status().IsIOError());
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 7);
}

TEST(RandomTest, DeterministicPerSeed) {
  Random a(123), b(123), c(456);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c.Next();
  }
  Random a2(123), c2(456);
  EXPECT_NE(a2.Next(), c2.Next());
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_GT(hits, 2500);
  EXPECT_LT(hits, 3500);
}

TEST(RandomTest, NextStringAlphabetAndLength) {
  Random rng(11);
  std::string s = rng.NextString(64);
  EXPECT_EQ(s.size(), 64u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(HashTest, StableAndSensitive) {
  EXPECT_EQ(Fnv1a64("abc", 3), Fnv1a64("abc", 3));
  EXPECT_NE(Fnv1a64("abc", 3), Fnv1a64("abd", 3));
  EXPECT_NE(Fnv1a64("abc", 3), Fnv1a64("abc", 2));
  EXPECT_NE(Checksum32("payload", 7), Checksum32("paykoad", 7));
  // Distribution sanity: few collisions over many short keys.
  std::set<uint32_t> seen;
  for (int i = 0; i < 10000; ++i) {
    std::string key = "key-" + std::to_string(i);
    seen.insert(Checksum32(key.data(), key.size()));
  }
  EXPECT_GT(seen.size(), 9990u);
}

TEST(Crc32cTest, KnownAnswers) {
  // RFC 3720 appendix B.4, plus the common "123456789" check value.
  std::string zeros(32, '\x00');
  std::string ones(32, '\xff');
  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  struct Case {
    std::string input;
    uint32_t crc;
  };
  const Case cases[] = {{zeros, 0x8A9136AAu},
                        {ones, 0x62A8AB43u},
                        {ascending, 0x46DD794Eu},
                        {"123456789", 0xE3069283u}};
  for (const Case& c : cases) {
    EXPECT_EQ(Crc32c(c.input.data(), c.input.size()), c.crc);
    EXPECT_EQ(Crc32cSoftware(c.input.data(), c.input.size()), c.crc);
    if (Crc32cHardwareAvailable()) {
      EXPECT_EQ(Crc32cHardware(c.input.data(), c.input.size()), c.crc);
    }
  }
  // The seed chains: a CRC over two parts equals the CRC of the whole.
  EXPECT_EQ(Crc32c("6789", 4, Crc32c("12345", 5)), 0xE3069283u);
}

TEST(Crc32cTest, HardwareMatchesTableAtEveryLengthAndAlignment) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  Random rng(3720);
  std::string buf(4200 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4200; ++len) {
      const char* p = buf.data() + offset;
      const uint32_t seed = static_cast<uint32_t>(len * 2654435761u);
      ASSERT_EQ(Crc32cHardware(p, len), Crc32cSoftware(p, len))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(Crc32cHardware(p, len, seed), Crc32cSoftware(p, len, seed))
          << "offset " << offset << " length " << len << " seeded";
    }
  }
}

TEST(LoggingTest, LevelFilterRoundTrip) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Filtered-out message: must be a no-op (nothing observable to assert
  // beyond "does not crash").
  TCOB_LOG(kDebug) << "dropped " << 42;
  SetLogLevel(before);
}

TEST(TempDirTest, CreatesAndCleansUp) {
  std::string path;
  {
    TempDir dir;
    path = dir.path();
    ASSERT_FALSE(path.empty());
    struct stat st;
    ASSERT_EQ(stat(path.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    // Populate with nested content to exercise recursive removal.
    ASSERT_EQ(mkdir((path + "/sub").c_str(), 0755), 0);
    FILE* f = fopen((path + "/sub/file").c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("x", f);
    fclose(f);
  }
  struct stat st;
  EXPECT_NE(stat(path.c_str(), &st), 0);  // gone
}

TEST(TempDirTest, DistinctDirectories) {
  TempDir a, b;
  EXPECT_NE(a.path(), b.path());
}

}  // namespace
}  // namespace tcob
