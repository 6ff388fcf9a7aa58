#include "util/perf_json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

namespace srm::util {
namespace {

class PerfJsonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process, in parallel: a file per test
    // and process keeps them from clobbering one another.
    path_ = ::testing::TempDir() + "perf_json_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".json";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write_file(const std::string& text) {
    std::ofstream out(path_, std::ios::trunc);
    out << text;
  }

  std::string path_;
};

TEST_F(PerfJsonTest, RoundTripsNumbersAndStrings) {
  PerfJson json(path_, "micro_kernel");
  json.set("ns_per_event", 231.5);
  json.set("host", "ci");
  ASSERT_TRUE(json.save());

  const auto sections = PerfJson::load(path_);
  ASSERT_EQ(sections.size(), 1u);
  const auto& metrics = sections.at("micro_kernel");
  EXPECT_EQ(metrics.at("ns_per_event"), "231.5");
  EXPECT_EQ(metrics.at("host"), "\"ci\"");
}

TEST_F(PerfJsonTest, SaveMergesWithOtherSections) {
  {
    PerfJson a(path_, "fig3_random_trees");
    a.set("wall_seconds", 1.25);
    a.set("threads", 4.0);
    ASSERT_TRUE(a.save());
  }
  {
    PerfJson b(path_, "micro_kernel");
    b.set("ns_per_event", 200.0);
    ASSERT_TRUE(b.save());
  }
  const auto sections = PerfJson::load(path_);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections.at("fig3_random_trees").at("wall_seconds"), "1.25");
  EXPECT_EQ(sections.at("fig3_random_trees").at("threads"), "4");
  EXPECT_EQ(sections.at("micro_kernel").at("ns_per_event"), "200");
}

TEST_F(PerfJsonTest, RewritingASectionReplacesOnlyThatSection) {
  {
    PerfJson a(path_, "fig3_random_trees");
    a.set("wall_seconds", 9.0);
    a.set("stale_key", 1.0);
    ASSERT_TRUE(a.save());
    PerfJson b(path_, "micro_kernel");
    b.set("ns_per_event", 300.0);
    ASSERT_TRUE(b.save());
  }
  PerfJson again(path_, "fig3_random_trees");
  again.set("wall_seconds", 2.0);
  ASSERT_TRUE(again.save());

  const auto sections = PerfJson::load(path_);
  EXPECT_EQ(sections.at("fig3_random_trees").at("wall_seconds"), "2");
  EXPECT_EQ(sections.at("fig3_random_trees").count("stale_key"), 0u);
  EXPECT_EQ(sections.at("micro_kernel").at("ns_per_event"), "300");
}

TEST_F(PerfJsonTest, MissingFileLoadsEmptyAndSavesFresh) {
  EXPECT_TRUE(PerfJson::load(path_).empty());
  PerfJson json(path_, "s");
  json.set("k", 1.0);
  EXPECT_TRUE(json.save());
  EXPECT_EQ(PerfJson::load(path_).at("s").at("k"), "1");
}

TEST_F(PerfJsonTest, CorruptFileIsTreatedAsEmpty) {
  write_file("{\"unterminated\": {");
  EXPECT_TRUE(PerfJson::load(path_).empty());
  // A save over a corrupt file starts fresh rather than failing.
  PerfJson json(path_, "s");
  json.set("k", 2.0);
  ASSERT_TRUE(json.save());
  EXPECT_EQ(PerfJson::load(path_).at("s").at("k"), "2");
}

TEST_F(PerfJsonTest, QuotesAndEscapesInKeys) {
  PerfJson json(path_, "sec\"tion");
  json.set("ke\\y", "va\"lue");
  ASSERT_TRUE(json.save());
  const auto sections = PerfJson::load(path_);
  ASSERT_EQ(sections.count("sec\"tion"), 1u);
  EXPECT_EQ(sections.at("sec\"tion").at("ke\\y"), "\"va\"lue\"");
}

}  // namespace
}  // namespace srm::util
