// Regression-gate engine tests (obs/regress, the core of `geomap-obsctl
// diff/check`): dotted-key flattening, glob matching, and the comparison
// semantics the CI bench-regress job relies on — a >10% watched increase
// fails, improvements and unwatched drift never do, and a watched key
// that vanishes from the current artifact fails loudly.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/json_reader.h"
#include "obs/regress.h"

namespace geomap {
namespace {

TEST(Glob, LiteralAndWildcardMatching) {
  EXPECT_TRUE(obs::glob_match("abc", "abc"));
  EXPECT_FALSE(obs::glob_match("abc", "abd"));
  EXPECT_FALSE(obs::glob_match("abc", "abcd"));
  EXPECT_TRUE(obs::glob_match("*", ""));
  EXPECT_TRUE(obs::glob_match("*", "anything.at.all"));
  // `*` crosses dots: one pattern covers a whole subtree of keys.
  EXPECT_TRUE(obs::glob_match("runs.*.analysis.makespan_seconds",
                              "runs.0.analysis.makespan_seconds"));
  EXPECT_TRUE(obs::glob_match("runs.*.analysis.components.*",
                              "runs.2.analysis.components.alpha_seconds"));
  EXPECT_FALSE(obs::glob_match("runs.*.analysis.makespan_seconds",
                               "runs.0.analysis.path_seconds"));
  // `?` is exactly one byte.
  EXPECT_TRUE(obs::glob_match("run?", "runs"));
  EXPECT_FALSE(obs::glob_match("run?", "run"));
  EXPECT_FALSE(obs::glob_match("run?", "runss"));
  // Multiple stars require backtracking.
  EXPECT_TRUE(obs::glob_match("a*b*c", "a.x.b.y.b.z.c"));
  EXPECT_FALSE(obs::glob_match("a*b*c", "a.x.c"));
  EXPECT_TRUE(obs::glob_match("*seconds", "total.alpha_seconds"));
}

TEST(Flatten, NumericLeavesGetDottedSortedKeys) {
  const JsonValue doc = parse_json(R"({
    "meta": {"seed": 7, "bench": "x"},
    "b": {"inner": 2.5, "skipped": "string", "flag": true},
    "a": [1.0, {"deep": 4.0}],
    "z": null
  })");
  const std::vector<std::pair<std::string, double>> leaves =
      obs::flatten_numeric(doc);
  ASSERT_EQ(leaves.size(), 3u);  // meta skipped; strings/bools/null too
  EXPECT_EQ(leaves[0].first, "a.0");
  EXPECT_DOUBLE_EQ(leaves[0].second, 1.0);
  EXPECT_EQ(leaves[1].first, "a.1.deep");
  EXPECT_DOUBLE_EQ(leaves[1].second, 4.0);
  EXPECT_EQ(leaves[2].first, "b.inner");
  EXPECT_DOUBLE_EQ(leaves[2].second, 2.5);

  // Asked to keep meta, its numeric leaves appear too.
  const std::vector<std::pair<std::string, double>> with_meta =
      obs::flatten_numeric(doc, /*skip_meta=*/false);
  ASSERT_EQ(with_meta.size(), 4u);
  EXPECT_EQ(with_meta[3].first, "meta.seed");
}

JsonValue critpath_like(double makespan, double alpha) {
  std::string text = R"({
    "meta": {"timestamp": "2026-01-01T00:00:00Z"},
    "runs": [{
      "run": 0,
      "analysis": {
        "makespan_seconds": )" + std::to_string(makespan) + R"(,
        "components": {"alpha_seconds": )" + std::to_string(alpha) + R"(},
        "unwatched_extra": 1.0
      }
    }]
  })";
  return parse_json(text);
}

obs::RegressOptions watch_makespan() {
  obs::RegressOptions options;
  options.watch = {"runs.*.analysis.makespan_seconds",
                   "runs.*.analysis.components.*"};
  return options;
}

TEST(Regress, TwentyPercentSlowdownFailsDefaultThreshold) {
  const JsonValue baseline = critpath_like(10.0, 2.0);
  const JsonValue current = critpath_like(12.0, 2.0);  // +20%
  const obs::RegressReport report =
      obs::compare_artifacts(baseline, current, watch_makespan());
  EXPECT_TRUE(report.failed);
  bool found = false;
  for (const obs::RegressRow& row : report.rows) {
    if (row.key == "runs.0.analysis.makespan_seconds") {
      found = true;
      EXPECT_TRUE(row.watched);
      EXPECT_TRUE(row.regressed);
      EXPECT_DOUBLE_EQ(row.delta, 2.0);
      EXPECT_NEAR(row.delta_pct, 20.0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Regress, SmallDriftAndImprovementsPass) {
  const JsonValue baseline = critpath_like(10.0, 2.0);
  // +5% makespan, improved alpha: both under the 10% gate.
  const obs::RegressReport drift = obs::compare_artifacts(
      baseline, critpath_like(10.5, 1.5), watch_makespan());
  EXPECT_FALSE(drift.failed);
  // A large *improvement* never fails — lower is better repo-wide.
  const obs::RegressReport better = obs::compare_artifacts(
      baseline, critpath_like(5.0, 0.5), watch_makespan());
  EXPECT_FALSE(better.failed);
  for (const obs::RegressRow& row : better.rows) {
    EXPECT_FALSE(row.regressed);
  }
}

TEST(Regress, UnwatchedLeavesCannotFailTheGate) {
  JsonValue baseline = parse_json(
      R"({"runs": [{"analysis": {"makespan_seconds": 10.0,
          "unrelated": 1.0}}]})");
  JsonValue current = parse_json(
      R"({"runs": [{"analysis": {"makespan_seconds": 10.0,
          "unrelated": 100.0}}]})");
  const obs::RegressReport report =
      obs::compare_artifacts(baseline, current, watch_makespan());
  EXPECT_FALSE(report.failed);
  bool saw_unrelated = false;
  for (const obs::RegressRow& row : report.rows) {
    if (row.key == "runs.0.analysis.unrelated") {
      saw_unrelated = true;  // still reported for context
      EXPECT_FALSE(row.watched);
      EXPECT_FALSE(row.regressed);
    }
  }
  EXPECT_TRUE(saw_unrelated);
}

TEST(Regress, EmptyWatchListWatchesEveryLeaf) {
  const JsonValue baseline = parse_json(R"({"anything": {"x": 1.0}})");
  const JsonValue current = parse_json(R"({"anything": {"x": 2.0}})");
  obs::RegressOptions options;  // watch empty
  const obs::RegressReport report =
      obs::compare_artifacts(baseline, current, options);
  EXPECT_TRUE(report.failed);
}

TEST(Regress, WatchedKeyMissingFromCurrentFails) {
  const JsonValue baseline = critpath_like(10.0, 2.0);
  const JsonValue current = parse_json(R"({"runs": []})");
  const obs::RegressReport report =
      obs::compare_artifacts(baseline, current, watch_makespan());
  EXPECT_TRUE(report.failed);
  EXPECT_FALSE(report.missing.empty());
}

TEST(Regress, UnwatchedMissingAndAddedKeysAreReportedNotFatal) {
  const JsonValue baseline = parse_json(R"({"gone": 1.0, "same": 2.0})");
  const JsonValue current = parse_json(R"({"same": 2.0, "fresh": 3.0})");
  obs::RegressOptions options;
  options.watch = {"same"};  // neither gone nor fresh is watched
  const obs::RegressReport report =
      obs::compare_artifacts(baseline, current, options);
  EXPECT_FALSE(report.failed);
  ASSERT_EQ(report.missing.size(), 1u);
  EXPECT_EQ(report.missing[0], "gone");
  ASSERT_EQ(report.added.size(), 1u);
  EXPECT_EQ(report.added[0], "fresh");
}

TEST(Regress, NearZeroBaselinesCompareAbsolutelyAgainstFloor) {
  // A zero baseline has no meaningful relative delta: the floor decides.
  const JsonValue baseline = parse_json(R"({"stall": 0.0})");
  obs::RegressOptions options;  // floor 1e-9, everything watched
  {
    const obs::RegressReport report = obs::compare_artifacts(
        baseline, parse_json(R"({"stall": 5e-10})"), options);
    EXPECT_FALSE(report.failed);  // below the floor: noise
  }
  {
    const obs::RegressReport report = obs::compare_artifacts(
        baseline, parse_json(R"({"stall": 2e-9})"), options);
    EXPECT_TRUE(report.failed);  // a real appearance of stall time
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(report.rows[0].delta_pct, 0.0);  // not relative
  }
}

TEST(Regress, HigherIsBetterPatternsFailOnDecrease) {
  const JsonValue baseline =
      parse_json(R"({"detection": {"precision": 1.0, "recall": 1.0}})");
  obs::RegressOptions options;
  options.watch = {"-detection.*"};
  // A 20% drop in a '-'-watched quality score fails the default 10% gate.
  {
    const obs::RegressReport report = obs::compare_artifacts(
        baseline,
        parse_json(R"({"detection": {"precision": 0.8, "recall": 1.0}})"),
        options);
    EXPECT_TRUE(report.failed);
    bool found = false;
    for (const obs::RegressRow& row : report.rows) {
      if (row.key == "detection.precision") {
        found = true;
        EXPECT_TRUE(row.watched);
        EXPECT_TRUE(row.regressed);
      }
      if (row.key == "detection.recall") {
        EXPECT_FALSE(row.regressed);
      }
    }
    EXPECT_TRUE(found);
  }
  // An increase in a higher-is-better leaf never fails.
  {
    const JsonValue low =
        parse_json(R"({"detection": {"precision": 0.5, "recall": 0.5}})");
    EXPECT_FALSE(obs::compare_artifacts(low, baseline, options).failed);
  }
  // Small drops inside the threshold pass.
  {
    const obs::RegressReport report = obs::compare_artifacts(
        baseline,
        parse_json(R"({"detection": {"precision": 0.95, "recall": 0.95}})"),
        options);
    EXPECT_FALSE(report.failed);
  }
}

TEST(Regress, MixedDirectionWatchListsKeepBothSemantics) {
  const JsonValue baseline =
      parse_json(R"({"makespan": 10.0, "recall": 1.0})");
  obs::RegressOptions options;
  options.watch = {"makespan", "-recall"};
  // Makespan up + recall down: both fail, each in its own direction.
  const obs::RegressReport both = obs::compare_artifacts(
      baseline, parse_json(R"({"makespan": 12.0, "recall": 0.8})"), options);
  EXPECT_TRUE(both.failed);
  int regressed = 0;
  for (const obs::RegressRow& row : both.rows) regressed += row.regressed;
  EXPECT_EQ(regressed, 2);
  // Makespan down + recall up: both improvements, nothing fails.
  const obs::RegressReport better = obs::compare_artifacts(
      parse_json(R"({"makespan": 10.0, "recall": 0.8})"),
      parse_json(R"({"makespan": 8.0, "recall": 1.0})"), options);
  EXPECT_FALSE(better.failed);
}

TEST(Regress, HigherIsBetterWatchedMissingStillFails) {
  const JsonValue baseline = parse_json(R"({"recall": 1.0})");
  const JsonValue current = parse_json(R"({"other": 1.0})");
  obs::RegressOptions options;
  options.watch = {"-recall"};
  EXPECT_TRUE(obs::compare_artifacts(baseline, current, options).failed);
}

TEST(Regress, ThresholdIsConfigurable) {
  const JsonValue baseline = critpath_like(10.0, 2.0);
  const JsonValue current = critpath_like(12.0, 2.0);  // +20%
  obs::RegressOptions options = watch_makespan();
  options.threshold = 0.25;  // loosened past the slowdown
  EXPECT_FALSE(obs::compare_artifacts(baseline, current, options).failed);
  options.threshold = 0.15;
  EXPECT_TRUE(obs::compare_artifacts(baseline, current, options).failed);
}

}  // namespace
}  // namespace geomap
