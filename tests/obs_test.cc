#include "obs/telemetry.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/fast_gconv.h"
#include "test_support.h"
#include "utils/parallel.h"
#include "utils/rng.h"

namespace sagdfn::obs {
namespace {

/// Saves and restores the global collection flag so tests compose.
class CollectionScope {
 public:
  explicit CollectionScope(bool on)
      : previous_(Telemetry::CollectionEnabled()) {
    Telemetry::SetCollectionEnabled(on);
  }
  ~CollectionScope() { Telemetry::SetCollectionEnabled(previous_); }

 private:
  bool previous_;
};

using test_support::TempPath;

TEST(EventTest, SerializesOrderedFields) {
  Event e("unit.test");
  e.Str("model", "SAGDFN").Int("epoch", 3).Double("loss", 0.5).Bool(
      "ok", true);
  const std::string json = e.ToJson();
  // ts is first and numeric; the rest follow in insertion order.
  EXPECT_EQ(json.find("{\"ts\":"), 0u);
  EXPECT_NE(json.find("\"event\":\"unit.test\""), std::string::npos);
  EXPECT_NE(json.find("\"model\":\"SAGDFN\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":3"), std::string::npos);
  EXPECT_NE(json.find("\"loss\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

TEST(EventTest, EscapesStringsAndNonFiniteDoubles) {
  Event e("escape");
  e.Str("path", "a\"b\\c\nd\t");
  e.Double("nan", std::nan(""));
  e.Double("inf", HUGE_VAL);
  const std::string json = e.ToJson();
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\t"), std::string::npos);
  // JSON has no NaN/Inf literal: both must become null.
  EXPECT_NE(json.find("\"nan\":null"), std::string::npos);
  EXPECT_NE(json.find("\"inf\":null"), std::string::npos);
  EXPECT_EQ(json.find("nan,"), std::string::npos);
  EXPECT_EQ(json.find("inf,"), std::string::npos);
}

TEST(TimerStatsTest, MergeCombinesAggregates) {
  TimerStats a;
  a.count = 2;
  a.total_seconds = 3.0;
  a.min_seconds = 1.0;
  a.max_seconds = 2.0;
  a.buckets[3] = 2;
  TimerStats b;
  b.count = 1;
  b.total_seconds = 0.5;
  b.min_seconds = 0.5;
  b.max_seconds = 0.5;
  b.buckets[5] = 1;
  a.Merge(b);
  EXPECT_EQ(a.count, 3);
  EXPECT_DOUBLE_EQ(a.total_seconds, 3.5);
  EXPECT_DOUBLE_EQ(a.min_seconds, 0.5);
  EXPECT_DOUBLE_EQ(a.max_seconds, 2.0);
  EXPECT_DOUBLE_EQ(a.mean_seconds(), 3.5 / 3);
  EXPECT_EQ(a.buckets[3], 2);
  EXPECT_EQ(a.buckets[5], 1);
}

TEST(TelemetryTest, ScopedTimerRecordsWhenEnabled) {
  CollectionScope scope(true);
  const TimerStats before =
      Telemetry::Global().timer("obs_test.enabled_scope");
  for (int i = 0; i < 5; ++i) {
    SAGDFN_SCOPED_TIMER("obs_test.enabled_scope");
  }
  const TimerStats after =
      Telemetry::Global().timer("obs_test.enabled_scope");
  EXPECT_EQ(after.count, before.count + 5);
  EXPECT_GE(after.total_seconds, before.total_seconds);
  EXPECT_GE(after.max_seconds, after.min_seconds);
}

TEST(TelemetryTest, ScopedTimerIsSilentWhenDisabled) {
  CollectionScope scope(false);
  for (int i = 0; i < 5; ++i) {
    SAGDFN_SCOPED_TIMER("obs_test.disabled_scope");
  }
  EXPECT_EQ(Telemetry::Global().timer("obs_test.disabled_scope").count, 0);
}

TEST(TelemetryTest, CountersAndGauges) {
  CollectionScope scope(true);
  Telemetry& t = Telemetry::Global();
  const int64_t before = t.counter("obs_test.counter");
  t.AddCounter("obs_test.counter");
  t.AddCounter("obs_test.counter", 4);
  EXPECT_EQ(t.counter("obs_test.counter"), before + 5);
  t.SetGauge("obs_test.gauge", 2.5);
  EXPECT_DOUBLE_EQ(t.gauge("obs_test.gauge"), 2.5);
  t.SetGauge("obs_test.gauge", -1.0);
  EXPECT_DOUBLE_EQ(t.gauge("obs_test.gauge"), -1.0);
  // Unknown names read as zero rather than dying.
  EXPECT_EQ(t.counter("obs_test.never_written"), 0);
  EXPECT_DOUBLE_EQ(t.gauge("obs_test.never_written"), 0.0);
}

TEST(TelemetryTest, RecordDurationAggregates) {
  CollectionScope scope(true);
  Telemetry& t = Telemetry::Global();
  const TimerStats before = t.timer("obs_test.duration");
  t.RecordDuration("obs_test.duration", 0.25);
  t.RecordDuration("obs_test.duration", 0.75);
  const TimerStats after = t.timer("obs_test.duration");
  EXPECT_EQ(after.count, before.count + 2);
  EXPECT_NEAR(after.total_seconds - before.total_seconds, 1.0, 1e-9);
}

TEST(TelemetryTest, TimerRecordingIsThreadSafe) {
  CollectionScope scope(true);
  const int64_t previous = utils::GetNumThreads();
  utils::SetNumThreads(4);
  const TimerStats before =
      Telemetry::Global().timer("obs_test.parallel_scope");
  utils::ParallelFor(0, 64, 1, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      SAGDFN_SCOPED_TIMER("obs_test.parallel_scope");
    }
  });
  utils::SetNumThreads(previous);
  const TimerStats after =
      Telemetry::Global().timer("obs_test.parallel_scope");
  EXPECT_EQ(after.count, before.count + 64);
}

TEST(TelemetryTest, ConfigureWritesJsonlRecords) {
  const std::string path = TempPath("obs_test_sink.jsonl");
  std::remove(path.c_str());
  Telemetry& t = Telemetry::Global();
  ASSERT_TRUE(t.Configure(path).ok());
  EXPECT_TRUE(t.sink_open());
  EXPECT_EQ(t.sink_path(), path);
  t.Emit(Event("obs_test.record").Int("value", 42));
  t.EmitSnapshot("obs_test");
  ASSERT_TRUE(t.Configure("").ok());  // close the sink
  EXPECT_FALSE(t.sink_open());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  // run.start + our record + the snapshot.
  ASSERT_GE(lines.size(), 3u);
  bool saw_start = false, saw_record = false, saw_snapshot = false;
  for (const std::string& l : lines) {
    EXPECT_EQ(l.find("{\"ts\":"), 0u) << l;
    EXPECT_EQ(l.back(), '}') << l;
    if (l.find("\"event\":\"run.start\"") != std::string::npos) {
      saw_start = true;
    }
    if (l.find("\"event\":\"obs_test.record\"") != std::string::npos &&
        l.find("\"value\":42") != std::string::npos) {
      saw_record = true;
    }
    if (l.find("\"event\":\"timers.snapshot\"") != std::string::npos) {
      saw_snapshot = true;
    }
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_record);
  EXPECT_TRUE(saw_snapshot);
  std::remove(path.c_str());
}

TEST(TelemetryTest, ConfigureEnablesCollection) {
  CollectionScope scope(false);
  const std::string path = TempPath("obs_test_enable.jsonl");
  ASSERT_TRUE(Telemetry::Global().Configure(path).ok());
  EXPECT_TRUE(Telemetry::CollectionEnabled());
  ASSERT_TRUE(Telemetry::Global().Configure("").ok());
  std::remove(path.c_str());
}

TEST(TelemetryTest, ConfigureRejectsUnwritablePath) {
  EXPECT_FALSE(
      Telemetry::Global().Configure("/nonexistent-dir/x/y.jsonl").ok());
}

TEST(TelemetryTest, WriteRegistryJson) {
  CollectionScope scope(true);
  Telemetry& t = Telemetry::Global();
  t.AddCounter("obs_test.registry_counter", 7);
  t.SetGauge("obs_test.registry_gauge", 1.5);
  t.RecordDuration("obs_test.registry_timer", 0.125);
  const std::string path = TempPath("obs_test_registry.json");
  ASSERT_TRUE(t.WriteRegistryJson(path, "obs unit test").ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"title\":"), std::string::npos);
  EXPECT_NE(json.find("obs unit test"), std::string::npos);
  EXPECT_NE(json.find("obs_test.registry_counter"), std::string::npos);
  EXPECT_NE(json.find("obs_test.registry_gauge"), std::string::npos);
  EXPECT_NE(json.find("obs_test.registry_timer"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TelemetryTest, ResetRegistryClearsCountersAndGauges) {
  CollectionScope scope(true);
  Telemetry& t = Telemetry::Global();
  t.AddCounter("obs_test.reset_counter", 3);
  t.SetGauge("obs_test.reset_gauge", 9.0);
  t.RecordDuration("obs_test.reset_timer", 0.5);
  t.ResetRegistry();
  EXPECT_EQ(t.counter("obs_test.reset_counter"), 0);
  EXPECT_DOUBLE_EQ(t.gauge("obs_test.reset_gauge"), 0.0);
  EXPECT_EQ(t.timer("obs_test.reset_timer").count, 0);
}

// Two stacked graph convolutions: one GraphConv node each, so one
// GraphConv backward each.
void BackwardThroughTwoGraphConvs() {
  namespace ag = ::sagdfn::autograd;
  using tensor::Shape;
  using tensor::Tensor;
  utils::Rng rng(3);
  core::FastGraphConv conv(4, 4, 2, rng);
  ag::Variable a_s(Tensor::Uniform(Shape({6, 2}), rng), true);
  ag::Variable x(Tensor::Normal(Shape({2, 6, 4}), rng), true);
  const std::vector<int64_t> idx = {1, 4};
  ag::SumAll(conv.Forward(a_s, idx, conv.Forward(a_s, idx, x))).Backward();
}

TEST(TelemetryTest, BackwardTimesEachOpKindWhenEnabled) {
  CollectionScope scope(true);
  Telemetry& t = Telemetry::Global();
  const int64_t convs = t.timer("autograd.backward.GraphConv").count;
  const int64_t sums = t.timer("autograd.backward.SumAll").count;
  BackwardThroughTwoGraphConvs();
  EXPECT_EQ(t.timer("autograd.backward.GraphConv").count, convs + 2);
  EXPECT_EQ(t.timer("autograd.backward.SumAll").count, sums + 1);
}

TEST(TelemetryTest, BackwardMakesNoTimerWhenDisabled) {
  namespace ag = ::sagdfn::autograd;
  CollectionScope scope(false);
  Telemetry& t = Telemetry::Global();
  const int64_t convs = t.timer("autograd.backward.GraphConv").count;
  BackwardThroughTwoGraphConvs();
  ag::Variable a(tensor::Tensor::Scalar(2.0f), true);
  ag::internal::MakeOp("ObsTestUntimedOp", a.value().Clone(), {a},
                       [](const tensor::Tensor&) {})
      .Backward();
  EXPECT_EQ(t.timer("autograd.backward.GraphConv").count, convs);
  for (const auto& [name, stats] : t.timers()) {
    EXPECT_NE(name, "autograd.backward.ObsTestUntimedOp");
  }
}

TEST(TelemetryTest, NowSecondsIsMonotonic) {
  const double a = Telemetry::NowSeconds();
  const double b = Telemetry::NowSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

}  // namespace
}  // namespace sagdfn::obs
