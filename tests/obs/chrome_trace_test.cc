// Tests for the Chrome trace writer's metadata normalization: merged event
// streams may each announce the same threads, and the rendered bytes must
// not depend on which producer's vector was concatenated first.
#include "obs/chrome_trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace crn::obs {
namespace {

ChromeTraceEvent Meta(std::int64_t pid, std::int64_t tid,
                      const std::string& value) {
  ChromeTraceEvent event;
  event.name = "thread_name";
  event.category = "__metadata";
  event.phase = ChromeTraceEvent::Phase::kMetadata;
  event.pid = pid;
  event.tid = tid;
  event.args.emplace_back("name", value);
  return event;
}

ChromeTraceEvent Slice(const std::string& name, double ts_us, std::int64_t pid,
                       std::int64_t tid) {
  ChromeTraceEvent event;
  event.name = name;
  event.phase = ChromeTraceEvent::Phase::kComplete;
  event.ts_us = ts_us;
  event.dur_us = 1.0;
  event.pid = pid;
  event.tid = tid;
  return event;
}

std::string Render(const std::vector<ChromeTraceEvent>& events) {
  std::ostringstream out;
  WriteChromeTrace(events, out);
  return out.str();
}

std::size_t CountOccurrences(const std::string& text, const std::string& what) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(what); pos != std::string::npos;
       pos = text.find(what, pos + what.size())) {
    ++count;
  }
  return count;
}

TEST(ChromeTraceTest, DuplicateMetadataCollapsesToOnePerPidTidName) {
  const std::vector<ChromeTraceEvent> events = {
      Meta(2, 0, "main"), Slice("a", 5.0, 2, 0),
      Meta(2, 0, "main"),  // second producer announces the same thread
      Slice("b", 7.0, 2, 0)};
  const std::string rendered = Render(events);
  EXPECT_EQ(CountOccurrences(rendered, "\"thread_name\""), 1u);
  EXPECT_EQ(CountOccurrences(rendered, "\"ph\":\"M\""), 1u);
}

TEST(ChromeTraceTest, FirstMetadataEmissionWinsOnConflict) {
  const std::vector<ChromeTraceEvent> events = {
      Meta(2, 1, "worker-1"), Meta(2, 1, "renamed"), Slice("a", 1.0, 2, 1)};
  const std::string rendered = Render(events);
  EXPECT_NE(rendered.find("worker-1"), std::string::npos);
  EXPECT_EQ(rendered.find("renamed"), std::string::npos);
}

TEST(ChromeTraceTest, RenderedBytesStableAcrossMergeOrder) {
  // Two producers' vectors concatenated both ways: metadata arrives in a
  // different order and duplicated, timeline events keep distinct ts. The
  // writer must normalize both concatenations to identical bytes.
  const std::vector<ChromeTraceEvent> producer_a = {
      Meta(2, 0, "main"), Meta(2, 1, "worker-1"), Slice("a", 5.0, 2, 0),
      Slice("b", 9.0, 2, 1)};
  const std::vector<ChromeTraceEvent> producer_b = {
      Meta(2, 1, "worker-1"), Meta(2, 0, "main"), Slice("c", 7.0, 2, 1)};

  std::vector<ChromeTraceEvent> ab = producer_a;
  ab.insert(ab.end(), producer_b.begin(), producer_b.end());
  std::vector<ChromeTraceEvent> ba = producer_b;
  ba.insert(ba.end(), producer_a.begin(), producer_a.end());

  EXPECT_EQ(Render(ab), Render(ba));
}

TEST(ChromeTraceTest, MetadataOrderedByPidTidNameWithSortedArgs) {
  ChromeTraceEvent multi_arg = Meta(1, 0, "zeta");
  multi_arg.args.emplace_back("alpha", "first");  // deliberately unsorted
  const std::vector<ChromeTraceEvent> events = {
      Meta(3, 0, "late-pid"), Meta(1, 5, "high-tid"), multi_arg,
      Slice("a", 1.0, 1, 0)};
  const std::string rendered = Render(events);
  // (1,0) < (1,5) < (3,0).
  const std::size_t first = rendered.find("zeta");
  const std::size_t second = rendered.find("high-tid");
  const std::size_t third = rendered.find("late-pid");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  ASSERT_NE(third, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_LT(second, third);
  // Args of the normalized metadata render sorted by key: alpha before name.
  const std::size_t alpha = rendered.find("\"alpha\"");
  const std::size_t name_arg = rendered.find("\"name\":\"zeta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(name_arg, std::string::npos);
  EXPECT_LT(alpha, name_arg);
}

TEST(ChromeTraceTest, TimelineStaysMonotoneAfterMetadata) {
  const std::vector<ChromeTraceEvent> events = {
      Slice("late", 9.0, 2, 0), Meta(2, 0, "main"), Slice("early", 1.0, 2, 0)};
  const std::string rendered = Render(events);
  EXPECT_LT(rendered.find("\"ph\":\"M\""), rendered.find("early"));
  EXPECT_LT(rendered.find("early"), rendered.find("late"));
}

TEST(ChromeTraceTest, EscapesAndFlushesAcrossTheBuffer) {
  ChromeTraceEvent escaped;
  escaped.name = "a\"b\\c\nd\te\x01";
  escaped.phase = ChromeTraceEvent::Phase::kInstant;
  escaped.ts_us = -1.5;
  escaped.args.emplace_back("k", "v");
  EXPECT_EQ(Render({escaped}),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
            "{\"name\":\"a\\\"b\\\\c\\nd\\te\\u0001\",\"cat\":\"crn\",\"ph\":\"i\","
            "\"ts\":-1.500,\"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{\"k\":\"v\"}}"
            "\n]}\n");
  // Names longer than the 64 KiB buffer, escaped and not, arrive whole.
  const std::string plain(100000, 'x');
  const std::string quotes(40000, '"');
  const std::string rendered =
      Render({Slice(plain, 1.0, 1, 0), Slice(quotes, 2.0, 1, 0)});
  EXPECT_NE(rendered.find("{\"name\":\"" + plain + "\""), std::string::npos);
  std::string escaped_quotes;
  for (std::size_t i = 0; i < quotes.size(); ++i) escaped_quotes += "\\\"";
  EXPECT_NE(rendered.find("{\"name\":\"" + escaped_quotes + "\""), std::string::npos);
}

}  // namespace
}  // namespace crn::obs
