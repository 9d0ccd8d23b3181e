// Self-test of the benchmark harness: exact and per-slice quantiles, the
// outcome classifier, span self-time accounting and the codec replay.

#include <gtest/gtest.h>

#include <thread>

#include "perfbench/harness/probes.h"
#include "perfbench/harness/spans.h"
#include "perfbench/harness/stats.h"

namespace perfbench {
namespace {

using atomfs::Errc;

TEST(ExactQuantile, NearestRankOnOneToHundred) {
  std::vector<uint64_t> v;
  for (uint64_t i = 100; i >= 1; --i) {
    v.push_back(i);  // unsorted on purpose
  }
  EXPECT_EQ(ExactQuantile(v, 0.50), 50u);
  EXPECT_EQ(ExactQuantile(v, 0.99), 99u);
  EXPECT_EQ(ExactQuantile(v, 1.0), 100u);
  EXPECT_EQ(ExactQuantile(v, 0.0), 1u);
  EXPECT_EQ(ExactQuantile(v, 0.001), 1u);
  EXPECT_EQ(ExactQuantile(v, 0.011), 2u);
}

TEST(ExactQuantile, SmallAndDegenerateInputs) {
  std::vector<uint64_t> empty;
  EXPECT_EQ(ExactQuantile(empty, 0.5), 0u);
  std::vector<uint64_t> one{42};
  EXPECT_EQ(ExactQuantile(one, 0.5), 42u);
  EXPECT_EQ(ExactQuantile(one, 0.99), 42u);
  std::vector<uint64_t> two{7, 3};
  EXPECT_EQ(ExactQuantile(two, 0.5), 3u);  // ceil(0.5 * 2) = rank 1
  EXPECT_EQ(ExactQuantile(two, 0.51), 7u);
  std::vector<uint64_t> dup{5, 5, 5, 1};
  EXPECT_EQ(ExactQuantile(dup, 0.5), 5u);
}

TEST(ExactQuantile, ResolvesValuesBucketsWouldMerge) {
  // 131 us and 140 us share a power-of-two bucket; exact quantiles keep them
  // apart.
  std::vector<uint64_t> a(1000, 131000), b(1000, 140000);
  EXPECT_EQ(Summarize(a).p50_ns, 131000u);
  EXPECT_EQ(Summarize(b).p50_ns, 140000u);
  EXPECT_EQ(Summarize(b).count, 1000u);
}

TEST(SummarizeSlices, MedianOverSlicesOfMergedSeries) {
  // Two threads, three slices of 0.5 s; values past the last mark are calls
  // that finished after the deadline and are left out.
  const std::vector<uint64_t> a{1, 2, 3, 4, 5, 6, 999};
  const std::vector<size_t> a_marks{2, 4, 6};
  const std::vector<uint64_t> b{10, 30, 50};
  const std::vector<size_t> b_marks{1, 2, 3};
  const SliceSummary s =
      SummarizeSlices({SlicedSeries{&a, &a_marks}, SlicedSeries{&b, &b_marks}}, 3, 0.5);
  EXPECT_EQ(s.count, 9u);
  EXPECT_DOUBLE_EQ(s.rate, 6.0);  // 3 samples per 0.5 s slice
  // Slices: {1,2,10} {3,4,30} {5,6,50}: p50s 2,4,6. Nine samples are too
  // few for per-slice p99s, so p99 is the whole window's: 50.
  EXPECT_EQ(s.p50_ns, 4u);
  EXPECT_EQ(s.p99_ns, 50u);
}

TEST(SummarizeSlices, SparseSlicesTakeP99OverTheWholeWindow) {
  // 5 slices of 100 samples: too few for a per-slice p99. One slice holds
  // the 10 slowest samples, which a median over slices would hide.
  std::vector<uint64_t> v;
  std::vector<size_t> marks;
  for (int slice = 0; slice < 5; ++slice) {
    for (int i = 0; i < 100; ++i) {
      v.push_back(slice == 4 && i < 10 ? 5000 : 100 + i);
    }
    marks.push_back(v.size());
  }
  const SliceSummary s = SummarizeSlices({SlicedSeries{&v, &marks}}, 5, 1.0);
  EXPECT_EQ(s.count, 500u);
  EXPECT_EQ(s.p99_ns, 5000u);  // rank 495 of 500: inside the slow ten
}

TEST(SummarizeSlices, DisturbedMinorityOfSlicesDoesNotMoveTheResult) {
  std::vector<uint64_t> v;
  std::vector<size_t> marks;
  for (int slice = 0; slice < 5; ++slice) {
    for (int i = 0; i < 1000; ++i) {
      v.push_back(slice == 2 ? 1000 : 100);  // one slow slice
    }
    marks.push_back(v.size());
  }
  const SliceSummary s = SummarizeSlices({SlicedSeries{&v, &marks}}, 5, 1.0);
  EXPECT_EQ(s.p50_ns, 100u);
  EXPECT_EQ(s.p99_ns, 100u);
  EXPECT_DOUBLE_EQ(s.rate, 1000.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Classify, MissesAndConflictsAreNotFailures) {
  EXPECT_EQ(Classify(Errc::kOk), Outcome::kOk);
  EXPECT_EQ(Classify(Errc::kNoEnt), Outcome::kMiss);
  EXPECT_EQ(Classify(Errc::kExist), Outcome::kMiss);
  EXPECT_EQ(Classify(Errc::kTxConflict), Outcome::kConflict);
  for (Errc e : {Errc::kIo, Errc::kProto, Errc::kTimedOut, Errc::kBackpressure}) {
    EXPECT_EQ(Classify(e), Outcome::kTransport) << atomfs::ErrcName(e);
  }
  for (Errc e : {Errc::kNotDir, Errc::kIsDir, Errc::kNotEmpty, Errc::kInval, Errc::kBusy,
                 Errc::kNoSpace, Errc::kShardMoved}) {
    EXPECT_EQ(Classify(e), Outcome::kUnexpected) << atomfs::ErrcName(e);
  }
}

TEST(OutcomeCounts, FailedCountsTransportAndUnexpectedOnly) {
  OutcomeCounts c;
  for (Errc e : {Errc::kOk, Errc::kOk, Errc::kNoEnt, Errc::kExist, Errc::kTxConflict, Errc::kIo,
                 Errc::kNotDir}) {
    c.Add(Classify(e));
  }
  EXPECT_EQ(c.Attempted(), 7u);
  EXPECT_EQ(c.Failed(), 2u);
  EXPECT_EQ(c.Of(Outcome::kMiss), 2u);
  OutcomeCounts d;
  d.Add(Outcome::kOk);
  d += c;
  EXPECT_EQ(d.Attempted(), 8u);
  EXPECT_EQ(d.Of(Outcome::kOk), 3u);
}

TEST(Spans, SelfTimeIsSpanMinusChildren) {
  SpanLog::Clear();
  SpanLog::Enable(true);
  {
    SpanLog::Scope outer(SpanName::kClientCall);
    {
      SpanLog::Scope a(SpanName::kClientSend);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    {
      SpanLog::Scope b(SpanName::kClientWait);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  SpanLog::Enable(false);
  const auto stats = AnalyzeSpans(SpanLog::Threads());
  const SpanStats& call = stats[static_cast<size_t>(SpanName::kClientCall)];
  const SpanStats& send = stats[static_cast<size_t>(SpanName::kClientSend)];
  const SpanStats& wait = stats[static_cast<size_t>(SpanName::kClientWait)];
  ASSERT_EQ(call.dur_ns.size(), 1u);
  ASSERT_EQ(send.dur_ns.size(), 1u);
  ASSERT_EQ(wait.dur_ns.size(), 1u);
  EXPECT_EQ(call.self_ns[0], call.dur_ns[0] - send.dur_ns[0] - wait.dur_ns[0]);
  EXPECT_GE(send.dur_ns[0], 2'000'000u);
  EXPECT_EQ(send.self_ns[0], send.dur_ns[0]);
  SpanLog::Clear();
}

TEST(Spans, DisabledScopesRecordNothing) {
  SpanLog::Clear();
  { SpanLog::Scope s(SpanName::kCoreOp); }
  size_t total = 0;
  for (const ThreadSpans* t : SpanLog::Threads()) {
    total += t->spans.size();
  }
  EXPECT_EQ(total, 0u);
}

TEST(Spans, JoinKeyMatchesSamePathAndKindOnly) {
  auto p = atomfs::ParsePath("/fb/d1/f7");
  auto q = atomfs::ParsePath("/fb/d1/f8");
  ASSERT_TRUE(p.ok() && q.ok());
  EXPECT_EQ(JoinKey(atomfs::OpKind::kStat, *p), JoinKey(atomfs::OpKind::kStat, *p));
  EXPECT_NE(JoinKey(atomfs::OpKind::kStat, *p), JoinKey(atomfs::OpKind::kRead, *p));
  EXPECT_NE(JoinKey(atomfs::OpKind::kStat, *p), JoinKey(atomfs::OpKind::kStat, *q));
}

TEST(Codec, ReplayRoundTripsTheMix) {
  std::vector<atomfs::WireRequest> mix(3);
  mix[0].op = atomfs::WireOp::kStat;
  mix[0].path_a = "/a";
  mix[1].op = atomfs::WireOp::kWrite;
  mix[1].path_a = "/a";
  mix[1].data.assign(64, std::byte{1});
  mix[2].op = atomfs::WireOp::kRead;
  mix[2].path_a = "/a";
  mix[2].count = 16;
  const CodecResult r = ReplayCodec(mix, 10);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.ns_per_request, 0.0);
  EXPECT_GT(r.mean_request_bytes, 64.0 / 3.0);
}

}  // namespace
}  // namespace perfbench
