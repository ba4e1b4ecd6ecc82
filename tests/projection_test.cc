// The served projection (Section 3.4 composed with Section 3.3 chaining):
// per-attribute signatures authenticate the projected values, the digest
// spine proves range completeness, and one aggregate covers both.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

class ProjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0xBEE);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
  }
  void SetUp() override {
    clock_.SetMicros(5'000'000);
    rng_ = std::make_unique<Rng>(11);
    DataAggregator::Options opt;
    opt.record_len = 128;
    opt.sign_attributes = true;
    da_ = std::make_unique<DataAggregator>(*ctx_, &clock_, rng_.get(), opt);
    ServerConfig cfg;
    cfg.node.record_len = 128;
    cfg.serving.worker_threads = 0;
    qs_ = std::make_unique<ShardedQueryServer>(*ctx_, ShardRouter({}), cfg);
    std::vector<Record> records;
    for (int64_t k = 0; k < 8; ++k) {
      Record r;
      r.attrs = {k, k * 10, k * 100, k * 1000, -k};
      records.push_back(r);
    }
    auto stream = da_->BulkLoad(std::move(records));
    ASSERT_TRUE(stream.ok());
    for (const auto& msg : stream.value())
      ASSERT_TRUE(qs_->ApplyUpdate(msg).ok());
    verifier_ = std::make_unique<ClientVerifier>(&da_->public_key(), &codec_,
                                                 HashMode::kFast);
  }

  /// The served projection of every record onto `attrs`.
  QueryAnswer Project(std::vector<uint32_t> attrs) {
    query_ = Query::Project(0, 7, std::move(attrs));
    auto ans = qs_->Execute(query_);
    EXPECT_TRUE(ans.ok()) << ans.status().ToString();
    return ans.ok() ? ans.MoveValue() : QueryAnswer{};
  }
  /// The client's verdict on an answer to the last Project plan.
  Status Verify(const QueryAnswer& ans) {
    return verifier_->VerifyAnswerFresh(query_, ans, clock_.NowMicros(), 0);
  }

  static std::shared_ptr<const BasContext>* ctx_;
  ManualClock clock_;
  std::unique_ptr<Rng> rng_;
  VarintGapCodec codec_;
  std::unique_ptr<DataAggregator> da_;
  std::unique_ptr<ShardedQueryServer> qs_;
  std::unique_ptr<ClientVerifier> verifier_;
  Query query_;
};
std::shared_ptr<const BasContext>* ProjectionTest::ctx_ = nullptr;

TEST_F(ProjectionTest, FullProjectionVerifies) {
  auto ans = Project({0, 1, 2, 3, 4});
  EXPECT_TRUE(Verify(ans).ok());
}

TEST_F(ProjectionTest, PartialProjectionVerifies) {
  // The index attribute is always served first: it ties each tuple to its
  // spine entry.
  auto ans = Project({1, 3});
  ASSERT_EQ(ans.projection.tuples.size(), 8u);
  EXPECT_EQ(ans.projection.tuples[2].values,
            (std::vector<int64_t>{2, 20, 2000}));
  EXPECT_TRUE(Verify(ans).ok());
}

TEST_F(ProjectionTest, NonContiguousProjectionVerifies) {
  auto ans = Project({0, 4});
  EXPECT_TRUE(Verify(ans).ok());
}

TEST_F(ProjectionTest, VoIsIndependentOfProjectedWidth) {
  SizeModel sm;
  auto narrow = Project({0});
  auto wide = Project({0, 1, 2, 3, 4});
  EXPECT_EQ(narrow.projection.vo_size(sm), wide.projection.vo_size(sm));
}

TEST_F(ProjectionTest, ValueTamperDetected) {
  auto ans = Project({1, 2});
  ans.projection.tuples[0].values[1] = 424242;
  EXPECT_TRUE(Verify(ans).IsVerificationFailed());
}

TEST_F(ProjectionTest, SwapBetweenRecordsDetected) {
  // Both values are genuinely signed — but for different records.
  auto ans = Project({1});
  std::swap(ans.projection.tuples[0].values[1],
            ans.projection.tuples[1].values[1]);
  EXPECT_TRUE(Verify(ans).IsVerificationFailed());
}

TEST_F(ProjectionTest, SwapBetweenAttributePositionsDetected) {
  // Attribute 1 of record k is k*10; attribute 2 is k*100. The server
  // relabels a signed attr-2 value as attr-1.
  auto ans = Project({1, 2});
  std::swap(ans.projection.tuples[3].values[1],
            ans.projection.tuples[3].values[2]);
  EXPECT_TRUE(Verify(ans).IsVerificationFailed());
}

TEST_F(ProjectionTest, TimestampTamperDetected) {
  auto ans = Project({1});
  ans.projection.tuples[0].ts += 1;
  EXPECT_TRUE(Verify(ans).IsVerificationFailed());
}

TEST_F(ProjectionTest, DroppedTupleDetected) {
  auto ans = Project({1});
  ans.projection.tuples.pop_back();
  ans.projection.digests.pop_back();
  EXPECT_TRUE(Verify(ans).IsVerificationFailed());
}

}  // namespace
}  // namespace authdb
