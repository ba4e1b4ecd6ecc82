// The served projection (Section 3.4 composed with Section 3.3 chaining):
// per-attribute signatures authenticate the projected values, the digest
// spine proves range completeness, and one aggregate covers both. The
// answer is columnar (one attribute list, flat rid/ts/value/digest
// columns), so tampering is tried on the values and on the column shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
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
  /// Row `row`'s value at position `i` of the answer's attribute list.
  static int64_t& Value(QueryAnswer& ans, size_t row, size_t i) {
    ProjectedRangeAnswer& p = ans.projection;
    return p.values[row * p.attr_indices.size() + i];
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
  const ProjectedRangeAnswer& p = ans.projection;
  ASSERT_EQ(p.rids.size(), 8u);
  EXPECT_EQ(p.attr_indices, (std::vector<uint32_t>{0, 1, 3}));
  ASSERT_EQ(p.values.size(), 8u * 3);
  EXPECT_EQ(std::vector<int64_t>(p.values.begin() + 2 * 3,
                                 p.values.begin() + 3 * 3),
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
  Value(ans, 0, 1) = 424242;
  EXPECT_TRUE(Verify(ans).IsVerificationFailed());
}

TEST_F(ProjectionTest, SwapBetweenRecordsDetected) {
  // Both values are genuinely signed — but for different records.
  auto ans = Project({1});
  std::swap(Value(ans, 0, 1), Value(ans, 1, 1));
  EXPECT_TRUE(Verify(ans).IsVerificationFailed());
}

TEST_F(ProjectionTest, SwapBetweenAttributePositionsDetected) {
  // Attribute 1 of record k is k*10; attribute 2 is k*100. The server
  // relabels a signed attr-2 value as attr-1.
  auto ans = Project({1, 2});
  std::swap(Value(ans, 3, 1), Value(ans, 3, 2));
  EXPECT_TRUE(Verify(ans).IsVerificationFailed());
}

TEST_F(ProjectionTest, TimestampTamperDetected) {
  auto ans = Project({1});
  ans.projection.ts[0] += 1;
  EXPECT_TRUE(Verify(ans).IsVerificationFailed());
}

TEST_F(ProjectionTest, DroppedTupleDetected) {
  auto ans = Project({1});
  ProjectedRangeAnswer& p = ans.projection;
  p.rids.pop_back();
  p.ts.pop_back();
  p.values.resize(p.values.size() - p.attr_indices.size());
  p.digests.pop_back();
  EXPECT_TRUE(Verify(ans).IsVerificationFailed());
}

// A hostile server controls every column's shape. Each malformed answer
// must be refused with the verdict naming its defect — never indexed out
// of bounds (the ASan build runs these).
TEST_F(ProjectionTest, MalformedColumnsRejected) {
  using Mutate = void (*)(ProjectedRangeAnswer*);
  struct Case {
    const char* what;
    Mutate mutate;
    const char* verdict;
  };
  const char* kLength = "projection column length mismatch";
  const char* kAttrs = "tuple attribute set mismatch";
  const char* kSpine = "digest spine length mismatch";
  const std::vector<Case> cases = {
      {"extra rid", [](ProjectedRangeAnswer* p) { p->rids.push_back(99); },
       kLength},
      {"missing rid", [](ProjectedRangeAnswer* p) { p->rids.pop_back(); },
       kLength},
      {"no rids", [](ProjectedRangeAnswer* p) { p->rids.clear(); },
       kLength},
      {"missing ts", [](ProjectedRangeAnswer* p) { p->ts.pop_back(); },
       kLength},
      {"extra ts", [](ProjectedRangeAnswer* p) { p->ts.push_back(1); },
       kLength},
      {"one value short", [](ProjectedRangeAnswer* p) { p->values.pop_back(); },
       kLength},
      {"one extra value",
       [](ProjectedRangeAnswer* p) { p->values.push_back(7); },
       kLength},
      {"one extra row of values",
       [](ProjectedRangeAnswer* p) { p->values.insert(p->values.end(), 2, 7); },
       kLength},
      {"no values", [](ProjectedRangeAnswer* p) { p->values.clear(); },
       kLength},
      {"extra digest",
       [](ProjectedRangeAnswer* p) { p->digests.emplace_back(); },
       kSpine},
      {"wrong attribute",
       [](ProjectedRangeAnswer* p) { p->attr_indices = {0, 2}; },
       kAttrs},
      {"reordered attributes",
       [](ProjectedRangeAnswer* p) { p->attr_indices = {1, 0}; },
       kAttrs},
      {"wider attribute list",
       [](ProjectedRangeAnswer* p) { p->attr_indices.push_back(2); },
       kAttrs},
      {"empty attribute list",
       [](ProjectedRangeAnswer* p) { p->attr_indices.clear(); },
       kAttrs},
      {"empty attribute list, rows kept as one column",
       [](ProjectedRangeAnswer* p) {
         p->attr_indices.clear();
         p->values.resize(p->rids.size());
       },
       kAttrs},
  };
  const QueryAnswer honest = Project({1});
  ASSERT_TRUE(Verify(honest).ok());
  ASSERT_EQ(honest.projection.attr_indices, (std::vector<uint32_t>{0, 1}));
  for (const Case& c : cases) {
    QueryAnswer ans = honest;
    c.mutate(&ans.projection);
    const Status st = Verify(ans);
    EXPECT_TRUE(st.IsVerificationFailed()) << c.what << ": " << st.ToString();
    EXPECT_EQ(st.message(), c.verdict) << c.what;
  }
}

// An empty range ships no rows and a digest witness; its columns are held
// to the same shape rules.
TEST_F(ProjectionTest, MalformedEmptyAnswerRejected) {
  query_ = Query::Project(100, 200, {1});
  auto served = qs_->Execute(query_);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const QueryAnswer honest = served.MoveValue();
  ASSERT_TRUE(honest.projection.rids.empty());
  ASSERT_TRUE(honest.projection.proof.has_value());
  ASSERT_TRUE(Verify(honest).ok());
  {
    QueryAnswer ans = honest;
    ans.projection.attr_indices.clear();
    EXPECT_EQ(Verify(ans).message(), "tuple attribute set mismatch");
  }
  {
    QueryAnswer ans = honest;
    ans.projection.values = {100, 10};  // values with no rid
    EXPECT_EQ(Verify(ans).message(), "projection column length mismatch");
  }
  {
    QueryAnswer ans = honest;
    ans.projection.ts.push_back(1);
    EXPECT_EQ(Verify(ans).message(), "projection column length mismatch");
  }
  {
    QueryAnswer ans = honest;
    ans.projection.digests.emplace_back();
    EXPECT_EQ(Verify(ans).message(), "digest spine length mismatch");
  }
}

// The range-chain checks projections share with selections, each pinned
// to its verdict.
TEST_F(ProjectionTest, RangeChainVerdictsArePinned) {
  const QueryAnswer rows = Project({1});
  const Query rows_query = query_;
  ASSERT_TRUE(Verify(rows).ok());
  query_ = Query::Project(100, 200, {1});
  auto served = qs_->Execute(query_);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const QueryAnswer empty = served.MoveValue();
  ASSERT_TRUE(Verify(empty).ok());
  {
    QueryAnswer ans = empty;
    ans.projection.proof.reset();
    EXPECT_EQ(Verify(ans).message(), "empty answer without witness");
  }
  {
    // The witness key 7 lies below the range, but its chain claims to end
    // inside it.
    QueryAnswer ans = empty;
    ans.projection.right_key = 150;
    EXPECT_EQ(Verify(ans).message(),
              "witness does not demonstrate an empty range");
  }
  query_ = rows_query;
  {
    QueryAnswer ans = rows;
    ProjectedRangeAnswer& p = ans.projection;
    const size_t w = p.attr_indices.size();
    std::swap(p.rids[2], p.rids[3]);
    std::swap(p.ts[2], p.ts[3]);
    std::swap_ranges(p.values.begin() + 2 * w, p.values.begin() + 3 * w,
                     p.values.begin() + 3 * w);
    std::swap(p.digests[2], p.digests[3]);
    EXPECT_EQ(Verify(ans).message(), "rows not in key order");
  }
  // Row 0 lies below the narrower range, whose boundaries (the chain
  // sentinels) still enclose it.
  query_ = Query::Project(1, 7, {1});
  EXPECT_EQ(Verify(rows).message(), "row outside query range");
}

}  // namespace
}  // namespace authdb
