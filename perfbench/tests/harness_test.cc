// Tests of the ladder benchmark's own machinery: the key model, the
// checker that feeds failed_ratio, and the percentile helper.
//
//   ctest --test-dir .bench_build   (after building perfbench/)

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                              \
      ++failures;                                                 \
    }                                                             \
  } while (0)

void KeyModelRoundTrips() {
  const ValueModel model(7, 1000);
  const uint64_t indices[] = {0, 1, 999, 1000, ValueModel::kNegativeBase,
                              ValueModel::kNegativeBase + 12345};
  for (uint64_t i : indices) {
    EXPECT(model.IndexOf(model.Key(i)) == i);
    EXPECT(model.Key(i) != 0);
  }
  EXPECT(ValueModel(8, 1000).Key(3) != model.Key(3));  // seed matters
}

void CheckerCountsCorruptValue() {
  const ValueModel model(11, 100);
  const Checker checker(&model, false);
  const uint64_t key = model.Key(5);
  Tally t;
  checker.Slot(Op::Search(key), Status::kOk, model.Value(key, 0), &t);
  EXPECT(t.attempted == 1 && t.failed == 0 && t.wrong == 0);
  checker.Slot(Op::Search(key), Status::kOk, model.Value(key, 0) ^ 1, &t);
  EXPECT(t.attempted == 2 && t.failed == 1 && t.wrong == 1);
  // Another key's value is wrong even with updates allowed.
  const Checker updating(&model, true);
  Tally u;
  updating.Slot(Op::Search(key), Status::kOk, model.Value(key, 42), &u);
  EXPECT(u.failed == 0);
  updating.Slot(Op::Search(key), Status::kOk, model.Value(model.Key(6), 42),
                &u);
  EXPECT(u.failed == 1 && u.wrong == 1);
}

void CheckerCountsDroppedKey() {
  const ValueModel model(11, 100);
  const Checker checker(&model, true);
  Tally t;
  checker.Slot(Op::Search(model.Key(99)), Status::kNotFound, 0, &t);
  EXPECT(t.failed == 1 && t.wrong == 1);
  // A never-inserted key must be absent; a found one is wrong.
  const uint64_t negative = model.Key(ValueModel::kNegativeBase + 3);
  checker.Slot(Op::Search(negative), Status::kNotFound, 0, &t);
  EXPECT(t.failed == 1);
  checker.Slot(Op::Search(negative), Status::kOk, 0, &t);
  EXPECT(t.failed == 2 && t.wrong == 2);
  // Shed load is a failure but not a wrong value.
  checker.Slot(Op::Update(model.Key(1), 0), Status::kUnavailable, 0, &t);
  EXPECT(t.failed == 3 && t.wrong == 2 && t.unavailable == 1);
  Checker::Lost(16, &t);
  EXPECT(t.attempted == 20 && t.failed == 19);
}

void QuantileNeedsTenSamplesBeyond() {
  std::vector<uint64_t> v;
  for (uint64_t i = 1; i <= 1000; ++i) v.push_back(i);
  double out = -1;
  EXPECT(Quantile(v, 0.99, &out) && out == 990);  // 10 samples beyond
  v.pop_back();
  out = -1;
  EXPECT(!Quantile(v, 0.99, &out) && out == -1);  // only 9 beyond
  EXPECT(Quantile(v, 0.50, &out) && out == 500);
  std::vector<uint64_t> small = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                 14, 15, 16, 17, 18, 19, 20};
  EXPECT(Quantile(small, 0.5, &out) && out == 10);
  small.pop_back();
  EXPECT(!Quantile(small, 0.5, &out));
  EXPECT(!Quantile(std::vector<uint64_t>{}, 0.5, &out));
}

void MedianOfQuantilesIgnoresOneStalledGroup() {
  std::vector<std::vector<uint64_t>> groups(3);
  for (uint64_t i = 1; i <= 1000; ++i) {
    groups[0].push_back(i);
    groups[1].push_back(i + 1);
    groups[2].push_back(i * 1000);  // a window hit by a long stall
  }
  double out = 0;
  EXPECT(MedianOfQuantiles(groups, 0.99, &out) && out == 991);
  groups[1].pop_back();  // one group too small for a p99
  EXPECT(!MedianOfQuantiles(groups, 0.99, &out));
}

void SpanTotalsByName() {
  SpanLog log(1);
  const uint64_t root = log.NewId();
  log.Add("net.send", root, 9, 100, 130);
  log.AddWithId(root, "net.request", 0, 9, 100, 400);
  EXPECT(SpanTotalNs(log.spans(), "net.send") == 30);
  EXPECT(SpanTotalNs(log.spans(), "net.request") == 300);
  EXPECT(log.spans()[0].parent == root && log.spans()[1].id == root);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::KeyModelRoundTrips();
  perfbench::CheckerCountsCorruptValue();
  perfbench::CheckerCountsDroppedKey();
  perfbench::QuantileNeedsTenSamplesBeyond();
  perfbench::MedianOfQuantilesIgnoresOneStalledGroup();
  perfbench::SpanTotalsByName();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", perfbench::failures);
    return 1;
  }
  std::puts("harness_test: all passed");
  return 0;
}
