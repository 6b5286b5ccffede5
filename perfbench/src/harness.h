// Workload-independent pieces of the ladder benchmark: the seeded key and
// value model, the output checker that feeds failed_ratio, the percentile
// helper, and the in-memory span log. Header-only so the benchmark's own
// tests exercise exactly the code the benchmark runs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/status.h"

namespace perfbench {

using dash::api::Op;
using dash::api::OpType;
using dash::api::Status;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// splitmix64's finalizer: a bijection on 64-bit words, so distinct key
// indices always give distinct keys.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace internal {
// Multiplicative inverse modulo 2^64 of an odd constant (Newton).
constexpr uint64_t InverseOdd(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}
// Inverse of z ^= z >> s.
constexpr uint64_t UnShiftXor(uint64_t z, int s) {
  uint64_t x = z;
  for (int i = s; i < 64; i += s) x = z ^ (x >> s);
  return x;
}
}  // namespace internal

inline uint64_t UnMix64(uint64_t z) {
  z = internal::UnShiftXor(z, 31);
  z *= internal::InverseOdd(0x94d049bb133111ebULL);
  z = internal::UnShiftXor(z, 27);
  z *= internal::InverseOdd(0xbf58476d1ce4e5b9ULL);
  return internal::UnShiftXor(z, 30);
}

// The seed's key and value model. Key indices are split into classes:
// [0, preload) are loaded before measuring, [preload, kNegativeBase) are
// fresh keys a workload may insert, and [kNegativeBase, ...) are never
// inserted, so a search for one must come back kNotFound. A key maps back
// to its index through the inverse mixer, which is how the checker knows
// what every response slot is allowed to hold.
//
// A value carries a 32-bit tag of its key in the high half and a write
// generation in the low half: generation 0 is the preloaded value and
// updates write nonzero generations, so a value that belongs to another
// key, or a torn or corrupted value, fails the tag.
class ValueModel {
 public:
  static constexpr uint64_t kNegativeBase = 1ULL << 40;

  ValueModel(uint64_t seed, uint64_t preload)
      : key_salt_(Mix64(seed ^ 0x6b65792d73616c74ULL)),
        tag_salt_(Mix64(seed ^ 0x7461672d73616c74ULL)),
        preload_(preload) {}

  uint64_t preload() const { return preload_; }

  // Key 0 is reserved by the index API. One index in 2^64 maps to it; the
  // index would reject that key with kInvalidArgument, which the checker
  // counts as a failure, so it cannot pass unseen.
  uint64_t Key(uint64_t index) const { return Mix64(index ^ key_salt_); }
  uint64_t IndexOf(uint64_t key) const { return UnMix64(key) ^ key_salt_; }
  uint32_t Tag(uint64_t key) const {
    return static_cast<uint32_t>(Mix64(key ^ tag_salt_) >> 32);
  }
  uint64_t Value(uint64_t key, uint32_t generation) const {
    return (static_cast<uint64_t>(Tag(key)) << 32) | generation;
  }

 private:
  uint64_t key_salt_;
  uint64_t tag_salt_;
  uint64_t preload_;
};

// Outcome counts. `failed` counts every slot that did not do what the
// model says it must: wrong or missing values (`wrong`), kUnavailable
// and kTimeout (`unavailable`), and any other unexpected status.
// Protocol errors are counted per slot of the lost frame.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t unavailable = 0;

  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    unavailable += o.unavailable;
    return *this;
  }
};

// Checks response slots against the model. `updates_allowed` says whether
// a preloaded key may hold a nonzero generation (workloads with updates);
// without it only the exact preloaded value passes.
class Checker {
 public:
  Checker(const ValueModel* model, bool updates_allowed)
      : model_(model), updates_allowed_(updates_allowed) {}

  // `op` is the request as sent; `value` the value returned for it.
  void Slot(const Op& op, Status status, uint64_t value, Tally* t) const {
    ++t->attempted;
    if (status == Status::kUnavailable || status == Status::kTimeout) {
      ++t->failed;
      ++t->unavailable;
      return;
    }
    if (!SlotOk(op, status, value)) {
      ++t->failed;
      ++t->wrong;
    }
  }

  // A whole frame that never got a usable response.
  static void Lost(size_t count, Tally* t) {
    t->attempted += count;
    t->failed += count;
  }

 private:
  bool SlotOk(const Op& op, Status status, uint64_t value) const {
    const uint64_t index = model_->IndexOf(op.key);
    switch (op.type) {
      case OpType::kSearch:
        if (index >= ValueModel::kNegativeBase) {
          return status == Status::kNotFound;
        }
        if (index >= model_->preload()) {  // fresh key: may be absent
          return status == Status::kNotFound ||
                 (status == Status::kOk &&
                  value == model_->Value(op.key, 0));
        }
        if (status != Status::kOk) return false;  // dropped preloaded key
        if (updates_allowed_) {
          return (value >> 32) == model_->Tag(op.key);
        }
        return value == model_->Value(op.key, 0);
      case OpType::kInsert:
        return status == Status::kOk;
      case OpType::kUpdate:
        return status == Status::kOk;
      case OpType::kDelete:
        return false;  // no workload deletes
    }
    return false;
  }

  const ValueModel* model_;
  bool updates_allowed_;
};

// Nearest-rank quantile of ascending `sorted`. Returns false, leaving
// *out untouched, unless at least 10 samples lie strictly beyond the
// chosen rank: a tail percentile read off fewer samples is noise.
template <typename T>
bool Quantile(const std::vector<T>& sorted, double q, double* out) {
  const size_t n = sorted.size();
  if (n == 0 || q < 0.0 || q > 1.0) return false;
  size_t rank = static_cast<size_t>(q * static_cast<double>(n));
  if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
  if (rank == 0) rank = 1;
  if (n - rank < 10) return false;
  *out = static_cast<double>(sorted[rank - 1]);
  return true;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Median over groups (reps or time windows of one leg) of each group's
// quantile q, so one rare stall moves one group's tail, not the report.
// False unless every group has at least 10 samples beyond its quantile.
inline bool MedianOfQuantiles(std::vector<std::vector<uint64_t>> groups,
                              double q, double* out) {
  std::vector<double> per_group;
  for (std::vector<uint64_t>& g : groups) {
    std::sort(g.begin(), g.end());
    double v = 0;
    if (!Quantile(g, q, &v)) return false;
    per_group.push_back(v);
  }
  if (per_group.empty()) return false;
  *out = Median(per_group);
  return true;
}

// One traced interval at a layer boundary. Spans of one request share
// `request`; `parent` is the id of the span that caused this one (0 for
// a root).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Spans of one load thread, held in memory until the benchmark ends.
// Ids are unique across threads (the thread's lane sits above bit 40).
class SpanLog {
 public:
  explicit SpanLog(uint64_t lane) : next_id_(lane << 40) {}

  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               uint64_t start_ns, uint64_t end_ns) {
    Span s;
    s.name = name;
    s.id = ++next_id_;
    s.parent = parent;
    s.request = request;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
    return s.id;
  }
  // Reserves an id for a parent span whose end is not known yet.
  uint64_t NewId() { return ++next_id_; }
  void AddWithId(uint64_t id, const char* name, uint64_t parent,
                 uint64_t request, uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

// Sum of the durations of spans named `name`.
inline uint64_t SpanTotalNs(const std::vector<Span>& spans,
                            const std::string& name) {
  uint64_t total = 0;
  for (const Span& s : spans) {
    if (name == s.name) total += s.end_ns - s.start_ns;
  }
  return total;
}

// Durations of the spans named `name`.
inline std::vector<uint64_t> SpanDurations(const std::vector<Span>& spans,
                                           const std::string& name) {
  std::vector<uint64_t> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

// Writes spans as JSON lines, times in ns since the earliest span start;
// false on I/O failure.
inline bool WriteSpans(const std::string& path,
                       const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
