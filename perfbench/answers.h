#ifndef PERFBENCH_ANSWERS_H_
#define PERFBENCH_ANSWERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/s2rdf.h"
#include "http_client.h"

// What each request of a workload should return, and the checks every
// response goes through.

namespace perfbench {

// One request of a workload mix, with its expected answer.
struct RequestSpec {
  std::string label;  // Template name, e.g. "L1" or "IL-2-7".
  std::string query;  // SPARQL text.
  bool csv = false;   // Accept: text/csv instead of SPARQL JSON.
  uint64_t limit = 0;  // ?limit= row cap; 0 = uncapped.
  std::string wire;   // The HTTP request bytes.
  // Row count computed by S2Rdf::Execute on Layout::kVp, capped at
  // `limit`. `rows_max` bounds responses served after the store began
  // taking ingest batches (BGPs only gain rows); equal to `rows` when
  // the store never changes.
  uint64_t rows = 0;
  uint64_t rows_max = 0;
  // FNV-1a hash and size of ResultsToJson/ResultsToCsv of the facade
  // result (S2Rdf::Execute on the served layout, same row cap).
  uint64_t body_hash = 0;
  uint64_t body_size = 0;
};

// Digests a ResultsToJson or ResultsToCsv body as it streams in: row
// count, size and (when asked) FNV-1a hash, without keeping the body.
class ResultDigest : public BodySink {
 public:
  ResultDigest(bool csv, bool hash) : csv_(csv), hash_enabled_(hash) {}

  void Consume(std::string_view chunk) override;

  // Solution rows; nullopt when the body is malformed.
  std::optional<uint64_t> rows() const;
  uint64_t size() const { return size_; }
  uint64_t hash() const { return hash_; }

 private:
  bool csv_;
  bool hash_enabled_;
  uint64_t size_ = 0;
  uint64_t hash_ = 1469598103934665603ull;
  uint64_t rows_ = 0;
  // JSON: bytes of the current line matched against a row's "    {"
  // prefix; -1 once the line cannot be a row.
  int prefix_ = 0;
  // CSV: inside a quoted field; previous byte was an unquoted '\r'.
  bool quoted_ = false;
  bool after_cr_ = false;
  std::string tail_;  // Last bytes, for the closing check.
};

// Fills rows/rows_max/body_hash/body_size of every spec. `db` is the
// served store; `final_db` (may be null) holds the graph the store will
// have after all ingest batches. Distinct query texts are executed
// once. Fails when the facade and the kVp reference disagree.
s2rdf::Status ComputeExpected(s2rdf::core::S2Rdf* db,
                              s2rdf::core::S2Rdf* final_db,
                              std::vector<RequestSpec>* specs);

// Checks responses against their specs; thread-safe. The first few wrong
// answers are reported on stderr.
class AnswerChecker {
 public:
  explicit AnswerChecker(const std::vector<RequestSpec>& specs);

  // Claims the byte-for-byte comparison of `spec` for one response;
  // true for the first claimant only, until released.
  bool ClaimByteCheck(size_t spec);
  void ReleaseByteCheck(size_t spec);

  // Checks one response whose body went to `digest`. `compare_bytes`:
  // this response holds the spec's byte-check claim. `store_changed`:
  // the store had begun taking ingest batches before this response
  // completed, so only the row bounds apply (and no byte comparison).
  bool Check(size_t spec, const HttpExchange& response,
             const ResultDigest& digest, bool compare_bytes,
             bool store_changed);

  uint64_t byte_checked() const { return byte_checked_count_.load(); }

  // Reports a failure found outside Check.
  void Fail(const std::string& what);

 private:
  const std::vector<RequestSpec>& specs_;
  // One flag per spec: set by the first response compared byte for byte.
  std::unique_ptr<std::atomic<bool>[]> byte_checked_;
  std::atomic<uint64_t> reported_{0};
  std::atomic<uint64_t> byte_checked_count_{0};
};

// Statistics-level identity of two stores (same entry set, rows, SF and
// materialization decision) — the whole-store fingerprint bench_ingest
// gates on.
bool StatsIdentical(s2rdf::core::S2Rdf* a, s2rdf::core::S2Rdf* b);

}  // namespace perfbench

#endif  // PERFBENCH_ANSWERS_H_
