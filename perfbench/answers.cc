#include "answers.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <tuple>
#include <unordered_map>

#include "sparql/results_io.h"

namespace perfbench {
namespace {

namespace core = s2rdf::core;

// Wrong answers printed before the rest are only counted.
constexpr uint64_t kMaxReported = 5;

struct Reference {
  uint64_t vp_rows = 0;
  uint64_t final_rows = 0;
  s2rdf::StatusOr<core::QueryResult> facade =
      s2rdf::InvalidArgumentError("not executed");
};

s2rdf::StatusOr<uint64_t> RowsOn(core::S2Rdf* db, const std::string& query,
                                 core::Layout layout) {
  core::QueryRequest request;
  request.query = query;
  request.options.layout = layout;
  S2RDF_ASSIGN_OR_RETURN(core::QueryResult result, db->Execute(request));
  return static_cast<uint64_t>(result.table.NumRows());
}

uint64_t Fnv1a(std::string_view data) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

void ResultDigest::Consume(std::string_view chunk) {
  size_ += chunk.size();
  if (hash_enabled_) {
    for (unsigned char c : chunk) {
      hash_ ^= c;
      hash_ *= 1099511628211ull;
    }
  }
  if (csv_) {
    // RFC 4180 records: line breaks inside quoted fields do not count.
    for (char c : chunk) {
      if (c == '"') {
        quoted_ = !quoted_;
      } else if (c == '\n' && after_cr_) {
        ++rows_;
      }
      after_cr_ = c == '\r' && !quoted_;
    }
  } else {
    // ResultsToJson writes one binding object per line, "    {...}", and
    // escapes newlines inside values; no other line starts that way.
    constexpr std::string_view kRow = "    {";
    size_t i = 0;
    while (i < chunk.size()) {
      while (prefix_ >= 0 && prefix_ < static_cast<int>(kRow.size()) &&
             i < chunk.size() && chunk[i] != '\n') {
        if (chunk[i] != kRow[static_cast<size_t>(prefix_)]) {
          prefix_ = -1;
        } else {
          ++prefix_;
          ++i;
        }
      }
      if (prefix_ == static_cast<int>(kRow.size())) {
        ++rows_;
        prefix_ = -1;
      }
      if (i >= chunk.size()) break;
      const void* newline =
          std::memchr(chunk.data() + i, '\n', chunk.size() - i);
      if (newline == nullptr) break;
      i = static_cast<size_t>(static_cast<const char*>(newline) -
                              chunk.data()) + 1;
      prefix_ = 0;
    }
  }
  tail_.append(chunk.substr(chunk.size() > 16 ? chunk.size() - 16 : 0));
  if (tail_.size() > 16) tail_.erase(0, tail_.size() - 16);
}

std::optional<uint64_t> ResultDigest::rows() const {
  if (csv_) {
    // The header record must be there and no quote left open.
    if (quoted_ || rows_ == 0) return std::nullopt;
    return rows_ - 1;
  }
  constexpr std::string_view kClose = "\n  ] }\n}\n";
  if (tail_.size() < kClose.size() ||
      std::string_view(tail_).substr(tail_.size() - kClose.size()) != kClose) {
    return std::nullopt;
  }
  return rows_;
}

s2rdf::Status ComputeExpected(core::S2Rdf* db, core::S2Rdf* final_db,
                              std::vector<RequestSpec>* specs) {
  const s2rdf::rdf::Dictionary& dict = db->graph().dictionary();
  // Each distinct (query, cap) executes once, each distinct
  // (query, cap, format) serializes once.
  std::map<std::pair<std::string, uint64_t>, Reference> refs;
  std::map<std::tuple<std::string, uint64_t, bool>,
           std::pair<uint64_t, uint64_t>>
      bodies;
  for (RequestSpec& spec : *specs) {
    auto [it, inserted] =
        refs.try_emplace(std::make_pair(spec.query, spec.limit));
    Reference& ref = it->second;
    if (inserted) {
      S2RDF_ASSIGN_OR_RETURN(ref.vp_rows,
                             RowsOn(db, spec.query, core::Layout::kVp));
      ref.final_rows = ref.vp_rows;
      if (final_db != nullptr) {
        S2RDF_ASSIGN_OR_RETURN(
            ref.final_rows, RowsOn(final_db, spec.query, core::Layout::kVp));
      }
      core::QueryRequest request;
      request.query = spec.query;
      request.options.max_result_rows = spec.limit;
      ref.facade = db->Execute(request);
      if (!ref.facade.ok()) return ref.facade.status();
    }
    auto cap = [&](uint64_t rows) {
      return spec.limit > 0 && rows > spec.limit ? spec.limit : rows;
    };
    spec.rows = cap(ref.vp_rows);
    spec.rows_max = cap(ref.final_rows);
    if (ref.facade->table.NumRows() != spec.rows) {
      return s2rdf::InternalError(
          spec.label + ": served layout returns " +
          std::to_string(ref.facade->table.NumRows()) +
          " rows, the kVp reference " + std::to_string(spec.rows));
    }
    auto [body_it, new_body] =
        bodies.try_emplace(std::make_tuple(spec.query, spec.limit, spec.csv));
    if (new_body) {
      const std::string body =
          spec.csv ? s2rdf::sparql::ResultsToCsv(ref.facade->table, dict)
                   : s2rdf::sparql::ResultsToJson(ref.facade->table, dict);
      body_it->second = {Fnv1a(body), body.size()};
    }
    spec.body_hash = body_it->second.first;
    spec.body_size = body_it->second.second;
  }
  return s2rdf::Status::Ok();
}

AnswerChecker::AnswerChecker(const std::vector<RequestSpec>& specs)
    : specs_(specs),
      byte_checked_(new std::atomic<bool>[specs.size()]) {
  for (size_t i = 0; i < specs.size(); ++i) byte_checked_[i] = false;
}

void AnswerChecker::Fail(const std::string& what) {
  if (reported_.fetch_add(1) < kMaxReported) {
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", what.c_str());
  }
}

bool AnswerChecker::ClaimByteCheck(size_t spec) {
  return !byte_checked_[spec].exchange(true);
}

void AnswerChecker::ReleaseByteCheck(size_t spec) {
  byte_checked_[spec] = false;
}

bool AnswerChecker::Check(size_t spec_index, const HttpExchange& response,
                          const ResultDigest& digest, bool compare_bytes,
                          bool store_changed) {
  const RequestSpec& spec = specs_[spec_index];
  if (response.status != 200) {
    Fail(spec.label + ": HTTP " + std::to_string(response.status));
    return false;
  }
  if (!response.has_trace_id) {
    Fail(spec.label + ": no X-S2RDF-Trace-Id header");
    return false;
  }
  const std::optional<uint64_t> rows = digest.rows();
  if (!rows.has_value()) {
    Fail(spec.label + ": malformed result body");
    return false;
  }
  const bool in_bounds = store_changed
                             ? *rows >= spec.rows && *rows <= spec.rows_max
                             : *rows == spec.rows;
  if (!in_bounds) {
    Fail(spec.label + ": " + std::to_string(*rows) + " rows, expected " +
         std::to_string(spec.rows) +
         (store_changed ? ".." + std::to_string(spec.rows_max) : ""));
    return false;
  }
  if (compare_bytes && !store_changed) {
    byte_checked_count_.fetch_add(1);
    if (digest.size() != spec.body_size || digest.hash() != spec.body_hash) {
      Fail(spec.label + ": response differs from the facade serialization");
      return false;
    }
  }
  return true;
}

bool StatsIdentical(core::S2Rdf* a, core::S2Rdf* b) {
  std::unordered_map<std::string, const s2rdf::storage::TableStats*> bs;
  for (const s2rdf::storage::TableStats* s : b->catalog().AllStats()) {
    bs[s->name] = s;
  }
  const auto as = a->catalog().AllStats();
  if (as.size() != bs.size()) return false;
  for (const s2rdf::storage::TableStats* sa : as) {
    auto it = bs.find(sa->name);
    if (it == bs.end()) return false;
    const s2rdf::storage::TableStats* sb = it->second;
    if (sa->rows != sb->rows || sa->selectivity != sb->selectivity ||
        sa->materialized != sb->materialized) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
