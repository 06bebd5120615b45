#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "stats.h"

// Tracing done from the benchmark's own code: spans around the calls it
// makes into each layer, and an Env wrapper that counts the storage
// layer's file I/O. Nothing here is compiled into the library.

namespace perfbench {

// A closed span: name, start, end and the span that caused it. Spans of
// one request share `request`.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  uint64_t request = 0;
  uint32_t thread = 0;
  Clock::time_point start{};
  Clock::time_point end{};
};

// Keeps spans in memory; one SpanLog per thread, merged at exit. Ids are
// unique across logs.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) {}

  // Records a span and returns its id.
  uint64_t Add(std::string name, Clock::time_point start,
               Clock::time_point end, uint64_t parent = 0,
               uint64_t request = 0);
  // Reserves an id for a parent whose end is recorded later via Add
  // with `id`.
  static uint64_t NextId();
  void AddWithId(uint64_t id, std::string name, Clock::time_point start,
                 Clock::time_point end, uint64_t parent, uint64_t request);

  std::vector<Span>& spans() { return spans_; }

 private:
  uint32_t thread_;
  std::vector<Span> spans_;
};

// Renders spans as Chrome trace_event JSON ("X" events, microseconds
// relative to `origin`).
std::string RenderChromeTrace(const std::vector<Span>& spans,
                              Clock::time_point origin);

// Storage-layer I/O counters.
struct IoCounters {
  uint64_t files_written = 0;
  uint64_t bytes_written = 0;
  double write_ms = 0.0;
  uint64_t syncs = 0;
  double sync_ms = 0.0;
  uint64_t bytes_read = 0;
  double read_ms = 0.0;
};

// Forwards to Env::Default() and counts writes, syncs and reads with
// their wall time. Thread-safe.
class CountingEnv : public s2rdf::Env {
 public:
  s2rdf::Status WriteFile(const std::string& path,
                          const std::string& data) override;
  s2rdf::Status ReadFile(const std::string& path, std::string* data) override;
  s2rdf::Status RenameFile(const std::string& from,
                           const std::string& to) override;
  s2rdf::Status RemoveFile(const std::string& path) override;
  s2rdf::Status SyncFile(const std::string& path) override;
  s2rdf::Status SyncDir(const std::string& dir) override;
  s2rdf::Status MakeDirs(const std::string& path) override;
  bool PathExists(const std::string& path) override;
  s2rdf::StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) override;

  IoCounters Snapshot() const;

 private:
  s2rdf::Env* base_ = s2rdf::Env::Default();
  mutable std::mutex mu_;
  IoCounters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
