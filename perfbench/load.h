#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "answers.h"
#include "stats.h"
#include "tracing.h"

// Load generation over loopback. A phase runs `threads` client threads,
// each with one (persistent) connection:
//
//   open loop    request i is due at start + i / rate whatever happened
//                to earlier requests; its latency runs from the due time
//                to the last response byte, so a stall is charged to the
//                requests queued behind it. A thread that sends late
//                records how late.
//   closed loop  every thread sends its next request as soon as the
//                previous one completed (no think time).
//
// Requests cycle through the workload's specs in order. Ingest batches,
// when a feed is given, are POSTed by whichever thread first sees one
// due, so the phase never uses more than `threads` connections.

namespace perfbench {

struct Sample {
  bool ok = false;
  double latency_ms = 0.0;   // Due (open loop) or send time -> last byte.
  double late_ms = 0.0;      // Actual send - due; 0 in a closed loop.
  double connect_ms = 0.0;
  double ttfb_ms = 0.0;
  double transfer_ms = 0.0;
};

// Ingest batches POSTed at a fixed interval from a start time.
class IngestFeed {
 public:
  IngestFeed(std::vector<std::string> requests, double interval_ms)
      : requests_(std::move(requests)), interval_ms_(interval_ms) {}

  // Sets the schedule's time origin (the first batch is due half an
  // interval later). Called once, before the first phase.
  void Start(Clock::time_point origin) { origin_ = origin; }

  // Claims the next batch if it is due at `now`.
  bool TryClaim(Clock::time_point now, size_t* index);

  const std::string& request(size_t index) const { return requests_[index]; }
  size_t claimed() const { return next_.load(); }

  // Called by the sender, before the POST leaves.
  void MarkStoreChanging() { store_changed_.store(true); }
  bool store_changed() const { return store_changed_.load(); }

  void Record(double rtt_ms, bool ok);
  std::vector<double> rtts_ms() const;
  uint64_t failed() const;

 private:
  std::vector<std::string> requests_;
  double interval_ms_;
  Clock::time_point origin_{};
  std::atomic<size_t> next_{0};
  std::atomic<bool> store_changed_{false};
  mutable std::mutex mu_;
  std::vector<double> rtts_ms_;
  uint64_t failed_ = 0;
};

struct PhaseConfig {
  bool open_loop = false;
  double rate = 0.0;      // Requests per second (open loop).
  double seconds = 1.0;
  int threads = 1;
  // Closed loop: keep going past `seconds` (up to 3x) until this many
  // samples exist, so the reported p99 has its 10 samples beyond it.
  size_t min_samples = 0;
  bool trace = false;     // Record client spans.
};

struct PhaseResult {
  std::vector<Sample> samples;
  double elapsed_s = 0.0;
  uint64_t connects = 0;
  std::vector<Span> spans;
};

PhaseResult RunPhase(int port, const std::vector<RequestSpec>& specs,
                     const PhaseConfig& config, AnswerChecker* checker,
                     IngestFeed* feed);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
