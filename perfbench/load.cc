#include "load.h"

#include <cstdio>
#include <thread>

#include "http_client.h"

namespace perfbench {

bool IngestFeed::TryClaim(Clock::time_point now, size_t* index) {
  size_t next = next_.load();
  while (next < requests_.size()) {
    const auto due =
        origin_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          interval_ms_ * (static_cast<double>(next) + 0.5)));
    if (now < due) return false;
    if (next_.compare_exchange_weak(next, next + 1)) {
      *index = next;
      return true;
    }
  }
  return false;
}

void IngestFeed::Record(double rtt_ms, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  rtts_ms_.push_back(rtt_ms);
  if (!ok) ++failed_;
}

std::vector<double> IngestFeed::rtts_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rtts_ms_;
}

uint64_t IngestFeed::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

namespace {

struct ThreadState {
  std::vector<Sample> samples;
  uint64_t connects = 0;
  std::vector<Span> spans;
};

// POSTs one ingest batch; its round trip is recorded on the feed.
void SendIngest(HttpClient* client, IngestFeed* feed, size_t index) {
  feed->MarkStoreChanging();
  HttpExchange response;
  const Clock::time_point start = Clock::now();
  const bool sent = client->Exchange(feed->request(index), &response);
  const bool ok = sent && response.status == 200 &&
                  response.body.find("\"triples_added\":") != std::string::npos;
  if (!ok) {
    std::fprintf(stderr, "perfbench: ingest batch %zu failed (HTTP %d)\n",
                 index, response.status);
  }
  feed->Record(MsSince(start), ok);
}

}  // namespace

PhaseResult RunPhase(int port, const std::vector<RequestSpec>& specs,
                     const PhaseConfig& config, AnswerChecker* checker,
                     IngestFeed* feed) {
  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> completed{0};
  const Clock::time_point start = Clock::now();
  const auto to_duration = [](double ms) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
  };
  const Clock::time_point end = start + to_duration(config.seconds * 1000.0);
  const Clock::time_point hard_end =
      start + to_duration(config.seconds * 3000.0);

  std::vector<ThreadState> states(static_cast<size_t>(config.threads));
  std::vector<std::thread> threads;
  for (int t = 0; t < config.threads; ++t) {
    threads.emplace_back([&, t] {
      ThreadState& state = states[static_cast<size_t>(t)];
      HttpClient client(port);
      SpanLog spans(static_cast<uint32_t>(t + 1));
      while (true) {
        size_t batch = 0;
        if (feed != nullptr && feed->TryClaim(Clock::now(), &batch)) {
          SendIngest(&client, feed, batch);
          continue;
        }
        const uint64_t i = next.fetch_add(1);
        Clock::time_point due;
        if (config.open_loop) {
          due = start + to_duration(1000.0 * static_cast<double>(i) /
                                    config.rate);
          if (due >= end) break;
          std::this_thread::sleep_until(due);
        } else {
          due = Clock::now();
          if (due >= end &&
              (completed.load() >= config.min_samples || due >= hard_end)) {
            break;
          }
        }
        const size_t spec = static_cast<size_t>(i % specs.size());
        bool compare_bytes = checker->ClaimByteCheck(spec);
        ResultDigest digest(specs[spec].csv, compare_bytes);
        HttpExchange response;
        if (!client.Exchange(specs[spec].wire, &response, &digest)) {
          if (compare_bytes) checker->ReleaseByteCheck(spec);
          Sample failed;
          failed.latency_ms = MsSince(due);
          state.samples.push_back(failed);
          continue;
        }
        Sample sample;
        sample.latency_ms = MsBetween(due, response.last_byte);
        sample.late_ms =
            config.open_loop ? MsBetween(due, response.sent) -
                                   response.connect_ms
                             : 0.0;
        sample.connect_ms = response.connect_ms;
        sample.ttfb_ms = response.ttfb_ms;
        sample.transfer_ms = response.transfer_ms;
        if (config.trace) {
          const uint64_t root = SpanLog::NextId();
          const Clock::time_point first_byte =
              response.last_byte - to_duration(response.transfer_ms);
          const Clock::time_point connect_start =
              response.sent - to_duration(response.connect_ms);
          if (config.open_loop) {
            spans.Add("client.send_late", due, connect_start, root, root);
          }
          if (response.connect_ms > 0.0) {
            spans.Add("client.connect", connect_start, response.sent, root,
                      root);
          }
          spans.Add("client.ttfb", response.sent, first_byte, root, root);
          spans.Add("client.transfer", first_byte, response.last_byte, root,
                    root);
          spans.AddWithId(root, "request " + specs[spec].label, due,
                          response.last_byte, 0, root);
        }
        // Answers are checked after the clock stops; the store counts as
        // changed if an ingest POST had left before the response ended.
        const bool changed = feed != nullptr && feed->store_changed();
        if (compare_bytes && changed) {
          checker->ReleaseByteCheck(spec);
          compare_bytes = false;
        }
        sample.ok =
            checker->Check(spec, response, digest, compare_bytes, changed);
        state.samples.push_back(sample);
        completed.fetch_add(1);
      }
      state.connects = client.connects();
      state.spans = std::move(spans.spans());
    });
  }
  for (std::thread& thread : threads) thread.join();

  PhaseResult result;
  result.elapsed_s = MsSince(start) / 1000.0;
  for (ThreadState& state : states) {
    result.samples.insert(result.samples.end(), state.samples.begin(),
                          state.samples.end());
    result.connects += state.connects;
    result.spans.insert(result.spans.end(),
                        std::make_move_iterator(state.spans.begin()),
                        std::make_move_iterator(state.spans.end()));
  }
  return result;
}

}  // namespace perfbench
