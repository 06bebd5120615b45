#include "tracing.h"

#include <cstdio>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_next_span_id{1};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double UsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

uint64_t SpanLog::NextId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t SpanLog::Add(std::string name, Clock::time_point start,
                      Clock::time_point end, uint64_t parent,
                      uint64_t request) {
  const uint64_t id = NextId();
  AddWithId(id, std::move(name), start, end, parent, request);
  return id;
}

void SpanLog::AddWithId(uint64_t id, std::string name, Clock::time_point start,
                        Clock::time_point end, uint64_t parent,
                        uint64_t request) {
  spans_.push_back(
      Span{std::move(name), id, parent, request, thread_, start, end});
}

std::string RenderChromeTrace(const std::vector<Span>& spans,
                              Clock::time_point origin) {
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"request\":%llu},\"name\":",
                  s.thread, UsBetween(origin, s.start),
                  UsBetween(s.start, s.end),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
    out += JsonString(s.name);
    out += i + 1 < spans.size() ? "},\n" : "}\n";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

s2rdf::Status CountingEnv::WriteFile(const std::string& path,
                                     const std::string& data) {
  const Clock::time_point start = Clock::now();
  s2rdf::Status status = base_->WriteFile(path, data);
  const double ms = MsSince(start);
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.files_written;
  counters_.bytes_written += data.size();
  counters_.write_ms += ms;
  return status;
}

s2rdf::Status CountingEnv::ReadFile(const std::string& path,
                                    std::string* data) {
  const Clock::time_point start = Clock::now();
  s2rdf::Status status = base_->ReadFile(path, data);
  const double ms = MsSince(start);
  std::lock_guard<std::mutex> lock(mu_);
  if (status.ok()) counters_.bytes_read += data->size();
  counters_.read_ms += ms;
  return status;
}

s2rdf::Status CountingEnv::RenameFile(const std::string& from,
                                      const std::string& to) {
  return base_->RenameFile(from, to);
}

s2rdf::Status CountingEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

s2rdf::Status CountingEnv::SyncFile(const std::string& path) {
  const Clock::time_point start = Clock::now();
  s2rdf::Status status = base_->SyncFile(path);
  const double ms = MsSince(start);
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.syncs;
  counters_.sync_ms += ms;
  return status;
}

s2rdf::Status CountingEnv::SyncDir(const std::string& dir) {
  const Clock::time_point start = Clock::now();
  s2rdf::Status status = base_->SyncDir(dir);
  const double ms = MsSince(start);
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.syncs;
  counters_.sync_ms += ms;
  return status;
}

s2rdf::Status CountingEnv::MakeDirs(const std::string& path) {
  return base_->MakeDirs(path);
}

bool CountingEnv::PathExists(const std::string& path) {
  return base_->PathExists(path);
}

s2rdf::StatusOr<std::vector<std::string>> CountingEnv::ListDir(
    const std::string& dir) {
  return base_->ListDir(dir);
}

IoCounters CountingEnv::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace perfbench
