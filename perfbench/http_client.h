#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "stats.h"

// A blocking HTTP/1.1 client for loopback load generation. Connections
// are persistent by default (HTTP/1.1 semantics, no "Connection: close"
// sent); the client reconnects whenever the server answers with
// "Connection: close" and counts every connect, so a server that learns
// keep-alive shows up as fewer connects per request without a change to
// the benchmark.

namespace perfbench {

// Receives a response body in chunks, in place of HttpExchange::body.
class BodySink {
 public:
  virtual ~BodySink() = default;
  virtual void Consume(std::string_view chunk) = 0;
};

struct HttpExchange {
  int status = 0;
  bool has_trace_id = false;
  std::string body;  // Empty when a BodySink took the body.
  // Time spent in connect(); 0 when an open connection was reused.
  double connect_ms = 0.0;
  // From the start of the request write to the first response byte.
  double ttfb_ms = 0.0;
  // From the first to the last response byte.
  double transfer_ms = 0.0;
  // When the request write started and the last response byte arrived.
  Clock::time_point sent{};
  Clock::time_point last_byte{};
};

class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Sends `request` (complete request bytes) and reads one response,
  // handing its body to `sink` when given. Returns false on a transport
  // failure. A failure on a reused connection before any response byte
  // is retried once on a fresh one.
  bool Exchange(std::string_view request, HttpExchange* out,
                BodySink* sink = nullptr);

  uint64_t connects() const { return connects_; }

 private:
  bool Connect(double* connect_ms);
  void Close();
  // One attempt; *retryable is set when nothing was received.
  bool Attempt(std::string_view request, HttpExchange* out, BodySink* sink,
               bool* retryable);

  int port_;
  int fd_ = -1;
  uint64_t connects_ = 0;
};

// GET /sparql request bytes for `query` (JSON or CSV via Accept; `limit`
// 0 = no ?limit=).
std::string SparqlGetRequest(std::string_view query, bool csv,
                             uint64_t limit);

// POST request bytes with a body.
std::string PostRequest(std::string_view path, std::string_view content_type,
                        std::string_view body);

// GET request bytes for a path.
std::string GetRequest(std::string_view path);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
