#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// Percent-encodes `in` for a URL query component.
std::string UrlEncode(std::string_view in) {
  std::string out;
  out.reserve(in.size() * 3);
  for (unsigned char c : in) {
    if ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' ||
        c == '~') {
      out += static_cast<char>(c);
    } else {
      char hex[4];
      std::snprintf(hex, sizeof(hex), "%%%02X", c);
      out += hex;
    }
  }
  return out;
}

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

bool HttpClient::Connect(double* connect_ms) {
  const Clock::time_point start = Clock::now();
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return false;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  ++connects_;
  *connect_ms = MsSince(start);
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

bool HttpClient::Exchange(std::string_view request, HttpExchange* out,
                          BodySink* sink) {
  bool retryable = false;
  const bool reused = fd_ >= 0;
  if (Attempt(request, out, sink, &retryable)) return true;
  if (reused && retryable) return Attempt(request, out, sink, &retryable);
  return false;
}

bool HttpClient::Attempt(std::string_view request, HttpExchange* out,
                         BodySink* sink, bool* retryable) {
  *out = HttpExchange();
  *retryable = false;
  if (fd_ < 0 && !Connect(&out->connect_ms)) return false;

  const Clock::time_point sent = Clock::now();
  if (!WriteAll(fd_, request)) {
    Close();
    *retryable = true;
    return false;
  }

  // The head is collected in `head`; body bytes go to the sink or body.
  std::string head;
  Clock::time_point first_byte{};
  size_t head_end = std::string::npos;
  uint64_t content_length = 0;
  uint64_t body_bytes = 0;
  bool has_length = false;
  bool server_closes = false;
  auto take_body = [&](std::string_view chunk) {
    if (has_length && body_bytes + chunk.size() > content_length) {
      chunk = chunk.substr(0, content_length - body_bytes);
    }
    body_bytes += chunk.size();
    if (sink != nullptr) {
      sink->Consume(chunk);
    } else {
      out->body.append(chunk);
    }
  };
  char buf[64 * 1024];
  while (true) {
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // EOF: complete only for a response delimited by close.
      if (head_end != std::string::npos && !has_length) break;
      Close();
      *retryable = head.empty();
      return false;
    }
    if (head.empty() && head_end == std::string::npos) {
      first_byte = Clock::now();
    }
    std::string_view chunk(buf, static_cast<size_t>(n));
    if (head_end == std::string::npos) {
      head.append(chunk);
      head_end = head.find("\r\n\r\n");
      if (head_end == std::string::npos) continue;
      if (head.compare(0, 5, "HTTP/") != 0 ||
          head.find(' ') == std::string::npos) {
        Close();
        return false;
      }
      out->status = std::atoi(head.c_str() + head.find(' ') + 1);
      std::string_view lines(head.data(), head_end);
      size_t line_start = lines.find("\r\n");
      while (line_start != std::string_view::npos &&
             line_start + 2 < lines.size()) {
        const size_t begin = line_start + 2;
        const size_t end = lines.find("\r\n", begin);
        std::string_view line = lines.substr(
            begin, end == std::string_view::npos ? lines.size() - begin
                                                 : end - begin);
        const size_t colon = line.find(':');
        if (colon != std::string_view::npos) {
          const std::string name = Lower(line.substr(0, colon));
          const std::string_view value = Trim(line.substr(colon + 1));
          if (name == "content-length") {
            has_length = true;
            content_length = std::strtoull(std::string(value).c_str(),
                                           nullptr, 10);
          } else if (name == "connection") {
            server_closes = Lower(value) == "close";
          } else if (name == "x-s2rdf-trace-id") {
            out->has_trace_id = !value.empty();
          }
        }
        line_start = end;
      }
      take_body(std::string_view(head).substr(head_end + 4));
      head.resize(head_end + 4);
    } else {
      take_body(chunk);
    }
    if (has_length && body_bytes >= content_length) break;
  }
  const Clock::time_point last_byte = Clock::now();
  out->ttfb_ms = MsBetween(sent, first_byte);
  out->transfer_ms = MsBetween(first_byte, last_byte);
  out->sent = sent;
  out->last_byte = last_byte;
  if (server_closes || !has_length) Close();
  return true;
}

std::string SparqlGetRequest(std::string_view query, bool csv,
                             uint64_t limit) {
  std::string target = "/sparql?query=" + UrlEncode(query);
  if (limit > 0) target += "&limit=" + std::to_string(limit);
  return "GET " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nAccept: " +
         (csv ? "text/csv" : "application/sparql-results+json") + "\r\n\r\n";
}

std::string PostRequest(std::string_view path, std::string_view content_type,
                        std::string_view body) {
  std::string out = "POST " + std::string(path) +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: " +
                    std::string(content_type) +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\n\r\n";
  out += body;
  return out;
}

std::string GetRequest(std::string_view path) {
  return "GET " + std::string(path) + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

}  // namespace perfbench
