#include "service/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <limits>
#include <system_error>

#include "common/thread_pool.hpp"
#include "service/json.hpp"

namespace hmcc::service {
namespace {

using Clock = std::chrono::steady_clock;

std::string lowercase(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

HttpResponse error_response(int status, const std::string& message) {
  HttpResponse resp;
  resp.status = status;
  resp.body = "{\"error\":" + json::quote(message) + "}";
  return resp;
}

/// Parse the request head (request line + headers). Returns false on a
/// malformed request.
bool parse_head(const std::string& head, HttpRequest& req) {
  std::size_t pos = head.find("\r\n");
  if (pos == std::string::npos) return false;
  const std::string request_line = head.substr(0, pos);

  const std::size_t sp1 = request_line.find(' ');
  if (sp1 == std::string::npos) return false;
  const std::size_t sp2 = request_line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  req.method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = request_line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) return false;
  req.minor_version = version == "HTTP/1.0" ? 0 : 1;
  if (req.method.empty() || target.empty() || target[0] != '/') return false;
  const std::size_t qmark = target.find('?');
  if (qmark != std::string::npos) {
    req.query = target.substr(qmark + 1);
    target.resize(qmark);
  }
  req.target = std::move(target);

  pos += 2;
  while (pos < head.size()) {
    const std::size_t eol = head.find("\r\n", pos);
    const std::size_t line_end = eol == std::string::npos ? head.size() : eol;
    const std::string line = head.substr(pos, line_end - pos);
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) return false;
    req.headers.emplace_back(lowercase(trim(line.substr(0, colon))),
                             trim(line.substr(colon + 1)));
    if (eol == std::string::npos) break;
    pos = eol + 2;
  }
  return true;
}

/// Strict Content-Length value parse: decimal digits only. Rejects signs,
/// embedded/exotic whitespace (strtoull silently skipped "\f5" and accepted
/// "-1" as a huge wrap-around), hex, trailing junk, and 64-bit overflow.
bool parse_content_length(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char ch : s) {
    if (ch < '0' || ch > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(ch - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) {
      return false;  // would overflow (the ERANGE case strtoull let through)
    }
    v = v * 10 + d;
  }
  out = v;
  return true;
}

/// Resolve the request's Content-Length across ALL occurrences of the
/// header. Every occurrence must parse and they must all agree; duplicate
/// CONFLICTING lengths are a request-smuggling vector and get 400 instead
/// of silently trusting the first one.
enum class ContentLengthResult { kOk, kAbsent, kMalformed, kConflict };
ContentLengthResult resolve_content_length(const HttpRequest& req,
                                           std::uint64_t& out) {
  bool seen = false;
  std::uint64_t value = 0;
  for (const auto& [name, raw] : req.headers) {
    if (name != "content-length") continue;
    std::uint64_t v = 0;
    if (!parse_content_length(raw, v)) return ContentLengthResult::kMalformed;
    if (seen && v != value) return ContentLengthResult::kConflict;
    value = v;
    seen = true;
  }
  if (!seen) return ContentLengthResult::kAbsent;
  out = value;
  return ContentLengthResult::kOk;
}

/// Keep-alive decision per RFC 7230 §6.3: the Connection header is a
/// comma-separated token list; "close" wins, explicit "keep-alive" opts an
/// HTTP/1.0 client in, and otherwise the HTTP-version default applies.
bool wants_keep_alive(const HttpRequest& req) {
  if (const std::string* c = req.header("connection")) {
    const std::string tokens = lowercase(*c);
    bool explicit_keep_alive = false;
    std::size_t start = 0;
    while (start <= tokens.size()) {
      const std::size_t comma = tokens.find(',', start);
      const std::size_t end = comma == std::string::npos ? tokens.size() : comma;
      const std::string tok = trim(tokens.substr(start, end - start));
      if (tok == "close") return false;
      if (tok == "keep-alive") explicit_keep_alive = true;
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (explicit_keep_alive) return true;
  }
  return req.minor_version >= 1;
}

}  // namespace

const std::string* HttpRequest::header(
    const std::string& lowercase_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lowercase_name) return &value;
  }
  return nullptr;
}

const char* status_text(int status) noexcept {
  switch (status) {
    case 100: return "Continue";
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpServer::HttpServer(Options opts, HttpHandler handler)
    : opts_(std::move(opts)), handler_(std::move(handler)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw_errno("socket");

  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = EINVAL;
    throw_errno("inet_pton");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, opts_.backlog) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("bind/listen");
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("pipe2");
  }
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];

  if (opts_.workers > 0) {
    pool_ = std::make_unique<ThreadPool>(opts_.workers);
  }
}

HttpServer::~HttpServer() {
  // Join the handler workers BEFORE closing the wake pipe they write to.
  pool_.reset();
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

void HttpServer::request_stop() noexcept {
  stopping_.store(true, std::memory_order_relaxed);
  wake();
}

void HttpServer::wake() noexcept {
  // Self-pipe wake-up: write() is async-signal-safe, and the pipe is
  // non-blocking so a full pipe (already woken) cannot wedge the caller.
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &byte, 1);
}

HttpServer::Stats HttpServer::stats() const noexcept {
  Stats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_open = open_.load(std::memory_order_relaxed);
  s.requests_served = requests_.load(std::memory_order_relaxed);
  s.keepalive_reuses = reuses_.load(std::memory_order_relaxed);
  return s;
}

void HttpServer::serve() {
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> pfd_conn;  // conn id per pollfd (0 = not a conn)

  for (;;) {
    const bool stopping = stopping_.load(std::memory_order_relaxed);
    if (stopping) {
      // Drop connections that are merely reading; requests already
      // dispatched (or mid-write) drain below before serve() returns.
      std::vector<std::uint64_t> reading;
      for (const auto& [id, c] : conns_) {
        if (c.state == Conn::State::kReadHead ||
            c.state == Conn::State::kReadBody) {
          reading.push_back(id);
        }
      }
      for (const std::uint64_t id : reading) close_conn(id);
      if (conns_.empty()) break;
    }

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    pfd_conn.push_back(0);
    if (!stopping && conns_.size() < opts_.max_connections) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conn.push_back(0);
    }

    const auto now = Clock::now();
    bool have_deadline = false;
    Clock::time_point nearest{};
    for (const auto& [id, c] : conns_) {
      short events = 0;
      switch (c.state) {
        case Conn::State::kReadHead:
        case Conn::State::kReadBody:
          events = POLLIN;
          break;
        case Conn::State::kWrite:
          events = POLLOUT;
          break;
        case Conn::State::kDispatch:
          continue;  // nothing to poll; the completion queue wakes us
      }
      pfds.push_back({c.fd, events, 0});
      pfd_conn.push_back(id);
      if (!have_deadline || c.deadline < nearest) {
        nearest = c.deadline;
        have_deadline = true;
      }
    }

    int timeout_ms = -1;
    if (have_deadline) {
      const auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(
                             nearest - now)
                             .count();
      timeout_ms = delta <= 0 ? 0 : static_cast<int>(delta);
    }

    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) break;

    // Drain the wake pipe BEFORE swapping the completion queue. A worker
    // pushes its completion first and writes the wake byte second, so a
    // byte consumed here guarantees the matching completion is visible to
    // the swap below. The reverse order (swap, then read) could eat a byte
    // whose completion arrived after the swap, leaving it queued with no
    // pending wake — and with the connection in kDispatch contributing no
    // pollfd and no deadline, the next poll() blocked forever.
    if (rc > 0 && (pfds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(wake_rd_, buf, sizeof buf) > 0) {
      }
    }

    const auto wake_time = Clock::now();
    drain_completions(wake_time);

    if (rc > 0) {
      for (std::size_t i = 0; i < pfds.size(); ++i) {
        const pollfd& p = pfds[i];
        if (p.revents == 0) continue;
        if (p.fd == wake_rd_) continue;  // already drained above
        if (p.fd == listen_fd_ && pfd_conn[i] == 0) {
          accept_ready(wake_time);
          continue;
        }
        const std::uint64_t id = pfd_conn[i];
        const auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        Conn& c = it->second;
        if (c.state == Conn::State::kWrite) {
          if ((p.revents & POLLOUT) != 0) {
            (void)write_ready(id, wake_time);
          } else {
            // POLLHUP/POLLERR-only wake-up with bytes still to write: the
            // peer is gone, the write can never finish — terminal, never a
            // spin through the poll loop.
            close_conn(id);
          }
        } else if ((p.revents & (POLLIN | POLLHUP)) != 0) {
          (void)read_ready(id, wake_time);
        } else if ((p.revents & (POLLERR | POLLNVAL)) != 0) {
          close_conn(id);
        }
      }
    }

    // Deadline sweep: stalled mid-request reads answer 408; idle keep-alive
    // connections and stalled writes close silently.
    const auto sweep_now = Clock::now();
    std::vector<std::uint64_t> expired;
    for (const auto& [id, c] : conns_) {
      if (c.state == Conn::State::kDispatch) continue;
      if (c.deadline <= sweep_now) expired.push_back(id);
    }
    for (const std::uint64_t id : expired) {
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn& c = it->second;
      if (c.state == Conn::State::kWrite) {
        close_conn(id);
      } else if (c.in.empty() && c.served > 0) {
        close_conn(id);  // idle keep-alive connection aged out
      } else {
        fail_request(c, 408,
                     c.state == Conn::State::kReadBody
                         ? "timed out reading body"
                         : "timed out reading request",
                     sweep_now);
      }
    }
  }
}

void HttpServer::accept_ready(Clock::time_point now) {
  while (conns_.size() < opts_.max_connections) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN (drained) or a transient error
    const std::uint64_t id = next_conn_id_++;
    Conn& c = conns_[id];
    c.fd = fd;
    c.state = Conn::State::kReadHead;
    c.deadline = now + std::chrono::milliseconds(opts_.io_timeout_ms);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_.store(conns_.size(), std::memory_order_relaxed);
  }
}

bool HttpServer::read_ready(std::uint64_t id, Clock::time_point now) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return false;
  Conn& c = it->second;
  char chunk[4096];
  bool got_bytes = false;
  for (;;) {
    const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      c.in.append(chunk, static_cast<std::size_t>(n));
      got_bytes = true;
      // Soft cap: never buffer unboundedly ahead of parsing. The parser's
      // own 413 check fires once the current request exceeds the bound.
      if (c.in.size() > opts_.max_request_bytes + sizeof chunk) break;
      continue;
    }
    if (n == 0) {
      c.read_closed = true;  // half-close: drain buffered requests first
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(id);
    return false;
  }
  if (got_bytes) {
    c.deadline = now + std::chrono::milliseconds(opts_.io_timeout_ms);
  }
  if (!pump(id, now)) return false;
  // After the pump: a half-closed peer with no complete request left in the
  // buffer can never produce one — close instead of waiting for a timeout.
  const auto it2 = conns_.find(id);
  if (it2 != conns_.end() && it2->second.read_closed &&
      (it2->second.state == Conn::State::kReadHead ||
       it2->second.state == Conn::State::kReadBody)) {
    close_conn(id);
    return false;
  }
  return true;
}

bool HttpServer::pump(std::uint64_t id, Clock::time_point now) {
  for (;;) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) return false;
    Conn& c = it->second;
    switch (c.state) {
      case Conn::State::kReadHead: {
        const std::size_t head_end = c.in.find("\r\n\r\n");
        if (head_end == std::string::npos) {
          if (c.in.size() > opts_.max_request_bytes) {
            fail_request(c, 413, "request too large", now);
            continue;  // now kWrite
          }
          return true;  // need more bytes
        }
        c.req = HttpRequest{};
        if (!parse_head(c.in.substr(0, head_end + 2), c.req)) {
          fail_request(c, 400, "malformed request", now);
          continue;
        }
        c.head_end = head_end;

        // Body: Content-Length only (no chunked encoding — curl and every
        // HTTP client library send explicit lengths for small JSON bodies).
        std::uint64_t content_length = 0;
        switch (resolve_content_length(c.req, content_length)) {
          case ContentLengthResult::kMalformed:
            fail_request(c, 400, "bad content-length", now);
            continue;
          case ContentLengthResult::kConflict:
            fail_request(c, 400, "conflicting content-length headers", now);
            continue;
          case ContentLengthResult::kAbsent:
            if (c.req.header("transfer-encoding") != nullptr) {
              fail_request(c, 411, "chunked bodies not supported", now);
              continue;
            }
            content_length = 0;
            break;
          case ContentLengthResult::kOk:
            break;
        }
        if (content_length > opts_.max_request_bytes) {
          fail_request(c, 413, "body too large", now);
          continue;
        }
        c.content_length = static_cast<std::size_t>(content_length);
        c.state = Conn::State::kReadBody;

        // RFC 7231 §5.1.1: a client sending Expect: 100-continue waits for
        // the interim response before transmitting the body. Best-effort
        // non-blocking send — the 25-byte line always fits a fresh socket
        // buffer; a client that missed it falls back to its send timer.
        if (const std::string* expect = c.req.header("expect")) {
          if (lowercase(*expect).find("100-continue") != std::string::npos &&
              c.in.size() < c.head_end + 4 + c.content_length) {
            static constexpr char kContinue[] = "HTTP/1.1 100 Continue\r\n\r\n";
            (void)::send(c.fd, kContinue, sizeof kContinue - 1, MSG_NOSIGNAL);
          }
        }
        continue;
      }
      case Conn::State::kReadBody: {
        const std::size_t need = c.head_end + 4 + c.content_length;
        if (c.in.size() < need) return true;  // need more bytes
        c.req.body = c.in.substr(c.head_end + 4, c.content_length);
        // Pipelining: ONLY the bytes of this request leave the buffer; any
        // bytes the client sent ahead stay and seed the next request.
        c.in.erase(0, need);
        dispatch(id, now);
        if (conns_.find(id) == conns_.end()) return false;
        if (conns_.at(id).state == Conn::State::kDispatch) return true;
        continue;  // inline handler already queued the response
      }
      case Conn::State::kWrite: {
        while (c.out_off < c.out.size()) {
          const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                   c.out.size() - c.out_off, MSG_NOSIGNAL);
          if (n > 0) {
            c.out_off += static_cast<std::size_t>(n);
            c.deadline = now + std::chrono::milliseconds(opts_.io_timeout_ms);
            continue;
          }
          if (n == 0) {
            // send() returning 0 with bytes remaining means no progress is
            // possible; treating it as retryable used to busy-spin through
            // the poll loop forever. It is terminal.
            close_conn(id);
            return false;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
          if (errno == EINTR) continue;
          close_conn(id);
          return false;
        }

        // Response fully written.
        c.out.clear();
        c.out_off = 0;
        ++c.served;
        if (c.close_after_write ||
            stopping_.load(std::memory_order_relaxed)) {
          close_conn(id);
          return false;
        }
        c.state = Conn::State::kReadHead;
        c.head_end = 0;
        c.content_length = 0;
        c.deadline = now + std::chrono::milliseconds(
                               c.in.empty() ? opts_.idle_timeout_ms
                                            : opts_.io_timeout_ms);
        if (c.in.empty() && c.read_closed) {
          close_conn(id);
          return false;
        }
        // Pipelined bytes already buffered loop straight into kReadHead.
        if (c.in.empty()) return true;
        continue;
      }
      case Conn::State::kDispatch:
        return true;
    }
  }
}

void HttpServer::dispatch(std::uint64_t id, Clock::time_point now) {
  Conn& c = conns_.at(id);
  c.keep_alive = wants_keep_alive(c.req);
  c.state = Conn::State::kDispatch;
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (c.served > 0) reuses_.fetch_add(1, std::memory_order_relaxed);

  HttpRequest req = std::move(c.req);
  c.req = HttpRequest{};

  auto run_handler = [this](const HttpRequest& r) {
    try {
      return handler_(r);
    } catch (const std::exception& e) {
      return error_response(500, e.what());
    } catch (...) {
      return error_response(500, "unhandled exception");
    }
  };

  if (pool_ == nullptr) {
    const HttpResponse resp = run_handler(req);
    Conn& c2 = conns_.at(id);  // handler cannot touch conns_, but be tidy
    start_write(c2, resp, !c2.keep_alive, now);
    return;
  }
  auto fut = pool_->submit(
      [this, id, req = std::move(req), run_handler]() mutable {
        HttpResponse resp = run_handler(req);
        {
          const std::lock_guard<std::mutex> lock(completions_mutex_);
          completions_.emplace_back(id, std::move(resp));
        }
        wake();
      });
  (void)fut;  // result travels via the completion queue, not the future
}

void HttpServer::drain_completions(Clock::time_point now) {
  std::vector<std::pair<std::uint64_t, HttpResponse>> batch;
  {
    const std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (auto& [id, resp] : batch) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // connection died while dispatched
    Conn& c = it->second;
    if (c.state != Conn::State::kDispatch) continue;
    start_write(c, resp, !c.keep_alive, now);
    // Opportunistic write: most responses fit the socket buffer, so finish
    // now (and pick up any pipelined follow-up) instead of polling first.
    (void)pump(id, now);
  }
}

void HttpServer::start_write(Conn& c, const HttpResponse& resp,
                             bool close_after, Clock::time_point now) {
  const bool close_conn_after =
      close_after || stopping_.load(std::memory_order_relaxed);
  std::string head = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                     status_text(resp.status) +
                     "\r\nContent-Type: " + resp.content_type +
                     "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                     "\r\nConnection: " +
                     (close_conn_after ? "close" : "keep-alive") + "\r\n\r\n";
  c.out = std::move(head);
  c.out += resp.body;
  c.out_off = 0;
  c.close_after_write = close_conn_after;
  c.state = Conn::State::kWrite;
  c.deadline = now + std::chrono::milliseconds(opts_.io_timeout_ms);
}

void HttpServer::fail_request(Conn& c, int status, const std::string& message,
                              Clock::time_point now) {
  // Protocol errors always close: after a malformed head or body there is
  // no trustworthy request boundary left to resynchronize on.
  start_write(c, error_response(status, message), /*close_after=*/true, now);
}

bool HttpServer::write_ready(std::uint64_t id, Clock::time_point now) {
  // The actual write logic lives in pump()'s kWrite state so that a burst
  // of pipelined requests is served iteratively, not by mutual recursion.
  return pump(id, now);
}

void HttpServer::close_conn(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
  open_.store(conns_.size(), std::memory_order_relaxed);
}

}  // namespace hmcc::service
