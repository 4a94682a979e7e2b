// HttpServer wire-level regression tests: keep-alive, pipelining, strict
// Content-Length parsing, and many simultaneous connections. These are the
// tests for the concurrent-serving rework — service_test.cpp covers the
// routing/job semantics, this file covers the protocol machinery itself
// with hand-rolled sockets (so nothing in the client can paper over a
// framing bug).
#include "service/http.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace hmcc::service {
namespace {

// ---------------------------------------------------------------------------
// A raw keep-alive capable client socket: send bytes, read N framed
// responses off the same connection.

class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void send_bytes(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  struct Framed {
    int status = 0;
    std::string head;  ///< status line + headers (verbatim)
    std::string body;
  };

  /// Read exactly one Content-Length framed response off the connection.
  /// Fails the test (status 0) if the peer closes mid-response.
  Framed read_response() {
    Framed out;
    while (buf_.find("\r\n\r\n") == std::string::npos) {
      if (!fill_()) return out;
    }
    const std::size_t head_end = buf_.find("\r\n\r\n");
    out.head = buf_.substr(0, head_end + 4);
    const std::size_t sp = out.head.find(' ');
    if (sp != std::string::npos && sp + 3 < out.head.size()) {
      out.status = std::stoi(out.head.substr(sp + 1, 3));
    }
    std::size_t content_length = 0;
    const std::string key = "content-length:";
    std::string lowered;
    lowered.reserve(out.head.size());
    for (const char ch : out.head) {
      lowered.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
    }
    const std::size_t pos = lowered.find(key);
    if (pos != std::string::npos) {
      content_length = static_cast<std::size_t>(
          std::stoull(out.head.substr(pos + key.size())));
    }
    while (buf_.size() < head_end + 4 + content_length) {
      if (!fill_()) return out;
    }
    out.body = buf_.substr(head_end + 4, content_length);
    buf_.erase(0, head_end + 4 + content_length);
    return out;
  }

  /// True when the peer has closed the connection (EOF with no stray bytes).
  bool at_eof() {
    if (!buf_.empty()) return false;
    char ch = 0;
    const ssize_t n = ::recv(fd_, &ch, 1, 0);
    if (n > 0) buf_.push_back(ch);
    return n == 0;
  }

  [[nodiscard]] const std::string& head_of_last() const { return buf_; }

 private:
  bool fill_() {
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) return false;
    buf_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

/// Echo handler: answers with "METHOD TARGET|BODY" so a test can check
/// which request produced which response (ordering, dropped bytes).
HttpResponse echo_handler(const HttpRequest& req) {
  HttpResponse resp;
  resp.content_type = "text/plain";
  resp.body = req.method + " " + req.target + "|" + req.body;
  return resp;
}

struct ServerFixture {
  explicit ServerFixture(HttpServer::Options opts = {},
                         HttpHandler handler = echo_handler)
      : server(
            [&opts] {
              opts.port = 0;
              return opts;
            }(),
            std::move(handler)),
        thread([this] { server.serve(); }) {}
  ~ServerFixture() {
    server.request_stop();
    thread.join();
  }
  [[nodiscard]] std::uint16_t port() const { return server.port(); }

  HttpServer server;
  std::thread thread;
};

std::string get_req(const std::string& target,
                    const std::string& extra_headers = "") {
  return "GET " + target + " HTTP/1.1\r\nHost: t\r\n" + extra_headers +
         "\r\n";
}

std::string post_req(const std::string& target, const std::string& body,
                     const std::string& extra_headers = "") {
  return "POST " + target + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n" + extra_headers + "\r\n" + body;
}

// ---------------------------------------------------------------------------
// Keep-alive.

TEST(HttpServerKeepAlive, ServesManyRequestsOnOneConnection) {
  ServerFixture fx;
  RawConn conn(fx.port());
  for (int i = 0; i < 5; ++i) {
    conn.send_bytes(get_req("/r" + std::to_string(i)));
    const auto resp = conn.read_response();
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, "GET /r" + std::to_string(i) + "|");
    EXPECT_NE(resp.head.find("Connection: keep-alive"), std::string::npos);
  }
  const auto stats = fx.server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests_served, 5u);
  EXPECT_EQ(stats.keepalive_reuses, 4u);
}

TEST(HttpServerKeepAlive, ConnectionCloseIsHonored) {
  ServerFixture fx;
  RawConn conn(fx.port());
  conn.send_bytes(get_req("/bye", "Connection: close\r\n"));
  const auto resp = conn.read_response();
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.head.find("Connection: close"), std::string::npos);
  EXPECT_TRUE(conn.at_eof());
}

TEST(HttpServerKeepAlive, Http10DefaultsToCloseButKeepAliveOptsIn) {
  ServerFixture fx;
  {
    RawConn conn(fx.port());
    conn.send_bytes("GET /old HTTP/1.0\r\nHost: t\r\n\r\n");
    const auto resp = conn.read_response();
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.head.find("Connection: close"), std::string::npos);
    EXPECT_TRUE(conn.at_eof());
  }
  {
    RawConn conn(fx.port());
    conn.send_bytes(
        "GET /old HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n");
    EXPECT_EQ(conn.read_response().status, 200);
    conn.send_bytes(
        "GET /again HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n");
    EXPECT_EQ(conn.read_response().body, "GET /again|");
  }
}

TEST(HttpServerKeepAlive, IdleConnectionIsClosedAfterTimeout) {
  HttpServer::Options opts;
  opts.idle_timeout_ms = 50;
  ServerFixture fx(opts);
  RawConn conn(fx.port());
  conn.send_bytes(get_req("/a"));
  EXPECT_EQ(conn.read_response().status, 200);
  // Served connections idling past the deadline are closed silently — the
  // blocking recv in at_eof() returns EOF, not a 408.
  EXPECT_TRUE(conn.at_eof());
}

// ---------------------------------------------------------------------------
// Pipelining.

TEST(HttpServerPipelining, BurstOfRequestsAnsweredInOrder) {
  ServerFixture fx;
  RawConn conn(fx.port());
  conn.send_bytes(get_req("/one") + get_req("/two") + get_req("/three"));
  EXPECT_EQ(conn.read_response().body, "GET /one|");
  EXPECT_EQ(conn.read_response().body, "GET /two|");
  EXPECT_EQ(conn.read_response().body, "GET /three|");
}

TEST(HttpServerPipelining, BytesBeyondCurrentRequestAreNotDropped) {
  ServerFixture fx;
  RawConn conn(fx.port());
  // Two POSTs in one send: the second request rides in the same TCP segment
  // as the first one's body. Before the rework those bytes were discarded
  // with the consumed request.
  conn.send_bytes(post_req("/p1", "alpha") + post_req("/p2", "beta-beta"));
  EXPECT_EQ(conn.read_response().body, "POST /p1|alpha");
  EXPECT_EQ(conn.read_response().body, "POST /p2|beta-beta");
}

TEST(HttpServerPipelining, SplitAcrossArbitraryWriteBoundaries) {
  ServerFixture fx;
  RawConn conn(fx.port());
  const std::string wire = post_req("/s1", "xy") + get_req("/s2");
  // Dribble the two pipelined requests one byte at a time: head/body/next
  // request boundaries never line up with a recv() call.
  for (const char ch : wire) conn.send_bytes(std::string(1, ch));
  EXPECT_EQ(conn.read_response().body, "POST /s1|xy");
  EXPECT_EQ(conn.read_response().body, "GET /s2|");
}

// ---------------------------------------------------------------------------
// Content-Length strictness (the parsing bugfix sweep).

TEST(HttpServerContentLength, RejectsNonDigitForms) {
  ServerFixture fx;
  const std::string bad_values[] = {
      "-1",                     // sign chars must not reach strtoull
      "+5",                     //
      "5 5",                    // interior whitespace (OWS is trimmed, this
                                // survives trimming and must be rejected)
      "0x10",                   // hex
      "12abc",                  // trailing junk
      "",                       // empty value
      "99999999999999999999",   // > uint64 (ERANGE class)
  };
  for (const std::string& v : bad_values) {
    RawConn conn(fx.port());
    conn.send_bytes("POST /p HTTP/1.1\r\nHost: t\r\nContent-Length: " + v +
                    "\r\n\r\n");
    const auto resp = conn.read_response();
    EXPECT_EQ(resp.status, 400) << "Content-Length: '" << v << "'";
    EXPECT_TRUE(conn.at_eof()) << "protocol errors must close";
  }
}

TEST(HttpServerContentLength, ConflictingDuplicatesAre400) {
  ServerFixture fx;
  RawConn conn(fx.port());
  conn.send_bytes(
      "POST /p HTTP/1.1\r\nHost: t\r\n"
      "Content-Length: 3\r\nContent-Length: 5\r\n\r\nabcde");
  EXPECT_EQ(conn.read_response().status, 400);
  EXPECT_TRUE(conn.at_eof());
}

TEST(HttpServerContentLength, IdenticalDuplicatesAreAccepted) {
  // RFC 7230 6.3.5 allows folding identical duplicate Content-Length
  // values; only disagreeing ones are a smuggling vector.
  ServerFixture fx;
  RawConn conn(fx.port());
  conn.send_bytes(
      "POST /p HTTP/1.1\r\nHost: t\r\n"
      "Content-Length: 3\r\nContent-Length: 3\r\n\r\nabc");
  const auto resp = conn.read_response();
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "POST /p|abc");
}

TEST(HttpServerContentLength, ZeroAndMissingMeanEmptyBody) {
  ServerFixture fx;
  RawConn conn(fx.port());
  conn.send_bytes(post_req("/z", ""));
  EXPECT_EQ(conn.read_response().body, "POST /z|");
  conn.send_bytes(get_req("/nobody"));
  EXPECT_EQ(conn.read_response().body, "GET /nobody|");
}

TEST(HttpServerContentLength, ExpectContinueGetsInterimResponse) {
  ServerFixture fx;
  RawConn conn(fx.port());
  conn.send_bytes(
      "POST /e HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n"
      "Expect: 100-continue\r\n\r\n");
  const auto interim = conn.read_response();
  EXPECT_EQ(interim.status, 100);
  conn.send_bytes("hello");
  const auto final_resp = conn.read_response();
  EXPECT_EQ(final_resp.status, 200);
  EXPECT_EQ(final_resp.body, "POST /e|hello");
}

// ---------------------------------------------------------------------------
// Concurrency.

TEST(HttpServerConcurrency, SixteenKeepAliveConnectionsAllServed) {
  HttpServer::Options opts;
  opts.workers = 4;
  ServerFixture fx(opts);
  constexpr int kConns = 20;
  constexpr int kRequestsEach = 10;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kConns);
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      RawConn conn(fx.port());
      for (int r = 0; r < kRequestsEach; ++r) {
        const std::string target =
            "/c" + std::to_string(c) + "/r" + std::to_string(r);
        conn.send_bytes(
            post_req(target, "payload-" + std::to_string(c * 100 + r)));
        const auto resp = conn.read_response();
        if (resp.status == 200 &&
            resp.body == "POST " + target + "|payload-" +
                             std::to_string(c * 100 + r)) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kConns * kRequestsEach);
  const auto stats = fx.server.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kConns));
  EXPECT_EQ(stats.requests_served,
            static_cast<std::uint64_t>(kConns * kRequestsEach));
}

TEST(HttpServerConcurrency, InlineWorkersStillServeConcurrentConnections) {
  HttpServer::Options opts;
  opts.workers = 0;  // handlers run on the event-loop thread
  ServerFixture fx(opts);
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      RawConn conn(fx.port());
      conn.send_bytes(get_req("/i" + std::to_string(c)));
      if (conn.read_response().body == "GET /i" + std::to_string(c) + "|") {
        ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), 8);
}

}  // namespace
}  // namespace hmcc::service
