// Transport-level tests of boosting_served's event loop, driven in-process
// over a unix-domain socket: input is bounded per line, and ops outside
// the protocol grammar are answered with an error.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

namespace boosting::serve {
namespace {

// Connects to the listener at `path`, retrying while the server starts.
int connectUnix(const std::string& path) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      timeval tv{10, 0};  // a hung server fails the test instead of the run
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

void sendAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w <= 0) return;  // the server may close before taking everything
    off += static_cast<std::size_t>(w);
  }
}

// Everything the server writes until it closes the connection; `closed`
// is false when the read timed out or failed instead.
std::string readUntilClose(int fd, bool* closed) {
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) {
      *closed = true;
      return out;
    }
    if (n < 0) {
      *closed = false;
      return out;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
}

// A server listening only on a fresh unix socket named after `tag`.
ServerConfig unixServer(const std::string& tag, std::string* path) {
  *path = testing::TempDir() + "/serve_server_test." + tag + "." +
          std::to_string(::getpid()) + ".sock";
  ServerConfig cfg;
  ListenSpec listen;
  listen.kind = ListenSpec::Kind::Unix;
  listen.path = *path;
  cfg.listens.push_back(listen);
  cfg.tickMs = 1;
  return cfg;
}

TEST(ServeServer, OversizedLineGetsAnErrorAndTheConnectionCloses) {
  std::string path;
  const ServerConfig cfg = unixServer("oversized", &path);
  int rc = -1;
  // jthread: an early ASSERT return still joins (the server exits on its
  // own when it could not listen).
  std::jthread server([&] { rc = runServer(cfg); });

  const int fd = connectUnix(path);
  ASSERT_GE(fd, 0) << "cannot connect to " << path;
  // One byte past the cap and no newline: the line can never complete.
  sendAll(fd, std::string(kMaxRequestLineBytes + 1, 'x'));
  bool closed = false;
  const std::string reply = readUntilClose(fd, &closed);
  ::close(fd);
  EXPECT_TRUE(closed) << "server kept the connection open";
  EXPECT_NE(reply.find("\"ev\":\"error\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("request line exceeds " +
                       std::to_string(kMaxRequestLineBytes) + " bytes"),
            std::string::npos)
      << reply;

  // The server itself is unaffected: another client still gets answers.
  const int ctl = connectUnix(path);
  ASSERT_GE(ctl, 0);
  sendAll(ctl, "{\"op\":\"ping\"}\n{\"op\":\"shutdown\"}\n");
  const std::string ctlReply = readUntilClose(ctl, &closed);
  ::close(ctl);
  EXPECT_NE(ctlReply.find("\"ev\":\"pong\""), std::string::npos) << ctlReply;
  server.join();
  EXPECT_EQ(rc, 0);
}

TEST(ServeServer, PauseAndResumeAreUnknownOps) {
  std::string path;
  const ServerConfig cfg = unixServer("ops", &path);
  int rc = -1;
  std::jthread server([&] { rc = runServer(cfg); });

  const int fd = connectUnix(path);
  ASSERT_GE(fd, 0) << "cannot connect to " << path;
  sendAll(fd,
          "{\"op\":\"submit\",\"id\":\"x\",\"candidate\":\"relay\","
          "\"n\":3,\"f\":1}\n"
          "{\"op\":\"status\"}\n"
          "{\"op\":\"pause\",\"id\":\"x\"}\n"
          "{\"op\":\"resume\",\"id\":\"x\"}\n"
          "{\"op\":\"shutdown\"}\n");
  bool closed = false;
  const std::string reply = readUntilClose(fd, &closed);
  ::close(fd);
  EXPECT_TRUE(closed);
  // The status job line carries no pause state.
  EXPECT_NE(reply.find("{\"candidate\":\"relay\",\"ev\":\"job\",\"id\":\"x\","
                       "\"priority\":0,\"state\":"),
            std::string::npos)
      << reply;
  EXPECT_EQ(reply.find("paused"), std::string::npos) << reply;
  EXPECT_NE(reply.find("{\"error\":\"unknown op 'pause'\",\"ev\":\"error\"}\n"),
            std::string::npos)
      << reply;
  EXPECT_NE(
      reply.find("{\"error\":\"unknown op 'resume'\",\"ev\":\"error\"}\n"),
      std::string::npos)
      << reply;
  // The job itself is untouched and drains before the server exits.
  EXPECT_NE(reply.find("\"id\":\"x\",\"states\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"status\":\"done\""), std::string::npos) << reply;
  server.join();
  EXPECT_EQ(rc, 0);
}

}  // namespace
}  // namespace boosting::serve
