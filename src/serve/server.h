// The transport layer of boosting_served: a single-threaded poll() event
// loop speaking the line-delimited flat-JSON protocol (serve/wire.h) over
// any mix of stdio, local TCP and unix-domain listeners, driving one
// AnalysisService between poll timeouts (each loop iteration is one
// service tick).
//
// Protocol (one request object per line; every reply is one event object
// per line, discriminated by "ev"):
//
//   {"op":"submit","id":"j1","candidate":"relay","n":3,"f":1
//    [,"claim":C][,"symmetry":"auto|off"][,"por":"auto|off"]
//    [,"priority":P][,"witness":bool][,"progress":bool]}
//       -> {"ev":"ack","id":"j1"}            accepted
//       -> {"ev":"error","id":"j1","error":...}  rejected
//       ... later, on the submitting connection:
//       -> {"ev":"progress","id":"j1","expansions":N}   (when "progress":true)
//       -> {"ev":"result","id":"j1","status":"done","summary":...,
//           "states":N,"witness_actions":N,"cache":"warm|cold|bypass",
//           "wall_ms":...,"exit_code":0|1[,"witness":...][,"error":...]}
//   {"op":"cancel","id":"j1"}
//       -> {"ev":"ack","op":"cancel","id":"j1"} or {"ev":"error",...}
//   {"op":"status"}   -> one {"ev":"job",...} line per live job, then
//                        {"ev":"status","live":N,"queued":N,"running":N}
//   {"op":"stats"}    -> {"ev":"stats","submitted":N,"cache_builds":N,...}
//   {"op":"ping"}     -> {"ev":"pong"}
//   {"op":"shutdown","mode":"drain"|"abort"}
//       -> {"ev":"ack","op":"shutdown"}; drain finishes live jobs first,
//          abort cancels them; either way the process then exits 0.
//
// End-of-input on stdin (when a stdio listener is configured) is an
// implicit drain-shutdown, which makes `printf '...' | boosting_served`
// a complete session. Closing a TCP/unix connection leaves its jobs
// running; their results are dropped.
//
// A submit carrying a key the server does not know is rejected with an
// error event naming the key. A request line longer than
// kMaxRequestLineBytes is answered with an error event and its connection
// is closed (on stdio: an implicit drain-shutdown, as at end of input).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "serve/service.h"
#include "serve/wire.h"

namespace boosting::serve {

// A parsed --listen specification.
struct ListenSpec {
  enum class Kind { Stdio, Tcp, Unix };
  Kind kind = Kind::Stdio;
  std::string host = "127.0.0.1";  // Tcp
  int port = 0;                    // Tcp; 0 = ephemeral (printed to stderr)
  std::string path;                // Unix
};

// Parse "stdio" | "tcp:PORT" | "tcp:HOST:PORT" | "unix:PATH". False with a
// flag-style diagnostic in *error on malformed specs (bad port, empty
// path, unknown scheme).
bool parseListenSpec(const std::string& text, ListenSpec* out,
                     std::string* error);

struct ServerConfig {
  std::vector<ListenSpec> listens;  // at least one
  unsigned maxConcurrent = 1;
  std::size_t cacheContexts = 8;
  // Accepted-submit cap (0 = unlimited). Once reached, further submits are
  // rejected; the server exits after the last accepted job finishes.
  std::uint64_t maxJobs = 0;
  int tickMs = 10;  // poll timeout == service tick interval
  obs::Registry* metrics = nullptr;
  std::string metricsJsonPath;  // written on exit when non-empty
};

// Longest request line accepted, newline excluded.
inline constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

// Map a submit request onto a JobSpec. False with a diagnostic in *error
// when the request has a key outside the submit grammar, a mistyped value
// or a mode other than auto|off; the domain checks (checkRequest) are
// AnalysisService::submit's.
bool parseSubmitRequest(const WireObject& req, JobSpec* spec,
                        std::string* error);

// Run the server until shutdown; returns the process exit code. Blocks the
// calling thread (which becomes the driving thread of the service).
int runServer(const ServerConfig& cfg);

}  // namespace boosting::serve
