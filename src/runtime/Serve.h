//===- runtime/Serve.h - Persistent solving service -------------*- C++ -*-===//
//
// Part of the mucyc project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mucyc-serve daemon: a long-lived solving service accepting CHC jobs
/// over a length-prefixed protocol, on stdio or a local (UNIX domain)
/// socket. Jobs are admitted through a persistent SchedulerSession with
/// per-request deadlines, isolated behind the recovery ladder (a crashing
/// job degrades to an `unknown` response; the daemon survives), and served
/// through the two-tier ResultStore so identical or alpha-renamed
/// resubmissions return a Verify-certified cached answer in microseconds.
///
/// Wire format: every message is one frame — a 4-byte big-endian payload
/// length followed by that many bytes of UTF-8 text. The payload is a verb
/// line ("solve", "ping", "stats"), `key: value` header lines, a blank
/// line, and an optional body (the SMT-LIB2 system for "solve"). Responses
/// mirror the shape with verbs "result", "pong", "stats" and "error".
/// A frame larger than the configured cap is drained and answered with an
/// "error" frame (the connection stays usable); a malformed or truncated
/// frame closes the connection. Mid-job client disconnect is detected by
/// polling the connection while the job runs and cancels the job through
/// its CancelToken.
///
//===----------------------------------------------------------------------===//

#ifndef MUCYC_RUNTIME_SERVE_H
#define MUCYC_RUNTIME_SERVE_H

#include "runtime/Scheduler.h"

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace mucyc {

//===----------------------------------------------------------------------===
// Wire codec — free functions so protocol tests can target them directly.
//===----------------------------------------------------------------------===

/// One protocol message, either direction.
struct WireMessage {
  std::string Verb;
  std::map<std::string, std::string> Headers;
  std::string Body;

  std::string header(const std::string &Key, std::string Default = "") const {
    auto It = Headers.find(Key);
    return It == Headers.end() ? std::move(Default) : It->second;
  }
};

/// Renders a message as one frame payload (verb, headers, blank line,
/// body). Header keys/values must not contain newlines.
std::string formatWireMessage(const WireMessage &M);

/// Parses a frame payload. Returns false (and fills \p Err) on a payload
/// with no verb line; unknown headers are preserved, junk header lines
/// (no ": ") are skipped.
bool parseWireMessage(const std::string &Payload, WireMessage &M,
                      std::string *Err);

/// What readFrame concluded.
enum class FrameStatus {
  Ok,        ///< A complete frame was read.
  Eof,       ///< Clean end of stream at a frame boundary.
  Truncated, ///< Stream ended mid-frame (protocol violation — close).
  Oversized, ///< Frame exceeded \p MaxBytes; payload drained and dropped.
  IoError,   ///< read() failed.
  TimedOut,  ///< readFrameDeadline: no progress within the stall budget.
};

/// Reads one length-prefixed frame from \p Fd. An oversized frame is fully
/// drained (the stream stays framed) but its payload is discarded. Partial
/// reads and EINTR are handled; the call blocks until a frame completes or
/// the stream ends. Same as readFrameDeadline() with no stall budget.
FrameStatus readFrame(int Fd, std::string &Payload, size_t MaxBytes);

/// readFrame with slow-loris protection: \p StallTimeoutMs (0 = no bound)
/// bounds how long the stream may sit byte-silent *mid-frame* (and, when
/// \p IdleTimeoutMs is nonzero, how long it may idle before the first
/// header byte). A
/// legitimate slow writer that keeps trickling bytes never trips it; a
/// half-frame left dangling does, as TimedOut.
FrameStatus readFrameDeadline(int Fd, std::string &Payload, size_t MaxBytes,
                              int StallTimeoutMs, int IdleTimeoutMs = 0);

/// Writes one frame to \p Fd, riding out EINTR and partial writes. Returns
/// false on a write failure (e.g. the peer is gone).
bool writeFrame(int Fd, const std::string &Payload);

//===----------------------------------------------------------------------===
// Daemon
//===----------------------------------------------------------------------===

struct ServeOptions {
  /// UNIX socket path for runSocket(); unused in stdio mode.
  std::string SocketPath;
  /// Worker threads for the scheduler session (0 = hardware).
  unsigned Jobs = 0;
  /// Result-store directory; empty = in-memory tier only.
  std::string StoreDir;
  /// The daemon's SolverOptions, which every request's headers overlay: a
  /// "config" header replaces only the engine shape
  /// (SolverOptions::applyConfig), and the runtime knobs (isolation, hard
  /// limits, chaos seed, budgets, ...) stay unless a header of their own
  /// overrides them.
  SolverOptions BaseOpts;
  /// Deadline applied to requests that send no "deadline-ms" header
  /// (0 = none).
  uint64_t DefaultDeadlineMs = 0;
  /// Frame-size cap; larger frames are rejected with an "error" response.
  size_t MaxFrameBytes = 16u << 20;

  // Admission control / overload hardening.

  /// Max jobs queued or running in the scheduler session at once; a solve
  /// arriving past the bound is answered with an "overloaded" frame instead
  /// of being enqueued (0 = unbounded, the historical behavior).
  unsigned MaxPending = 0;
  /// Max concurrent connections; excess accepts are closed immediately
  /// after an "overloaded" frame (0 = unbounded).
  unsigned MaxConnections = 0;
  /// Mid-frame read-stall budget per connection in ms: a client that sends
  /// half a frame then goes silent is disconnected instead of pinning its
  /// thread (0 = wait forever).
  int ReadStallMs = 10000;
  /// Total idle budget between requests in ms (0 = no idle limit).
  int IdleTimeoutMs = 0;
};

/// Daemon-wide counters, exposed over the "stats" verb.
struct ServeStats {
  std::atomic<uint64_t> Connections{0};
  std::atomic<uint64_t> Requests{0};   ///< "solve" frames accepted.
  std::atomic<uint64_t> Definitive{0}; ///< sat/unsat responses.
  std::atomic<uint64_t> CacheHits{0};  ///< Served from the result store.
  std::atomic<uint64_t> Cancelled{0};  ///< Jobs cancelled (disconnects).
  std::atomic<uint64_t> BadFrames{0};  ///< Malformed/oversized frames.
  std::atomic<uint64_t> Overloaded{0}; ///< Requests shed by admission control.
  std::atomic<uint64_t> TimedOutConns{0}; ///< Connections cut for stalling.
  std::atomic<uint64_t> WorkerCrashes{0}; ///< Isolated workers that died.
};

class ServeDaemon {
public:
  explicit ServeDaemon(ServeOptions O);
  ~ServeDaemon();

  /// Serves one connection reading frames from \p InFd and writing to
  /// \p OutFd until EOF / error. This is the whole per-connection state
  /// machine; tests drive it directly over a socketpair.
  void serveConnection(int InFd, int OutFd);

  /// Stdio mode: serves exactly one connection on fd 0/1, then returns 0.
  int runStdio();

  /// Socket mode: binds SocketPath, accepts connections (one thread each)
  /// until stop(). Returns 0 on clean shutdown, 1 on a bind/listen error
  /// (diagnostic on stderr).
  int runSocket();

  /// Stops runSocket(): closes the listener, cancels in-flight jobs, joins
  /// connection threads. Safe from any thread / signal-ish contexts.
  void stop();

  const ServeStats &stats() const { return Stats; }
  ResultStore &store() { return Store; }

private:
  /// Handles one parsed message, producing the response frame payload.
  /// \p ConnFd (>= 0) is polled for client disconnect while a solve job
  /// runs; -1 disables disconnect detection (tests).
  std::string handle(const WireMessage &M, int ConnFd);
  std::string handleSolve(const WireMessage &M, int ConnFd);

  ServeOptions Opts;
  ResultStore Store;
  SchedulerSession Session;
  ServeStats Stats;

  std::atomic<bool> Stopping{false};
  std::atomic<int> ListenFd{-1};
  std::mutex ThreadsMu;
  std::vector<std::thread> ConnThreads;
};

} // namespace mucyc

#endif // MUCYC_RUNTIME_SERVE_H
