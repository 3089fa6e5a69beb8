// Length-prefixed JSONL framing for `ftmc serve`.
//
// One frame = the payload's byte length as ASCII decimal, a single '\n',
// then exactly that many payload bytes (the JSON document).  The length
// line makes the stream self-delimiting without escaping — payloads may
// contain newlines — and trivially implementable from any language
// (tools/serve_client.py is the reference client).  The same framing runs
// over stdio (fds 0/1) and TCP sockets; both sides of the protocol use the
// helpers here.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ftmc::serve {

class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// RPC surface version (docs/PROTOCOL.md).  Every request must carry it
/// as its "v" member and every response echoes it; a missing or different
/// version is rejected with the `version_mismatch` error code so protocol
/// drift fails loudly instead of half-working.
inline constexpr const char* kRpcVersion = "ftmc.rpc.v1";

/// Upper bound on one frame's payload (a malformed or hostile length
/// prefix must not allocate unbounded memory).
constexpr std::size_t kMaxFramePayload = 64u << 20;

/// A payload wrapped in its frame ("<len>\n<payload>"), for clients/tests.
std::string frame(std::string_view payload);

/// Disables Nagle's algorithm on a TCP socket (best effort).  Both ends of
/// a pipelined session need it: otherwise a small frame written while an
/// earlier one is unacknowledged waits for the peer's delayed ACK.
void set_no_delay(int fd) noexcept;

/// Writes one frame to `fd`, handling short writes.  Throws ProtocolError
/// on I/O failure (e.g. the peer hung up).
void write_frame(int fd, std::string_view payload);

/// Buffered frame reader over a POSIX fd (socket, pipe, or stdin).
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Reads the next frame into `payload`.  Returns false on clean EOF at a
  /// frame boundary; throws ProtocolError on a malformed length prefix,
  /// EOF mid-frame, or I/O error.  EINTR during a blocking read also
  /// returns false, with was_interrupted() set (graceful-drain path).
  bool read(std::string& payload);

  /// True when the last read() returned false because the blocking read
  /// was interrupted by a signal (graceful-drain path) rather than EOF.
  bool was_interrupted() const noexcept { return interrupted_; }

 private:
  bool fill();

  int fd_;
  std::vector<char> buffer_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  bool interrupted_ = false;
};

}  // namespace ftmc::serve
