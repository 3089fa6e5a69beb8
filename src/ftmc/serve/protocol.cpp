#include "ftmc/serve/protocol.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace ftmc::serve {

std::string frame(std::string_view payload) {
  std::string out = std::to_string(payload.size());
  out.push_back('\n');
  out.append(payload);
  return out;
}

void set_no_delay(int fd) noexcept {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void write_frame(int fd, std::string_view payload) {
  const std::string framed = frame(payload);
  std::size_t written = 0;
  while (written < framed.size()) {
    const ssize_t n =
        ::write(fd, framed.data() + written, framed.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string("frame write failed: ") +
                          std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
}

bool FrameReader::fill() {
  if (buffer_.size() < 4096) buffer_.resize(4096);
  const ssize_t n = ::read(fd_, buffer_.data(), buffer_.size());
  if (n < 0) {
    if (errno == EINTR) {
      interrupted_ = true;
      return false;
    }
    throw ProtocolError(std::string("frame read failed: ") +
                        std::strerror(errno));
  }
  pos_ = 0;
  end_ = static_cast<std::size_t>(n);
  return n > 0;
}

bool FrameReader::read(std::string& payload) {
  interrupted_ = false;
  // Length line: ASCII digits up to '\n'.
  std::string length_line;
  for (;;) {
    if (pos_ == end_ && !fill()) {
      if (length_line.empty()) return false;  // clean EOF (or EINTR)
      if (interrupted_) return false;         // drain requested mid-prefix
      throw ProtocolError("EOF inside a frame length prefix");
    }
    const char c = buffer_[pos_++];
    if (c == '\n') break;
    if (c < '0' || c > '9' || length_line.size() > 9)
      throw ProtocolError("malformed frame length prefix");
    length_line.push_back(c);
  }
  if (length_line.empty())
    throw ProtocolError("malformed frame length prefix");
  const std::size_t length = std::stoul(length_line);
  if (length > kMaxFramePayload)
    throw ProtocolError("frame payload of " + length_line +
                        " bytes exceeds the 64 MiB limit");
  payload.clear();
  payload.reserve(length);
  while (payload.size() < length) {
    if (pos_ == end_ && !fill()) {
      if (interrupted_) return false;  // drain requested mid-payload
      throw ProtocolError("EOF inside a frame payload (expected " +
                          length_line + " bytes, got " +
                          std::to_string(payload.size()) + ")");
    }
    const std::size_t take =
        std::min(length - payload.size(), end_ - pos_);
    payload.append(buffer_.data() + pos_, take);
    pos_ += take;
  }
  return true;
}

}  // namespace ftmc::serve
