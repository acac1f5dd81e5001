#ifndef RISGRAPH_TESTS_RPC_TEST_UTIL_H_
#define RISGRAPH_TESTS_RPC_TEST_UTIL_H_

// Raw-socket helpers for protocol-level RPC tests: hand-rolled v2 peers that
// frame, handshake, and probe the server without going through RpcClient;
// plus the per-subscription projection RPC notification streams are
// compared under. Shared by the RPC and subscription tests.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "net/rpc_protocol.h"
#include "subscribe/subscription.h"

namespace risgraph::testutil {

/// The stream grouped by subscription id, each subscription's notifications
/// in delivery order. IClient promises only per-subscription order; over RPC
/// the interleaving across subscriptions depends on push timing.
inline std::vector<Notification> PerSubscription(
    std::vector<Notification> stream) {
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Notification& a, const Notification& b) {
                     return a.subscription_id < b.subscription_id;
                   });
  return stream;
}

inline int RawConnect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{5, 0};  // a hung server must fail assertions, not ctest timeouts
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

inline bool ReadExact(int fd, void* buf, size_t len) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (len > 0) {
    ssize_t n = ::read(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

inline bool SendFrameRaw(int fd, const std::vector<uint8_t>& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  return ::write(fd, &len, 4) == 4 &&
         ::write(fd, payload.data(), payload.size()) ==
             static_cast<ssize_t>(payload.size());
}

inline bool ReadFrameRaw(int fd, std::vector<uint8_t>* payload) {
  uint32_t len = 0;
  if (!ReadExact(fd, &len, 4) || len == 0 || len > rpc::kMaxFrameBytes) {
    return false;
  }
  payload->resize(len);
  return ReadExact(fd, payload->data(), len);
}

/// Performs the v2 Hello on a raw socket; returns the negotiated version
/// (0 on rejection), so it doubles as a boolean success check.
inline uint16_t HandshakeRaw(int fd,
                             uint16_t min_ver = rpc::kMinSupportedVersion,
                             uint16_t max_ver = rpc::kProtocolVersion) {
  std::vector<uint8_t> hello;
  rpc::Writer w(hello);
  rpc::WriteRequestHeader(w, 0, rpc::Op::kHello);
  w.U32(rpc::kHelloMagic);
  w.U16(min_ver);
  w.U16(max_ver);
  if (!SendFrameRaw(fd, hello)) return 0;
  std::vector<uint8_t> resp;
  if (!ReadFrameRaw(fd, &resp)) return 0;
  if (resp.size() < 11 ||
      resp[8] != static_cast<uint8_t>(rpc::Status::kOk)) {
    return 0;
  }
  uint16_t ver = 0;
  std::memcpy(&ver, resp.data() + 9, 2);
  return ver;
}

}  // namespace risgraph::testutil

#endif  // RISGRAPH_TESTS_RPC_TEST_UTIL_H_
