// Loopback ports for multi-node test clusters.
//
// Every node of a cluster needs the whole address list before any node
// starts, so the ports are picked up front. Picking them by binding port 0
// and closing the probe races with the rest of the machine: the kernel hands
// the same ephemeral ports to other processes' connect() calls and port-0
// binds (parallel ctest runs several network suites), and a node's later
// bind of its port then fails. These ports come from just below the kernel's
// ephemeral range, where nothing is assigned implicitly, starting at a
// per-process offset; each stays bound and listening by its probe until
// release(), so concurrent pickers skip it. Call release(i) right before the
// node that owns port i starts.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace mahimahi::net {

class LoopbackPorts {
 public:
  explicit LoopbackPorts(std::size_t count) {
    std::uint32_t ephemeral_low = 32768;
    std::ifstream("/proc/sys/net/ipv4/ip_local_port_range") >> ephemeral_low;
    const std::uint32_t high = ephemeral_low;
    const std::uint32_t low = high > 16384 + 1024 ? high - 16384 : 1024;
    const std::uint32_t span = high - low;
    std::uint32_t candidate =
        low + static_cast<std::uint32_t>(::getpid()) * 64 % span;
    for (std::uint32_t tried = 0; probes_.size() < count; ++tried, ++candidate) {
      if (tried == span) throw std::runtime_error("LoopbackPorts: no free port");
      if (candidate >= high) candidate = low;
      const int fd = bind_listener(static_cast<std::uint16_t>(candidate));
      if (fd < 0) continue;
      probes_.push_back(fd);
      ports_.push_back(static_cast<std::uint16_t>(candidate));
    }
  }

  ~LoopbackPorts() {
    for (std::size_t i = 0; i < probes_.size(); ++i) release(i);
  }

  LoopbackPorts(const LoopbackPorts&) = delete;
  LoopbackPorts& operator=(const LoopbackPorts&) = delete;

  std::uint16_t port(std::size_t i) const { return ports_[i]; }
  std::size_t size() const { return ports_.size(); }

  // Hands port i over: closes its probe. Idempotent.
  void release(std::size_t i) {
    if (i >= probes_.size() || probes_[i] < 0) return;
    ::close(probes_[i]);
    probes_[i] = -1;
  }

 private:
  // Binds like net/tcp.h TcpListener (SO_REUSEADDR, 127.0.0.1), so a port
  // the probe gets is one the node will get. -1 when taken.
  static int bind_listener(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) != 0 ||
        ::listen(fd, 1) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  std::vector<int> probes_;
  std::vector<std::uint16_t> ports_;
};

}  // namespace mahimahi::net
