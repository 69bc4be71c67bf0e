#include "apar/net/connection_pool.hpp"

namespace apar::net {

namespace {

constexpr std::size_t kMaxIdlePerEndpoint = 8;

}  // namespace

ConnectionPool::ConnectionPool() {
  stats_.export_as("net.pool", {{"pool", "TCP"}});
}

ConnectionPool::Checkout ConnectionPool::acquire(const Endpoint& endpoint,
                                                 Deadline deadline) {
  std::size_t discarded = 0;
  for (;;) {
    Socket candidate;
    {
      std::lock_guard lock(mutex_);
      auto it = idle_.find(endpoint);
      if (it == idle_.end() || it->second.empty()) break;
      candidate = std::move(it->second.back());
      it->second.pop_back();
    }
    // Validate outside the lock: idle_and_healthy polls the fd.
    if (candidate.idle_and_healthy()) {
      stats_.reuses.add();
      return {std::move(candidate), true, discarded};
    }
    stats_.discards.add();
    ++discarded;
  }
  Socket fresh = dial(endpoint, deadline);
  stats_.dials.add();
  return {std::move(fresh), false, discarded};
}

void ConnectionPool::give_back(const Endpoint& endpoint, Socket socket) {
  if (!socket.valid()) return;
  std::lock_guard lock(mutex_);
  auto& bucket = idle_[endpoint];
  if (bucket.size() >= kMaxIdlePerEndpoint) return;  // socket closes here
  bucket.push_back(std::move(socket));
}

std::size_t ConnectionPool::evict(const Endpoint& endpoint) {
  std::vector<Socket> victims;
  {
    std::lock_guard lock(mutex_);
    auto it = idle_.find(endpoint);
    if (it == idle_.end()) return 0;
    victims = std::move(it->second);
    idle_.erase(it);
    stats_.evictions.add(victims.size());
  }
  // victims close outside the lock
  return victims.size();
}

std::size_t ConnectionPool::idle_count(const Endpoint& endpoint) const {
  std::lock_guard lock(mutex_);
  auto it = idle_.find(endpoint);
  return it == idle_.end() ? 0 : it->second.size();
}

}  // namespace apar::net
