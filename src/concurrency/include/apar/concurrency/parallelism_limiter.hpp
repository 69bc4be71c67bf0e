#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace apar::concurrency {

/// RAII permit against a counted limit; models the "only 4 hardware contexts
/// on one node" constraint used to reproduce FarmThreads' plateau (Fig. 17).
class ParallelismLimiter {
 public:
  explicit ParallelismLimiter(std::size_t permits)
      : permits_(permits ? permits : 1), available_(permits_) {}

  class Permit {
   public:
    explicit Permit(ParallelismLimiter& l) : limiter_(&l) { l.acquire(); }
    ~Permit() {
      if (limiter_) limiter_->release();
    }
    Permit(Permit&& other) noexcept : limiter_(other.limiter_) {
      other.limiter_ = nullptr;
    }
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;
    Permit& operator=(Permit&&) = delete;

   private:
    ParallelismLimiter* limiter_;
  };

  [[nodiscard]] Permit permit() { return Permit(*this); }

  [[nodiscard]] std::size_t limit() const { return permits_; }

 private:
  void acquire() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return available_ > 0; });
    --available_;
  }
  void release() {
    {
      std::lock_guard lock(mutex_);
      ++available_;
    }
    cv_.notify_one();
  }

  const std::size_t permits_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t available_;
};

}  // namespace apar::concurrency
