#include "apar/aop/context.hpp"

#include <stdexcept>

#include "apar/common/log.hpp"

namespace apar::aop {

Context::~Context() {
  // Drain any still-outstanding aspect work before members are destroyed;
  // TaskGroup's destructor would wait anyway, but quiesce also flushes
  // aspect-private queues.
  try {
    quiesce();
  } catch (...) {
    // Destructors must not throw; a failed task's exception was the
    // caller's to collect via quiesce() before destruction.
    APAR_ERROR("aop") << "exception swallowed during Context teardown";
  }
}

void Context::attach(std::shared_ptr<Aspect> aspect) {
  if (!aspect) throw std::invalid_argument("attach: null aspect");
  {
    std::unique_lock lock(mutex_);
    for (const auto& existing : aspects_) {
      if (existing->name() == aspect->name())
        throw std::invalid_argument("attach: aspect '" + aspect->name() +
                                    "' is already attached");
    }
    aspects_.push_back(aspect);
    cache_.clear();
  }
  epoch_.fetch_add(1, std::memory_order_release);
  aspect->on_attach(*this);
}

std::shared_ptr<Aspect> Context::detach(std::string_view name) {
  std::shared_ptr<Aspect> removed;
  {
    std::unique_lock lock(mutex_);
    for (auto it = aspects_.begin(); it != aspects_.end(); ++it) {
      if ((*it)->name() == name) {
        removed = *it;
        aspects_.erase(it);
        break;
      }
    }
    if (removed) cache_.clear();
  }
  if (removed) {
    epoch_.fetch_add(1, std::memory_order_release);
    removed->on_detach(*this);
  }
  return removed;
}

std::shared_ptr<Aspect> Context::find(std::string_view name) const {
  std::shared_lock lock(mutex_);
  for (const auto& aspect : aspects_) {
    if (aspect->name() == name) return aspect;
  }
  return nullptr;
}

std::vector<std::string> Context::attached() const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(aspects_.size());
  for (const auto& aspect : aspects_) names.push_back(aspect->name());
  return names;
}

void Context::quiesce() {
  // Aspects may produce more work from their on_quiesce hooks (e.g. a
  // dynamic farm flushing its queue spawns result deliveries), so iterate
  // to a fixed point.
  constexpr int kMaxRounds = 64;
  for (int round = 0; round < kMaxRounds; ++round) {
    tasks_.wait();
    std::vector<std::shared_ptr<Aspect>> snapshot;
    {
      std::shared_lock lock(mutex_);
      snapshot = aspects_;
    }
    for (const auto& aspect : snapshot) aspect->on_quiesce(*this);
    if (tasks_.outstanding() == 0) {
      tasks_.wait();  // rethrow any error captured by the final tasks
      return;
    }
  }
  throw std::runtime_error(
      "Context::quiesce did not reach a fixed point (an aspect keeps "
      "generating work)");
}

detail::SnapshotPtr Context::snapshot_stack() {
  static const detail::SnapshotPtr empty =
      std::make_shared<const detail::AspectStack>();
  const auto& stack = detail::tls_aspect_stack();
  if (stack.empty()) return empty;
  return std::make_shared<const detail::AspectStack>(stack);
}

}  // namespace apar::aop
