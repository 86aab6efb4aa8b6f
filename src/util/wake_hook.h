// WakeHook: a detachable "work finished" callback, fired from any thread.
//
// The serving loops sleep until an fd is ready or something wakes them
// (net/event_loop.h). Work that finishes on pool threads -- engine
// results, model builds -- has no fd of its own, so WatermarkEngine and
// ModelStore fire one of these right after publishing a result. set() and
// fire() serialize on one mutex: once set({}) returns, no call of the old
// callback is still running and none will start, which is what lets a
// loop detach before the fd its callback writes to is closed.
#pragma once

#include <functional>
#include <mutex>
#include <utility>

namespace emmark {

class WakeHook {
 public:
  void set(std::function<void()> fn) {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = std::move(fn);
  }

  void fire() const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fn_) fn_();
  }

 private:
  mutable std::mutex mutex_;
  std::function<void()> fn_;
};

}  // namespace emmark
