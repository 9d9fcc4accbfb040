#include "highrpm/runtime/worker.hpp"

#include <stdexcept>
#include <utility>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace highrpm::runtime {

bool pin_current_thread(unsigned cpu) noexcept {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= CPU_SETSIZE) return false;
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

unsigned hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

void Worker::start(std::function<void()> fn, std::optional<unsigned> pin_cpu) {
  if (thread_.joinable()) {
    throw std::logic_error("runtime::Worker: already started");
  }
  thread_ = std::thread([fn = std::move(fn), pin_cpu]() {
    if (pin_cpu) pin_current_thread(*pin_cpu);
    fn();
  });
}

void Worker::join() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace highrpm::runtime
