// Test helper: while a ThreadStartFailure is in scope, every new thread
// in the process fails to start.  The default thread stack size is set
// beyond the address space, so pthread_create — and with it the
// std::thread constructor — fails with EAGAIN at once, without
// exhausting any real resource (which the sanitizer runtimes would not
// survive).  Threads started before the scope are unaffected.
#ifndef SSNO_TESTS_THREAD_START_FAILURE_HPP
#define SSNO_TESTS_THREAD_START_FAILURE_HPP

#include <pthread.h>

#include <cstddef>

namespace ssno {

class ThreadStartFailure {
 public:
  ThreadStartFailure() {
    pthread_getattr_default_np(&saved_);
    pthread_attr_t huge;
    pthread_attr_init(&huge);
    pthread_attr_setstacksize(&huge, std::size_t{1} << 60);
    pthread_setattr_default_np(&huge);
    pthread_attr_destroy(&huge);
  }
  ~ThreadStartFailure() {
    pthread_setattr_default_np(&saved_);
    pthread_attr_destroy(&saved_);
  }
  ThreadStartFailure(const ThreadStartFailure&) = delete;
  ThreadStartFailure& operator=(const ThreadStartFailure&) = delete;

 private:
  pthread_attr_t saved_;
};

}  // namespace ssno

#endif  // SSNO_TESTS_THREAD_START_FAILURE_HPP
