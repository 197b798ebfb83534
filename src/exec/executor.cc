#include "exec/executor.h"

#include <thread>

#include "util/logging.h"

namespace mce::exec {

size_t ResolveThreadCount(uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    // The standard allows hardware_concurrency() to be unknowable; running
    // serially is the only safe default, but doing it silently makes
    // "why is --threads 0 not parallel" undiagnosable.
    MCE_LOG(WARNING) << "hardware_concurrency() returned 0 (unknown); "
                        "--threads 0 falls back to 1 worker";
    return 1;
  }
  return hw;
}

}  // namespace mce::exec
