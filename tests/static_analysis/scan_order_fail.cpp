// Deliberately lock-order-inverted negative example for the parallel-epoch
// scan protocol: this file MUST NOT compile under Clang with
// -Wthread-safety -Wthread-safety-beta -Werror=thread-safety
// -Werror=thread-safety-beta. It is the canary proving the hierarchy
// checking stays armed for a leaf mutex declared ACQUIRED_AFTER the epoch
// mutex — if the StaticAnalysis.ScanOrderNegative ctest check
// (tests/CMakeLists.txt, WILL_FAIL) ever sees this build succeed, the
// wiring is broken, not this file.
//
// The two mutexes keep the shape of the parallel global epoch's former
// scan/apply pair: an epoch mutex publishing scan state, and a per-slot
// apply leaf under which workers once buffered ratings while the
// coordinator scanned. The service no longer has that leaf (every worker
// now stays parked from the barrier to the commit), but the shape still
// exercises the check: taking the epoch mutex while holding the leaf (as
// inverted() does) is the inversion it must reject.
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace {

class ScanHierarchy {
 public:
  // Correct order: scan state under the epoch mutex, the apply leaf taken
  // on its own afterwards — as the epoch coordinator / the worker rating
  // path write it.
  void ordered() {
    {
      p2prep::util::MutexLock epoch(epoch_mu_);
      ++scan_next_;
    }
    p2prep::util::MutexLock apply(apply_mu_);
    pending_.push_back(scan_done_);
  }

  // BUG (by design): consults scan progress under epoch_mu_ while still
  // holding the apply leaf, violating the declared
  // ACQUIRED_AFTER(epoch_mu_) ordering.
  void inverted() {
    p2prep::util::MutexLock apply(apply_mu_);
    p2prep::util::MutexLock epoch(epoch_mu_);
    pending_.push_back(scan_next_);
  }

 private:
  p2prep::util::Mutex epoch_mu_;
  p2prep::util::Mutex apply_mu_ P2PREP_ACQUIRED_AFTER(epoch_mu_);
  std::size_t scan_next_ P2PREP_GUARDED_BY(epoch_mu_) = 0;
  std::size_t scan_done_ = 0;
  std::vector<std::size_t> pending_ P2PREP_GUARDED_BY(apply_mu_);
};

}  // namespace

int main() {
  ScanHierarchy h;
  h.ordered();
  h.inverted();
  return 0;
}
