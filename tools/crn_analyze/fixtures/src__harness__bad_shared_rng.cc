// Lint fixture (logical path src/harness/bad_shared_rng.cc): a mutable
// process-wide generator shared by every worker thread of the parallel
// runner. crn_analyze --self-test requires [shared-mutable-rng] to fire here.
#include "common/rng.h"

namespace crn::harness {

static Rng g_shared_rng("fixture", 1234);

double NextSharedSample() { return g_shared_rng.UniformDouble(); }

}  // namespace crn::harness
