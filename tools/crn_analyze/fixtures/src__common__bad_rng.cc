// Lint fixture (logical path src/common/bad_rng.cc): every form of banned
// randomness. crn_analyze --self-test requires [banned-rng] to fire here.
#include <cstdlib>
#include <random>

namespace crn {

int BadRandomDraws() {
  std::random_device device;
  std::mt19937 engine(device());
  srand(42);
  return static_cast<int>(engine()) + rand();
}

}  // namespace crn
