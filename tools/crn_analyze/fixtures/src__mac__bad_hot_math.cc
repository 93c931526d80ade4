// Lint fixture (logical path src/mac/bad_hot_math.cc): per-event geometry
// math in the SIR hot path. crn_analyze --self-test requires [hot-path-math]
// to fire here — on the pow() call and on the unsquared Distance() call;
// DistanceSquared() on the last line must NOT fire.
#include <cmath>

#include "geom/vec2.h"

namespace crn::mac {

double BadHotGain(double power, double d2, double alpha) {
  return power * std::pow(d2, -alpha / 2.0);
}

double BadHotRange(geom::Vec2 a, geom::Vec2 b) { return geom::Distance(a, b); }

double FineSquaredRange(geom::Vec2 a, geom::Vec2 b) {
  return geom::DistanceSquared(a, b);
}

}  // namespace crn::mac
