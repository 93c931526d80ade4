// Node deployment generators.
//
// The paper deploys both networks i.i.d. uniformly over a square of size
// A = c0·n. For the secondary network the induced unit-disk graph must be
// connected (a standing assumption of the paper, §III), so the scenario
// resamples until connectivity holds — ScenarioPrefab::TryBuild caps the
// retry count.
#ifndef CRN_GEOM_DEPLOYMENT_H_
#define CRN_GEOM_DEPLOYMENT_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geom/vec2.h"

namespace crn::geom {

// Samples `count` points i.i.d. uniformly in `area`.
std::vector<Vec2> UniformDeployment(std::int32_t count, Aabb area, Rng& rng);

// Samples `count` points on a jittered grid covering `area`: one point per
// grid cell, uniformly placed within the cell. Produces connected, evenly
// covered topologies for tests/examples that need them deterministically.
std::vector<Vec2> JitteredGridDeployment(std::int32_t count, Aabb area, Rng& rng);

// Samples `count` points in `cluster_count` Gaussian-ish clusters (uniform
// disks around uniformly placed centers). Models the clustered SU
// populations the paper's introduction motivates (e.g. dense urban cells).
std::vector<Vec2> ClusteredDeployment(std::int32_t count, std::int32_t cluster_count,
                                      double cluster_radius, Aabb area, Rng& rng);

// True when the unit-disk graph over `points` with communication radius
// `radius` is connected (single component). Rejects a draw with an isolated
// point before any traversal, then joins grid cells narrower than r/√2
// (each a clique) with a union-find; O(n · neighbors) at worst
// (deployment.cc, DESIGN.md §5).
bool IsUnitDiskConnected(const std::vector<Vec2>& points, Aabb area, double radius);

}  // namespace crn::geom

#endif  // CRN_GEOM_DEPLOYMENT_H_
