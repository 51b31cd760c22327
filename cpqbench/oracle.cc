#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "cpq/brute.h"

namespace cpqbench {
namespace {

using kcpq::Point;
using kcpq::Rect;

double Dist(const Point& a, const Point& b) {
  return std::hypot(a.x() - b.x(), a.y() - b.y());
}

/// Largest distance from `p` to any point of `r`.
double MaxDist(const Point& p, const Rect& r) {
  double s = 0.0;
  for (int d = 0; d < kcpq::kDims; ++d) {
    const double far = std::max(std::fabs(p.coord[d] - r.lo[d]),
                                std::fabs(p.coord[d] - r.hi[d]));
    s += far * far;
  }
  return std::sqrt(s);
}

Rect Mbr(const Items& items) {
  Rect r = Rect::Empty();
  for (const auto& [p, id] : items) r.Expand(p);
  return r;
}

std::vector<double> Distances(const std::vector<kcpq::PairResult>& pairs) {
  std::vector<double> d;
  d.reserve(pairs.size());
  for (const kcpq::PairResult& r : pairs) d.push_back(r.distance);
  return d;
}

/// The K farthest pair distances, exactly, without the full cross product.
/// Pairing each p with its farthest of Q's eight directional extremes gives
/// |P| distinct pairs, so their K-th largest distance L is a lower bound on
/// the true K-th farthest distance. A pair at distance >= L needs both
/// endpoints at distance >= L from the other set's bounding box, which only
/// points near the corners are; the cross product of those is exhaustive.
std::vector<double> FarthestDistances(const Items& p, const Items& q,
                                      size_t k) {
  static constexpr double kDirs[8][2] = {{1, 0},  {-1, 0}, {0, 1},  {0, -1},
                                         {1, 1},  {1, -1}, {-1, 1}, {-1, -1}};
  std::vector<Point> extremes;
  for (const auto& dir : kDirs) {
    const auto best = std::max_element(
        q.begin(), q.end(), [&](const auto& a, const auto& b) {
          return a.first.x() * dir[0] + a.first.y() * dir[1] <
                 b.first.x() * dir[0] + b.first.y() * dir[1];
        });
    extremes.push_back(best->first);
  }
  double bound = 0.0;
  if (k <= p.size()) {
    std::vector<double> reach;
    reach.reserve(p.size());
    for (const auto& [pp, id] : p) {
      double best = 0.0;
      for (const Point& e : extremes) best = std::max(best, Dist(pp, e));
      reach.push_back(best);
    }
    std::nth_element(reach.begin(), reach.begin() + (k - 1), reach.end(),
                     std::greater<double>());
    bound = reach[k - 1] * (1.0 - 1e-12);
  }
  const Rect mbr_p = Mbr(p);
  const Rect mbr_q = Mbr(q);
  std::vector<Point> fp, fq;
  for (const auto& [pp, id] : p) {
    if (MaxDist(pp, mbr_q) >= bound) fp.push_back(pp);
  }
  for (const auto& [qq, id] : q) {
    if (MaxDist(qq, mbr_p) >= bound) fq.push_back(qq);
  }
  std::vector<double> d;
  d.reserve(fp.size() * fq.size());
  for (const Point& a : fp) {
    for (const Point& b : fq) d.push_back(Dist(a, b));
  }
  const size_t keep = std::min(k, d.size());
  std::partial_sort(d.begin(), d.begin() + keep, d.end(),
                    std::greater<double>());
  d.resize(keep);
  return d;
}

}  // namespace

std::vector<double> OracleDistances(const QuerySpec& spec, const Items& p,
                                    const Items& q) {
  using kcpq::BruteForceKClosestPairs;
  using kcpq::LeafKernel;
  using kcpq::Metric;
  switch (spec.kind) {
    case QueryKind::kRect: {
      Items fp, fq;
      for (const auto& it : p) {
        if (spec.rect.Contains(it.first)) fp.push_back(it);
      }
      for (const auto& it : q) {
        if (spec.rect.Contains(it.first)) fq.push_back(it);
      }
      return Distances(BruteForceKClosestPairs(fp, fq, spec.k));
    }
    case QueryKind::kClosestHeap:
    case QueryKind::kClosestStd:
    case QueryKind::kHs:
      return Distances(BruteForceKClosestPairs(p, q, spec.k, false,
                                               Metric::kL2,
                                               LeafKernel::kPlaneSweep));
    case QueryKind::kSelf:
      return Distances(BruteForceKClosestPairs(p, p, spec.k, true,
                                               Metric::kL2,
                                               LeafKernel::kPlaneSweep));
    case QueryKind::kFarthest:
      return FarthestDistances(p, q, spec.k);
  }
  return {};
}

std::map<uint64_t, double> SemiOracleSample(const Items& p, const Items& q,
                                            uint64_t seed, size_t sample) {
  Items picked;
  for (size_t i = 0; i < sample && !p.empty(); ++i) {
    picked.push_back(p[Mix(seed, i) % p.size()]);
  }
  std::map<uint64_t, double> out;
  for (const kcpq::PairResult& r :
       kcpq::BruteForceSemiClosestPairs(picked, q)) {
    out[r.p_id] = r.distance;
  }
  return out;
}

bool SemiMatches(const std::vector<kcpq::PairResult>& got, size_t p_size,
                 const std::map<uint64_t, double>& sample) {
  if (got.size() != p_size) return false;
  size_t seen = 0;
  for (const kcpq::PairResult& r : got) {
    const auto it = sample.find(r.p_id);
    if (it == sample.end()) continue;
    ++seen;
    if (std::fabs(r.distance - it->second) > 1e-9) return false;
  }
  return seen == sample.size();
}

}  // namespace cpqbench
