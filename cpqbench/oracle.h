// Brute-force oracles for the benchmark's correctness checks, built on the
// library's BruteForceKClosestPairs / BruteForceSemiClosestPairs.

#ifndef CPQBENCH_ORACLE_H_
#define CPQBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "workload.h"

namespace cpqbench {

/// The distances the query should return over point sets P and Q.
std::vector<double> OracleDistances(const QuerySpec& spec, const Items& p,
                                    const Items& q);

/// Exact nearest-Q distance of a seeded sample of P's points, by P id.
std::map<uint64_t, double> SemiOracleSample(const Items& p, const Items& q,
                                            uint64_t seed, size_t sample);

/// True when a Semi-CPQ result has one pair per point of P and agrees with
/// the sampled oracle.
bool SemiMatches(const std::vector<kcpq::PairResult>& got, size_t p_size,
                 const std::map<uint64_t, double>& sample);

}  // namespace cpqbench

#endif  // CPQBENCH_ORACLE_H_
