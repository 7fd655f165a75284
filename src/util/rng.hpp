// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic element of the simulation (CSMA backoff draws, clock
// jitter, packet-loss coin flips) draws from an Rng seeded explicitly, so
// a run is reproducible bit-for-bit from its seed. We use xoshiro256** —
// small, fast, and good enough statistical quality for simulation (this
// is not a cryptographic generator; crypto lives in src/crypto).
#pragma once

#include <cstdint>

namespace wile {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x57694c45u /* "WiLE" */);

  /// Uniform 64-bit value.
  std::uint64_t next();

  /// Uniform integer in [0, bound). bound must be > 0. Uses rejection
  /// sampling, so the distribution is exactly uniform; a power-of-two
  /// bound never rejects and takes one draw.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Fork an independent stream (e.g. one per simulated node) so adding a
  /// node does not perturb the draws other nodes see.
  Rng fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace wile
