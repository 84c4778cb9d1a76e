// Sakoe-Chiba envelopes for banded DTW (paper §III-C).
//
// L_i = min_{|r|<=rho} x_{i+r},  U_i = max_{|r|<=rho} x_{i+r}, with the
// window clamped to the sequence. Computed in O(n) with Lemire's streaming
// min/max: two monotone queues of indices, kept in one flat array. Every
// index enters each queue once and the window's start only moves forward,
// so each queue is a plain [head, tail) range over n slots.
//
// One routine serves every envelope in the system: the query envelope
// (LB_Keogh_EQ), the verifier's block-wide candidate envelope
// (LB_Keogh_EC over a gathered block) and FAST's per-candidate envelope.
#ifndef KVMATCH_DISTANCE_ENVELOPE_H_
#define KVMATCH_DISTANCE_ENVELOPE_H_

#include <cstddef>
#include <span>
#include <vector>

namespace kvmatch {

struct Envelope {
  std::vector<double> lower;
  std::vector<double> upper;
};

/// Writes the envelope of `x` with band width `rho` into `lower` and
/// `upper` (each at least x.size() long). `queues` is the monotone-queue
/// storage; it grows to 2·x.size() indices and is reused as-is across
/// calls, so a caller that keeps it makes repeated envelopes
/// allocation-free.
void BuildEnvelope(std::span<const double> x, size_t rho, double* lower,
                   double* upper, std::vector<size_t>& queues);

/// Convenience form that allocates its own result and scratch.
Envelope BuildEnvelope(std::span<const double> q, size_t rho);

}  // namespace kvmatch

#endif  // KVMATCH_DISTANCE_ENVELOPE_H_
