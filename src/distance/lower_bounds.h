// DTW lower bounds that have no SIMD kernel (LB_Kim, LB_PAA), used by the
// verifier and the FAST baseline. LB_Keogh lives in the kernel table
// (distance/simd/kernels.h).
//
// All bounds return *squared* values so callers compare against ε² without
// square roots in the hot path. Every bound B satisfies B ≤ DTW²_ρ.
#ifndef KVMATCH_DISTANCE_LOWER_BOUNDS_H_
#define KVMATCH_DISTANCE_LOWER_BOUNDS_H_

#include <limits>
#include <span>

namespace kvmatch {

/// Simplified LB_Kim (UCR Suite's LB_KimFL) of the normalized candidate
/// x[i] = (s[i] - mean) * inv_std against q: distances of the first and
/// last points (plus second/penultimate refinements when q.size() >= 4).
/// Only those (up to) four points of s are read and normalized, so a cNSM
/// candidate can be tested before anything normalizes its whole window.
/// `s` holds at least q.size() points.
double LbKimSquared(const double* s, double mean, double inv_std,
                    std::span<const double> q,
                    double threshold_sq
                    = std::numeric_limits<double>::infinity());

/// Converts per-position LB_Keogh contributions cb (the `cb` output of the
/// simd::Kernels lb_keogh kernel) into the suffix-cumulative array
/// used by DtwDistance: out[i] = sum_{k >= i} cb[k], out[m] = 0. `out` is
/// caller-owned and holds cb.size() + 1 doubles, so a verify loop can reuse
/// one buffer across candidates.
void SuffixCumulate(std::span<const double> cb, std::span<double> out);

/// LB_PAA (paper Eq. 3): piecewise-aggregate bound over p disjoint windows
/// of width w, using candidate window means vs envelope window means.
/// `s_means[i]`, `l_means[i]`, `u_means[i]` are the means of the i-th
/// disjoint window of S, L and U. Returns the squared bound
/// Σ w·contribution ≤ DTW²_ρ(S, Q).
double LbPaaSquared(std::span<const double> s_means,
                    std::span<const double> l_means,
                    std::span<const double> u_means, size_t w);

}  // namespace kvmatch

#endif  // KVMATCH_DISTANCE_LOWER_BOUNDS_H_
