#pragma once
// Communication-cost model of paper Section V-B / Theorem 2.
//
// After partitioning the subgraph into P vertex parts and each feature
// vector into Q slices, one propagation pass moves
//   g_comm(P, Q) = idx_bytes·Q·n·d  +  elem_bytes·P·n·f·γ_P   bytes
// between DRAM and cache (first term: the CSR neighbor lists streamed once
// per feature slice; second term: the source-feature working sets loaded
// once per vertex part). Theorem 2: with P = 1 and
// Q* = max{C, elem_bytes·n·f / S_cache}, g_comm ≤ 2 · min g_comm whenever
// C ≤ (elem_bytes/idx_bytes)·f/d and idx_bytes·n·d ≤ S_cache.
//
// The model counts the traffic of feature slices that each fit the
// private cache. In a row-major feature matrix that premise fails: a
// slice narrower than a cache line still occupies whole lines, so a
// slice's cache footprint never falls below n·64 B, and every slice
// beyond the first re-streams the index lists. On the tiled kernel Q = C
// beat Q* both with the feature matrix inside the last-level cache and
// with it 1.4× larger (EXPERIMENTS.md, "Choosing Q"), so the kernels
// slice for parallelism only (choose_parallel_partitions) unless a
// caller pins S_cache to observe Theorem 2's response.

#include <cstddef>
#include <cstdint>

namespace gsgcn::propagation {

struct CommModelParams {
  std::int64_t n = 0;          // subgraph vertices
  double d = 0.0;              // subgraph average degree
  std::int64_t f = 0;          // feature length
  std::size_t elem_bytes = 8;  // paper: DOUBLE features
  std::size_t idx_bytes = 2;   // paper: INT16 subgraph vertex indices
  std::size_t cache_bytes = 256 * 1024;  // private L2 per core
  int processors = 1;          // C
};

/// Total compute work n·d·f (independent of the partitioning — the model's
/// g_comp).
double g_comp(const CommModelParams& m);

/// Modeled communication volume in bytes for a (P, Q) partitioning with
/// source-set expansion ratio gamma_p (γ_P ∈ [1/P, 1]).
double g_comm(const CommModelParams& m, int p, int q, double gamma_p);

/// The paper's feature-only choice Q* = max{C, ⌈elem_bytes·n·f/S_cache⌉},
/// clamped to at most f (never more slices than features). Deliberately
/// NOT rounded up to a multiple of C — that can break the 2-approximation.
/// Throws if cache_bytes is 0 or processors < 1.
int choose_feature_partitions(const CommModelParams& m);

/// Narrowest feature slice worth a processor: the tiled kernel's
/// register tile (propagation::tiled::kChunkCols). A narrower slice
/// costs more per feature than another processor returns.
inline constexpr std::int64_t kMinSliceCols = 32;

/// Q the propagation kernels use when the caller pins nothing: one slice
/// per processor, none narrower than kMinSliceCols features, so
/// min{C, ⌈f/kMinSliceCols⌉} and at least 1. Throws if processors < 1.
int choose_parallel_partitions(std::int64_t f, int processors);

/// Lower bound elem_bytes·n·f on g_comm over all (P, Q, γ) — the quantity
/// Theorem 2's 2-approximation is measured against.
double g_comm_lower_bound(const CommModelParams& m);

/// True iff Theorem 2's preconditions hold: C ≤ (elem/idx)·f/(2d)·…  —
/// in the paper's constants (elem=8, idx=2): C ≤ 4f/d and 2nd ≤ S_cache.
bool theorem2_preconditions(const CommModelParams& m);

}  // namespace gsgcn::propagation
