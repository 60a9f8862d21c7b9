// Columnar chordal-row kernels shared by the orientation protocols'
// batch guard evaluators (Dftno, Stno).
//
// The SP2 edge-label guard asks, per node p, whether any incident port
// label disagrees with the chordal distance of the endpoint names:
//     ∃ l: π_p[l] ≠ (η_p − η_{q_l}) mod N.
// In the SoA layout both π_p and p's adjacency are contiguous CSR rows
// and η is one flat NodeColumn, so the check is a straight row scan
// with one gather — the densest per-port work in the orientation
// guards.  A no-division fast path handles the common case of in-range
// names and drops to the exact scalar loop for out-of-range names
// (arbitrary transient faults can put anything in η via setRawNode, and
// the batch kernels must stay bit-identical to the scalar guards there
// too).
#ifndef SSNO_ORIENTATION_CHORDAL_KERNEL_HPP
#define SSNO_ORIENTATION_CHORDAL_KERNEL_HPP

#include "core/types.hpp"
#include "orientation/chordal.hpp"

namespace ssno {

/// Exact reference loop: true iff some port label in pi[0..deg) differs
/// from the chordal distance (etaP − eta[adj[l]]) mod modulus.
[[nodiscard]] inline bool chordalRowMismatchScalar(const int* pi,
                                                   const NodeId* adj,
                                                   const int* eta, int etaP,
                                                   int deg, int modulus) {
  for (int l = 0; l < deg; ++l)
    if (pi[l] != chordalDistance(etaP, eta[adj[l]], modulus)) return true;
  return false;
}

/// Same predicate, without a division for in-range names.
[[nodiscard]] inline bool chordalRowMismatch(const int* pi, const NodeId* adj,
                                             const int* eta, int etaP,
                                             int deg, int modulus) {
  // No-division scalar fast path: chordalDistance's % is an integer
  // division on a runtime modulus (~25 cycles) — for in-range names
  // etaP − eta[q] ∈ (−N, N), so one conditional add is exact.  Rows
  // with out-of-range names (arbitrary transient faults) fall back to
  // the exact reference loop.
  if (etaP >= 0 && etaP < modulus) {
    for (int l = 0; l < deg; ++l) {
      const int e = eta[adj[l]];
      if (e < 0 || e >= modulus)
        return chordalRowMismatchScalar(pi + l, adj + l, eta, etaP, deg - l,
                                        modulus);
      int d = etaP - e;
      if (d < 0) d += modulus;
      if (pi[l] != d) return true;
    }
    return false;
  }
  return chordalRowMismatchScalar(pi, adj, eta, etaP, deg, modulus);
}

/// Writes the induced chordal row: pi[l] = (etaP − eta[adj[l]]) mod
/// modulus for every port (the SP2 correction statement's RHS).
inline void chordalRowFill(int* pi, const NodeId* adj, const int* eta,
                           int etaP, int deg, int modulus) {
  // Same no-division fast path as chordalRowMismatch: exact whenever
  // both names are in range, which is the steady state (the protocol
  // only ever writes in-range names; out-of-range comes from faults).
  if (etaP >= 0 && etaP < modulus) {
    int l = 0;
    for (; l < deg; ++l) {
      const int e = eta[adj[l]];
      if (e < 0 || e >= modulus) break;
      int d = etaP - e;
      if (d < 0) d += modulus;
      pi[l] = d;
    }
    for (; l < deg; ++l)
      pi[l] = chordalDistance(etaP, eta[adj[l]], modulus);
    return;
  }
  for (int l = 0; l < deg; ++l)
    pi[l] = chordalDistance(etaP, eta[adj[l]], modulus);
}

}  // namespace ssno

#endif  // SSNO_ORIENTATION_CHORDAL_KERNEL_HPP
