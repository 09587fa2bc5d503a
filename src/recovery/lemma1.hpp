// The paper's recovery line R_F (§2.4, Lemma 1), planned from per-process
// DV state: the one planner the RecoveryManager, the fleet parent and a
// full restart from disk share.  R_F[i] is the latest general checkpoint of
// p_i (its volatile state counts as c_i^{last_i+1}) that no faulty process's
// last stable checkpoint precedes; by Equation 2, s_f^{last_f} → c_i^γ ⇔
// last_f < DV(c_i^γ)[f].  By Theorem 1 RDT-LGC never collects a line
// member, so a scan over the stored checkpoints finds the line of the whole
// CCP — ccp::recovery_line_lemma1, the recorder oracle tests compare with.
//
// A DV source gives, per process p < size(): last(p), the last stable
// index; volatile_dv(p), p's current DV (empty if it has none); and
// newest_first(p, fn), which calls fn(index, dv) over p's stored
// checkpoints, newest first, until fn returns true.  The sources are
// NodeDvs, StoreDvs and the fleet parent's DV mirrors (proc_fleet.cpp).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "causality/types.hpp"
#include "ckpt/node.hpp"
#include "util/check.hpp"

namespace rdtgc::recovery {

/// A computed-but-not-applied recovery session.
struct SessionPlan {
  /// R_F; entry last_s(p)+1 means p keeps its volatile state.
  std::vector<CheckpointIndex> line;
  /// LI[j] = last_s(j)+1 in the cut defined by R_F.
  std::vector<IntervalIndex> li;
  std::vector<bool> faulty_mask;
};

/// LI entry of a process whose line member is `line`: a rolled-back process
/// restores s^line, a surviving one keeps its volatile state.
inline IntervalIndex li_entry(CheckpointIndex line, CheckpointIndex last) {
  return line <= last ? line + 1 : line;
}

/// Lemma 1 over `source`.  Throws ContractViolation when a scan comes up
/// empty, i.e. a line member was collected (Theorem 1 rules it out).
template <typename Source>
SessionPlan lemma1_plan(std::vector<bool> faulty_mask, const Source& source) {
  const std::size_t n = faulty_mask.size();
  RDTGC_EXPECTS(n >= 1 && source.size() == n);
  std::vector<CheckpointIndex> last(n);
  for (std::size_t p = 0; p < n; ++p) last[p] = source.last(p);
  const auto excluded = [&](std::span<const IntervalIndex> dv) {
    RDTGC_ASSERT(dv.size() == n);
    for (std::size_t f = 0; f < n; ++f)
      if (faulty_mask[f] && last[f] < dv[f]) return true;
    return false;
  };
  SessionPlan plan;
  plan.line.assign(n, kNoCheckpoint);
  plan.li.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    CheckpointIndex& k = plan.line[i];
    const std::span<const IntervalIndex> current = source.volatile_dv(i);
    if (!current.empty() && !excluded(current)) {
      k = last[i] + 1;
    } else {
      source.newest_first(i, [&](CheckpointIndex g,
                                 std::span<const IntervalIndex> dv) {
        if (excluded(dv)) return false;
        k = g;
        return true;
      });
    }
    RDTGC_ENSURES(k != kNoCheckpoint);
    RDTGC_ASSERT(!faulty_mask[i] || k <= last[i]);  // volatile state is lost
    plan.li[i] = li_entry(k, last[i]);
  }
  plan.faulty_mask = std::move(faulty_mask);
  return plan;
}

/// Stores freshly attached (OpenMode::kAttach, then recover()) after a full
/// restart: no volatile state survives, so plan with F = all processes; the
/// line is then min(R_all, last stored index).  An empty store cannot
/// restart: last() throws ContractViolation.
struct StoreDvs {
  std::span<const ckpt::ShardedCheckpointStore* const> stores;

  template <typename Fn>
  static void scan(const ckpt::ShardedCheckpointStore& store, Fn fn) {
    const std::vector<CheckpointIndex>& stored = store.stored_indices();
    for (auto it = stored.rbegin(); it != stored.rend(); ++it)
      if (fn(*it, store.dv_view(*it).entries())) return;
  }
  std::size_t size() const { return stores.size(); }
  CheckpointIndex last(std::size_t p) const {
    RDTGC_EXPECTS(stores[p] != nullptr && stores[p]->count() > 0);
    return stores[p]->last_index();
  }
  std::span<const IntervalIndex> volatile_dv(std::size_t) const { return {}; }
  template <typename Fn>
  void newest_first(std::size_t p, Fn fn) const { scan(*stores[p], fn); }
};

/// Live processes: each node's store plus its volatile DV.
struct NodeDvs {
  std::span<const ckpt::Node* const> nodes;

  std::size_t size() const { return nodes.size(); }
  CheckpointIndex last(std::size_t p) const {
    return nodes[p]->last_checkpoint_index();
  }
  std::span<const IntervalIndex> volatile_dv(std::size_t p) const {
    return nodes[p]->dv().entries();
  }
  template <typename Fn>
  void newest_first(std::size_t p, Fn fn) const {
    StoreDvs::scan(nodes[p]->store(), fn);
  }
};

}  // namespace rdtgc::recovery
