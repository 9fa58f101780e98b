#ifndef GPUPERF_MODELS_NETWORK_CACHE_H_
#define GPUPERF_MODELS_NETWORK_CACHE_H_

/**
 * @file
 * Per-network memo of resolved layer ids for the prediction hot path.
 *
 * KwModel resolves every layer of a network to a dense signature id (an
 * index into tables precomputed at train time). The resolution itself
 * builds and hashes signature strings, so it is done once per distinct
 * network and memoized here. Every KW path — PredictUs, PlanFor
 * compiles, coverage checks — reads the one memo, and IgkwModel
 * resolves through its inner KwModel, so both models share the same ids
 * and the same memo: a network's signatures are built once per model.
 *
 * Entries are keyed by network name and validated against a structural
 * fingerprint (layer kinds and element counts), so re-using a name for a
 * different architecture recomputes instead of returning stale ids. The
 * fingerprint costs O(1): dnn::Network::AppendLayer folds each layer
 * into a running hash as the network is built.
 *
 * Lookups take a shared lock; the cache is safe to hit from concurrent
 * serving threads. Copying a model copies the cached entries but gives
 * the copy its own lock.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/synchronization.h"
#include "dnn/network.h"

namespace gpuperf::models {

/**
 * Structural hash of a network (layer kinds and element counts), read
 * from the hash Network::AppendLayer maintains. An in-memory cache key
 * only; never persisted, so its values may change between releases.
 */
std::uint64_t NetworkFingerprint(const dnn::Network& network);

/** Thread-safe network-name -> per-layer-id memo. */
class NetworkSidCache {
 public:
  NetworkSidCache() = default;
  NetworkSidCache(const NetworkSidCache& other);
  NetworkSidCache& operator=(const NetworkSidCache& other);

  /**
   * The per-layer ids of `network`, computing them with `resolve` (one
   * call per layer) on first sight or on a fingerprint mismatch.
   *
   * Returns a stable raw pointer (valid until Clear()) rather than a
   * shared_ptr copy: a predict is two reads away from the ids, and the
   * atomic refcount ping-pong of a per-call shared_ptr copy is
   * measurable contention on the serving hot path. Entries replaced by
   * a fingerprint mismatch are retired, not freed, so a pointer held
   * across a concurrent name reuse stays valid.
   */
  const std::vector<int>* Get(
      const dnn::Network& network,
      const std::function<int(const dnn::Layer&)>& resolve) const;

  /** Drops every entry (models call this when retrained). */
  void Clear();

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::shared_ptr<const std::vector<int>> sids;
  };

  mutable SharedMutex mu_;
  mutable std::unordered_map<std::string, Entry> entries_ GP_GUARDED_BY(mu_);
  mutable std::vector<std::shared_ptr<const std::vector<int>>> retired_
      GP_GUARDED_BY(mu_);
};

}  // namespace gpuperf::models

#endif  // GPUPERF_MODELS_NETWORK_CACHE_H_
