#include "models/network_cache.h"

#include "common/random.h"

namespace gpuperf::models {

std::uint64_t NetworkFingerprint(const dnn::Network& network) {
  return HashCombine(network.structure_hash(), network.layers().size());
}

NetworkSidCache::NetworkSidCache(const NetworkSidCache& other) {
  SharedReaderLock lock(other.mu_);
  entries_ = other.entries_;
}

NetworkSidCache& NetworkSidCache::operator=(const NetworkSidCache& other) {
  if (this == &other) return *this;
  std::unordered_map<std::string, Entry> copy;
  {
    SharedReaderLock lock(other.mu_);
    copy = other.entries_;
  }
  SharedMutexLock lock(mu_);
  entries_ = std::move(copy);
  retired_.clear();
  return *this;
}

const std::vector<int>* NetworkSidCache::Get(
    const dnn::Network& network,
    const std::function<int(const dnn::Layer&)>& resolve) const {
  const std::uint64_t fingerprint = NetworkFingerprint(network);
  {
    SharedReaderLock lock(mu_);
    auto it = entries_.find(network.name());
    if (it != entries_.end() && it->second.fingerprint == fingerprint) {
      return it->second.sids.get();
    }
  }
  auto sids = std::make_shared<std::vector<int>>();
  sids->reserve(network.layers().size());
  for (const dnn::Layer& layer : network.layers()) {
    sids->push_back(resolve(layer));
  }
  std::shared_ptr<const std::vector<int>> result = std::move(sids);
  SharedMutexLock lock(mu_);
  Entry& entry = entries_[network.name()];
  if (entry.sids != nullptr) {
    if (entry.fingerprint == fingerprint) {
      // A concurrent resolve won the race; keep the incumbent so raw
      // pointers handed out under the reader lock stay canonical.
      return entry.sids.get();
    }
    // Name reused for a different architecture: park the old ids (a
    // concurrent predict may still be walking them) and replace.
    retired_.push_back(std::move(entry.sids));
  }
  entry = Entry{fingerprint, std::move(result)};
  return entry.sids.get();
}

void NetworkSidCache::Clear() {
  SharedMutexLock lock(mu_);
  entries_.clear();
  retired_.clear();
}

}  // namespace gpuperf::models
