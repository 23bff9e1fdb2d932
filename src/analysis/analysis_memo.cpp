#include "analysis/analysis_memo.h"

namespace boosting::analysis {

namespace {

// Open-addressing growth policy (same as StateGraph's node index): grow at
// 70% load so linear probes stay short.
constexpr bool overloaded(std::size_t used, std::size_t cap) {
  return used * 10 >= cap * 7;
}

}  // namespace

AnalysisMemo::AnalysisMemo(const ioa::System& sys)
    : sys_(sys), transitions_(sys, slotCanon_) {}

std::uint32_t AnalysisMemo::internAction(const ioa::Action& a) {
  if (table_.empty()) growTable(256);
  const std::size_t h = a.hash();
  const std::size_t mask = table_.size() - 1;
  std::size_t i = h & mask;
  while (true) {
    Slot& slot = table_[i];
    if (slot.idx == kNoAction) {
      const std::uint32_t idx = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(a);
      slot = Slot{h, idx};
      if (overloaded(++count_, table_.size())) {
        growTable(table_.size() * 2);
      }
      return idx;
    }
    if (slot.hash == h && pool_[slot.idx] == a) return slot.idx;
    i = (i + 1) & mask;
  }
}

void AnalysisMemo::growTable(std::size_t newCap) {
  std::vector<Slot> old = std::move(table_);
  table_.assign(newCap, Slot{});
  const std::size_t mask = newCap - 1;
  for (const Slot& slot : old) {
    if (slot.idx == kNoAction) continue;
    std::size_t i = slot.hash & mask;
    while (table_[i].idx != kNoAction) i = (i + 1) & mask;
    table_[i] = slot;
  }
}

}  // namespace boosting::analysis
