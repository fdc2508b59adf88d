//===- Plan.cpp - Immutable executable plans ----------------------------------==//
//
// Part of ParRec, a reproduction of "Synthesising Graphics Card Programs
// from DSLs" (Cartey, Lyngsø, de Moor; PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "exec/Plan.h"

using namespace parrec;
using namespace parrec::exec;
using solver::Schedule;

static uint64_t fnvMix(uint64_t Hash, uint64_t Value) {
  Hash ^= Value;
  return Hash * 0x100000001b3ull;
}

uint64_t PlanKey::hash() const {
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (int64_t V : Lower)
    Hash = fnvMix(Hash, static_cast<uint64_t>(V));
  for (int64_t V : Upper)
    Hash = fnvMix(Hash, static_cast<uint64_t>(V));
  Hash = fnvMix(Hash, Schedule{RequestedSchedule}.fingerprint());
  // Bit 4u is unused. Jit stays at 8u so the hash values, and with them
  // serve::Router's sticky shard placement, stay stable.
  Hash = fnvMix(Hash, (Jit ? 8u : 0u) | (UseSlidingWindow ? 2u : 0u) |
                          (KeepTable ? 1u : 0u));
  return Hash;
}

PlanKey PlanKey::make(const solver::DomainBox &Box, bool UseSlidingWindow,
                      bool KeepTable, const Schedule *Requested,
                      bool Jit) {
  PlanKey Key;
  Key.Lower = Box.Lower;
  Key.Upper = Box.Upper;
  if (Requested)
    Key.RequestedSchedule = Requested->Coefficients;
  Key.UseSlidingWindow = UseSlidingWindow;
  Key.KeepTable = KeepTable;
  Key.Jit = Jit;
  return Key;
}

std::shared_ptr<DpTable> ExecutablePlan::makeTable(unsigned Lanes) const {
  if (UseWindow)
    return std::make_shared<SlidingWindowTable>(Box, Sched, WindowDepth,
                                                WindowDropDim, Lanes);
  return std::make_shared<FullTable>(Box, Lanes);
}
