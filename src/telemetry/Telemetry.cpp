//===-- telemetry/Telemetry.cpp -------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "telemetry/FlightRecorder.h"
#include "telemetry/MemoryAccounting.h"

#include <algorithm>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#define DMM_HAVE_THREAD_CPU_CLOCK 1
#else
#define DMM_HAVE_THREAD_CPU_CLOCK 0
#endif

using namespace dmm;

Telemetry *Telemetry::Active = nullptr;

namespace {

uint64_t threadCpuNanos() {
#if DMM_HAVE_THREAD_CPU_CLOCK
  struct timespec TS;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS) != 0)
    return 0;
  return static_cast<uint64_t>(TS.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(TS.tv_nsec);
#else
  return 0;
#endif
}

} // namespace

Telemetry::Telemetry()
    : Epoch(std::chrono::steady_clock::now()), SpanLimit(size_t(1) << 18) {
  // A 0/1 gauge, present in every registry, so consumers can tell
  // "memory accounting reported zero" from "platform cannot measure".
  // merge() treats it as a gauge (max), not a sum.
  Counters["telemetry.memacct.enabled"] = memacct::available() ? 1 : 0;
}

uint64_t Telemetry::currentSpanId() {
  return Active ? Active->CurrentSpan : 0;
}

uint64_t Telemetry::nowNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void Telemetry::setSpanLimit(size_t Limit) {
  SpanLimit = Limit;
}

void Telemetry::count(const char *Name, uint64_t Delta) {
  Telemetry *T = Active;
  if (T)
    T->addCounter(Name, Delta);
}

void Telemetry::addCounter(const std::string &Name, uint64_t Delta) {
  Counters[Name] += Delta;
}

uint64_t Telemetry::beginSpan(const char *Name, uint64_t Parent,
                              uint64_t StartNanos, unsigned &DepthOut) {
  DepthOut = Parent ? Spans[Parent - 1].Depth + 1 : 0;

  // First-activation aggregate entry, so phases() order is stable.
  auto [It, Inserted] = PhaseIndex.try_emplace(Name, Phases.size());
  if (Inserted)
    Phases.push_back({Name, 0, 0, DepthOut});

  if (Spans.size() >= SpanLimit) {
    ++SpansDropped;
    Counters["telemetry.spans_dropped"] = SpansDropped;
    return 0;
  }
  SpanRecord R;
  R.Id = Spans.size() + 1;
  R.Parent = Parent;
  R.Name = Name;
  R.StartNanos = StartNanos;
  R.Depth = DepthOut;
  Spans.push_back(std::move(R));
  return Spans.back().Id;
}

void Telemetry::endSpan(
    uint64_t Id, const char *Name, uint64_t DurNanos, uint64_t CpuNanos,
    int64_t MemNetBytes, int64_t MemPeakBytes, unsigned Depth,
    std::vector<std::pair<std::string, uint64_t>> IntArgs,
    std::vector<std::pair<std::string, std::string>> StrArgs) {
  if (Id != 0 && Id <= Spans.size()) {
    SpanRecord &R = Spans[Id - 1];
    R.DurNanos = DurNanos;
    R.CpuNanos = CpuNanos;
    R.MemNetBytes = MemNetBytes;
    R.MemPeakBytes = MemPeakBytes;
    R.IntArgs = std::move(IntArgs);
    R.StrArgs = std::move(StrArgs);
  }
  auto It = PhaseIndex.find(Name);
  if (It == PhaseIndex.end()) // endSpan without beginSpan: tolerate.
    It = PhaseIndex.try_emplace(Name, Phases.size()).first;
  if (It->second == Phases.size())
    Phases.push_back({Name, 0, 0, Depth});
  PhaseStat &P = Phases[It->second];
  P.Nanos += DurNanos;
  ++P.Invocations;
  if (Depth < P.Depth)
    P.Depth = Depth;
}

void Telemetry::merge(const Telemetry &Other) {
  const uint64_t Offset = Spans.size();
  for (const SpanRecord &S : Other.Spans) {
    if (Spans.size() >= SpanLimit) {
      ++SpansDropped;
      Counters["telemetry.spans_dropped"] = SpansDropped;
      continue;
    }
    SpanRecord R = S;
    R.Id = S.Id + Offset;
    if (R.Parent)
      R.Parent += Offset;
    Spans.push_back(std::move(R));
  }
  for (const auto &[Name, Value] : Other.Counters) {
    // Gauges (currently only the memacct capability flag) take the max
    // instead of summing, so folding N registries stays 0/1.
    if (Name == "telemetry.memacct.enabled")
      Counters[Name] = std::max(Counters[Name], Value);
    else
      Counters[Name] += Value;
  }
  for (const PhaseStat &OP : Other.Phases) {
    auto [It, Inserted] = PhaseIndex.try_emplace(OP.Name, Phases.size());
    if (Inserted) {
      Phases.push_back(OP);
      continue;
    }
    PhaseStat &P = Phases[It->second];
    P.Nanos += OP.Nanos;
    P.Invocations += OP.Invocations;
    if (OP.Depth < P.Depth)
      P.Depth = OP.Depth;
  }
}

const PhaseStat *Telemetry::phase(const std::string &Name) const {
  auto It = PhaseIndex.find(Name);
  return It == PhaseIndex.end() ? nullptr : &Phases[It->second];
}

uint64_t Telemetry::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

//===----------------------------------------------------------------------===//
// Span (RAII)
//===----------------------------------------------------------------------===//

Span::Span(const char *Name) : T(Telemetry::Active), Name(Name) {
  // The flight recorder (crash diagnostics) tracks spans even when no
  // Telemetry registry is installed, so a crash on a plain run still
  // reports where in the pipeline it happened.
  flightSpanBegin(Name);
  if (!T)
    return;
  StartNanos = T->nowNanos();
  SavedParent = T->CurrentSpan;
  Id = T->beginSpan(Name, SavedParent, StartNanos, Depth);
  if (Id)
    T->CurrentSpan = Id;
  MemPushed = memacct::push();
  CpuStart = threadCpuNanos();
}

Span::~Span() {
  flightSpanEnd();
  if (!T)
    return;
  memacct::Frame F;
  if (MemPushed)
    F = memacct::pop();
  const uint64_t End = T->nowNanos();
  uint64_t CpuEnd = threadCpuNanos();
  T->CurrentSpan = SavedParent;
  T->endSpan(Id, Name, End > StartNanos ? End - StartNanos : 0,
             CpuEnd > CpuStart ? CpuEnd - CpuStart : 0, F.NetBytes,
             F.PeakBytes, Depth, std::move(IntArgs), std::move(StrArgs));
}

void Span::arg(const char *Key, uint64_t Value) {
  if (T)
    IntArgs.emplace_back(Key, Value);
}

void Span::arg(const char *Key, std::string Value) {
  if (T)
    StrArgs.emplace_back(Key, std::move(Value));
}
