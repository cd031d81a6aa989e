//===-- telemetry/Telemetry.cpp -------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "telemetry/FlightRecorder.h"
#include "telemetry/MemoryAccounting.h"

#include <algorithm>
#include <iomanip>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#define DMM_HAVE_THREAD_CPU_CLOCK 1
#else
#define DMM_HAVE_THREAD_CPU_CLOCK 0
#endif

using namespace dmm;

Telemetry *Telemetry::Active = nullptr;

namespace {

/// The calling thread's innermost open span.
thread_local uint64_t CurrentSpanTL = 0;

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

/// Splits a dotted name into (namespace, key) for the documented
/// metrics sort order: the namespace is everything before the first
/// '.', the key the remainder.
std::pair<std::string_view, std::string_view>
splitNamespace(std::string_view Name) {
  size_t Dot = Name.find('.');
  if (Dot == std::string_view::npos)
    return {Name, std::string_view()};
  return {Name.substr(0, Dot), Name.substr(Dot + 1)};
}

bool namespaceKeyLess(std::string_view A, std::string_view B) {
  auto [NsA, KeyA] = splitNamespace(A);
  auto [NsB, KeyB] = splitNamespace(B);
  if (NsA != NsB)
    return NsA < NsB;
  return KeyA < KeyB;
}

} // namespace

Telemetry::Telemetry()
    : Epoch(std::chrono::steady_clock::now()), SpanLimit(size_t(1) << 18) {
  // A 0/1 gauge, present in every registry, so consumers can tell
  // "memory accounting reported zero" from "platform cannot measure".
  // merge() treats it as a gauge (max), not a sum.
  Counters["telemetry.memacct.enabled"] = memacct::available() ? 1 : 0;
}

uint64_t Telemetry::currentSpanId() { return CurrentSpanTL; }

uint64_t Telemetry::nowNanos() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void Telemetry::setSpanLimit(size_t Limit) {
  std::lock_guard<std::mutex> Lock(Mu);
  SpanLimit = Limit;
}

void Telemetry::count(const char *Name, uint64_t Delta) {
  Telemetry *T = Active;
  if (T)
    T->addCounter(Name, Delta);
}

void Telemetry::addCounter(const std::string &Name, uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters[Name] += Delta;
}

uint64_t Telemetry::beginSpan(const char *Name, uint64_t Parent,
                              uint64_t StartNanos, unsigned &DepthOut) {
  std::lock_guard<std::mutex> Lock(Mu);
  // A stale parent id (from a previous registry on this thread) cannot
  // resolve here; treat it as a root.
  if (Parent > Spans.size())
    Parent = 0;
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

void Telemetry::endSpan(uint64_t Id, const char *Name, uint64_t StartNanos,
                        uint64_t DurNanos, uint64_t CpuNanos,
                        int64_t MemNetBytes, int64_t MemPeakBytes,
                        unsigned Depth, std::vector<SpanArg> Args) {
  (void)StartNanos;
  std::lock_guard<std::mutex> Lock(Mu);
  if (Id != 0 && Id <= Spans.size()) {
    SpanRecord &R = Spans[Id - 1];
    R.DurNanos = DurNanos;
    R.CpuNanos = CpuNanos;
    R.MemNetBytes = MemNetBytes;
    R.MemPeakBytes = MemPeakBytes;
    R.Closed = true;
    R.Args = std::move(Args);
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
  std::lock_guard<std::mutex> Lock(Mu);
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
  std::lock_guard<std::mutex> Lock(Mu);
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
  Id = T->beginSpan(Name, CurrentSpanTL, StartNanos, Depth);
  SavedParent = CurrentSpanTL;
  if (Id)
    CurrentSpanTL = Id;
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
  CurrentSpanTL = SavedParent;
  T->endSpan(Id, Name, StartNanos, End > StartNanos ? End - StartNanos : 0,
             CpuEnd > CpuStart ? CpuEnd - CpuStart : 0, F.NetBytes,
             F.PeakBytes, Depth, std::move(Args));
}

void Span::arg(const char *Key, uint64_t Value) {
  if (!T)
    return;
  SpanArg A;
  A.Key = Key;
  A.IntValue = Value;
  Args.push_back(std::move(A));
}

void Span::arg(const char *Key, std::string Value) {
  if (!T)
    return;
  SpanArg A;
  A.Key = Key;
  A.StrValue = std::move(Value);
  A.IsString = true;
  Args.push_back(std::move(A));
}

//===----------------------------------------------------------------------===//
// Emitters
//===----------------------------------------------------------------------===//

void Telemetry::printMetrics(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto Flags = OS.flags();

  // Documented stable sort: (namespace, key), where the namespace is
  // the dotted prefix.
  std::vector<const PhaseStat *> Sorted;
  Sorted.reserve(Phases.size());
  for (const PhaseStat &P : Phases)
    Sorted.push_back(&P);
  std::stable_sort(Sorted.begin(), Sorted.end(),
                   [](const PhaseStat *A, const PhaseStat *B) {
                     return namespaceKeyLess(A->Name, B->Name);
                   });

  OS << "phase                                time (ms)      calls\n";
  for (const PhaseStat *P : Sorted) {
    std::string Label(2 + 2 * P->Depth, ' ');
    Label += P->Name;
    OS << std::left << std::setw(35) << Label << std::right
       << std::setw(12) << std::fixed << std::setprecision(3)
       << P->Nanos / 1e6 << std::setw(11) << P->Invocations << "\n";
  }
  if (!Counters.empty()) {
    std::vector<const std::pair<const std::string, uint64_t> *> Rows;
    Rows.reserve(Counters.size());
    for (const auto &KV : Counters)
      Rows.push_back(&KV);
    std::stable_sort(Rows.begin(), Rows.end(),
                     [](const auto *A, const auto *B) {
                       return namespaceKeyLess(A->first, B->first);
                     });
    OS << "counter                                               value\n";
    for (const auto *KV : Rows)
      OS << "  " << std::left << std::setw(42) << KV->first << std::right
         << std::setw(13) << KV->second << "\n";
  }
  OS.flags(Flags);
}

static void printJsonEscaped(std::ostream &OS, std::string_view S) {
  static const char *Hex = "0123456789abcdef";
  OS << '"';
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (U < 0x20)
      OS << "\\u00" << Hex[U >> 4] << Hex[U & 0xf];
    else
      OS << C;
  }
  OS << '"';
}

void Telemetry::printChromeTrace(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto Flags = OS.flags();
  OS << "{\"traceEvents\": [";
  bool First = true;
  OS << std::fixed << std::setprecision(3);
  for (const SpanRecord &S : Spans) {
    if (!First)
      OS << ",";
    First = false;
    OS << "\n  {\"name\": ";
    printJsonEscaped(OS, S.Name);
    OS << ", \"cat\": \"span\", \"ph\": \"X\", \"ts\": " << S.StartNanos / 1e3
       << ", \"dur\": " << S.DurNanos / 1e3
       << ", \"pid\": 1, \"tid\": 1, \"args\": {\"span_id\": " << S.Id
       << ", \"parent\": " << S.Parent
       << ", \"cpu_us\": " << S.CpuNanos / 1e3
       << ", \"mem_peak_bytes\": " << S.MemPeakBytes
       << ", \"mem_net_bytes\": " << S.MemNetBytes;
    for (const SpanArg &A : S.Args) {
      OS << ", ";
      printJsonEscaped(OS, A.Key);
      OS << ": ";
      if (A.IsString)
        printJsonEscaped(OS, A.StrValue);
      else
        OS << A.IntValue;
    }
    OS << "}}";
  }
  if (!Counters.empty()) {
    if (!First)
      OS << ",";
    OS << "\n  {\"name\": \"counters\", \"ph\": \"I\", \"ts\": "
       << nowNanos() / 1e3 << ", \"s\": \"g\", \"pid\": 1, \"tid\": 1, "
          "\"args\": {";
    bool FirstArg = true;
    for (const auto &[Name, Value] : Counters) {
      if (!FirstArg)
        OS << ", ";
      FirstArg = false;
      printJsonEscaped(OS, Name);
      OS << ": " << Value;
    }
    OS << "}}";
  }
  OS << "\n], \"displayTimeUnit\": \"ms\"}\n";
  OS.flags(Flags);
}
