//===-- telemetry/FlightRecorder.cpp --------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/FlightRecorder.h"

#include <atomic>
#include <chrono>
#include <cstring>

using namespace dmm;

FlightRecorder *FlightRecorder::Active = nullptr;
// Constant-initialized: zero pages in .bss until the ring first writes
// them, and never destroyed, so a crash handler can walk it at exit.
constinit FlightRecorder FlightRecorder::Instance;

const char *dmm::flightEventKindName(FlightEventKind Kind) {
  switch (Kind) {
  case FlightEventKind::Log:
    return "log";
  case FlightEventKind::SpanBegin:
    return "span_begin";
  case FlightEventKind::SpanEnd:
    return "span_end";
  }
  return "log";
}

namespace {

uint64_t steadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

void FlightRecorder::install() {
  if (Active)
    return;
  Instance.EpochNanos = steadyNowNanos();
  Active = &Instance;
}

uint64_t FlightRecorder::nowNanos() const {
  uint64_t Now = steadyNowNanos();
  return Now >= EpochNanos ? Now - EpochNanos : 0;
}

void FlightRecorder::record(FlightEventKind Kind, uint8_t Level,
                            const char *Text) {
  FlightEvent &E = Entries[Head % kCapacity];
  E.Seq = Head + 1;
  E.TimeNanos = nowNanos();
  E.Kind = Kind;
  E.Level = Level;
  if (!Text)
    Text = "";
  size_t Len = strnlen(Text, sizeof(E.Text) - 1);
  memcpy(E.Text, Text, Len);
  E.Text[Len] = '\0';
  // A crash handler interrupting this thread must never see the new
  // head before the entry it publishes.
  std::atomic_signal_fence(std::memory_order_release);
  ++Head;
}

void FlightRecorder::spanBegin(const char *Name) {
  if (SpanDepth < kMaxSpanDepth)
    SpanNames[SpanDepth] = Name;
  // record() fences the name store ahead of the depth that exposes it.
  record(FlightEventKind::SpanBegin, 0, Name);
  ++SpanDepth;
}

void FlightRecorder::spanEnd() {
  const char *Name = "";
  if (SpanDepth > 0) {
    --SpanDepth;
    if (SpanDepth < kMaxSpanDepth && SpanNames[SpanDepth])
      Name = SpanNames[SpanDepth];
  }
  record(FlightEventKind::SpanEnd, 0, Name);
}

size_t FlightRecorder::currentSpanStack(const char **Names,
                                        size_t Max) const {
  size_t Depth = SpanDepth < kMaxSpanDepth ? SpanDepth : kMaxSpanDepth;
  size_t N = 0;
  for (size_t I = 0; I < Depth && N < Max; ++I)
    if (SpanNames[I])
      Names[N++] = SpanNames[I];
  return N;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> Out;
  for (uint64_t I = eventsDropped(); I < Head; ++I)
    Out.push_back(event(I));
  return Out;
}
