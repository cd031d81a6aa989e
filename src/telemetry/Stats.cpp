//===-- telemetry/Stats.cpp -----------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/Stats.h"

#include "telemetry/CrashHandler.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Json.h"
#include "telemetry/Log.h"
#include "telemetry/MemoryAccounting.h"
#include "telemetry/Telemetry.h"

#include <algorithm>

using namespace dmm;
using namespace dmm::stats;

namespace {

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

void printEscaped(std::ostream &OS, std::string_view S) {
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

} // namespace

StatsDocument stats::buildStats(const Telemetry &T, std::string Tool) {
  StatsDocument D;
  D.Tool = std::move(Tool);
  D.Jobs = 1;
  D.MemAccounting = memacct::available();

  // The v3 diagnostics section reflects process-wide observability
  // state (the logger and flight recorder are global, not per
  // registry), snapshotted at build time.
  Logger &Log = Logger::instance();
  D.Diagnostics.Present = true;
  D.Diagnostics.LogError = Log.count(LogLevel::Error);
  D.Diagnostics.LogWarn = Log.count(LogLevel::Warn);
  D.Diagnostics.LogInfo = Log.count(LogLevel::Info);
  D.Diagnostics.LogDebug = Log.count(LogLevel::Debug);
  D.Diagnostics.LogTrace = Log.count(LogLevel::Trace);
  if (const FlightRecorder *R = FlightRecorder::active()) {
    D.Diagnostics.RecorderEvents = R->eventsRecorded();
    D.Diagnostics.RecorderDropped = R->eventsDropped();
  }
  D.Diagnostics.Crashes = crashReportsWritten();

  for (const PhaseStat &P : T.phases())
    D.Phases.push_back({P.Name, P.Nanos, P.Invocations});
  std::stable_sort(D.Phases.begin(), D.Phases.end(),
                   [](const PhaseRow &A, const PhaseRow &B) {
                     return namespaceKeyLess(A.Name, B.Name);
                   });

  for (const auto &[Name, Value] : T.counters())
    D.Counters.emplace_back(Name, Value);
  std::stable_sort(D.Counters.begin(), D.Counters.end(),
                   [](const auto &A, const auto &B) {
                     return namespaceKeyLess(A.first, B.first);
                   });

  D.Spans.reserve(T.spans().size());
  for (const SpanRecord &R : T.spans()) {
    SpanStat S;
    S.Id = R.Id;
    S.Parent = R.Parent;
    S.Name = R.Name;
    S.StartNanos = R.StartNanos;
    S.DurNanos = R.DurNanos;
    S.CpuNanos = R.CpuNanos;
    S.MemNetBytes = R.MemNetBytes;
    S.MemPeakBytes = R.MemPeakBytes;
    S.Depth = R.Depth;
    for (const SpanArg &A : R.Args) {
      if (A.IsString)
        S.StrArgs.emplace_back(A.Key, A.StrValue);
      else
        S.IntArgs.emplace_back(A.Key, A.IntValue);
    }
    D.Spans.push_back(std::move(S));
  }
  return D;
}

void stats::printStats(const StatsDocument &D, std::ostream &OS) {
  OS << "{\n";
  OS << "  \"schema\": \"" << kSchemaName << "\",\n";
  OS << "  \"version\": " << D.Version << ",\n";
  OS << "  \"tool\": ";
  printEscaped(OS, D.Tool);
  OS << ",\n";
  OS << "  \"jobs\": " << D.Jobs << ",\n";
  OS << "  \"memory_accounting\": " << (D.MemAccounting ? "true" : "false")
     << ",\n";

  if (D.Diagnostics.Present) {
    const DiagnosticsSection &G = D.Diagnostics;
    OS << "  \"diagnostics\": {\n";
    OS << "    \"log_error\": " << G.LogError << ",\n";
    OS << "    \"log_warn\": " << G.LogWarn << ",\n";
    OS << "    \"log_info\": " << G.LogInfo << ",\n";
    OS << "    \"log_debug\": " << G.LogDebug << ",\n";
    OS << "    \"log_trace\": " << G.LogTrace << ",\n";
    OS << "    \"recorder_events\": " << G.RecorderEvents << ",\n";
    OS << "    \"recorder_dropped\": " << G.RecorderDropped << ",\n";
    OS << "    \"crashes\": " << G.Crashes << "\n";
    OS << "  },\n";
  }

  if (D.Profiler.Present) {
    const ProfilerSection &P = D.Profiler;
    OS << "  \"profiler\": {\n";
    OS << "    \"object_space\": " << P.ObjectSpace << ",\n";
    OS << "    \"dead_member_space\": " << P.DeadMemberSpace << ",\n";
    OS << "    \"high_water_mark\": " << P.HighWaterMark << ",\n";
    OS << "    \"high_water_mark_no_dead\": " << P.HighWaterMarkNoDead
       << ",\n";
    OS << "    \"num_objects\": " << P.NumObjects << ",\n";
    OS << "    \"alloc_events\": " << P.AllocEvents << ",\n";
    OS << "    \"free_events\": " << P.FreeEvents << ",\n";
    OS << "    \"leaked_objects\": " << P.LeakedObjects << ",\n";
    OS << "    \"peak_alloc_event\": " << P.PeakAllocEvent << ",\n";
    OS << "    \"snapshot_stride\": " << P.SnapshotStride << ",\n";
    OS << "    \"snapshots\": [";
    for (size_t I = 0; I != P.Snapshots.size(); ++I) {
      const ProfilerSnapshotRow &S = P.Snapshots[I];
      OS << (I ? "," : "") << "\n      {\"event\": " << S.Event
         << ", \"live_bytes\": " << S.LiveBytes
         << ", \"live_bytes_no_dead\": " << S.LiveBytesNoDead
         << ", \"live_objects\": " << S.LiveObjects << "}";
    }
    OS << (P.Snapshots.empty() ? "" : "\n    ") << "],\n";
    OS << "    \"sites\": [";
    for (size_t I = 0; I != P.Sites.size(); ++I) {
      const ProfilerSiteRow &S = P.Sites[I];
      OS << (I ? "," : "") << "\n      {\"file\": ";
      printEscaped(OS, S.File);
      OS << ", \"line\": " << S.Line << ", \"class\": ";
      printEscaped(OS, S.Class);
      OS << ", \"member\": ";
      printEscaped(OS, S.Member);
      OS << ", \"objects\": " << S.Objects
         << ", \"alloc_bytes\": " << S.AllocBytes
         << ", \"written_bytes\": " << S.WrittenBytes
         << ", \"read_bytes\": " << S.ReadBytes
         << ", \"addr_taken_bytes\": " << S.AddrTakenBytes
         << ", \"never_read_bytes\": " << S.NeverReadBytes
         << ", \"static_dead\": " << (S.StaticDead ? "true" : "false")
         << "}";
    }
    OS << (P.Sites.empty() ? "" : "\n    ") << "]\n";
    OS << "  },\n";
  }

  OS << "  \"phases\": [";
  for (size_t I = 0; I != D.Phases.size(); ++I) {
    const PhaseRow &P = D.Phases[I];
    OS << (I ? "," : "") << "\n    {\"name\": ";
    printEscaped(OS, P.Name);
    OS << ", \"wall_ns\": " << P.Nanos << ", \"calls\": " << P.Invocations
       << "}";
  }
  OS << (D.Phases.empty() ? "" : "\n  ") << "],\n";

  OS << "  \"counters\": {";
  for (size_t I = 0; I != D.Counters.size(); ++I) {
    OS << (I ? "," : "") << "\n    ";
    printEscaped(OS, D.Counters[I].first);
    OS << ": " << D.Counters[I].second;
  }
  OS << (D.Counters.empty() ? "" : "\n  ") << "},\n";

  OS << "  \"spans\": [";
  for (size_t I = 0; I != D.Spans.size(); ++I) {
    const SpanStat &S = D.Spans[I];
    OS << (I ? "," : "") << "\n    {\"id\": " << S.Id
       << ", \"parent\": " << S.Parent << ", \"name\": ";
    printEscaped(OS, S.Name);
    OS << ", \"depth\": " << S.Depth << ", \"start_ns\": " << S.StartNanos
       << ", \"wall_ns\": " << S.DurNanos << ", \"cpu_ns\": " << S.CpuNanos
       << ", \"mem_net_bytes\": " << S.MemNetBytes
       << ", \"mem_peak_bytes\": " << S.MemPeakBytes;
    if (!S.IntArgs.empty() || !S.StrArgs.empty()) {
      OS << ", \"args\": {";
      bool First = true;
      for (const auto &[K, V] : S.IntArgs) {
        OS << (First ? "" : ", ");
        First = false;
        printEscaped(OS, K);
        OS << ": " << V;
      }
      for (const auto &[K, V] : S.StrArgs) {
        OS << (First ? "" : ", ");
        First = false;
        printEscaped(OS, K);
        OS << ": ";
        printEscaped(OS, V);
      }
      OS << "}";
    }
    OS << "}";
  }
  OS << (D.Spans.empty() ? "" : "\n  ") << "]\n";
  OS << "}\n";
}

namespace {

bool failParse(std::string &Error, const std::string &Msg) {
  Error = Msg;
  return false;
}

bool requireNumber(const json::Value &Obj, const char *Key,
                   const std::string &Where, std::string &Error) {
  const json::Value *V = Obj.get(Key);
  if (!V || !V->isNumber())
    return failParse(Error, Where + ": missing or non-numeric field \"" +
                                Key + "\"");
  return true;
}

} // namespace

bool stats::parseStats(std::string_view Text, StatsDocument &Out,
                       std::string &Error) {
  json::Value Root;
  if (!json::parse(Text, Root, Error)) {
    Error = "invalid JSON: " + Error;
    return false;
  }
  if (!Root.isObject())
    return failParse(Error, "top-level value is not an object");

  const json::Value *Schema = Root.get("schema");
  if (!Schema || !Schema->isString() || Schema->str() != kSchemaName)
    return failParse(Error, "missing or unexpected \"schema\" (want \"" +
                                std::string(kSchemaName) + "\")");
  const json::Value *Version = Root.get("version");
  if (!Version || !Version->isNumber())
    return failParse(Error, "missing numeric \"version\"");
  if (Version->asInt() < kMinSchemaVersion ||
      Version->asInt() > kSchemaVersion)
    return failParse(Error, "unsupported stats version " +
                                std::to_string(Version->asInt()) +
                                " (this tool reads versions " +
                                std::to_string(kMinSchemaVersion) + ".." +
                                std::to_string(kSchemaVersion) + ")");
  Out.Version = static_cast<int>(Version->asInt());

  const json::Value *Tool = Root.get("tool");
  if (!Tool || !Tool->isString())
    return failParse(Error, "missing string \"tool\"");
  Out.Tool = Tool->str();

  if (!requireNumber(Root, "jobs", "top level", Error))
    return false;
  Out.Jobs = static_cast<unsigned>(Root.getNumber("jobs"));

  const json::Value *MemAcct = Root.get("memory_accounting");
  if (!MemAcct || !MemAcct->isBool())
    return failParse(Error, "missing boolean \"memory_accounting\"");
  Out.MemAccounting = MemAcct->boolean();

  if (const json::Value *Diag = Root.get("diagnostics")) {
    if (Out.Version < 3)
      return failParse(
          Error, "\"diagnostics\" section requires stats version >= 3");
    if (!Diag->isObject())
      return failParse(Error, "\"diagnostics\" is not an object");
    DiagnosticsSection &G = Out.Diagnostics;
    G.Present = true;
    for (const char *Key :
         {"log_error", "log_warn", "log_info", "log_debug", "log_trace",
          "recorder_events", "recorder_dropped", "crashes"})
      if (!requireNumber(*Diag, Key, "diagnostics", Error))
        return false;
    G.LogError = static_cast<uint64_t>(Diag->getNumber("log_error"));
    G.LogWarn = static_cast<uint64_t>(Diag->getNumber("log_warn"));
    G.LogInfo = static_cast<uint64_t>(Diag->getNumber("log_info"));
    G.LogDebug = static_cast<uint64_t>(Diag->getNumber("log_debug"));
    G.LogTrace = static_cast<uint64_t>(Diag->getNumber("log_trace"));
    G.RecorderEvents =
        static_cast<uint64_t>(Diag->getNumber("recorder_events"));
    G.RecorderDropped =
        static_cast<uint64_t>(Diag->getNumber("recorder_dropped"));
    G.Crashes = static_cast<uint64_t>(Diag->getNumber("crashes"));
  }

  if (const json::Value *Prof = Root.get("profiler")) {
    if (Out.Version < 2)
      return failParse(Error,
                       "\"profiler\" section requires stats version >= 2");
    if (!Prof->isObject())
      return failParse(Error, "\"profiler\" is not an object");
    ProfilerSection &P = Out.Profiler;
    P.Present = true;
    for (const char *Key :
         {"object_space", "dead_member_space", "high_water_mark",
          "high_water_mark_no_dead", "num_objects", "alloc_events",
          "free_events", "leaked_objects", "peak_alloc_event",
          "snapshot_stride"})
      if (!requireNumber(*Prof, Key, "profiler", Error))
        return false;
    P.ObjectSpace = static_cast<uint64_t>(Prof->getNumber("object_space"));
    P.DeadMemberSpace =
        static_cast<uint64_t>(Prof->getNumber("dead_member_space"));
    P.HighWaterMark =
        static_cast<uint64_t>(Prof->getNumber("high_water_mark"));
    P.HighWaterMarkNoDead =
        static_cast<uint64_t>(Prof->getNumber("high_water_mark_no_dead"));
    P.NumObjects = static_cast<uint64_t>(Prof->getNumber("num_objects"));
    P.AllocEvents = static_cast<uint64_t>(Prof->getNumber("alloc_events"));
    P.FreeEvents = static_cast<uint64_t>(Prof->getNumber("free_events"));
    P.LeakedObjects =
        static_cast<uint64_t>(Prof->getNumber("leaked_objects"));
    P.PeakAllocEvent =
        static_cast<uint64_t>(Prof->getNumber("peak_alloc_event"));
    P.SnapshotStride =
        static_cast<uint64_t>(Prof->getNumber("snapshot_stride"));

    const json::Value *Snaps = Prof->get("snapshots");
    if (!Snaps || !Snaps->isArray())
      return failParse(Error, "profiler: missing array \"snapshots\"");
    for (size_t I = 0; I != Snaps->array().size(); ++I) {
      const json::Value &SV = Snaps->array()[I];
      std::string Where = "profiler.snapshots[" + std::to_string(I) + "]";
      if (!SV.isObject())
        return failParse(Error, Where + ": not an object");
      for (const char *Key :
           {"event", "live_bytes", "live_bytes_no_dead", "live_objects"})
        if (!requireNumber(SV, Key, Where, Error))
          return false;
      ProfilerSnapshotRow Row;
      Row.Event = static_cast<uint64_t>(SV.getNumber("event"));
      Row.LiveBytes = static_cast<uint64_t>(SV.getNumber("live_bytes"));
      Row.LiveBytesNoDead =
          static_cast<uint64_t>(SV.getNumber("live_bytes_no_dead"));
      Row.LiveObjects =
          static_cast<uint64_t>(SV.getNumber("live_objects"));
      // The snapshot schedule is monotone in allocation events, and
      // allocation events are numbered from 1.
      if (Row.Event == 0)
        return failParse(Error, Where + ": event must be >= 1");
      if (!P.Snapshots.empty() && Row.Event <= P.Snapshots.back().Event)
        return failParse(Error, Where + ": event " +
                                    std::to_string(Row.Event) +
                                    " does not increase");
      if (Row.LiveBytes > P.HighWaterMark)
        return failParse(Error,
                         Where + ": live_bytes exceeds high_water_mark");
      P.Snapshots.push_back(Row);
    }

    const json::Value *Sites = Prof->get("sites");
    if (!Sites || !Sites->isArray())
      return failParse(Error, "profiler: missing array \"sites\"");
    for (size_t I = 0; I != Sites->array().size(); ++I) {
      const json::Value &SV = Sites->array()[I];
      std::string Where = "profiler.sites[" + std::to_string(I) + "]";
      if (!SV.isObject())
        return failParse(Error, Where + ": not an object");
      ProfilerSiteRow Row;
      for (const char *Key : {"file", "class", "member"}) {
        const json::Value *V = SV.get(Key);
        if (!V || !V->isString())
          return failParse(Error, Where + ": missing string \"" +
                                      std::string(Key) + "\"");
      }
      for (const char *Key :
           {"line", "objects", "alloc_bytes", "written_bytes",
            "read_bytes", "addr_taken_bytes", "never_read_bytes"})
        if (!requireNumber(SV, Key, Where, Error))
          return false;
      const json::Value *Dead = SV.get("static_dead");
      if (!Dead || !Dead->isBool())
        return failParse(Error,
                         Where + ": missing boolean \"static_dead\"");
      Row.File = SV.get("file")->str();
      Row.Line = static_cast<uint64_t>(SV.getNumber("line"));
      Row.Class = SV.get("class")->str();
      Row.Member = SV.get("member")->str();
      Row.Objects = static_cast<uint64_t>(SV.getNumber("objects"));
      Row.AllocBytes = static_cast<uint64_t>(SV.getNumber("alloc_bytes"));
      Row.WrittenBytes =
          static_cast<uint64_t>(SV.getNumber("written_bytes"));
      Row.ReadBytes = static_cast<uint64_t>(SV.getNumber("read_bytes"));
      Row.AddrTakenBytes =
          static_cast<uint64_t>(SV.getNumber("addr_taken_bytes"));
      Row.NeverReadBytes =
          static_cast<uint64_t>(SV.getNumber("never_read_bytes"));
      Row.StaticDead = Dead->boolean();
      P.Sites.push_back(std::move(Row));
    }
  }

  const json::Value *Phases = Root.get("phases");
  if (!Phases || !Phases->isArray())
    return failParse(Error, "missing array \"phases\"");
  for (size_t I = 0; I != Phases->array().size(); ++I) {
    const json::Value &P = Phases->array()[I];
    std::string Where = "phases[" + std::to_string(I) + "]";
    if (!P.isObject())
      return failParse(Error, Where + ": not an object");
    const json::Value *Name = P.get("name");
    if (!Name || !Name->isString())
      return failParse(Error, Where + ": missing string \"name\"");
    if (!requireNumber(P, "wall_ns", Where, Error) ||
        !requireNumber(P, "calls", Where, Error))
      return false;
    Out.Phases.push_back({Name->str(),
                          static_cast<uint64_t>(P.getNumber("wall_ns")),
                          static_cast<uint64_t>(P.getNumber("calls"))});
  }

  const json::Value *Counters = Root.get("counters");
  if (!Counters || !Counters->isObject())
    return failParse(Error, "missing object \"counters\"");
  for (const auto &[Name, V] : Counters->members()) {
    if (!V.isNumber())
      return failParse(Error, "counter \"" + Name + "\" is not numeric");
    Out.Counters.emplace_back(Name, V.asUInt());
  }

  const json::Value *Spans = Root.get("spans");
  if (!Spans || !Spans->isArray())
    return failParse(Error, "missing array \"spans\"");
  for (size_t I = 0; I != Spans->array().size(); ++I) {
    const json::Value &SV = Spans->array()[I];
    std::string Where = "spans[" + std::to_string(I) + "]";
    if (!SV.isObject())
      return failParse(Error, Where + ": not an object");
    const json::Value *Name = SV.get("name");
    if (!Name || !Name->isString())
      return failParse(Error, Where + ": missing string \"name\"");
    for (const char *Key : {"id", "parent", "depth", "start_ns", "wall_ns",
                            "cpu_ns", "mem_net_bytes", "mem_peak_bytes"})
      if (!requireNumber(SV, Key, Where, Error))
        return false;
    SpanStat S;
    S.Id = static_cast<uint64_t>(SV.getNumber("id"));
    S.Parent = static_cast<uint64_t>(SV.getNumber("parent"));
    S.Name = Name->str();
    S.Depth = static_cast<unsigned>(SV.getNumber("depth"));
    S.StartNanos = static_cast<uint64_t>(SV.getNumber("start_ns"));
    S.DurNanos = static_cast<uint64_t>(SV.getNumber("wall_ns"));
    S.CpuNanos = static_cast<uint64_t>(SV.getNumber("cpu_ns"));
    S.MemNetBytes = static_cast<int64_t>(SV.getNumber("mem_net_bytes"));
    S.MemPeakBytes = static_cast<int64_t>(SV.getNumber("mem_peak_bytes"));
    if (const json::Value *Args = SV.get("args")) {
      if (!Args->isObject())
        return failParse(Error, Where + ": \"args\" is not an object");
      for (const auto &[K, V] : Args->members()) {
        if (V.isNumber())
          S.IntArgs.emplace_back(K, V.asUInt());
        else if (V.isString())
          S.StrArgs.emplace_back(K, V.str());
        else
          return failParse(Error, Where + ": arg \"" + K +
                                      "\" is neither number nor string");
      }
    }

    // Structural invariants: ids are dense and begin-ordered, so a
    // parent always precedes its children. No orphans.
    if (S.Id != I + 1)
      return failParse(Error, Where + ": id " + std::to_string(S.Id) +
                                  " is not dense (want " +
                                  std::to_string(I + 1) + ")");
    if (S.Parent >= S.Id)
      return failParse(Error, Where + ": parent " +
                                  std::to_string(S.Parent) +
                                  " does not precede span " +
                                  std::to_string(S.Id));
    Out.Spans.push_back(std::move(S));
  }

  return true;
}
