//===-- telemetry/HtmlReport.cpp ------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "telemetry/HtmlReport.h"

#include "telemetry/Stats.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <vector>

using namespace dmm;
using namespace dmm::stats;

namespace {

/// Rows rendered in the waterfall before truncating (keeps the page
/// readable and small for span-heavy runs).
constexpr size_t kMaxWaterfallRows = 600;
constexpr size_t kTopHotSpans = 10;
/// Dead-byte heat rows rendered before truncating.
constexpr size_t kMaxHeatRows = 50;

void escape(std::ostream &OS, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '&':
      OS << "&amp;";
      break;
    case '<':
      OS << "&lt;";
      break;
    case '>':
      OS << "&gt;";
      break;
    case '"':
      OS << "&quot;";
      break;
    default:
      OS << C;
    }
  }
}

std::string ms(uint64_t Nanos) {
  std::ostringstream OS;
  OS << std::fixed << std::setprecision(3) << Nanos / 1e6;
  return OS.str();
}

std::string bytes(int64_t B) {
  std::ostringstream OS;
  const char *Unit = "B";
  double V = static_cast<double>(B);
  double A = V < 0 ? -V : V;
  if (A >= 1024.0 * 1024.0) {
    V /= 1024.0 * 1024.0;
    Unit = "MiB";
  } else if (A >= 1024.0) {
    V /= 1024.0;
    Unit = "KiB";
  }
  OS << std::fixed << std::setprecision(A >= 1024.0 ? 1 : 0) << V << "&nbsp;"
     << Unit;
  return OS.str();
}

/// Self time = wall time minus the wall time of direct children.
std::vector<uint64_t> selfTimes(const StatsDocument &D) {
  std::vector<uint64_t> ChildNanos(D.Spans.size(), 0);
  for (const SpanRecord &S : D.Spans)
    if (S.Parent)
      ChildNanos[S.Parent - 1] += S.DurNanos;
  std::vector<uint64_t> Self(D.Spans.size(), 0);
  for (size_t I = 0; I != D.Spans.size(); ++I) {
    uint64_t Dur = D.Spans[I].DurNanos;
    Self[I] = Dur > ChildNanos[I] ? Dur - ChildNanos[I] : 0;
  }
  return Self;
}

} // namespace

void stats::renderHtmlReport(const StatsDocument &D, std::ostream &OS) {
  OS << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n<title>deadmember run report</title>\n"
        "<style>\n"
        "body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;"
        "max-width:72em;padding:0 1em;color:#1c2430;}\n"
        "h1{font-size:1.4em;} h2{font-size:1.1em;margin-top:2em;"
        "border-bottom:1px solid #d4dae3;padding-bottom:.2em;}\n"
        "table{border-collapse:collapse;min-width:30em;}\n"
        "th,td{padding:.25em .8em;text-align:left;border-bottom:"
        "1px solid #e4e8ee;} th{background:#f2f5f9;}\n"
        "td.num,th.num{text-align:right;font-variant-numeric:"
        "tabular-nums;}\n"
        ".meta{color:#5a6675;}\n"
        ".wf{position:relative;border-left:1px solid #d4dae3;}\n"
        ".wfrow{position:relative;height:18px;}\n"
        ".wfbar{position:absolute;top:2px;height:14px;background:#4c7fd0;"
        "border-radius:2px;min-width:2px;opacity:.85;}\n"
        ".wfbar.d1{background:#6aa36f;} .wfbar.d2{background:#c98a3d;}\n"
        ".wfbar.d3{background:#a66bbf;} .wfbar.d4{background:#c05a5a;}\n"
        ".wflabel{position:absolute;left:.4em;top:0;font-size:11px;"
        "white-space:nowrap;pointer-events:none;color:#1c2430;}\n"
        "</style>\n</head>\n<body>\n";

  OS << "<h1>deadmember run report</h1>\n<p class=\"meta\">tool: ";
  escape(OS, D.Tool);
  OS << " &middot; jobs: " << D.Jobs << " &middot; memory accounting: "
     << (D.MemAccounting ? "on" : "unavailable") << " &middot; spans: "
     << D.Spans.size() << "</p>\n";

  // --- Top hot spans -----------------------------------------------------
  std::vector<uint64_t> Self = selfTimes(D);
  std::vector<size_t> Order(D.Spans.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Self[A] > Self[B];
  });
  size_t TopN = std::min(kTopHotSpans, Order.size());

  OS << "<h2>Top " << TopN << " hot spans (by self time)</h2>\n"
        "<table>\n<tr><th>span</th><th class=\"num\">self ms</th>"
        "<th class=\"num\">wall ms</th><th class=\"num\">cpu ms</th>"
        "<th class=\"num\">peak mem</th><th>detail</th></tr>\n";
  for (size_t I = 0; I != TopN; ++I) {
    const SpanRecord &S = D.Spans[Order[I]];
    OS << "<tr><td>";
    escape(OS, S.Name);
    OS << "</td><td class=\"num\">" << ms(Self[Order[I]])
       << "</td><td class=\"num\">" << ms(S.DurNanos)
       << "</td><td class=\"num\">" << ms(S.CpuNanos)
       << "</td><td class=\"num\">" << bytes(S.MemPeakBytes) << "</td><td>";
    bool First = true;
    for (const auto &[K, V] : S.StrArgs) {
      OS << (First ? "" : ", ");
      First = false;
      escape(OS, K);
      OS << "=";
      escape(OS, V);
    }
    for (const auto &[K, V] : S.IntArgs) {
      OS << (First ? "" : ", ");
      First = false;
      escape(OS, K);
      OS << "=" << V;
    }
    OS << "</td></tr>\n";
  }
  OS << "</table>\n";

  // --- Waterfall ---------------------------------------------------------
  uint64_t End = 0;
  for (const SpanRecord &S : D.Spans)
    End = std::max(End, S.StartNanos + S.DurNanos);
  size_t Rows = std::min(kMaxWaterfallRows, D.Spans.size());
  OS << "<h2>Span waterfall</h2>\n";
  if (Rows < D.Spans.size())
    OS << "<p class=\"meta\">showing the first " << Rows << " of "
       << D.Spans.size() << " spans.</p>\n";
  OS << "<div class=\"wf\">\n";
  for (size_t I = 0; I != Rows; ++I) {
    const SpanRecord &S = D.Spans[I];
    double Left = End ? 100.0 * S.StartNanos / End : 0;
    double Width = End ? 100.0 * S.DurNanos / End : 0;
    OS << "<div class=\"wfrow\"><div class=\"wfbar d"
       << (S.Depth > 4 ? 4u : S.Depth) << "\" style=\"left:" << std::fixed
       << std::setprecision(3) << Left << "%;width:" << Width
       << "%\"></div><span class=\"wflabel\" style=\"padding-left:"
       << S.Depth * 1.2 << "em\">";
    escape(OS, S.Name);
    OS << " &middot; " << ms(S.DurNanos) << " ms</span></div>\n";
  }
  OS << "</div>\n";

  // --- Shadow profiler ---------------------------------------------------
  if (D.Profiler.Present) {
    const ProfilerSection &P = D.Profiler;
    OS << "<h2>Shadow profiler</h2>\n<table>\n"
          "<tr><th>metric</th><th class=\"num\">value</th></tr>\n"
          "<tr><td>object space</td><td class=\"num\">" << P.ObjectSpace
       << "</td></tr>\n<tr><td>dead data member space</td>"
          "<td class=\"num\">" << P.DeadMemberSpace
       << "</td></tr>\n<tr><td>high water mark</td><td class=\"num\">"
       << P.HighWaterMark
       << "</td></tr>\n<tr><td>high water mark w/o dead members</td>"
          "<td class=\"num\">" << P.HighWaterMarkNoDead
       << "</td></tr>\n<tr><td>objects</td><td class=\"num\">"
       << P.NumObjects
       << "</td></tr>\n<tr><td>allocation events</td><td class=\"num\">"
       << P.AllocEvents
       << "</td></tr>\n<tr><td>free events</td><td class=\"num\">"
       << P.FreeEvents
       << "</td></tr>\n<tr><td>leaked objects</td><td class=\"num\">"
       << P.LeakedObjects
       << "</td></tr>\n<tr><td>peak at allocation event</td>"
          "<td class=\"num\">" << P.PeakAllocEvent
       << "</td></tr>\n<tr><td>snapshot stride</td><td class=\"num\">"
       << P.SnapshotStride << "</td></tr>\n</table>\n";

    // High-water-mark timeline: one bar per snapshot, full bar = live
    // bytes, darker inner bar = live bytes without dead members. The
    // gap between the two is the recoverable dead-member space at that
    // point of the execution.
    if (!P.Snapshots.empty()) {
      uint64_t MaxLive = 1;
      for (const ProfilerSnapshotRow &S : P.Snapshots)
        MaxLive = std::max(MaxLive, S.LiveBytes);
      OS << "<h2>High-water-mark timeline</h2>\n<p class=\"meta\">"
         << P.Snapshots.size()
         << " snapshots (allocation-count stride " << P.SnapshotStride
         << "); light bar: live bytes, dark bar: live bytes without "
            "dead members.</p>\n<div class=\"wf\">\n";
      for (const ProfilerSnapshotRow &S : P.Snapshots) {
        double Full = 100.0 * static_cast<double>(S.LiveBytes) /
                      static_cast<double>(MaxLive);
        double NoDead = 100.0 * static_cast<double>(S.LiveBytesNoDead) /
                        static_cast<double>(MaxLive);
        OS << "<div class=\"wfrow\"><div class=\"wfbar d2\" style=\""
              "left:0;width:" << std::fixed << std::setprecision(3)
           << Full << "%\"></div><div class=\"wfbar\" style=\"left:0;"
              "width:" << NoDead
           << "%\"></div><span class=\"wflabel\">event " << S.Event
           << " &middot; " << S.LiveBytes << " B live &middot; "
           << S.LiveBytesNoDead << " B w/o dead &middot; "
           << S.LiveObjects << " objects</span></div>\n";
      }
      OS << "</div>\n";
    }

    // Dead-byte heat: allocation sites ranked by never-read bytes.
    std::vector<const ProfilerSiteRow *> Heat;
    for (const ProfilerSiteRow &S : P.Sites)
      Heat.push_back(&S);
    std::stable_sort(Heat.begin(), Heat.end(),
                     [](const ProfilerSiteRow *A, const ProfilerSiteRow *B) {
                       return A->NeverReadBytes > B->NeverReadBytes;
                     });
    size_t HeatRows = std::min(kMaxHeatRows, Heat.size());
    OS << "<h2>Dead-byte heat (by allocation site)</h2>\n";
    if (HeatRows < Heat.size())
      OS << "<p class=\"meta\">showing the top " << HeatRows << " of "
         << Heat.size() << " site cells.</p>\n";
    OS << "<table>\n<tr><th>site</th><th>class</th><th>member</th>"
          "<th class=\"num\">objects</th><th class=\"num\">alloc B</th>"
          "<th class=\"num\">written B</th><th class=\"num\">read B</th>"
          "<th class=\"num\">addr-taken B</th>"
          "<th class=\"num\">never-read B</th><th>dead?</th></tr>\n";
    for (size_t I = 0; I != HeatRows; ++I) {
      const ProfilerSiteRow &S = *Heat[I];
      OS << "<tr><td>";
      escape(OS, S.File);
      OS << ":" << S.Line << "</td><td>";
      escape(OS, S.Class);
      OS << "</td><td>";
      escape(OS, S.Member);
      OS << "</td><td class=\"num\">" << S.Objects
         << "</td><td class=\"num\">" << S.AllocBytes
         << "</td><td class=\"num\">" << S.WrittenBytes
         << "</td><td class=\"num\">" << S.ReadBytes
         << "</td><td class=\"num\">" << S.AddrTakenBytes
         << "</td><td class=\"num\">" << S.NeverReadBytes << "</td><td>"
         << (S.StaticDead ? "dead" : "") << "</td></tr>\n";
    }
    OS << "</table>\n";
  }

  // --- Diagnostics --------------------------------------------------------
  if (D.Diagnostics.Present) {
    const DiagnosticsSection &G = D.Diagnostics;
    OS << "<h2>Diagnostics</h2>\n<table>\n"
          "<tr><th>metric</th><th class=\"num\">value</th></tr>\n"
          "<tr><td>log events (error)</td><td class=\"num\">" << G.LogError
       << "</td></tr>\n<tr><td>log events (warn)</td><td class=\"num\">"
       << G.LogWarn
       << "</td></tr>\n<tr><td>log events (info)</td><td class=\"num\">"
       << G.LogInfo
       << "</td></tr>\n<tr><td>log events (debug)</td><td class=\"num\">"
       << G.LogDebug
       << "</td></tr>\n<tr><td>log events (trace)</td><td class=\"num\">"
       << G.LogTrace
       << "</td></tr>\n<tr><td>flight-recorder events</td>"
          "<td class=\"num\">" << G.RecorderEvents
       << "</td></tr>\n<tr><td>flight-recorder dropped</td>"
          "<td class=\"num\">" << G.RecorderDropped
       << "</td></tr>\n<tr><td>crash reports</td><td class=\"num\">"
       << G.Crashes << "</td></tr>\n</table>\n";
  }

  // --- Phases and counters ----------------------------------------------
  OS << "<h2>Phases</h2>\n<table>\n<tr><th>phase</th>"
        "<th class=\"num\">wall ms</th><th class=\"num\">calls</th></tr>\n";
  for (const PhaseStat &P : D.Phases) {
    OS << "<tr><td>";
    escape(OS, P.Name);
    OS << "</td><td class=\"num\">" << ms(P.Nanos) << "</td><td class=\"num\">"
       << P.Invocations << "</td></tr>\n";
  }
  OS << "</table>\n";

  OS << "<h2>Counters</h2>\n<table>\n<tr><th>counter</th>"
        "<th class=\"num\">value</th></tr>\n";
  for (const auto &[K, V] : D.Counters) {
    OS << "<tr><td>";
    escape(OS, K);
    OS << "</td><td class=\"num\">" << V << "</td></tr>\n";
  }
  OS << "</table>\n</body>\n</html>\n";
}
