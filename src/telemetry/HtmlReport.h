//===-- telemetry/HtmlReport.h - Self-contained HTML report -----*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a stats document (telemetry/Stats.h) as a single
/// self-contained HTML page — no external assets, no script
/// dependencies — with a span waterfall, the top-N hot spans by self
/// time, and all counters. Driven by the driver's
/// `--report=FILE.html` flag, either from the live run or from a
/// previously written stats file (`--from-stats=FILE`).
///
//===----------------------------------------------------------------------===//

#ifndef DMM_TELEMETRY_HTMLREPORT_H
#define DMM_TELEMETRY_HTMLREPORT_H

#include <ostream>

namespace dmm {
namespace stats {

struct StatsDocument;

/// Writes the report page for \p D to \p OS.
void renderHtmlReport(const StatsDocument &D, std::ostream &OS);

} // namespace stats
} // namespace dmm

#endif // DMM_TELEMETRY_HTMLREPORT_H
