//===-- analysis/ProgramStats.h - Table 1 / Figure 3 stats ------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static program characteristics matching the paper's Table 1 and the
/// percentages of Figure 3:
///
///  - lines of code (non-blank lines of user source files);
///  - number of classes, and of *used* classes — classes for which a
///    constructor call occurs in the application (instantiated directly
///    via locals/globals/new, or as member subobjects of used classes);
///  - number of data members occurring in used classes;
///  - percentage of those members that are dead (unweighted by size,
///    as in the paper §4.2: there is no static way to weight by
///    instantiation counts).
///
/// Members of unused classes are ignored: eliminating them does not
/// shrink any object created at run time.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_ANALYSIS_PROGRAMSTATS_H
#define DMM_ANALYSIS_PROGRAMSTATS_H

#include "analysis/DeadMemberAnalysis.h"

#include <set>

namespace dmm {

class ASTContext;
class SourceManager;

/// Static characteristics of one program.
struct ProgramStats {
  unsigned LinesOfCode = 0;
  unsigned NumClasses = 0;
  unsigned NumUsedClasses = 0;
  unsigned NumMembersInUsedClasses = 0;
  unsigned NumDeadMembersInUsedClasses = 0;

  double percentDead() const {
    return NumMembersInUsedClasses
               ? 100.0 * NumDeadMembersInUsedClasses /
                     NumMembersInUsedClasses
               : 0.0;
  }
};

/// Classes for which a constructor call occurs anywhere in the program
/// text (syntactic, like the paper's Table 1 "used classes" count): the
/// ones Sema marked instantiated, closed over member-object and base
/// classes. Library classes are excluded.
std::set<const ClassDecl *> computeUsedClasses(const ASTContext &Ctx);

/// Computes the full characteristics row. \p UserFileIDs are the
/// non-library source buffers whose lines count toward LoC; pass an
/// empty list to skip line counting.
ProgramStats computeProgramStats(const ASTContext &Ctx,
                                 const DeadMemberResult &Result,
                                 const SourceManager *SM = nullptr,
                                 const std::vector<uint32_t> &UserFileIDs = {});

} // namespace dmm

#endif // DMM_ANALYSIS_PROGRAMSTATS_H
