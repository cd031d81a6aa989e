//===-- support/ThreadPool.h - Retired worker-count setting -----*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline runs on the calling thread; there is no worker pool.
/// This header keeps the one entry point the end-to-end benchmark
/// (perfbench/tool.cpp) still calls, so that harness builds unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_SUPPORT_THREADPOOL_H
#define DMM_SUPPORT_THREADPOOL_H

namespace dmm {

/// Does nothing: every pipeline stage is sequential, so a worker count
/// has no effect. Kept only for callers written against the old pool.
inline void setGlobalJobs(unsigned) {}

} // namespace dmm

#endif // DMM_SUPPORT_THREADPOOL_H
