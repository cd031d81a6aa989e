//===-- support/Arena.h - Bump-pointer allocator ----------------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple bump-pointer arena used by ASTContext. AST nodes are allocated
/// here and freed all at once when the context dies. Expressions and
/// statements are trivially destructible (names are views into source
/// buffers, child lists are arena arrays), so they cost no teardown.
/// Decls (and FunctionTypes) still own std::string/std::vector members,
/// so the arena records their destructors and runs them at teardown.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_SUPPORT_ARENA_H
#define DMM_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace dmm {

/// Bump allocator with destructor tracking.
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  ~Arena() {
    // Run destructors in reverse allocation order.
    for (auto It = Dtors.rbegin(), E = Dtors.rend(); It != E; ++It)
      It->Fn(It->Obj);
  }

  /// Allocates and constructs a T; its destructor runs when the arena dies.
  template <typename T, typename... Args> T *create(Args &&...A) {
    void *Mem = allocate(sizeof(T), alignof(T));
    T *Obj = new (Mem) T(std::forward<Args>(A)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      Dtors.push_back({Obj, [](void *P) { static_cast<T *>(P)->~T(); }});
    return Obj;
  }

  /// Allocates uninitialized room for \p N objects of type T.
  template <typename T> T *allocateArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena arrays are never destroyed");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Total bytes handed out (for statistics).
  size_t bytesAllocated() const { return Allocated; }

private:
  void *allocate(size_t Size, size_t Align) {
    size_t Aligned = (Cur + Align - 1) & ~(Align - 1);
    if (Aligned + Size > End) {
      size_t SlabSize = std::max<size_t>(DefaultSlabSize, Size + Align);
      Slabs.push_back(std::make_unique_for_overwrite<char[]>(SlabSize));
      Cur = reinterpret_cast<uintptr_t>(Slabs.back().get());
      End = Cur + SlabSize;
      Aligned = (Cur + Align - 1) & ~(Align - 1);
    }
    Cur = Aligned + Size;
    Allocated += Size;
    return reinterpret_cast<void *>(Aligned);
  }

  static constexpr size_t DefaultSlabSize = 64 * 1024;

  struct DtorRecord {
    void *Obj;
    void (*Fn)(void *);
  };

  std::vector<std::unique_ptr<char[]>> Slabs;
  std::vector<DtorRecord> Dtors;
  uintptr_t Cur = 0;
  uintptr_t End = 0;
  size_t Allocated = 0;
};

} // namespace dmm

#endif // DMM_SUPPORT_ARENA_H
