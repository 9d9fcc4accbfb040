// The slot a trainable model keeps its training workspace in.
#pragma once

#include <memory>

namespace highrpm::ml {

/// Holds a model's training workspace (DESIGN.md §8, "Training workspace"):
/// created by the model's first fit and reused by every later one. Copying
/// the slot copies nothing, so a copied model (a facade clone, a fleet lane)
/// starts without a workspace and never clones or shares its original's,
/// and a model that never fits carries one null pointer.
template <class Workspace>
class TrainWorkspaceSlot {
 public:
  TrainWorkspaceSlot() = default;
  TrainWorkspaceSlot(const TrainWorkspaceSlot&) noexcept {}
  TrainWorkspaceSlot& operator=(const TrainWorkspaceSlot&) noexcept {
    return *this;
  }
  TrainWorkspaceSlot(TrainWorkspaceSlot&&) noexcept = default;
  TrainWorkspaceSlot& operator=(TrainWorkspaceSlot&&) noexcept = default;
  ~TrainWorkspaceSlot() = default;

  /// The workspace, created on first use.
  Workspace& get() {
    if (!ws_) ws_ = std::make_unique<Workspace>();
    return *ws_;
  }

 private:
  std::unique_ptr<Workspace> ws_;
};

}  // namespace highrpm::ml
