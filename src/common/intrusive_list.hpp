// Intrusive doubly-linked list.
//
// The COOL runtime scheduler (paper §5) links the non-empty task-affinity
// queues of each server into a doubly-linked list so that enqueue/dequeue and
// "next non-empty queue" are O(1) with no allocation. This container provides
// exactly that: nodes embed their own links, insertion/removal never allocate.
#pragma once

#include <cstddef>
#include <iterator>

#include "common/error.hpp"

namespace cool::util {

/// Embed one of these in any struct that should be linkable.
///
/// Auto-unlink semantics: a hook unlinks itself on destruction, so destroying
/// a node that is still on a list repairs the list instead of leaving a
/// dangling entry. Copying a hook never copies list membership — the copy
/// starts unlinked (copying a linked node into a list would corrupt it).
struct ListHook {
  ListHook* prev = nullptr;
  ListHook* next = nullptr;

  ListHook() = default;
  ListHook(const ListHook&) noexcept {}
  ListHook& operator=(const ListHook&) noexcept { return *this; }
  ~ListHook() { unlink(); }

  [[nodiscard]] bool is_linked() const noexcept { return prev != nullptr; }

  /// Unlink from whatever list this hook is on. Safe to call when unlinked.
  void unlink() noexcept {
    if (!is_linked()) return;
    prev->next = next;
    next->prev = prev;
    prev = nullptr;
    next = nullptr;
  }
};

/// Intrusive circular doubly-linked list of T, where T embeds a ListHook
/// reachable as `t->*HookPtr`.
template <typename T, ListHook T::* HookPtr>
class IntrusiveList {
 public:
  IntrusiveList() noexcept {
    head_.prev = &head_;
    head_.next = &head_;
  }

  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  ~IntrusiveList() { clear(); }

  [[nodiscard]] bool empty() const noexcept { return head_.next == &head_; }

  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const ListHook* h = head_.next; h != &head_; h = h->next) ++n;
    return n;
  }

  void push_back(T* item) noexcept {
    ListHook* h = hook(item);
    COOL_DCHECK(!h->is_linked(), "push_back of already-linked node");
    h->prev = head_.prev;
    h->next = &head_;
    head_.prev->next = h;
    head_.prev = h;
  }

  void push_front(T* item) noexcept {
    ListHook* h = hook(item);
    COOL_DCHECK(!h->is_linked(), "push_front of already-linked node");
    h->next = head_.next;
    h->prev = &head_;
    head_.next->prev = h;
    head_.next = h;
  }

  [[nodiscard]] T* front() const noexcept {
    return empty() ? nullptr : owner(head_.next);
  }

  [[nodiscard]] T* back() const noexcept {
    return empty() ? nullptr : owner(head_.prev);
  }

  T* pop_front() noexcept {
    if (empty()) return nullptr;
    T* item = owner(head_.next);
    hook(item)->unlink();
    return item;
  }

  T* pop_back() noexcept {
    if (empty()) return nullptr;
    T* item = owner(head_.prev);
    hook(item)->unlink();
    return item;
  }

  static void erase(T* item) noexcept { hook(item)->unlink(); }

  /// The node nearest the back for which `pred(node)` holds, or nullptr.
  /// Walks from the back and stops at the first match.
  template <typename Pred>
  [[nodiscard]] T* find_last(Pred pred) {
    for (ListHook* h = head_.prev; h != &head_; h = h->prev) {
      if (pred(owner(h))) return owner(h);
    }
    return nullptr;
  }

  /// Unlinks every node (does not destroy them — the list does not own).
  void clear() noexcept {
    while (pop_front() != nullptr) {
    }
  }

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T*;
    using difference_type = std::ptrdiff_t;

    iterator(ListHook* at, const ListHook* end) noexcept : at_(at), end_(end) {}
    T* operator*() const noexcept { return owner(at_); }
    iterator& operator++() noexcept {
      at_ = at_->next;
      return *this;
    }
    bool operator==(const iterator& o) const noexcept { return at_ == o.at_; }

   private:
    ListHook* at_;
    const ListHook* end_;
  };

  iterator begin() noexcept { return iterator(head_.next, &head_); }
  iterator end() noexcept { return iterator(&head_, &head_); }

  /// Read-only traversal (validators walk queues through const references).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = const T*;
    using difference_type = std::ptrdiff_t;

    const_iterator(const ListHook* at, const ListHook* end) noexcept
        : at_(at), end_(end) {}
    const T* operator*() const noexcept {
      return owner(const_cast<ListHook*>(at_));
    }
    const_iterator& operator++() noexcept {
      at_ = at_->next;
      return *this;
    }
    bool operator==(const const_iterator& o) const noexcept {
      return at_ == o.at_;
    }

   private:
    const ListHook* at_;
    const ListHook* end_;
  };

  const_iterator begin() const noexcept {
    return const_iterator(head_.next, &head_);
  }
  const_iterator end() const noexcept { return const_iterator(&head_, &head_); }

 private:
  static ListHook* hook(T* item) noexcept { return &(item->*HookPtr); }

  static T* owner(ListHook* h) noexcept {
    // Recover the T* from the embedded hook via member-pointer offset.
    alignas(T) static constexpr char probe_storage[sizeof(T)]{};
    const T* probe = reinterpret_cast<const T*>(probe_storage);
    const auto offset = reinterpret_cast<const char*>(&(probe->*HookPtr)) -
                        reinterpret_cast<const char*>(probe);
    return reinterpret_cast<T*>(reinterpret_cast<char*>(h) - offset);
  }

  ListHook head_;
};

}  // namespace cool::util
