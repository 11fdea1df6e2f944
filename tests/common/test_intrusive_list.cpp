#include "common/intrusive_list.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cool::util {
namespace {

struct Node {
  int value = 0;
  ListHook hook;
};

using List = IntrusiveList<Node, &Node::hook>;

TEST(IntrusiveList, StartsEmpty) {
  List l;
  EXPECT_TRUE(l.empty());
  EXPECT_EQ(l.size(), 0u);
  EXPECT_EQ(l.front(), nullptr);
  EXPECT_EQ(l.back(), nullptr);
  EXPECT_EQ(l.pop_front(), nullptr);
  EXPECT_EQ(l.pop_back(), nullptr);
}

TEST(IntrusiveList, PushPopFifo) {
  List l;
  Node a, b, c;
  a.value = 1;
  b.value = 2;
  c.value = 3;
  l.push_back(&a);
  l.push_back(&b);
  l.push_back(&c);
  EXPECT_EQ(l.size(), 3u);
  EXPECT_EQ(l.pop_front()->value, 1);
  EXPECT_EQ(l.pop_front()->value, 2);
  EXPECT_EQ(l.pop_front()->value, 3);
  EXPECT_TRUE(l.empty());
}

TEST(IntrusiveList, PushFrontPopBackLifo) {
  List l;
  Node a, b;
  a.value = 1;
  b.value = 2;
  l.push_front(&a);
  l.push_front(&b);
  EXPECT_EQ(l.front()->value, 2);
  EXPECT_EQ(l.back()->value, 1);
  EXPECT_EQ(l.pop_back()->value, 1);
  EXPECT_EQ(l.pop_back()->value, 2);
}

TEST(IntrusiveList, EraseMiddle) {
  List l;
  Node a, b, c;
  a.value = 1;
  b.value = 2;
  c.value = 3;
  l.push_back(&a);
  l.push_back(&b);
  l.push_back(&c);
  List::erase(&b);
  EXPECT_FALSE(b.hook.is_linked());
  EXPECT_EQ(l.size(), 2u);
  EXPECT_EQ(l.pop_front()->value, 1);
  EXPECT_EQ(l.pop_front()->value, 3);
}

TEST(IntrusiveList, UnlinkIsIdempotent) {
  Node a;
  a.value = 1;
  a.hook.unlink();  // Not linked: no-op.
  List l;
  l.push_back(&a);
  List::erase(&a);
  List::erase(&a);
  EXPECT_TRUE(l.empty());
}

TEST(IntrusiveList, ReinsertAfterPop) {
  List l;
  Node a;
  a.value = 1;
  l.push_back(&a);
  EXPECT_EQ(l.pop_front(), &a);
  l.push_back(&a);
  EXPECT_EQ(l.front(), &a);
}

TEST(IntrusiveList, MoveBetweenLists) {
  List l1, l2;
  Node a;
  a.value = 1;
  l1.push_back(&a);
  List::erase(&a);
  l2.push_back(&a);
  EXPECT_TRUE(l1.empty());
  EXPECT_EQ(l2.front(), &a);
}

TEST(IntrusiveList, Iteration) {
  List l;
  std::vector<Node> nodes(5);
  for (int i = 0; i < 5; ++i) {
    nodes[i].value = i;
    l.push_back(&nodes[i]);
  }
  int expect = 0;
  for (Node* n : l) EXPECT_EQ(n->value, expect++);
  EXPECT_EQ(expect, 5);
}

TEST(IntrusiveList, FindLastStopsAtTheBackmostMatch) {
  List l;
  std::vector<Node> nodes(6);
  for (int i = 0; i < 6; ++i) {
    nodes[i].value = i;
    l.push_back(&nodes[i]);
  }
  std::vector<int> visited;
  Node* even = l.find_last([&](const Node* n) {
    visited.push_back(n->value);
    return n->value % 2 == 0;
  });
  EXPECT_EQ(even, &nodes[4]);
  EXPECT_EQ(visited, (std::vector<int>{5, 4}));  // back first, then stops
  EXPECT_EQ(l.find_last([](const Node* n) { return n->value > 9; }), nullptr);
  EXPECT_EQ(l.size(), 6u);  // a search unlinks nothing
  List empty;
  EXPECT_EQ(empty.find_last([](const Node*) { return true; }), nullptr);
}

TEST(IntrusiveList, ClearUnlinksAll) {
  List l;
  std::vector<Node> nodes(4);
  for (auto& n : nodes) l.push_back(&n);
  l.clear();
  EXPECT_TRUE(l.empty());
  for (auto& n : nodes) EXPECT_FALSE(n.hook.is_linked());
}

TEST(IntrusiveList, HookOffsetRecovery) {
  // The hook is not the first member; owner recovery must still work.
  struct Padded {
    char pad[24] = {};
    int id = 0;
    ListHook hook;
  };
  IntrusiveList<Padded, &Padded::hook> l;
  Padded p;
  p.id = 77;
  l.push_back(&p);
  EXPECT_EQ(l.front()->id, 77);
  EXPECT_EQ(l.pop_front(), &p);
}

TEST(IntrusiveList, LargeStress) {
  List l;
  std::vector<Node> nodes(1000);
  for (int i = 0; i < 1000; ++i) {
    nodes[i].value = i;
    if (i % 2 == 0) {
      l.push_back(&nodes[i]);
    } else {
      l.push_front(&nodes[i]);
    }
  }
  EXPECT_EQ(l.size(), 1000u);
  // Erase every third node.
  for (int i = 0; i < 1000; i += 3) List::erase(&nodes[i]);
  std::size_t expect = 1000 - (1000 + 2) / 3;
  EXPECT_EQ(l.size(), expect);
}

}  // namespace
}  // namespace cool::util
