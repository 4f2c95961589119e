// The parallel-processable sets of one FOL decomposition, stored flat.
//
// Every assigned lane sits in one array, set after set, and a second array
// holds each set's end offset into it. A decomposition therefore owns two
// allocations however many sets it produces: FOL1 on heavily shared keys
// makes thousands of one- or two-lane sets per call, and a vector per set
// would cost an allocation (and a free) for each. Readers see the familiar
// shape: size(), operator[](j) and range-for yield each set as a span.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

namespace folvec::fol {

class FlatSets {
 public:
  using Set = std::span<const std::size_t>;

  class iterator {
   public:
    using value_type = Set;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    iterator() = default;
    iterator(const FlatSets* sets, std::size_t j) : sets_(sets), j_(j) {}

    Set operator*() const { return (*sets_)[j_]; }
    iterator& operator++() {
      ++j_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++j_;
      return before;
    }
    bool operator==(const iterator&) const = default;

   private:
    const FlatSets* sets_ = nullptr;
    std::size_t j_ = 0;
  };
  using const_iterator = iterator;

  FlatSets() = default;
  /// Builds the sets from nested lists, e.g. {{0, 2}, {1}}.
  FlatSets(std::initializer_list<std::initializer_list<std::size_t>> sets) {
    for (const auto& set : sets) {
      lanes_.insert(lanes_.end(), set.begin(), set.end());
      ends_.push_back(lanes_.size());
    }
  }

  std::size_t size() const { return ends_.size(); }
  Set operator[](std::size_t j) const {
    const std::size_t first = offset(j);
    return lanes().subspan(first, ends_[j] - first);
  }
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size()}; }

  /// Every assigned lane, in set order.
  std::span<const std::size_t> lanes() const { return lanes_; }
  /// Each set's end offset into lanes().
  std::span<const std::size_t> ends() const { return ends_; }
  /// Offset of set j's first lane into lanes() (lanes().size() at j ==
  /// size()).
  std::size_t offset(std::size_t j) const { return j == 0 ? 0 : ends_[j - 1]; }

  // Building: a decomposition appends lanes with extend() and closes the
  // sets they form with end_set(), in set order.
  void reserve(std::size_t sets, std::size_t lanes) {
    ends_.reserve(sets);
    lanes_.reserve(lanes);
  }
  /// Appends `k` zeroed lanes for the caller to fill, in any order.
  std::span<std::size_t> extend(std::size_t k) {
    lanes_.resize(lanes_.size() + k);
    return std::span<std::size_t>(lanes_).last(k);
  }
  /// Closes the next set at offset `end` into lanes().
  void end_set(std::size_t end) { ends_.push_back(end); }

  friend bool operator==(const FlatSets&, const FlatSets&) = default;

 private:
  std::vector<std::size_t> lanes_;
  std::vector<std::size_t> ends_;
};

}  // namespace folvec::fol
