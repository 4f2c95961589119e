#include "hashing/chain_table.h"

#include "fol/fol1.h"
#include "hashing/hash_fn.h"
#include "support/require.h"

namespace folvec::hashing {

using vm::Mask;
using vm::VectorMachine;
using vm::Word;
using vm::WordVec;

ChainTable::ChainTable(std::size_t table_size, std::size_t capacity,
                       vm::CostAccumulator* cost)
    : head_(table_size, kNil),
      node_key_(capacity, 0),
      node_next_(capacity, kNil),
      cost_(cost) {
  FOLVEC_REQUIRE(table_size > 0, "table size must be positive");
}

void ChainTable::insert_scalar(Word key) {
  FOLVEC_REQUIRE(alloc_ < node_key_.size(), "chain table pool exhausted");
  const auto h = static_cast<std::size_t>(
      mod_hash(key, static_cast<Word>(head_.size())));
  cost_.div(1);  // hash: one integer modulus
  cost_.alu(1);
  const auto node = static_cast<Word>(alloc_++);
  node_key_[static_cast<std::size_t>(node)] = key;
  node_next_[static_cast<std::size_t>(node)] = head_[h];
  head_[h] = node;
  cost_.mem(4);  // read head, write key/next/head
  cost_.branch(1);
}

std::size_t ChainTable::count(Word key) const {
  const auto h = static_cast<std::size_t>(
      mod_hash(key, static_cast<Word>(head_.size())));
  std::size_t n = 0;
  for (Word node = head_[h]; node != kNil;
       node = node_next_[static_cast<std::size_t>(node)]) {
    if (node_key_[static_cast<std::size_t>(node)] == key) ++n;
  }
  return n;
}

std::vector<Word> ChainTable::chain(std::size_t h) const {
  FOLVEC_REQUIRE(h < head_.size(), "table entry out of range");
  std::vector<Word> keys;
  for (Word node = head_[h]; node != kNil;
       node = node_next_[static_cast<std::size_t>(node)]) {
    keys.push_back(node_key_[static_cast<std::size_t>(node)]);
  }
  return keys;
}

vm::WordVec ChainTable::multi_count(VectorMachine& m,
                                    std::span<const Word> keys) const {
  WordVec counts = m.splat(keys.size(), 0);
  if (keys.empty()) return counts;
  const WordVec key_vec = m.copy(keys);
  const WordVec hashed =
      m.mod_scalar(key_vec, static_cast<Word>(head_.size()));
  WordVec cursor = m.gather(head_, hashed);
  vm::Mask live = m.ne_scalar(cursor, kNil);
  while (m.count_true(live) > 0) {
    const WordVec node_keys_here = m.gather_masked(node_key_, cursor, live, 0);
    const vm::Mask match = m.mask_and(m.eq(node_keys_here, key_vec), live);
    counts = m.add(counts, m.from_mask(match));
    cursor = m.select(live, m.gather_masked(node_next_, cursor, live, kNil),
                      cursor);
    live = m.mask_and(live, m.ne_scalar(cursor, kNil));
  }
  return counts;
}

void multi_hash_chain_insert(VectorMachine& m, ChainTable& t,
                             std::span<const Word> keys) {
  if (keys.empty()) return;
  FOLVEC_REQUIRE(t.alloc_ + keys.size() <= t.node_key_.size(),
                 "chain table pool exhausted");
  const auto size = static_cast<Word>(t.head_.size());

  // FOL processes 1-2 (Figure 7): decompose the hashed index vector into
  // conflict-free sets. The label work area is a dedicated word per table
  // entry, as in the figure's "work areas for labels".
  const WordVec key_vec = m.copy(keys);
  const WordVec hashed = m.mod_scalar(key_vec, size);
  WordVec work(t.head_.size(), 0);
  const fol::Decomposition dec = fol::fol1_decompose(m, hashed, work);

  // Main processing, one parallel-processable set at a time: allocate the
  // set's nodes contiguously, link them in front of their chains. The
  // drained tail, if any, is linked afterwards in one pass.
  const std::size_t vector_sets =
      dec.drained_lanes > 0 ? dec.drained_from : dec.sets.size();
  for (std::size_t j = 0; j < vector_sets; ++j) {
    const std::span<const std::size_t> set = dec.sets[j];
    const std::size_t k = set.size();
    // Pack this set's keys and table entries (compress under the set mask
    // costs the same as building the mask + compressing; we charge the two
    // compressions the sets were produced from in fol1 already, plus the
    // per-set gathers/scatters below).
    WordVec set_keys(k);
    WordVec set_entries(k);
    for (std::size_t i = 0; i < k; ++i) {
      set_keys[i] = key_vec[set[i]];
      set_entries[i] = hashed[set[i]];
    }
    // New node indices: pool watermark upward.
    const WordVec nodes = m.iota(k, static_cast<Word>(t.alloc_));
    // node.key := key
    m.store(t.node_key_, t.alloc_, set_keys);
    // node.next := head[h]   (list-vector load of the current heads)
    const WordVec old_heads = m.gather(t.head_, set_entries);
    m.store(t.node_next_, t.alloc_, old_heads);
    // head[h] := node        (conflict-free within the set by Lemma 2)
    m.scatter(t.head_, set_entries, nodes);
    t.alloc_ += k;
  }
  if (dec.drained_lanes > 0) {
    // The per-set loop would give drained lane f (flat, in set order) node
    // base + f, link it to the node its address got in the previous set (or
    // to the old head, in the first drained set), and leave each chain's head
    // at its address's node in its last set. drained_pred and drained_last
    // name exactly those nodes, so every drained set links in one fixed
    // sequence of vector instructions with the same result.
    const std::size_t k = dec.drained_lanes;
    const std::size_t first = dec.sets[dec.drained_from].size();
    const auto base = static_cast<Word>(t.alloc_);
    const std::span<const std::size_t> tail = dec.sets.lanes().last(k);
    WordVec tail_keys(k);
    WordVec tail_entries(k);
    for (std::size_t f = 0; f < k; ++f) {
      tail_keys[f] = key_vec[tail[f]];
      tail_entries[f] = hashed[tail[f]];
    }
    // node.key := key
    m.store(t.node_key_, t.alloc_, tail_keys);
    // First drained set: node.next := head[h]   (distinct entries, Lemma 2)
    const WordVec old_heads =
        m.gather(t.head_, std::span<const Word>(tail_entries).first(first));
    m.store(t.node_next_, t.alloc_, old_heads);
    // Later sets: node.next := base + pred   (the node one set earlier; the
    // drain trigger leaves at least one later set)
    const WordVec pred = m.load(dec.drained_pred, first, k - first);
    m.store(t.node_next_, t.alloc_ + first, m.add_scalar(pred, base));
    // head[h] := base + last   (one lane per distinct entry: conflict-free)
    const WordVec last = m.load(dec.drained_last, 0, first);
    const WordVec last_entries = m.gather(tail_entries, last);
    m.scatter(t.head_, last_entries, m.add_scalar(last, base));
    t.alloc_ += k;
  }
  m.retire_work(work);
}

}  // namespace folvec::hashing
