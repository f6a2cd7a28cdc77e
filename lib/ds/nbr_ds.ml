(** Concurrent set data structures, parameterized over runtime and SMR
    scheme.

    - {!Lazy_list}: lock-based sorted list (single read/write phase).
    - {!Dgt_bst}: external BST with lock-free searches, lock-based updates
      (single read/write phase, 3 reservations).
    - {!Harris_list}: lock-free list traversing marked nodes (k-NBR).
    - {!Ab_tree}: relaxed (a,b)-tree with copy-on-write nodes (k-NBR).
    - {!Hash_set}: lock-free hash set of Harris-list buckets (extension).
    - {!Skip_list}: optimistic skiplist, up to 17 reservations (extension).

    The four lock-based structures (lazy list, DGT tree, (a,b)-tree, skip
    list) declare a lock word as their last data field, [f_lock], and take
    it with [Pool.lock]; the Harris list and the hash set carry none. *)

module Lazy_list = Lazy_list
module Dgt_bst = Dgt_bst
module Harris_list = Harris_list
module Ab_tree = Ab_tree
module Hash_set = Hash_set
module Skip_list = Skip_list
